import dataclasses
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relscale import (
    CorrelationResult,
    CrossoverResult,
    FrontierPoint,
    FrontierSeries,
    LinearCalibration,
    LogLinearFit,
    MixtureSubgroup,
    PowerLawFit,
    RelativeFit,
    SigmoidCalibration,
    Subgroup,
    SweepPolicy,
    SyntheticSpec,
    ValidationError,
    known_truth,
)
from relscale.calibration import Forecast
from relscale.ioutil import atomic_write_text, dump_json, json_line, load_json
from relscale.lawfit import PowerLawFloorFit

RESULTS = [
    FrontierSeries(
        metric_key="bpb/b",
        scale_axis="flops",
        points=(
            FrontierPoint(1e18, 1e9, 3.0, 0.5, 0.99, 7),
            FrontierPoint(1e19, 3e9, 2.5, None, None, 1),
        ),
        warnings=("slice skipped",),
    ),
    PowerLawFit(alpha=3.0, beta=0.1, r2=0.99, n=5, series=((1e18, 2.0), (1e19, 1.6)),
                metric_key="bpb/b"),
    PowerLawFloorFit(alpha=3.0, beta=0.1, floor=0.5, r2=0.98, n=5, scale_axis="tokens"),
    LogLinearFit(slope_per_decade=0.05, intercept_at_ref=0.4, ref_scale=1e19, r2=0.9),
    RelativeFit(gamma=0.8, delta_beta=-0.02, mode="ratio", p_sign=0.01,
                ci_low=-0.03, ci_high=-0.01, n_pairs=12,
                pairs=((1e18, 2.0, 2.5), (1e19, 1.6, 2.1)), treatment="t", baseline="b"),
    RelativeFit(gamma=-0.1, delta_beta=0.01, mode="difference", p_sign=None,
                ci_low=None, ci_high=None, n_pairs=2),
    CrossoverResult(f_star=1e20, in_range=True),
    CorrelationResult(pearson_r=-0.8, p_value=0.02, regression_slope=-0.01, n=9,
                      groups=(("a", -0.5, 10.0), ("b", 0.1, 300))),
    SigmoidCalibration(floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8,
                       rmse=0.01, n=9, degenerate=True, points=((1.2, 0.8), (2.4, 0.3))),
    LinearCalibration(slope=-0.3, intercept=1.1, rmse=0.02, n=9),
    Forecast(predictions=((1e19, 2.1, 0.5), (1e21, 1.7, 0.75)),
             law=PowerLawFloorFit(alpha=3.0, beta=0.1, floor=0.5, r2=0.98, n=5),
             calibration=LinearCalibration(slope=-0.3, intercept=1.1, rmse=0.02, n=9)),
]


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: f"{r.kind}")
class TestTaggedRoundTrip:
    def test_round_trip_through_dict_and_json(self, result):
        cls = type(result)
        payload = result.to_dict()
        assert payload["kind"] == cls.kind
        assert cls.from_dict(payload) == result
        assert cls.from_dict(json.loads(json.dumps(payload))) == result

    def test_untagged_payload_and_extra_keys_load(self, result):
        payload = {k: v for k, v in result.to_dict().items() if k != "kind"}
        assert type(result).from_dict({**payload, "extra": [1, 2]}) == result

    def test_numeric_fields_follow_the_number_rule(self, result):
        # A frontier's numbers sit in its points, a forecast's in its law and
        # its calibration.
        payload = result.to_dict()
        holders = [(type(result), payload)]
        if isinstance(result, FrontierSeries):
            holders = [(FrontierPoint, payload["points"][0])]
        if isinstance(result, Forecast):
            holders = [(type(result.law), payload["law"]),
                       (type(result.calibration), payload["calibration"])]
        for cls, holder in holders:
            numeric = [f.name for f in dataclasses.fields(cls)
                       if f.type.split(" | ")[0] in ("float", "int")]
            assert numeric
            for name in numeric:
                good = holder[name]
                for bad in ("x", True, float("nan")):
                    holder[name] = bad
                    with pytest.raises(ValidationError, match=name):
                        type(result).from_dict(payload)
                holder[name] = good

    def test_mismatched_kind_raises(self, result):
        payload = {**result.to_dict(), "kind": "power_law_floored"}
        if result.kind == "power_law_floored":
            payload["kind"] = "power_law"
        with pytest.raises(ValidationError, match=repr(result.kind)):
            type(result).from_dict(payload)


def test_every_result_kind_is_distinct():
    kinds = {type(r): r.kind for r in RESULTS}
    assert len(set(kinds.values())) == len(kinds) == 10


def _json_config(cls, obj):
    """``cls`` loaded from the JSON object ``obj``; a subgroup loads as the
    one subgroup of a spec."""
    if cls in (Subgroup, MixtureSubgroup):
        schedule = [1e9] if cls is MixtureSubgroup else []
        return SyntheticSpec.from_dict({"budgets": [1e18], "subgroups": [obj],
                                        "total_tokens_schedule": schedule}).subgroups[0]
    return cls.from_dict(obj)


VALID_CONFIGS = {
    SweepPolicy: {},
    SyntheticSpec: {"budgets": [1e18], "subgroups": [{"name": "a", "alpha": 2, "beta": 0}]},
    Subgroup: {"name": "a", "alpha": 2, "beta": 0},
    MixtureSubgroup: {"name": "a", "data_share": 0.2, "transfer": 0, "exponent": 0.25,
                      "scale": 2},
}

CONFIG_NUMBERS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in VALID_CONFIGS
    for f in dataclasses.fields(cls)
    if f.type in ("float", "int")
]

CONFIG_INTS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in VALID_CONFIGS
    for f in dataclasses.fields(cls)
    if f.type == "int"
]

CONFIG_FLOATS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in VALID_CONFIGS
    for f in dataclasses.fields(cls)
    if f.type == "float"
]


class TestConfigNumberRule:
    @pytest.mark.parametrize("cls, name", CONFIG_NUMBERS)
    @pytest.mark.parametrize("bad", ['"x"', "true", "NaN", "Infinity", "1e400"])
    def test_numeric_field_rejects_a_non_number(self, cls, name, bad):
        obj = {**VALID_CONFIGS[cls], name: json.loads(bad)}
        with pytest.raises(ValidationError, match=name) as err:
            _json_config(cls, obj)
        assert err.value.field == name

    @pytest.mark.parametrize("cls, name", CONFIG_FLOATS)
    def test_float_field_rejects_an_integer_beyond_float_range(self, cls, name):
        obj = {**VALID_CONFIGS[cls], name: 10**400}
        with pytest.raises(ValidationError, match="float range") as err:
            _json_config(cls, obj)
        assert err.value.field == name

    @pytest.mark.parametrize("cls, name", CONFIG_INTS)
    def test_int_field_rejects_an_integer_beyond_float_range(self, cls, name):
        obj = {**VALID_CONFIGS[cls], name: -(10**400)}
        with pytest.raises(ValidationError, match="float range") as err:
            _json_config(cls, obj)
        assert err.value.field == name

    @pytest.mark.parametrize("cls", list(VALID_CONFIGS), ids=lambda c: c.__name__)
    def test_numbers_become_builtins_of_their_annotation(self, cls):
        config = _json_config(cls, VALID_CONFIGS[cls])
        for f in dataclasses.fields(cls):
            if f.type in ("float", "int"):
                assert type(getattr(config, f.name)).__name__ == f.type, f.name

    @pytest.mark.parametrize("cls", list(VALID_CONFIGS), ids=lambda c: c.__name__)
    def test_unknown_key_rejected_by_name(self, cls):
        with pytest.raises(ValidationError, match="unknown .* fields: \\['typo'\\]"):
            _json_config(cls, {**VALID_CONFIGS[cls], "typo": 1.0})

    @pytest.mark.parametrize("obj, message", [
        ({"subgroups": [{"name": "a", "alpha": 2.0, "beta": 0.1}]},
         "missing synthetic spec fields: ['budgets']"),
        ({"budgets": [1e18], "subgroups": [{"name": "a", "alpha": 2.0}]},
         "missing subgroup fields: ['beta']"),
        ({"budgets": [1e18], "subgroups": [{"name": "a", "data_share": 0.2}]},
         "missing subgroup fields: ['transfer', 'exponent', 'scale']"),
    ])
    def test_missing_keys_rejected_by_name(self, obj, message):
        with pytest.raises(ValidationError) as err:
            SyntheticSpec.from_dict(obj)
        assert str(err.value) == message


def test_load_json_names_a_number_past_the_digit_limit(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"kappa": %s}' % ("9" * 5000))
    with pytest.raises(ValidationError, match="config.json: not valid JSON"):
        load_json(path)


@pytest.mark.parametrize("text, key", [
    ('{"kappa": 1.0, "kappa": 2.0}', "kappa"),
    ('{"subgroups": [{"name": "a", "beta": 0.1, "beta": 0.2}]}', "beta"),
], ids=["top-level", "nested"])
def test_load_json_refuses_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_json(path)
    assert str(err.value) == f"{path}: repeated key {key!r}"
    assert err.value.field == key


def test_atomic_write_of_chunks_keeps_the_old_file_when_a_chunk_fails(tmp_path):
    path = tmp_path / "runs.jsonl"
    atomic_write_text(path, (line for line in ("a\n", "b\r\n")))
    assert path.read_bytes() == b"a\nb\r\n"

    def failing():
        yield "c\n"
        raise ValueError("row 2")

    with pytest.raises(ValueError, match="row 2"):
        atomic_write_text(path, failing())
    assert path.read_bytes() == b"a\nb\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]


# Characters that could pass for a separator or bracket of the indented form.
_TRICKY = st.text(alphabet='][{},:"\\\n \t\u00e9\u2603\U0001f600\x00', max_size=6)
_TEXT = st.one_of(_TRICKY, st.text(max_size=4))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 1e16, 0.1]))
_INTS = st.one_of(st.integers(-10, 10), st.integers(-10**40, 10**40))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)


def _dicts(values, min_size=0):
    """Dicts whose keys json can sort: all strings, all numbers or bools, or one None."""
    return st.one_of(st.dictionaries(_TEXT, values, min_size=min_size, max_size=4),
                     st.dictionaries(st.one_of(_INTS, _FLOATS, st.booleans()), values,
                                     min_size=min_size, max_size=4),
                     st.dictionaries(st.none(), values, min_size=min_size, max_size=1))


_ROW = st.one_of(_dicts(_SCALARS, min_size=1), st.lists(_SCALARS, min_size=1, max_size=4),
                 st.lists(_SCALARS, min_size=1, max_size=4).map(tuple))


@st.composite
def _row_lists(draw):
    """Over 256 rows repeating a few drawn ones; some with an empty row, or a
    row of the other kind, at a drawn place."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=3))
    out = [rows[i % len(rows)] for i in range(draw(st.integers(257, 600)))]
    odd = draw(st.sampled_from([None, {}, [], ("x", 1), {"k": 1}]))
    if odd is not None:
        out.insert(draw(st.integers(0, len(out))), odd)
    return out


_VALUES = st.recursive(
    st.one_of(_SCALARS, _row_lists()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple), _dicts(children)),
    max_leaves=12)


def _assert_same_text(got, want):
    """Fail at the first offset where two texts differ, showing 40 characters
    of each on either side. pytest's rewritten assert would diff the whole
    texts, which takes minutes on texts tens of KB long."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): "
                    f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


@given(_VALUES)
@example({"a": [math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324, 10**40, True, None, "]\n"],
          "b": {1: [], 2.5: {}, False: (), -math.inf: ["x"]}, "c": {None: [[]]}})
@example({"rows": [[1, "],\n  ["]] * 300 + [[]], "mixed": [{"a": 1}, [1]] * 200,
          "dicts": [{"}": "{", "x": 1.5}] * 513})
@example({1: "a", 2.5: [1], False: [{}]})
@example({None: [[1, 2], [3]]})
def test_dump_json_and_json_line_write_the_text_of_json_dumps(obj):
    _assert_same_text(dump_json(obj), json.dumps(obj, sort_keys=True, indent=2) + "\n")
    _assert_same_text(json_line(obj), json.dumps(obj) + "\n")


def test_to_dict_equals_asdict_for_frontiers_and_truth():
    series = RESULTS[0]
    expected = dataclasses.asdict(series)
    expected["points"] = list(expected["points"])
    assert series.to_dict() == {"kind": "frontier", **expected}
    spec = SyntheticSpec(budgets=(1e18, 1e19), subgroups=(
        Subgroup("a", 3.0, 0.1), Subgroup("b", 3.9, 0.12), Subgroup("c", 2.7, 0.09)))
    truth = known_truth(spec)
    assert truth.to_dict() == dataclasses.asdict(truth)
