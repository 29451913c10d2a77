import dataclasses
import json
import math
import os
import sys
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscale import (
    GroupingSpec,
    IngestError,
    RunRecord,
    RunSet,
    Subgroup,
    SyntheticSpec,
    ValidationError,
    aggregate_by_group,
    emit_runs,
    generate,
    ingest_runs,
)
from relscale import store
from relscale.ioutil import exact_int, finite_float, sha256_file
from relscale.store import runs_to_csv, runs_to_jsonl
from tests.conftest import make_run


def subset(runs, keep):
    """A new RunSet of the records of ``runs`` for which ``keep`` is true."""
    return RunSet(tuple(r for r in runs if keep(r)), runs.sha256)


def parse_anew(path):
    """``ingest_runs`` on a byte copy of ``path`` under another name of the same
    format: no held set answers it, so the copy is parsed."""
    copy = path.with_name(f"copy-{path.name}")
    copy.write_bytes(path.read_bytes())
    return ingest_runs(copy)


def row(run_id="a", source="internal", flops=6e17, params=100_000_000,
        tokens=1_000_000_000, metrics=None):
    return {
        "run_id": run_id,
        "source": source,
        "dataset": "web",
        "flops": flops,
        "params": params,
        "tokens": tokens,
        "metrics": metrics if metrics is not None else {"bpb/c4": 1.25},
    }


class TestRunRecord:
    def test_valid_internal(self):
        record = make_run("x", 6e17, 1_000_000_000, {"m": 0.5})
        assert record.params == 100_000_000

    def test_positive_fields_enforced(self):
        for field_name, bad in [("flops", 0.0), ("params", 0), ("tokens", -1)]:
            kwargs = dict(run_id="x", source="external", dataset="d",
                          flops=1e18, params=10, tokens=10, metrics={})
            kwargs[field_name] = bad
            with pytest.raises(ValidationError) as err:
                RunRecord(**kwargs)
            assert field_name in str(err.value)

    def test_internal_flops_consistency(self):
        # 6NT = 6e17 but declared flops 1e18: off by 40%, well past 1%.
        with pytest.raises(ValidationError) as err:
            RunRecord(run_id="x", source="internal", dataset="d", flops=1e18,
                      params=100_000_000, tokens=10**9, metrics={})
        assert "flops" in str(err.value)
        assert "40" in str(err.value)

    def test_external_exempt_from_consistency(self):
        RunRecord(run_id="x", source="external", dataset="d", flops=1e18,
                  params=100_000_000, tokens=10**9, metrics={})

    def test_consistency_tolerance_boundary(self):
        # 0.9% off passes, 1.1% off fails.
        base = 6 * 100 * 1000
        RunRecord(run_id="x", source="internal", dataset="d",
                  flops=base * 1.009, params=100, tokens=1000, metrics={})
        with pytest.raises(ValidationError):
            RunRecord(run_id="x", source="internal", dataset="d",
                      flops=base * 1.012, params=100, tokens=1000, metrics={})

    def test_non_finite_metric(self):
        with pytest.raises(ValidationError):
            make_run("x", 6e17, 10**9, {"m": float("nan")})

    @pytest.mark.parametrize("field_name, bad", [
        ("metrics", {"m": True}),
        ("metrics", {"m": np.bool_(True)}),
        ("params", 10.5),
        ("tokens", True),
        ("flops", "1e18"),
        ("metrics", {"ok": 1.0, "m": float("nan")}),
        ("metrics", {"ok": 1.0, "m": float("inf")}),
        ("metrics", {"ok": 1.0, "m": float("-inf")}),
        ("metrics", {"ok": 1.0, "m": "0.5"}),
    ])
    def test_non_numeric_or_fractional_fields_rejected(self, field_name, bad):
        kwargs = dict(run_id="x", source="external", dataset="d",
                      flops=1e18, params=10, tokens=10, metrics={})
        kwargs[field_name] = bad
        with pytest.raises(ValidationError) as err:
            RunRecord(**kwargs)
        named = "'m'" if field_name == "metrics" else field_name
        assert named in str(err.value)

    def test_numeric_fields_become_builtin(self):
        record = RunRecord(run_id="x", source="external", dataset="d",
                           flops=np.float64(1e18), params=np.int64(10), tokens=1e9,
                           metrics={"m": np.float32(0.5), "n": 2, "f": np.float64(0.25)})
        assert (record.flops, record.params, record.tokens) == (1e18, 10, 10**9)
        assert record.metrics == {"m": 0.5, "n": 2.0, "f": 0.25}
        assert [type(v) for v in (record.flops, record.params, record.tokens,
                                  *record.metrics.values())] == [float, int, int, float, float, float]

    def test_finite_metrics_whose_sum_overflows_are_kept(self):
        record = make_run("x", 6e17, 10**9, {"a": 1e308, "b": 1e308})
        assert record.metrics == {"a": 1e308, "b": 1e308}
        assert [type(v) for v in record.metrics.values()] == [float, float]

    def test_duplicate_run_ids_rejected(self):
        a = make_run("same", 6e17, 10**9, {})
        with pytest.raises(ValidationError):
            RunSet((a, a))


class TestIngest:
    def test_three_valid_rows(self, write_jsonl):
        path = write_jsonl([row(run_id=f"r{i}") for i in range(3)])
        runs = ingest_runs(path)
        assert len(runs) == 3

    def test_zero_flops_names_field_and_line(self, write_jsonl):
        path = write_jsonl([row(run_id="ok"), row(run_id="bad", flops=0.0)])
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        message = str(err.value)
        assert "flops" in message and "line 2" in message

    @pytest.mark.parametrize("fmt", ["json", "CSV", ""])
    def test_unknown_format_is_refused(self, write_jsonl, fmt):
        path = write_jsonl([row(run_id="r0")])
        with pytest.raises(ValidationError) as err:
            ingest_runs(path, fmt=fmt)
        assert str(err.value) == f"unknown format {fmt!r} (expected 'jsonl' or 'csv')"

    def test_inconsistent_internal_row(self, write_jsonl):
        path = write_jsonl([row(flops=1e18, params=100_000_000, tokens=10**9)])
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert "6*params*tokens" in str(err.value)

    def test_duplicate_run_id(self, write_jsonl):
        path = write_jsonl([row(run_id="dup"), row(run_id="dup")])
        with pytest.raises(ValidationError, match="dup"):
            ingest_runs(path)

    def test_non_finite_metric_in_file(self, write_jsonl, tmp_path):
        path = tmp_path / "runs.jsonl"
        bad = row()
        text = json.dumps(bad).replace("1.25", "NaN")
        path.write_text(text + "\n")
        with pytest.raises(IngestError, match="line 1"):
            ingest_runs(path)

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(row()) + "\n{not json\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest_runs(path)

    def test_missing_field(self, write_jsonl):
        obj = row()
        del obj["tokens"]
        path = write_jsonl([obj])
        with pytest.raises(IngestError, match="tokens"):
            ingest_runs(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="nope.jsonl"):
            ingest_runs(tmp_path / "nope.jsonl")

    def test_csv_roundtrip_matches_jsonl(self, write_jsonl, tmp_path):
        rows = [
            row(run_id="a", metrics={"bpb/x": 1.5, "acc/y": 0.25}),
            row(run_id="b", metrics={"bpb/x": 1.25}),
        ]
        jsonl_path = write_jsonl(rows)
        from_jsonl = ingest_runs(jsonl_path)
        csv_path = tmp_path / "runs.csv"
        emit_runs(from_jsonl, csv_path)
        from_csv = ingest_runs(csv_path)
        assert from_csv.records == from_jsonl.records

    def test_other_suffixes_read_as_jsonl(self, tmp_path):
        path = tmp_path / "runs.txt"
        path.write_text(json.dumps(row()) + "\n")
        assert [r.run_id for r in ingest_runs(path)] == ["a"]
        path.write_text("run_id,source,dataset,flops,params,tokens\n")
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert err.value.line == 1 and str(err.value).startswith("line 1: malformed JSON")

    def test_csv_bad_number_names_line(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            "run_id,source,dataset,flops,params,tokens,m\n"
            "a,internal,d,6e17,100000000,1000000000,oops\n"
        )
        with pytest.raises(IngestError, match="line 2"):
            ingest_runs(path)

    # A 401-digit integer: valid JSON and CSV, but beyond the float range.
    HUGE = 10**400

    @pytest.mark.parametrize("obj, field", [
        (row(metrics={"bpb/c4": HUGE}), "bpb/c4"),
        (row(flops=HUGE), "flops"),
        (row(params=HUGE), "params"),
        (row(source="external", tokens=HUGE), "tokens"),
        # params and tokens fit a float, but 6*params*tokens does not.
        (row(params=10**200, tokens=10**200), "flops"),
    ])
    def test_integer_beyond_float_range_names_line_and_field(self, write_jsonl, obj, field):
        path = write_jsonl([row(run_id="ok"), {**obj, "run_id": "huge"}])
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert err.value.line == 2 and err.value.field == field
        assert field in str(err.value)

    def test_csv_integer_beyond_float_range_names_line_and_field(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            "run_id,source,dataset,flops,params,tokens,m\n"
            f"a,internal,d,6e17,100000000,1000000000,{self.HUGE}\n"
        )
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert err.value.line == 2 and err.value.field == "m"
        assert "'m'" in str(err.value)

    # ``json`` would keep the last of a repeated key; the reader refuses it,
    # naming the key and the line, and does not take it for an over-long number.
    @pytest.mark.parametrize("text, key", [
        (json.dumps(row(metrics={"m": 1.0})).replace('"m": 1.0', '"m": 1.0, "m": 2.0'), "m"),
        (json.dumps(row()).replace('"dataset"', '"source": "external", "dataset"'), "source"),
    ], ids=["metric", "core-field"])
    def test_repeated_key_names_line_and_key(self, tmp_path, text, key):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(row(run_id="ok")) + "\n" + text + "\n")
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert str(err.value) == f"line 2: repeated key {key!r}"
        assert (err.value.line, err.value.field) == (2, key)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(row()) + "\n" + json.dumps(row()).replace(
            "1.25", "9" * 5000) + "\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest_runs(path)


class TestEmitLossless:
    def test_jsonl_roundtrip_bit_identical(self, tmp_path):
        records = (
            make_run("a", 6e17 * 1.0000001, 10**9, {"bpb/x": 0.1 + 0.2}),
            make_run("b", 5.4321e18, 7_654_321, {"m1": 1e-17, "m2": -3.25}),
        )
        runs = RunSet(records)
        path = tmp_path / "out.jsonl"
        emit_runs(runs, path)
        back = parse_anew(path)
        for orig, new in zip(runs, back):
            assert new.flops == orig.flops
            assert new.params == orig.params
            assert new.tokens == orig.tokens
            assert new.metrics == orig.metrics

    @given(
        flops_scale=st.floats(min_value=0.995, max_value=1.005),
        tokens=st.integers(min_value=1, max_value=10**12),
        value=st.floats(allow_nan=False, allow_infinity=False, width=64),
        numpy_typed=st.booleans(),
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    def test_roundtrip_property(self, tmp_path_factory, flops_scale, tokens, value,
                                numpy_typed, fmt):
        params = 1000
        flops = 6.0 * params * tokens * flops_scale
        if numpy_typed:
            flops, params, tokens, value = (
                np.float64(flops), np.int64(params), np.int64(tokens), np.float64(value))
        runs = RunSet((RunRecord(run_id="r", source="internal", dataset="d", flops=flops,
                                 params=params, tokens=tokens, metrics={"m": value}),))
        path = tmp_path_factory.mktemp("rt") / f"runs.{fmt}"
        emit_runs(runs, path)
        back = parse_anew(path).records[0]
        fields = (back.flops, back.params, back.tokens, back.metrics["m"])
        assert fields == (flops, params, tokens, value)
        assert [type(v) for v in fields] == [float, int, int, float]

    @pytest.mark.parametrize("name, emitter", [
        ("runs.csv", runs_to_csv), ("RUNS.CSV", runs_to_csv), ("runs.jsonl", runs_to_jsonl),
        ("runs.json", runs_to_jsonl), ("runs.txt", runs_to_jsonl), ("runs", runs_to_jsonl),
    ])
    def test_the_file_name_decides_the_format(self, tmp_path, name, emitter):
        runs = RunSet((make_run("a", 6e17, 10**9, {"m": 1.5}),))
        path = tmp_path / name
        emit_runs(runs, path)
        assert path.read_text() == emitter(runs)
        assert parse_anew(path).records == runs.records

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("params", [10**17 + 1, np.int64(10**17 + 1)])
    def test_large_counts_roundtrip_exactly(self, tmp_path, params, fmt):
        runs = RunSet((RunRecord(run_id="r", source="external", dataset="d", flops=1e18,
                                 params=params, tokens=10, metrics={}),))
        path = tmp_path / f"runs.{fmt}"
        emit_runs(runs, path)
        assert parse_anew(path).records[0].params == 10**17 + 1


SCHEMING_SLUGS = [
    "okay_with_deceiving_a_user_to_help_them",
    "desire_for_being_rated_HHH_over_actually_being_HHH",
    "acts_like_it_wants_to_help_humans_but_does_not_care_about_that",
    "being_helpful_to_subtly_achieve_goals_against_human_values",
    "ends_justify_means",
    "desire_for_discreetly_acquiring_power",
]


class TestAggregate:
    def spec(self):
        return GroupingSpec(name="pair", mapping={"i1": "g", "i2": "g", "solo": "s"})

    def runs(self, metrics):
        return RunSet((make_run("r0", 6e17, 10**9, metrics),))

    def test_mean_of_two(self):
        runs = self.runs({"p/i1": 0.4, "p/i2": 0.6, "p/solo": 0.9})
        out = aggregate_by_group(runs, self.spec(), "p/")
        assert out.records[0].metrics["g"] == pytest.approx(0.5, abs=1e-15)

    def test_singleton_identity(self):
        runs = self.runs({"p/i1": 0.4, "p/i2": 0.6, "p/solo": 0.9})
        out = aggregate_by_group(runs, self.spec(), "p/")
        assert out.records[0].metrics["s"] == 0.9

    def test_cluster_mean_matches_hand_computation(self):
        # Six behaviour slugs in one risk cluster; oracle is the direct mean.
        values = [0.31, 0.44, 0.52, 0.27, 0.61, 0.38]
        mapping = {slug: "scheming" for slug in SCHEMING_SLUGS}
        mapping["no_shut_down"] = "incorrigibility"
        spec = GroupingSpec(name="risk", mapping=mapping)
        metrics = {f"prob/{slug}": v for slug, v in zip(SCHEMING_SLUGS, values)}
        metrics["prob/no_shut_down"] = 0.05
        out = aggregate_by_group(self.runs(metrics), spec, "prob/")
        expected = sum(values) / len(values)
        assert out.records[0].metrics["scheming"] == pytest.approx(expected, rel=1e-15)
        assert set(out.records[0].metrics) == {"scheming", "incorrigibility"}

    def test_unmapped_item_key(self):
        runs = self.runs({"p/i1": 0.4, "p/unknown": 0.1, "p/solo": 0.9, "p/i2": 0.5})
        with pytest.raises(ValidationError, match="unknown"):
            aggregate_by_group(runs, self.spec(), "p/")

    def test_empty_group_on_run(self):
        runs = self.runs({"p/i1": 0.4, "p/i2": 0.6})  # nothing maps to "s"
        with pytest.raises(ValidationError, match="'s'"):
            aggregate_by_group(runs, self.spec(), "p/")

    def test_non_prefix_metrics_ignored(self):
        runs = self.runs({"p/i1": 0.4, "p/i2": 0.6, "p/solo": 0.9, "bpb/x": 2.0})
        out = aggregate_by_group(runs, self.spec(), "p/")
        assert "bpb/x" not in out.records[0].metrics

    def test_commutes_with_run_subsetting(self):
        records = tuple(
            make_run(f"r{i}", 6e17, 10**9,
                     {"p/i1": 0.1 * i, "p/i2": 0.2 + 0.1 * i, "p/solo": 0.5})
            for i in range(1, 6)
        )
        runs = RunSet(records)
        spec = self.spec()
        keep = lambda r: int(r.run_id[1:]) % 2 == 1
        agg_then_filter = subset(aggregate_by_group(runs, spec, "p/"), keep)
        filter_then_agg = aggregate_by_group(subset(runs, keep), spec, "p/")
        assert agg_then_filter.records == filter_then_agg.records

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    def test_grouping_totality(self, values):
        spec = GroupingSpec(name="t", mapping={"a": "g1", "b": "g1", "c": "g2", "d": "g2"})
        runs = RunSet((make_run("r", 6e17, 10**9,
                                {f"x/{k}": v for k, v in values.items()}),))
        out = aggregate_by_group(runs, spec, "x/")
        assert set(out.records[0].metrics) == set(spec.group_labels())


class TestGroupingSpec:
    def test_empty_mapping_rejected(self):
        with pytest.raises(ValidationError):
            GroupingSpec(name="empty", mapping={})

    def test_from_file(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"name": "risk", "mapping": {"a": "g"}}))
        spec = GroupingSpec.from_file(path)
        assert spec.name == "risk"
        assert spec.mapping == {"a": "g"}

    def test_mapping_must_be_an_object(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"name": "risk", "mapping": [1]}))
        with pytest.raises(ValidationError, match="mapping"):
            GroupingSpec.from_file(path)

    def test_name_defaults_to_the_file_stem(self, tmp_path):
        path = tmp_path / "clusters.json"
        path.write_text(json.dumps({"mapping": {"a": "g"}}))
        assert GroupingSpec.from_file(path).name == "clusters"

    @pytest.mark.parametrize("obj, message", [
        ([1], "grouping spec must be a JSON object, got [1]"),
        ({"name": "risk"}, "missing grouping spec fields: ['mapping']"),
        ({"name": "risk", "mapping": {"a": "g"}, "mapings": {}},
         "unknown grouping spec fields: ['mapings']"),
    ])
    def test_from_file_rejects_by_name(self, tmp_path, obj, message):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError) as err:
            GroupingSpec.from_file(path)
        assert str(err.value) == message

    def test_filter_preserves_immutability(self):
        runs = RunSet((make_run("r", 6e17, 10**9, {"m": 1.0}),))
        filtered = subset(runs, lambda r: False)
        assert len(filtered) == 0 and len(runs) == 1

    def test_flops_consistency_evaluates_6nt(self):
        # Direct evaluation: 6 * 1e8 * 1e9 = 6e17 exactly.
        assert 6 * 100_000_000 * 1_000_000_000 == 6 * 10**17
        assert not math.isclose(1e18, 6e17, rel_tol=0.01)


def _legacy_fields(run_id, source, dataset, flops, params, tokens, metrics):
    """The record checks as a generated dataclass ``__init__`` followed by a
    ``__post_init__`` ran them (fields set first, then read back and
    replaced), on a plain namespace; returns the normalised fields."""
    rec = types.SimpleNamespace(run_id=run_id, source=source, dataset=dataset, flops=flops,
                                params=params, tokens=tokens, metrics=metrics)
    for name in ("run_id", "dataset"):
        value = getattr(rec, name)
        if type(value) is not str:
            if value is None:
                raise ValidationError(f"{name} must be a string, got None", field=name)
            setattr(rec, name, str(value))
    if not rec.run_id:
        raise ValidationError("run_id must be non-empty", field="run_id")
    if rec.source not in ("internal", "external"):
        raise ValidationError(
            f"source must be 'internal' or 'external', got {rec.source!r}", field="source")
    rec.flops = finite_float(rec.flops, "flops", "flops")
    for name in ("params", "tokens"):
        value = getattr(rec, name)
        if type(value) is not int or value > sys.float_info.max:
            setattr(rec, name, exact_int(value, name, name))
    for name in ("flops", "params", "tokens"):
        if getattr(rec, name) <= 0:
            raise ValidationError(f"{name} must be strictly positive", field=name)
    for value in rec.metrics.values():
        if type(value) is not float or not math.isfinite(value):
            rec.metrics = {k: finite_float(v, f"metric {k!r}", k) for k, v in rec.metrics.items()}
            break
    if rec.source == "internal":
        expected = 6 * rec.params * rec.tokens
        if expected > sys.float_info.max:
            raise ValidationError(
                f"flops={rec.flops:g} inconsistent with 6*params*tokens, which is "
                f"beyond the float range", field="flops")
        if abs(rec.flops - expected) > 0.01 * rec.flops:
            raise ValidationError(
                f"flops={rec.flops:g} inconsistent with 6*params*tokens={expected:g} "
                f"(off by {abs(rec.flops - expected) / rec.flops:.1%}, tolerance 1%)",
                field="flops")
    return (rec.run_id, rec.source, rec.dataset, rec.flops, rec.params, rec.tokens,
            rec.metrics)


_HUGE = st.integers(min_value=2**1024, max_value=10**400)
_JUNK = st.one_of(st.none(), st.booleans(), st.builds(np.bool_, st.booleans()),
                  st.text(max_size=3), _HUGE, _HUGE.map(lambda v: -v))
_COUNT = st.integers(min_value=1, max_value=10**12)
_VALID_COUNT = st.one_of(_COUNT, _COUNT.map(float), st.builds(np.int64, _COUNT),
                         st.builds(np.float64, _COUNT))
_BAD_COUNT = st.one_of(st.integers(min_value=-3, max_value=0), st.floats(max_value=1e12),
                       st.integers(min_value=10**150, max_value=10**200), _JUNK)
_VALID_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**6, max_value=10**20),
    st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False, allow_infinity=False)),
    st.builds(np.int64, st.integers(min_value=-2**63, max_value=2**63 - 1)),
)
_BAD_NUMBER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.builds(np.float64, st.sampled_from([math.nan, math.inf])), _JUNK)
_NAME = st.one_of(st.text(min_size=1, max_size=4), st.integers(), st.builds(np.int64))


@st.composite
def _record_args(draw):
    """Record arguments, each field valid except about one time in eight:
    builtin and numpy scalars, bools, strings, None, NaN and infinities,
    fractional, non-positive and beyond-float-range counts, and internal
    flops near or off the 6*params*tokens rule."""

    def pick(valid, bad):
        return draw(bad if draw(st.integers(0, 7)) == 0 else valid)

    params = pick(_VALID_COUNT, _BAD_COUNT)
    tokens = pick(_VALID_COUNT, _BAD_COUNT)
    if type(params) is int and type(tokens) is int and abs(params * tokens) < 10**300:
        # Up to 5% off the rule, whose tolerance is 1%.
        flops = float(6 * params * tokens) * draw(st.floats(min_value=0.95, max_value=1.05))
    else:
        flops = draw(st.floats(min_value=1.0, max_value=1e30))
    return (pick(_NAME, st.sampled_from([None, ""])),
            pick(st.sampled_from(["internal", "external"]), st.sampled_from(["other", "", None])),
            pick(_NAME, st.none()),
            pick(st.just(flops), st.one_of(_VALID_NUMBER, _BAD_NUMBER)),
            params, tokens,
            draw(st.dictionaries(st.text(max_size=3), st.one_of(
                _VALID_NUMBER, _VALID_NUMBER, _VALID_NUMBER, _BAD_NUMBER), max_size=4)))


def _fields(*args):
    record = RunRecord(*args)
    return (record.run_id, record.source, record.dataset, record.flops, record.params,
            record.tokens, record.metrics)


def _outcome(build, args):
    try:
        fields = build(*args)
    except ValidationError as exc:
        return ("error", str(exc), exc.field)
    return ("ok", fields, [type(v) for v in fields[:6]],
            [(k, type(v)) for k, v in fields[6].items()])


class TestConstructor:
    @settings(max_examples=200)
    @given(_record_args())
    def test_matches_the_checks_it_replaces(self, args):
        assert _outcome(_fields, args) == _outcome(_legacy_fields, args)

    @pytest.mark.parametrize("args, expected", [
        (("r", "internal", "d", 6e17 * 1.02, 10**8, 10**9, {}),
         ("error", "flops=6.12e+17 inconsistent with 6*params*tokens=6e+17 "
          "(off by 2.0%, tolerance 1%)", "flops")),
        ((None, "other", None, "x", -1, -1, {"m": "x"}),
         ("error", "run_id must be a string, got None", "run_id")),
        (("r", "other", None, "x", -1, -1, {}),
         ("error", "dataset must be a string, got None", "dataset")),
        (("", "other", "d", "x", -1, -1, {}), ("error", "run_id must be non-empty", "run_id")),
        (("r", "other", "d", "x", -1, -1, {}),
         ("error", "source must be 'internal' or 'external', got 'other'", "source")),
        (("r", "external", "d", "x", True, -1, {}),
         ("error", "flops must be a number, got 'x'", "flops")),
        (("r", "external", "d", np.float32(0.5), True, -1, {}),
         ("error", "params must be an integer, got True", "params")),
        (("r", "external", "d", 0.0, 10, -1, {"m": "x"}),
         ("error", "flops must be strictly positive", "flops")),
        (("r", "external", "d", 1e18, -10**400, 10, {}),
         ("error", "params must be strictly positive", "params")),
        (("r", "external", "d", 1e18, 10, 10**400, {}),
         ("error", "tokens must be finite, got a number beyond the float range", "tokens")),
        (("r", "external", "d", 1e18, 10, 10, {"a": 1.0, "m": np.inf, "z": "x"}),
         ("error", "metric 'm' must be finite, got inf", "m")),
        (("r", "internal", "d", 1e18, 10**200, 10**200, {}),
         ("error", "flops=1e+18 inconsistent with 6*params*tokens, which is beyond the "
          "float range", "flops")),
        ((0, "external", np.int64(1), np.int64(5), 10.0, np.int32(2), {"m": np.float32(0.5)}),
         ("ok", ("0", "external", "1", 5.0, 10, 2, {"m": 0.5}),
          [str, str, str, float, int, int], [("m", float)])),
    ])
    def test_order_and_messages(self, args, expected):
        assert _outcome(_fields, args) == expected
        assert _outcome(_legacy_fields, args) == expected

    def test_builtin_values_are_stored_as_given(self):
        metrics = {"m": 0.5}
        record = RunRecord("r", "external", "d", 1e18, 10, 10, metrics)
        assert record.metrics is metrics
        converted = RunRecord("r", "external", "d", 1e18, 10, 10, {"m": 1})
        assert converted.metrics == {"m": 1.0} and type(converted.metrics["m"]) is float

    @pytest.mark.parametrize("metrics, message", [
        ([1], "metrics must be a dict, got list"),
        (None, "metrics must be a dict, got NoneType"),
        ({1: 0.5}, "metric keys must be strings, got 1"),
        ({"a": 0.5, 2: 1}, "metric keys must be strings, got 2"),
    ])
    def test_metrics_must_be_a_dict_with_string_keys(self, metrics, message):
        with pytest.raises(ValidationError) as err:
            RunRecord("r", "external", "d", 1.0, 1, 1, metrics)
        assert (str(err.value), err.value.field) == (message, "metrics")

    def test_record_is_slotted_and_frozen(self):
        record = make_run("x", 6e17, 10**9, {"m": 0.5})
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.flops = 1.0
        assert replace(record, metrics={"n": 1}).metrics == {"n": 1.0}
        assert replace(record, metrics={}) == replace(record, metrics={})


def _without(obj, *keys):
    return {k: v for k, v in obj.items() if k not in keys}


class TestIngestDefects:
    """Each row defect names its line and field, in a fixed order of checks:
    the row's shape, a missing field, the metrics object, then the record
    checks in constructor order."""

    @pytest.mark.parametrize("obj, message, field", [
        ([1], "row is not an object", None),
        (_without(row(), "tokens", "flops"), "missing field 'flops'", "flops"),
        ({**_without(row(), "run_id"), "metrics": [1]}, "missing field 'run_id'", "run_id"),
        (row(metrics=[1], flops=0.0), "'metrics' must be an object", "metrics"),
        ({**row(), "metrics": None}, "'metrics' must be an object", "metrics"),
        ({**row(run_id=None), "dataset": None}, "run_id must be a string, got None", "run_id"),
        ({**row(), "dataset": None}, "dataset must be a string, got None", "dataset"),
        (row(run_id="", source="x"), "run_id must be non-empty", "run_id"),
        (row(source="x", flops="1e18"), "source must be 'internal' or 'external', got 'x'",
         "source"),
        (row(flops="1e18", params=True), "flops must be a number, got '1e18'", "flops"),
        (row(flops=0, params=10.5), "params must be an integer, got 10.5", "params"),
        (row(flops=0, tokens=True), "tokens must be an integer, got True", "tokens"),
        (row(flops=-1.0, params=-1), "flops must be strictly positive", "flops"),
        (row(params=0, tokens=-1), "params must be strictly positive", "params"),
        (row(tokens=0), "tokens must be strictly positive", "tokens"),
        (row(params=7, metrics={"a": 1.0, "b": "x"}), "metric 'b' must be a number, got 'x'",
         "b"),
        (row(metrics={"a": False}), "metric 'a' must be a number, got False", "a"),
        (row(flops=6.1e17), "flops=6.1e+17 inconsistent with 6*params*tokens=6e+17 "
         "(off by 1.6%, tolerance 1%)", "flops"),
        (row(source="external", flops=6.1e17, metrics={"m": 10**400}),
         "metric 'm' must be finite, got a number beyond the float range", "m"),
    ])
    def test_jsonl(self, write_jsonl, obj, message, field):
        path = write_jsonl([row(run_id="ok"), obj])
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert (str(err.value), err.value.line, err.value.field) == (
            f"line 2: {message}", 2, field)

    def test_jsonl_row_without_metrics_has_none(self, write_jsonl):
        record, = ingest_runs(write_jsonl([_without(row(), "metrics")]))
        assert record.metrics == {}

    HEADER = "run_id,source,dataset,flops,params,tokens,a,b\n"
    GOOD = "ok,internal,d,6e17,100000000,1000000000,1.5,2.5\n"

    @pytest.mark.parametrize("line, message, field", [
        ("r,internal,d,6e17,100000000\n", "expected 8 columns, got 5", None),
        ("r,x,d,,-1,1000000000,oops,1.5\n", "metrics['a'] must be a number, got 'oops'",
         "metrics['a']"),
        ("r,x,d,,-1,1000000000,,oops\n", "metrics['b'] must be a number, got 'oops'",
         "metrics['b']"),
        ("r,x,d,,-1,1000000000,,\n", "flops must be a number, got ''", "flops"),
        ("r,x,d,6e17,1e8x,tok,,\n", "params must be a number, got '1e8x'", "params"),
        ("r,x,d,6e17,100000000,tok,,\n", "tokens must be a number, got 'tok'", "tokens"),
        (",x,d,6e17,100000000,1000000000,,\n", "run_id must be non-empty", "run_id"),
        ("r,x,d,0,100000000,1000000000,,\n", "source must be 'internal' or 'external', "
         "got 'x'", "source"),
        ("r,internal,d,6e17,1.5,1000000000,,\n", "params must be an integer, got 1.5",
         "params"),
        ("r,internal,d,6e17,100000000,1000000000.5,,\n",
         "tokens must be an integer, got 1000000000.5", "tokens"),
        ("r,internal,d,-6e17,100000000,1000000000,nan,\n", "flops must be strictly positive",
         "flops"),
        ("r,internal,d,6e17,100000000,1000000000,1.0,inf\n", "metric 'b' must be finite, "
         "got inf", "b"),
        ("r,internal,d,6e17,100000000,2000000000,1.0,\n", "flops=6e+17 inconsistent with "
         "6*params*tokens=1.2e+18 (off by 100.0%, tolerance 1%)", "flops"),
    ])
    def test_csv(self, tmp_path, line, message, field):
        path = tmp_path / "runs.csv"
        path.write_text(self.HEADER + self.GOOD + line)
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert (str(err.value), err.value.line, err.value.field) == (
            f"line 3: {message}", 3, field)

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(self.HEADER + self.GOOD + "r,external,7,1e18,10,20,,3\n")
        _, record = ingest_runs(path)
        assert record == RunRecord("r", "external", "7", 1e18, 10, 20, {"b": 3.0})
        assert [type(v) for v in (record.flops, record.params, record.tokens,
                                  record.metrics["b"])] == [float, int, int, float]

    @pytest.mark.parametrize("header, message, field", [
        ("", "empty CSV file", None),
        ("run_id,source,dataset,flops,params,m\n", "missing column 'tokens'", "tokens"),
        ("run_id,source,dataset,flops,params,tokens,a,a\n"
         "r,external,d,1e18,10,20,1,2\n", "duplicate column 'a'", "a"),
        ("run_id,source,dataset,flops,params,tokens,flops\n"
         "r,external,d,1e18,10,20,2e18\n", "duplicate column 'flops'", "flops"),
    ])
    def test_csv_header(self, tmp_path, header, message, field):
        path = tmp_path / "runs.csv"
        path.write_text(header)
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert (str(err.value), err.value.line, err.value.field) == (
            f"line 1: {message}", 1, field)


#: The metric keys of the example study's log, in the order it writes them.
STUDY_METRICS = {"bpb/base": 1.0, "bpb/converging": 0.9, "bpb/parallel": 1.1,
                 "bpb/diverging": 1.2}


class TestReuse:
    """``ingest_runs`` returns the set it parsed last while the file's path,
    format and bytes are unchanged, and parses afresh otherwise."""

    def test_a_hit_is_the_same_object(self, write_jsonl):
        path = write_jsonl([row("a"), row("b")])
        assert ingest_runs(path) is ingest_runs(path, fmt="jsonl")

    def test_new_bytes_of_the_same_size_and_mtime_are_parsed(self, write_jsonl):
        path = write_jsonl([row(metrics={"m": 1.25})])
        first = ingest_runs(path)
        stat = path.stat()
        path.write_text(path.read_text().replace("1.25", "1.75"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size,
                                                                  stat.st_mtime_ns)
        second = ingest_runs(path)
        assert second is not first and second.records[0].metrics == {"m": 1.75}

    def test_same_bytes_at_another_path_parse_anew(self, write_jsonl, tmp_path):
        path = write_jsonl([row()])
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(path.read_bytes())
        first, second = ingest_runs(path), ingest_runs(copy)
        assert first is not second
        assert first.records == second.records

    def test_each_format_is_its_own_key(self, write_jsonl):
        path = write_jsonl([row()])
        first = ingest_runs(path)
        with pytest.raises(IngestError, match="line 1: missing column 'run_id'"):
            ingest_runs(path, fmt="csv")
        assert ingest_runs(path) is not first

    def test_a_failed_parse_is_not_kept(self, write_jsonl):
        path = write_jsonl([row("a"), row("b", flops=0.0)])
        outcomes = []
        for _ in range(2):
            with pytest.raises(IngestError) as err:
                ingest_runs(path)
            outcomes.append((str(err.value), err.value.line, err.value.field))
        assert outcomes == [("line 2: flops must be strictly positive", 2, "flops")] * 2

    def test_a_deleted_file_is_not_found(self, write_jsonl):
        path = write_jsonl([row()])
        ingest_runs(path)
        path.unlink()
        with pytest.raises(IngestError, match="input file not found"):
            ingest_runs(path)

    def test_a_miss_releases_the_held_set_before_parsing(self, write_jsonl, monkeypatch):
        held = weakref.ref(ingest_runs(write_jsonl([row("a")], "a.jsonl")))
        alive_at_parse = []
        parse = store._iter_jsonl

        def spy(path):
            alive_at_parse.append(held() is not None)
            return parse(path)

        monkeypatch.setattr(store, "_iter_jsonl", spy)
        ingest_runs(write_jsonl([row("b")], "b.jsonl"))
        assert alive_at_parse == [False] and held() is None

    def test_rows_share_their_metric_key_strings(self, write_jsonl):
        metrics = {"bpb/wiki": 1.0, "acc/task": 0.5}
        first, second = ingest_runs(write_jsonl([row("a", metrics=metrics),
                                                 row("b", metrics=metrics)]))
        assert [k for k in first.metrics] == list(metrics)
        assert all(a is b for a, b in zip(first.metrics, second.metrics))

    def test_a_jsonl_write_is_held_as_a_parse_would_give_it(self, tmp_path, monkeypatch):
        runs = RunSet((make_run("a", 6e17, 10**9, STUDY_METRICS),
                       make_run("b", 5.4321e18 * (1 + 1e-9), 7_654_321, {"m": 0.1 + 0.2})))
        path = tmp_path / "runs.jsonl"
        emit_runs(runs, path)
        with monkeypatch.context() as m:
            m.setattr(store, "_iter_jsonl", None)  # a parse would fail
            held = ingest_runs(path)
        assert held.records == runs.records
        assert held.sha256 == sha256_file(path)
        parsed = parse_anew(path)
        assert parsed is not held and parsed.sha256 == held.sha256
        assert held.records == parsed.records
        assert [list(r.metrics) for r in held] == [list(r.metrics) for r in parsed]

    def test_a_jsonl_write_releases_the_held_set_before_writing(self, write_jsonl, tmp_path,
                                                                monkeypatch):
        held = weakref.ref(ingest_runs(write_jsonl([row("a")])))
        alive_at_write = []
        lines = store._jsonl_lines

        def spy(runs):
            alive_at_write.append(held() is not None)
            return lines(runs)

        monkeypatch.setattr(store, "_jsonl_lines", spy)
        emit_runs(RunSet((make_run("b", 6e17, 10**9, {"m": 1.0}),)), tmp_path / "b.jsonl")
        assert alive_at_write == [False] and held() is None

    def test_new_bytes_after_a_write_are_parsed(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        emit_runs(RunSet((make_run("a", 6e17, 10**9, {"m": 1.25}),)), path)
        stat = path.stat()
        path.write_text(path.read_text().replace("1.25", "1.75"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size,
                                                                  stat.st_mtime_ns)
        assert ingest_runs(path).records[0].metrics == {"m": 1.75}

    def test_a_failed_write_holds_nothing(self, write_jsonl, tmp_path, monkeypatch):
        read = ingest_runs(write_jsonl([row("a")]))

        def failing(runs):
            yield json.dumps(row("b")) + "\n"
            raise OSError("disk full")

        monkeypatch.setattr(store, "_jsonl_lines", failing)
        path = tmp_path / "out.jsonl"
        with pytest.raises(OSError, match="disk full"):
            emit_runs(read, path)
        assert store._last is None and not path.exists()

    def test_a_csv_write_leaves_the_held_set(self, write_jsonl, tmp_path, monkeypatch):
        log = write_jsonl([row("a")])
        held = ingest_runs(log)
        runs = RunSet((make_run("s", 6e17, 10**9, STUDY_METRICS),))
        table = tmp_path / "runs.csv"
        emit_runs(runs, table)
        with monkeypatch.context() as m:
            m.setattr(store, "_iter_jsonl", None)  # a parse would fail
            assert ingest_runs(log) is held
        # CSV sorts the metric columns, so a parse does not give back the key
        # order of the set written, nor its JSONL bytes: a set held from the
        # write would re-emit other bytes than a fresh process does.
        parsed = ingest_runs(table)
        assert parsed.records == runs.records
        assert list(parsed.records[0].metrics) == sorted(STUDY_METRICS) != list(STUDY_METRICS)
        assert runs_to_jsonl(parsed) != runs_to_jsonl(runs)

    def test_crlf_line_endings_and_blank_lines(self, tmp_path):
        lines = [json.dumps(row("a")), "", json.dumps(row("b")), "  "]
        path = tmp_path / "runs.jsonl"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert [r.run_id for r in ingest_runs(path)] == ["a", "b"]
        path.write_bytes("\r\n".join(lines + ["{"]).encode())
        with pytest.raises(IngestError) as err:
            ingest_runs(path)
        assert err.value.line == 5


def _reference_jsonl(runs):
    """One JSON object per record, the dataclass fields in declaration order."""
    return "".join(json.dumps({f.name: getattr(r, f.name) for f in dataclasses.fields(r)})
                   + "\n" for r in runs)


def test_emitters_keep_their_bytes_on_a_dense_sweep(tmp_path):
    spec = SyntheticSpec(
        budgets=tuple(float(b) for b in np.geomspace(1e17, 1e21, 25)),
        subgroups=tuple(Subgroup(f"bpb/g{i:02d}", alpha=3.0 + 0.1 * i, beta=0.1 + 0.002 * i)
                        for i in range(20)),
        widths_per_budget=100, noise_sigma=0.01, curvature=0.05, seed=7)
    runs = generate(spec)
    assert len(runs) == 2_500
    text = runs_to_jsonl(runs)
    assert text == _reference_jsonl(runs)
    assert text.splitlines()[0].startswith(
        '{"run_id": "sim-000-000", "source": "internal", "dataset": "synthetic", "flops": '
        '1e+17, "params": ')
    table = runs_to_csv(runs)
    for name, body in (("runs.jsonl", text), ("runs.csv", table)):
        (tmp_path / name).write_text(body)
        back = ingest_runs(tmp_path / name)
        assert back.records == runs.records
        assert (runs_to_jsonl(back), runs_to_csv(back)) == (text, table)
