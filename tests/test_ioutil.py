import json

import pytest

from relscale import (
    CorrelationResult,
    CrossoverResult,
    FrontierPoint,
    FrontierSeries,
    LinearCalibration,
    LogLinearFit,
    PowerLawFit,
    RelativeFit,
    SigmoidCalibration,
    ValidationError,
)
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
    PowerLawFit(alpha=3.0, beta=0.1, r2=0.99, n=5),
    PowerLawFloorFit(alpha=3.0, beta=0.1, floor=0.5, r2=0.98, n=5, scale_axis="tokens"),
    LogLinearFit(slope_per_decade=0.05, intercept_at_ref=0.4, ref_scale=1e19, r2=0.9),
    RelativeFit(gamma=0.8, delta_beta=-0.02, mode="ratio", p_sign=0.01,
                ci_low=-0.03, ci_high=-0.01, n_pairs=12),
    RelativeFit(gamma=-0.1, delta_beta=0.01, mode="difference", p_sign=None,
                ci_low=None, ci_high=None, n_pairs=2),
    CrossoverResult(f_star=1e20, in_range=True),
    CorrelationResult(pearson_r=-0.8, p_value=0.02, regression_slope=-0.01, n=9),
    SigmoidCalibration(floor=0.25, ceiling=0.9, steepness=3.0, midpoint=1.8,
                       rmse=0.01, n=9, degenerate=True),
    LinearCalibration(slope=-0.3, intercept=1.1, rmse=0.02, n=9),
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

    def test_mismatched_kind_raises(self, result):
        payload = {**result.to_dict(), "kind": "power_law_floored"}
        if result.kind == "power_law_floored":
            payload["kind"] = "power_law"
        with pytest.raises(ValidationError, match=repr(result.kind)):
            type(result).from_dict(payload)


def test_every_result_kind_is_distinct():
    kinds = {type(r): r.kind for r in RESULTS}
    assert len(set(kinds.values())) == len(kinds) == 9
