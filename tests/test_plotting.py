import csv
import hashlib

import pytest

from relscale import PlotSeries, SeriesData, ValidationError, emit_plot
from relscale.plotting import render_csv, render_svg


def single_series_plot(**overrides):
    kwargs = dict(
        title="demo",
        x_label="scale",
        y_label="metric",
        x_scale="log10",
        series=(
            SeriesData(label="s1", points=((1e18, 2.45), (1e20, 1.56))),
        ),
    )
    kwargs.update(overrides)
    return PlotSeries(**kwargs)


class TestSvg:
    def test_single_series_has_exactly_one_polyline(self):
        svg = render_svg(single_series_plot())
        assert svg.count("<polyline") == 1

    def test_curve_adds_second_polyline(self):
        plot = single_series_plot(
            series=(
                SeriesData(
                    label="s1",
                    points=((1e18, 2.45), (1e20, 1.56)),
                    curve=((1e18, 2.4), (1e19, 2.0), (1e20, 1.6)),
                ),
            )
        )
        assert render_svg(plot).count("<polyline") == 2

    def test_decade_gridlines_on_log_axis(self):
        svg = render_svg(single_series_plot())
        # Scales span 1e18..1e20: gridline labels at each decade inside range.
        assert "1e18" in svg and "1e19" in svg and "1e20" in svg

    def test_parity_reference_line_dashed(self):
        plot = single_series_plot(
            series=(SeriesData(label="ratio", points=((1e18, 1.29), (1e20, 1.05))),),
            ref_line_y=1.0,
        )
        svg = render_svg(plot)
        assert 'stroke-dasharray="6 4"' in svg

    def test_no_reference_line_by_default(self):
        assert 'stroke-dasharray="6 4"' not in render_svg(single_series_plot())

    def test_byte_identical_output(self, tmp_path):
        plot = single_series_plot()
        first = emit_plot(plot, tmp_path / "a")
        second = emit_plot(plot, tmp_path / "b")
        assert first["svg"].read_bytes() == second["svg"].read_bytes()
        assert first["csv"].read_bytes() == second["csv"].read_bytes()

    def test_linear_axis(self):
        plot = single_series_plot(
            x_scale="linear",
            series=(SeriesData(label="cal", points=((0.5, 0.9), (2.5, 0.3))),),
        )
        svg = render_svg(plot)
        assert svg.count("<polyline") == 1

    def test_log_axis_rejects_non_positive_x(self):
        with pytest.raises(ValidationError, match="positive"):
            single_series_plot(
                series=(SeriesData(label="bad", points=((0.0, 1.0), (1.0, 2.0))),)
            )


# Hand-written figures with literal floats: rendering evaluates nothing with
# numpy, so these digests hold on every CPU.
PINNED_FIGURES = {
    "log10-curve-reference-escaped": PlotSeries(
        title="loss & gap <relative>",
        x_label="compute <FLOPs>",
        y_label="ratio & parity",
        x_scale="log10",
        series=(
            SeriesData(
                label="target/<base> & co",
                points=((1e18, 1.29), (3.2e19, 1.12), (1e21, 1.05)),
                curve=((1e18, 1.3), (1e19, 1.17), (1e20, 1.09), (1e21, 1.04)),
            ),
        ),
        ref_line_y=1.0,
    ),
    "linear-one-point": PlotSeries(
        title="calibration",
        x_label="loss",
        y_label="accuracy",
        x_scale="linear",
        series=(SeriesData(label="single", points=((2.5, 0.4),)),),
    ),
    "linear-two-series": PlotSeries(
        title="linear",
        x_label="loss",
        y_label="accuracy",
        x_scale="linear",
        series=(
            SeriesData(label="a", points=((0.5, 0.9), (1.5, 0.6), (2.5, 0.3)),
                       curve=((0.5, 0.88), (2.5, 0.31))),
            SeriesData(label="b", points=((0.75, -0.25), (2.25, 0.125))),
        ),
        ref_line_y=0.5,
    ),
    "log10-nine-series": PlotSeries(
        title="nine",
        x_label="scale",
        y_label="metric",
        x_scale="log10",
        series=tuple(
            SeriesData(label=f"s{i}",
                       points=((1e17, 3.0 - 0.1 * i), (1e19, 2.5 - 0.05 * i), (1e22, 2.0)))
            for i in range(9)
        ),
    ),
}

PINNED_DIGESTS = {
    "log10-curve-reference-escaped": (
        "1dadbe6f5b7460593fab0b39ac6adafa07a38d34aef3db1d5d2e91e1b6f4e90d",
        "04d0f61cd6d6d82e8e0efd8c202f4ac84ec92337698f116744ea07550a500e53"),
    "linear-one-point": (
        "d8d0b841232c93d3a480e36d70f53a18db4f1c54aad59259a1245790b093410e",
        "913adbe6629c038e78885623ff2d921ba502fc19d54b47f8fbc12f6e330b776e"),
    "linear-two-series": (
        "63181df93fe8874edbf0a925779784b770554f137de3af179fc9e423d048e3dd",
        "b7d46b7dda176260e5f7346398f3d8ac83f3a6ea8854ef576ca5dffde4f5d4b9"),
    "log10-nine-series": (
        "177119279f536d56fcfebeb3c20238b5bdf00745392728f65b8490d423a59229",
        "c59f88b88316dc56fda46db5658f306369046fd76baa42903befcc37475f3e09"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FIGURES))
def test_rendered_bytes_pinned(name):
    plot = PINNED_FIGURES[name]
    digests = tuple(hashlib.sha256(render(plot).encode()).hexdigest()
                    for render in (render_svg, render_csv))
    assert digests == PINNED_DIGESTS[name]


class TestCsv:
    def test_two_rows_for_two_points(self):
        text = render_csv(single_series_plot())
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["series", "x", "y"]
        assert len(rows) == 3  # header + 2 points

    def test_values_roundtrip_exactly(self):
        values = ((1e18, 2.45), (3.33e19, 0.1 + 0.2), (1e20, 1.56))
        plot = single_series_plot(series=(SeriesData(label="s", points=values),))
        rows = list(csv.reader(render_csv(plot).splitlines()))[1:]
        parsed = tuple((float(x), float(y)) for _, x, y in rows)
        assert parsed == values

    def test_curve_rows_labeled(self):
        plot = single_series_plot(
            series=(
                SeriesData(
                    label="s1",
                    points=((1e18, 2.0), (1e20, 1.0)),
                    curve=((1e19, 1.5),),
                ),
            )
        )
        rows = list(csv.reader(render_csv(plot).splitlines()))
        assert rows[-1][0] == "s1 (fit)"


class TestValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            PlotSeries(
                title="t", x_label="x", y_label="y", x_scale="linear", series=()
            )

    def test_empty_points_rejected(self):
        with pytest.raises(ValidationError):
            SeriesData(label="s", points=())

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            SeriesData(label="s", points=((1.0, float("inf")),))

    @pytest.mark.parametrize("x_scale", ["log", "ln", ""])
    def test_unknown_x_scale_rejected(self, x_scale):
        with pytest.raises(ValidationError, match=f"^unknown x_scale {x_scale!r}$"):
            single_series_plot(x_scale=x_scale)

    @pytest.mark.parametrize("ref", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reference_line_rejected(self, ref):
        with pytest.raises(ValidationError, match="ref_line_y must be finite"):
            single_series_plot(ref_line_y=ref)
