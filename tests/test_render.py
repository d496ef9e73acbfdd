"""SVG/CSV rendering and the curve self-intersection scan."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralmaps import harmonic, render
from spiralmaps.construct import catalog, random_signed_map
from spiralmaps.criteria import SpiralParams
from spiralmaps.harmonic import identity_map
from spiralmaps.mapfile import format_number
from spiralmaps.render import (
    FORMAT_BLOCK_ROWS,
    MAX_PLOT_POINTS,
    PlotSpec,
    circle_image,
    plot_blocks,
    render_csv,
    render_svg,
)

from conftest import polyline_self_intersects


def per_radius_csv(m, spec):
    """The CSV of ``spec`` from one ``circle_image`` call per radius, every
    number formatted by ``format_number``."""
    samples = spec.samples_per_circle
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    want = ["r,theta,re,im\n"]
    for r in spec.radii:
        w = circle_image(m, r, samples)
        want += [
            f"{format_number(r)},{format_number(t)},{format_number(x)},{format_number(y)}\n"
            for t, x, y in zip(thetas, w.real, w.imag)
        ]
    return "".join(want)


def per_radius_svg(m, spec):
    """The SVG of ``spec`` from one ``circle_image`` call per radius, every
    number formatted by ``format_number``."""
    curves = [circle_image(m, r, spec.samples_per_circle) for r in spec.radii]
    pts = np.concatenate(curves)
    xmin, xmax = float(pts.real.min()), float(pts.real.max())
    ymin, ymax = float(-pts.imag.max()), float(-pts.imag.min())
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    view = (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.width}" '
        f'height="{spec.height}" viewBox="{" ".join(map(format_number, view))}">',
    ]
    for k, curve in enumerate(curves):
        points = " ".join(
            f"{format_number(z.real)},{format_number(-z.imag)}" for z in np.append(curve, curve[0])
        )
        lines.append(
            f'<polyline fill="none" stroke="{render._PALETTE[k % len(render._PALETTE)]}" '
            f'stroke-width="{format_number(span / 400.0)}" points="{points}"/>'
        )
    return "\n".join(lines + ["</svg>\n"])


def assert_per_radius_bits(m, spec):
    """The images a render formats are bit for bit one ``circle_image`` call per radius."""
    want = [circle_image(m, r, spec.samples_per_circle) for r in spec.radii]
    assert np.array_equal(render._images(m, spec).view(np.uint64), np.array(want).view(np.uint64))


def plot_map(name):
    if name == "random64":
        return random_signed_map(np.random.default_rng(64), SpiralParams(0.7), order=64)
    return catalog(name, p=SpiralParams(0.7))


PLOT_MAPS = ["koebe", "f4", "harmonic_koebe", "half_plane", "random64"]


class TestPlotSpec:
    def test_radii_must_increase(self):
        with pytest.raises(ValueError):
            PlotSpec(radii=(0.5, 0.4))
        with pytest.raises(ValueError):
            PlotSpec(radii=(0.5, 0.5))

    def test_radii_in_disk(self):
        with pytest.raises(ValueError):
            PlotSpec(radii=(0.5, 1.0))

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            PlotSpec(radii=(0.5,), samples_per_circle=10)

    def test_point_cap(self):
        # Checked before anything is allocated.
        PlotSpec(radii=(0.5,), samples_per_circle=MAX_PLOT_POINTS)
        with pytest.raises(ValueError, match="at most"):
            PlotSpec(radii=(0.5,), samples_per_circle=MAX_PLOT_POINTS + 1)
        with pytest.raises(ValueError, match="at most"):
            PlotSpec(radii=(0.2, 0.5), samples_per_circle=MAX_PLOT_POINTS // 2 + 1)
        with pytest.raises(ValueError, match="at most"):
            PlotSpec(samples_per_circle=2_000_000_000)

    @pytest.mark.parametrize(
        "name, value",
        [("samples_per_circle", 64.5), ("samples_per_circle", np.float64(100.0)),
         ("width", 0.5), ("height", 800.0), ("width", "800")],
    )
    def test_integer_fields(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            PlotSpec(**{name: value})

    def test_numpy_integers_are_accepted(self):
        spec = PlotSpec(radii=(0.5,), samples_per_circle=np.int64(64), width=np.int32(300))
        assert type(spec.samples_per_circle) is int and type(spec.width) is int
        assert render_svg(identity_map(2), spec).count("<polyline") == 1

    @pytest.mark.parametrize("name", ["width", "height"])
    def test_canvas_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"^canvas {name} must be positive"):
            PlotSpec(**{name: 0})


class TestCurves:
    def test_identity_circle(self):
        pts = circle_image(identity_map(2), 0.5, 128)
        assert np.allclose(np.abs(pts), 0.5, atol=1e-15)

    def test_identity_polyline_radial_deviation(self):
        # chord sampling of a circle of radius r deviates at most 2 pi r / S
        s = 256
        pts = circle_image(identity_map(2), 0.5, s)
        mids = (pts + np.roll(pts, -1)) / 2
        assert np.max(0.5 - np.abs(mids)) < 2 * np.pi * 0.5 / s


class TestSVG:
    def test_deterministic_bytes(self):
        m = catalog("f2", p=SpiralParams(math.pi / 3), alpha=0.95)
        spec = PlotSpec(radii=(0.3, 0.8), samples_per_circle=128)
        assert render_svg(m, spec) == render_svg(m, spec)

    def test_structure(self):
        svg = render_svg(identity_map(2), PlotSpec(radii=(0.5,), samples_per_circle=64))
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 1
        assert svg.rstrip().endswith("</svg>")

    def test_one_polyline_per_radius(self):
        svg = render_svg(
            identity_map(2), PlotSpec(radii=(0.2, 0.5, 0.9), samples_per_circle=64)
        )
        assert svg.count("<polyline") == 3

    def test_polylines_closed(self):
        svg = render_svg(identity_map(2), PlotSpec(radii=(0.5,), samples_per_circle=64))
        points = svg.split('points="')[1].split('"')[0].split()
        assert points[0] == points[-1]

    def test_viewbox_padding(self):
        svg = render_svg(identity_map(2), PlotSpec(radii=(0.5,), samples_per_circle=64))
        vb = [float(v) for v in svg.split('viewBox="')[1].split('"')[0].split()]
        assert vb[0] < -0.5 and vb[2] > 1.0  # fitted with padding


class TestCSV:
    def test_header_and_shape(self):
        text = render_csv(identity_map(2), PlotSpec(radii=(0.5,), samples_per_circle=64))
        lines = text.strip().split("\n")
        assert lines[0] == "r,theta,re,im"
        assert len(lines) == 1 + 64

    def test_values(self):
        text = render_csv(identity_map(2), PlotSpec(radii=(0.5,), samples_per_circle=64))
        first = text.strip().split("\n")[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == 0.0
        assert float(first[2]) == 0.5
        assert float(first[3]) == 0.0

    def test_row_blocks_match_per_number_rows(self):
        # Two radii of two full row blocks and a partial one each.
        m = catalog("f5", p=SpiralParams(math.pi / 3), alpha=0.9)
        samples = 2 * FORMAT_BLOCK_ROWS + 5
        spec = PlotSpec(radii=(0.5, 0.9), samples_per_circle=samples, fmt="csv")
        assert render_csv(m, spec) == per_radius_csv(m, spec)

    def test_deterministic(self):
        m = catalog("f5", p=SpiralParams(math.pi / 3), alpha=0.9)
        spec = PlotSpec(radii=(0.5, 0.9), samples_per_circle=64, fmt="csv")
        assert render_csv(m, spec) == render_csv(m, spec)


class TestBlockedEvaluation:
    """Every render evaluates whole circles in blocks, and gives the image
    bits and the text of one evaluation per radius whatever the block size."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PLOT_MAPS),
        st.one_of(st.sampled_from([64, 720, 2048, 4096, 16383, 16384, 40000]), st.integers(64, 40000)),
        st.data(),
    )
    def test_renders_match_per_radius_references(self, name, samples, data):
        # At most about 60,000 points, so that the per-number references stay
        # quick; BLOCK_POINTS from one circle up.
        n_radii = data.draw(st.integers(1, min(12, max(1, 60000 // samples))), label="radii")
        top = harmonic.BLOCK_POINTS
        block = data.draw(st.one_of(st.just(top), st.integers(min(samples, top), top)), label="block")
        radii = tuple(np.linspace(0.1, 0.97, n_radii))
        m = plot_map(name)
        spec = PlotSpec(radii=radii, samples_per_circle=samples)
        want_csv, want_svg = per_radius_csv(m, spec), per_radius_svg(m, spec)
        with mock.patch.object(harmonic, "BLOCK_POINTS", block), \
                mock.patch.object(render, "BLOCK_POINTS", block):
            assert_per_radius_bits(m, spec)
            assert render_csv(m, spec) == want_csv
            assert render_svg(m, spec) == want_svg

    @pytest.mark.parametrize("name", PLOT_MAPS)
    @pytest.mark.parametrize("samples", [1024, 2048, 4096, 8192])
    def test_blocks_below_block_points(self, name, samples):
        # Here BLOCK_POINTS // samples circles are exactly BLOCK_POINTS
        # points, where f4's closed form rounds differently.
        m = plot_map(name)
        n_radii = harmonic.BLOCK_POINTS // samples
        spec = PlotSpec(radii=tuple(np.linspace(0.1, 0.97, n_radii)), samples_per_circle=samples)
        assert_per_radius_bits(m, spec)
        assert render_svg(m, spec) == per_radius_svg(m, spec)

    @pytest.mark.parametrize("renderer", [render_csv, render_svg])
    def test_default_plot_is_one_evaluation(self, renderer):
        calls = []

        def counted(m, z):
            calls.append(np.shape(z))
            return harmonic.eval_f(m, z)

        with mock.patch.object(render, "eval_f", counted):
            renderer(catalog("f2", p=SpiralParams(0.7), alpha=0.9), PlotSpec())
        assert calls == [(7, 720)]

    def test_plot_blocks_join_to_the_renders(self):
        m = plot_map("random64")
        for fmt, renderer in (("csv", render_csv), ("svg", render_svg)):
            spec = PlotSpec(radii=(0.3, 0.9), samples_per_circle=2 * FORMAT_BLOCK_ROWS + 5, fmt=fmt)
            blocks = list(plot_blocks(m, spec))
            assert len(blocks) > 3
            assert "".join(blocks) == renderer(m, spec)

    def test_one_radius_and_a_sequence(self):
        m = plot_map("f4")
        one = circle_image(m, 0.5, 64)
        both = circle_image(m, [0.5, 0.9], 64)
        assert one.shape == (64,) and both.shape == (2, 64)
        assert np.array_equal(both[0], one)


MEMOS = (render._angle_rows, render._point_template, render._kept_unit_circle)


class TestFormatBlocks:
    """A render formats blocks of whole circles, one ``format_array`` call
    each, from templates kept per sample count."""

    @pytest.mark.parametrize("fmt, renderer", [("svg", render_svg), ("csv", render_csv)])
    def test_default_plot_is_at_most_two_format_calls(self, fmt, renderer):
        m = catalog("f2", p=SpiralParams(0.7), alpha=0.9)
        renderer(m, PlotSpec(fmt=fmt))  # the CSV angle column is formatted here
        with mock.patch.object(render, "format_array", wraps=render.format_array) as counted:
            renderer(m, PlotSpec(fmt=fmt))
        assert counted.call_count <= 2

    def test_angle_column_is_formatted_once_per_sample_count(self):
        m = catalog("f2", p=SpiralParams(0.7), alpha=0.9)
        for memo in MEMOS:
            memo.cache_clear()
        with mock.patch.object(render, "format_array", wraps=render.format_array) as counted:
            first, second = (render_csv(m, PlotSpec(fmt="csv")) for _ in range(2))
        # The angle column is the one call with a single column.
        assert [len(c.args) for c in counted.call_args_list].count(2) == 1
        assert render._angle_rows.cache_info().misses == 1
        assert first == second

    def test_memos_keep_only_the_last_sample_count(self):
        m = catalog("f2", p=SpiralParams(0.7), alpha=0.9)
        for renderer in (render_csv, render_svg):
            renderer(m, PlotSpec(samples_per_circle=128))
        unit = weakref.ref(render._kept_unit_circle(128))
        for renderer in (render_csv, render_svg):
            renderer(m, PlotSpec(samples_per_circle=64))
        assert [memo.cache_info().currsize for memo in MEMOS] == [1, 1, 1]
        gc.collect()
        assert unit() is None

    @pytest.mark.parametrize(
        "samples, n_radii",
        [(720, 5), (720, 6), (720, 11)]
        + [(FORMAT_BLOCK_ROWS + d, n) for d in (-1, 0, 1) for n in (1, 2)],
    )
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_block_edges_match_per_radius_references(self, samples, n_radii, fmt):
        # Five 720-sample circles fill a block; at FORMAT_BLOCK_ROWS samples a
        # CSV circle is one block and an SVG one (samples + 1 points) is split.
        m = plot_map("random64")
        spec = PlotSpec(radii=tuple(np.linspace(0.2, 0.95, n_radii)), samples_per_circle=samples, fmt=fmt)
        reference, renderer = (per_radius_csv, render_csv) if fmt == "csv" else (per_radius_svg, render_svg)
        want = reference(m, spec)
        assert renderer(m, spec) == want
        blocks = list(plot_blocks(m, spec))
        assert "".join(blocks) == want
        # Each block holds at most FORMAT_BLOCK_ROWS CSV rows or SVG points.
        assert max(b.count("\n" if fmt == "csv" else ",") for b in blocks) <= FORMAT_BLOCK_ROWS


class TestSelfIntersection:
    def test_circle_is_simple(self):
        theta = 2 * np.pi * np.arange(64) / 64
        assert not polyline_self_intersects(np.exp(1j * theta))

    def test_figure_eight_intersects(self):
        t = 2 * np.pi * np.arange(128) / 128
        curve = np.sin(2 * t) + 1j * np.sin(t)
        assert polyline_self_intersects(curve)

    def test_limacon_inner_loop_detected(self):
        # r = 1 + 2 cos(theta) has an inner loop crossing the origin twice
        t = 2 * np.pi * np.arange(256) / 256
        r = 1 + 2 * np.cos(t)
        assert polyline_self_intersects(r * np.exp(1j * t))
