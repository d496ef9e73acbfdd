"""SVG/CSV rendering and the curve self-intersection scan."""

import math

import numpy as np
import pytest

from spiralmaps.construct import catalog
from spiralmaps.criteria import SpiralParams
from spiralmaps.harmonic import identity_map
from spiralmaps.mapfile import format_number
from spiralmaps.render import (
    CSV_BLOCK_ROWS,
    MAX_PLOT_POINTS,
    PlotSpec,
    circle_image,
    polyline_self_intersects,
    render_csv,
    render_svg,
)


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
        samples = 2 * CSV_BLOCK_ROWS + 5
        spec = PlotSpec(radii=(0.5, 0.9), samples_per_circle=samples, fmt="csv")
        thetas = 2.0 * np.pi * np.arange(samples) / samples
        want = ["r,theta,re,im\n"]
        for r in spec.radii:
            w = circle_image(m, r, samples)
            want += [
                f"{format_number(r)},{format_number(t)},{format_number(x)},{format_number(y)}\n"
                for t, x, y in zip(thetas, w.real, w.imag)
            ]
        assert render_csv(m, spec) == "".join(want)

    def test_deterministic(self):
        m = catalog("f5", p=SpiralParams(math.pi / 3), alpha=0.9)
        spec = PlotSpec(radii=(0.5, 0.9), samples_per_circle=64, fmt="csv")
        assert render_csv(m, spec) == render_csv(m, spec)


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
