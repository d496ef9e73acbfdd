"""Disk-image rendering: SVG polylines and CSV samples of circle images.

Each plotted curve is the image of a circle |z| = r under the map, sampled
at equally spaced angles and closed by repeating the first point.  Output
is deterministic byte for byte: fixed palette, fixed key order, every
number at 9 significant digits, no timestamps.

Numbers are formatted one array at a time by ``mapfile.format_array``: one
call per SVG polyline, one per block of ``CSV_BLOCK_ROWS`` CSV rows of a
curve, and one for the CSV angle column, which every radius shares.  Only
the handful of SVG header numbers go through ``mapfile.format_number``.  A
curve that overflows to NaN or inf raises ``ValueError("non-finite number
in output")`` from the formatter, without numpy warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harmonic import HarmonicMapSpec, eval_f
from .mapfile import format_array, format_number

#: Default radii resolve the boundary shear of strongly spiralled images.
DEFAULT_RADII = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)

#: Cap on len(radii) * samples_per_circle: 200x the default plot's 5,040
#: points, or about 40 MB of CSV text.
MAX_PLOT_POINTS = 1_000_000

#: CSV rows formatted per ``format_array`` call, so that the template and
#: the numbers held at once do not grow with the samples per circle; a
#: default 720-sample curve is one block.
CSV_BLOCK_ROWS = 4096

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class PlotSpec:
    """Sampling plan for disk-image plots."""

    radii: tuple = field(default_factory=lambda: DEFAULT_RADII)
    samples_per_circle: int = 720
    fmt: str = "svg"
    width: int = 800
    height: int = 800

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("need at least one radius")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ValueError("radii must lie in (0, 1)")
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if self.samples_per_circle < 64:
            raise ValueError("need at least 64 samples per circle")
        if len(radii) * self.samples_per_circle > MAX_PLOT_POINTS:
            raise ValueError(
                f"at most {MAX_PLOT_POINTS} plotted points (radii x samples), "
                f"got {len(radii)} x {self.samples_per_circle}"
            )
        if self.fmt not in ("svg", "csv"):
            raise ValueError("format must be 'svg' or 'csv'")
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas dimensions must be positive")
        object.__setattr__(self, "radii", radii)


def _angles(samples: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(samples) / samples


def circle_image(m: HarmonicMapSpec, r: float, samples: int) -> np.ndarray:
    """Image points f(r e^{i theta}) at ``samples`` equally spaced angles.

    Overflow gives NaN or inf points silently; the formatter rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_f(m, r * np.exp(1j * _angles(samples)))


def render_csv(m: HarmonicMapSpec, spec: PlotSpec) -> str:
    """CSV document with columns r, theta, re, im."""
    samples = spec.samples_per_circle
    thetas = format_array("%.9g\n" * samples, _angles(samples)).split()
    parts = ["r,theta,re,im\n"]
    for r in spec.radii:
        # Row j is "r,theta_j,re_j,im_j": r and theta_j are fixed text in the
        # template, re_j and im_j its two %.9g slots.
        head = format_number(r) + ","
        w = circle_image(m, r, samples)
        for i in range(0, samples, CSV_BLOCK_ROWS):
            rows = slice(i, i + CSV_BLOCK_ROWS)
            template = head + f",%.9g,%.9g\n{head}".join(thetas[rows]) + ",%.9g,%.9g\n"
            parts.append(format_array(template, w.real[rows], w.imag[rows]))
    return "".join(parts)


def render_svg(m: HarmonicMapSpec, spec: PlotSpec) -> str:
    """SVG 1.1 document with one closed polyline per radius.

    The imaginary axis points up on screen (SVG y is flipped).  The viewBox
    is fitted to the data with 5% padding.
    """
    curves = [circle_image(m, r, spec.samples_per_circle) for r in spec.radii]
    allpts = np.concatenate(curves)
    xmin, xmax = float(allpts.real.min()), float(allpts.real.max())
    ymin, ymax = float(-allpts.imag.max()), float(-allpts.imag.min())
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    view = (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)
    stroke = span / 400.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="{format_number(view[0])} {format_number(view[1])} '
        f'{format_number(view[2])} {format_number(view[3])}">',
    ]
    for k, curve in enumerate(curves):
        closed = np.append(curve, curve[0])
        template = " ".join(["%.9g,%.9g"] * closed.size)
        pts = format_array(template, closed.real, -closed.imag)
        color = _PALETTE[k % len(_PALETTE)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{format_number(stroke)}" points="{pts}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def polyline_self_intersects(points: np.ndarray) -> bool:
    """Segment-pair scan for proper self-intersection of a closed polyline.

    ``points`` are the curve samples without the closing repeat; the
    closing segment is implied.  Only transversal crossings count, and
    segments sharing an endpoint (cyclically adjacent) are skipped.
    """
    pts = np.asarray(points, dtype=np.complex128)
    n = pts.size
    if n < 4:
        return False
    x1 = pts
    x2 = np.roll(pts, -1)

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    a = x1[:, None]
    b = x2[:, None]
    c = x1[None, :]
    d = x2[None, :]
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

    i = np.arange(n)
    adjacent = (np.abs(i[:, None] - i[None, :]) <= 1) | (
        np.abs(i[:, None] - i[None, :]) == n - 1
    )
    return bool(np.any(proper & ~adjacent))
