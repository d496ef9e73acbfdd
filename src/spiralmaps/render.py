"""Disk-image rendering: SVG polylines and CSV samples of circle images.

Each plotted curve is the image of a circle |z| = r under the map, sampled
at equally spaced angles and closed by repeating the first point.  Output
is deterministic byte for byte: fixed palette, fixed key order, every
number at 9 significant digits, no timestamps.

A render first evaluates every circle into one (radii, samples) image
array, whole circles per ``eval_f`` call (the default 7 x 720 plot is one
call), and rejects a curve that overflowed to NaN or inf with
``ValueError("non-finite number in output")``, without numpy warnings.
Then :func:`plot_blocks` formats it a block at a time, which the CLI writes
as it goes; :func:`render_csv` and :func:`render_svg` join the same blocks.
Numbers are formatted one array at a time by ``mapfile.format_array``, one
call per block: as many whole circles as fit in ``FORMAT_BLOCK_ROWS`` SVG
points or CSV rows (the default plot is two blocks), or at most that many
rows of one longer circle.  A block's template is joined from pieces kept
for the last sample count in one-entry memos: the CSV angle column, already
formatted and split at the radius of each row, and the SVG point template;
``circle_image`` keeps the unit-circle points of a circle of at most one
block the same way.  Only the handful of SVG header numbers and the radii
go through ``mapfile.format_number``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .harmonic import BLOCK_POINTS, HarmonicMapSpec, eval_f
from .mapfile import format_array, format_number

#: Default radii resolve the boundary shear of strongly spiralled images.
DEFAULT_RADII = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)

#: Cap on len(radii) * samples_per_circle: 200x the default plot's 5,040
#: points, or about 40 MB of CSV text.
MAX_PLOT_POINTS = 1_000_000

#: CSV rows or SVG points formatted per ``format_array`` call: as many whole
#: curves as fit (five of the default 720-sample ones), or part of a longer
#: one, so that the template and the numbers held at once do not grow with
#: the plot.
FORMAT_BLOCK_ROWS = 4096

#: The radius slot of a circle's memoised CSV rows; no formatted number
#: contains it.
_RADIUS = "r"

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
        for name in ("samples_per_circle", "width", "height"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"canvas {name} must be positive")
        object.__setattr__(self, "radii", radii)


def _angles(samples: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Angles ``start:stop`` of ``samples`` equally spaced ones; each has the
    bits of its entry in the whole column."""
    return 2.0 * np.pi * np.arange(start, samples if stop is None else stop) / samples


def _unit_circle(samples: int) -> np.ndarray:
    """e^{i theta} at the angles of ``samples``.  Up to one format block of
    them is kept, read-only, for the next circle at that count; a kept
    table would live through the evaluation of a larger circle and raise
    its peak (by 16 MB at the point cap)."""
    if samples > FORMAT_BLOCK_ROWS:
        return np.exp(1j * _angles(samples))
    return _kept_unit_circle(samples)


@functools.lru_cache(maxsize=1)
def _kept_unit_circle(samples: int) -> np.ndarray:
    u = np.exp(1j * _angles(samples))
    u.flags.writeable = False
    return u


def circle_image(m: HarmonicMapSpec, r, samples: int) -> np.ndarray:
    """Image points f(r e^{i theta}) at ``samples`` equally spaced angles, in
    one ``eval_f`` call: shape ``(samples,)`` for one radius ``r``, and
    ``(len(r), samples)`` for a sequence of radii.

    Overflow gives NaN or inf points silently; the renderers reject them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_f(m, np.multiply.outer(r, _unit_circle(samples)))


def _images(m: HarmonicMapSpec, spec: PlotSpec) -> np.ndarray:
    """The circle images of ``spec``, shape (radii, samples), all finite.

    Whole circles are evaluated together in blocks of fewer than
    ``BLOCK_POINTS`` points, and a larger circle alone: below that size a
    closed form gives each point the bits a one-circle call gives it (see
    ``harmonic._block_rings``).  Raises ``ValueError("non-finite number in
    output")`` if any point overflowed.
    """
    samples = spec.samples_per_circle
    step = max(1, (BLOCK_POINTS - 1) // samples)  # circles per eval_f call
    radii = np.array(spec.radii)
    w = np.empty((radii.size, samples), dtype=np.complex128)
    for i in range(0, radii.size, step):
        w[i : i + step] = circle_image(m, radii[i : i + step], samples)
    if not np.isfinite(w).all():
        raise ValueError("non-finite number in output")
    return w


def _format_blocks(circles: int, rows: int) -> Iterator[tuple[range, int, int]]:
    """The format blocks of ``circles`` curves of ``rows`` rows each, in
    output order: ``(ks, start, stop)`` stands for rows ``start:stop`` of
    every curve in the range ``ks``.  A block is as many whole curves as fit
    in ``FORMAT_BLOCK_ROWS`` rows, or at most that many rows of one longer
    curve."""
    per = max(1, FORMAT_BLOCK_ROWS // rows)
    for k in range(0, circles, per):
        ks = range(k, min(k + per, circles))
        for start in range(0, rows, FORMAT_BLOCK_ROWS):
            yield ks, start, min(start + FORMAT_BLOCK_ROWS, rows)


@functools.lru_cache(maxsize=1)
def _angle_rows(samples: int, start: int, stop: int) -> tuple:
    """Rows ``start:stop`` of one circle's CSV as a template split at its
    radius slots, so that ``head.join`` puts the radius text ``head`` at the
    start of each row: a row is the formatted angle and two ``%.9g`` slots."""
    angles = _angles(samples, start, stop)
    rows = format_array(f"{_RADIUS},%.9g,%%.9g,%%.9g\n" * angles.size, angles)
    return tuple(rows.split(_RADIUS))


@functools.lru_cache(maxsize=1)
def _point_template(points: int) -> str:
    """The ``%.9g,%.9g`` slots of ``points`` SVG polyline points."""
    return " ".join(["%.9g,%.9g"] * points)


def _csv_blocks(w: np.ndarray, spec: PlotSpec) -> Iterator[str]:
    yield "r,theta,re,im\n"
    heads = [format_number(r) for r in spec.radii]
    samples = spec.samples_per_circle
    for ks, start, stop in _format_blocks(len(heads), samples):
        rows = _angle_rows(samples, start, stop)
        template = "".join([heads[k].join(rows) for k in ks])
        block = w[ks.start : ks.stop, start:stop]
        yield format_array(template, block.real.ravel(), block.imag.ravel())


def _svg_blocks(w: np.ndarray, spec: PlotSpec) -> Iterator[str]:
    """The SVG document of ``w``: its header is formatted now (a span that
    overflows raises here), its polylines as the blocks are consumed."""
    xmin, xmax = float(w.real.min()), float(w.real.max())
    ymin, ymax = float(-w.imag.max()), float(-w.imag.min())
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    view = (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="{" ".join(format_number(v) for v in view)}">\n'
    )
    return itertools.chain((header,), _polylines(w, format_number(span / 400.0)))


def _polylines(w: np.ndarray, stroke: str) -> Iterator[str]:
    samples = w.shape[1]
    # A closed curve has samples + 1 points, the last repeating the first.
    for ks, start, stop in _format_blocks(w.shape[0], samples + 1):
        points = _point_template(stop - start)
        tail = '"/>\n' if stop > samples else ""
        pieces = []
        for k in ks:
            head = (
                f'<polyline fill="none" stroke="{_PALETTE[k % len(_PALETTE)]}" '
                f'stroke-width="{stroke}" points="'
                if start == 0
                else " "
            )
            pieces += (head, points, tail)
        pts = w[ks.start : ks.stop, np.arange(start, stop) % samples]
        yield format_array("".join(pieces), pts.real.ravel(), -pts.imag.ravel())
    yield "</svg>\n"


def plot_blocks(m: HarmonicMapSpec, spec: PlotSpec) -> Iterator[str]:
    """The plot of ``spec.fmt`` as text blocks, whose concatenation is
    :func:`render_csv` or :func:`render_svg`.

    Every curve is evaluated and checked, and the SVG header formatted,
    before this returns, so a curve that overflows raises ``ValueError``
    before the first block; the rest is formatted a block at a time as it
    is consumed.
    """
    w = _images(m, spec)
    return _csv_blocks(w, spec) if spec.fmt == "csv" else _svg_blocks(w, spec)


def render_csv(m: HarmonicMapSpec, spec: PlotSpec) -> str:
    """CSV document with columns r, theta, re, im."""
    return "".join(_csv_blocks(_images(m, spec), spec))


def render_svg(m: HarmonicMapSpec, spec: PlotSpec) -> str:
    """SVG 1.1 document with one closed polyline per radius.

    The imaginary axis points up on screen (SVG y is flipped).  The viewBox
    is fitted to the data with 5% padding.
    """
    return "".join(_svg_blocks(_images(m, spec), spec))
