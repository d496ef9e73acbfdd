import numpy as np
import pytest

from spiralmaps.harmonic import ScanResult


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def tail_bounded_coeffs(rng, order, head, tail_budget=0.6):
    """Random coefficients c_0 = head, sum_{n>=1} |c_n| <= tail_budget.

    Keeping the tail summable keeps the series zero-free on the closed disk,
    which is what makes the exp/log recurrences well conditioned at high
    truncation orders.
    """
    mags = rng.random(order)
    mags *= tail_budget * rng.random() / mags.sum()
    phases = np.exp(2j * np.pi * rng.random(order))
    return np.concatenate([[head], mags * phases])


def scan_minimum(values: np.ndarray, points: np.ndarray, threshold: float) -> ScanResult:
    """Minimum of ``values``, the first point attaining it (the first NaN, as
    ``np.argmin`` takes it), and whether it exceeds ``threshold``: one scan
    over the whole grid, as the grid scans report it."""
    k = int(np.argmin(values))
    return ScanResult(float(values[k]), complex(points[k]), bool(values[k] > threshold))


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
