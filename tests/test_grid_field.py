"""GridField: FFT ring evaluation against Horner, block-wise scans, memory."""

import cmath
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from spiralmaps.construct import random_sufficient_map
from spiralmaps.criteria import SpiralParams, run_all_checks, spiral_margin
from spiralmaps.harmonic import (
    BLOCK_POINTS,
    FFT_MIN_POINTS,
    ClosedForm,
    GridSpec,
    HarmonicMapSpec,
    ScanResult,
    d_operator,
    eval_f,
    grid_points,
    identity_map,
    jacobian,
    ring_values,
)

#: Angle counts below, at and far above typical truncation orders, so that
#: n is folded mod n_angles in some draws and not in others.
ANGLES = st.sampled_from([8, 24, 64, 2048])


def dense_grid(n_angles: int, extra_radii: int = 0) -> GridSpec:
    """The smallest grid with n_angles angles above the FFT cutoff, plus extra radii."""
    grid = GridSpec(n_radii=FFT_MIN_POINTS // n_angles + 1 + extra_radii, n_angles=n_angles)
    assert grid.n_radii * grid.n_angles > FFT_MIN_POINTS
    return grid


def random_series_map(rng, order: int, budget: float) -> HarmonicMapSpec:
    """Complex coefficients with 1 + sum n(|a_n| + |b_n|) = 1 + budget."""
    a = rng.standard_normal(order - 1) + 1j * rng.standard_normal(order - 1)
    b = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    weight = np.arange(2, order + 1) @ np.abs(a) + np.arange(1, order + 1) @ np.abs(b)
    return HarmonicMapSpec(a=a * budget / weight, b=b * budget / weight, truncation_order=order)


@settings(max_examples=25, deadline=None)
@given(ANGLES, st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_fft_fields_agree_with_horner(n_angles, order, seed, scale):
    m = random_series_map(np.random.default_rng(seed), order, scale)
    grid = dense_grid(n_angles)
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    h, g = m.h_series(), m.g_series()
    series = (h, g, h.differentiate(), g.differentiate())
    rows = np.zeros((4, order + 1), dtype=np.complex128)
    for row, s in zip(rows, series):
        row[: len(s)] = s.coeffs
    got = ring_values(rows, radii, n_angles)
    pts = grid_points(grid)
    for s, values in zip(series, got):
        want = s.evaluate(pts).reshape(grid.n_radii, n_angles)
        bound = 1e-12 * (np.abs(s.coeffs) * radii[:, None] ** np.arange(len(s))).sum(axis=1)
        err = np.abs(values.reshape(grid.n_radii, n_angles) - want).max(axis=1)
        assert np.all(err <= bound), (np.argmax(err / bound), err.max())


def full_array_scans(m, p, grid) -> dict:
    """Each scan of run_all_checks as one ScanResult.minimum over the whole grid."""
    pts = grid_points(grid)
    eps = grid.margin_eps
    f = eval_f(m, pts)
    return {
        "sense_preserving": ScanResult.minimum(jacobian(m, pts), pts, eps),
        "nonvanishing": ScanResult.minimum(np.abs(f), pts, eps),
        "pointwise": ScanResult.minimum(np.real(p.phase * d_operator(m, pts) / f), pts, -eps),
        "margin": ScanResult.minimum(spiral_margin(m, p, pts), pts, -eps),
    }


@settings(max_examples=25, deadline=None)
@given(ANGLES, st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(0.05, 0.9),
       st.floats(-1.2, 1.2))
def test_fft_run_all_checks_agrees_with_full_array_scans(n_angles, order, seed, budget, lam):
    m = random_series_map(np.random.default_rng(seed), order, budget)
    p = SpiralParams(lam)
    grid = dense_grid(n_angles)
    report = run_all_checks(m, p, grid)
    for key, want in full_array_scans(m, p, grid).items():
        got = getattr(report, key)
        assert abs(got.min_value - want.min_value) <= 1e-12 * max(1.0, abs(want.min_value)), key
        assert got.passed == want.passed, key


def rational_closed_form() -> HarmonicMapSpec:
    """h = z / (1 - u z), g = w z with generic complex u, w: no symmetry ties."""
    u = 0.5 * cmath.exp(0.3j)
    w = 0.2 * cmath.exp(1.1j)
    cf = ClosedForm(
        name="rational",
        h=lambda z: z / (1 - u * z),
        g=lambda z: w * z,
        dh=lambda z: 1 / (1 - u * z) ** 2,
        dg=lambda z: np.full(z.shape, w),
    )
    return HarmonicMapSpec(a=[], b=[w], truncation_order=2, closed_form=cf)


def test_block_boundaries_keep_the_full_array_minimum_and_witness():
    m = rational_closed_form()
    p = SpiralParams(0.7)
    grid = GridSpec(n_radii=200, n_angles=256)
    assert grid.n_radii > 2 * (BLOCK_POINTS // grid.n_angles)  # at least 3 blocks
    report = run_all_checks(m, p, grid)
    witness_radii = set()
    for key, want in full_array_scans(m, p, grid).items():
        got = getattr(report, key)
        assert abs(got.min_value - want.min_value) <= 1e-12 * max(1.0, abs(want.min_value)), key
        assert got.witness == want.witness, key
        assert got.passed == want.passed, key
        witness_radii.add(round(abs(got.witness), 9))
    # The minima fall in the first and the last block, so both merge branches run.
    assert {round(grid.r_min, 9), round(grid.r_max, 9)} <= witness_radii


def test_exact_ties_across_blocks_keep_the_first_point():
    # The identity has J = 1 at every point: the witness is the first grid point.
    grid = dense_grid(2048, extra_radii=2 * (BLOCK_POINTS // 2048))
    report = run_all_checks(identity_map(8), SpiralParams(0.0), grid)
    assert report.sense_preserving.min_value == 1.0
    assert report.sense_preserving.witness == complex(grid.r_min)


def traced_peak(m, p, grid) -> int:
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_all_checks(m, p, grid)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_radii():
    p = SpiralParams(math.pi / 4)
    m = random_sufficient_map(np.random.default_rng(7), p, order=64, n_terms=32)
    small = GridSpec(n_radii=100, n_angles=2048)
    large = GridSpec(n_radii=400, n_angles=2048)
    run_all_checks(m, p, small)  # warm caches outside the measurement
    growth = traced_peak(m, p, large) - traced_peak(m, p, small)
    assert growth < 16 * BLOCK_POINTS, growth
