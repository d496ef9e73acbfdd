"""GridField and the unimodular-family scans: FFT ring evaluation against
Horner, block-wise scans, error parity with a per-eps loop, memory."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spiralmaps import criteria, harmonic
from spiralmaps.construct import (
    ConstraintError,
    catalog,
    catalog_names,
    random_signed_map,
    random_starlike_budget_map,
    random_sufficient_map,
    transform_exponent,
    transform_family_check,
    transform_identity_defect,
)
from spiralmaps.criteria import (
    EpsilonScanResult,
    NearZeroError,
    SpiralParams,
    epsilon_starlike_check,
    family_scan,
    run_all_checks,
    spiral_margin,
    unimodular_samples,
)
from spiralmaps.harmonic import (
    BLOCK_POINTS,
    ClosedForm,
    GridField,
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    eval_f,
    field_rows,
    grid_points,
    identity_map,
    jacobian,
    ring_bounds,
    ring_fields,
    ring_values,
)
from spiralmaps.series import MAX_ORDER, PowerSeries, pow_rows, pow_series

from conftest import scan_minimum

#: Angle counts below, at and far above typical truncation orders, so that
#: n is folded mod n_angles in some draws and not in others.
ANGLES = st.sampled_from([8, 24, 64, 2048])


def dense_grid(n_angles: int, extra_radii: int = 0) -> GridSpec:
    """The smallest grid with n_angles angles above one block, plus extra radii."""
    grid = GridSpec(n_radii=BLOCK_POINTS // n_angles + 1 + extra_radii, n_angles=n_angles)
    assert grid.n_radii * grid.n_angles > BLOCK_POINTS
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


@settings(max_examples=25, deadline=None)
@given(ANGLES, st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_mirrored_ring_spectra_agree_with_horner(n_angles, order, seed, scale):
    # With orders up to 300 on 8 to 2048 angles, the +n terms and the
    # conjugated -n terms both fold mod n_angles in some draws.
    m = random_series_map(np.random.default_rng(seed), order, scale)
    grid = GridSpec(n_radii=6, n_angles=n_angles)
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    spectrum = np.empty((3, radii.size, n_angles), dtype=np.complex128)
    f, d, p = ring_fields(field_rows(m), radii, spectrum)  # f, Df/z, P/z
    pts = grid_points(grid)
    got = {"f": f, "Df": pts * d, "J": (p * np.conj(d)).real}
    want = {"f": eval_f(m, pts), "Df": d_operator(m, pts), "J": jacobian(m, pts)}
    n = np.arange(order + 1)
    c = np.abs(m.h_coefficients()) + np.abs(m.g_coefficients())
    weight = ((1 + n) * c * radii[:, None] ** n).sum(axis=1)
    # J is quadratic in the coefficients: its scale is the square of
    # sum n (|h_n| + |g_n|) r^(n-1), which bounds |h'| + |g'|.
    deriv = (n[1:] * c[1:] * radii[:, None] ** n[:-1]).sum(axis=1)
    bounds = {"f": 1e-12 * weight, "Df": 1e-12 * weight, "J": 1e-12 * deriv**2}
    for key, values in got.items():
        err = np.abs(values - want[key]).reshape(radii.size, n_angles).max(axis=1)
        assert np.all(err <= bounds[key]), (key, np.argmax(err / bounds[key]), err.max())


def full_array_scans(m, p, grid) -> dict:
    """Each scan of run_all_checks as one scan_minimum over the whole grid."""
    pts = grid_points(grid)
    eps = grid.margin_eps
    f = eval_f(m, pts)
    return {
        "sense_preserving": scan_minimum(jacobian(m, pts), pts, eps),
        "nonvanishing": scan_minimum(np.abs(f), pts, eps),
        "pointwise": scan_minimum(np.real(p.phase * d_operator(m, pts) / f), pts, -eps),
        "margin": scan_minimum(spiral_margin(m, p, pts), pts, -eps),
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


def test_nan_minima_win_across_blocks():
    # J overflows to NaN at most points: on one block and on 25 the scan
    # reports the first NaN, as scan_minimum over the whole grid does.
    a, b = np.zeros(49), np.zeros(50)
    a[-1], b[-1] = 1e200, 0.5e200
    m = HarmonicMapSpec(a=a, b=b, truncation_order=50)
    for grid in (GridSpec(), GridSpec(n_radii=200, n_angles=2048)):
        radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
        with np.errstate(all="ignore"):
            spectrum = np.empty((3, grid.n_radii, grid.n_angles), dtype=np.complex128)
            f, d, p = ring_fields(field_rows(m), radii, spectrum)
            jac = p.real * d.real + p.imag * d.imag
            got = GridField(m, grid).sense_preserving
        want = scan_minimum(jac, grid_points(grid), grid.margin_eps)
        assert math.isnan(want.min_value)
        assert math.isnan(got.min_value) and not got.passed
        assert got.witness == want.witness



@pytest.mark.parametrize("r_min, r_max, lam", [(0.3, 0.75, -1.2), (0.3, 0.75, 1.3), (1e-3, 0.99, -0.6)])
def test_closed_form_scans_are_the_ring_by_ring_scans(r_min, r_max, lam):
    # On blocks of 8 rings of 2048 points numpy computes f4's products in
    # place with swapped operands, and a minimum below moved in its last bits;
    # the scan must give the bits of scanning each ring on its own.
    m = catalog("f4")
    phase = SpiralParams(lam).phase
    grid = GridSpec(r_min=r_min, r_max=r_max, n_radii=16, n_angles=2048)
    whole = GridField(m, grid, phase)
    rings = [GridField(m, GridSpec(r_min=r, r_max=0.995, n_radii=1, n_angles=2048), phase)
             for r in np.linspace(r_min, r_max, grid.n_radii)]
    for name in ("nonvanishing", "sense_preserving", "pointwise", "margin"):
        want = None
        for ring in rings:  # a later ring wins only when strictly smaller
            got = getattr(ring, name)
            if want is None or got.min_value < want.min_value:
                want = got
        assert getattr(whole, name) == want, name

def traced_peak(run) -> int:
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
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
    growth = traced_peak(lambda: run_all_checks(m, p, large)) - traced_peak(
        lambda: run_all_checks(m, p, small)
    )
    assert growth < 16 * BLOCK_POINTS, growth


def test_dense_scan_peak_memory_is_a_few_block_arrays():
    # Measured: 7.3 block arrays at order 64 and 7.35 at order 256 (six for
    # the workspace: three for the spectra, two for the four real values per
    # point, one for the points; one for a field's FFT output; the rest grid
    # axes and power tables), against 13.2 before the scan kept one
    # workspace and three spectra per block.
    p = SpiralParams(math.pi / 4)
    grid = GridSpec(n_radii=200, n_angles=2048)
    block = 16 * BLOCK_POINTS  # bytes of one complex block array
    for order in (64, 256):
        m = random_sufficient_map(np.random.default_rng(7), p, order=order, n_terms=order // 2)
        run_all_checks(m, p, grid)  # warm caches outside the measurement
        peak = traced_peak(lambda: run_all_checks(m, p, grid))
        assert peak < 10 * block, (order, peak / block)


# ------------------------------------------------------- the pruned ring walk
#
# GridField evaluates a series-backed map only on the rings whose lower bounds
# from ring_bounds leave them in play.  The reference below evaluates every
# ring with its own ring_fields call and the scan's arithmetic, and takes each
# minimum over the whole grid, so the two must agree bit for bit.


def every_ring_scan(m: HarmonicMapSpec, grid: GridSpec, phase: complex):
    """GridField's four results from one ring_fields call per ring and
    scan_minimum over the grid (pointwise is None exactly when min |f|
    is not above margin_eps), and each ring's minima of |f|, the quotient,
    the Jacobian and the margin, shape (4, n_radii)."""
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    pts = grid_points(grid).reshape(grid.n_radii, grid.n_angles)
    f, rot_df, jac = [], [], []
    with np.errstate(all="ignore"):
        rows = field_rows(m)
        for i in range(grid.n_radii):
            spectrum = np.empty((3, 1, grid.n_angles), dtype=np.complex128)
            fi, d, p = ring_fields(rows, radii[i : i + 1], spectrum)
            f.append(fi)
            rot_df.append(phase * (pts[i] * d))
            jac.append(p.real * d.real + p.imag * d.imag)
        f, rot_df, jac = (np.concatenate(v) for v in (f, rot_df, jac))
        values = np.stack([np.abs(f), (rot_df / f).real, jac, np.abs(f + rot_df) - np.abs(f - rot_df)])
    z, eps = pts.ravel(), grid.margin_eps
    low = scan_minimum(values[0], z, eps)
    scans = {
        "nonvanishing": low,
        "pointwise": scan_minimum(values[1], z, -eps) if low.min_value > eps else None,
        "sense_preserving": scan_minimum(values[2], z, eps),
        "margin": scan_minimum(values[3], z, -eps),
    }
    return scans, values.reshape(4, grid.n_radii, grid.n_angles).min(axis=2)


def walk_input(kind: str, rng, order: int, lam: float) -> HarmonicMapSpec:
    p = SpiralParams(lam)
    n_terms = int(rng.integers(1, order + 1))
    if kind == "sufficient":
        return random_sufficient_map(rng, p, order=order, n_terms=n_terms)
    if kind == "signed":
        return random_signed_map(rng, p, order=order, n_terms=n_terms)
    if kind == "budget":
        return random_starlike_budget_map(rng, order=order, n_terms=n_terms)
    if kind == "steep":
        # h = z + c z^k with |c| up to 2: D <= 0 on the outer rings, which
        # then have no useful bound on |f| or the quotient.
        a = np.zeros(max(order, 2) - 1, dtype=np.complex128)
        a[rng.integers(a.size)] = rng.uniform(0.1, 2.0) * cmath.exp(2j * math.pi * rng.random())
        return HarmonicMapSpec(a=a, b=[0.1 * cmath.exp(2j * math.pi * rng.random())],
                               truncation_order=a.size + 1)
    if kind == "constant":
        # h = z, g = c z: J is the same on every ring, so rings tie.
        c = rng.uniform(0, 0.9) * cmath.exp(2j * math.pi * rng.random()) if rng.random() < 0.7 else 0
        return HarmonicMapSpec(a=[], b=[c], truncation_order=order)
    if kind == "overflow":
        m = random_sufficient_map(rng, p, order=max(order, 2), n_terms=n_terms)
        a = m.a.copy()
        a[rng.integers(a.size)] = float(rng.choice([1e308, 1e200, 1e154]))
        return HarmonicMapSpec(a=a, b=m.b, truncation_order=m.truncation_order)
    # "zero": f = z (1 - 2z)(1 - 4z) vanishes exactly at z = 1/4 and z = 1/2.
    return HarmonicMapSpec(a=[-6, 8], b=[], truncation_order=3)


@settings(max_examples=80, deadline=None)
# Two rings a few ulps apart whose margins tie exactly: one is evaluated in
# the first pass, the other later, and the earlier one must stay the witness.
@example(kind="budget", seed=2462532401, order=8, n_angles=256, n_radii=2, dense=True, ulps=40,
         margin=0.05, lam=-0.15127906717026685)
@given(st.sampled_from(["sufficient", "signed", "budget", "steep", "constant", "overflow", "zero"]),
       st.integers(0, 2**32 - 1), st.integers(1, 256), st.sampled_from([8, 10, 24, 30, 256, 2046, 2048]),
       st.integers(1, 6), st.booleans(), st.sampled_from([None, 1, 3, 40]),
       st.sampled_from([1e-9, 0.0, 1e-3, 0.05]), st.floats(-1.5, 1.5))
def test_pruned_ring_walk_is_the_every_ring_scan(
    kind, seed, order, n_angles, n_radii, dense, ulps, margin, lam
):
    rng = np.random.default_rng(seed)
    m = walk_input(kind, rng, order, lam)
    if dense:  # several blocks
        n_radii += BLOCK_POINTS // n_angles
    r_min = float(rng.uniform(1e-3, 0.6))
    r_max = float(rng.uniform(r_min + 0.01, 0.995))
    if ulps:
        # Radii a few ulps apart: the rings' minima tie or differ by rounding,
        # and the signed maps meet their bounds on the real axis, so a bound
        # without its allowance would skip a ring that holds the minimum.
        r_max = r_min + ulps * float(np.spacing(r_min))
    if kind == "zero":  # the zeros lie on the first and the last ring, at angle 0
        r_min, r_max = 0.25, 0.5
    grid = GridSpec(r_min=r_min, r_max=r_max, n_radii=n_radii, n_angles=n_angles, margin_eps=margin)
    phase = SpiralParams(lam).phase
    with np.errstate(all="ignore"):
        got = GridField(m, grid, phase)
    want, minima = every_ring_scan(m, grid, phase)
    for name, scan in want.items():
        assert repr(getattr(got, name)) == repr(scan), name  # exact floats, NaN equal to NaN
    # The walk relies on each ring's bounds being at most its minima.
    h = np.ones((1, m.truncation_order))
    h[0, 1:] = np.abs(m.a)
    bounds = ring_bounds(h, np.linspace(r_min, r_max, n_radii), phase, np.abs(m.b)[None])[:, 0]
    assert not np.any(bounds > minima), np.argwhere(bounds > minima)


def test_dense_scans_evaluate_few_rings():
    p = SpiralParams(math.pi / 4)
    m = random_sufficient_map(np.random.default_rng(7), p, order=64, n_terms=32)
    grid = GridSpec(n_radii=200, n_angles=2048)
    assert GridField(m, grid, p.phase).rings_evaluated <= 20
    # Bounds that tie on every ring (a constant Jacobian) or that do not exist
    # (a closed form) leave every ring in play.
    assert GridField(identity_map(8), grid, p.phase).rings_evaluated == grid.n_radii
    for name in catalog_names():
        c = catalog(name, p=p, alpha=0.5)
        if c.closed_form is not None:
            assert GridField(c, GridSpec(), p.phase).rings_evaluated == GridSpec().n_radii, name


def test_affine_maps_evaluate_every_ring():
    # h = z, g = b_1 z: the quotient bound is the same on every ring, so every
    # ring is a seed, whatever the truncation order.
    grid = GridSpec(n_radii=9, n_angles=24)
    for order in (1, 2, 64):
        for b1 in (0.0, 0.3 - 0.4j, 1.0, 1.5j):
            m = HarmonicMapSpec(a=[], b=[b1], truncation_order=order)
            for lam in (0.0, -1.1):
                phase = SpiralParams(lam).phase
                with np.errstate(all="ignore"):
                    got = GridField(m, grid, phase)
                want, _ = every_ring_scan(m, grid, phase)
                for name, scan in want.items():
                    assert repr(getattr(got, name)) == repr(scan), (order, b1, lam, name)
                assert got.rings_evaluated == grid.n_radii


def test_ring_table_merge_keeps_what_comes_first():
    radii = np.array([0.1, 0.2, 0.3, 0.4])
    t = harmonic.RingTable(np.full((1, 4), -np.inf), radii)
    assert np.all(t.low == np.inf) and np.array_equal(t.at[0], radii)  # the rings' first points
    assert not t.tag.any() and not t.evaluated.any()
    i = np.arange(4)
    t.merge(0, i, np.array([1.0, 2.0, np.nan, 3.0]), 1j * radii, np.full(4, 5))
    # A tie keeps the value kept, a NaN replaces a number, a number never
    # replaces a NaN, and a lesser number replaces a greater.
    t.merge(0, i, np.array([1.0, np.nan, 0.0, 2.5]), 2j * radii, np.full(4, 1))
    assert np.array_equal(t.low[0], [1.0, np.nan, np.nan, 2.5], equal_nan=True)
    assert t.at[0].tolist() == [0.1j, 0.4j, 0.3j, 0.8j]
    assert t.tag[0].tolist() == [5, 1, 5, 1]
    t.merge(0, i[1:3], np.array([np.nan, -np.inf]), np.array([9j, 9j]), np.array([0, 0]))
    assert t.at[0].tolist() == [0.1j, 0.4j, 0.3j, 0.8j]  # a NaN keeps the NaN kept
    assert not t.evaluated.any()  # merging marks no ring


def test_ring_table_reads_nan_then_value_then_tag_then_ring():
    t = harmonic.RingTable(np.zeros((3, 6)), np.linspace(0.1, 0.6, 6))
    t.low[:] = [[2, 1, 1, 1, 3, 1], [2, np.nan, 1, np.nan, 1, 1], [1, 1, 1, 1, 1, 1]]
    t.tag[:] = [[0, 4, 2, 2, 0, 3], [0, 3, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]]
    t.at[:] = 1j * np.arange(18).reshape(3, 6)

    def read(*rings):
        low, at, tag = t.least(*rings)
        assert low.shape == at.shape == tag.shape == (3,)
        return low.tolist(), at.tolist(), tag.tolist()

    low, at, tag = read()
    assert low[0] == 1 and math.isnan(low[1]) and low[2] == 1
    assert (at, tag) == ([2j, 9j, 12j], [2, 1, 0])  # least tag, then the first ring
    low, at, tag = read(np.array([1, 4, 5]))
    assert low[0] == 1 and math.isnan(low[1]) and low[2] == 1
    assert (at, tag) == ([5j, 7j, 13j], [3, 3, 0])
    t.tag[:] = 0  # untagged, as a grid scan: the first ring holding the least value
    low, at, tag = read()
    assert (at, tag) == ([1j, 7j, 12j], [0, 0, 0])


def test_ring_table_evaluated_flags_are_the_rings_scanned(monkeypatch):
    p = SpiralParams(math.pi / 4)
    m = random_sufficient_map(np.random.default_rng(7), p, order=64, n_terms=32)
    grid = GridSpec(n_radii=100, n_angles=256)
    radii = harmonic.grid_axes(grid)[0]
    scanned, fields = [], harmonic.ring_fields

    def spy(rows, r, spectrum):
        scanned.extend(np.searchsorted(radii, r).tolist())
        return fields(rows, r, spectrum)

    monkeypatch.setattr(harmonic, "ring_fields", spy)
    got = GridField(m, grid, p.phase)
    t = got.table
    assert 0 < got.rings_evaluated == len(scanned) < grid.n_radii
    assert np.flatnonzero(t.evaluated).tolist() == sorted(scanned)
    # A ring not evaluated keeps inf at its first point, and is never read.
    assert np.all(t.low[:, ~t.evaluated] == np.inf)
    assert np.all(t.at[:, ~t.evaluated] == radii[~t.evaluated])
    assert np.all(np.isfinite(t.low[:, t.evaluated]))
    assert not t.tag.any()


def swap_bound_sums(monkeypatch, product, table=harmonic._power_table):
    """Make ring_bounds form its sums as ``product(table(r, width), cols)``
    in place of BLAS's product with the kept power table (shape (r.size,
    width))."""

    class Table(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, out=None, **kwargs):
            assert ufunc is np.matmul and method == "__call__" and not kwargs
            value = product(*(np.asarray(a) for a in args))
            if out is None:
                return value
            out[0][...] = value
            return out[0]

    monkeypatch.setattr(harmonic, "_power_table", lambda r, width: table(r, width).view(Table))


def exact_power_table(r, width):
    return r[:, None] ** np.arange(width)


def plain_sums(table, cols):
    return (table[:, :, None] * cols[None]).sum(axis=1)


@pytest.mark.parametrize("order", [1024, MAX_ORDER])
@pytest.mark.parametrize("kind", ["series", "signed", "steep"])
def test_ring_bounds_at_high_orders(monkeypatch, order, kind):
    # The power table r^n r^(j - n) and BLAS's sums move each bound by far
    # less than its rounding allowance, against exact powers r ** j and
    # numpy's own sums, and no bound exceeds its ring's minimum.
    rng = np.random.default_rng(order + len(kind))
    p = SpiralParams(0.6)
    if kind == "series":
        m = random_series_map(rng, order, 0.6)
    elif kind == "signed":  # meets its |f| and quotient bounds on the positive axis
        m = random_signed_map(rng, p, order=order, n_terms=order // 2)
    else:  # h = z + c z^k, k near the order: the table's last entries carry the sums
        a = np.zeros(order - 1, dtype=np.complex128)
        a[-rng.integers(1, 20)] = 0.5 * cmath.exp(2j * math.pi * rng.random())
        m = HarmonicMapSpec(a=a, b=[0.1], truncation_order=order)
    # At MAX_ORDER the table of 40 radii is above the pool's size, so the
    # bounds run in two blocks of rings.
    grid = GridSpec(r_min=0.99, r_max=0.9995, n_radii=40, n_angles=64)
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    h = np.ones((1, order))
    h[0, 1:] = np.abs(m.a)
    family = np.abs(m.h_coefficients()[1:] + 0.5j * m.g_coefficients()[1:])[None]
    size = ((1 + np.arange(order + 1)) * (np.abs(m.h_coefficients()) + np.abs(m.g_coefficients())))[None, 1:]

    def bounds():
        return (ring_bounds(h, radii, p.phase, np.abs(m.b)[None])[:, 0],
                ring_bounds(family, radii, size=size, count=2)[:, 0])

    got = bounds()
    swap_bound_sums(monkeypatch, plain_sums, exact_power_table)
    exact = bounds()
    assert not all(map(np.array_equal, got, exact))  # the reference reaches the bounds
    monkeypatch.setattr(harmonic, "BOUND_ROUNDING", 0.0)
    bare = bounds()
    for b, e, z in zip(got, exact, bare):
        assert np.all(np.isfinite(e[:2])), e  # bounds that hold, not -inf
        allowance = z - e  # what BOUND_ROUNDING takes off each bound
        assert np.all(allowance > 0)
        assert np.all(np.abs(b - e) <= 1e-2 * allowance), np.abs(b - e) / allowance
    _, minima = every_ring_scan(m, grid, p.phase)
    assert not np.any(got[0] > minima), np.argwhere(got[0] > minima)


def test_power_table_keeps_only_the_last_radii():
    # One radii's table is kept: a narrower call slices it, a wider one
    # rebuilds it with the same entries, and other radii replace it.
    a, b = np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 6)
    wide = harmonic._power_table(a, 9)
    assert not wide.flags.writeable
    assert np.shares_memory(harmonic._power_table(a, 4), wide)
    wider = harmonic._power_table(a, 17)
    assert not np.shares_memory(wider, wide) and np.array_equal(wider[:, :9], wide)
    assert np.shares_memory(harmonic._power_table(a, 9), wider)
    harmonic._power_table(b, 3)
    key, table = harmonic._last_table[0]
    assert key == b.tobytes() and table.shape == (6, 3)
    narrow = harmonic._power_table(a, 4)  # built again, entries independent of the width
    assert not np.shares_memory(narrow, wider) and np.array_equal(narrow, wider[:, :4])
    assert np.array_equal(narrow[:, :2], np.stack([np.ones(5), a], axis=1))


def test_powers_do_not_depend_on_the_width():
    # Entry s k + i is r^(s k) r^i whatever the width asked, and the entries
    # below the step, r^0 = 1 among them, are those of r ** j.
    r = np.linspace(1e-3, 0.9995, 50)
    wide = harmonic._powers(r, MAX_ORDER + 1)
    for width in (1, 2, 31, 32, 33, 64, 257, 1000):
        assert np.array_equal(harmonic._powers(r, width), wide[:, :width])
    s = harmonic._POWER_STEP
    assert np.array_equal(wide[:, :s], r[:, None] ** np.arange(s))
    assert np.all(wide[:, 0] == 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="needs a long double wider than a double for its reference")
def test_powers_are_within_three_ulps_up_to_the_largest_order():
    r = np.concatenate([np.linspace(1e-3, 0.9995, 60), [0.5, 0.99, 1 - 2**-40]])
    got = harmonic._powers(r, MAX_ORDER + 1)
    want = np.longdouble(r)[:, None] ** np.arange(MAX_ORDER + 1)
    ulps = np.abs(got - want) / np.spacing(want.astype(np.float64))
    assert ulps.max() <= 3, ulps.max()


def old_bound_table(r, width):
    # The two-level table r^(s k) r^i, s about sqrt(width), that the einsum
    # path of ring_bounds built per block of rings.
    s = math.isqrt(width - 1) + 1
    low = r ** np.arange(s)[:, None]
    high = r ** np.arange(0, width, s)[:, None, None]
    return (high * low).reshape(-1, r.size)[:width].T


def einsum_sums(table, cols):
    return np.einsum("rj,jm->rm", table, cols)


def test_scans_do_not_depend_on_the_bound_arithmetic(monkeypatch):
    # The bounds choose which rings are evaluated, and a skipped ring holds no
    # minimum, tie or NaN: with the sums of the einsum path (its own table,
    # its own order of sums) every result is the same, repr for repr.
    p = SpiralParams(0.6)
    rng = np.random.default_rng(19)
    # Radii a few ulps apart as well: there the rings' minima tie, and the
    # signed maps meet their bounds on the positive axis.
    grids = [GridSpec(n_radii=60, n_angles=256),
             GridSpec(r_min=0.4, r_max=0.4 + 40 * float(np.spacing(0.4)), n_radii=40, n_angles=64)]
    maps = [random_sufficient_map(rng, p, order=order, n_terms=order // 2) for order in (8, 64, 256)]
    maps += [random_signed_map(rng, p, order=order, n_terms=order // 2) for order in (64, 256)]
    maps += [random_series_map(rng, 64, 0.9), random_series_map(rng, 256, 2.0), family_map(5, 24, 0.8)]
    H, G = PowerSeries(maps[1].h_coefficients()), PowerSeries(np.conj(maps[1].g_coefficients()))

    def outcomes():
        out = []
        for grid in grids:
            for m in maps:
                with np.errstate(all="ignore"):
                    field = GridField(m, grid, p.phase)
                out.append([repr(getattr(field, name)) for name, _ in harmonic._SCANS])
                out.append(eps_outcome(lambda: epsilon_starlike_check(m, grid, n_eps=16)))
            out.append(eps_outcome(lambda: transform_family_check(H, G, p, grid, n_eps=16)))
        return out

    want = outcomes()
    calls = []
    swap_bound_sums(monkeypatch, lambda *args: calls.append(1) or einsum_sums(*args), old_bound_table)
    assert outcomes() == want
    assert calls  # the swap reaches the bounds


# ------------------------------------------------------- unimodular families
#
# The references below are the per-eps loop the family checks replaced: each
# member is formed and evaluated on the whole grid by Horner, its |den| is
# checked against the margin before Re(num/den) is formed, and a later eps
# wins only when strictly smaller.


def unimodular(n_eps: int) -> list:
    return [complex(np.exp(2j * np.pi * k / n_eps)) for k in range(n_eps)]


def sequential_family(members, pts, n_eps, margin, what):
    """(min, witness, witness_eps, passed, scale): the per-eps loop, plus the
    largest sum (1 + n) |c_n| r_max^n of a member's coefficients."""
    best, witness, witness_eps, scale = math.inf, 0j, 1 + 0j, 0.0
    for eps in unimodular(n_eps):
        den, num, s = members(eps)
        scale = max(scale, s)
        k = int(np.argmin(np.abs(den)))
        if abs(den[k]) <= margin:
            raise NearZeroError(
                f"|{what}| = {abs(den[k]):.3e} below margin at eps = {eps}, z = {complex(pts[k])}"
            )
        q = np.real(num / den)
        k = int(np.argmin(q))
        if q[k] < best:
            best, witness, witness_eps = float(q[k]), complex(pts[k]), eps
    return best, witness, witness_eps, best > -margin, scale


def weighted_sum(c, r: float) -> float:
    return float(np.sum((1 + np.arange(c.size)) * np.abs(c) * r ** np.arange(c.size)))


def sequential_eps_check(m: HarmonicMapSpec, grid: GridSpec, n_eps: int):
    h, g = m.h_series(), m.g_series()
    pts = grid_points(grid)
    hv, gv = h.evaluate(pts), g.evaluate(pts)
    dhv, dgv = h.differentiate().evaluate(pts), g.differentiate().evaluate(pts)

    def members(eps):
        s = weighted_sum(h.coeffs + eps * g.coeffs, grid.r_max)
        return hv + eps * gv, pts * (dhv + eps * dgv), s

    return sequential_family(members, pts, n_eps, grid.margin_eps, "h + eps g")


def sequential_transform_check(H, G, p, grid, n_eps, orientation=1):
    mu = transform_exponent(p, orientation)
    rot = np.exp(-1j * orientation * p.lam)
    pts = grid_points(grid)

    def members(eps):
        s = (H + eps * G).divided_by_z()
        w0 = s[0]
        if abs(w0) < 1e-9:
            raise ConstraintError(
                f"H + eps G degenerates at eps = {eps}: linear coefficient {w0:.3e}"
            )
        f_eps = pow_series((1.0 / w0) * s, mu).times_z()
        den = f_eps.evaluate(pts)
        num = rot * pts * f_eps.differentiate().evaluate(pts)
        return den, num, weighted_sum(f_eps.coeffs, grid.r_max)

    return sequential_family(members, pts, n_eps, grid.margin_eps, "F_eps")


def family_map(seed: int, order: int, budget: float) -> HarmonicMapSpec:
    """Complex coefficients with |b_1| <= 1/2 and the n-weighted sum of the
    other terms at most budget, so that |h + eps g| >= |z| (3/4 - budget/2)
    stays clear of zero on the punctured disk.  Odd seeds keep only b_1
    (|b_1| <= 1/4) and one term a_k z^k of h, k >= 3, with k |a_k| =
    1.5 budget, so |h + eps g| >= |z| / 10 and above budget 2/3 the members
    need not be starlike."""
    rng = np.random.default_rng(seed)
    m = random_series_map(rng, order, budget)
    a, b = m.a.copy(), m.b.copy()
    b[0] *= min(1.0, 0.5 / max(abs(b[0]), 1e-300))
    if seed % 2 and order > 2:
        k = int(rng.integers(3, order + 1))
        a[:] = 0
        a[k - 2] = 1.5 * budget / k * np.exp(2j * np.pi * rng.random())
        b[1:] = 0
        b[0] /= 2
    return HarmonicMapSpec(a=a, b=b, truncation_order=order)


def assert_same_family_result(got, want, value_at):
    best, witness, witness_eps, passed, scale = want
    tol = 1e-12 * scale
    assert abs(got.min_value - best) <= tol, (got.min_value, best, tol)
    assert got.passed == passed
    assert abs(value_at(got.witness_eps, got.witness) - got.min_value) <= tol


#: n_angles 2048 gives chunks of 8 eps and one ring per block, so n_eps in
#: 1..24 covers partial chunks; 8 and 24 angles fold orders up to 40.
FAMILY_GRIDS = st.builds(
    lambda n_angles, n_radii: GridSpec(n_radii=n_radii, n_angles=n_angles),
    ANGLES, st.integers(1, 5),
)


@settings(max_examples=50, deadline=None)
@given(FAMILY_GRIDS, st.integers(1, 24), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(0.05, 1.3))
def test_eps_check_agrees_with_the_per_eps_loop(grid, n_eps, order, seed, budget):
    m = family_map(seed, order, budget)
    want = sequential_eps_check(m, grid, n_eps)
    got = epsilon_starlike_check(m, grid, n_eps)
    h, g = m.h_series(), m.g_series()

    def value_at(eps, z):
        den = h(z) + eps * g(z)
        return (z * (h.differentiate()(z) + eps * g.differentiate()(z)) / den).real

    assert_same_family_result(got, want, value_at)


@settings(max_examples=50, deadline=None)
@given(FAMILY_GRIDS, st.integers(1, 24), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(0.05, 1.3), st.floats(-1.2, 1.2), st.sampled_from([1, -1]))
def test_transform_check_agrees_with_the_per_eps_loop(
    grid, n_eps, order, seed, budget, lam, orientation
):
    m = family_map(seed, order, budget)
    H, G, p = m.h_series(), m.g_series(), SpiralParams(lam)
    want = sequential_transform_check(H, G, p, grid, n_eps, orientation)
    got = transform_family_check(H, G, p, grid, n_eps, orientation)
    mu = transform_exponent(p, orientation)

    def value_at(eps, z):
        s = (H + eps * G).divided_by_z()
        f = pow_series((1.0 / s[0]) * s, mu).times_z()
        return (np.exp(-1j * orientation * lam) * z * f.differentiate()(z) / f(z)).real

    assert_same_family_result(got, want, value_at)


def raised(run):
    with pytest.raises((NearZeroError, ConstraintError)) as info:
        run()
    return type(info.value), str(info.value)


def degenerate_pair(c2: complex):
    """H = z, G = i z + c2 z^2: at eps = i (the second of four samples) the
    linear coefficient 1 + eps i vanishes; F_eps = z (1 + eps c2 z / w0)."""
    return PowerSeries.identity(2), PowerSeries([0.0, 1j, c2])


#: radii 0.5 .. 0.9 on 10 angles: the zero at 0.72 of the first pair lies
#: between rings at angle 0, the zero of its other members off the grid.
PARITY_GRID = GridSpec(r_min=0.5, r_max=0.9, n_radii=5, n_angles=10, margin_eps=0.05)


@pytest.mark.parametrize(
    "c2, error",
    [
        # eps = 1: F_1 = z (1 - z / 0.72) dips below the margin at z = 0.7,
        # before the degenerate eps = i is reached.
        (-(1 + 1j) / 0.72, NearZeroError),
        # eps = -1 would dip below the margin, but eps = i comes first.
        ((1 - 1j) / 0.72, ConstraintError),
    ],
)
def test_family_errors_match_the_per_eps_loop(c2, error):
    H, G = degenerate_pair(c2)
    p = SpiralParams(0.0)
    want = raised(lambda: sequential_transform_check(H, G, p, PARITY_GRID, 4))
    assert want[0] is error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert raised(lambda: transform_family_check(H, G, p, PARITY_GRID, n_eps=4)) == want


def test_eps_near_zero_error_matches_the_per_eps_loop():
    # h + eps g = z (1 + 0.3 eps + eps b2 z) dips below the margin at z = 0.7
    # for eps = -1 (zero at 0.72), after two members that stay clear.
    m = HarmonicMapSpec(a=[], b=[0.3, 0.7 / 0.72], truncation_order=2)
    want = raised(lambda: sequential_eps_check(m, PARITY_GRID, 4))
    assert want[0] is NearZeroError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert raised(lambda: epsilon_starlike_check(m, PARITY_GRID, n_eps=4)) == want


def test_families_at_margin_zero_raise_for_an_exact_zero():
    # h = z - 16 z^5 vanishes at the grid point z = 1/2.  At margin_eps = 0 a
    # zero |den| is not above the margin, so both checks name it, and neither
    # divides by it.
    m = HarmonicMapSpec(a=[0, 0, 0, -16], b=[], truncation_order=5)
    grid = GridSpec(r_min=0.125, r_max=0.5, n_radii=4, n_angles=8, margin_eps=0.0)
    H, G, p = m.h_series(), m.g_series(), SpiralParams(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (
            lambda: epsilon_starlike_check(m, grid, 64),
            lambda: transform_family_check(H, G, p, grid, 64),
        ):
            with pytest.raises(NearZeroError, match=r"= 0\.000e\+00 below margin at "
                               r"eps = \(1\+0j\), z = \(0\.5\+0j\)"):
                check()


def test_family_nan_values_are_not_skipped_into_a_pass():
    # Re(num/den) is NaN everywhere: the first point and eps, and a failure.
    m = HarmonicMapSpec(a=[1e308], b=[0.5], truncation_order=2)
    with np.errstate(all="ignore"):
        res = epsilon_starlike_check(m, GridSpec(), 8)
    assert math.isnan(res.min_value) and not res.passed
    assert (res.witness, res.witness_eps) == (grid_points(GridSpec())[0], 1 + 0j)
    # A NaN |den| is no clearance: it is reported, not dropped.
    grid = GridSpec(n_radii=3, n_angles=8)
    eps = np.array([1, -1], dtype=np.complex128)
    den = np.ones((2, 3, 8), dtype=np.complex128)  # one block of 3 rings
    den[1, 0, 5] = np.nan
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)

    def values(k, r):
        v = den[k][:, np.searchsorted(radii, r)].reshape(k.size, -1)
        return v, v

    def no_bounds(k, r):
        return np.full((k.size, r.size), -np.inf), np.full((k.size, r.size), -np.inf)

    with pytest.raises(NearZeroError, match=r"\|den\| = nan .* eps = \(-1"):
        family_scan(values, no_bounds, grid, eps, "den")


def test_exact_family_ties_keep_the_first_eps():
    # With g = 0 (G = 0) every member is the same map, so all eps tie exactly:
    # the result is that of eps = 1 alone, across blocks and a partial chunk.
    grid = dense_grid(2048, extra_radii=2)
    m = family_map(3, 12, 0.5)
    h = HarmonicMapSpec(a=m.a, b=[], truncation_order=m.truncation_order)
    H, G, p = h.h_series(), PowerSeries.zero(12), SpiralParams(0.4)
    for check in (
        lambda n_eps: epsilon_starlike_check(h, grid, n_eps),
        lambda n_eps: transform_family_check(H, G, p, grid, n_eps),
    ):
        res, alone = check(13), check(1)
        assert res.witness_eps == 1 + 0j
        assert (res.min_value, res.witness) == (alone.min_value, alone.witness)


def test_exact_family_ties_across_blocks_keep_the_first_point():
    # h = 1, g = 0, h' = 0: Re(z h'/h) = 0 exactly everywhere, one ring per block.
    flat = lambda value: (lambda z: np.full(z.shape, value, dtype=np.complex128))
    cf = ClosedForm(name="flat", h=flat(1.0), g=flat(0.0), dh=flat(0.0), dg=flat(0.0))
    m = HarmonicMapSpec(a=[], b=[], truncation_order=1, closed_form=cf)
    grid = GridSpec(n_radii=3, n_angles=2048)
    res = epsilon_starlike_check(m, grid, n_eps=13)
    assert res.min_value == 0.0 and res.passed
    assert res.witness == complex(grid.r_min) and res.witness_eps == 1 + 0j


@pytest.mark.parametrize("cut", [0, 2, 3])
def test_family_ties_merge_the_first_ring_at_its_place(cut):
    # Every member reads Re(num/den) = 1 on the rings before ``cut`` and 0
    # from it on.  The bounds are lowest on the inner ring 2, which the scan
    # evaluates first; merged at its place, the witness is the first point of
    # ring ``cut`` and the first eps, as a radius-major scan gives.
    grid = GridSpec(r_min=0.1, r_max=0.9, n_radii=5, n_angles=8)
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    eps, evaluated = unimodular_samples(3), []

    def values(k, r):
        i = np.searchsorted(radii, r)
        evaluated.append(i.tolist())
        num = np.repeat(np.where(i < cut, 1.0, 0.0), grid.n_angles).astype(np.complex128)
        return np.ones((k.size, num.size), dtype=np.complex128), np.tile(num, (k.size, 1))

    def bounds(k, r):
        low = np.full((k.size, r.size), 0.5)
        return low, np.broadcast_to(np.where(np.searchsorted(radii, r) == 2, -1.0, 0.0), low.shape)

    res = family_scan(values, bounds, grid, eps, "den")
    assert evaluated[0] == [2]
    assert (res.min_value, res.witness, res.witness_eps) == (0.0, complex(radii[cut]), eps[0])


@pytest.mark.parametrize("n_angles", [8, BLOCK_POINTS])  # every eps in one chunk, one per chunk
@pytest.mark.parametrize("near_zero", [False, True])
@pytest.mark.parametrize("first_ring", [None, 1, 3])
def test_family_ties_across_rings_take_the_least_eps_first(first_ring, near_zero, n_angles):
    # Re(num/den): the least value 0 ties on ring 1, where only eps 2 reaches
    # it, and on the later ring 3, where eps 0 does.  |den|: it is below the
    # margin on ring 1 first at eps 2 (0) and on ring 3 first at eps 0
    # (1e-12), then at eps 1 (0).  The eps-major full scan meets eps 0 first
    # either way, so the witness is ring 3's point with eps 0, whichever ring
    # the walk evaluates first (the lowest bound).
    grid = GridSpec(r_min=0.1, r_max=0.9, n_radii=5, n_angles=n_angles)
    radii, angles = harmonic.grid_axes(grid)
    eps = unimodular_samples(3)
    low = np.ones((3, 5, n_angles), dtype=np.complex128)
    low[2, 1, 2] = low[0, 3, 5] = 0
    if near_zero:
        low[0, 3, 5], low[1, 3, 6] = 1e-12, 0

    def values(k, r):
        v = low[k][:, np.searchsorted(radii, r)].reshape(k.size, -1)
        one = np.ones(v.shape, dtype=np.complex128)
        return (v.copy(), one) if near_zero else (one, v.copy())

    def bounds(k, r):
        den = np.full((k.size, r.size), -np.inf if near_zero else 0.5)
        if first_ring is None:
            return den, np.full(den.shape, -np.inf)
        lowest = np.where(np.searchsorted(radii, r) == first_ring, -1.0, 0.0)
        return den, np.broadcast_to(lowest, den.shape)

    z = radii[3] * angles[5]
    if near_zero:
        with pytest.raises(NearZeroError) as err:
            family_scan(values, bounds, grid, eps, "den")
        want = f"|den| = 1.000e-12 below margin at eps = {complex(eps[0])}, z = {complex(z)}"
        assert str(err.value) == want
    else:
        res = family_scan(values, bounds, grid, eps, "den")
        assert (res.min_value, res.witness, res.witness_eps) == (0.0, z, eps[0])


def test_family_peak_memory_is_flat_in_eps_and_radii():
    p = SpiralParams(math.pi / 4)
    m = random_sufficient_map(np.random.default_rng(7), p, order=64, n_terms=32)
    H, G = m.h_series(), m.g_series()
    small, large = GridSpec(n_radii=10, n_angles=2048), GridSpec(n_radii=40, n_angles=2048)
    for check in (
        lambda grid, n_eps: epsilon_starlike_check(m, grid, n_eps),
        lambda grid, n_eps: transform_family_check(H, G, p, grid, n_eps),
    ):
        check(small, 8)  # warm caches outside the measurement
        growth = traced_peak(lambda: check(large, 64)) - traced_peak(lambda: check(small, 8))
        assert growth < 16 * BLOCK_POINTS, growth


# ------------------------------------------------- the pruned eps-family scan
#
# epsilon_starlike_check runs on family_scan: a ring is evaluated for every
# eps where the bounds of h + eps g from ring_bounds, or where they give none
# the ring's Mobius floor, do not clear the running minimum.  The reference
# below evaluates every (eps, point) pair with the scan's own arithmetic, so
# the two must agree bit for bit.


def every_pair_eps_check(m: HarmonicMapSpec, grid: GridSpec, n_eps: int) -> EpsilonScanResult:
    """epsilon_starlike_check from the values of every member at every point:
    ring_values rows or a closed form, then (zdh + eps zdg)/(h + eps g)."""
    eps = unimodular_samples(n_eps)[:, None]
    pts = grid_points(grid)
    if m.closed_form is None:
        h, g = m.h_coefficients(), m.g_coefficients()
        n = np.arange(h.size)
        radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
        hv, gv, zdh, zdg = ring_values(np.stack([h, g, n * h, n * g]), radii, grid.n_angles)
    else:  # ring by ring, as the scan's blocks give the same bits
        cf = m.closed_form
        rings = pts.reshape(grid.n_radii, grid.n_angles)
        hv, gv, zdh, zdg = (
            np.concatenate([f(z) for z in rings])
            for f in (cf.h, cf.g, lambda z: z * cf.dh(z), lambda z: z * cf.dg(z))
        )
    return every_pair_minimum(hv + eps * gv, zdh + eps * zdg, eps[:, 0], grid, "h + eps g")


def every_pair_minimum(den, num, eps, grid: GridSpec, what: str) -> EpsilonScanResult:
    """The family scan's error rule and minimum from the values (den, num) of
    every member (rows) at every grid point (columns, radius-major)."""
    pts = grid_points(grid)
    low = np.abs(den)
    for k, i in enumerate(np.argmin(low, axis=1)):
        if not low[k, i] > grid.margin_eps:
            raise NearZeroError(
                f"|{what}| = {low[k, i]:.3e} below margin at eps = {complex(eps[k])}, "
                f"z = {complex(pts[i])}"
            )
    q = np.real(num / den)
    at = np.argmin(q, axis=1)
    best = q[np.arange(eps.size), at]
    k = int(np.argmin(best))
    return EpsilonScanResult(
        float(best[k]), complex(pts[at[k]]), complex(eps[k]), bool(best[k] > -grid.margin_eps)
    )


def eps_outcome(check):
    """The result's repr (exact floats, and NaN equal to NaN), or the error."""
    try:
        with np.errstate(all="ignore"):
            return repr(check())
    except (NearZeroError, ConstraintError) as exc:
        return f"{type(exc).__name__}: {exc}"


def poked_closed_form(rng) -> HarmonicMapSpec:
    """h = z + u z^2, g = w z with NaN or inf written into one part near one point."""
    u = 0.3 * cmath.exp(2j * math.pi * rng.random())
    w = 0.4 * cmath.exp(2j * math.pi * rng.random())
    parts = [lambda z: z + u * z * z, lambda z: w * z,
             lambda z: 1 + 2 * u * z, lambda z: np.full(z.shape, w, dtype=np.complex128)]
    k, bad = int(rng.integers(4)), complex(rng.choice([np.nan, np.inf, complex(np.inf, np.nan)]))
    centre = rng.uniform(0.2, 0.9) * cmath.exp(2j * math.pi * rng.random())
    clean = parts[k]

    def poked(z):
        out = np.array(clean(z), dtype=np.complex128)
        out[np.abs(z - centre) < 0.15] = bad
        return out

    parts[k] = poked
    return HarmonicMapSpec(a=[u], b=[w], truncation_order=2,
                           closed_form=ClosedForm("poked", *parts))


def pruning_input(kind: str, rng, order: int, n_eps: int) -> HarmonicMapSpec:
    if kind == "random":
        return family_map(int(rng.integers(2**32)), order, rng.uniform(0.05, 2.0))
    if kind in ("ring", "near_ring"):
        # g = c h: |h| = |g| on every ring when |c| = 1, nearly so otherwise;
        # c = -1/eps_k makes member k vanish identically.
        c = cmath.exp(2j * math.pi * rng.random())
        if kind == "near_ring":
            c *= 1 + float(rng.choice([1e-15, -1e-12, 1e-9, 1e-3]))
        elif rng.random() < 0.5:
            c = -complex(np.conj(unimodular_samples(n_eps)[rng.integers(n_eps)]))
        a = family_map(int(rng.integers(2**32)), order, rng.uniform(0.05, 1.0)).a
        return HarmonicMapSpec(a=a, b=c * np.concatenate([[1.0], a]), truncation_order=order)
    if kind == "between":
        # h + eps g = z (1 + eps b_1 + ...) with |b_1| near 1: its zeros move
        # with eps and lie between the sampled members and grid points.
        m = family_map(int(rng.integers(2**32)), order, rng.uniform(0.01, 0.3))
        b = m.b.copy()
        b[0] = rng.uniform(0.8, 1.2) * cmath.exp(2j * math.pi * rng.random())
        return HarmonicMapSpec(a=m.a, b=b, truncation_order=order)
    if kind == "overflow":
        m = family_map(int(rng.integers(2**32)), max(order, 2), 0.5)
        a = m.a.copy()
        a[rng.integers(a.size)] = float(rng.choice([1e308, 1e200, 1e154]))
        return HarmonicMapSpec(a=a, b=m.b, truncation_order=m.truncation_order)
    if kind == "constant":
        # h + eps g = (1 + eps c) z: the quotient is 1 at every point for every eps.
        c = 0.5 * cmath.exp(2j * math.pi * rng.random()) if rng.random() < 0.5 else 0.0
        return HarmonicMapSpec(a=[], b=[c], truncation_order=order)
    if kind == "truncated":
        # Catalog coefficients without their closed form: the coefficient
        # bounds are -inf on the outer rings, so the rings' Mobius floors and
        # the lowest-bound first ring do the pruning.
        name = str(rng.choice(["koebe", "harmonic_koebe", "half_plane", "f4"]))
        c = catalog(name, order=int(rng.integers(8, 65)))
        return HarmonicMapSpec(a=c.a, b=c.b, truncation_order=c.truncation_order)
    if kind == "catalog":
        name = str(rng.choice(["koebe", "harmonic_koebe", "half_plane", "f4", "f1", "f3", "f7"]))
        return catalog(name, p=SpiralParams(rng.uniform(-1.2, 1.2)), alpha=0.5)
    return poked_closed_form(rng)


PRUNING_KINDS = st.sampled_from(
    ["random", "ring", "near_ring", "between", "overflow", "constant", "catalog", "truncated",
     "poked"]
)


@settings(max_examples=80, deadline=None)
@given(PRUNING_KINDS, st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 24),
       st.sampled_from([8, 24, 64, 256, 2048]), st.integers(1, 6), st.booleans(),
       st.sampled_from([1e-9, 0.0, 1e-3, 0.05]))
def test_pruned_eps_scan_is_the_full_sampled_scan(
    kind, seed, order, n_eps, n_angles, n_radii, dense, margin
):
    rng = np.random.default_rng(seed)
    m = pruning_input(kind, rng, order, n_eps)
    r_min = float(rng.uniform(1e-3, 0.6))
    if dense:  # several blocks, so that the candidates split between them
        n_radii += BLOCK_POINTS // n_angles
    grid = GridSpec(r_min=r_min, r_max=float(rng.uniform(r_min + 0.01, 0.995)),
                    n_radii=n_radii, n_angles=n_angles, margin_eps=margin)
    want = eps_outcome(lambda: every_pair_eps_check(m, grid, n_eps))
    assert eps_outcome(lambda: epsilon_starlike_check(m, grid, n_eps)) == want


# ------------------------------------------- the pruned transform-family scan
#
# transform_family_check evaluates a member on a ring only where its bounds on
# |F_eps| and Re(e^{-i lam} z F_eps'/F_eps) leave the ring in play.  The
# reference below evaluates every member on every ring with one ring_values
# call and the scan's arithmetic, so the two must agree bit for bit.


def every_pair_transform_check(H, G, p, grid: GridSpec, n_eps: int, orientation: int):
    """transform_family_check from the values of every member at every point."""
    eps = unimodular_samples(n_eps)
    n = min(H.order, G.order)
    s = H.coeffs[1 : n + 1] + eps[:, None] * G.coeffs[1 : n + 1]
    w0 = s[:, 0]
    degenerate = np.flatnonzero(np.abs(w0) < 1e-9)
    formed = int(degenerate[0]) if degenerate.size else n_eps
    result = None
    if formed:
        rows = np.zeros((formed, 2, n + 1), dtype=np.complex128)
        mu = transform_exponent(p, orientation)
        rows[:, 0, 1:] = pow_rows(s[:formed] * (1.0 / w0[:formed, None]), mu)
        rows[:, 1] = rows[:, 0] * (np.exp(-1j * orientation * p.lam) * np.arange(n + 1))
        radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
        values = ring_values(rows.reshape(-1, n + 1), radii, grid.n_angles).reshape(formed, 2, -1)
        result = every_pair_minimum(values[:, 0], values[:, 1], eps[:formed], grid, "F_eps")
    if formed < n_eps:
        raise ConstraintError(
            f"H + eps G degenerates at eps = {complex(eps[formed])}: "
            f"linear coefficient {complex(w0[formed]):.3e}"
        )
    return result


def transform_pruning_input(kind: str, rng, order: int):
    """(H, G): H normalised, G(0) = 0."""
    if kind == "random":
        m = family_map(int(rng.integers(2**32)), order, rng.uniform(0.05, 2.0))
        return m.h_series(), m.g_series()
    if kind == "steep":
        # H = z + c z^k with |c| up to 2: sum |p_j| r^j passes 1 on the outer
        # rings, which then have no bound, and on those the members are
        # truncations of a series past its radius of convergence.
        order = max(order, 2)
        h = np.zeros(order + 1, dtype=np.complex128)
        c = rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random())
        h[1], h[rng.integers(2, order + 1)] = 1, c
        n = np.arange(1, order + 1)
        g = np.zeros(order + 1, dtype=np.complex128)
        g[1:] = 0.1 * (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**2
        return PowerSeries(h), PowerSeries(g)
    if kind == "parity":
        c2 = complex(rng.choice([-(1 + 1j), 1 - 1j])) / 0.72
        return degenerate_pair(c2 * float(rng.choice([1.0, 1 + 1e-12, 0.5])))
    if kind == "flat":  # G = 0: every member is the same map, all eps tie
        m = family_map(int(rng.integers(2**32)), order, rng.uniform(0.05, 1.5))
        return m.h_series(), PowerSeries.zero(order)
    if kind == "constant":  # F_eps = z: the quotient ties at every point
        z = PowerSeries.identity(order)
        return z, z * complex(0.5 * rng.random())
    # "overflow": one coefficient near the top of the float range.
    m = family_map(int(rng.integers(2**32)), max(order, 2), 0.5)
    a = m.a.copy()
    a[rng.integers(a.size)] = float(rng.choice([1e308, 1e200, 1e154]))
    return HarmonicMapSpec(a=a, b=m.b, truncation_order=m.truncation_order).h_series(), m.g_series()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["random", "steep", "parity", "flat", "constant", "overflow"]),
       st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 24),
       st.sampled_from([8, 24, 64, 256, 2048]), st.integers(1, 6), st.booleans(),
       st.sampled_from([1e-9, 0.0, 1e-3, 0.05]), st.floats(-1.2, 1.2), st.sampled_from([1, -1]))
def test_pruned_transform_scan_is_the_full_sampled_scan(
    kind, seed, order, n_eps, n_angles, n_radii, dense, margin, lam, orientation
):
    rng = np.random.default_rng(seed)
    H, G = transform_pruning_input(kind, rng, order)
    if kind == "parity" and not dense:
        grid, n_eps = dataclasses.replace(PARITY_GRID, margin_eps=margin), 4
    else:
        r_min = float(rng.uniform(1e-3, 0.6))
        if dense:  # several blocks, so that the candidates split between them
            n_radii += BLOCK_POINTS // n_angles
        grid = GridSpec(r_min=r_min, r_max=float(rng.uniform(r_min + 0.01, 0.995)),
                        n_radii=n_radii, n_angles=n_angles, margin_eps=margin)
    p = SpiralParams(lam)
    want = eps_outcome(lambda: every_pair_transform_check(H, G, p, grid, n_eps, orientation))
    assert eps_outcome(lambda: transform_family_check(H, G, p, grid, n_eps, orientation)) == want


# ------------------------------------------------ results free of the block size
#
# Every scan walks the grid in blocks of about BLOCK_POINTS values.  The block
# size decides the pruning and the memory, never the results: blocks of one
# ring and blocks of 16,384 points give the same bits and the same error text.


def block_outcomes(seed: int, order: int, grid: GridSpec, n_eps: int, lam: float) -> list:
    """The result reprs or error texts of GridField on a series-backed map and
    on every closed form of the catalog, of both family checks and of the
    transform identity defect, on inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    p = SpiralParams(lam)
    kinds = ["sufficient", "signed", "budget", "steep", "constant", "overflow", "zero"]
    maps = [walk_input(str(rng.choice(kinds)), rng, order, lam)]
    closed = ("f4", "koebe", "harmonic_koebe", "half_plane")
    maps += [catalog(name, p=p, alpha=0.5) for name in closed]
    e = pruning_input(str(rng.choice(PRUNING_KINDS.elements)), rng, order, n_eps)
    kinds = ["random", "steep", "parity", "flat", "constant", "overflow"]
    H, G = transform_pruning_input(str(rng.choice(kinds)), rng, order)
    g = family_map(int(rng.integers(2**32)), order, rng.uniform(0.05, 1.3)).h_series()

    def scans(f: GridField):
        return f.nonvanishing, f.pointwise, f.sense_preserving, f.margin

    return [eps_outcome(lambda: scans(GridField(m, grid, p.phase))) for m in maps] + [
        eps_outcome(lambda: epsilon_starlike_check(e, grid, n_eps)),
        eps_outcome(lambda: transform_family_check(H, G, p, grid, n_eps)),
        eps_outcome(lambda: transform_identity_defect(g, p, grid)),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 24),
       st.sampled_from([8, 24, 64, 256, 2048]), st.integers(1, 6), st.booleans(),
       st.floats(-1.2, 1.2), st.data())
def test_scans_do_not_depend_on_the_block_size(
    seed, order, n_eps, n_angles, n_radii, dense, lam, data
):
    if dense:  # several blocks at the default size
        n_radii += BLOCK_POINTS // n_angles
    r_min = data.draw(st.floats(1e-3, 0.6), label="r_min")
    r_max = data.draw(st.floats(r_min + 0.01, 0.995), label="r_max")
    grid = GridSpec(r_min=r_min, r_max=r_max, n_radii=n_radii, n_angles=n_angles)
    block = data.draw(st.integers(n_angles, BLOCK_POINTS), label="block")  # one ring and up
    want = block_outcomes(seed, order, grid, n_eps, lam)
    saved = harmonic.BLOCK_POINTS, criteria.BLOCK_POINTS
    harmonic.BLOCK_POINTS = criteria.BLOCK_POINTS = block
    try:
        got = block_outcomes(seed, order, grid, n_eps, lam)
    finally:
        harmonic.BLOCK_POINTS, criteria.BLOCK_POINTS = saved
    assert got == want


@pytest.mark.parametrize("n_radii, n_angles", [(40, 256), (100, 256), (9, 2048), (2, 4 * BLOCK_POINTS)])
def test_closed_forms_are_evaluated_below_numpy_in_place_size(monkeypatch, n_radii, n_angles):
    # numpy computes on a temporary of BLOCK_POINTS complex values or more in
    # place, with the operands of a complex product swapped: every closed-form
    # evaluation of a scan holds fewer points than that, or one ring.
    sizes, h_values = [], harmonic.h_values

    def spy(m, z):
        sizes.append(np.size(z))
        return h_values(m, z)

    monkeypatch.setattr(harmonic, "h_values", spy)
    monkeypatch.setattr(criteria, "h_values", spy)
    grid = GridSpec(n_radii=n_radii, n_angles=n_angles)
    for name in ("koebe", "harmonic_koebe"):
        m = catalog(name)
        sizes.clear()
        GridField(m, grid)
        assert sum(sizes) == grid.n_radii * n_angles  # every ring, once
        if grid == GridSpec():  # the default grid in one block
            assert sizes == [grid.n_radii * n_angles]
        eps_outcome(lambda: epsilon_starlike_check(m, grid, n_eps=8))
        assert all(n < BLOCK_POINTS or n == n_angles for n in sizes), sizes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sufficient", "signed", "scaled"]), st.integers(0, 2**32 - 1),
       st.integers(1, 200), st.sampled_from([8, 24, 64, 256]), st.integers(1, 255),
       st.floats(-1.2, 1.2))
def test_rotating_a_map_by_grid_steps_keeps_every_minimum(kind, seed, order, n_angles, k, lam):
    # e^{-i theta} f(e^{i theta} z) has a_n e^{i(n-1) theta} and b_n e^{i(n+1) theta}:
    # it takes f's values on the grid rotated by k steps, so each minimum is
    # the same up to rounding.  Witnesses are not compared: they move at near-ties.
    rng, p = np.random.default_rng(seed), SpiralParams(lam)
    m = (random_signed_map if kind == "signed" else random_sufficient_map)(rng, p, order=order)
    scale = rng.uniform(1.0, 3.0) if kind == "scaled" else 1.0  # past the sufficient budget
    theta = 2 * math.pi * (k % n_angles) / n_angles
    n = np.arange(order + 1)
    rotated = HarmonicMapSpec(a=scale * m.a * np.exp(1j * (n[2:] - 1) * theta),
                              b=scale * m.b * np.exp(1j * (n[1:] + 1) * theta), truncation_order=order)
    m = HarmonicMapSpec(a=scale * m.a, b=scale * m.b, truncation_order=order)
    grid = GridSpec(n_radii=8, n_angles=n_angles)
    size = ((1 + n) * (np.abs(m.h_coefficients()) + np.abs(m.g_coefficients())) * grid.r_max**n).sum()
    one, two = GridField(m, grid, p.phase), GridField(rotated, grid, p.phase)
    for key in ("sense_preserving", "nonvanishing", "pointwise", "margin"):
        a, b = getattr(one, key), getattr(two, key)
        assert (a is None) == (b is None), key
        if a is not None:
            assert abs(a.min_value - b.min_value) <= 1e-13 * size, (key, a.min_value, b.min_value)
