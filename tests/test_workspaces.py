"""Pooled ring workspaces: reuse, isolation across nesting and threads, and
the transient memory of the family and transform checks."""

import contextlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralmaps import harmonic
from spiralmaps.construct import (
    catalog,
    random_signed_map,
    spirallike_power_transform,
    transform_family_check,
    transform_identity_defect,
)
from spiralmaps.criteria import SpiralParams, epsilon_starlike_check
from spiralmaps.harmonic import GridSpec, grid_axes, ring_values, workspace
from spiralmaps.series import PowerSeries, log_derivative_ratio

from conftest import tail_bounded_coeffs
from test_grid_field import traced_peak

PT = SpiralParams(-math.pi / 4)


def pooled(arr) -> bool:
    """Whether ``arr`` shares memory with a buffer this thread's pool keeps."""
    return any(b is not None and np.shares_memory(arr, b) for b in harmonic._pool.buffers)


# ------------------------------------------------------------------ the pool


def test_nested_workspaces_are_distinct_and_reused():
    with workspace(100) as a:
        with workspace(100) as b:
            with workspace(7) as c:
                assert not np.shares_memory(a, b)
                assert not np.shares_memory(c, a) and not np.shares_memory(c, b)
                assert (a.size, b.size, c.size) == (100, 100, 7)
    with workspace(50) as again:  # the outer level's buffer, kept
        assert np.shares_memory(again, a)


def in_new_thread(run):
    """run() in a thread of its own, so on an empty pool; re-raises its error."""
    errors = []

    def target():
        try:
            run()
        except BaseException as exc:  # pragma: no cover - re-raised below
            errors.append(exc)

    t = threading.Thread(target=target)
    t.start()
    t.join()
    if errors:
        raise errors[0]


def test_a_workspace_grows_and_drops_what_it_cannot_keep():
    def run():
        with workspace(10) as small:
            pass
        with workspace(1000) as grown:
            assert grown.size == 1000 and not np.shares_memory(grown, small)
        with workspace(10) as reused:
            assert np.shares_memory(reused, grown)
        with workspace(harmonic._POOL_POINTS + 1) as huge:
            assert not pooled(huge)
        with workspace(10) as kept:
            assert np.shares_memory(kept, grown)
        levels = harmonic._POOL_LEVELS
        with contextlib.ExitStack() as stack:
            deep = [stack.enter_context(workspace(10)) for _ in range(levels + 1)]
            assert not pooled(deep[-1])
        assert sum(b is not None for b in harmonic._pool.buffers) == levels

    in_new_thread(run)


def test_the_pool_unwinds_on_an_error():
    with pytest.raises(ZeroDivisionError):
        with workspace(8):
            with workspace(8):
                1 / 0
    assert harmonic._pool.depth == 0


def test_each_thread_has_its_own_pool():
    with workspace(64) as mine:
        pass
    seen = []

    def other():
        with workspace(64) as theirs:
            seen.append((np.shares_memory(theirs, mine), harmonic._pool.depth))

    in_new_thread(other)
    assert seen == [(False, 1)]
    with workspace(64) as still:
        assert np.shares_memory(still, mine)


# ------------------------------------------------------ ring values into a buffer


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 600), st.integers(0, 2**32 - 1),
       st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=6),
       st.sampled_from([8, 24, 64, 256, 2048]))
def test_ring_values_into_a_reused_buffer_equal_a_fresh_call(rows, order, seed, radii, n_angles):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, order)) + 1j * rng.standard_normal((rows, order))
    radii = np.sort(np.asarray(radii))
    want = ring_values(c, radii, n_angles)
    buf = np.full(rows * radii.size * n_angles + 5, np.nan, dtype=np.complex128)
    for _ in range(2):  # a fresh NaN buffer, then one holding the last values
        got = ring_values(c, radii, n_angles, out=buf[: want.size])
        assert np.shares_memory(got, buf)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(buf[want.size :]).all()


# ------------------------------------------------------------ the public results


def family_inputs(seed: int, order: int):
    rng = np.random.default_rng(seed)
    p = SpiralParams(float(rng.uniform(-1.2, 1.2)))
    F = random_signed_map(rng, p, order=order, n_terms=order // 2)
    return F, p


def outcome(res) -> tuple:
    return (np.float64(res.min_value).tobytes(), np.complex128(res.witness).tobytes(),
            np.complex128(res.witness_eps).tobytes(), res.passed)


def test_results_do_not_alias_the_pool():
    F, p = family_inputs(1, 16)
    grid = GridSpec()
    fam = transform_family_check(F.h_series(), F.g_series(), p, grid)
    eps = epsilon_starlike_check(F, grid)
    first = outcome(fam), outcome(eps)
    values = ring_values(F.h_coefficients()[None], grid_axes(grid)[0], grid.n_angles)
    assert not pooled(values)
    kept = values.copy()
    other, q = family_inputs(2, 64)  # writes over every pooled buffer
    transform_family_check(other.h_series(), other.g_series(), q, grid)
    epsilon_starlike_check(other, grid)
    transform_identity_defect(catalog("koebe", order=64).h_series(), PT, grid)
    assert (outcome(fam), outcome(eps)) == first
    assert values.tobytes() == kept.tobytes()


def test_concurrent_family_checks_equal_serial_ones():
    grid = GridSpec()
    inputs = [family_inputs(seed, order) for seed, order in ((3, 16), (4, 64))]
    jobs = [lambda F=F, p=p: transform_family_check(F.h_series(), F.g_series(), p, grid)
            for F, p in inputs]
    jobs += [lambda F=F: epsilon_starlike_check(F, grid) for F, _ in inputs]
    want = [outcome(job()) for job in jobs]
    rounds, start = 8, threading.Barrier(2)
    got, errors = {0: [], 1: []}, []

    def worker(t):
        try:
            for _ in range(rounds):
                start.wait()
                # the two threads take the jobs in opposite orders
                order = jobs if t == 0 else jobs[::-1]
                got[t].append([outcome(job()) for job in order])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
            start.abort()

    threads = [threading.Thread(target=worker, args=(t,)) for t in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the scans
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert got[0] == [want] * rounds
    assert got[1] == [want[::-1]] * rounds


def test_concurrent_ring_bounds_equal_serial_ones():
    # The kept power table is one entry for the whole process: threads asking
    # for other radii and widths replace it under each other, and each call
    # must still use the table of its own radii.  The widest job's table is
    # above the pool's size, so it runs in two blocks of rings.
    rng = np.random.default_rng(11)
    jobs = []
    for n_radii, width in ((40, 17), (40, 65), (7, 65), (200, 256), (40, 3), (40, 4096)):
        radii = np.linspace(1e-3, 0.99, n_radii)
        mag = rng.random((4, width)) / width
        jobs.append(lambda r=radii, mag=mag: harmonic.ring_bounds(mag, r, np.exp(0.3j), mag, count=4))
    want = [job() for job in jobs]
    rounds, n_threads = 20, 4
    start, errors = threading.Barrier(n_threads), []
    got = {t: [] for t in range(n_threads)}

    def worker(t):
        try:
            for k in range(rounds):
                start.wait(timeout=60)
                order = np.random.default_rng([t, k]).permutation(len(jobs))
                got[t].append({int(i): jobs[i]() for i in order})
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
            start.abort()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for t in range(n_threads):
        assert len(got[t]) == rounds
        for done in got[t]:
            for i, bounds in done.items():
                assert np.array_equal(bounds, want[i], equal_nan=True), (t, i)


# ------------------------------------------------------ the one-series defect


def two_row_defect(g: PowerSeries, p: SpiralParams, grid: GridSpec) -> tuple[float, float]:
    """The defect from the two ratios evaluated apart, and their size."""
    h = spirallike_power_transform(g, p, probe=False)
    rows = np.stack([log_derivative_ratio(h).coeffs, log_derivative_ratio(g).coeffs])
    qh, qg = ring_values(rows, grid_axes(grid)[0], grid.n_angles)
    lhs = np.real(np.exp(-1j * p.lam) * qh) - math.cos(p.lam) * np.real(qg)
    return float(np.abs(lhs).max()), float(np.abs(qh).max() + np.abs(qg).max())


@pytest.mark.parametrize("order", [64, 256, 512])
def test_one_series_defect_matches_the_two_row_form_on_koebe(order):
    g = catalog("koebe", order=order).h_series()
    want, size = two_row_defect(g, PT, GridSpec())
    assert abs(transform_identity_defect(g, PT) - want) <= 1e-14 * size


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 16, 64, 256, 512]), st.floats(-1.4, 1.4))
def test_one_series_defect_matches_the_two_row_form_on_starlike_series(seed, order, lam):
    c = tail_bounded_coeffs(np.random.default_rng(seed), order, 1.0, 0.9)
    g, p = PowerSeries(np.concatenate([[0.0], c])), SpiralParams(lam)
    want, size = two_row_defect(g, p, GridSpec())
    assert abs(transform_identity_defect(g, p) - want) <= 1e-14 * size


def test_orientation_probe_keeps_the_scans_grid_axes():
    grid = GridSpec()
    axes = grid_axes(grid)
    spirallike_power_transform(catalog("koebe", order=64).h_series(), PT)
    assert grid_axes(grid) is axes


# ------------------------------------------------------------ transient memory


def second_call_peak(run) -> int:
    """The traced peak of a call after a first call has filled the pool."""
    run()
    return traced_peak(run)


def test_family_and_transform_checks_take_their_workspaces_from_the_pool():
    # Measured with numpy 2.4 (KiB, before the pool -> with it): family check
    # 1359 -> 596, eps check 909 -> 398, defect 1075 -> 593.  What is left is
    # mostly one FFT output of a block (256 KiB), the ring bounds and the
    # series recurrences.
    F = random_signed_map(np.random.default_rng(3), PT, order=64, n_terms=32)
    koebe = catalog("koebe", order=512).h_series()
    grid, kib = GridSpec(), 1024
    family = second_call_peak(lambda: transform_family_check(F.h_series(), F.g_series(), PT, grid))
    eps = second_call_peak(lambda: epsilon_starlike_check(F, grid))
    defect = second_call_peak(lambda: transform_identity_defect(koebe, PT, grid))
    assert family < 800 * kib, family / kib
    assert eps < 600 * kib, eps / kib
    assert defect < 800 * kib, defect / kib
