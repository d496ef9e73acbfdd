"""Harmonic map evaluation, the D operator, Jacobian, and grid scans."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralmaps.harmonic import (
    MAX_ANGLES,
    MAX_GRID_POINTS,
    DomainError,
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    eval_f,
    grid_axes,
    grid_points,
    identity_map,
    jacobian,
    nonvanishing_on_grid,
    pair_d_operator,
    part_values,
    sense_preserving_on_grid,
)
from spiralmaps.series import PowerSeries, horner


def affine(alpha, order=1):
    """f(z) = z + alpha * conj(z)."""
    return HarmonicMapSpec(a=[], b=[np.conj(alpha)], truncation_order=order)


class TestEval:
    def test_identity(self):
        z = 0.3 + 0.4j
        assert eval_f(identity_map(4), z) == z

    def test_affine_regression(self):
        # direct arithmetic: z + alpha conj(z) at alpha=-1/2, z=(1+i)/2
        z = (1 + 1j) / 2
        assert abs(eval_f(affine(-0.5), z) - (0.25 + 0.75j)) < 1e-15

    def test_conjugated_square_on_reals(self):
        # f = z + c conj(z^2) fixes the real axis contribution: r + c r^2
        c = 0.3
        m = HarmonicMapSpec(a=[], b=[0.0, c], truncation_order=2)
        for r in (0.1, 0.5, 0.9):
            assert abs(eval_f(m, r) - (r + c * r * r)) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_f(identity_map(2), 1.0)
        with pytest.raises(DomainError):
            d_operator(identity_map(2), 1.2j)
        with pytest.raises(DomainError):
            jacobian(identity_map(2), np.array([0.5, 1.0 + 0j]))


class TestDOperator:
    def test_identity(self):
        z = 0.2 - 0.7j
        assert abs(d_operator(identity_map(3), z) - z) < 1e-15

    def test_affine(self):
        alpha = -0.5
        z = 0.3 + 0.4j
        assert abs(d_operator(affine(alpha), z) - (z - alpha * np.conj(z))) < 1e-15

    def test_analytic_reduces_to_zhprime(self):
        # g == 0: Df = z h'(z), cross-checked through the series route
        m = HarmonicMapSpec(a=[0.25, -0.1j], b=[], truncation_order=3)
        h = m.h_series()
        dh = h.differentiate()
        for z in (0.5, 0.3 - 0.6j):
            assert abs(d_operator(m, z) - z * dh(z)) < 1e-12

    def test_real_linearity_of_pair_operator(self, rng):
        # D is linear on analytic pairs regardless of normalization.
        for _ in range(20):
            h1 = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            g1 = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            h2 = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            g2 = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            z = 0.8 * (rng.random() + 1j * rng.random())
            lhs = pair_d_operator(h1 + h2, g1 + g2, z)
            rhs = pair_d_operator(h1, g1, z) + pair_d_operator(h2, g2, z)
            assert abs(lhs - rhs) < 1e-12


class TestJacobian:
    def test_identity_is_one(self):
        assert jacobian(identity_map(2), 0.1 + 0.2j) == 1.0

    def test_affine_constant(self):
        m = affine(-0.5)
        vals = jacobian(m, grid_points(GridSpec(n_radii=3, n_angles=8)))
        assert np.allclose(vals, 0.75)

    def test_degenerate_boundary(self):
        # g' = unimodular multiple of h' makes J identically 0
        m = HarmonicMapSpec(a=[], b=[1.0], truncation_order=1)
        assert abs(jacobian(m, 0.4 + 0.1j)) < 1e-15

    def test_first_order_maps_are_z_independent(self, rng):
        b1 = 0.8 * (rng.random() + 1j * rng.random())
        m = HarmonicMapSpec(a=[], b=[b1], truncation_order=1)
        pts = grid_points(GridSpec(n_radii=4, n_angles=16))
        vals = jacobian(m, pts)
        assert np.ptp(vals) < 1e-15


class TestSignedForm:
    def test_accepts_signed_shape(self):
        m = HarmonicMapSpec(
            a=[-0.25], b=[0.1, 0.2], truncation_order=3, signed_form=True
        )
        assert m.signed_form

    def test_rejects_positive_analytic_tail(self):
        with pytest.raises(ValueError):
            HarmonicMapSpec(a=[0.25], b=[], truncation_order=2, signed_form=True)

    def test_rejects_complex_coanalytic(self):
        with pytest.raises(ValueError):
            HarmonicMapSpec(a=[], b=[0.1j], truncation_order=1, signed_form=True)

    def test_conjugation_symmetry(self, rng):
        m = HarmonicMapSpec(
            a=[-0.2, -0.05], b=[0.1, 0.15, 0.02], truncation_order=3,
            signed_form=True,
        )
        for _ in range(10):
            z = 0.9 * (rng.random() * 2 - 1 + 1j * (rng.random() * 2 - 1)) / 2
            assert abs(eval_f(m, np.conj(z)) - np.conj(eval_f(m, z))) < 1e-14


class TestGridScans:
    def test_identity_sense_preserving(self):
        res = sense_preserving_on_grid(identity_map(2), GridSpec())
        assert res.min_value == 1.0
        assert res.passed

    def test_affine_sense_preserving(self):
        res = sense_preserving_on_grid(affine(-0.5), GridSpec(n_radii=5, n_angles=16))
        assert abs(res.min_value - 0.75) < 1e-15
        assert res.passed

    def test_near_unimodular_coefficient_controlled_by_margin(self):
        # closed form: J = 1 - |b1|^2
        b1 = 1.0 - 1e-12
        m = HarmonicMapSpec(a=[], b=[b1], truncation_order=1)
        tight = sense_preserving_on_grid(m, GridSpec(margin_eps=1e-9))
        assert not tight.passed
        loose = sense_preserving_on_grid(m, GridSpec(margin_eps=1e-14))
        assert loose.passed

    def test_identity_nonvanishing_min_is_rmin(self):
        grid = GridSpec(r_min=0.05, n_radii=4, n_angles=8)
        res = nonvanishing_on_grid(identity_map(2), grid)
        assert abs(res.min_value - 0.05) < 1e-15
        assert res.passed

    def test_shrinking_coefficient_lower_bound(self):
        # |z - c conj(z)| >= (1-c)|z| with equality on the real axis
        c = np.tan(np.pi / 8)
        m = HarmonicMapSpec(a=[], b=[-c], truncation_order=1)
        grid = GridSpec(r_min=1e-3, n_radii=6, n_angles=16)
        res = nonvanishing_on_grid(m, grid)
        assert abs(res.min_value - (1 - c) * grid.r_min) < 1e-12

    def test_fold_map_vanishes(self):
        # z - conj(z) is zero on the whole real axis
        m = HarmonicMapSpec(a=[], b=[-1.0], truncation_order=1)
        res = nonvanishing_on_grid(m, GridSpec(n_radii=4, n_angles=8))
        assert res.min_value < 1e-15
        assert not res.passed

    def test_grid_shape_and_range(self):
        grid = GridSpec(r_min=0.1, r_max=0.9, n_radii=5, n_angles=8)
        pts = grid_points(grid)
        assert pts.size == 40
        r = np.abs(pts)
        assert r.min() >= 0.1 - 1e-15 and r.max() <= 0.9 + 1e-15


class TestGridSpecValidation:
    def test_bad_radii(self):
        with pytest.raises(ValueError):
            GridSpec(r_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(r_min=0.5, r_max=0.4)
        with pytest.raises(ValueError):
            GridSpec(r_max=1.0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            GridSpec(n_radii=0)
        with pytest.raises(ValueError):
            GridSpec(n_angles=4)

    def test_point_cap(self):
        GridSpec(n_radii=MAX_GRID_POINTS // 2048, n_angles=2048)
        GridSpec(n_radii=1, n_angles=MAX_ANGLES)
        for n_radii, n_angles in ((MAX_GRID_POINTS // 8 + 1, 8), (1, MAX_GRID_POINTS + 1),
                                  (1_000_000_000, 8), (1, 100_000_000),
                                  (1, MAX_ANGLES + 1), (1, 2**24)):
            with pytest.raises(ValueError):
                GridSpec(n_radii=n_radii, n_angles=n_angles)

    def test_counts_must_be_integers(self):
        GridSpec(n_radii=np.int64(6), n_angles=np.int32(16))
        for n_radii, n_angles in ((6.0, 16), (6, 16.0), (6, "16")):
            with pytest.raises(ValueError, match="integers"):
                GridSpec(n_radii=n_radii, n_angles=n_angles)

    def test_bad_margin(self):
        for eps in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GridSpec(margin_eps=eps)

    def test_truncation_order_too_small(self):
        with pytest.raises(ValueError):
            HarmonicMapSpec(a=[], b=[], truncation_order=0)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            HarmonicMapSpec(a=[0.1, 0.2], b=[], truncation_order=2)


# ------------------------------------------------------ the stacked evaluator
#
# part_values evaluates h, g, h' and g' of a series in one Horner loop over
# their stacked rows.  Its values must carry the bits of four separate
# PowerSeries.evaluate calls: the inequality sides at the witness are
# reported, and golden files hold them at full precision.


def random_rows(rng, lengths, zeros: bool) -> list:
    """Coefficient rows of the given lengths, of mixed scales; with ``zeros``
    some entries (top ones included) are -0.0 or +0.0."""
    rows = []
    for n in lengths:
        c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * rng.uniform(0.01, 3.0)
        c /= np.arange(1, n + 1) ** rng.uniform(0.0, 2.0)
        if zeros and n:
            hit = rng.random(n) < 0.3
            hit[-1] = rng.random() < 0.7
            c.real[hit] = rng.choice([-0.0, 0.0], size=hit.sum())
            c.imag[hit & (rng.random(n) < 0.5)] = -0.0
        rows.append(c)
    return rows


def evaluation_points(rng, kind: str):
    """A scalar, an array of up to 40 points, or a grid witness (an exact axis
    point in half the draws); |z| <= 0.999."""
    if kind == "scalar":
        return complex(rng.uniform(0.0, 0.999) * np.exp(2j * np.pi * rng.random()))
    if kind == "array":
        size = int(rng.integers(1, 41))
        return rng.uniform(0.0, 0.999, size) * np.exp(2j * np.pi * rng.random(size))
    grid = GridSpec(r_max=0.999, n_radii=int(rng.integers(1, 50)), n_angles=4 * int(rng.integers(2, 600)))
    radii, angles = grid_axes(grid)
    k = int(rng.integers(grid.n_angles))
    if rng.random() < 0.5:
        k -= k % (grid.n_angles // 4)  # 1, 1j, -1 or -1j
    return complex(radii[rng.integers(radii.size)] * angles[k])


def as_bits(v) -> str:
    return repr(np.asarray(v).tolist())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 512), st.integers(0, 2**32 - 1), st.sampled_from(["scalar", "array", "witness"]),
       st.booleans())
def test_stacked_evaluator_is_four_evaluations(order, seed, kind, zeros):
    rng = np.random.default_rng(seed)
    a, b = random_rows(rng, [order - 1, order], zeros)
    m = HarmonicMapSpec(a=a, b=b, truncation_order=order)
    z = evaluation_points(rng, kind)
    h, g = m.h_series(), m.g_series()
    want = [s.evaluate(z) for s in (h, g, h.differentiate(), g.differentiate())]
    got = part_values(m, z)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [as_bits(v) for v in got] == [as_bits(v) for v in want]
    # Rows of any lengths, each as its own series.
    rows = random_rows(rng, rng.integers(1, order + 2, size=int(rng.integers(1, 6))), zeros)
    got = horner(rows, z)
    assert got.shape == (len(rows),) + np.shape(z)
    assert [as_bits(v) for v in got] == [as_bits(PowerSeries(c).evaluate(z)) for c in rows]


def test_stacked_evaluator_rejects_non_finite_points():
    m = HarmonicMapSpec(a=[0.1], b=[0.2, 0.05], truncation_order=2)
    for z in (complex("nan"), complex("inf"), np.array([0.1, complex(0.2, np.inf)])):
        with pytest.raises(ValueError, match="non-finite"):
            part_values(m, z)
        with pytest.raises(ValueError, match="non-finite"):
            horner([m.h_coefficients(), m.b], z)


def test_grid_axes_are_shared_and_read_only():
    radii, angles = grid_axes(GridSpec(n_radii=7, n_angles=24))
    again = grid_axes(GridSpec(n_radii=7, n_angles=24))
    assert again[0] is radii and again[1] is angles
    for arr in (radii, angles):
        with pytest.raises(ValueError):
            arr[0] = 0.5
        with pytest.raises(ValueError):
            arr *= 2
    assert radii[0] == GridSpec().r_min and angles[6] == 1j


def test_grid_axes_keep_only_the_last_grid():
    # One grid's axes are kept: a sweep over grid sizes holds no earlier axes.
    first = grid_axes(GridSpec(n_radii=5, n_angles=16))
    refs = [weakref.ref(arr) for arr in first]
    grid_axes(GridSpec(n_radii=6, n_angles=16))
    assert grid_axes.cache_info().currsize == 1
    del first
    gc.collect()
    assert all(ref() is None for ref in refs)
