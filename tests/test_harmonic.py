"""Harmonic map evaluation, the D operator, Jacobian, and grid scans."""

import numpy as np
import pytest

from spiralmaps.harmonic import (
    MAX_ANGLES,
    MAX_GRID_POINTS,
    DomainError,
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    eval_f,
    grid_points,
    identity_map,
    jacobian,
    nonvanishing_on_grid,
    pair_d_operator,
    sense_preserving_on_grid,
)
from spiralmaps.series import PowerSeries


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
