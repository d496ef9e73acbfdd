"""Constructors, transforms, and the example catalog."""

import math

import numpy as np
import pytest

from spiralmaps.construct import (
    CombinationWeights,
    ConstraintError,
    MultiplierSequence,
    catalog,
    catalog_names,
    convex_combination,
    decompose,
    extremal_family,
    multiplier_transfer,
    random_signed_map,
    random_starlike_budget_map,
    recombine,
    spirallike_power_transform,
    starlike_associate,
    transform_exponent,
    transform_family_check,
    transform_identity_defect,
)
from spiralmaps.criteria import (
    SpiralParams,
    necessary_weighted_check,
    pointwise_spiral_check,
    silverman_check,
    sufficient_check,
    weight_table,
)
from spiralmaps.harmonic import GridSpec, HarmonicMapSpec, eval_f, h_values, g_values, dh_values
from spiralmaps.series import NormalizationError, PowerSeries, pow_series

PI4 = SpiralParams(math.pi / 4)


class TestExtremalFamily:
    def test_empty_weights_is_identity(self):
        m = extremal_family([], [], PI4)
        assert m.a.size == 0 or np.all(m.a == 0)
        assert np.all(m.b == 0)
        assert abs(eval_f(m, 0.3 + 0.1j) - (0.3 + 0.1j)) < 1e-15

    def test_single_coanalytic_weight_reproduces_expander(self):
        m = extremal_family([], [1.0], PI4, order=1)
        f7 = catalog("f7", p=PI4)
        assert abs(m.b_coeff(1) - f7.b_coeff(1)) < 1e-15

    def test_reproduces_two_term_extremal(self):
        # y_1 = alpha, y_3 = 1 - |alpha| matches the two-conjugate-term entry
        alpha = 0.4
        m = extremal_family([], [alpha, 0.0, 1 - alpha], PI4, order=3)
        f3 = catalog("f3", p=PI4, alpha=alpha)
        assert np.allclose(m.b, f3.b, atol=1e-15)

    def test_sum_property(self, rng):
        for _ in range(20):
            nx, ny = 3, 4
            x = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
            y = rng.standard_normal(ny) + 1j * rng.standard_normal(ny)
            total = np.abs(x).sum() + np.abs(y).sum()
            scale = rng.uniform(0.1, 1.0) / total
            m = extremal_family(x * scale, y * scale, PI4, order=5)
            res = sufficient_check(m, PI4)
            budget = (np.abs(x).sum() + np.abs(y).sum()) * scale
            assert abs(res.value - budget) < 1e-12

    def test_budget_gate(self):
        with pytest.raises(ConstraintError):
            extremal_family([0.7], [0.7], PI4, order=2)

    def test_budget_error_shows_the_excess(self):
        # 2e-12 past the gate: the sum is printed in full, not rounded to 1.
        with pytest.raises(ConstraintError) as exc:
            extremal_family([0.5], [0.5 + 2e-12], SpiralParams(0.3))
        assert str(exc.value) == f"weight budget sum|x| + sum|y| = {0.5 + (0.5 + 2e-12)!r} exceeds 1"

    def test_weights_past_the_order_are_named_by_the_map(self):
        # Not numpy's broadcast error: the map's own message, as for any
        # coefficients that do not fit, and so for a catalog entry below its degree.
        p = SpiralParams(0.3)
        with pytest.raises(ValueError, match=r"^co-analytic-part .* \(3 entries, room for 2\)$"):
            extremal_family([], [0.1, 0.2, 0.3], p, order=2)
        with pytest.raises(ValueError, match=r"^analytic-part .* \(2 entries, room for 1\)$"):
            extremal_family([0.1, 0.2], [0.1], p, order=2)
        with pytest.raises(ValueError, match=r"^co-analytic-part .* \(3 entries, room for 2\)$"):
            catalog("f3", p, alpha=0.5, order=2)


class TestConvexCombination:
    def test_pure_identity(self):
        w = CombinationWeights(X=[1.0, 0.0], Y=[0.0, 0.0])
        m = convex_combination(w, PI4)
        assert np.all(m.a == 0) and np.all(m.b == 0)

    def test_single_analytic_term(self):
        w = CombinationWeights(X=[0.0, 1.0], Y=[0.0, 0.0])
        m = convex_combination(w, PI4, sign=1)
        wt = weight_table(PI4, 2)
        assert abs(m.a_coeff(2) - wt.necessary_ratios()[2]) < 1e-15
        res = sufficient_check(m, PI4)
        assert abs(res.value - 1.0) < 1e-12 and res.passed

    def test_negative_sign_lands_in_signed_class(self, rng):
        X = rng.random(4)
        Y = rng.random(4)
        total = X.sum() + Y.sum()
        w = CombinationWeights(X=X / total, Y=Y / total)
        m = convex_combination(w, PI4, sign=-1)
        assert m.signed_form
        assert necessary_weighted_check(m, PI4).passed

    def test_sum_is_one_minus_identity_share(self, rng):
        X = rng.random(3)
        Y = rng.random(3)
        total = X.sum() + Y.sum()
        X, Y = X / total, Y / total
        m = convex_combination(CombinationWeights(X=X, Y=Y), PI4)
        assert abs(sufficient_check(m, PI4).value - (1 - X[0])) < 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CombinationWeights(X=[0.5], Y=[0.4])  # sums to 0.9
        with pytest.raises(ValueError):
            CombinationWeights(X=[-0.1, 0.6], Y=[0.5, 0.0])
        # NaN passes both the sign and the sum comparison, so it is refused on its own.
        for bad in (math.nan, math.inf, -math.inf):
            for X, Y in (([bad, 0.5], [0.5, 0.0]), ([0.5, 0.0], [0.5, bad])):
                with pytest.raises(ValueError, match="non-finite"):
                    CombinationWeights(X=X, Y=Y)


class TestDecompose:
    def test_identity(self):
        w = decompose(catalog("identity", order=3), PI4)
        assert abs(w.X[0] - 1.0) < 1e-15
        assert np.all(w.X[1:] == 0) and np.all(w.Y == 0)

    def test_shrink_map_weights(self):
        m = catalog("f6", p=PI4)
        w = decompose(m, PI4)
        c = weight_table(PI4, 1).b_over_a1()
        assert abs(w.Y[0] - c * c) < 1e-12
        assert abs(w.X[0] - (1 - c * c)) < 1e-12

    def test_roundtrip(self, rng):
        for _ in range(30):
            m = random_signed_map(rng, PI4, order=7)
            m2 = recombine(decompose(m, PI4), PI4)
            assert np.max(np.abs(m.a - m2.a)) < 1e-12
            assert np.max(np.abs(m.b - m2.b)) < 1e-12

    def test_infeasible(self):
        from spiralmaps.construct import DecompositionError

        # B|a_2|/A_2 must exceed 1, i.e. |a_2| > A_2/B (~3.95 at pi/4)
        m = HarmonicMapSpec(a=[-5.0], b=[], truncation_order=2, signed_form=True)
        with pytest.raises(DecompositionError):
            decompose(m, PI4)


class TestMultiplierTransfer:
    def test_zero_multipliers_give_identity(self, rng):
        F = random_starlike_budget_map(rng, order=5)
        d = MultiplierSequence(np.zeros(5))
        m = multiplier_transfer(F, d, PI4)
        assert np.all(m.a == 0) and np.all(m.b == 0)

    def test_max_multipliers_give_two_term_example(self):
        alpha = 0.3
        F = HarmonicMapSpec(
            a=[], b=[alpha, (1 - alpha) / 2], truncation_order=2, signed_form=True
        )
        assert abs(silverman_check(F).value - 2.0) < 1e-15
        m = multiplier_transfer(F, MultiplierSequence.max_allowed(PI4, 2), PI4)
        f5 = catalog("f5", p=PI4, alpha=alpha)
        assert np.allclose(m.b, f5.b, atol=1e-15)
        assert sufficient_check(m, PI4).passed

    def test_bound_violation_names_index(self):
        F = HarmonicMapSpec(a=[], b=[0.5], truncation_order=3, signed_form=True)
        wt = weight_table(PI4, 3)
        bad = np.zeros(3, dtype=complex)
        bad[2] = 3 * wt.necessary_ratios()[3] + 0.01
        with pytest.raises(ConstraintError, match="d_3"):
            multiplier_transfer(F, MultiplierSequence(bad), PI4)

    def test_bound_error_shows_the_excess(self):
        # 2e-12 past the bound: both numbers are printed in full, so the
        # message shows |d_3| above n*B/A_3.
        F = HarmonicMapSpec(a=[], b=[0.5], truncation_order=3, signed_form=True)
        bound = float(3 * weight_table(PI4, 3).necessary_ratios()[3])
        bad = np.zeros(3, dtype=complex)
        bad[2] = bound + 2e-12
        with pytest.raises(ConstraintError) as exc:
            multiplier_transfer(F, MultiplierSequence(bad), PI4)
        assert str(exc.value) == f"|d_3| = {bound + 2e-12!r} exceeds 3*B/A_3 = {bound!r}"

    def test_budget_gate(self):
        F = HarmonicMapSpec(a=[], b=[1.5], truncation_order=1, signed_form=True)
        with pytest.raises(ConstraintError):
            multiplier_transfer(F, MultiplierSequence([0.1]), PI4)

    def test_output_sum_bounded_by_input_budget(self, rng):
        for _ in range(20):
            F = random_starlike_budget_map(rng, order=6)
            m = multiplier_transfer(F, MultiplierSequence.max_allowed(PI4, 6), PI4)
            assert (
                sufficient_check(m, PI4).value
                <= silverman_check(F).value - 1.0 + 1e-12
            )

    def test_converse_associate_is_starlike_budget(self, rng):
        for _ in range(10):
            m = random_signed_map(rng, PI4, order=6)
            F = starlike_associate(m)
            assert silverman_check(F).passed
            assert np.all(F.a.real >= 0) and np.all(F.b.real >= 0)


class TestPowerTransform:
    def test_angle_zero_is_identity(self, rng):
        g = PowerSeries(
            np.concatenate([[0.0, 1.0], 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))])
        )
        h = spirallike_power_transform(g, SpiralParams(0.0), probe=False)
        assert np.max(np.abs(h.coeffs - g.coeffs)) < 1e-12

    def test_exponent_values(self):
        mu = transform_exponent(PI4, orientation=-1)
        assert abs(mu - (1 - 1j) / 2) < 1e-15
        mu = transform_exponent(SpiralParams(-math.pi / 4), orientation=1)
        assert abs(mu - (1 - 1j) / 2) < 1e-15

    def test_koebe_gives_spiral_slit_coefficients(self):
        koebe = catalog("koebe").h_series()
        h = spirallike_power_transform(koebe, SpiralParams(-math.pi / 4))
        f4 = catalog("f4")
        assert abs(h[2] - (1 - 1j)) < 1e-10
        assert np.max(np.abs(h.coeffs[2:] - f4.a)) < 1e-9

    def test_output_margins_positive_on_default_grid(self):
        # Grid-scan oracle through closed forms: the transform of the Koebe
        # series has z h'/h = (1 - mu) + mu (1+z)/(1-z) exactly, so the
        # margin can be scanned on the full default grid without the
        # truncation error that a direct series evaluation would pick up
        # (the output coefficients do not decay).
        from spiralmaps.harmonic import grid_points

        pts = grid_points(GridSpec())
        ratio_g = (1 + pts) / (1 - pts)
        for lam in (math.pi / 8, math.pi / 4, math.pi / 3):
            p = SpiralParams(lam)
            mu = transform_exponent(p, orientation=1)
            margins = np.real(p.phase * ((1 - mu) + mu * ratio_g))
            assert margins.min() > 0

    def test_output_series_matches_closed_form_at_small_radii(self, rng):
        koebe = catalog("koebe").h_series()
        p = SpiralParams(math.pi / 3)
        h = spirallike_power_transform(koebe, p)
        mu = transform_exponent(p, orientation=1)
        z = 0.5 * rng.random(20) * np.exp(2j * np.pi * rng.random(20))
        closed = z * np.exp(-2 * mu * np.log(1 - z))
        assert np.max(np.abs(h.evaluate(z) - closed)) < 1e-10

    def test_input_validation(self):
        with pytest.raises(NormalizationError):
            spirallike_power_transform(PowerSeries([1.0, 1.0]), PI4)
        with pytest.raises(NormalizationError):
            spirallike_power_transform(PowerSeries([0.0, 2.0]), PI4)

    def test_probe_warns_on_nonstarlike_input(self):
        # h' vanishes inside the disk for this series; output cannot be
        # spirallike and the probe should say so.
        bad = PowerSeries([0.0, 1.0, 0.0, 4.0], order=8)
        with pytest.warns(RuntimeWarning):
            spirallike_power_transform(bad, PI4)



def binomial_transform(mu, order):
    """Oracle: z (1 - z)^(-2 mu), the transform of the Koebe function, by the
    recurrence c_1 = 1, c_n = c_{n-1} (n - 2 + 2 mu) / (n - 1)."""
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    for n in range(2, order + 1):
        c[n] = c[n - 1] * (n - 2 + 2 * mu) / (n - 1)
    return c


def assert_componentwise(got, want, rtol):
    assert got.shape == want.shape
    err = np.abs(got - want)[1:] / np.abs(want[1:])
    assert err.max() <= rtol, (int(err.argmax()) + 1, err.max())


class TestBinomialOracle:
    @pytest.mark.parametrize("order", [64, 256, 512])
    @pytest.mark.parametrize("lam", [-1.2, -math.pi / 4, 0.5, 1.5])
    def test_koebe_transform_is_the_binomial_series(self, order, lam):
        p = SpiralParams(lam)
        h = spirallike_power_transform(catalog("koebe", order=order).h_series(), p, probe=False)
        assert_componentwise(h.coeffs, binomial_transform(transform_exponent(p), order), 1e-13)

    @pytest.mark.parametrize("order", [64, 256, 512])
    def test_f4_is_the_binomial_series(self, order):
        # f4 = z (1 - z)^(i - 1): the exponent -2 mu = i - 1 is exact here.
        h = catalog("f4", order=order).h_series()
        assert_componentwise(h.coeffs, binomial_transform((1 - 1j) / 2, order), 1e-13)


class TestTransformReuse:
    """spirallike_power_transform keeps the last h it built, keyed on the
    exact bytes of g and of mu."""

    def test_probe_warns_on_every_identical_call(self):
        bad = PowerSeries([0.0, 1.0, 0.0, 4.0], order=8)
        for _ in range(2):
            with pytest.warns(RuntimeWarning):
                spirallike_power_transform(bad, PI4)

    def test_defect_is_the_same_on_a_hit_and_a_miss(self):
        g = catalog("koebe", order=128).h_series()
        h = spirallike_power_transform(g, PI4)
        assert spirallike_power_transform(g, PI4, probe=False) is h  # a hit
        hit = transform_identity_defect(g, PI4)
        spirallike_power_transform(PowerSeries.identity(8), PI4, probe=False)  # evict
        miss = transform_identity_defect(g, PI4)
        assert hit == miss

    def test_another_angle_or_orientation_never_hits(self):
        g = catalog("koebe", order=64).h_series()
        h = spirallike_power_transform(g, PI4, probe=False)
        # Each call differs from the one before in its angle or orientation.
        # (lam, -1) has the exponent of (-lam, 1), so that pair may hit.
        others = [(SpiralParams(math.pi / 4 + 1e-15), 1), (PI4, -1), (PI4, 1), (SpiralParams(0.5), 1)]
        for p, orientation in others:
            got = spirallike_power_transform(g, p, orientation=orientation, probe=False)
            assert got is not h
            mu = transform_exponent(p, orientation)
            want = pow_series(g.divided_by_z(), mu).times_z()
            assert np.array_equal(got.coeffs, want.coeffs)
            h = got

    def test_equal_coefficients_in_a_new_series_hit(self):
        g = catalog("koebe", order=64).h_series()
        h = spirallike_power_transform(g, PI4, probe=False)
        assert spirallike_power_transform(PowerSeries(g.coeffs), PI4, probe=False) is h

class TestTransformIdentity:
    def test_angle_zero_defect_small(self):
        # analytically zero; what remains is series-stack rounding noise
        koebe = catalog("koebe").h_series()
        assert transform_identity_defect(koebe, SpiralParams(0.0)) < 1e-9

    def test_identity_series_defect(self):
        g = PowerSeries.identity(16)
        assert transform_identity_defect(g, PI4) < 1e-12

    def test_koebe_default_grid(self):
        koebe = catalog("koebe").h_series()
        assert transform_identity_defect(koebe, PI4) < 1e-9

    def test_random_starlike_inputs_across_angles(self, rng):
        # inputs built inside the n-weighted coefficient budget are starlike;
        # 25 inputs x 4 angles = 100 defect evaluations
        angles = (-1.3, -0.6, 0.4, 1.2)
        for _ in range(25):
            m = random_starlike_budget_map(rng, order=10)
            F = starlike_associate(m)
            g = PowerSeries(np.concatenate([[0.0, 1.0], F.a]))
            for lam in angles:
                assert transform_identity_defect(g, SpiralParams(lam)) < 1e-9


class TestTransformFamily:
    def test_trivial_family(self):
        H = PowerSeries.identity(4)
        G = PowerSeries.zero(4)
        res = transform_family_check(H, G, PI4, GridSpec(n_radii=4, n_angles=16), n_eps=8)
        assert abs(res.min_value - math.cos(PI4.lam)) < 1e-9
        assert res.passed

    def test_scalar_perturbation(self):
        c = 0.5
        H = PowerSeries.identity(4)
        G = PowerSeries([0.0, c], order=4)
        res = transform_family_check(H, G, PI4, GridSpec(n_radii=4, n_angles=16), n_eps=8)
        assert abs(res.min_value - math.cos(PI4.lam)) < 1e-9

    def test_budgeted_pair_passes(self):
        H = PowerSeries([0.0, 1.0, -0.25], order=32)
        G = PowerSeries([0.0, 0.25], order=32)
        res = transform_family_check(H, G, PI4, GridSpec(), n_eps=64)
        assert res.min_value > 0 and res.passed

    def test_degenerate_eps_detected(self):
        H = PowerSeries.identity(4)
        G = PowerSeries([0.0, 1.0], order=4)  # 1 + eps vanishes at eps = -1
        with pytest.raises(ConstraintError):
            transform_family_check(H, G, PI4, GridSpec(n_radii=3, n_angles=8), n_eps=8)

    def test_validation(self):
        with pytest.raises(NormalizationError):
            transform_family_check(
                PowerSeries([0.5, 1.0]), PowerSeries.zero(1), PI4, GridSpec(n_radii=3, n_angles=8)
            )

    def test_family_size_is_capped(self):
        # 65,536 eps at order 64 is the cap; one more coefficient is refused
        # before any member is built (about 32 GiB at order 4096).
        H, G = PowerSeries.identity(65), PowerSeries.zero(65)
        with pytest.raises(ValueError, match="n_eps x order"):
            transform_family_check(H, G, PI4, GridSpec(n_radii=3, n_angles=8), n_eps=65536)


class TestCatalog:
    def test_names(self):
        names = catalog_names()
        for expected in ["f1", "f2", "f3", "f4", "f5", "f6", "f7",
                         "koebe", "harmonic_koebe", "half_plane", "identity"]:
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("f99")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalog("f1", alpha=1.5)
        with pytest.raises(ValueError):
            catalog("f2", p=PI4)  # alpha missing
        with pytest.raises(ValueError):
            catalog("f2", alpha=0.5)  # angle missing
        with pytest.raises(ValueError):
            catalog("f5", p=PI4, alpha=-0.5)

    @pytest.mark.parametrize("name", catalog_names())
    def test_order_below_one_is_refused(self, name):
        # 0 is an order, not a request for the entry's default.
        for order in (0, -1):
            with pytest.raises(ValueError):
                catalog(name, p=PI4, alpha=0.5, order=order)

    def test_f1_coefficient(self):
        m = catalog("f1", alpha=-0.5)
        assert m.b_coeff(1) == -0.5

    def test_f2_is_conjugated_quadratic(self):
        p = SpiralParams(math.pi / 3)
        m = catalog("f2", p=p, alpha=0.95)
        wt = weight_table(p, 2)
        assert np.all(m.a == 0)
        assert abs(m.b_coeff(1)) == 0
        assert abs(m.b_coeff(2) - 0.95 * wt.necessary_ratios()[2]) < 1e-15

    def test_f6_f7_mirror(self):
        f6 = catalog("f6", p=PI4)
        f7 = catalog("f7", p=PI4)
        assert abs(f6.b_coeff(1) + f7.b_coeff(1)) < 1e-15
        assert f6.signed_form and f7.signed_form

    def test_harmonic_koebe_display_coefficients(self):
        k = catalog("harmonic_koebe", order=6)
        # from the displayed rational forms: a_n=(2n+1)(n+1)/6, b_n=(n-1)(2n-1)/6
        assert abs(k.a_coeff(2) - 5 * 3 / 6) < 1e-15
        assert abs(k.a_coeff(3) - 7 * 4 / 6) < 1e-15
        assert abs(k.b_coeff(1)) < 1e-15
        assert abs(k.b_coeff(2) - 1 * 3 / 6) < 1e-15
        assert abs(k.b_coeff(3) - 2 * 5 / 6) < 1e-15

    def test_half_plane_display_coefficients(self):
        l = catalog("half_plane", order=5)
        assert abs(l.a_coeff(2) - 1.5) < 1e-15
        assert abs(l.b_coeff(2) + 0.5) < 1e-15
        # image lies in Re w > -1/2
        pts = 0.97 * np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))
        assert np.all(eval_f(l, pts).real > -0.5)

    def test_closed_forms_match_series_where_truncation_converged(self, rng):
        for name, rmax in (
            ("harmonic_koebe", 0.5),
            ("koebe", 0.5),
            ("f4", 0.5),
            ("half_plane", 0.5),
        ):
            m = catalog(name)
            hs = m.h_series()
            gs = m.g_series()
            z = rmax * np.exp(2j * np.pi * rng.random(32)) * rng.random(32)
            assert np.max(np.abs(h_values(m, z) - hs.evaluate(z))) < 1e-10
            assert np.max(np.abs(g_values(m, z) - gs.evaluate(z))) < 1e-10
            dz = m.closed_form.dh(z)
            assert np.max(np.abs(dz - hs.differentiate().evaluate(z))) < 1e-9

    def test_f4_derivative_closed_form(self, rng):
        # independent oracle: central finite difference of h
        m = catalog("f4")
        cf = m.closed_form
        eps = 1e-6
        for _ in range(10):
            z = 0.6 * (rng.random() + 1j * rng.random())
            fd = (cf.h(np.asarray(z + eps, complex)) - cf.h(np.asarray(z - eps, complex))) / (2 * eps)
            assert abs(cf.dh(np.asarray(z, complex)) - fd) < 1e-6

    def test_f4_series_route_matches_pow(self):
        m = catalog("f4", order=16)
        oracle = pow_series(PowerSeries([1.0, -1.0], order=15), 1j - 1.0)
        assert np.max(np.abs(m.a - oracle.coeffs[1:])) < 1e-12


class TestRandomGenerators:
    def test_sufficient_maps_pass(self, rng):
        for _ in range(20):
            m = random_signed_map(rng, PI4, order=6)
            assert sufficient_check(m, PI4).passed
            assert m.signed_form

    def test_budget_maps_fit_silverman(self, rng):
        for _ in range(20):
            m = random_starlike_budget_map(rng, order=6)
            assert silverman_check(m).passed
            assert m.signed_form

    def test_order_one_edge(self, rng):
        from spiralmaps.construct import random_sufficient_map

        m = random_sufficient_map(rng, PI4, order=1, n_terms=2)
        assert m.truncation_order == 1
        assert m.a.size == 0
        m = random_starlike_budget_map(rng, order=1, n_terms=2)
        assert silverman_check(m).passed


#: The nonzero coefficients {n: a_n}, {n: b_n} of the seeded order-8 draws at
#: the default n_terms (random_sufficient_map at lam = pi/4), as the
#: generators drew them before their unused knobs were removed.  A draw that
#: is dropped, added or moved changes them.
PINNED_DRAWS = {
    ("random_sufficient_map", 0): (
        {4: 0.019201639776243406+0.003453218663768357j,
         5: -0.02282245623201949-0.006083693896507639j,
         7: 0.00019181280083602315-0.00023971684023920081j,
         8: 0.00026808659203694606-0.0006105075431666728j},
        {5: -0.0008968905911414286-0.006923424656405727j,
         6: 0.007921989267596354+0.01570740442719838j},
    ),
    ("random_sufficient_map", 1): (
        {3: 5.3029763270221146e-05-0.023143865181458417j,
         4: -0.006341929572217406+0.0019075887894428433j,
         5: -0.005934448383401169+0.004136745745161445j},
        {1: -0.08272866699248983+0.07935352272472027j},
    ),
    ("random_sufficient_map", 2): (
        {2: -0.008124011594078901-0.018164292724483645j,
         3: 0.0053055928962144235+0.0019156543428765246j,
         6: -0.007266792544202232-0.0029974764019755364j},
        {2: -0.0029101278008391426+0.004227013375331559j,
         4: -0.0057695844577573315-0.006395726626925649j,
         8: -0.0006086608884007136+0.00027421899295360905j},
    ),
    ("random_starlike_budget_map", 0): (
        {7: -0.052418722055894144},
        {1: 0.19640371506442852, 5: 0.0019790106492187072, 6: 0.011524091084528574},
    ),
    ("random_starlike_budget_map", 1): (
        {4: -0.03018237677892894, 5: -0.013302260233336994, 6: -0.023105926864213876},
        {1: 0.06174680847332514, 7: 0.01976727614717566},
    ),
    ("random_starlike_budget_map", 2): (
        {3: -0.021560265274512727, 5: -0.006434470181886945},
        {3: 0.03255563728177248, 4: 0.005063147937544276, 8: 0.0098158293154246},
    ),
}


@pytest.mark.parametrize("generator, seed", sorted(PINNED_DRAWS))
def test_seeded_draws_are_pinned(generator, seed):
    from spiralmaps import construct

    rng = np.random.default_rng(seed)
    make = getattr(construct, generator)
    m = make(rng, PI4, order=8) if generator == "random_sufficient_map" else make(rng, order=8)
    a, b = PINNED_DRAWS[generator, seed]
    want_a, want_b = np.zeros(7, dtype=complex), np.zeros(8, dtype=complex)
    want_a[[n - 2 for n in a]] = list(a.values())
    want_b[[n - 1 for n in b]] = list(b.values())
    np.testing.assert_allclose(m.a, want_a, rtol=1e-12, atol=0)
    np.testing.assert_allclose(m.b, want_b, rtol=1e-12, atol=0)
