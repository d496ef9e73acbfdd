"""Weight tables, coefficient tests, pointwise criteria, and their interplay.

Derived expected values are recomputed from closed forms inside each test:
B/A_1 = tan(pi/4 - |lam|/2), A_n = sqrt(1 + n^2 + 2n cos lam) +
sqrt(1 + n^2 - 2n cos lam), and so on.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralmaps.construct import catalog, extremal_family, random_signed_map, random_sufficient_map
from spiralmaps.cli import report_lines
from spiralmaps.criteria import (
    MAX_EPS_SAMPLES,
    ClassFormError,
    HypothesisError,
    NearZeroError,
    SpiralParams,
    axis_profile,
    epsilon_starlike_check,
    growth_bounds,
    necessary_sharp_check,
    necessary_weighted_check,
    pointwise_fully_starlike_check,
    pointwise_spiral_check,
    run_all_checks,
    silverman_check,
    spiral_inequality_sides,
    spiral_margin,
    sufficient_check,
    unimodular_samples,
    weight_table,
)
from spiralmaps.harmonic import (
    ClosedForm,
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    eval_f,
    identity_map,
)
from spiralmaps.series import PowerSeries

PI4 = SpiralParams(math.pi / 4)


def weights_oracle(lam, n):
    """Independent closed form for A_n via real square roots."""
    return math.sqrt(1 + n * n + 2 * n * math.cos(lam)) + math.sqrt(
        1 + n * n - 2 * n * math.cos(lam)
    )


def b_oracle(lam):
    half = lam / 2
    return 2 * math.cos(half) - 2 * abs(math.sin(half))


class TestWeightTable:
    def test_lambda_zero_reduction(self):
        wt = weight_table(SpiralParams(0.0), 16)
        n = np.arange(1, 17)
        assert np.max(np.abs(wt.sufficient_ratios()[1:] - n)) < 1e-12
        assert abs(wt.B - 2.0) < 1e-15

    def test_pi_over_four_values(self):
        wt = weight_table(PI4, 2)
        lam = math.pi / 4
        assert abs(wt.A[1] - weights_oracle(lam, 1)) < 1e-12
        assert abs(wt.A[2] - weights_oracle(lam, 2)) < 1e-12
        assert abs(wt.B - b_oracle(lam)) < 1e-12
        # loose decimal echoes of the closed forms
        assert abs(wt.A[2] - 4.2715584) < 1e-6
        assert abs(wt.B - 1.0823922) < 1e-6

    def test_b_over_a1_closed_form(self):
        for lam in np.linspace(-1.5, 1.5, 31):
            wt = weight_table(SpiralParams(float(lam)), 1)
            assert abs(wt.b_over_a1() - math.tan(math.pi / 4 - abs(lam) / 2)) < 1e-12
        assert abs(weight_table(PI4, 1).b_over_a1() - math.tan(math.pi / 8)) < 1e-12

    def test_weight_floor(self):
        for lam in np.linspace(-1.57, 1.57, 41):
            wt = weight_table(SpiralParams(float(lam)), 32)
            ratios = wt.sufficient_ratios()[1:]
            assert np.all(ratios >= np.arange(1, 33) - 1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            SpiralParams(math.pi / 2)
        with pytest.raises(ValueError):
            SpiralParams(-2.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.55))
    def test_parity_in_lambda(self, lam):
        plus = weight_table(SpiralParams(lam), 8)
        minus = weight_table(SpiralParams(-lam), 8)
        assert np.allclose(plus.A[1:], minus.A[1:], rtol=0, atol=1e-14)
        assert abs(plus.B - minus.B) < 1e-14


class TestCoefficientChecks:
    def test_silverman_identity(self):
        res = silverman_check(identity_map(4))
        assert res.value == 1.0 and res.passed

    def test_silverman_equality(self):
        m = HarmonicMapSpec(a=[], b=[0.0, 0.5], truncation_order=2)
        res = silverman_check(m)
        assert abs(res.value - 2.0) < 1e-15 and res.passed

    def test_silverman_harmonic_koebe_diverges(self):
        res = silverman_check(catalog("harmonic_koebe", order=8))
        assert not res.passed
        # the n = 2 terms alone already break the budget: 1 + 2(5/2 + 1/2) = 7
        partial = silverman_check(catalog("harmonic_koebe", order=2))
        assert partial.value > 2.0

    def test_sufficient_weights_cancel(self):
        m = catalog("f2", p=PI4, alpha=0.95)
        res = sufficient_check(m, PI4)
        assert abs(res.value - 0.95) < 1e-12 and res.passed

    def test_sufficient_extremal_equality(self, rng):
        x = np.zeros(3, dtype=complex)
        y = np.zeros(4, dtype=complex)
        x[1] = 0.4 * np.exp(0.7j)
        y[2] = 0.6
        m = extremal_family(x, y, PI4, order=5)
        res = sufficient_check(m, PI4)
        assert abs(res.value - 1.0) < 1e-12 and res.passed

    def test_sufficient_fails_on_spiral_slit(self):
        # |a_2| = sqrt(2) alone exceeds the budget at lam = pi/4
        m = catalog("f4", order=2)
        res = sufficient_check(m, PI4)
        wt = weight_table(PI4, 2)
        assert res.value >= math.sqrt(2) * wt.sufficient_ratios()[2] - 1e-12
        assert res.value > 2.0 and not res.passed

    def test_necessary_weighted_shrink(self):
        m = catalog("f6", p=PI4)
        res = necessary_weighted_check(m, PI4)
        c = math.tan(math.pi / 8)
        assert abs(res.value - c * c) < 1e-12 and res.passed

    def test_necessary_weighted_weaker_than_sufficient(self):
        m = HarmonicMapSpec(a=[-1.0], b=[], truncation_order=2, signed_form=True)
        res = necessary_weighted_check(m, PI4)
        oracle = b_oracle(math.pi / 4) / weights_oracle(math.pi / 4, 2)
        assert abs(res.value - oracle) < 1e-12
        assert abs(res.value - 0.2534) < 1e-4
        assert res.passed
        assert not sufficient_check(m, PI4).passed

    def test_necessary_sharp(self):
        res = necessary_sharp_check(catalog("f6", p=PI4))
        assert abs(res.value - math.tan(math.pi / 8)) < 1e-12 and res.passed

    def test_necessary_sharp_failure(self):
        m = HarmonicMapSpec(a=[-0.5], b=[0.5], truncation_order=2, signed_form=True)
        res = necessary_sharp_check(m)
        assert abs(res.value - 1.5) < 1e-15 and not res.passed

    def test_necessary_identity(self):
        assert necessary_weighted_check(identity_map(3), PI4).value == 0.0
        assert necessary_sharp_check(identity_map(3)).value == 0.0

    def test_class_gate(self):
        m = HarmonicMapSpec(a=[0.1j], b=[], truncation_order=2)
        with pytest.raises(ClassFormError):
            necessary_weighted_check(m, PI4)
        with pytest.raises(ClassFormError):
            necessary_sharp_check(m)


class TestPointwise:
    def test_identity_margin_is_cos(self):
        for lam in (0.0, 0.5, -1.2):
            res = pointwise_spiral_check(identity_map(2), SpiralParams(lam), GridSpec(n_radii=4, n_angles=16))
            assert abs(res.min_value - math.cos(lam)) < 1e-12
            assert res.passed

    def test_f2_passes(self):
        p = SpiralParams(math.pi / 3)
        res = pointwise_spiral_check(catalog("f2", p=p, alpha=0.95), p, GridSpec())
        assert res.min_value > 0 and res.passed

    def test_spiral_slit_passes_exactly_one_sign(self):
        m = catalog("f4")
        grid = GridSpec()
        res = {
            s: pointwise_spiral_check(m, SpiralParams(s * math.pi / 4), grid)
            for s in (+1, -1)
        }
        assert res[+1].passed != res[-1].passed

    def test_near_zero_guard(self):
        m = HarmonicMapSpec(a=[], b=[-1.0], truncation_order=1)  # z - conj z
        with pytest.raises(NearZeroError):
            pointwise_spiral_check(m, PI4, GridSpec(n_radii=3, n_angles=8))

    def test_fully_starlike_is_zero_angle_case(self):
        m = catalog("f2", p=PI4, alpha=0.5)
        grid = GridSpec(n_radii=6, n_angles=32)
        a = pointwise_fully_starlike_check(m, grid)
        b = pointwise_spiral_check(m, SpiralParams(0.0), grid)
        assert a.min_value == b.min_value

    def test_harmonic_koebe_not_fully_starlike(self):
        k = catalog("harmonic_koebe")
        r = math.sqrt(5) / 3
        grid = GridSpec(r_min=r, r_max=r + 1e-9, n_radii=1, n_angles=1024)
        res = pointwise_fully_starlike_check(k, grid)
        assert res.min_value < 0 and not res.passed

    def test_affine_of_starlike_is_fully_starlike(self):
        # f = h + alpha conj(h) for starlike h stays fully starlike, with
        # Re(Df/f) = (1-|alpha|^2)|h|^2 / |h + alpha conj h|^2 * Re(zh'/h)
        alpha = 0.3 - 0.2j
        koebe = catalog("koebe")
        cf = koebe.closed_form
        af = ClosedForm(
            name="affine_koebe",
            h=cf.h,
            g=lambda z, _a=np.conj(alpha): _a * cf.h(z),
            dh=cf.dh,
            dg=lambda z, _a=np.conj(alpha): _a * cf.dh(z),
        )
        m = HarmonicMapSpec(
            a=koebe.a, b=np.conj(alpha) * np.concatenate([[1.0], koebe.a]),
            truncation_order=koebe.truncation_order, closed_form=af,
        )
        grid = GridSpec(n_radii=12, n_angles=64)
        res = pointwise_fully_starlike_check(m, grid)
        assert res.min_value > 0
        # spot-check the identity at a few points
        for z in (0.5, -0.3 + 0.6j, 0.1 - 0.7j):
            hv = cf.h(np.asarray(z, complex))
            fv = eval_f(m, z)
            lhs = (d_operator(m, z) / fv).real
            rhs = (
                (1 - abs(alpha) ** 2)
                * abs(hv) ** 2
                / abs(fv) ** 2
                * (z * cf.dh(np.asarray(z, complex)) / hv).real
            )
            assert abs(lhs - rhs) < 1e-12


class TestInequalitySides:
    def test_classical_counterexample(self):
        m = catalog("f1", alpha=-0.5)
        lhs, rhs = spiral_inequality_sides(m, PI4, (1 + 1j) / 2)
        assert abs(lhs - 0.75) < 1e-12
        assert abs(rhs - 1.0) < 1e-12
        assert lhs < rhs  # the map is not spirallike at this angle

    def test_analytic_map_positive_side(self, rng):
        m = identity_map(2)
        for _ in range(5):
            z = 0.9 * (rng.random() + 1j * rng.random()) / math.sqrt(2)
            lam = float(rng.uniform(-1.4, 1.4))
            lhs, rhs = spiral_inequality_sides(m, SpiralParams(lam), z)
            assert lhs > 0 and rhs == 0.0

    def test_sign_equivalence(self, rng):
        for _ in range(200):
            m = HarmonicMapSpec(
                a=0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                b=0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                truncation_order=4,
            )
            lam = float(rng.uniform(-1.4, 1.4))
            p = SpiralParams(lam)
            z = (0.05 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
            fv = eval_f(m, z)
            if abs(fv) <= 1e-6:
                continue
            ref = (p.phase * d_operator(m, z) / fv).real
            lhs, rhs = spiral_inequality_sides(m, p, z)
            assert np.sign(lhs - rhs) == np.sign(ref)
            assert np.sign(spiral_margin(m, p, z)) == np.sign(ref)

    def test_zero_point_is_neutral(self):
        assert spiral_inequality_sides(identity_map(2), PI4, 0.0) == (0.0, 0.0)


class TestMargin:
    def test_identity_margin_is_rB(self):
        wt = weight_table(PI4, 1)
        for r in (0.1, 0.5, 0.9):
            assert abs(spiral_margin(identity_map(2), PI4, r) - r * wt.B) < 1e-12

    def test_budget_floor(self, rng):
        # maps passing the sufficient test with sum s have M >= |z| (1 - s)
        for _ in range(20):
            m = random_sufficient_map(rng, PI4, order=6)
            s = sufficient_check(m, PI4).value
            z = (0.05 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
            assert spiral_margin(m, PI4, z) >= abs(z) * (1 - s) - 1e-12

    def test_counterexample_margin_negative(self):
        m = catalog("f1", alpha=-0.5)
        assert spiral_margin(m, PI4, (1 + 1j) / 2) < 0


class TestGrowth:
    def test_lambda_zero_bounds(self):
        gb = growth_bounds(identity_map(2), SpiralParams(0.0), 0.5)
        assert abs(gb.lower) < 1e-15 and abs(gb.upper - 1.0) < 1e-15
        assert abs(gb.covering_radius) < 1e-15

    def test_pi4_bounds(self):
        gb = growth_bounds(identity_map(2), PI4, 1.0 - 1e-12)
        c = math.tan(math.pi / 8)
        assert abs(gb.lower - (1 - c)) < 1e-9
        assert abs(gb.upper - (1 + c)) < 1e-9

    def test_sharpness(self):
        c = weight_table(PI4, 1).b_over_a1()
        f6 = catalog("f6", p=PI4)
        f7 = catalog("f7", p=PI4)
        for r in (0.1, 0.5, 0.9):
            assert abs(abs(eval_f(f6, r)) - (1 - c) * r) < 1e-12
            assert abs(abs(eval_f(f7, r)) - (1 + c) * r) < 1e-12

    def test_hypothesis_gate(self):
        m = catalog("f4", order=4)
        with pytest.raises(HypothesisError):
            growth_bounds(m, PI4, 0.5)

    def test_containment(self, rng):
        for _ in range(50):
            m = random_sufficient_map(rng, PI4, order=6)
            gb = growth_bounds(m, PI4, 0.5)
            z = 0.5 * np.exp(2j * np.pi * rng.random())
            v = abs(eval_f(m, z))
            assert gb.lower - 1e-9 <= v <= gb.upper + 1e-9


class TestEpsilonFamily:
    def test_sample_cap(self):
        assert unimodular_samples(MAX_EPS_SAMPLES).size == MAX_EPS_SAMPLES
        with pytest.raises(ValueError):
            unimodular_samples(MAX_EPS_SAMPLES + 1)
        with pytest.raises(ValueError):
            epsilon_starlike_check(identity_map(2), GridSpec(), n_eps=2_000_000_000)

    @pytest.mark.parametrize(
        "sizes", [range(1, 301), [997, 1000, 4095, 4096, 10007, 50000, 65535, MAX_EPS_SAMPLES]]
    )
    def test_samples_are_those_of_scalar_exp(self, sizes):
        # The vectorised samples keep the bits of the per-sample scalar form,
        # also where n_eps is no power of 2 and numpy's complex division by
        # n_eps would round differently.
        for n in sizes:
            want = np.array([complex(np.exp(2j * np.pi * k / n)) for k in range(n)])
            assert unimodular_samples(n).tobytes() == want.tobytes(), n

    def test_identity(self):
        res = epsilon_starlike_check(identity_map(2), GridSpec(n_radii=4, n_angles=16), n_eps=8)
        assert abs(res.min_value - 1.0) < 1e-12 and res.passed

    def test_affine_scaling(self):
        m = HarmonicMapSpec(a=[], b=[0.4], truncation_order=1)
        res = epsilon_starlike_check(m, GridSpec(n_radii=4, n_angles=16), n_eps=8)
        assert abs(res.min_value - 1.0) < 1e-12 and res.passed

    def test_harmonic_koebe_fails_some_eps(self):
        k = catalog("harmonic_koebe")
        res = epsilon_starlike_check(k, GridSpec(n_radii=10, n_angles=64), n_eps=16)
        assert res.min_value < 0 and not res.passed

    def test_vanishing_member_named(self):
        # h + eps g = z - eps z vanishes identically at eps = 1; its quotient
        # is never formed, so no division warning either.
        m = HarmonicMapSpec(a=[], b=[-1.0], truncation_order=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearZeroError, match=r"\|h \+ eps g\| = .* at eps = \(1\+0j\)"):
                epsilon_starlike_check(m, GridSpec(n_radii=4, n_angles=16), n_eps=8)


class TestAxisProfile:
    def test_matches_ratio_on_axis(self, rng):
        for _ in range(10):
            m = random_signed_map(rng, PI4, order=6)
            r = float(rng.uniform(0.05, 0.95))
            phi, psi = axis_profile(m, r)
            ref = (PI4.phase * d_operator(m, r) / eval_f(m, r)).real
            assert abs(ref - math.cos(PI4.lam) * (1 - psi) / phi) < 1e-12

    def test_psi_nondecreasing(self, rng):
        rs = np.linspace(0.01, 0.99, 50)
        for _ in range(10):
            m = random_signed_map(rng, PI4, order=6)
            _, psi = axis_profile(m, rs)
            assert np.all(np.diff(psi) >= -1e-15)


class TestImplicationChain:
    def test_sufficient_implies_pointwise_and_sense(self, rng):
        grid = GridSpec(n_radii=10, n_angles=64)
        for _ in range(25):
            m = random_sufficient_map(rng, PI4, order=6, budget=float(rng.uniform(0.05, 0.98)))
            assert sufficient_check(m, PI4).passed
            assert pointwise_spiral_check(m, PI4, grid).min_value > 0
            from spiralmaps.harmonic import sense_preserving_on_grid
            assert sense_preserving_on_grid(m, grid).min_value > 0


class TestReport:
    def test_identity_report(self):
        rep = run_all_checks(identity_map(4), PI4, GridSpec(n_radii=6, n_angles=16))
        assert rep.all_passed()
        assert rep.sufficient.value == 0.0
        assert rep.necessary_weighted is not None  # identity is sign-restricted
        assert rep.growth is not None
        assert "pointwise_method = sampled" in report_lines(rep)

    def test_failing_map_report(self):
        rep = run_all_checks(catalog("f1", alpha=-0.5), PI4, GridSpec(n_radii=6, n_angles=32))
        assert not rep.all_passed()
        assert rep.pointwise is not None and not rep.pointwise.passed
        lhs, rhs = rep.inequality_sides
        assert lhs < rhs

    def test_each_field_evaluated_once_on_the_grid(self, rng, monkeypatch):
        import spiralmaps.criteria as criteria_mod
        import spiralmaps.harmonic as harmonic_mod

        grid = GridSpec(n_radii=6, n_angles=32)
        calls = {}

        def count(name, fn):
            def counted(obj, z):
                if np.size(z) == grid.n_radii * grid.n_angles:
                    calls[name] = calls.get(name, 0) + 1
                return fn(obj, z)
            return counted

        for name in ("h_values", "g_values", "dh_values", "dg_values"):
            counted = count(name, getattr(harmonic_mod, name))
            monkeypatch.setattr(harmonic_mod, name, counted)
            monkeypatch.setattr(criteria_mod, name, counted)
        monkeypatch.setattr(PowerSeries, "evaluate", count("horner", PowerSeries.evaluate))
        m = catalog("koebe")
        assert m.closed_form is not None
        run_all_checks(m, PI4, grid)
        assert calls == {"h_values": 1, "g_values": 1, "dh_values": 1, "dg_values": 1}
        # A series-backed map goes through the FFT: no Horner on the grid.
        calls.clear()
        m = random_sufficient_map(rng, PI4, order=16, n_terms=8)
        assert m.closed_form is None
        run_all_checks(m, PI4, grid)
        assert calls == {}

    def test_near_zero_map_report(self):
        rep = run_all_checks(
            HarmonicMapSpec(a=[], b=[-1.0], truncation_order=1),
            PI4,
            GridSpec(n_radii=4, n_angles=8),
        )
        assert rep.pointwise is None
        assert not rep.nonvanishing.passed
        assert not rep.all_passed()


class TestCoefficientPass:
    """The report's coefficient results come from one pass over |a_n|, |b_n|."""

    @pytest.mark.parametrize("order", [1, 8, 64, 512])
    def test_report_equals_the_standalone_checks(self, order):
        rng = np.random.default_rng(order)
        grid = GridSpec(n_radii=2, n_angles=8)
        for lam in (0.0, 0.3, -0.3, 1.55, -1.55):
            p = SpiralParams(lam)
            # A signed and an unsigned map, each also scaled past the
            # sufficient budget, so that growth is None there.
            for make in (random_signed_map, random_sufficient_map):
                base = make(rng, p, order=order)
                for scale in (1.0, 2.5):
                    m = HarmonicMapSpec(a=scale * base.a, b=scale * base.b, truncation_order=order,
                                        signed_form=base.signed_form)
                    rep = run_all_checks(m, p, grid)
                    assert rep.silverman == silverman_check(m)
                    assert rep.sufficient == sufficient_check(m, p)
                    if m.signed_form:
                        assert rep.necessary_weighted == necessary_weighted_check(m, p)
                        assert rep.necessary_sharp == necessary_sharp_check(m)
                    else:
                        assert rep.necessary_weighted is None and rep.necessary_sharp is None
                    if rep.sufficient.passed:
                        assert rep.growth == growth_bounds(m, p, grid.r_max)
                    else:
                        assert rep.growth is None and scale > 1.0
                        with pytest.raises(HypothesisError):
                            growth_bounds(m, p, grid.r_max)

    def test_one_weight_table_and_each_sum_once_per_report(self, rng, monkeypatch):
        import spiralmaps.criteria as criteria_mod

        tables, rows = [], []
        table, weighted_sum = criteria_mod.weight_table, criteria_mod._weighted_sum
        monkeypatch.setattr(criteria_mod, "weight_table", lambda *a: tables.append(a) or table(*a))
        monkeypatch.setattr(criteria_mod, "_weighted_sum",
                            lambda amag, bmag, row: rows.append(row) or weighted_sum(amag, bmag, row))
        p = SpiralParams(0.3)
        wt = table(p, 64)
        want = [np.arange(65), wt.sufficient_ratios(), wt.necessary_ratios()]  # n, A_n/B, B/A_n
        for m, sums in ((random_signed_map(rng, p, order=64), 3),
                        (random_sufficient_map(rng, p, order=64), 2)):
            tables.clear(), rows.clear()
            run_all_checks(m, p, GridSpec(n_radii=4, n_angles=16))
            assert tables == [(p, 64)]
            assert len(rows) == sums
            assert all(np.array_equal(r, w, equal_nan=True) for r, w in zip(rows, want))
