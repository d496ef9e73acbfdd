"""Series arithmetic against independent oracles.

Expected values come from closed forms computed inside the tests
(geometric sums, the alternating-log series, factorials, the generalized
binomial recurrence), never from the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralmaps.series import (
    NormalizationError,
    PowerSeries,
    divide,
    exp_series,
    log_derivative_ratio,
    log_series,
    pow_rows,
    pow_series,
)

from conftest import tail_bounded_coeffs


def geometric(order):
    """Truncation of 1/(1-z)."""
    return PowerSeries(np.ones(order + 1))


def binomial_negative_power(c, order):
    """Oracle: coefficients of (1-z)^(-c) via the rising-factorial recurrence."""
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = 1.0
    for n in range(1, order + 1):
        out[n] = out[n - 1] * (c + n - 1) / n
    return out


def coefficient_loop_divide(s, t):
    """Reference: the coefficient-by-coefficient solve of T(t) q = s,
    q_k = (s_k - sum_{j<k} q_j t_{k-j}) / t_0."""
    n = min(s.order, t.order)
    sc, tc = s.coeffs, t.coeffs
    out = np.zeros(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        acc = sc[k]
        if k:
            acc = acc - np.dot(out[:k], tc[k:0:-1])
        out[k] = acc / tc[0]
    return out



def coefficient_loop_log(s):
    """Reference: the formal ODE recurrence for L = log s (s_0 = 1),
    n s_n = sum_{j=0}^{n-1} s_j (n - j) L_{n-j}, one coefficient at a time."""
    c = s.coeffs
    out = np.zeros(c.size, dtype=np.complex128)
    for n in range(1, c.size):
        inner = sum(c[j] * (n - j) * out[n - j] for j in range(1, n))
        out[n] = c[n] - inner / n
    return out

class TestArithmetic:
    def test_add_linearity(self):
        z = PowerSeries.identity(4)
        assert np.allclose((z + z).coeffs, [0, 2, 0, 0, 0])

    def test_add_zero_identity(self):
        s = PowerSeries([1, 2, 3])
        assert np.array_equal((s + PowerSeries.zero(2)).coeffs, s.coeffs)

    def test_add_cancellation(self):
        s = PowerSeries([0, 1, 1])
        t = PowerSeries([0, 1, -1])
        assert np.allclose((s + t).coeffs, [0, 2, 0])

    def test_mul_difference_of_squares(self):
        s = PowerSeries([1, 1])
        t = PowerSeries([1, -1])
        prod = s * t
        assert prod.order == 1
        assert np.allclose(prod.coeffs, [1, 0])

    def test_mul_geometric_inverse(self):
        # Oracle: (1-z) * sum z^n = 1 - z^(N+1), which truncates to 1.
        n = 16
        prod = geometric(n) * PowerSeries([1, -1], order=n)
        expected = np.zeros(n + 1)
        expected[0] = 1.0
        assert np.allclose(prod.coeffs, expected, atol=1e-15)

    def test_mul_monomials(self):
        z = PowerSeries.identity(3)
        assert np.allclose((z * z).coeffs, [0, 0, 1, 0])

    def test_min_order_propagation(self):
        s = PowerSeries(np.ones(10))
        t = PowerSeries(np.ones(5))
        assert (s + t).order == 4
        assert (s * t).order == 4
        assert (s - t).order == 4

    def test_scalar_multiplication(self):
        s = PowerSeries([1, 2])
        assert np.allclose((2j * s).coeffs, [2j, 4j])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0, np.nan])
        with pytest.raises(ValueError):
            PowerSeries([np.inf, 1.0])

    def test_coeffs_read_only(self):
        s = PowerSeries([1, 2])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0


class TestDifferentiate:
    def test_identity(self):
        d = PowerSeries.identity(1).differentiate()
        assert d.order == 0
        assert d[0] == 1

    def test_cubic(self):
        d = PowerSeries([0, 0, 0, 1]).differentiate()
        assert np.allclose(d.coeffs, [0, 0, 3])

    def test_geometric(self):
        d = geometric(8).differentiate()
        assert d[2] == 3  # coefficient of z^2 in sum n z^(n-1)

    def test_order_zero_errors(self):
        with pytest.raises(ValueError, match="empty derivative"):
            PowerSeries([1.0]).differentiate()


class TestEvaluate:
    def test_identity_at_half(self):
        assert PowerSeries.identity(4)(0.5) == 0.5

    def test_geometric_closed_form(self):
        # Oracle: partial geometric sum (1 - z^64)/(1 - z) at z = 0.5.
        val = geometric(63)(0.5)
        assert abs(val - (1 - 0.5**64) / 0.5) < 1e-12

    def test_constant_term_at_zero(self):
        s = PowerSeries([3 + 1j, 5, 7])
        assert s(0) == 3 + 1j

    def test_vectorized(self):
        s = PowerSeries([1, 1])
        z = np.array([0.1, 0.2 + 0.3j])
        assert np.allclose(s(z), 1 + z)


class TestLogExpPow:
    def test_log_of_one(self):
        out = log_series(PowerSeries.constant(1.0, 6))
        assert np.allclose(out.coeffs, 0.0)

    def test_log_geometric_is_alternating_harmonic(self):
        # Oracle: -log(1-z) = sum z^n / n; the z^(N+1) tail of the input
        # does not reach the truncated output.
        n = 20
        out = log_series(geometric(n))
        expected = np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)])
        assert np.allclose(out.coeffs, expected, atol=1e-13)
        assert abs(out[3] - 1 / 3) < 1e-14

    @pytest.mark.parametrize("order", [63, 64, 65, 129, 512])
    def test_blocked_log_matches_the_coefficient_loop(self, rng, order):
        # Orders at, around and across the 64-coefficient blocks of the solve.
        for budget in (0.2, 0.6):
            s = PowerSeries(tail_bounded_coeffs(rng, order, 1.0, tail_budget=budget))
            want = coefficient_loop_log(s)
            got = log_series(s).coeffs
            assert got.shape == want.shape and got[0] == 0
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exp_of_zero(self):
        out = exp_series(PowerSeries.zero(5))
        assert np.allclose(out.coeffs, [1, 0, 0, 0, 0, 0])

    def test_exp_factorials(self):
        out = exp_series(PowerSeries.identity(8))
        import math
        expected = [1 / math.factorial(k) for k in range(9)]
        assert np.allclose(out.coeffs, expected, atol=1e-15)
        assert abs(out[4] - 1 / 24) < 1e-15

    def test_log_requires_unit_constant(self):
        with pytest.raises(NormalizationError):
            log_series(PowerSeries([2.0, 1.0]))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(NormalizationError):
            exp_series(PowerSeries([0.5, 1.0]))

    def test_roundtrip_fixed_seed(self, rng):
        for _ in range(25):
            s = PowerSeries(tail_bounded_coeffs(rng, 64, head=1.0))
            back = exp_series(log_series(s))
            assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-10
            t = PowerSeries(tail_bounded_coeffs(rng, 64, head=0.0))
            back = log_series(exp_series(t))
            assert np.max(np.abs(back.coeffs - t.coeffs)) < 1e-10

    def test_pow_zero_exponent(self):
        s = geometric(6)
        out = pow_series(s, 0.0)
        assert np.allclose(out.coeffs, [1, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_pow_two_matches_square(self):
        # Oracle: coefficients of (1-z)^(-2) are n + 1.
        n = 12
        out = pow_series(geometric(n), 2.0)
        assert np.allclose(out.coeffs, np.arange(1, n + 2), atol=1e-12)
        assert abs(out[2] - 3) < 1e-12

    def test_pow_complex_exponent_regression(self):
        # ((1-z)^(-2))^((1-i)/2) = (1-z)^(-(1-i)); linear coefficient 1 - i.
        base = pow_series(PowerSeries([1, -1], order=10), -2.0)
        out = pow_series(base, (1 - 1j) / 2)
        assert abs(out[1] - (1 - 1j)) < 1e-12
        oracle = binomial_negative_power(1 - 1j, 10)
        assert np.allclose(out.coeffs, oracle, atol=1e-11)

    def test_pow_integer_matches_repeated_mul(self, rng):
        for c in (2, 3):
            s = PowerSeries(tail_bounded_coeffs(rng, 24, head=1.0))
            direct = s
            for _ in range(c - 1):
                direct = direct * s
            assert np.max(np.abs(pow_series(s, c).coeffs - direct.coeffs)) < 1e-12

    def test_pow_binomial_recurrence_random_exponents(self, rng):
        one_minus_z = PowerSeries([1, -1], order=64)
        for _ in range(10):
            c = (rng.random() * 2 - 1) * 3 + 1j * (rng.random() * 2 - 1) * 3
            if abs(c) > 3:
                c = c * (3 / abs(c))
            out = pow_series(one_minus_z, -c)
            oracle = binomial_negative_power(c, 64)
            assert np.allclose(out.coeffs, oracle, rtol=1e-10, atol=1e-10)

    def test_pow_rows_batch_matches_binomial_oracle(self, rng):
        # Row k is (1 - z)^(-c_k) raised to mu, i.e. (1 - z)^(-mu c_k).  Each
        # coefficient is checked relative to itself: at order 512 the batched
        # log recurrence this replaced was off by 2e-10, the Toeplitz forward
        # substitution by at most 8e-13 here.
        mu = 0.6 - 0.3j
        cs = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
        for order in (40, 256, 512):
            rows = np.array([binomial_negative_power(c, order) for c in cs])
            out = pow_rows(rows, mu)
            for c, got in zip(cs, out):
                want = binomial_negative_power(mu * c, order)
                assert np.allclose(got, want, rtol=1e-12, atol=0), (order, c)

    def test_pow_rows_names_the_first_bad_constant(self):
        rows = np.array([[1.0, 0.5], [2.0, 1.0], [3.0, 0.0]])
        with pytest.raises(NormalizationError, match=r"got \(2\+0j\)"):
            pow_rows(rows, 0.5)


class TestDivide:
    def test_geometric(self):
        out = divide(PowerSeries.constant(1.0, 10), PowerSeries([1, -1], order=10))
        assert np.allclose(out.coeffs, np.ones(11), atol=1e-14)

    def test_rejects_zero_constant(self):
        with pytest.raises(ZeroDivisionError):
            divide(PowerSeries([1, 1]), PowerSeries([0, 1]))

    @pytest.mark.parametrize("order", [63, 64, 65, 129, 512])
    def test_blocked_solve_matches_the_coefficient_loop(self, rng, order):
        # Orders at, around and across the 64-coefficient blocks, and a
        # dividend longer than the divisor (the quotient takes the shorter).
        for head, extra in ((1.0, 0), (0.6 - 0.8j, 3)):
            t = PowerSeries(tail_bounded_coeffs(rng, order, head, tail_budget=0.4))
            s = PowerSeries(rng.standard_normal(order + 1 + extra)
                            + 1j * rng.standard_normal(order + 1 + extra))
            want = coefficient_loop_divide(s, t)
            got = divide(s, t).coeffs
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [0, 63, 64, 65, 129, 512])
    def test_division_by_one_is_exact(self, rng, order):
        s = PowerSeries(rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        assert np.array_equal(divide(s, PowerSeries.constant(1, order)).coeffs, s.coeffs)

    def test_log_derivative_ratio_koebe(self):
        # Oracle: z k'(z)/k(z) = (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
        n = 16
        koebe = pow_series(PowerSeries([1, -1], order=n - 1), -2.0).times_z()
        q = log_derivative_ratio(koebe)
        expected = np.full(n, 2.0)
        expected[0] = 1.0
        assert np.allclose(q.coeffs, expected, atol=1e-12)


# ------------------------------------------------------------ property tests

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
coeff_lists = st.lists(st.tuples(finite, finite), min_size=1, max_size=12)


def _mk(pairs):
    return PowerSeries([complex(re, im) for re, im in pairs])


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(pa, pb, pc):
    a, b, c = _mk(pa), _mk(pb), _mk(pc)
    n = min(a.order, b.order, c.order)
    lhs = ((a + b) + c).coeffs[: n + 1]
    rhs = (a + (b + c)).coeffs[: n + 1]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = ((a * b) * c).coeffs[: n + 1]
    rhs = (a * (b * c)).coeffs[: n + 1]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = (a * (b + c)).coeffs[: n + 1]
    rhs = ((a * b) + (a * c)).coeffs[: n + 1]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8), st.integers(0, 40))
def test_exp_log_roundtrip_property(pairs, order):
    tail = np.array([complex(re, im) for re, im in pairs])
    scale = 0.6 / max(np.abs(tail).sum(), 1.0)
    s = PowerSeries(np.concatenate([[1.0], tail * scale]), order=order + len(pairs))
    back = exp_series(log_series(s))
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-10
