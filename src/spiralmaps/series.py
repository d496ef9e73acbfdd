"""Truncated complex power series arithmetic.

A :class:`PowerSeries` stores the coefficients ``c[0] .. c[N]`` of
``sum_k c_k z^k`` as complex floats, where ``N`` is the truncation order.
Binary operations truncate to the smaller operand order, so a result is
always exact to the order it claims.

Division and ``log`` share one blocked lower-triangular Toeplitz solve
(:func:`_toeplitz_solve`): ``s / t`` solves T(t) q = s, and ``log s`` is the
integral of ``s'/s`` (Brent & Kung, "Fast algorithms for manipulating formal
power series", J. ACM 1978).  ``exp`` runs the formal ODE recurrence
``n E_n = sum_j j s_j E_{n-j}`` coefficient by coefficient, which keeps every
coefficient accurate relative to itself (the 1/n! of ``exp(z)``), and
``pow`` is ``exp(mu log)``.  No branch tracking is needed: :func:`log_series`
requires constant term 1 and :func:`exp_series` constant term 0, which pins
the principal branch.  :func:`pow_rows` raises a batch of coefficient rows
to one power, every row at once: ``log`` by forward substitution in the
Toeplitz system of ``s'/s``, ``exp`` by its recurrence.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Default truncation order for constructors that do not receive one.
DEFAULT_ORDER = 64

#: Cap on a truncation order read from the command line or a map file: 8x the
#: largest order the tests and benchmark use (512).
MAX_ORDER = 4096

#: Tolerance for the constant-term preconditions of log/exp/pow.
NORMALIZATION_TOL = 1e-12


class NormalizationError(ValueError):
    """A constant-term precondition (c0 = 1 for log, c0 = 0 for exp) failed."""


def _coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coefficient rejected")
    return arr


class PowerSeries:
    """Immutable truncated power series with complex coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs, order: int | None = None):
        arr = _coeff_array(coeffs)
        if arr.size == 0:
            raise ValueError("a series needs at least its constant coefficient")
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be nonnegative")
            padded = np.zeros(order + 1, dtype=np.complex128)
            keep = min(arr.size, order + 1)
            padded[:keep] = arr[:keep]
            arr = padded
        else:
            arr = arr.copy()
        arr.flags.writeable = False
        self._c = arr

    # ------------------------------------------------------------------ data

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array of length ``order + 1``."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __getitem__(self, k: int) -> complex:
        return complex(self._c[k])

    def __len__(self) -> int:
        return self._c.size

    def __repr__(self) -> str:
        return f"PowerSeries({self._c.tolist()!r})"

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The monomial ``z`` at the given truncation order (order >= 1)."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[1] = 1.0
        return cls(c)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(self._c[: n + 1] + other._c[: n + 1])

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(self._c[: n + 1] - other._c[: n + 1])

    def __neg__(self):
        return PowerSeries(-self._c)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(np.convolve(self._c, other._c)[: n + 1])
        scalar = complex(other)
        if not np.isfinite(scalar):
            raise ValueError("non-finite scalar factor rejected")
        return PowerSeries(self._c * scalar)

    def __rmul__(self, other):
        return self.__mul__(other)

    def differentiate(self) -> "PowerSeries":
        """Termwise derivative; the result has order N - 1.

        Raises ValueError on an order-0 series (the derivative would be
        empty).
        """
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series: empty derivative")
        return PowerSeries(derivative_coefficients(self._c))

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial (:func:`horner` of
        its one row).

        Accepts a complex scalar or ndarray.  The series approximates its
        analytic parent only for |z| <= 1; this is documented, not enforced.
        """
        out = horner([self._c], z)[0]
        return complex(out) if out.ndim == 0 else out

    __call__ = evaluate

    # ----------------------------------------------------------- index shifts

    def divided_by_z(self) -> "PowerSeries":
        """Drop the (required ~0) constant term; order decreases by one."""
        if abs(self._c[0]) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"series has constant term {self._c[0]}, cannot divide by z"
            )
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by z")
        return PowerSeries(self._c[1:])

    def times_z(self) -> "PowerSeries":
        """Prepend a zero constant term; order increases by one."""
        return PowerSeries(np.concatenate([np.zeros(1, dtype=np.complex128), self._c]))


def derivative_coefficients(c: np.ndarray) -> np.ndarray:
    """The termwise derivative's coefficients k c_k, k = 1 .. len(c) - 1."""
    return c[1:] * np.arange(1, c.size)


def horner(rows, z) -> np.ndarray:
    """Values at ``z`` of the polynomials whose coefficients c_0, c_1, ...
    are the ``rows``, which may differ in length: shape (len(rows),
    *np.shape(z)).  Raises ValueError on a non-finite point.

    One Horner loop runs over the rows stacked as the columns of a matrix
    zero-padded at the high end.  Each row starts at its own top coefficient
    rather than at a padded zero, which could turn a top coefficient of -0.0
    into +0.0, so every row gets the bits of its own evaluation.
    """
    zarr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zarr)):
        raise ValueError("non-finite evaluation point rejected")
    tops = {}  # column -> the shorter rows whose top coefficient it holds
    if len(rows) == 1:  # scalar coefficients: numpy adds them faster than one-value arrays
        cols = np.asarray(rows[0], dtype=np.complex128)
        acc = np.full(zarr.shape, cols[-1])
    else:
        c = np.zeros((max(len(row) for row in rows), len(rows)), dtype=np.complex128)
        for i, row in enumerate(rows):
            c[: len(row), i] = row
            if len(row) < len(c):
                tops.setdefault(len(row) - 1, []).append(i)
        cols = c.reshape(c.shape + (1,) * zarr.ndim)
        acc = np.full((len(rows),) + zarr.shape, cols[-1])
    done = len(cols) - 1  # acc holds the Horner sums from column done up
    for top in sorted(tops.keys() | {0}, reverse=True):
        for ck in cols[top:done][::-1]:
            acc = acc * zarr + ck
        if top in tops:
            acc[tops[top]] = cols[top][tops[top]]
        done = top
    return acc.reshape((len(rows),) + zarr.shape)


def _batch_dot(buf: np.ndarray):
    """Inner products over the first axis, every column at once: the terms
    go into ``buf`` (at least as long as the operands), then one
    ``np.add.reduce`` over that axis."""

    def dot(a, b):
        return np.add.reduce(np.multiply(a, b, out=buf[: len(a)]), axis=0)

    return dot


def _require_constant(c: np.ndarray, value: int, what: str) -> None:
    c0 = np.atleast_1d(c[..., 0])
    bad = np.abs(c0 - value) > NORMALIZATION_TOL
    if bad.any():
        raise NormalizationError(f"{what} needs constant term {value}, got {c0[bad][0]}")


#: Coefficients per block of the triangular Toeplitz solve (:func:`_toeplitz_solve`).
_BLOCK = 64


def _windows(a: np.ndarray, start: int, rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) view of the 1-D array ``a`` with [i, j] =
    a[start + i + j].  Its strides are not BLAS's, so a product with it sums
    in numpy's own order, the same on every machine."""
    step = a.strides[0]
    return as_strided(a[start:], shape=(rows, cols), strides=(step, step), writeable=False)


def _toeplitz_solve(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """q with T(t) q = s, for 1-D t and s of one length and t[0] != 0, where
    T(t) is the lower-triangular Toeplitz matrix of t: the coefficients of
    the series quotient s / t.

    The solve runs in blocks of ``_BLOCK`` coefficients.  1/t is computed to
    one block's length once, coefficient by coefficient.  Each block of q
    then subtracts the share of the earlier coefficients with one product of
    windows of t (row k + i of T(t) meets q[k - 1], ..., q[0] with
    t[i + 1 : i + 1 + k]) and the reversed history, and applies the
    triangular Toeplitz matrix of 1/t, which inverts the block's own part of
    T(t), as windows of the zero-padded inverse times the reversed block.
    The products sum in another order than a coefficient-by-coefficient
    solve, so the two agree to rounding, not bit for bit.
    """
    size = min(_BLOCK, s.size)
    padded = np.zeros(2 * size - 1, dtype=np.complex128)  # size - 1 zeros, then 1/t
    inv = padded[size - 1 :]
    inv[0] = 1.0 / t[0]
    # head[size - 1 - j] = t[j], so that np.dot reads t[k], ..., t[1] forward
    # (it copies a reversed operand before it sums).
    head = np.ascontiguousarray(t[size - 1 :: -1])
    for k in range(1, size):
        inv[k] = -np.dot(inv[:k], head[size - 1 - k : size - 1]) / t[0]
    # solve[size - b + i, j] = (1/t)[i - (b - 1 - j)]: its last b rows and
    # first b columns, times the reversed block, apply the triangular
    # Toeplitz matrix of 1/t to a block of b coefficients.
    solve = _windows(padded, 0, size, size)
    out = np.empty(s.size, dtype=np.complex128)
    for k in range(0, s.size, size):
        b = min(size, s.size - k)
        rhs = s[k : k + b]
        if k:
            rhs = rhs - _windows(t, 1, b, k) @ out[k - 1 :: -1]
        out[k : k + b] = solve[size - b :, :b] @ rhs[::-1]
    return out


def _log(c: np.ndarray) -> np.ndarray:
    """log of one series (1-D c) or of each row of a batch (2-D c).

    log s is the integral of s'/s, so L_n = q_{n-1}/n with q the quotient
    s'/s: T(s) q = (k s_k), k = 1 .. N, with T(s) the lower-triangular
    Toeplitz matrix of s.  One series solves it with :func:`_toeplitz_solve`;
    a batch by forward substitution, coefficient by coefficient, every row
    at once (its rows are short: the unimodular family checks run it at
    orders up to 64).
    """
    _require_constant(c, 1, "log")
    out = np.zeros_like(c)
    n = c.shape[-1] - 1
    if not n:
        return out
    k = np.arange(1, n + 1)
    if c.ndim == 1:
        out[1:] = _toeplitz_solve(c[:n], c[1:] * k) / k
        return out
    # On the transposes, scaled to s_0 = 1: T(s/s_0) q = (k s_k / s_0), so
    # that c[m] is coefficient m of every row and q[m] its q_m, and reversed,
    # rev[n - j] = c[j], so that c[m], ..., c[1] is a forward slice.
    c = np.ascontiguousarray(c.T / c[:, 0])
    rev = np.ascontiguousarray(c[:0:-1])
    q = k[:, None] * c[1:]  # the right-hand side, overwritten by q
    dot = _batch_dot(np.empty_like(q))
    for m in range(1, n):
        q[m] -= dot(rev[n - m :], q[:m])
    out[:, 1:] = (q / k[:, None]).T
    return out


# _exp takes c of shape (..., N + 1): one series or a leading batch of rows.
# It runs on the transposes, so that js[n] is coefficient n of every row and,
# for one series, a numpy scalar: there the loop is the plain one-series loop
# with np.dot, bit for bit and as fast (indexing c[..., n] directly gives 0-d
# arrays, about 1.5x slower).  The only choice by rank is the inner product,
# for a batch :func:`_batch_dot` over contiguous transposes.  The output is
# built back to front, so that E_{n-1}, ..., E_0 is a forward slice: np.dot
# copies a reversed operand before it sums.  The products and their order
# are those of a front-to-back loop, so the bits are too.


def _exp(c: np.ndarray) -> np.ndarray:
    _require_constant(c, 0, "exp")
    js = np.ascontiguousarray((np.arange(c.shape[-1]) * c).T)  # js[j] = j * s_j
    dot = np.dot if c.ndim == 1 else _batch_dot(np.empty_like(js))
    n = len(js) - 1
    rev = np.zeros_like(js)  # rev[n - m] = E_m
    rev[n] = 1.0
    for m in range(1, n + 1):
        rev[n - m] = dot(js[1 : m + 1], rev[n - m + 1 :]) / m
    return np.ascontiguousarray(rev[::-1].T)


def log_series(s: PowerSeries) -> PowerSeries:
    """Formal logarithm of a series with constant term 1.

    Integrates ``L' = s'/s`` from L(0) = 0, which pins the principal branch;
    the quotient is one blocked Toeplitz solve.  ``exp_series(log_series(s))
    == s`` to the truncation order.
    """
    return PowerSeries(_log(s.coeffs))


def exp_series(s: PowerSeries) -> PowerSeries:
    """Formal exponential of a series with constant term 0.

    Produces the unique E with E(0) = 1 solving ``E' = s' E``
    coefficientwise.
    """
    return PowerSeries(_exp(s.coeffs))


def _exponent(mu) -> complex:
    mu = complex(mu)
    if not np.isfinite(mu):
        raise ValueError("non-finite exponent rejected")
    return mu


def pow_series(s: PowerSeries, mu) -> PowerSeries:
    """``s ** mu`` for complex mu, as ``exp(mu * log(s))``; needs s(0) = 1."""
    return exp_series(_exponent(mu) * log_series(s))


def pow_rows(rows, mu) -> np.ndarray:
    """:func:`pow_series` of every coefficient row of ``rows`` (shape
    (S, N + 1), each with constant term 1), as one batched recurrence."""
    return _exp(_exponent(mu) * _log(np.asarray(rows, dtype=np.complex128)))


def divide(s: PowerSeries, t: PowerSeries) -> PowerSeries:
    """Series quotient s / t; the divisor needs a nonzero constant term.

    q = s / t solves T(t) q = s, with T(t) the lower-triangular Toeplitz
    matrix of t, by the blocked solve :func:`_toeplitz_solve`.
    """
    n = min(s.order, t.order)
    tc = t.coeffs[: n + 1]
    if abs(tc[0]) <= NORMALIZATION_TOL:
        raise ZeroDivisionError("series division by a series with ~0 constant term")
    return PowerSeries(_toeplitz_solve(tc, s.coeffs[: n + 1]))


def log_derivative_ratio(s: PowerSeries) -> PowerSeries:
    """The series of ``z s'(z) / s(z)`` for s with s(0) = 0 and s'(0) != 0.

    Both numerator and denominator share a factor z, so the quotient exists
    as a series with constant term 1; the result has order N - 1.
    """
    c = s.coeffs
    if abs(c[0]) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"log-derivative ratio needs a root at 0, got constant term {c[0]}"
        )
    if s.order < 1 or abs(c[1]) <= NORMALIZATION_TOL:
        raise NormalizationError("log-derivative ratio needs a simple root at 0")
    num = PowerSeries(derivative_coefficients(c))  # (z s')/z
    den = PowerSeries(c[1:])      # s/z
    return divide(num, den)
