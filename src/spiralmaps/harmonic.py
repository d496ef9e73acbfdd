"""Planar harmonic mappings f = h + conj(g) of the unit disk.

A map is specified by the tail coefficients of its analytic part h
(indices n = 2..N; the leading coefficient of h is fixed to 1 and never
stored) and the coefficients of its co-analytic part g (indices n = 1..N).
Catalog entries whose coefficients do not decay carry closed-form
evaluators that override the truncated series near the boundary.

Grid scans sample an annulus r_min <= |z| <= r_max < 1.  A small disk
around the origin is excluded because Df/f has a direction-dependent limit
at 0, and every criterion checked here quantifies over the punctured disk.

Pass rule, eps = ``GridSpec.margin_eps``: the Jacobian and |f| pass when
their minimum is > eps, spiral margins and unimodular-family minima when it
is > -eps.  The witness is the first grid point, in radius-major order, that
attains the minimum.  :class:`GridField` evaluates h, g, h', g' once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries

#: Tolerance used when validating the sign-restricted coefficient shape.
SIGN_SHAPE_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point outside the open unit disk."""


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """Closed-form evaluators h, g, h', g' for a catalog map.

    Each callable maps a complex ndarray inside the disk to a complex
    ndarray.  Used instead of the truncated series wherever coefficients do
    not decay, so that checks near |z| = 1 are not polluted by truncation.
    """

    name: str
    h: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    dh: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)


def _pad_coeffs(values, length: int, what: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{what} coefficients must form a flat sequence")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {what} coefficient rejected")
    if arr.size > length:
        raise ValueError(
            f"{what} coefficients exceed the truncation order "
            f"({arr.size} entries, room for {length})"
        )
    out = np.zeros(length, dtype=np.complex128)
    out[: arr.size] = arr
    return out


@dataclass(frozen=True, eq=False)
class HarmonicMapSpec:
    """Coefficient data for f = h + conj(g).

    ``a[k]`` is the coefficient of z^(k+2) in h, ``b[k]`` the coefficient of
    z^(k+1) in g.  ``signed_form=True`` asserts the sign-restricted shape
    (every a_n real and <= 0, every b_n real); the checks gated on this flag
    consume coefficient magnitudes only, which is why a real b_n of either
    sign is admitted (e.g. the extremal map z - c*conj(z)).
    """

    a: np.ndarray
    b: np.ndarray
    truncation_order: int
    signed_form: bool = False
    closed_form: Optional[ClosedForm] = None

    def __post_init__(self):
        n = int(self.truncation_order)
        if n < 1:
            raise ValueError("truncation order must be at least 1")
        a = _pad_coeffs(self.a, n - 1, "analytic-part")
        b = _pad_coeffs(self.b, n, "co-analytic-part")
        if self.signed_form:
            if np.any(np.abs(a.imag) > SIGN_SHAPE_TOL) or np.any(
                a.real > SIGN_SHAPE_TOL
            ):
                raise ValueError(
                    "signed form requires real nonpositive analytic-part coefficients"
                )
            if np.any(np.abs(b.imag) > SIGN_SHAPE_TOL):
                raise ValueError("signed form requires real co-analytic coefficients")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "truncation_order", n)

    # -------------------------------------------------------- coefficient views

    def h_coefficients(self) -> np.ndarray:
        """Coefficients of h, indices 0..N (h_0 = 0, h_1 = 1)."""
        return np.concatenate([[0.0, 1.0], self.a])

    def g_coefficients(self) -> np.ndarray:
        """Coefficients of g, indices 0..N (g_0 = 0)."""
        return np.concatenate([[0.0], self.b])

    def h_series(self) -> PowerSeries:
        return PowerSeries(self.h_coefficients())

    def g_series(self) -> PowerSeries:
        return PowerSeries(self.g_coefficients())

    def a_coeff(self, n: int) -> complex:
        """Coefficient a_n of h, n >= 1 (a_1 is identically 1)."""
        if n == 1:
            return 1.0 + 0.0j
        return complex(self.a[n - 2])

    def b_coeff(self, n: int) -> complex:
        """Coefficient b_n of g, n >= 1."""
        return complex(self.b[n - 1])


def signed_shape(a, b) -> bool:
    """True when the coefficients fit the strict sign-restricted class shape."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return bool(
        np.all(np.abs(a.imag) <= SIGN_SHAPE_TOL)
        and np.all(a.real <= SIGN_SHAPE_TOL)
        and np.all(np.abs(b.imag) <= SIGN_SHAPE_TOL)
        and np.all(b.real >= -SIGN_SHAPE_TOL)
    )


def identity_map(order: int = DEFAULT_ORDER) -> HarmonicMapSpec:
    """The identity f(z) = z."""
    return HarmonicMapSpec(a=[], b=[], truncation_order=order, signed_form=True)


@dataclass(frozen=True)
class GridSpec:
    """Annulus sampling plan for the pointwise (strict-inequality) checks."""

    r_min: float = 1e-3
    r_max: float = 0.99
    n_radii: int = 40
    n_angles: int = 256
    margin_eps: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.r_min < 1.0:
            raise ValueError("r_min must lie in (0, 1)")
        if not self.r_min < self.r_max < 1.0:
            raise ValueError("r_max must lie in (r_min, 1)")
        if self.n_radii < 1:
            raise ValueError("need at least one radius")
        if self.n_angles < 8:
            raise ValueError("need at least 8 angles")
        if self.margin_eps < 0.0:
            raise ValueError("margin_eps must be nonnegative")


def grid_points(grid: GridSpec) -> np.ndarray:
    """Flattened complex sample points r_i * exp(i theta_j)."""
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    angles = np.exp(2j * np.pi * np.arange(grid.n_angles) / grid.n_angles)
    return (radii[:, None] * angles[None, :]).ravel()


@dataclass(frozen=True)
class ScanResult:
    """Minimum of a grid-sampled quantity together with its witness point."""

    min_value: float
    witness: complex
    passed: bool

    @classmethod
    def minimum(cls, values: np.ndarray, points: np.ndarray, threshold: float):
        """Minimum of ``values``, the first point attaining it, and whether it
        exceeds ``threshold``."""
        k = int(np.argmin(values))
        return cls(float(values[k]), complex(points[k]), bool(values[k] > threshold))


# ---------------------------------------------------------------- evaluation


def _as_points(z) -> tuple[np.ndarray, bool]:
    zarr = np.asarray(z, dtype=np.complex128)
    scalar = zarr.ndim == 0
    if scalar:
        zarr = zarr.reshape(1)
    if not np.all(np.isfinite(zarr)):
        raise ValueError("non-finite evaluation point rejected")
    return zarr, scalar


def _values(m: HarmonicMapSpec, z, part: str):
    zarr, scalar = _as_points(z)
    if m.closed_form:
        out = getattr(m.closed_form, part)(zarr)
    else:
        series = m.h_series() if part.endswith("h") else m.g_series()
        out = (series.differentiate() if part.startswith("d") else series).evaluate(zarr)
    return complex(out[0]) if scalar else out


def h_values(m: HarmonicMapSpec, z) -> np.ndarray:
    return _values(m, z, "h")


def g_values(m: HarmonicMapSpec, z) -> np.ndarray:
    return _values(m, z, "g")


def dh_values(m: HarmonicMapSpec, z) -> np.ndarray:
    return _values(m, z, "dh")


def dg_values(m: HarmonicMapSpec, z) -> np.ndarray:
    return _values(m, z, "dg")


def _require_in_disk(z):
    zarr, _ = _as_points(z)
    if np.any(np.abs(zarr) >= 1.0):
        worst = zarr[np.argmax(np.abs(zarr))]
        raise DomainError(f"point {worst} lies outside the open unit disk")


def eval_f(m: HarmonicMapSpec, z):
    """f(z) = h(z) + conj(g(z)) for |z| < 1."""
    _require_in_disk(z)
    return h_values(m, z) + np.conj(g_values(m, z))


def d_operator(m: HarmonicMapSpec, z):
    """Df(z) = z f_z - conj(z) f_zbar = z h'(z) - conj(z g'(z)) for |z| < 1."""
    _require_in_disk(z)
    zarr = np.asarray(z, dtype=np.complex128)
    return zarr * dh_values(m, z) - np.conj(zarr * dg_values(m, z))


def jacobian(m: HarmonicMapSpec, z):
    """J_f(z) = |h'(z)|^2 - |g'(z)|^2 for |z| < 1."""
    _require_in_disk(z)
    out = np.abs(dh_values(m, z)) ** 2 - np.abs(dg_values(m, z)) ** 2
    return float(out) if np.ndim(out) == 0 else out


def pair_d_operator(h: PowerSeries, g: PowerSeries, z):
    """Df for an arbitrary analytic series pair (no class normalization)."""
    zarr = np.asarray(z, dtype=np.complex128)
    return zarr * h.differentiate().evaluate(z) - np.conj(
        zarr * g.differentiate().evaluate(z)
    )


# ---------------------------------------------------------------- grid scans


class GridField:
    """f, phase * Df and the Jacobian and |f| scans of one map on one grid.

    The products run in place to bound the live grid-sized arrays; they keep
    the operand order of the plain expressions, so the bits are the same."""

    def __init__(self, m: HarmonicMapSpec, grid: GridSpec, phase: complex = 1.0):
        z = self.points = grid_points(grid)
        self.grid = grid
        self.f = h_values(m, z) + np.conj(g_values(m, z))
        self.nonvanishing = ScanResult.minimum(np.abs(self.f), z, grid.margin_eps)
        dh = dh_values(m, z)
        dg = dg_values(m, z)
        self.sense_preserving = ScanResult.minimum(
            np.abs(dh) ** 2 - np.abs(dg) ** 2, z, grid.margin_eps
        )
        np.multiply(z, dh, out=dh)
        np.multiply(z, dg, out=dg)
        np.subtract(dh, np.conj(dg, out=dg), out=dh)
        self.rot_df = np.multiply(phase, dh, out=dh)


def sense_preserving_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum Jacobian over the grid; passes when it clears margin_eps."""
    return GridField(m, grid).sense_preserving


def nonvanishing_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum |f| over the grid (origin excluded by construction)."""
    return GridField(m, grid).nonvanishing
