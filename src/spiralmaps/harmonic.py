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
attains the minimum.

:class:`GridField` walks the grid in blocks of rings and evaluates h, g, h',
g' once per point.  Closed forms, off-grid points and grids of at most
``FFT_MIN_POINTS`` points go through the closed form or Horner
(:meth:`PowerSeries.evaluate`); Horner is kept there only so that the
default-grid reports stay byte-identical to the golden files.  A
series-backed map on a larger grid is evaluated ring by ring with an inverse
FFT (:func:`ring_values`), which agrees with Horner to within
1e-12 * sum |c_n| r^n on every ring.  The unimodular-family scans
(``criteria.family_scan``) evaluate series-backed members with the FFT on
every grid, walking :func:`ring_blocks` so that each block of rings holds
about ``BLOCK_POINTS`` values whatever the number of members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries

#: Tolerance used when validating the sign-restricted coefficient shape.
SIGN_SHAPE_TOL = 1e-12

#: Grids with more points than this evaluate series-backed maps by FFT.  At
#: or below it numpy elides no complex temporaries, so Horner gives stable
#: bits; the FFT would move witnesses of rounding-level ties there.
FFT_MIN_POINTS = 16384

#: Points per block of rings in :class:`GridField` (at least one ring).
BLOCK_POINTS = 16384


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
        if not 0.0 <= self.margin_eps < math.inf:
            raise ValueError("margin_eps must be finite and nonnegative")


def _grid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    angles = np.exp(2j * np.pi * np.arange(grid.n_angles) / grid.n_angles)
    return radii, angles


def grid_points(grid: GridSpec) -> np.ndarray:
    """Flattened complex sample points r_i * exp(i theta_j)."""
    radii, angles = _grid_axes(grid)
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


def ring_blocks(grid: GridSpec, width: int = 1):
    """Yield (radii, points) for consecutive blocks of rings, radius-major like
    :func:`grid_points`, each of about ``BLOCK_POINTS // width`` points (at
    least one ring).  A scan holding ``width`` values per point then holds
    about ``BLOCK_POINTS`` values per block, whatever the grid."""
    radii, angles = _grid_axes(grid)
    step = max(1, BLOCK_POINTS // (width * angles.size))
    for i in range(0, radii.size, step):
        r = radii[i : i + step]
        yield r, (r[:, None] * angles[None, :]).ravel()


def ring_values(rows, radii, n_angles: int) -> np.ndarray:
    """Values of the series with coefficient rows ``rows`` (shape (S, L)) at
    r e^{2 pi i j / n_angles} for r in ``radii``: shape (S, R * n_angles),
    radius-major like :func:`grid_points`.

    On the ring |z| = r a series is the inverse DFT of c_n r^n with n folded
    mod n_angles, so one batched FFT evaluates every row on every ring.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    radii = np.asarray(radii, dtype=np.float64)
    spectrum = np.zeros((rows.shape[0], radii.size, n_angles), dtype=np.complex128)
    for k in range(0, rows.shape[1], n_angles):
        c = rows[:, None, k : k + n_angles]
        spectrum[..., : c.shape[2]] += c * radii[:, None] ** np.arange(k, k + c.shape[2])
    out = np.fft.ifft(spectrum.reshape(-1, n_angles), axis=1, norm="forward")
    return out.reshape(rows.shape[0], -1)


def _field_rows(m: HarmonicMapSpec) -> np.ndarray:
    """Coefficient rows of h, g, h', g', each padded to N + 1 entries."""
    h, g = m.h_series(), m.g_series()
    rows = np.zeros((4, m.truncation_order + 1), dtype=np.complex128)
    for row, s in zip(rows, (h, g, h.differentiate(), g.differentiate())):
        row[: len(s)] = s.coeffs
    return rows


def _running_min(best: Optional[ScanResult], block: ScanResult) -> ScanResult:
    # A later block wins only when strictly smaller: the first minimiser stays.
    return block if best is None or block.min_value < best.min_value else best


class GridField:
    """The |f|, Jacobian, spiral quotient Re(phase Df/f) and two-modulus
    margin |f + phase Df| - |f - phase Df| scans of one map on one grid.

    The rings are walked in blocks of about ``BLOCK_POINTS`` points and only
    the running minima are kept, so memory does not grow with ``n_radii``.
    ``pointwise`` is None exactly when min |f| < margin_eps; the quotient is
    not formed once |f| has dipped below it.  Within a block the products run
    in place and keep the operand order of the plain expressions, so a grid
    of at most ``FFT_MIN_POINTS`` points gives the bits of those expressions
    evaluated on the whole grid."""

    def __init__(self, m: HarmonicMapSpec, grid: GridSpec, phase: complex = 1.0):
        self.grid = grid
        self.phase = phase
        self.nonvanishing = self.sense_preserving = self.pointwise = self.margin = None
        rows = None
        if m.closed_form is None and grid.n_radii * grid.n_angles > FFT_MIN_POINTS:
            rows = _field_rows(m)
        for r, z in ring_blocks(grid):
            if rows is None:
                # On demand, so h, g are dropped before h', g' exist; the names
                # are looked up per call, so wrappers set on the module see each call.
                part = lambda k, z=z: (h_values, g_values, dh_values, dg_values)[k](m, z)
            else:
                part = ring_values(rows, r, grid.n_angles).__getitem__
            self._scan_block(z, part)
        if self.nonvanishing.min_value < grid.margin_eps:
            self.pointwise = None

    def _scan_block(self, z, part):
        eps = self.grid.margin_eps
        f = part(0) + np.conj(part(1))
        self.nonvanishing = _running_min(
            self.nonvanishing, ScanResult.minimum(np.abs(f), z, eps)
        )
        dh, dg = part(2), part(3)
        self.sense_preserving = _running_min(
            self.sense_preserving,
            ScanResult.minimum(np.abs(dh) ** 2 - np.abs(dg) ** 2, z, eps),
        )
        np.multiply(z, dh, out=dh)
        np.multiply(z, dg, out=dg)
        np.subtract(dh, np.conj(dg, out=dg), out=dh)
        rot_df = np.multiply(self.phase, dh, out=dh)
        if self.nonvanishing.min_value >= eps:
            self.pointwise = _running_min(
                self.pointwise, ScanResult.minimum(np.real(rot_df / f), z, -eps)
            )
        margin = np.abs(f + rot_df) - np.abs(f - rot_df)
        self.margin = _running_min(self.margin, ScanResult.minimum(margin, z, -eps))


def sense_preserving_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum Jacobian over the grid; passes when it clears margin_eps."""
    return GridField(m, grid).sense_preserving


def nonvanishing_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum |f| over the grid (origin excluded by construction)."""
    return GridField(m, grid).nonvanishing
