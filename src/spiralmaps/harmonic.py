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
attains the minimum, or the first NaN (which fails), as for ``np.argmin``.

:class:`GridField` walks the grid in blocks of rings and feeds one scan
kernel: a series-backed map through the FFT, a closed form directly.
Horner (:meth:`PowerSeries.evaluate`) serves only points off the grid.  When
n_angles is a multiple of 4 the grid's axis points are exact, as the FFT's
angles 2 pi j / n_angles are: ``exp(i pi / 2)`` is off the imaginary axis by
6e-17, where 2 Re z reads 1e-19 and not the 0 the scan reports.  Grids hold
at most ``MAX_GRID_POINTS`` points and ``MAX_ANGLES`` angles.  Both
unimodular-family checks run one scan, ``criteria.family_scan``: it evaluates
members (series-backed ones with the FFT too) in chunks times blocks of rings
of about ``BLOCK_POINTS`` values, and on a ring only where lower bounds on the
member there leave it in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries

#: Tolerance used when validating the sign-restricted coefficient shape.
SIGN_SHAPE_TOL = 1e-12

#: Points per block of rings in :class:`GridField` (at least one ring).
BLOCK_POINTS = 16384

#: Cap on n_radii * n_angles: 20x the largest grid the tests and benchmark
#: use (400x2048), so that the radius axis stays small.
MAX_GRID_POINTS = 2**24

#: Cap on n_angles: 32x the most the tests and benchmark use (2048).  A block
#: holds at least one ring, so this keeps a block within 4 * BLOCK_POINTS
#: points; without it one long ring alone would allocate gigabytes.
MAX_ANGLES = 2**16


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
        if self.n_angles > MAX_ANGLES:
            raise ValueError(f"at most {MAX_ANGLES} angles, got {self.n_angles}")
        if self.n_radii * self.n_angles > MAX_GRID_POINTS:
            raise ValueError(
                f"at most {MAX_GRID_POINTS} grid points (radii x angles), "
                f"got {self.n_radii} x {self.n_angles}"
            )
        if not 0.0 <= self.margin_eps < math.inf:
            raise ValueError("margin_eps must be finite and nonnegative")


def grid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's radii and unit angle points; a grid point is their product."""
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    angles = np.exp(2j * np.pi * np.arange(grid.n_angles) / grid.n_angles)
    if grid.n_angles % 4 == 0:  # the axis points exactly, as the FFT has them
        angles[:: grid.n_angles // 4] = [1, 1j, -1, -1j]
    return radii, angles


def grid_points(grid: GridSpec) -> np.ndarray:
    """Flattened complex sample points r_i * exp(i theta_j)."""
    radii, angles = grid_axes(grid)
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


def _block_rings(grid: GridSpec, width: int = 1) -> int:
    """Rings per block: about ``BLOCK_POINTS // width`` points, at least one
    ring, at most the whole grid."""
    return max(1, min(grid.n_radii, BLOCK_POINTS // (width * grid.n_angles)))


def ring_blocks(grid: GridSpec, width: int = 1):
    """Yield (radii, points) for consecutive blocks of rings, radius-major like
    :func:`grid_points`, each of about ``BLOCK_POINTS // width`` points (at
    least one ring).  A scan holding ``width`` values per point then holds
    about ``BLOCK_POINTS`` values per block, whatever the grid.  The points
    of every block are written into one buffer, so they are valid only until
    the next block is drawn."""
    radii, angles = grid_axes(grid)
    step = _block_rings(grid, width)
    points = np.empty(step * angles.size, dtype=np.complex128)
    for i in range(0, radii.size, step):
        r = radii[i : i + step]
        z = points[: r.size * angles.size]
        np.multiply(r[:, None], angles[None, :], out=z.reshape(r.size, angles.size))
        yield r, z


def _fold(spectrum, rows, powers) -> None:
    """Add rows[s, j] * powers[i, j] to spectrum[s, i, j mod n_angles].

    The product temporary holds S * R * min(L, n_angles) values for rows of
    shape (S, L) and R rings, a fraction L / n_angles of the spectrum when
    L < n_angles."""
    n_angles = spectrum.shape[-1]
    for k in range(0, rows.shape[1], n_angles):
        c = rows[:, None, k : k + n_angles]
        spectrum[..., : c.shape[2]] += c * powers[:, k : k + c.shape[2]]


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
    _fold(spectrum, rows, radii[:, None] ** np.arange(rows.shape[1]))
    out = np.fft.ifft(spectrum.reshape(-1, n_angles), axis=1, norm="forward")
    return out.reshape(rows.shape[0], -1)


def field_rows(m: HarmonicMapSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ring coefficients of f, Df/z and P/z of a series-backed map, where
    P = z h' + conj(z g'); see :func:`ring_fields`.

    On the ring z = r e^{i theta}, z^n = r^n e^{i n theta} and conj(z^n) =
    r^n e^{-i n theta}.  So f = h + conj(g) has h_n r^n at +n and conj(g_n) r^n
    at -n, while Df/z = h' - e^{-2 i theta} conj(g') and P/z = h' +
    e^{-2 i theta} conj(g') have n h_n r^(n-1) at n - 1 and -+n conj(g_n)
    r^(n-1) at -(n + 1).  Returned as three row sets: the +n terms of all
    three (column j scaled by r^j), the -n terms of f (column j by r^(j+1))
    and the -(n + 1) terms of Df/z and P/z (column j by r^(j-1); the first
    entry is 0).
    """
    h, g = m.h_coefficients(), np.conj(m.g_coefficients())
    n = np.arange(h.size)
    plus = np.zeros((3, h.size), dtype=np.complex128)
    plus[0] = h
    plus[1:, :-1] = n[1:] * h[1:]
    return plus, g[None, 1:], np.stack([-n * g, n * g])


def ring_fields(rows, radii, spectrum: np.ndarray) -> np.ndarray:
    """f, Df/z and P/z on the rings |z| = r for r in ``radii``, from the
    :func:`field_rows` ``rows``: shape (3, R * n_angles), radius-major like
    :func:`grid_points`.  ``spectrum``, a complex (3, R, n_angles) array, is
    overwritten.

    Index j of the reversed spectrum is -(j + 1) mod n_angles, so the terms
    at negative indices fold there as the +n terms fold into the spectrum
    itself, and three inverse FFTs per ring give the three fields.  Then
    Df = z (Df/z) and the Jacobian |h'|^2 - |g'|^2 is Re(P/z conj(Df/z)).
    Spectra of Df/z and P/z rather than of Df and P keep the Jacobian of a
    map with constant h' and g' exact (1 for the identity): Re(P conj(Df))
    / r^2 would carry the rounding of the FFT of z.
    """
    plus, minus_f, minus_d = rows
    powers = radii[:, None] ** np.arange(-1, plus.shape[1] + 1)  # r^-1 .. r^(N+1)
    spectrum.fill(0)
    back = spectrum[..., ::-1]
    _fold(spectrum, plus, powers[:, 1:])
    _fold(back[:1], minus_f, powers[:, 2:])
    _fold(back[1:], minus_d, powers)
    n_angles = spectrum.shape[-1]
    out = np.fft.ifft(spectrum.reshape(-1, n_angles), axis=1, norm="forward")
    return out.reshape(3, -1)


class GridField:
    """The |f|, Jacobian, spiral quotient Re(phase Df/f) and two-modulus
    margin |f + phase Df| - |f - phase Df| scans of one map on one grid.

    The rings are walked in blocks of about ``BLOCK_POINTS`` points (half
    that for a closed form) and only the running minima are kept, so memory
    does not grow with ``n_radii``.
    ``pointwise`` is None exactly when min |f| is not above margin_eps (NaN
    included); the quotient is not formed once |f| has dipped below it.

    One kernel, :meth:`_scan`, takes f, phase Df and the Jacobian of a block
    and merges the four minima; two producers feed it.  For a series-backed
    map, :func:`ring_fields` gives f, Df/z and P/z, P = z h' + conj(z g'),
    with three inverse FFTs per ring; the Jacobian is Re(P/z conj(Df/z)).
    They match Horner to within 1e-12 * sum (1 + n)(|h_n| + |g_n|) r^n for
    f and Df, and 1e-12 times the square of sum n (|h_n| + |g_n|) r^(n-1)
    for the Jacobian.  The spectra and real scratch live in one workspace
    allocated when the scan starts; per block only the FFT's output, the
    power table and the fold temporaries are new, the last up to
    3 R min(N + 1, n_angles) values for R rings and order N.

    A closed form is evaluated from h, g, h', g' on blocks of at most
    ``BLOCK_POINTS // 2`` points (or one ring), and its products run in place
    in the operand order of the plain expressions.  numpy computes an
    operator on a temporary of ``BLOCK_POINTS`` complex values (256 KiB) or
    more in place, swapping the operands of a complex product, which then
    rounds differently (FMA); below that size each point gets the bits that
    ring-by-ring evaluation gives it, whatever the grid."""

    def __init__(self, m: HarmonicMapSpec, grid: GridSpec, phase: complex = 1.0):
        self.grid = grid
        self.phase = phase
        self.nonvanishing = self.sense_preserving = self.pointwise = self.margin = None
        if m.closed_form is None:
            self._scan_rings(field_rows(m))
        else:
            for _, z in ring_blocks(grid, 2):
                self._scan_closed_form(m, z)

    def _merge(self, name: str, values, z, threshold: float) -> None:
        # A later block wins only when strictly smaller, or NaN where the best
        # is not, so the result is ScanResult.minimum over the whole grid.
        best, block = getattr(self, name), ScanResult.minimum(values, z, threshold)
        if best is None or not (block.min_value >= best.min_value or math.isnan(best.min_value)):
            setattr(self, name, block)

    def _scan(self, z, f, rot_df, jac, c, b):
        # f, phase Df and the Jacobian on the points z.  Once merged, jac is
        # real scratch, as are the complex c and the real b.
        eps = self.grid.margin_eps
        self._merge("sense_preserving", jac, z, eps)
        a = np.abs(f, out=jac)
        self._merge("nonvanishing", a, z, eps)
        if self.nonvanishing.min_value > eps:
            self._merge("pointwise", np.divide(rot_df, f, out=c).real, z, -eps)
        else:
            self.pointwise = None
        np.abs(np.add(f, rot_df, out=c), out=a)
        np.abs(np.subtract(f, rot_df, out=c), out=b)
        self._merge("margin", np.subtract(a, b, out=a), z, -eps)

    def _scan_closed_form(self, m, z):
        # The evaluators are module names looked up per call, so wrappers set
        # on the module see each call.
        f = h_values(m, z) + np.conj(g_values(m, z))
        dh, dg = dh_values(m, z), dg_values(m, z)
        jac, b = np.abs(dh) ** 2, np.abs(dg) ** 2
        np.subtract(jac, b, out=jac)
        np.multiply(z, dh, out=dh)
        np.multiply(z, dg, out=dg)
        np.subtract(dh, np.conj(dg, out=dg), out=dh)
        self._scan(z, f, np.multiply(self.phase, dh, out=dh), jac, dg, b)

    def _scan_rings(self, rows):
        n_angles = self.grid.n_angles
        size = _block_rings(self.grid) * n_angles
        spectrum = np.empty(3 * size, dtype=np.complex128)
        scratch = np.empty((2, size))
        for r, z in ring_blocks(self.grid):
            spec = spectrum[: 3 * z.size].reshape(3, r.size, n_angles)
            f, d, p = ring_fields(rows, r, spec)  # f, Df/z, P/z
            a, b = scratch[:, : z.size]
            np.multiply(p.real, d.real, out=a)  # J = Re(P/z conj(Df/z))
            np.add(a, np.multiply(p.imag, d.imag, out=b), out=a)
            np.multiply(self.phase, np.multiply(z, d, out=d), out=d)  # phase Df
            self._scan(z, f, d, a, p, b)
            del f, d, p  # free the FFT's output before the next block's exists


def sense_preserving_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum Jacobian over the grid; passes when it clears margin_eps."""
    return GridField(m, grid).sense_preserving


def nonvanishing_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum |f| over the grid (origin excluded by construction)."""
    return GridField(m, grid).nonvanishing
