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

:class:`GridField` feeds one scan kernel from two producers: a series-backed
map through the FFT, a closed form directly.  It and ``criteria.family_scan``,
the one scan of both unimodular-family checks, walk the rings with
:func:`walk_rings`, first those holding the lowest of the per-ring lower
bounds of :func:`ring_bounds` (every ring when there are none, as for a
closed form), then the others where their bounds do not clear the minima
found so far, and record each ring's minima in one :class:`RingTable`.  The
family and transform scans take their workspaces from :func:`workspace`.
Points off the grid go through Horner (:func:`~spiralmaps.series.horner`),
h, g, h' and g' at the witness in one loop (:func:`part_values`).  When
n_angles is a multiple of 4 the grid's axis points are exact, as the FFT's
angles 2 pi j / n_angles are: ``exp(i pi / 2)`` is off the imaginary axis by
6e-17, where 2 Re z reads 1e-19 and not the 0 the scan reports.  Grids hold
at most ``MAX_GRID_POINTS`` points and ``MAX_ANGLES`` angles.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries, derivative_coefficients, horner

#: Tolerance used when validating the sign-restricted coefficient shape.
SIGN_SHAPE_TOL = 1e-12

#: Complex values (256 KiB) from which numpy computes on a temporary in
#: place: every block of a ring scan holds fewer, or one ring (:func:`_block_rings`).
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
        if not all(isinstance(n, (int, np.integer)) for n in (self.n_radii, self.n_angles)):
            # 40.0 == 40, so a float count would share a memoised grid's axes
            raise ValueError("n_radii and n_angles must be integers")
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


@functools.lru_cache(maxsize=1)
def grid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's radii and unit angle points; a grid point is their product.

    The last grid's axes are kept, so repeated scans of one (frozen) grid
    share the two arrays, which are read-only."""
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    angles = np.exp(2j * np.pi * np.arange(grid.n_angles) / grid.n_angles)
    if grid.n_angles % 4 == 0:  # the axis points exactly, as the FFT has them
        angles[:: grid.n_angles // 4] = [1, 1j, -1, -1j]
    radii.flags.writeable = angles.flags.writeable = False
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


def part_values(m: HarmonicMapSpec, z):
    """h, g, h' and g' at z, each a complex for a scalar z.

    A series-backed map evaluates its four coefficient rows in one stacked
    Horner loop (:func:`~spiralmaps.series.horner`), which gives the bits of
    :func:`h_values`, :func:`g_values`, :func:`dh_values` and
    :func:`dg_values`; a closed form calls those four."""
    zarr, scalar = _as_points(z)
    if m.closed_form:
        out = [f(m, zarr) for f in (h_values, g_values, dh_values, dg_values)]
    else:
        h, g = m.h_coefficients(), m.g_coefficients()
        out = horner([h, g, derivative_coefficients(h), derivative_coefficients(g)], zarr)
    return tuple(complex(v[0]) for v in out) if scalar else tuple(out)


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
    """Rings per block of ``width`` values per point: fewer than
    ``BLOCK_POINTS`` values, or else one ring, and at most the whole grid.

    numpy computes an operator on a temporary of ``BLOCK_POINTS`` complex
    values (256 KiB) or more in place, swapping the operands of a complex
    product, which then rounds differently (FMA).  Below that size each
    point of a closed form gets the bits that ring-by-ring evaluation gives
    it, whatever the grid or block."""
    return max(1, min(grid.n_radii, (BLOCK_POINTS - 1) // (width * grid.n_angles)))


def walk_rings(first, count: int, step: int, scan, skip) -> None:
    """Call ``scan(i)`` on blocks ``i`` of at most ``step`` ascending ring
    indices: first the rings ``first``, then the other of the ``count``
    rings radius-major, leaving out those where ``skip(i)`` (a mask over
    ``i``) is True, asked again before each block."""
    for s in range(0, first.size, step):
        scan(first[s : s + step])
    rest = np.ones(count, dtype=bool)
    rest[first] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        rest = rest[~skip(rest)]
    for s in range(0, rest.size, step):
        i = rest[s : s + step]
        i = i[~skip(i)]  # the minima may have fallen
        if i.size:
            scan(i)


def ring_minima(values, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's minimum on each ring of ``values`` (shape (S, R * n_angles),
    radius-major) and the column of its first minimiser, as ``np.argmin``
    takes it (the first NaN, if any): two arrays of shape (S, R)."""
    k = values.reshape(values.shape[0], -1, n_angles).argmin(axis=2)
    k += np.arange(0, values.shape[1], n_angles)  # the rings' first columns
    return values[np.arange(k.shape[0])[:, None], k], k


class RingTable:
    """The per-ring record of a pruned scan.  For each scanned quantity (row
    q) and ring i: the lower bound ``bounds[q, i]``, the least value recorded
    ``low[q, i]`` (inf until one is), its first minimiser ``at[q, i]`` (the
    ring's first point until then) and ``tag[q, i]`` (a family member's eps
    index, else 0); ``evaluated[i]`` marks the rings evaluated.  A scan that
    records each ring once writes the arrays, one that records a ring in
    parts calls :meth:`merge`, and :meth:`least` reads the results as
    evaluating every ring gives them, bit for bit, whatever the walk's order."""

    def __init__(self, bounds, radii):
        self.bounds = bounds
        self.low = np.full(bounds.shape, np.inf)
        self.at = np.empty(bounds.shape, dtype=np.complex128)
        self.at[:] = radii
        self.tag = np.zeros(bounds.shape, dtype=np.intp)
        self.evaluated = np.zeros(radii.size, dtype=bool)

    def merge(self, q, i, v, z, tag):
        """Keep each value v, its point z and its tag on ring i of row q where
        v comes first: a NaN before any number, and on a tie the value kept."""
        won = ~((v >= self.low[q, i]) | np.isnan(self.low[q, i]))
        i = i[won]
        self.low[q, i], self.at[q, i], self.tag[q, i] = v[won], z[won], tag[won]

    def least(self, rings=slice(None)):
        """Each row's least value (a NaN first) over the rings ``rings``
        (ascending indices; all by default), with its point and tag: the
        least tag holding it, then the first ring.  Three arrays by row."""
        low, at, tag = self.low[:, rings], self.at[:, rings], self.tag[:, rings]
        q, k = np.arange(low.shape[0]), low.argmin(axis=1)
        if np.count_nonzero(tag):
            best = low[q, k][:, None]
            tie = (low == best) | (np.isnan(low) & np.isnan(best))
            k = np.where(tie, tag, np.iinfo(np.intp).max).argmin(axis=1)
        return low[q, k], at[q, k], tag[q, k]


#: Most values a level of the workspace pool keeps between uses: eight
#: blocks (2 MiB), two rings at ``MAX_ANGLES``.
_POOL_POINTS = 8 * BLOCK_POINTS

#: Nesting levels of the workspace pool that keep their buffers.
_POOL_LEVELS = 4


class _Pool(threading.local):
    """One thread's workspaces, one per nesting level of :func:`workspace`."""

    def __init__(self):
        self.buffers = [None] * _POOL_LEVELS
        self.depth = 0


_pool = _Pool()


@contextlib.contextmanager
def workspace(size: int):
    """A complex array of ``size`` values, not initialised, for the body of a
    ``with``.

    The family and transform scans and the large fold temporaries take their
    workspaces from here, so that a scan run again writes over memory it has
    written before in place of asking the C library for new pages.  Each
    thread has its own pool, and each nesting level of ``with
    workspace(...)`` within a thread its own buffer, so a nested workspace
    never overlaps an enclosing one.  A level keeps its buffer, grown to its
    largest request, when that holds at most ``_POOL_POINTS`` values and the
    level is one of the first ``_POOL_LEVELS``: a thread keeps at most 32
    blocks (8 MiB), and the family checks, nesting three levels deep, keep
    about 1.1 MiB.  Any other request gets an array of its own, dropped after
    use.  Nothing read from a workspace may outlive its ``with``: results are
    copied out."""
    pool, level = _pool, _pool.depth
    buf = pool.buffers[level] if level < _POOL_LEVELS else None
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.complex128)
        if level < _POOL_LEVELS and size <= _POOL_POINTS:
            pool.buffers[level] = buf
    pool.depth = level + 1
    try:
        yield buf[:size]
    finally:
        pool.depth = level


def _fold(spectrum, rows, powers) -> None:
    """Add rows[s, j] * powers[i, j] to spectrum[s, i, j mod n_angles].

    The product temporary holds S * R * min(L, n_angles) values for rows of
    shape (S, L) and R rings, a fraction L / n_angles of the spectrum when
    L < n_angles; above one block it is a pooled :func:`workspace`."""
    n_angles = spectrum.shape[-1]
    for k in range(0, rows.shape[1], n_angles):
        c = rows[:, None, k : k + n_angles]
        p = powers[:, k : k + c.shape[2]]
        head = spectrum[..., : c.shape[2]]
        if head.size <= BLOCK_POINTS:
            head += c * p
        else:
            with workspace(head.size) as t:
                head += np.multiply(c, p, out=t.reshape(head.shape))


def _inverse_fft(spectrum) -> None:
    """Overwrite each row of ``spectrum`` (shape (K, n_angles)) with its
    inverse DFT, normalised forward, in runs of rows of at most a block (at
    least one row), so that the FFT's own output is at most one block.  Each
    row's transform is computed on its own, so the runs do not change its
    bits."""
    step = max(1, BLOCK_POINTS // spectrum.shape[1])
    for s in range(0, spectrum.shape[0], step):
        spectrum[s : s + step] = np.fft.ifft(spectrum[s : s + step], axis=1, norm="forward")


def ring_values(rows, radii, n_angles: int, out=None) -> np.ndarray:
    """Values of the series with coefficient rows ``rows`` (shape (S, L)) at
    r e^{2 pi i j / n_angles} for r in ``radii``: shape (S, R * n_angles),
    radius-major like :func:`grid_points`.

    On the ring |z| = r a series is the inverse DFT of c_n r^n with n folded
    mod n_angles, so one batched FFT evaluates every row on every ring.  The
    powers r^n come from :func:`_powers`.  The spectrum is written into
    ``out``, a contiguous complex array of S R n_angles values whose contents
    are never read (a fresh array by default), and the inverse FFTs are
    copied back over it: the result is a view of ``out``, the same bytes
    whatever ``out`` held.  The family scans pass a pooled
    :func:`workspace`.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    radii = np.asarray(radii, dtype=np.float64)
    shape = (rows.shape[0], radii.size, n_angles)
    if out is None:
        spectrum = np.zeros(shape, dtype=np.complex128)
    else:
        spectrum = out.reshape(shape)
        spectrum.fill(0)
    _fold(spectrum, rows, _powers(radii, rows.shape[1]))
    _inverse_fft(spectrum.reshape(-1, n_angles))
    return spectrum.reshape(rows.shape[0], -1)


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
    :func:`grid_points`, written over ``spectrum``, a contiguous complex
    (3, R, n_angles) array.  The inverse FFTs are copied back over the
    spectrum in runs of at most ``BLOCK_POINTS`` values (:func:`_inverse_fft`),
    so the FFT's output is at most one block.

    Index j of the reversed spectrum is -(j + 1) mod n_angles, so the terms
    at negative indices fold there as the +n terms fold into the spectrum
    itself, and three inverse FFTs per ring give the three fields.  Then
    Df = z (Df/z) and the Jacobian |h'|^2 - |g'|^2 is Re(P/z conj(Df/z)).
    Spectra of Df/z and P/z rather than of Df and P keep the Jacobian of a
    map with constant h' and g' exact (1 for the identity): Re(P conj(Df))
    / r^2 would carry the rounding of the FFT of z.
    """
    plus, minus_f, minus_d = rows
    # r^-1 .. r^(N+1); r^-1 scales only the zero n = 0 term, so 0 serves.
    powers = np.zeros((radii.size, plus.shape[1] + 2))
    powers[:, 1:] = _powers(radii, plus.shape[1] + 1)
    spectrum.fill(0)
    back = spectrum[..., ::-1]
    _fold(spectrum, plus, powers[:, 1:])
    _fold(back[:1], minus_f, powers[:, 2:])
    _fold(back[1:], minus_d, powers)
    _inverse_fft(spectrum.reshape(-1, spectrum.shape[-1]))
    return spectrum.reshape(3, -1)


#: Step s of :func:`_powers`: entry s k + i is r^(s k) r^i.
_POWER_STEP = 32


def _powers(r, width: int) -> np.ndarray:
    """r^j for j < ``width`` on each radius r: shape (r.size, width).

    Entry j = s k + i, with i < s = ``_POWER_STEP``, is r^(s k) r^i: two
    small tables of ``r ** j`` and one product per entry, in place of a
    power per entry.  The product adds one rounding, a few ulps in all, no
    entry depends on ``width``, and the entries j < s, r^0 = 1 among them,
    are those of ``r ** j``."""
    low = r[:, None, None] ** np.arange(min(_POWER_STEP, width))
    high = r[:, None, None] ** np.arange(0, width, _POWER_STEP)[:, None]
    return (high * low).reshape(r.size, high.shape[1] * low.shape[2])[:, :width]


#: The power table of the last radii :func:`_power_table` kept: (the radii's
#: bytes, the table), or None.
_last_table = [None]


def _power_table(r, width: int) -> np.ndarray:
    """The :func:`_powers` of the radii ``r``, read-only, for
    :func:`ring_bounds` alone.  The last radii's table is kept, so that the
    bounds of every scan of one grid share it: a call no wider than the kept
    table slices it, a wider one rebuilds it."""
    key = r.tobytes()
    last = _last_table[0]
    if last is not None and last[0] == key and last[1].shape[1] >= width:
        return last[1][:, :width]
    table = _powers(r, width)
    table.flags.writeable = False
    _last_table[0] = key, table  # one tuple, so a thread reads a whole entry
    return table


#: Rounding allowance of the per-ring lower bounds, relative to the size of
#: what they bound: about 4,500 ulps, where each bound and each computed
#: value carries a few dozen.
BOUND_ROUNDING = 1e-12


@np.errstate(all="ignore")  # a sum that overflows gives a bound of -inf
def ring_bounds(mag, r, phase: complex = 1.0, conj=None, size=None, count: int = 4) -> np.ndarray:
    """Lower bounds over each ring |z| = r on |F|, Re(phase DF/F), the
    Jacobian and the margin |F + phase DF| - |F - phase DF|, the first
    ``count`` of them, of the members F = z P + conj(z Q), P = sum p_j z^j,
    Q = sum q_j z^j, where DF = z F_z - conj(z) F_zbar: shape (count, members,
    rings).  The rows of ``mag`` are the |p_j|, those of ``conj`` the |q_j|
    (default Q = 0, and then DF = z F').

    With S = sum_{j >= 1} |p_j| r^j + sum |q_j| r^j, D = |p_0| - S,
    E = sum j |p_j| r^j + sum (j + 2) |q_j| r^j, Sa = sum_{j >= 1} (j + 1) |p_j| r^j,
    Sb = sum (j + 1) |q_j| r^j, the weights A_n = |1 + n phase| + |1 - n phase|
    and B = |1 + phase| - |1 - phase| of the weight table:
    |F| >= r D and Re(phase DF/F) >= Re(phase) - |phase| E/D where D > 0,
    J >= max(|p_0| - Sa, 0)^2 - Sb^2, and the margin is at least
    M = r (|p_0| B - sum_{j >= 1} A_(j+1) |p_j| r^j - sum A_(j+1) |q_j| r^j),
    which is at least r (|p_0| B - 2 (S + |phase| (Sa + Sb))).  Where M > 0
    also |F| >= M/2 and Re(phase DF/F) >= M / (2 |F|) with
    |F| <= r (|p_0| + S).  Each is less a rounding allowance relative to the
    size T = r sum_j s_j r^j, over the rows s_j of ``size`` (default
    (j + 2)(|p_j| + |q_j|), which bounds F and DF together): R T for |F|, the
    margin and the upper bound on |F|, R (T/r)^2 for J and
    R (1 + |phase| E/D) T / (r D) for the quotient, R = ``BOUND_ROUNDING``.
    With ``count`` 2 the bounds from M are left out.  A bound is -inf where
    it is not finite or has no case that holds.

    Every sum of every member on every ring comes from one BLAS matrix
    product of the radii's power table (:func:`_power_table`, kept for the
    last radii) with the sums' coefficient rows, and the bound formulas then
    run once over all rings.  A call whose table would exceed
    ``_POOL_POINTS`` entries (1 MiB) runs in blocks of rings within it, so
    memory does not grow with rings times width.  The product rounds each
    sum of W terms by at most about W ulps of the sum of their magnitudes,
    and the table entries (:func:`_powers`) carry at most 3 ulps: far
    inside the allowance of about 4,500 ulps.
    A sum that does not depend on r comes out the same on every ring, as
    r^0 is exactly 1 and the other terms are exact zeros.
    """
    members, width = mag.shape
    j = np.arange(width)
    k = j + 1
    mod = abs(phase)
    full = count > 2
    tail = mag.copy()
    tail[:, 0] = 0  # the |p_j| for j >= 1
    pq = tail if conj is None else tail + conj
    if size is None:
        size = (j + 2) * (mag if conj is None else mag + conj)
    # Each sum is a power series in r: the rows hold the coefficients of r^j
    # of D, |phase| E, R T/r, then |p_0| - Sa, Sb, sqrt(R) T/r, M/r and twice
    # an upper bound on |F|/r.
    n = 8 if full else 3
    rows = np.empty((n, members, width))
    np.negative(pq, out=rows[0])
    rows[0, :, 0] += mag[:, 0]
    np.multiply(j, mag, out=rows[1])
    if conj is not None:
        rows[1] += (j + 2) * conj
    rows[1] *= mod
    np.multiply(BOUND_ROUNDING, size, out=rows[2])
    if full:
        np.multiply(-k, tail, out=rows[3])
        rows[3, :, 0] = mag[:, 0]
        np.multiply(k, 0 if conj is None else conj, out=rows[4])
        np.multiply(math.sqrt(BOUND_ROUNDING), size, out=rows[5])
        kp = k * phase
        np.multiply(-np.abs(1 + kp) - np.abs(1 - kp), pq, out=rows[6])  # -A_(j+1)
        rows[6] -= rows[2]
        rows[6, :, 0] += (abs(1 + phase) - abs(1 - phase)) * mag[:, 0]
        np.add(pq, rows[2], out=rows[7])
        rows[7, :, 0] += mag[:, 0]
        rows[7] *= 2
    # Transposed, so that the product reads both of its operands contiguously.
    cols = np.ascontiguousarray(rows.reshape(-1, width).T)
    out = np.empty((count, members, r.size))
    cos = complex(phase).real
    step = max(1, _POOL_POINTS // width)  # rings per power table
    for s in range(0, r.size, step):
        ri = r[s : s + step]
        # A BLAS product: its gemm workspace adds about 0.3 MB of resident
        # memory (256-320 KiB on the first call with OpenBLAS 0.3.31, one
        # thread), and the kept table up to 1 MiB (400 KiB at order 256 on
        # 200 radii).
        x = np.empty((n, members, ri.size))
        np.matmul(_power_table(ri, width), cols, out=x.reshape(-1, ri.size).T)
        d, e, t = x[:3]
        bound = out[:, :, s : s + step]
        ratio = e / d
        np.multiply(ri, d - t, out=bound[0])
        bound[1] = cos - ratio - (1 + ratio) * t / d
        np.copyto(bound[:2], -np.inf, where=d <= 0)
        if full:
            np.maximum(x[3], 0, out=x[3])  # |F_z| >= max(|p_0| - Sa, 0)
            np.square(x[3:6], out=x[3:6])
            np.subtract(x[3] - x[4], x[5], out=bound[2])
            np.multiply(ri, x[6], out=bound[3])
            # |F| >= M/2, and where M > 0, as 4 |F|^2 Re(phase DF/F) =
            # |F + phase DF|^2 - |F - phase DF|^2, Re(phase DF/F) >= M / (2 |F|).
            np.maximum(bound[0], 0.5 * bound[3], out=bound[0])
            np.maximum(bound[1], x[6] / x[7], out=bound[1], where=x[6] > 0)
        np.copyto(bound, -np.inf, where=~np.isfinite(bound))  # NaN included
    return out


#: GridField's scans in the order of :func:`ring_bounds`, each with the sign
#: of its pass threshold: a minimum passes when it is > sign * margin_eps.
_SCANS = (("nonvanishing", 1), ("pointwise", -1), ("sense_preserving", 1), ("margin", -1))
_ABS, _QUOTIENT, _JACOBIAN, _MARGIN = range(4)


class GridField:
    """The |f|, Jacobian, spiral quotient Re(phase Df/f) and two-modulus
    margin |f + phase Df| - |f - phase Df| scans of one map on one grid.

    Rings are evaluated in blocks of fewer than ``BLOCK_POINTS`` points, or
    one ring (:func:`_block_rings`), and only each ring's minima are kept,
    in ``table`` (a :class:`RingTable`, rows as in ``_SCANS``), so memory
    does not grow with ``n_radii`` beyond a few numbers per ring.
    ``pointwise`` is None exactly when min |f| is not above margin_eps (NaN
    included); the quotient is not formed once |f| has dipped below it.
    ``rings_evaluated`` counts the rings evaluated.

    One kernel, :meth:`_scan`, takes f, phase Df and the Jacobian of a block
    and records the four minima of each ring; two producers feed it.  For a
    series-backed map, :func:`ring_fields` gives f, Df/z and P/z, P = z h' +
    conj(z g'), with three inverse FFTs per ring; the Jacobian is Re(P/z
    conj(Df/z)).  They match Horner to within 1e-12 * sum (1 + n)(|h_n| +
    |g_n|) r^n for f and Df, and 1e-12 times the square of sum n (|h_n| +
    |g_n|) r^(n-1) for the Jacobian.  One workspace, allocated when the scan
    starts, holds the spectra (which become the fields), the four values per
    point and the points; per block only the FFT's output (at most
    ``BLOCK_POINTS`` values), the power table and the fold temporaries are
    new, the last up to 3 R min(N + 1, n_angles) values for R rings and
    order N, and above one block a pooled :func:`workspace`.  A closed form
    is evaluated from h, g, h', g'; its products run in place in the operand
    order of the plain expressions.

    The walk (:func:`walk_rings`) first evaluates the rings holding each
    quantity's lowest :func:`ring_bounds` bound, ties included: every ring
    of a closed form, which has no bounds (all -inf), and of an affine map
    (h = z, g = b_1 z; every order-1 map), whose quotient bound is the same
    on every ring.  It evaluates another ring only when one of its bounds
    does not clear that quantity's running minimum; a NaN minimum is cleared
    by none, and the quotient's bound stops counting once pointwise is None.
    A skipped ring holds no minimum, tie or NaN of any quantity."""

    def __init__(self, m: HarmonicMapSpec, grid: GridSpec, phase: complex = 1.0):
        self.grid, self.phase = grid, phase
        self._divide = True  # every ring so far has |f| > margin_eps
        radii, angles = grid_axes(grid)
        series = m.closed_form is None
        if series:
            h = np.ones((1, m.truncation_order))  # h = z P, g = z Q
            np.abs(m.a, out=h[0, 1:])
            bounds = ring_bounds(h, radii, phase, np.abs(m.b)[None])[:, 0]
            rows = field_rows(m)
        else:
            bounds = np.full((4, radii.size), -np.inf)
        step = _block_rings(grid)
        self.table = t = RingTable(bounds, radii)  # rows in the order of _SCANS
        # One workspace: a series' spectra, which become its fields, then the
        # four values per point, then the points.  It is freed after the scan,
        # not pooled: held between scans, it left the C library's allocation
        # thresholds low, and verifies of closed forms and plots between scans
        # then took fresh pages for their temporaries on every call.
        size = step * angles.size
        work = np.empty((6 if series else 3) * size, dtype=np.complex128)
        vals = work[-3 * size : -size].view(np.float64).reshape(4, size)
        points = work[-size:]

        def scan(i):  # the rings i, ascending, at most step of them
            r, n = radii[i], i.size * angles.size
            z = points[:n]
            np.multiply(r[:, None], angles[None, :], out=z.reshape(i.size, -1))
            if not series:
                return self._scan_closed_form(m, i, z, vals)
            f, d, p = ring_fields(rows, r, work[: 3 * n].reshape(3, i.size, -1))
            jac, b = vals[_JACOBIAN, :n], vals[_MARGIN, :n]
            np.multiply(p.real, d.real, out=jac)  # J = Re(P/z conj(Df/z))
            np.add(jac, np.multiply(p.imag, d.imag, out=b), out=jac)
            np.multiply(phase, np.multiply(z, d, out=d), out=d)  # phase Df
            self._scan(i, z, f, d, p, p.view(np.float64)[:n], vals)

        def skip(i):  # the rings i whose bounds clear the running minima
            clear = t.bounds[:, i] > t.low.min(axis=1)[:, None]  # NaN clears none
            clear[_QUOTIENT] |= not self._divide
            return clear.all(axis=0)

        first = np.flatnonzero((bounds <= bounds.min(axis=1)[:, None]).any(axis=0))
        walk_rings(first, radii.size, step, scan, skip)
        for (name, sign), low, at in zip(_SCANS, *(a.tolist() for a in t.least()[:2])):
            setattr(self, name, ScanResult(low, at, low > sign * grid.margin_eps))
        if not self._divide:
            self.pointwise = None

    @property
    def rings_evaluated(self) -> int:
        """The number of rings the scan evaluated."""
        return int(np.count_nonzero(self.table.evaluated))

    def _scan(self, rings, z, f, rot_df, c, b, vals):
        # f and phase Df on the points z of the rings ``rings``, with the
        # Jacobian in row _JACOBIAN of vals, real rows the kernel writes the
        # four values into; the complex c and the real b are scratch, and
        # rot_df once read.
        n = z.size
        a = vals[_ABS, :n]
        np.abs(f, out=a)
        self._divide = self._divide and bool(a.min() > self.grid.margin_eps)
        if self._divide:
            np.copyto(vals[_QUOTIENT, :n], np.divide(rot_df, f, out=c).real)
        a = vals[_MARGIN, :n]
        np.abs(np.add(f, rot_df, out=c), out=a)
        np.abs(np.subtract(f, rot_df, out=rot_df), out=b)
        np.subtract(a, b, out=a)
        t = self.table
        t.low[:, rings], k = ring_minima(vals[:, :n], self.grid.n_angles)
        t.at[:, rings] = z[k]
        t.evaluated[rings] = True

    def _scan_closed_form(self, m, rings, z, vals):
        # The evaluators are module names looked up per call, so wrappers set
        # on the module see each call.
        f = h_values(m, z) + np.conj(g_values(m, z))
        dh, dg = dh_values(m, z), dg_values(m, z)
        b = np.abs(dg) ** 2
        np.subtract(np.abs(dh) ** 2, b, out=vals[_JACOBIAN, : z.size])
        np.multiply(z, dh, out=dh)
        np.multiply(z, dg, out=dg)
        np.subtract(dh, np.conj(dg, out=dg), out=dh)
        self._scan(rings, z, f, np.multiply(self.phase, dh, out=dh), dg, b, vals)


def sense_preserving_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum Jacobian over the grid; passes when it clears margin_eps."""
    return GridField(m, grid).sense_preserving


def nonvanishing_on_grid(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Minimum |f| over the grid (origin excluded by construction)."""
    return GridField(m, grid).nonvanishing
