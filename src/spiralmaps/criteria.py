"""Spirallikeness criteria: weight tables, coefficient tests, pointwise checks.

For a spiral angle lam in (-pi/2, pi/2) the weight table holds

    A_n = |1 + n e^{-i lam}| + |1 - n e^{-i lam}|,
    B   = |1 + e^{-i lam}| - |1 - e^{-i lam}|,

with A_n/B >= n for every n.  The sufficient coefficient test bounds the
(A_n/B)-weighted coefficient sums by 1; on the sign-restricted class the
(B/A_n)-weighted sum and the plain n-weighted sum are necessary.  Pointwise
checks sample Re(e^{-i lam} Df/f) > 0 on an annulus grid; they refute
reliably but certify only in the sampled sense, and reports mark them so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .harmonic import (
    BLOCK_POINTS,
    GridField,
    GridSpec,
    HarmonicMapSpec,
    ScanResult,
    _block_rings,
    d_operator,
    dg_values,
    dh_values,
    eval_f,
    g_values,
    grid_axes,
    h_values,
    ring_values,
)

#: Uniform pass margin for the strict inequalities in coefficient tests.
PASS_MARGIN = 1e-9

#: Cap on the number of sampled unimodular eps: 1024x the default 64.
MAX_EPS_SAMPLES = 65536


class ClassFormError(ValueError):
    """A check that is only asserted on the sign-restricted class was asked
    of a map that does not declare that form."""


class HypothesisError(ValueError):
    """A bound was requested for a map outside the hypothesis it needs."""


class NearZeroError(ArithmeticError):
    """A denominator came within margin_eps of zero at a sample point."""


@dataclass(frozen=True)
class SpiralParams:
    """Spiral angle in radians, strictly inside (-pi/2, pi/2)."""

    lam: float

    def __post_init__(self):
        if not abs(self.lam) < math.pi / 2:
            raise ValueError("spiral angle must satisfy |lam| < pi/2")

    @property
    def phase(self) -> complex:
        """e^{-i lam}, the factor every pointwise criterion rotates by."""
        return complex(np.exp(-1j * self.lam))


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Weights A_1..A_n_max and B for one spiral angle.

    ``A[n]`` is valid for n >= 1 (``A[0]`` is NaN padding so that indices
    match subscripts).
    """

    A: np.ndarray
    B: float
    lam: float

    @property
    def n_max(self) -> int:
        return self.A.size - 1

    def sufficient_ratios(self) -> np.ndarray:
        """A_n/B for n = 0..n_max (entry 0 is NaN)."""
        return self.A / self.B

    def necessary_ratios(self) -> np.ndarray:
        """B/A_n for n = 0..n_max (entry 0 is NaN)."""
        return self.B / self.A

    def b_over_a1(self) -> float:
        """B/A_1, the growth-bound modulus; equals tan(pi/4 - |lam|/2)."""
        return float(self.B / self.A[1])


def weight_table(p: SpiralParams, n_max: int) -> WeightTable:
    """Compute the weight table by direct complex modulus arithmetic."""
    if n_max < 1:
        raise ValueError("weight table needs n_max >= 1")
    e = np.exp(-1j * p.lam)
    n = np.arange(1, n_max + 1)
    a = np.abs(1.0 + n * e) + np.abs(1.0 - n * e)
    b = float(np.abs(1.0 + e) - np.abs(1.0 - e))
    full = np.concatenate([[np.nan], a])
    full.flags.writeable = False
    return WeightTable(A=full, B=b, lam=p.lam)


@dataclass(frozen=True)
class CheckResult:
    """Value of a coefficient sum together with its pass flag."""

    value: float
    passed: bool


def _tail_magnitudes(m: HarmonicMapSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    na = np.arange(2, m.truncation_order + 1)
    nb = np.arange(1, m.truncation_order + 1)
    return np.abs(m.a), np.abs(m.b), na, nb


def _weighted_sum(m: HarmonicMapSpec, weights: np.ndarray) -> float:
    """sum w_n |a_n| + sum w_n |b_n| over the stored tail, ``weights[n]`` = w_n."""
    amag, bmag, na, nb = _tail_magnitudes(m)
    return float(np.dot(weights[na], amag) + np.dot(weights[nb], bmag))


def silverman_check(m: HarmonicMapSpec, tol: float = PASS_MARGIN) -> CheckResult:
    """n-weighted coefficient budget: 1 + sum n|a_n| + sum n|b_n| <= 2.

    The leading 1 counts the fixed unit coefficient of h.  Sufficient for
    hereditary starlikeness on the full class, and sharp on the
    sign-restricted class.  For maps with non-decaying coefficients the sum
    is reported at the truncation order and fails at a finite stage.
    """
    total = 1.0 + _weighted_sum(m, np.arange(m.truncation_order + 1))
    return CheckResult(total, total <= 2.0 + tol)


def sufficient_check(
    m: HarmonicMapSpec, p: SpiralParams, tol: float = PASS_MARGIN
) -> CheckResult:
    """(A_n/B)-weighted coefficient sum; <= 1 certifies hereditary
    spirallikeness at this angle (sums truncated at the map's order)."""
    total = _weighted_sum(m, weight_table(p, m.truncation_order).sufficient_ratios())
    return CheckResult(total, total <= 1.0 + tol)


def necessary_weighted_check(
    m: HarmonicMapSpec, p: SpiralParams, tol: float = PASS_MARGIN
) -> CheckResult:
    """(B/A_n)-weighted sum; every sign-restricted hereditarily spirallike
    map satisfies <= 1.  Only asserted on the sign-restricted class."""
    if not m.signed_form:
        raise ClassFormError(
            "the weighted necessary condition is only asserted on sign-restricted maps"
        )
    total = _weighted_sum(m, weight_table(p, m.truncation_order).necessary_ratios())
    return CheckResult(total, total <= 1.0 + tol)


def necessary_sharp_check(m: HarmonicMapSpec, tol: float = PASS_MARGIN) -> CheckResult:
    """Plain n-weighted tail sum; <= 1 is necessary on the sign-restricted
    class (equivalently <= 2 once the unit leading coefficient is counted,
    which is the n-weighted budget of :func:`silverman_check`)."""
    if not m.signed_form:
        raise ClassFormError(
            "the sharp necessary condition is only asserted on sign-restricted maps"
        )
    total = _weighted_sum(m, np.arange(m.truncation_order + 1))
    return CheckResult(total, total <= 1.0 + tol)


# ------------------------------------------------------------ pointwise checks


def _spiral_scan(field: GridField) -> ScanResult:
    absf = field.nonvanishing
    if field.pointwise is None:
        raise NearZeroError(
            f"|f| = {absf.min_value:.3e} below margin {field.grid.margin_eps:.1e} "
            f"at z = {absf.witness}"
        )
    return field.pointwise


def pointwise_spiral_check(
    m: HarmonicMapSpec, p: SpiralParams, grid: GridSpec
) -> ScanResult:
    """Sampled minimum of Re(e^{-i lam} Df/f) over the annulus grid.

    Raises :class:`NearZeroError` naming the point if |f| dips below
    margin_eps anywhere on the grid (the division guard; equivalent to the
    nonvanishing scan failing).
    """
    return _spiral_scan(GridField(m, grid, p.phase))


def pointwise_fully_starlike_check(m: HarmonicMapSpec, grid: GridSpec) -> ScanResult:
    """Sampled minimum of Re(Df/f): the spiral check at angle 0."""
    return pointwise_spiral_check(m, SpiralParams(0.0), grid)


def spiral_inequality_sides(
    m: HarmonicMapSpec, p: SpiralParams, z
) -> tuple[float, float]:
    """Both sides of the analytic/co-analytic form of the spiral inequality.

    The criterion Re(e^{-i lam} Df/f) > 0, cleared of quotients by
    multiplying through with |f|^2, splits into a part carried by h and g
    separately and a cross term.  Returned in units of |z|^2 cos(lam), with
    the co-analytic part folded into the left side:

        lhs = [Re(e^{-i lam} z h' conj(h)) - Re(e^{i lam} z g' conj(g))] / s
        rhs = Re(z e^{i lam} (h g' - e^{-2 i lam} g h')) / s,   s = |z|^2 cos lam

    The product form is total (points with g(z) = 0 are admissible) and
    sign(lhs - rhs) = sign(Re(e^{-i lam} Df/f)) wherever f(z) != 0.  With
    this normalization the classical counterexample z - conj(z)/2 at angle
    pi/4 and z = (1+i)/2 reads exactly (3/4, 1).  At z = 0 both sides
    vanish.
    """
    zc = complex(z)
    if zc == 0:
        return (0.0, 0.0)
    hv = h_values(m, zc)
    gv = g_values(m, zc)
    dhv = dh_values(m, zc)
    dgv = dg_values(m, zc)
    el = p.phase
    analytic_side = (el * zc * dhv * np.conj(hv)).real
    coanalytic_side = (np.conj(el) * zc * dgv * np.conj(gv)).real
    cross = (zc * np.conj(el) * (hv * dgv - el * el * gv * dhv)).real
    scale = abs(zc) ** 2 * math.cos(p.lam)
    return (
        float((analytic_side - coanalytic_side) / scale),
        float(cross / scale),
    )


def spiral_margin(m: HarmonicMapSpec, p: SpiralParams, z):
    """Two-modulus margin |f + e^{-i lam} Df| - |f - e^{-i lam} Df|.

    Positive exactly where Re(e^{-i lam} Df/f) is positive (for f(z) != 0),
    but computed without any division, so it is total.
    """
    fv = eval_f(m, z)
    dv = p.phase * d_operator(m, z)
    out = np.abs(fv + dv) - np.abs(fv - dv)
    return float(out) if np.ndim(out) == 0 else out


def spiral_margin_on_grid(
    m: HarmonicMapSpec, p: SpiralParams, grid: GridSpec
) -> ScanResult:
    """Minimum of the two-modulus margin over the annulus grid."""
    return GridField(m, grid, p.phase).margin


@dataclass(frozen=True)
class GrowthBounds:
    """Modulus bounds (1 -+ B/A_1) r and the covering radius 1 - B/A_1."""

    lower: float
    upper: float
    covering_radius: float


def growth_bounds(m: HarmonicMapSpec, p: SpiralParams, r: float) -> GrowthBounds:
    """Sharp modulus bounds on |z| = r for maps passing the sufficient test.

    Raises :class:`HypothesisError` when the sufficient test fails, since
    the bounds are only asserted under it.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    check = sufficient_check(m, p)
    if not check.passed:
        raise HypothesisError(
            f"growth bounds need the sufficient test to pass (sum = {check.value:.6g})"
        )
    c = weight_table(p, max(1, m.truncation_order)).b_over_a1()
    return GrowthBounds(lower=(1.0 - c) * r, upper=(1.0 + c) * r, covering_radius=1.0 - c)


@dataclass(frozen=True)
class EpsilonScanResult:
    """Minimum over a unimodular family and the grid, with both witnesses."""

    min_value: float
    witness: complex
    witness_eps: complex
    passed: bool


def unimodular_samples(n_eps: int) -> np.ndarray:
    """The n_eps equally spaced unimodular eps = e^{2 pi i k / n_eps}, k = 0, 1, ..."""
    if n_eps < 1:
        raise ValueError("need at least one unimodular sample")
    if n_eps > MAX_EPS_SAMPLES:
        raise ValueError(f"at most {MAX_EPS_SAMPLES} unimodular samples, got {n_eps}")
    return np.array([complex(np.exp(2j * np.pi * k / n_eps)) for k in range(n_eps)])


def _merge_row_minima(best, at, which, values, z) -> None:
    # Row i of values belongs to member which[i]; its first minimiser, as
    # np.argmin over the whole grid would take it.
    k = np.argmin(values, axis=1)
    _merge_minima(best, at, which, values[np.arange(k.size), k], z[k])


def _merge_minima(best, at, which, v, vz) -> None:
    # A later value wins only when strictly smaller, or NaN where the best is
    # not, so each member keeps its first minimiser.
    won = ~((v >= best[which]) | np.isnan(best[which]))
    best[which[won]] = v[won]
    at[which[won]] = vz[won]


def _family_minima(n: int, grid: GridSpec):
    """Running minima of |den| and of Re(num/den) for n members, with their
    points; inf at the first grid point is what a member reading inf
    everywhere has."""
    start = complex(grid.r_min)
    return np.full(n, np.inf), np.full(n, start), np.full(n, np.inf), np.full(n, start)


def _family_result(low, low_at, best, best_at, eps, margin: float, what: str):
    """The scan's outcome from its running minima: :class:`NearZeroError` for
    the first eps whose |den| is not above ``margin`` (NaN included), else the
    minimum over the family, first minimiser eps-major."""
    near = np.flatnonzero(~(low > margin))
    if near.size:
        k = near[0]
        raise NearZeroError(
            f"|{what}| = {low[k]:.3e} below margin at eps = {complex(eps[k])}, "
            f"z = {complex(low_at[k])}"
        )
    k = int(np.argmin(best))
    return EpsilonScanResult(
        float(best[k]), complex(best_at[k]), complex(eps[k]), bool(best[k] > -margin)
    )


def _merge_family(minima, which, den, num, z, margin: float) -> None:
    """Merge the values (den, num) of the members ``which`` on the points
    ``z`` into the running minima; Re(num/den) only for the members whose
    |den| is still above ``margin``, formed in ``num``."""
    low, low_at, best, best_at = minima
    _merge_row_minima(low, low_at, which, np.abs(den), z)
    clear = low[which] > margin
    if not clear.all():
        which, den, num = which[clear], den[clear], num[clear]
    _merge_row_minima(best, best_at, which, np.divide(num, den, out=num).real, z)


def family_scan(values, bounds, grid: GridSpec, eps: np.ndarray, what: str) -> EpsilonScanResult:
    """Minimum of Re(num/den) over the unimodular samples ``eps`` and the grid.

    ``values(which, r)`` returns the values (den, num) of the members
    ``which`` (indices into ``eps``) on the rings of radii ``r``, each of
    shape (members, rings * n_angles), radius-major, which the scan may
    overwrite.  ``bounds(which, r)`` returns lower bounds on |den| and on
    Re(num/den) over each ring, each of shape (members, rings), less a
    rounding allowance: at most every computed value, -inf (or NaN) for none.

    The ring with the lowest bound on Re(num/den) over every eps (NaN before
    any number, the outermost on ties) is evaluated first for every eps: its
    minimum gives ``top``, a value some member attains.  Chunk by chunk of
    eps, the other rings are then evaluated only where their bounds over
    every eps do not clear ``top`` (which falls with the running minima) or
    margin_eps.  The minima of the rings before the first ring, of the first
    and of those after it are merged in that order.  No skipped ring can hold
    the minimum, a tie with it, a NaN or a near-zero member, so the result is
    that of the full sampled scan bit for bit, in memory of about
    ``BLOCK_POINTS`` values plus per-ring and per-eps arrays.  Raises
    :class:`NearZeroError` naming eps and the point for the first eps whose
    |den| is not above margin_eps, ``what`` naming the denominator; the
    quotient is formed only where |den| is.  The witness is the first
    minimiser, eps-major, then radius-major.
    """
    n, margin = eps.size, grid.margin_eps
    chunk = min(n, max(1, BLOCK_POINTS // grid.n_angles))
    # Rings per evaluation: at most BLOCK_POINTS // 2 points (or one ring),
    # where a closed form gives the bits it gives ring by ring.
    step = max(1, BLOCK_POINTS // (max(chunk, 2) * grid.n_angles))
    span = max(1, BLOCK_POINTS // chunk)  # rings per call of bounds
    chunks = [np.arange(k, min(k + chunk, n)) for k in range(0, n, chunk)]
    radii, angles = grid_axes(grid)
    lowest = np.full((2, radii.size), np.inf)  # per ring, over every eps
    for which in chunks:
        for s in range(0, radii.size, span):
            low = np.asarray(bounds(which, radii[s : s + span])).min(axis=1)
            np.minimum(lowest[:, s : s + span], low, out=lowest[:, s : s + span])
    ring_low, ring_bound = lowest
    k = radii.size - 1 - int(np.argmin(ring_bound[::-1]))  # NaN first
    first = _family_minima(n, grid)
    for which in chunks:
        _merge_family(first, which, *values(which, radii[k : k + 1]), radii[k] * angles, margin)
    top = np.fmin.reduce(first[2])
    # Members are merged independently, so each chunk walks the rings on its
    # own, those before the first ring and those after it into minima of
    # their own.  A ring whose bounds clear for every eps stays cleared as
    # top falls.
    minima, after = _family_minima(n, grid), _family_minima(n, grid)
    for which in chunks:
        live = np.flatnonzero(~(ring_bound > top) | ~(ring_low > margin))
        for part, into in ((live[live < k], minima), (live[live > k], after)):
            for g in range(0, part.size, step):
                i = part[g : g + step]
                i = i[~(ring_bound[i] > top) | ~(ring_low[i] > margin)]  # top may have fallen
                if i.size:
                    z = (radii[i, None] * angles).ravel()
                    _merge_family(into, which, *values(which, radii[i]), z, margin)
                    top = np.fmin(top, np.fmin.reduce(into[2][which]))
    everyone = np.arange(n)
    for later in (first, after):  # radius-major
        for v, at in ((0, 1), (2, 3)):
            _merge_minima(minima[v], minima[at], everyone, later[v], later[at])
    return _family_result(*minima, eps, margin, what)


#: Rounding allowance of the family scans' bounds, relative to the size of
#: what they bound: about 4,500 ulps, where each bound and each sampled
#: member carries a few dozen.
BOUND_ROUNDING = 1e-12


def _power_bounds(mag, r, cos_lam: float, size=None) -> np.ndarray:
    """Lower bounds on |F| and on Re(rot z F'/F) over each ring |z| = r for
    the members F = z P, P = sum p_j z^j, with |p_j| the rows of ``mag``:
    shape (2, members, rings).  rot = e^{-i s lam}, whose real part is
    ``cos_lam`` for either orientation s.

    With E = sum j |p_j| r^j and D = |p_0| - sum_{j >= 1} |p_j| r^j, |F| >= r D
    and Re(rot z F'/F) >= cos(lam) - E/D where D > 0, else -inf (as where not
    finite), each less the allowance T or (1 + E/D) T / (r D), where
    T = r sum_j s_j r^j over the rows s_j of ``size`` (default ``mag``).
    """
    j = np.arange(mag.shape[1])[:, None]
    step = max(1, BLOCK_POINTS // j.size)  # rings per power table
    out = np.empty((2, mag.shape[0], r.size))
    for s in range(0, r.size, step):
        ri = r[s : s + step]
        power = ri**j
        # einsum, not BLAS: a matrix product would map BLAS's gemm workspace,
        # about 0.4 MB of resident memory that nothing else here needs.
        tail = np.einsum("mj,jr->mr", mag[:, 1:], power[1:])
        dist = mag[:, :1] - tail
        slope = np.einsum("mj,jr->mr", mag, j * power)
        total = ri * (mag[:, :1] + tail if size is None else np.einsum("mj,jr->mr", size, power))
        with np.errstate(all="ignore"):
            ratio = slope / dist
            bound = np.stack([
                ri * dist - BOUND_ROUNDING * total,
                cos_lam - ratio - BOUND_ROUNDING * (1 + ratio) * total / (ri * dist),
            ])
        out[:, :, s : s + step] = np.where((dist > 0) & np.isfinite(bound), bound, -np.inf)
    return out


def epsilon_starlike_check(
    m: HarmonicMapSpec, grid: GridSpec, n_eps: int = 64
) -> EpsilonScanResult:
    """Starlikeness margins of the analytic family h + eps*g over |eps| = 1.

    Samples n_eps equally spaced unimodular eps and returns the minimum of
    Re(z (h + eps g)' / (h + eps g)) over the family and the grid, or raises
    :class:`NearZeroError` for the first eps whose |h + eps g| is not above
    margin_eps.  The family quantifier is sampled, so a positive result is
    heuristic while a negative one is a genuine refutation.  The members are
    formed from h, g, z h', z g' on a ring (the FFT of a series, or a closed
    form) and scanned by :func:`family_scan`, pruned by :func:`_power_bounds`
    of h + eps g at lam = 0 with an allowance relative to the fields' size,
    sum (1 + n)(|h_n| + |g_n|) r^n, which cancelling coefficients of h + eps g
    cannot shrink.  Where that gives no bound (always for a closed form) a
    ring's floor for every eps takes its place: at a point eps -> (z h' +
    eps z g')/(h + eps g) is a Mobius map, so each member is at least its
    circle's Re(centre) - radius (:func:`_quotient_bound`), and |h + eps g|
    at least ||h| - |g||.  The result is that of the full sampled scan.
    """
    eps = unimodular_samples(n_eps)
    radii, angles = grid_axes(grid)
    h, g = m.h_coefficients(), m.g_coefficients()
    n = np.arange(h.size)
    rows = np.stack([h, g, n * h, n * g])  # h, g, z h', z g'
    size = ((1 + n) * (np.abs(h) + np.abs(g)))[None, 1:]  # over P = (h + eps g) / z

    def fields(r):
        # A closed form on at most BLOCK_POINTS // 2 points (or one ring):
        # numpy computes an operator whose operand is a temporary of 256 KiB
        # (BLOCK_POINTS complex values) or more in place, swapping the
        # operands of a product, and a complex product rounds differently
        # then.  So a closed form gives the bits it gives on one ring.
        if m.closed_form is None:
            return ring_values(rows, r, grid.n_angles)
        z = (r[:, None] * angles).ravel()
        return h_values(m, z), g_values(m, z), z * dh_values(m, z), z * dg_values(m, z)

    # One workspace for the members of every call: family_scan asks for at
    # most BLOCK_POINTS values at a time, or one ring.
    work = np.empty((2, max(BLOCK_POINTS, grid.n_angles)), dtype=np.complex128)

    def values(which, r):
        hv, gv, zdh, zdg = fields(r)
        den, num = work[:, : which.size * hv.size].reshape(2, which.size, hv.size)
        # eps written out in full: numpy multiplies by a broadcast eps several
        # times slower, to the same bits.
        num[...] = eps[which, None]
        np.add(hv, np.multiply(num, gv, out=den), out=den)
        np.add(zdh, np.multiply(num, zdg, out=num), out=num)
        return den, num

    floors, done = np.empty((2, radii.size)), np.zeros(radii.size, dtype=bool)

    def bounds(which, r):
        out = np.full((2, which.size, r.size), -np.inf)
        if m.closed_form is None:
            chunk = max(1, BLOCK_POINTS // h.size)  # members per coefficient table
            for k in range(0, which.size, chunk):
                p = np.abs(h[1:] + eps[which[k : k + chunk], None] * g[1:])
                out[:, k : k + chunk] = _power_bounds(p, r, 1.0, size)
        # The rings' floors where the coefficients give no bound, each ring's
        # computed once.
        none = out == -np.inf
        i = np.flatnonzero(none.any(axis=(0, 1)))
        at = np.searchsorted(radii, r[i])  # r holds grid radii
        new, step = at[~done[at]], _block_rings(grid, 2)
        for s in range(0, new.size, step):
            j = new[s : s + step]
            hv, gv, zdh, zdg = (v.reshape(j.size, -1) for v in fields(radii[j]))
            with np.errstate(all="ignore"):
                ah, ag = np.abs(hv), np.abs(gv)
                floors[0, j] = (np.abs(ah - ag) - BOUND_ROUNDING * (ah + ag)).min(axis=1)
                floors[1, j] = _quotient_bound(zdh, zdg, hv, gv, ah, ag).min(axis=1)
        done[new] = True
        out[:, :, i] = np.where(none[:, :, i], floors[:, None, at], out[:, :, i])
        return out

    return family_scan(values, bounds, grid, eps, "h + eps g")


def _quotient_bound(A, B, C, D, aC, aD) -> np.ndarray:
    """Re(centre) - radius of the circle that (A + eps B)/(C + eps D) traces
    over |eps| = 1, less the rounding allowance: at most every computed
    sampled value.  The allowance is relative to |centre| + radius and grows
    with (|C|^2 + |D|^2)/||C|^2 - |D|^2|, which a member's rounding does near
    its pole, so a point where |C|^2 - |D|^2 has cancelled most of its digits
    keeps no useful bound, and one where it vanishes gets -inf or NaN."""
    with np.errstate(all="ignore"):
        sq, dq = aC * aC, aD * aD
        det = sq - dq
        adet = np.abs(det)
        centre = A * np.conj(C) - B * np.conj(D)  # times det
        radius = np.abs(A * D - B * C) / adet
        size = np.abs(centre) / adet + radius
        return centre.real / det - radius - BOUND_ROUNDING * size * ((sq + dq) / adet)


def axis_profile(m: HarmonicMapSpec, r):
    """The positive-axis profile (phi(r), psi(r)) built from |a_n|, |b_n|.

    phi(r) = 1 - sum |a_n| r^(n-1) + sum |b_n| r^(n-1) so that a
    sign-restricted map has f(r) = r phi(r) on the positive axis, and
    psi(r) = sum n |a_n| r^(n-1) + sum n |b_n| r^(n-1) so that
    Re(e^{-i lam} Df(r)/f(r)) = cos(lam) (1 - psi(r)) / phi(r) there.
    """
    rarr = np.asarray(r, dtype=np.float64)
    amag, bmag, na, nb = _tail_magnitudes(m)
    ra = rarr[..., None] ** (na - 1)
    rb = rarr[..., None] ** (nb - 1)
    phi = 1.0 - ra @ amag + rb @ bmag
    psi = ra @ (na * amag) + rb @ (nb * bmag)
    if rarr.ndim == 0:
        return float(phi), float(psi)
    return phi, psi


# --------------------------------------------------------------- full report


@dataclass(frozen=True)
class VerificationReport:
    """Structured outcome of every applicable check on one map.

    Pointwise results are sampled on ``grid`` and flagged as such; pass
    flags are pure functions of the reported numbers and the margins used.
    Optional fields are None when the corresponding check is not applicable
    (necessary checks outside the sign-restricted class, growth bounds when
    the sufficient test fails, pointwise results when a near-zero |f| makes
    the quotient ill-defined).
    """

    lam: float
    truncation_order: int
    grid: GridSpec
    sampled: bool
    silverman: CheckResult
    sufficient: CheckResult
    necessary_weighted: Optional[CheckResult]
    necessary_sharp: Optional[CheckResult]
    sense_preserving: ScanResult
    nonvanishing: ScanResult
    pointwise: Optional[ScanResult]
    inequality_sides: Optional[tuple[float, float]]
    margin: Optional[ScanResult]
    growth: Optional[GrowthBounds]

    def all_passed(self) -> bool:
        checks = [
            self.silverman.passed,
            self.sufficient.passed,
            self.sense_preserving.passed,
            self.nonvanishing.passed,
        ]
        if self.necessary_weighted is not None:
            checks.append(self.necessary_weighted.passed)
        if self.necessary_sharp is not None:
            checks.append(self.necessary_sharp.passed)
        checks.append(self.pointwise.passed if self.pointwise else False)
        if self.margin is not None:
            checks.append(self.margin.passed)
        return all(checks)


def run_all_checks(
    m: HarmonicMapSpec, p: SpiralParams, grid: GridSpec = GridSpec()
) -> VerificationReport:
    """Run every applicable check and assemble the report."""
    silverman = silverman_check(m)
    sufficient = sufficient_check(m, p)
    if m.signed_form:
        necessary_weighted = necessary_weighted_check(m, p)
        necessary_sharp = necessary_sharp_check(m)
    else:
        necessary_weighted = None
        necessary_sharp = None
    field = GridField(m, grid, p.phase)
    sense = field.sense_preserving
    nonvan = field.nonvanishing
    try:
        pointwise = _spiral_scan(field)
        sides = spiral_inequality_sides(m, p, pointwise.witness)
    except NearZeroError:
        pointwise = None
        sides = None
    margin = field.margin
    growth = (
        growth_bounds(m, p, grid.r_max) if sufficient.passed else None
    )
    return VerificationReport(
        lam=p.lam,
        truncation_order=m.truncation_order,
        grid=grid,
        sampled=True,
        silverman=silverman,
        sufficient=sufficient,
        necessary_weighted=necessary_weighted,
        necessary_sharp=necessary_sharp,
        sense_preserving=sense,
        nonvanishing=nonvan,
        pointwise=pointwise,
        inequality_sides=sides,
        margin=margin,
        growth=growth,
    )
