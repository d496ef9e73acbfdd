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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .harmonic import (
    BLOCK_POINTS,
    BOUND_ROUNDING,
    GridField,
    GridSpec,
    HarmonicMapSpec,
    RingTable,
    ScanResult,
    _block_rings,
    d_operator,
    dg_values,
    dh_values,
    eval_f,
    g_values,
    grid_axes,
    h_values,
    part_values,
    ring_bounds,
    ring_minima,
    ring_values,
    walk_rings,
    workspace,
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
    """Compute the weight table by direct complex modulus arithmetic.

    The weights of the last angle and n_max are kept: building a map and
    checking it at one angle ask for the same table."""
    if n_max < 1:
        raise ValueError("weight table needs n_max >= 1")
    a, b = _weights(p.lam, n_max)
    return WeightTable(A=a, B=b)


@functools.lru_cache(maxsize=1)
def _weights(lam: float, n_max: int) -> tuple[np.ndarray, float]:
    # lam = -0.0 may share the entry of 0.0: the weights are the same.
    e = np.exp(-1j * lam)
    n = np.arange(1, n_max + 1)
    a = np.abs(1.0 + n * e) + np.abs(1.0 - n * e)
    b = float(np.abs(1.0 + e) - np.abs(1.0 - e))
    full = np.concatenate([[np.nan], a])
    full.flags.writeable = False
    return full, b


def _ab_rows(row: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``row[n]`` at the subscripts of a_n (n = 2..order) and of b_n
    (n = 1..order), the offsets of ``HarmonicMapSpec.a`` and ``.b``."""
    return row[2 : order + 1], row[1 : order + 1]


@dataclass(frozen=True)
class CheckResult:
    """Value of a coefficient sum together with its pass flag."""

    value: float
    passed: bool


@dataclass(frozen=True)
class GrowthBounds:
    """Modulus bounds (1 -+ B/A_1) r and the covering radius 1 - B/A_1."""

    lower: float
    upper: float
    covering_radius: float


def _budget_result(total: float, bound: float) -> CheckResult:
    """A coefficient sum against its bound: passes when total <= bound + PASS_MARGIN."""
    return CheckResult(total, total <= bound + PASS_MARGIN)


def _weighted_sum(amag: np.ndarray, bmag: np.ndarray, row: np.ndarray) -> float:
    """sum w_n |a_n| + sum w_n |b_n| over the stored tail, ``row[n]`` = w_n."""
    wa, wb = _ab_rows(row, bmag.size)
    return float(np.dot(wa, amag) + np.dot(wb, bmag))


def _coefficient_pass(
    m: HarmonicMapSpec, p: Optional[SpiralParams] = None, r: Optional[float] = None
) -> dict:
    """Every coefficient result of ``m`` by its report field, from one pass:
    the n-, (A_n/B)- and (B/A_n)-weighted sums of |a_n| and |b_n| once each,
    from one weight table.  None: the results that need the angle without
    ``p``, the necessary ones outside the sign-restricted class, and
    ``growth`` without ``r`` or when the sufficient test fails."""
    amag, bmag, order = np.abs(m.a), np.abs(m.b), m.truncation_order
    n_sum = _weighted_sum(amag, bmag, np.arange(order + 1))
    sufficient = weighted = growth = None
    if p is not None:
        wt = weight_table(p, order)
        sufficient = _budget_result(_weighted_sum(amag, bmag, wt.sufficient_ratios()), 1.0)
        if m.signed_form:
            weighted = _budget_result(_weighted_sum(amag, bmag, wt.necessary_ratios()), 1.0)
        if r is not None and sufficient.passed:
            c = wt.b_over_a1()
            growth = GrowthBounds(lower=(1.0 - c) * r, upper=(1.0 + c) * r, covering_radius=1.0 - c)
    return dict(
        silverman=_budget_result(1.0 + n_sum, 2.0),
        sufficient=sufficient,
        necessary_weighted=weighted,
        necessary_sharp=_budget_result(n_sum, 1.0) if m.signed_form else None,
        growth=growth,
    )


def silverman_check(m: HarmonicMapSpec) -> CheckResult:
    """n-weighted coefficient budget: 1 + sum n|a_n| + sum n|b_n| <= 2.

    The leading 1 counts the fixed unit coefficient of h.  Sufficient for
    hereditary starlikeness on the full class, and sharp on the
    sign-restricted class.  For maps with non-decaying coefficients the sum
    is reported at the truncation order and fails at a finite stage.
    """
    return _coefficient_pass(m)["silverman"]


def sufficient_check(m: HarmonicMapSpec, p: SpiralParams) -> CheckResult:
    """(A_n/B)-weighted coefficient sum; <= 1 certifies hereditary
    spirallikeness at this angle (sums truncated at the map's order)."""
    return _coefficient_pass(m, p)["sufficient"]


def necessary_weighted_check(m: HarmonicMapSpec, p: SpiralParams) -> CheckResult:
    """(B/A_n)-weighted sum; every sign-restricted hereditarily spirallike
    map satisfies <= 1.  Only asserted on the sign-restricted class."""
    if not m.signed_form:
        raise ClassFormError(
            "the weighted necessary condition is only asserted on sign-restricted maps"
        )
    return _coefficient_pass(m, p)["necessary_weighted"]


def necessary_sharp_check(m: HarmonicMapSpec) -> CheckResult:
    """Plain n-weighted tail sum; <= 1 is necessary on the sign-restricted
    class (equivalently <= 2 once the unit leading coefficient is counted,
    which is the n-weighted budget of :func:`silverman_check`)."""
    if not m.signed_form:
        raise ClassFormError(
            "the sharp necessary condition is only asserted on sign-restricted maps"
        )
    return _coefficient_pass(m)["necessary_sharp"]


def growth_bounds(m: HarmonicMapSpec, p: SpiralParams, r: float) -> GrowthBounds:
    """Sharp modulus bounds on |z| = r for maps passing the sufficient test.

    Raises :class:`HypothesisError` when the sufficient test fails, since
    the bounds are only asserted under it.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    checks = _coefficient_pass(m, p, r)
    if checks["growth"] is None:
        raise HypothesisError(
            f"growth bounds need the sufficient test to pass (sum = {checks['sufficient'].value:.6g})"
        )
    return checks["growth"]


# ------------------------------------------------------------ pointwise checks


def pointwise_spiral_check(
    m: HarmonicMapSpec, p: SpiralParams, grid: GridSpec
) -> ScanResult:
    """Sampled minimum of Re(e^{-i lam} Df/f) over the annulus grid.

    Raises :class:`NearZeroError` naming the point if |f| dips below
    margin_eps anywhere on the grid (the division guard; equivalent to the
    nonvanishing scan failing).
    """
    field = GridField(m, grid, p.phase)
    if field.pointwise is None:
        absf = field.nonvanishing
        raise NearZeroError(
            f"|f| = {absf.min_value:.3e} below margin {grid.margin_eps:.1e} "
            f"at z = {absf.witness}"
        )
    return field.pointwise


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
    hv, gv, dhv, dgv = part_values(m, zc)
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
    # The angles as Python's complex arithmetic gives 2j * pi * k / n_eps: one
    # rounding of 2 pi k, then one of the division (numpy's complex division
    # multiplies by 1/n_eps, which rounds differently unless n_eps is a power
    # of 2).  So eps is the exp of each scalar 2j * pi * k / n_eps, bit for bit.
    z = np.zeros(n_eps, dtype=np.complex128)
    z.imag = np.arange(n_eps) * (2 * np.pi) / n_eps
    return np.exp(z)


def family_scan(values, bounds, grid: GridSpec, eps: np.ndarray, what: str) -> EpsilonScanResult:
    """Minimum of Re(num/den) over the unimodular samples ``eps`` and the grid.

    ``values(which, r)`` returns the values (den, num) of the members
    ``which`` (consecutive ascending indices into ``eps``) on the rings of
    radii ``r``, each of shape (members, rings * n_angles), radius-major,
    which the scan may overwrite and which need last only until the next
    call.  ``bounds(which, r)`` returns lower bounds on |den| and on
    Re(num/den) over each ring, each of shape (members, rings), less a
    rounding allowance: at most every computed value, -inf (or NaN) for none.

    The scan walks the rings (:func:`walk_rings`), each for every eps in
    chunks of fewer than ``BLOCK_POINTS`` values, or one ring of a chunk's
    members (:func:`_block_rings`): first the rings of the lowest
    quotient bound over every eps, ties included, then the others where
    those bounds do not clear margin_eps or the least value found so far.
    It forms the quotient only for members whose |den| is above margin_eps
    on the rings at hand.  A :class:`~spiralmaps.harmonic.RingTable` tagged
    by eps records each ring's first eps whose |den| is not above
    margin_eps, with its least |den|, and its least Re(num/den).  Raises
    :class:`NearZeroError` (``what`` naming the denominator) for the
    smallest near-zero eps, else returns the least value: either is that of
    the full sampled scan, bit for bit.
    """
    n, margin, n_angles = eps.size, grid.margin_eps, grid.n_angles
    chunk = min(n, max(1, BLOCK_POINTS // n_angles))
    span = max(1, BLOCK_POINTS // chunk)  # rings per call of bounds
    chunks = [np.arange(k, min(k + chunk, n)) for k in range(0, n, chunk)]
    radii, angles = grid_axes(grid)
    lowest = np.full((2, radii.size), np.inf)  # per ring, over every eps
    for which in chunks:
        for s in range(0, radii.size, span):
            b = np.asarray(bounds(which, radii[s : s + span])).min(axis=1)
            np.minimum(lowest[:, s : s + span], b, out=lowest[:, s : s + span])
    lowest[np.isnan(lowest)] = -np.inf  # no bound
    table = RingTable(lowest, radii)  # rows: near-zero |den|, Re(num/den)

    def scan(i):
        # Each chunk's members on the rings i, in eps order, merged within the
        # chunk's call so that no chunk's values outlive it.
        z, rings = (radii[i, None] * angles).ravel(), np.arange(i.size)
        for which in chunks:
            den, num = values(which, radii[i])
            v, k = ring_minima(np.abs(den, out=mags[: den.size].reshape(den.shape)), n_angles)
            near = ~(v > margin)
            if near.any():
                j = near.argmax(axis=0)  # the first near-zero member on each ring
                new = near[j, rings] & (table.low[0, i] == np.inf)  # and none before it
                table.merge(0, i[new], v[j, rings][new], z[k[j, rings]][new], which[j][new])
                clear = ~near.any(axis=1)
                which, den, num = which[clear], den[clear], num[clear]
            if which.size:
                v, k = ring_minima(np.divide(num, den, out=num).real, n_angles)
                j = v.argmin(axis=0)  # the first least member on each ring, NaN first
                table.merge(1, i, v[j, rings], z[k[j, rings]], which[j])
        table.evaluated[i] = True

    def skip(i):  # the rings whose bounds over every eps clear the least value and the margin
        return (table.bounds[1, i] > np.fmin.reduce(table.low[1])) & (table.bounds[0, i] > margin)

    seed = np.flatnonzero(lowest[1] == lowest[1].min())
    # A pooled workspace for the |den| of a call: at most chunk members on a
    # block of fewer than BLOCK_POINTS // chunk values, or one ring.
    with workspace(-(-max(BLOCK_POINTS, n_angles) // 2)) as spare:
        mags = spare.view(np.float64)
        walk_rings(seed, radii.size, _block_rings(grid, chunk), scan, skip)
    i = np.flatnonzero(table.low[0] != np.inf)  # the rings with a near-zero eps
    if i.size:
        v, z, e = (a[0] for a in table.least(i[table.tag[0, i] == table.tag[0, i].min()]))
        raise NearZeroError(
            f"|{what}| = {v:.3e} below margin at eps = {complex(eps[e])}, z = {complex(z)}"
        )
    best, z, e = (a[1] for a in table.least())
    return EpsilonScanResult(float(best), complex(z), complex(eps[e]), bool(best > -margin))


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
    form) and scanned by :func:`family_scan`, pruned by :func:`ring_bounds`
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

    def fields(r):  # on a block of _block_rings, where a closed form has its ring-by-ring bits
        if m.closed_form is None:
            return ring_values(rows, r, grid.n_angles, out=spectra[: 4 * r.size * grid.n_angles])
        z = (r[:, None] * angles).ravel()
        return h_values(m, z), g_values(m, z), z * dh_values(m, z), z * dg_values(m, z)

    last = [None, None]  # the rings of the last call and their fields

    def values(which, r):
        if not np.array_equal(r, last[0]):  # the walk asks every chunk in turn
            last[:] = r, fields(r)
        hv, gv, zdh, zdg = last[1]
        den, num = work[: 2 * which.size * hv.size].reshape(2, which.size, hv.size)
        # eps written out in full: numpy multiplies by a broadcast eps several
        # times slower, to the same bits.
        num[...] = eps[which[0] : which[-1] + 1, None]
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
                out[:, k : k + chunk] = ring_bounds(p, r, size=size, count=2)
        # The rings' floors where the coefficients give no bound, each ring's
        # computed once.
        none = out == -np.inf
        i = np.flatnonzero(none.any(axis=(0, 1)))
        at = np.searchsorted(radii, r[i])  # r holds grid radii
        new, step = at[~done[at]], _block_rings(grid)
        for s in range(0, new.size, step):
            j = new[s : s + step]
            hv, gv, zdh, zdg = (v.reshape(j.size, -1) for v in fields(radii[j]))
            with np.errstate(all="ignore"):
                ah, ag = np.abs(hv), np.abs(gv)
                floors[0, j] = (np.abs(ah - ag) - BOUND_ROUNDING * (ah + ag)).min(axis=1)
                floors[1, j] = _quotient_bound(zdh, zdg, hv, gv, ah, ag).min(axis=1)
        done[new] = True
        last[0] = None  # the fields' workspace now holds these rings
        out[:, :, i] = np.where(none[:, :, i], floors[:, None, at], out[:, :, i])
        return out

    # One pooled workspace: the members of every call (family_scan asks for
    # at most BLOCK_POINTS values at a time, or one ring), then the four
    # fields of a block of rings.
    members, points = 2 * max(BLOCK_POINTS, grid.n_angles), max(BLOCK_POINTS - 1, grid.n_angles)
    with workspace(members + 4 * points) as buf:
        work, spectra = buf[:members], buf[members:]
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
    amag, bmag = np.abs(m.a), np.abs(m.b)
    na, nb = _ab_rows(np.arange(m.truncation_order + 1), m.truncation_order)
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

    Pointwise results are sampled on ``grid``; pass flags are pure
    functions of the reported numbers and the margins used.
    A check that is not applicable reads None: the necessary checks outside
    the sign-restricted class, the growth bounds when the sufficient test
    fails, and ``pointwise`` with ``inequality_sides`` when a near-zero |f|
    makes the quotient ill-defined.  Every other field is always set.
    """

    lam: float
    truncation_order: int
    grid: GridSpec
    silverman: CheckResult
    sufficient: CheckResult
    necessary_weighted: Optional[CheckResult]
    necessary_sharp: Optional[CheckResult]
    sense_preserving: ScanResult
    nonvanishing: ScanResult
    pointwise: Optional[ScanResult]
    inequality_sides: Optional[tuple[float, float]]
    margin: ScanResult
    growth: Optional[GrowthBounds]

    def all_passed(self) -> bool:
        """Every applicable check passes, and the spiral quotient is applicable."""
        checks = (self.silverman, self.sufficient, self.necessary_weighted, self.necessary_sharp,
                  self.sense_preserving, self.nonvanishing, self.pointwise, self.margin)
        return self.pointwise is not None and all(c.passed for c in checks if c is not None)


def run_all_checks(
    m: HarmonicMapSpec, p: SpiralParams, grid: GridSpec = GridSpec()
) -> VerificationReport:
    """Run every applicable check and assemble the report."""
    field = GridField(m, grid, p.phase)
    pointwise = field.pointwise
    sides = None if pointwise is None else spiral_inequality_sides(m, p, pointwise.witness)
    return VerificationReport(
        lam=p.lam,
        truncation_order=m.truncation_order,
        grid=grid,
        sense_preserving=field.sense_preserving,
        nonvanishing=field.nonvanishing,
        pointwise=pointwise,
        inequality_sides=sides,
        margin=field.margin,
        **_coefficient_pass(m, p, grid.r_max),
    )
