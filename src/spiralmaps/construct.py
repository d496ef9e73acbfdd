"""Constructors, transforms, and the built-in example catalog.

The extremal family and convex combinations build maps that saturate the
sufficient coefficient test; decomposition splits a sign-restricted map into
weights that recombination turns back into it when every b_n >= 0.  The
multiplier transfer moves between hereditarily starlike and hereditarily
spirallike maps through the bound |d_n| <= n B/A_n.  The analytic power
transform sends a starlike series g to h = z (g/z)^mu with
mu = e^{i s lam} cos(lam); with the default orientation s = +1 the output
satisfies Re(e^{-i lam} z h'/h) = cos(lam) Re(z g'/g) > 0, i.e. it is
spirallike at the same angle under the Re(e^{-i lam} . ) > 0 convention.
The mirrored exponent (s = -1) produces the angle-reflected class; both are
exposed because the two conventions appear in the literature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .harmonic import (
    BLOCK_POINTS,
    ClosedForm,
    GridSpec,
    HarmonicMapSpec,
    _block_rings,
    grid_axes,
    identity_map,
    ring_bounds,
    ring_values,
    signed_shape,
    workspace,
)
from .criteria import (
    ClassFormError,
    EpsilonScanResult,
    SpiralParams,
    _ab_rows,
    family_scan,
    silverman_check,
    unimodular_samples,
    weight_table,
)
from .series import (
    DEFAULT_ORDER,
    NORMALIZATION_TOL,
    NormalizationError,
    PowerSeries,
    log_derivative_ratio,
    pow_rows,
    pow_series,
)


#: Cap on n_eps times the order of a family check: the members' rows take
#: about 128 bytes per eps and coefficient, so this holds them to about
#: 512 MB.  Every n_eps up to the cap on samples runs at the default order.
MAX_FAMILY_COEFFS = 2**22


class ConstraintError(ValueError):
    """A constructor's coefficient budget or multiplier bound was violated."""


class DecompositionError(ValueError):
    """The map's weights do not leave a nonnegative identity share."""


# --------------------------------------------------------------- combinations


@dataclass(frozen=True, eq=False)
class CombinationWeights:
    """Nonnegative weights X_n, Y_n (n = 1..N) summing to one.

    ``X[k]`` and ``Y[k]`` carry the weight for index n = k + 1.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.Y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size == 0:
            raise ValueError("weights must be two equal-length flat sequences")
        if np.any(x < -1e-12) or np.any(y < -1e-12):
            raise ValueError("combination weights must be nonnegative")
        total = float(x.sum() + y.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"combination weights must sum to 1, got {total!r}")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n_max(self) -> int:
        return self.X.size


def extremal_family(x, y, p: SpiralParams, order: int | None = None) -> HarmonicMapSpec:
    """Map with a_n = (B/A_n) x_n (n >= 2) and b_n = (B/A_n) y_n (n >= 1).

    Its sufficient-test sum equals sum|x| + sum|y|, so the family realizes
    every value up to (and including) the threshold 1; a budget above 1 is
    rejected.
    """
    x = np.asarray(list(x), dtype=np.complex128)
    y = np.asarray(list(y), dtype=np.complex128)
    budget = float(np.abs(x).sum() + np.abs(y).sum())
    if budget > 1.0 + 1e-12:
        raise ConstraintError(f"weight budget sum|x| + sum|y| = {budget:.6g} exceeds 1")
    if order is None:
        order = max(x.size + 1, y.size, 1)
    ra, rb = _ab_rows(weight_table(p, max(order, 1)).necessary_ratios(), order)  # B/A_n
    a = x * ra[: x.size]
    b = y * rb[: y.size]
    return HarmonicMapSpec(
        a=a, b=b, truncation_order=order, signed_form=signed_shape(a, b)
    )


def convex_combination(
    w: CombinationWeights, p: SpiralParams, sign: int = 1
) -> HarmonicMapSpec:
    """Convex combination of the basis maps z + sign (B/A_n) z^n and
    z + (B/A_n) conj(z^n).

    The weight X_1 multiplies the identity.  The output's sufficient-test
    sum is 1 - X_1 <= 1; with sign = -1 it lands in the sign-restricted
    class.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    n_max = w.n_max
    ra, rb = _ab_rows(weight_table(p, n_max).necessary_ratios(), n_max)
    a = sign * w.X[1:] * ra
    b = w.Y * rb
    return HarmonicMapSpec(
        a=a, b=b, truncation_order=n_max, signed_form=signed_shape(a, b)
    )


def decompose(m: HarmonicMapSpec, p: SpiralParams) -> CombinationWeights:
    """Weights X_n = B|a_n|/A_n, Y_n = B|b_n|/A_n with the identity share
    X_1 = 1 - sum X - sum Y.

    Requires the sign-restricted form and a nonnegative identity share
    (equivalently, the weighted necessary test passing).  The weights keep
    only |a_n| and |b_n|: :func:`recombine` returns the map up to rounding
    when every b_n >= 0, and with |b_n| for each b_n < 0 otherwise (f6
    comes back as f7).
    """
    if not m.signed_form:
        raise ClassFormError("decomposition is defined on sign-restricted maps")
    n_max = m.truncation_order
    ra, rb = _ab_rows(weight_table(p, n_max).necessary_ratios(), n_max)
    X = np.zeros(n_max)
    X[1:] = np.abs(m.a) * ra
    Y = np.abs(m.b) * rb
    share = 1.0 - X.sum() - Y.sum()
    if share < -1e-12:
        raise DecompositionError(
            f"identity share 1 - sum X - sum Y = {share:.6g} is negative"
        )
    X[0] = max(share, 0.0)
    return CombinationWeights(X=X, Y=Y)


def recombine(w: CombinationWeights, p: SpiralParams) -> HarmonicMapSpec:
    """The map of :func:`decompose`'s weights: basis h_n = z - (A_n/B) z^n,
    g_n = z + (A_n/B) conj(z^n), identity share on n = 1, so every b_n >= 0."""
    n_max = w.n_max
    ra, rb = _ab_rows(weight_table(p, n_max).sufficient_ratios(), n_max)  # A_n/B
    a = -w.X[1:] * ra
    b = w.Y * rb
    return HarmonicMapSpec(a=a, b=b, truncation_order=n_max, signed_form=True)


# ----------------------------------------------------------- multiplier moves


@dataclass(frozen=True, eq=False)
class MultiplierSequence:
    """Sequence d_1..d_N applied termwise; ``d[k]`` targets index n = k+1."""

    d: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("multiplier sequence must be a flat nonempty sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite multiplier rejected")
        arr.flags.writeable = False
        object.__setattr__(self, "d", arr)

    @classmethod
    def max_allowed(cls, p: SpiralParams, n_max: int) -> "MultiplierSequence":
        """The extremal choice d_n = n B / A_n."""
        n, ratios = np.arange(n_max + 1), weight_table(p, n_max).necessary_ratios()
        return cls(d=_ab_rows(n * ratios, n_max)[1])


def multiplier_transfer(
    F: HarmonicMapSpec, d: MultiplierSequence, p: SpiralParams
) -> HarmonicMapSpec:
    """From a sign-restricted hereditarily starlike map F to the spirallike
    map with coefficients d_n |a_n|, d_n |b_n|.

    Requires F to satisfy the n-weighted coefficient budget and every
    |d_n| <= n B / A_n; the output then passes the sufficient test at this
    angle.
    """
    if not F.signed_form:
        raise ClassFormError("multiplier transfer starts from a sign-restricted map")
    sil = silverman_check(F)
    if not sil.passed:
        raise ConstraintError(
            f"input map fails the n-weighted coefficient budget (sum = {sil.value:.6g})"
        )
    n_max = F.truncation_order
    bound = MultiplierSequence.max_allowed(p, n_max).d.real
    dd = np.zeros(n_max, dtype=np.complex128)
    dd[: d.d.size] = d.d[:n_max]
    over = np.abs(dd) > bound + 1e-12
    if np.any(over):
        n_bad = int(np.argmax(over)) + 1
        raise ConstraintError(
            f"|d_{n_bad}| = {abs(dd[n_bad - 1]):.6g} exceeds "
            f"{n_bad}*B/A_{n_bad} = {bound[n_bad - 1]:.6g}"
        )
    a = dd[1:] * np.abs(F.a)
    b = dd * np.abs(F.b)
    return HarmonicMapSpec(
        a=a, b=b, truncation_order=n_max, signed_form=signed_shape(a, b)
    )


def starlike_associate(m: HarmonicMapSpec) -> HarmonicMapSpec:
    """The converse direction: replace every coefficient by its magnitude.

    For a sign-restricted hereditarily spirallike input the result
    satisfies the n-weighted budget, hence is hereditarily starlike.
    """
    return HarmonicMapSpec(
        a=np.abs(m.a),
        b=np.abs(m.b),
        truncation_order=m.truncation_order,
        signed_form=False,
    )


# ------------------------------------------------------------ power transform


def transform_exponent(p: SpiralParams, orientation: int = 1) -> complex:
    """The transform exponent mu = e^{i * orientation * lam} cos(lam)."""
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    return complex(np.exp(1j * orientation * p.lam) * math.cos(p.lam))


#: The last transform built, (key, h): a one-entry memo keyed on the exact
#: bytes of g's coefficients and of mu (the orientation is part of mu).  So
#: :func:`transform_identity_defect` right after the transform of the same g
#: reuses its h.  h is a function of the key alone and a PowerSeries is
#: immutable, so a hit returns what a miss would build, to every caller.
_last_transform: tuple = (None, None)


def spirallike_power_transform(
    g: PowerSeries,
    p: SpiralParams,
    orientation: int = 1,
    probe: bool = True,
) -> PowerSeries:
    """h = z * (g(z)/z)^mu for a normalized starlike series g.

    With the default orientation the output satisfies
    Re(e^{-i lam} z h'/h) = cos(lam) Re(z g'/g), so starlike inputs give
    spirallike outputs at the same angle under the Re(e^{-i lam} . ) > 0
    convention; orientation = -1 uses the mirrored exponent and lands in
    the angle-reflected class.  A coarse grid probe warns when the output
    violates its spiral inequality (e.g. because the input was not
    starlike).  A call with the same coefficients and exponent as the last
    transform built returns that h (``_last_transform``); the probe still
    runs on every call that asks for it.
    """
    c = g.coeffs
    if abs(c[0]) > NORMALIZATION_TOL:
        raise NormalizationError(f"transform input needs g(0) = 0, got {c[0]}")
    if g.order < 1 or abs(c[1] - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"transform input needs g'(0) = 1, got {c[1] if g.order >= 1 else 0}"
        )
    global _last_transform
    mu = transform_exponent(p, orientation)
    key = (c.tobytes(), np.complex128(mu).tobytes())
    last_key, h = _last_transform
    if key != last_key:
        h = pow_series(g.divided_by_z(), mu).times_z()
        _last_transform = (key, h)
    if probe:
        _orientation_probe(g)
    return h


def _orientation_probe(g: PowerSeries) -> None:
    # The output ratio obeys z h'/h = (1 - mu) + mu z g'/g exactly, and
    # Re(e^{-i s lam} z h'/h) = cos(lam) Re(z g'/g), so validating the
    # orientation amounts to scanning the input's starlikeness margin.
    # Probing through the input stays well conditioned even when the output
    # coefficients do not decay.  Coarse 8x32 scan capped at r = 0.7, where
    # a 64-term truncation with polynomially growing coefficients is still
    # converged; only the sign matters.  One FFT per ring gives g and z g' on
    # the grid's points, radius-major, axis points exact.  The radii are those
    # of grid_axes, computed here so that its one-entry memo keeps the grid of
    # the scans.
    grid = GridSpec(n_radii=8, n_angles=32, r_max=0.7)
    c = g.coeffs
    radii = np.linspace(grid.r_min, grid.r_max, grid.n_radii)
    gv, zdg = ring_values(np.stack([c, np.arange(c.size) * c]), radii, grid.n_angles)
    good = np.abs(gv) > 1e-12
    margins = np.real(zdg[good] / gv[good])
    if margins.size and margins.min() <= 0.0:
        warnings.warn(
            "power-transform output fails its spiral inequality on the probe grid "
            "because the input series is not starlike there",
            RuntimeWarning,
            stacklevel=3,
        )


def transform_identity_defect(
    g: PowerSeries,
    p: SpiralParams,
    grid: GridSpec = GridSpec(),
) -> float:
    """Consistency defect of the power transform on a grid.

    Builds h from g (or reuses it when the last transform built was that of
    the same g and exponent), forms both logarithmic-derivative ratios as
    series, and returns max |Re(e^{-i lam} z h'/h) - cos(lam) Re(z g'/g)|
    over the grid, for the transform of the default orientation.  The
    identity is exact for the transform, so the defect measures only the
    numerical consistency of the series exp/log/division stack.  As cos(lam)
    is real, the difference is Re of the one series e^{-i lam} z h'/h -
    cos(lam) z g'/g, which is evaluated ring block by ring block in a pooled
    workspace.
    """
    h = spirallike_power_transform(g, p, probe=False)
    row = p.phase * log_derivative_ratio(h).coeffs
    row -= math.cos(p.lam) * log_derivative_ratio(g).coeffs
    radii, _ = grid_axes(grid)
    defect, step = 0.0, _block_rings(grid)
    with workspace(step * grid.n_angles) as work:
        for s in range(0, radii.size, step):
            r = radii[s : s + step]
            q = ring_values(row[None], r, grid.n_angles, out=work[: r.size * grid.n_angles]).real
            defect = np.maximum(defect, np.abs(q, out=q).max())
    return float(defect)


def transform_family_check(
    H: PowerSeries,
    G: PowerSeries,
    p: SpiralParams,
    grid: GridSpec = GridSpec(),
    n_eps: int = 64,
    orientation: int = 1,
) -> EpsilonScanResult:
    """Spiral margins of the transforms of H + eps*G across |eps| = 1.

    H plays the normalized analytic role (H(0) = 0, H'(0) = 1) and G the
    perturbation (G(0) = 0).  For each sampled eps the combination is
    renormalized by its linear coefficient w = 1 + eps*G'(0) (an error
    names eps if w ~ 0), transformed, and the minimum of
    Re(e^{-i lam} z F'/F) over the grid is recorded.  A positive family
    minimum supports transferring multiplier-bounded coefficients onto a
    spirallike map; a negative one refutes it on the sampled family.  All
    members are raised to mu by one batched recurrence (:func:`pow_rows`) and
    scanned by :func:`family_scan`, pruned by :func:`ring_bounds` of their
    coefficients.  n_eps times the order is at most ``MAX_FAMILY_COEFFS``.
    """
    hc = H.coeffs
    if abs(hc[0]) > NORMALIZATION_TOL or H.order < 1 or abs(hc[1] - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError("family check needs H(0) = 0 and H'(0) = 1")
    if abs(G.coeffs[0]) > NORMALIZATION_TOL:
        raise NormalizationError("family check needs G(0) = 0")
    if G.order < 1:
        raise ValueError("family check needs G of order at least 1")
    n = min(H.order, G.order)
    if n_eps * n > MAX_FAMILY_COEFFS:
        raise ValueError(f"n_eps x order must be at most {MAX_FAMILY_COEFFS}, got {n_eps} x {n}")
    mu = transform_exponent(p, orientation)
    eps = unimodular_samples(n_eps)
    s = H.coeffs[1 : n + 1] + eps[:, None] * G.coeffs[1 : n + 1]  # (H + eps G) / z
    w0 = s[:, 0]
    degenerate = np.flatnonzero(np.abs(w0) < 1e-9)
    # Members past the first degenerate eps are never reached: its error is
    # raised once the members before it have passed their near-zero check.
    formed = int(degenerate[0]) if degenerate.size else n_eps
    result = None
    if formed:
        rot = np.exp(-1j * orientation * p.lam)
        rows = np.zeros((formed, 2, n + 1), dtype=np.complex128)  # F_eps, rot z F_eps'
        rows[:, 0, 1:] = pow_rows(s[:formed] * (1.0 / w0[:formed, None]), mu)
        rows[:, 1] = rows[:, 0] * (rot * np.arange(n + 1))

        def values(k, r):  # k: consecutive members
            m = rows[k[0] : k[-1] + 1].reshape(-1, n + 1)
            out = ring_values(m, r, grid.n_angles, out=work[: m.shape[0] * r.size * grid.n_angles])
            out = out.reshape(k.size, 2, -1)
            return out[:, 0], out[:, 1]

        def bounds(k, r):
            p = np.abs(rows[k, 0, 1:])  # |p_j|, F_eps = z P
            return ring_bounds(p, r, rot, size=p, count=2)

        # One pooled workspace for the members of every call: family_scan
        # asks for at most BLOCK_POINTS values at a time, or one ring.
        with workspace(2 * max(BLOCK_POINTS, grid.n_angles)) as work:
            result = family_scan(values, bounds, grid, eps[:formed], "F_eps")
    if formed < n_eps:
        raise ConstraintError(
            f"H + eps G degenerates at eps = {complex(eps[formed])}: "
            f"linear coefficient {complex(w0[formed]):.3e}"
        )
    return result


# -------------------------------------------------------------------- catalog


def _require_angle(name: str, p: SpiralParams | None) -> SpiralParams:
    if p is None:
        raise ValueError(f"catalog entry {name!r} needs a spiral angle")
    return p


def _require_alpha(name: str, alpha) -> complex:
    if alpha is None:
        raise ValueError(f"catalog entry {name!r} needs the parameter alpha")
    al = complex(alpha)
    if not abs(al) < 1.0:
        raise ValueError(f"alpha must lie in the open unit disk, got {al}")
    return al


def _koebe_closed_form() -> ClosedForm:
    zero = lambda z: np.zeros_like(z)
    return ClosedForm(
        name="koebe",
        h=lambda z: z / (1.0 - z) ** 2,
        g=zero,
        dh=lambda z: (1.0 + z) / (1.0 - z) ** 3,
        dg=zero,
    )


def _curve_power(z: np.ndarray, gamma: complex) -> np.ndarray:
    return np.exp(gamma * np.log(1.0 - z))


def _spiral_slit_closed_form() -> ClosedForm:
    # h(z) = z (1-z)^(i-1); h'(z) = (1 - i z)(1-z)^(i-2).
    zero = lambda z: np.zeros_like(z)
    return ClosedForm(
        name="f4",
        h=lambda z: z * _curve_power(z, 1j - 1.0),
        g=zero,
        dh=lambda z: (1.0 - 1j * z) * _curve_power(z, 1j - 2.0),
        dg=zero,
    )


def _harmonic_koebe_closed_form() -> ClosedForm:
    def h(z):
        return (z - z**2 / 2 + z**3 / 6) / (1.0 - z) ** 3

    def g(z):
        return (z**2 / 2 + z**3 / 6) / (1.0 - z) ** 3

    def dh(z):
        p = z - z**2 / 2 + z**3 / 6
        return ((1.0 - z + z**2 / 2) * (1.0 - z) + 3.0 * p) / (1.0 - z) ** 4

    def dg(z):
        q = z**2 / 2 + z**3 / 6
        return ((z + z**2 / 2) * (1.0 - z) + 3.0 * q) / (1.0 - z) ** 4

    return ClosedForm(name="harmonic_koebe", h=h, g=g, dh=dh, dg=dg)


def _half_plane_closed_form() -> ClosedForm:
    def h(z):
        return (z - z**2 / 2) / (1.0 - z) ** 2

    def g(z):
        return (-(z**2) / 2) / (1.0 - z) ** 2

    return ClosedForm(
        name="half_plane",
        h=h,
        g=g,
        dh=lambda z: 1.0 / (1.0 - z) ** 3,
        dg=lambda z: -z / (1.0 - z) ** 3,
    )


def _or_default(order: int | None, default: int) -> int:
    """``order``, or the entry's ``default`` when it is None: an order of 0
    is refused like any other below 1, not taken for the default."""
    return default if order is None else order


def catalog(
    name: str,
    p: SpiralParams | None = None,
    alpha=None,
    order: int | None = None,
) -> HarmonicMapSpec:
    """Build a named example map.

    Entries with non-decaying coefficients (f4, koebe, harmonic_koebe,
    half_plane) carry closed-form evaluators; polynomial entries are exact
    as series.  ``p`` supplies the spiral angle for the weight-dependent
    entries (f2, f3, f5, f6, f7), ``alpha`` the disk parameter where one
    appears.
    """
    key = name.lower()
    if key == "identity":
        return identity_map(_or_default(order, 1))
    if key == "f1":
        al = _require_alpha(name, alpha)
        return HarmonicMapSpec(
            a=[], b=[np.conj(al)], truncation_order=_or_default(order, 1),
            signed_form=signed_shape([], [np.conj(al)]),
        )
    if key == "f2":
        al = _require_alpha(name, alpha)
        wt = weight_table(_require_angle(name, p), 2)
        b2 = np.conj(al) * wt.necessary_ratios()[2]
        return HarmonicMapSpec(
            a=[], b=[0.0, b2], truncation_order=_or_default(order, 2),
            signed_form=signed_shape([], [0.0, b2]),
        )
    if key == "f3":
        al = _require_alpha(name, alpha)
        wt = weight_table(_require_angle(name, p), 3)
        ratios = wt.necessary_ratios()
        b = [np.conj(al) * ratios[1], 0.0, (1.0 - abs(al)) * ratios[3]]
        return HarmonicMapSpec(
            a=[], b=b, truncation_order=_or_default(order, 3), signed_form=signed_shape([], b)
        )
    if key == "f4":
        n = _or_default(order, DEFAULT_ORDER)
        tail = pow_series(PowerSeries([1.0, -1.0], order=n - 1), 1j - 1.0)
        return HarmonicMapSpec(
            a=tail.coeffs[1:], b=[], truncation_order=n,
            signed_form=False, closed_form=_spiral_slit_closed_form(),
        )
    if key == "f5":
        al = _require_alpha(name, alpha)
        if abs(al.imag) > 0 or not 0.0 < al.real < 1.0:
            raise ValueError("f5 needs a real alpha in (0, 1)")
        wt = weight_table(_require_angle(name, p), 2)
        ratios = wt.necessary_ratios()
        b = [al.real * ratios[1], (1.0 - al.real) * ratios[2]]
        return HarmonicMapSpec(
            a=[], b=b, truncation_order=_or_default(order, 2), signed_form=True
        )
    if key == "f6":
        wt = weight_table(_require_angle(name, p), 1)
        # b_1 < 0: a rotation of f7, admitted into the signed form because
        # every gated check consumes magnitudes only.
        return HarmonicMapSpec(
            a=[], b=[-wt.b_over_a1()], truncation_order=_or_default(order, 1), signed_form=True
        )
    if key == "f7":
        wt = weight_table(_require_angle(name, p), 1)
        return HarmonicMapSpec(
            a=[], b=[wt.b_over_a1()], truncation_order=_or_default(order, 1), signed_form=True
        )
    if key == "koebe":
        n = _or_default(order, DEFAULT_ORDER)
        return HarmonicMapSpec(
            a=np.arange(2, n + 1, dtype=np.float64), b=[], truncation_order=n,
            signed_form=False, closed_form=_koebe_closed_form(),
        )
    if key == "harmonic_koebe":
        n = _or_default(order, DEFAULT_ORDER)
        na, nb = _ab_rows(np.arange(n + 1.0), n)
        a = (2 * na + 1) * (na + 1) / 6.0
        b = (nb - 1) * (2 * nb - 1) / 6.0
        return HarmonicMapSpec(
            a=a, b=b, truncation_order=n, signed_form=False,
            closed_form=_harmonic_koebe_closed_form(),
        )
    if key == "half_plane":
        n = _or_default(order, DEFAULT_ORDER)
        na, nb = _ab_rows(np.arange(n + 1.0), n)
        a = (na + 1) / 2.0
        b = -(nb - 1) / 2.0
        return HarmonicMapSpec(
            a=a, b=b, truncation_order=n, signed_form=False,
            closed_form=_half_plane_closed_form(),
        )
    raise KeyError(
        f"unknown catalog entry {name!r}; valid names: {', '.join(catalog_names())}"
    )


def catalog_names() -> list[str]:
    return list(CATALOG_PARAMS)


#: Catalog parameters each entry accepts, for CLI help and validation.
CATALOG_PARAMS = {
    "identity": (),
    "f1": ("alpha",),
    "f2": ("alpha", "lambda"),
    "f3": ("alpha", "lambda"),
    "f4": (),
    "f5": ("alpha", "lambda"),
    "f6": ("lambda",),
    "f7": ("lambda",),
    "koebe": (),
    "harmonic_koebe": (),
    "half_plane": (),
}


# --------------------------------------------------------- random generators


def _random_budget(rng: np.random.Generator, n_terms: int, total: float) -> np.ndarray:
    parts = rng.random(n_terms)
    return parts * (total / parts.sum())


def random_sufficient_map(
    rng: np.random.Generator,
    p: SpiralParams,
    order: int = 8,
    n_terms: int = 6,
    budget: float | None = None,
) -> HarmonicMapSpec:
    """Random map passing the sufficient test with sum exactly ``budget``.

    Draws nonnegative extremal-family weights summing to the budget
    (default: uniform in (0.05, 0.98)), gives each a uniformly random phase,
    and splits them across random analytic and co-analytic indices.
    """
    if budget is None:
        budget = float(rng.uniform(0.05, 0.98))
    if not 0.0 <= budget <= 1.0:
        raise ValueError("budget must lie in [0, 1]")
    mags = _random_budget(rng, n_terms, budget)
    x = np.zeros(max(order - 1, 0), dtype=np.complex128)  # indices n = 2..order
    y = np.zeros(order, dtype=np.complex128)  # indices n = 1..order
    for mag in mags:
        phase = np.exp(2j * np.pi * rng.random())
        if rng.random() < 0.5 and order >= 2:
            x[rng.integers(0, order - 1)] += mag * phase
        else:
            y[rng.integers(0, order)] += mag * phase
    # Splitting may stack phases on one slot; rescale to restore the budget.
    scale = budget / max(np.abs(x).sum() + np.abs(y).sum(), 1e-300)
    return extremal_family(x * scale, y * scale, p, order=order)


def random_signed_map(
    rng: np.random.Generator,
    p: SpiralParams,
    order: int = 8,
    n_terms: int = 6,
) -> HarmonicMapSpec:
    """Random sign-restricted map passing the sufficient test, with sum
    uniform in (0.05, 0.98).

    Analytic-part coefficients are <= 0 and co-analytic ones >= 0.  That is
    one sign pattern of the class: the signed form also admits real b_n < 0,
    which this generator never draws.
    """
    mags = _random_budget(rng, n_terms, float(rng.uniform(0.05, 0.98)))
    x = np.zeros(max(order - 1, 0), dtype=np.float64)
    y = np.zeros(order, dtype=np.float64)
    for mag in mags:
        if rng.random() < 0.5 and order >= 2:
            x[rng.integers(0, order - 1)] += mag
        else:
            y[rng.integers(0, order)] += mag
    return extremal_family(-x, y, p, order=order)


def random_starlike_budget_map(
    rng: np.random.Generator,
    order: int = 8,
    n_terms: int = 6,
) -> HarmonicMapSpec:
    """Random sign-restricted map inside the n-weighted budget.

    The tail budget sum n(|a_n| + |b_n|) is drawn uniform in (0.05, 0.98),
    so the full n-weighted sum, counting the unit leading coefficient, stays
    <= 2.  Suitable as multiplier-transfer input.
    """
    weights = _random_budget(rng, n_terms, float(rng.uniform(0.05, 0.98)))
    a = np.zeros(max(order - 1, 0), dtype=np.float64)
    b = np.zeros(order, dtype=np.float64)
    for w in weights:
        if rng.random() < 0.5 and order >= 2:
            k = int(rng.integers(0, order - 1))
            a[k] -= w / (k + 2)
        else:
            k = int(rng.integers(0, order))
            b[k] += w / (k + 1)
    return HarmonicMapSpec(a=a, b=b, truncation_order=order, signed_form=True)
