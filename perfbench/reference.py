"""Independent reference for the benchmark's output checks.

Nothing here calls a spiralmaps evaluator.  Polynomial maps are evaluated
with ``numpy.polynomial`` on their coefficients; the catalog's closed forms
and coefficient formulas, the weight table and the power-series power are
typed out again from their definitions.  Every check raises
:class:`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from numpy.polynomial import polynomial as P

#: Relative agreement demanded between a reported value and its recomputation.
REL_TOL = 1e-9
#: Relative agreement for numbers that went through 9-significant-digit text.
TEXT_TOL = 2e-8


class CheckFailed(AssertionError):
    """An operation's output disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(x: float, y: float, scale: float, tol: float = REL_TOL) -> bool:
    """x and y agree to tol relative to scale, the size of the terms they came from."""
    return abs(x - y) <= tol * abs(scale)


# ------------------------------------------------------------------ weights


def weights(lam: float, n_max: int) -> tuple[np.ndarray, float]:
    """A_n (index n, entry 0 unused) and B at angle lam."""
    e = complex(math.cos(lam), -math.sin(lam))
    n = np.arange(0, n_max + 1, dtype=np.float64)
    A = np.abs(1.0 + n * e) + np.abs(1.0 - n * e)
    B = abs(1.0 + e) - abs(1.0 - e)
    return A, B


def coefficient_sums(a: np.ndarray, b: np.ndarray, lam: float) -> dict:
    """The n-weighted, sufficient and necessary coefficient sums."""
    N = b.size
    a = np.concatenate([a, np.zeros(max(N - 1 - a.size, 0))])
    A, B = weights(lam, max(N, 1))
    na = np.arange(2, N + 1)
    nb = np.arange(1, N + 1)
    am, bm = np.abs(a), np.abs(b)
    return {
        "silverman": 1.0 + float(na @ am + nb @ bm),
        "sufficient": float((A[na] / B) @ am + (A[nb] / B) @ bm),
        "necessary_weighted": float((B / A[na]) @ am + (B / A[nb]) @ bm),
        "necessary_sharp": float(na @ am + nb @ bm),
    }


# ---------------------------------------------------------------- map fields


class Fields:
    """h, g, h', g' of one map, evaluated without spiralmaps."""

    def __init__(self, h, g, dh, dg):
        self.h, self.g, self.dh, self.dg = h, g, dh, dg

    @classmethod
    def from_coefficients(cls, a, b) -> "Fields":
        """a: coefficients of z^2.., b: coefficients of z^1.. (as in a map file)."""
        hc = np.concatenate([[0.0, 1.0], np.asarray(a, dtype=np.complex128)])
        gc = np.concatenate([[0.0], np.asarray(b, dtype=np.complex128)])
        dhc, dgc = P.polyder(hc), P.polyder(gc)
        return cls(
            lambda z: P.polyval(z, hc),
            lambda z: P.polyval(z, gc),
            lambda z: P.polyval(z, dhc),
            lambda z: P.polyval(z, dgc),
        )

    def f(self, z):
        return self.h(z) + np.conj(self.g(z))

    def Df(self, z):
        return z * self.dh(z) - np.conj(z * self.dg(z))

    def quantities(self, z, lam: float) -> dict:
        """Every scanned quantity at z, with the magnitude it is compared at."""
        z = np.asarray(z, dtype=np.complex128)
        rot = complex(math.cos(lam), -math.sin(lam))
        f, D = self.f(z), self.Df(z)
        dh, dg = self.dh(z), self.dg(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = rot * D / f
        return {
            "jacobian": (np.abs(dh) ** 2 - np.abs(dg) ** 2, np.abs(dh) ** 2 + np.abs(dg) ** 2),
            "modulus": (np.abs(f), np.abs(f)),
            "pointwise": (np.real(quotient), np.abs(quotient)),
            "margin": (np.abs(f + rot * D) - np.abs(f - rot * D), np.abs(f) + np.abs(D)),
        }

    def sides(self, z: complex, lam: float) -> tuple[float, float, float]:
        """Both sides of the cleared inequality, as documented for
        spiral_inequality_sides, and the size of the terms they cancel from."""
        h, g, dh, dg = (complex(fn(np.array([z]))[0]) for fn in (self.h, self.g, self.dh, self.dg))
        el = complex(math.cos(lam), -math.sin(lam))
        s = abs(z) ** 2 * math.cos(lam)
        terms = (el * z * dh * h.conjugate(), el.conjugate() * z * dg * g.conjugate(),
                 z * el.conjugate() * (h * dg - el * el * g * dh))
        scale = sum(abs(t) for t in terms) / s
        return (terms[0].real - terms[1].real) / s, terms[2].real / s, scale


_zero = lambda z: np.zeros_like(z)


def catalog_fields(name: str, lam: float, alpha) -> Fields:
    """Retyped catalog: closed forms where coefficients do not decay."""
    if name == "koebe":
        return Fields(lambda z: z / (1 - z) ** 2, _zero, lambda z: (1 + z) / (1 - z) ** 3, _zero)
    if name == "f4":
        return Fields(
            lambda z: z * np.power(1 - z, 1j - 1),
            _zero,
            lambda z: (1 - 1j * z) * np.power(1 - z, 1j - 2),
            _zero,
        )
    if name == "harmonic_koebe":
        return Fields(
            lambda z: (z - z**2 / 2 + z**3 / 6) / (1 - z) ** 3,
            lambda z: (z**2 / 2 + z**3 / 6) / (1 - z) ** 3,
            lambda z: (1 + z) / (1 - z) ** 4,
            lambda z: z * (1 + z) / (1 - z) ** 4,
        )
    if name == "half_plane":
        return Fields(
            lambda z: (z - z**2 / 2) / (1 - z) ** 2,
            lambda z: -(z**2) / 2 / (1 - z) ** 2,
            lambda z: 1 / (1 - z) ** 3,
            lambda z: -z / (1 - z) ** 3,
        )
    a, b = catalog_coefficients(name, lam, alpha)
    return Fields.from_coefficients(a, b)


def catalog_coefficients(name: str, lam: float, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the polynomial catalog entries, from their definitions."""
    A, B = weights(lam, 3)
    al = complex(alpha) if alpha is not None else 0j
    table = {
        "identity": ([], [0.0]),
        "f1": ([], [al.conjugate()]),
        "f2": ([], [0.0, al.conjugate() * B / A[2]]),
        "f3": ([], [al.conjugate() * B / A[1], 0.0, (1 - abs(al)) * B / A[3]]),
        "f5": ([], [al.real * B / A[1], (1 - al.real) * B / A[2]]),
        "f6": ([], [-B / A[1]]),
        "f7": ([], [B / A[1]]),
    }
    a, b = table[name]
    return np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)


# -------------------------------------------------------------- power series


def series_power(s: np.ndarray, mu: complex) -> np.ndarray:
    """s**mu for s[0] = 1, by the J.C.P. Miller recurrence (not exp/log)."""
    s = np.asarray(s, dtype=np.complex128)
    out = np.zeros_like(s)
    out[0] = 1.0
    for n in range(1, s.size):
        k = np.arange(1, n + 1)
        out[n] = np.dot(((mu + 1) * k - n) * s[1 : n + 1], out[n - k]) / n
    return out


def power_transform(g: np.ndarray, lam: float) -> np.ndarray:
    """Coefficients of z (g/z)^mu, mu = e^{i lam} cos lam (index 0..N)."""
    mu = complex(math.cos(lam), math.sin(lam)) * math.cos(lam)
    body = series_power(np.asarray(g[1:], dtype=np.complex128), mu)
    return np.concatenate([[0.0], body])


def koebe_power_transform(order: int, lam: float) -> np.ndarray:
    """z (1 - z)^(-2 mu) by the binomial recurrence, index 0..order."""
    mu = complex(math.cos(lam), math.sin(lam)) * math.cos(lam)
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    for k in range(1, order):
        c[k] = c[k - 1] * (k - 1 + 2 * mu) / k
    return np.concatenate([[0.0], c])


def require_coefficients(got, want, what: str, tol: float = REL_TOL) -> None:
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    require(got.size == want.size, f"{what}: {got.size} coefficients, expected {want.size}")
    if got.size:
        # Componentwise: 9-digit text rounds real and imaginary parts separately.
        err = np.maximum(np.abs(got.real - want.real), np.abs(got.imag - want.imag))
        bound = tol * np.maximum(np.abs(want), 1e-300) + 1e-300
        k = int(np.argmax(err / bound))
        require(err[k] <= bound[k], f"{what}: coefficient {k} is {got[k]}, expected {want[k]}")


# -------------------------------------------------------------- report checks


def grid_sample(r_min, r_max, n_radii, n_angles, rng, n: int) -> np.ndarray:
    """n distinct points of the annulus grid r_i e^{2 pi i j / n_angles},
    without building the grid (so a check never raises the peak RSS)."""
    k = rng.choice(n_radii * n_angles, size=min(n, n_radii * n_angles), replace=False)
    i, j = np.divmod(k, n_angles)
    return np.linspace(r_min, r_max, n_radii)[i] * np.exp(2j * np.pi * j / n_angles)


SCANS = (
    ("sense_preserving", "jacobian"),
    ("nonvanishing", "modulus"),
    ("pointwise", "pointwise"),
    ("margin", "margin"),
)


def check_report(report, fields: Fields, lam: float, rng: np.random.Generator,
                 built_to_pass: bool = False, coefficients=None) -> None:
    """Minima against their witnesses, a seeded grid sample against the minima,
    the coefficient sums, and all_pass for maps built to pass."""
    g = report.grid
    for attr, qty in SCANS:
        res = getattr(report, attr)
        if res is None:
            continue
        val, scale = fields.quantities(np.array([res.witness]), lam)[qty]
        require(close(res.min_value, float(val[0]), float(scale[0])),
                f"{attr}_min {res.min_value!r} but {float(val[0])!r} at its witness {res.witness}")
    sample = grid_sample(g.r_min, g.r_max, g.n_radii, g.n_angles, rng, 64)
    q = fields.quantities(sample, lam)
    for attr, qty in SCANS:
        res = getattr(report, attr)
        if res is None:
            continue
        val, scale = q[qty]
        below = val < res.min_value - REL_TOL * scale
        require(not np.any(below), f"{attr}: grid point {sample[np.argmax(below)]} reads "
                f"{val[np.argmax(below)]!r} below the reported minimum {res.min_value!r}")
    if report.pointwise is not None:
        lhs, rhs, scale = fields.sides(report.pointwise.witness, lam)
        got_l, got_r = report.inequality_sides
        require(close(got_l, lhs, scale) and close(got_r, rhs, scale),
                f"inequality sides {(got_l, got_r)} but {(lhs, rhs)} at the witness")
    if coefficients is not None:
        sums = coefficient_sums(*coefficients, lam)
        keys = ["silverman", "sufficient"]
        if report.necessary_weighted is not None:
            keys += ["necessary_weighted", "necessary_sharp"]
        for key in keys:  # sums of nonnegative terms
            got = getattr(report, key).value
            require(close(got, sums[key], 1.0 + sums[key]), f"{key}_sum {got!r}, expected {sums[key]!r}")
    if built_to_pass:
        require(report.all_passed(), "a map built to pass the sufficient test reports all_pass = false")


def parse_report_text(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_report_lines(lines: list, report) -> None:
    rep = parse_report_text("\n".join(lines))
    want = "true" if report.all_passed() else "false"
    require(rep.get("all_pass") == want, f"all_pass line {rep.get('all_pass')!r}, report says {want}")
    if report.pointwise is not None:
        got = float(rep["pointwise_min_margin"])
        require(close(got, report.pointwise.min_value, report.pointwise.min_value, TEXT_TOL),
                f"pointwise_min_margin line {got!r} but report {report.pointwise.min_value!r}")


def check_exit_code(returncode: int, stdout: str, key: str = "all_pass") -> str:
    """The exit code agrees with the pass line printed; returns that line's value."""
    value = parse_report_text(stdout).get(key)
    require(value in ("true", "false"), f"no {key} line in output (exit {returncode})")
    require(returncode == (0 if value == "true" else 1),
            f"exit code {returncode} but {key} = {value}")
    return value


# ------------------------------------------------------------ file outputs


def map_file_coefficients(text: str) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(text)
    a = np.array([complex(re_, im) for re_, im in doc["a"]], dtype=np.complex128)
    b = np.array([complex(re_, im) for re_, im in doc["b"]], dtype=np.complex128)
    return a, b


def map_file_parameters(text: str) -> tuple[float, complex | None]:
    """lambda and the catalog alpha (None when absent) as written in a map file."""
    doc = json.loads(text)
    alpha = doc.get("catalog", {}).get("params", {}).get("alpha")
    if alpha is not None:
        alpha = complex(*alpha) if isinstance(alpha, list) else complex(alpha)
    return doc["lambda"], alpha


def curve_reference(fields: Fields, radii, samples: int) -> np.ndarray:
    theta = 2 * np.pi * np.arange(samples) / samples
    return np.stack([fields.f(r * np.exp(1j * theta)) for r in radii])


def check_csv(text: str, fields: Fields, radii, samples: int, rng) -> None:
    rows = text.rstrip("\n").split("\n")
    require(rows[0] == "r,theta,re,im", f"CSV header {rows[0]!r}")
    require(len(rows) == 1 + len(radii) * samples,
            f"CSV has {len(rows) - 1} rows, expected {len(radii) * samples}")
    ref = curve_reference(fields, radii, samples)
    scale = np.max(np.abs(ref), axis=1)
    for k in rng.choice(len(rows) - 1, size=16, replace=False):
        i, j = divmod(int(k), samples)
        r, t, x, y = (float(v) for v in rows[1 + k].split(","))
        want = ref[i, j]
        require(close(r, radii[i], 1.0, TEXT_TOL) and close(t, 2 * math.pi * j / samples, 7.0, TEXT_TOL),
                f"CSV row {k + 1} samples ({r}, {t})")
        require(close(x, want.real, scale[i], TEXT_TOL) and close(y, want.imag, scale[i], TEXT_TOL),
                f"CSV row {k + 1} reads {x},{y}; expected {want}")


_POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def check_svg(text: str, fields: Fields, radii, samples: int, rng) -> None:
    lines = _POLYLINE.findall(text)
    require(len(lines) == len(radii), f"SVG has {len(lines)} polylines, expected {len(radii)}")
    ref = curve_reference(fields, radii, samples)
    for i, pts in enumerate(lines):
        pairs = pts.split(" ")
        require(len(pairs) == samples + 1 and pairs[0] == pairs[-1],
                f"SVG polyline {i} has {len(pairs)} points or is not closed")
        scale = float(np.max(np.abs(ref[i])))
        for j in rng.choice(samples, size=4, replace=False):
            x, y = (float(v) for v in pairs[j].split(","))
            want = ref[i, j]
            require(close(x, want.real, scale, TEXT_TOL) and close(y, -want.imag, scale, TEXT_TOL),
                    f"SVG polyline {i} point {j} reads {x},{y}; expected image {want}")
