"""The benchmark's workloads: seeded inputs, operations and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  ``--seed`` fixes every
input; the program sees only the generated maps and map files.  Inputs are
drawn from ``numpy.random.default_rng([seed, stream, cycle])``, so each cycle
of a workload has its own inputs while its mix of operation kinds, and so
its cost, is the same for every seed.  Each workload's ``why`` says what it
exercises and which change it is there to show.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import spiralmaps
from spiralmaps import cli, construct, criteria, harmonic, mapfile, render, series

import reference as ref

LAMBDAS = (0.0, math.pi / 4, -math.pi / 4, 1.047)
ALPHA_ENTRIES = ("f1", "f2", "f3", "f5")
DENSE_GRID = dict(r_min=1e-3, r_max=0.99, n_radii=200, n_angles=2048)
SAMPLES = 720  # PlotSpec default
CLOSED_FORMS = ("koebe", "f4", "harmonic_koebe", "half_plane")


@dataclass
class Op:
    """One timed call into the program, and the check of what it returned."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    #: Ops of one group do the same work on different inputs (default: the label).
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.label


class Workload:
    name = ""
    why = ""
    #: Number of cycles in the fixed op list of a traced run.
    trace_cycles = 1
    #: Whether a cycle runs its ops in a seeded order rather than as listed.
    shuffle = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._cycle = (None, None)

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        """Generate the first cycle's inputs (and write its files)."""
        self.cycle(0)

    def cycle(self, c: int) -> list[Op]:
        if self._cycle[0] != c:
            ops = self.make_cycle(c)
            if self.shuffle:
                ops = [ops[k] for k in self.rng(0, c).permutation(len(ops))]
            self._cycle = (c, ops)
        return self._cycle[1]

    def make_cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """The first listed op of each kind, on inputs no cycle uses (so the
        cost of set-up does not depend on the seed)."""
        seen, ops = set(), []
        for op in self.make_cycle(WARMUP_CYCLE):
            if op.kind not in seen:
                seen.add(op.kind)
                ops.append(op)
        return ops


WARMUP_CYCLE = 1_000_000


def _path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _draw_alpha(name: str, rng) -> complex | None:
    if name == "f5":
        return complex(rng.uniform(0.1, 0.9))
    if name in ALPHA_ENTRIES:
        return complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.random()))
    return None


def _starlike_series(rng, order: int) -> np.ndarray:
    """g = z + sum g_n z^n with sum n|g_n| < 1, so g is starlike."""
    n = np.arange(2, order + 1)
    mags = rng.random(order - 1)
    mags *= rng.uniform(0.1, 0.6) / float(n @ mags)
    return np.concatenate([[0.0, 1.0], mags * np.exp(2j * np.pi * rng.random(order - 1))])


def _spec_text(m, p) -> str:
    return mapfile.emit_map_document(mapfile.document_from_map(m, p))


def _catalog_text(name: str, lam: float, alpha) -> str:
    m = construct.catalog(name, p=criteria.SpiralParams(lam), alpha=alpha)
    params = {}
    if alpha is not None:
        params["alpha"] = [alpha.real, alpha.imag] if alpha.imag else alpha.real
    doc = mapfile.MapDocument(lam=lam, truncation=m.truncation_order, signed_form=m.signed_form,
                              catalog_name=name, catalog_params=params)
    return mapfile.emit_map_document(doc)


def _strictly_sufficient(a, b, lam) -> bool:
    """Inside the sufficient test.  On its boundary a map can degenerate
    (f7 at lambda = 0 is z + conj(z), with Jacobian 0), so only maps strictly
    inside are held to all_pass = true."""
    return ref.coefficient_sums(np.asarray(a), np.asarray(b), lam)["sufficient"] < 1.0 - 1e-9


# ------------------------------------------------------------ catalog_session


@dataclass
class MapInput:
    label: str
    lam: float
    path: str
    fields: ref.Fields
    coefficients: tuple | None  # (a, b) when exact as coefficients
    built_to_pass: bool
    catalog_name: str | None = None  # for catalog documents
    spec: Any = None  # the parsed map, for plots


class CatalogSession(Workload):
    name = "catalog_session"
    why = ("Interactive use: every catalog entry at lambda in {0, pi/4, -pi/4, 1.047} plus seeded "
           "order-8 maps from the three random_*_map generators, each verified (parse, run_all_checks "
           "on the default 40x256 grid, report_lines), plotted (SVG and CSV) and used as the angle of "
           "four constructions written out as map files. Maps are small, closed forms are in use and "
           "every grid array fits in L2; text output dominates. A change that adds a fixed cost to "
           "every grid call (FFT planning, field caching) shows here as a regression. The catalog "
           "inputs repeat from cycle to cycle, as a user re-checking the same entries would.")
    shuffle = True

    def cycle(self, c: int) -> list[Op]:
        return super().cycle(0)  # the same catalog set every cycle

    def make_cycle(self, c: int) -> list[Op]:
        rng = self.rng(1, 0 if c != WARMUP_CYCLE else c)
        tag = "w" if c == WARMUP_CYCLE else "c"
        self.koebe = construct.catalog("koebe", order=64).h_series()
        inputs = []
        for li, lam in enumerate(LAMBDAS if c != WARMUP_CYCLE else (0.3,)):
            # The reference reads lambda and alpha back from the file: the
            # program sees them at 9 significant digits.
            for name in construct.catalog_names():
                path = _path(self.workdir, f"{tag}-{name}-{li}.json")
                fl, alpha = ref.map_file_parameters(_write(path, _catalog_text(name, lam, _draw_alpha(name, rng))))
                coeffs = None if name in CLOSED_FORMS else ref.catalog_coefficients(name, fl, alpha)
                inputs.append(MapInput(
                    f"{name} lam={lam:.4g}", fl, path, ref.catalog_fields(name, fl, alpha), coeffs,
                    built_to_pass=coeffs is not None and _strictly_sufficient(*coeffs, fl),
                    catalog_name=name))
            p = criteria.SpiralParams(lam)
            for gen in ("random_sufficient_map", "random_signed_map", "random_starlike_budget_map"):
                args = (rng,) if gen == "random_starlike_budget_map" else (rng, p)
                m = getattr(construct, gen)(*args, order=8)
                path = _path(self.workdir, f"{tag}-{gen}-{li}.json")
                text = _write(path, _spec_text(m, p))
                a, b = ref.map_file_coefficients(text)
                inputs.append(MapInput(
                    f"{gen} lam={lam:.4g}", ref.map_file_parameters(text)[0], path,
                    ref.Fields.from_coefficients(a, b), (a, b),
                    built_to_pass=gen != "random_starlike_budget_map"))
        ops = []
        for inp in inputs:
            with open(inp.path, encoding="utf-8") as fh:
                inp.spec = mapfile.parse_map_document(fh.read()).build()[0]
            ops += [self._verify(inp, rng), self._plot(inp, rng), self._construct(inp, rng)]
        return ops

    def _verify(self, inp: MapInput, rng) -> Op:
        check_rng = np.random.default_rng(rng.integers(2**63))

        def run():
            with open(inp.path, encoding="utf-8") as fh:
                doc = mapfile.parse_map_document(fh.read())
            m, p = doc.build()
            report = criteria.run_all_checks(m, p, harmonic.GridSpec())
            return doc, m, report, cli.report_lines(report)

        def check(out):
            doc, m, report, lines = out
            ref.require(abs(doc.lam - inp.lam) <= 1e-8, f"parsed lambda {doc.lam}")
            if inp.catalog_name is None:
                ref.require_coefficients(m.a, inp.coefficients[0], "parsed a")
                ref.require_coefficients(m.b, inp.coefficients[1], "parsed b")
            else:
                ref.require(doc.catalog_name == inp.catalog_name, f"parsed catalog name {doc.catalog_name}")
            ref.check_report(report, inp.fields, inp.lam, check_rng,
                             built_to_pass=inp.built_to_pass, coefficients=inp.coefficients)
            ref.check_report_lines(lines, report)

        return Op("verify", f"verify {inp.label}", run, check)

    def _plot(self, inp: MapInput, rng) -> Op:
        check_rng = np.random.default_rng(rng.integers(2**63))
        radii = render.DEFAULT_RADII

        def run():
            svg = render.render_svg(inp.spec, render.PlotSpec())
            return svg, render.render_csv(inp.spec, render.PlotSpec(fmt="csv"))

        def check(out):
            ref.check_svg(out[0], inp.fields, radii, SAMPLES, check_rng)
            ref.check_csv(out[1], inp.fields, radii, SAMPLES, check_rng)

        return Op("plot", f"plot {inp.label}", run, check)

    def _construct(self, inp: MapInput, rng) -> Op:
        lam, order = inp.lam, 8
        budget = rng.uniform(0.1, 0.95)
        xy = rng.random(2 * order - 1) * np.exp(2j * np.pi * rng.random(2 * order - 1))
        xy *= budget / np.abs(xy).sum()
        x, y = xy[: order - 1], xy[order - 1:]
        XY = rng.random(2 * order)
        XY /= XY.sum()
        X, Y = XY[:order], XY[order:]
        F = construct.random_starlike_budget_map(rng, order=order)
        A, B = ref.weights(lam, order)
        n = np.arange(order + 1)
        want = [
            (x * B / A[2:], y * B / A[1:]),
            (-X[1:] * B / A[2:], Y * B / A[1:]),
            (n[2:] * B / A[2:] * np.abs(F.a), n[1:] * B / A[1:] * np.abs(F.b)),
            (ref.koebe_power_transform(64, lam)[2:], np.zeros(64)),
        ]

        def run():
            p = criteria.SpiralParams(lam)
            h = construct.spirallike_power_transform(self.koebe, p)
            maps = [
                construct.extremal_family(x, y, p, order=order),
                construct.convex_combination(construct.CombinationWeights(X, Y), p, sign=-1),
                construct.multiplier_transfer(F, construct.MultiplierSequence.max_allowed(p, order), p),
                harmonic.HarmonicMapSpec(a=h.coeffs[2:], b=[], truncation_order=h.order),
            ]
            return maps, [mapfile.emit_map_document(mapfile.document_from_map(m, p)) for m in maps]

        def check(out):
            for what, m, text, (a, b) in zip(("extremal", "combo", "multiplier", "power transform"), *out, want):
                ref.require_coefficients(m.a, a, f"{what} a")
                ref.require_coefficients(m.b, b, f"{what} b")
                back, _ = mapfile.parse_map_document(text).build()
                ref.require_coefficients(back.a, m.a, f"{what} a read back", ref.TEXT_TOL)
                ref.require_coefficients(back.b, m.b, f"{what} b read back", ref.TEXT_TOL)

        return Op("construct", f"construct at {inp.label}", run, check)


# --------------------------------------------------------------- verify_dense


class VerifyDense(Workload):
    name = "verify_dense"
    why = ("run_all_checks on seeded random_sufficient_map and random_signed_map maps of order 64 "
           "and 256 (n_terms = order/2) on a 200x2048 grid, r in [1e-3, 0.99]. Evaluating the "
           "coefficient series is most of each op, each full-grid complex array (6.25 MiB) "
           "exceeds L2, and peak RSS grows with the grid: GridField, FFT ring evaluation and "
           "block-wise scans show here, and the series recurrences are never called.")
    # Two order-64 ops and one order-256 op per cycle, the order-256 map
    # alternating between the generators: the median falls among the
    # order-64 ops, the maximum among the order-256 ones.
    trace_cycles = 2
    GENERATORS = ("random_sufficient_map", "random_signed_map")

    def make_cycle(self, c: int) -> list[Op]:
        rng = self.rng(2, c)
        plan = [(64, g) for g in self.GENERATORS] + [(256, self.GENERATORS[c % 2])]
        return [self._op(rng, order, gen) for order, gen in plan[: 1 if c == WARMUP_CYCLE else 3]]

    def _op(self, rng, order: int, gen: str) -> Op:
        lam = float(rng.uniform(-1.2, 1.2))
        p = criteria.SpiralParams(lam)
        m = getattr(construct, gen)(rng, p, order=order, n_terms=order // 2)
        grid = harmonic.GridSpec(**DENSE_GRID)
        check_rng = np.random.default_rng(rng.integers(2**63))

        def check(report):
            ref.check_report(report, ref.Fields.from_coefficients(m.a, m.b), lam, check_rng,
                             built_to_pass=True, coefficients=(m.a, m.b))

        return Op("verify", f"run_all_checks {gen} order {order} lam={lam:.4g}",
                  lambda: criteria.run_all_checks(m, p, grid), check, f"{gen} order {order}")


# ----------------------------------------------------------- family_transform


class FamilyTransform(Workload):
    name = "family_transform"
    why = ("transform_family_check on seeded signed maps of order 16 (twice) and 64 with 64 eps, "
           "epsilon_starlike_check on an order-64 map, and spirallike_power_transform followed by "
           "transform_identity_defect on koebe (order 64) and on seeded tail-bounded starlike series "
           "of order 256 and 512, all at lambda = -pi/4 for the transforms. The only workload "
           "dominated by the series recurrences and PowerSeries.evaluate: batching over eps and "
           "vectorised recurrences show here, and verify_dense never calls them.")
    trace_cycles = 4
    shuffle = True
    PT_LAMBDA = -math.pi / 4

    def make_cycle(self, c: int) -> list[Op]:
        rng = self.rng(3, c)
        ops = [self._family(rng, 16), self._family(rng, 16), self._family(rng, 64),
               self._eps_family(rng)]
        koebe = construct.catalog("koebe", order=64).h_series().coeffs
        for g in (koebe, _starlike_series(rng, 256), _starlike_series(rng, 512)):
            ops.append(self._power(g))
        return ops

    def _family(self, rng, order: int) -> Op:
        lam = float(rng.uniform(-1.2, 1.2))
        p = criteria.SpiralParams(lam)
        F = construct.random_signed_map(rng, p, order=order, n_terms=order // 2)
        H, G = F.h_series(), F.g_series()
        check_rng = np.random.default_rng(rng.integers(2**63))
        mu = complex(math.cos(lam), math.sin(lam)) * math.cos(lam)
        rot = complex(math.cos(lam), -math.sin(lam))

        def member(eps):
            s = (H.coeffs + eps * G.coeffs)[1:]
            c = np.concatenate([[0.0], ref.series_power(s / s[0], mu)])
            return ref.Fields.from_coefficients(c[2:], [])

        def quantity(fields, z):
            return rot * z * fields.dh(z) / fields.h(z)

        def check(res):
            _check_family(res, member, quantity, check_rng)

        return Op("family_check", f"transform_family_check order {order} lam={lam:.4g}",
                  lambda: construct.transform_family_check(H, G, p, harmonic.GridSpec(), n_eps=64), check,
                  f"family_check order {order}")

    def _eps_family(self, rng) -> Op:
        p = criteria.SpiralParams(float(rng.uniform(-1.2, 1.2)))
        m = construct.random_sufficient_map(rng, p, order=64, n_terms=32)
        fields = ref.Fields.from_coefficients(m.a, m.b)
        check_rng = np.random.default_rng(rng.integers(2**63))

        def quantity(eps, z):
            return z * (fields.dh(z) + eps * fields.dg(z)) / (fields.h(z) + eps * fields.g(z))

        def check(res):
            _check_family(res, lambda eps: eps, quantity, check_rng)

        return Op("eps_family", "epsilon_starlike_check order 64",
                  lambda: criteria.epsilon_starlike_check(m, harmonic.GridSpec(), n_eps=64), check, "eps_family")

    def _power(self, g: np.ndarray) -> Op:
        lam = self.PT_LAMBDA
        gs = series.PowerSeries(g)
        want = ref.power_transform(g, lam)

        def run():
            p = criteria.SpiralParams(lam)
            h = construct.spirallike_power_transform(gs, p)
            return h, construct.transform_identity_defect(gs, p)

        def check(out):
            h, defect = out
            ref.require_coefficients(h.coeffs, want, "power transform", 1e-8)
            ref.require(0.0 <= defect <= 1e-8, f"transform identity defect {defect!r}")

        label = f"power transform order {g.size - 1}"
        return Op("power_transform", label, run, check, label)


def _check_family(res, member, quantity, rng, n_eps: int = 64) -> None:
    """The family minimum against its witness pair, and a seeded sample of
    (eps, grid point) pairs against the minimum."""
    val = quantity(member(res.witness_eps), np.array([res.witness]))[0]
    ref.require(ref.close(res.min_value, val.real, abs(val)),
                f"family minimum {res.min_value!r} but {val.real!r} at its witness")
    g = harmonic.GridSpec()
    for k in rng.choice(n_eps, size=3, replace=False):
        eps = complex(np.exp(2j * np.pi * k / n_eps))
        z = ref.grid_sample(g.r_min, g.r_max, g.n_radii, g.n_angles, rng, 64)
        q = quantity(member(eps), z)
        low = q.real < res.min_value - ref.REL_TOL * np.abs(q)
        ref.require(not np.any(low), f"eps = {eps:.6g}, z = {z[np.argmax(low)]:.6g} reads "
                    f"{q.real[np.argmax(low)]!r} below the family minimum {res.min_value!r}")


# ---------------------------------------------------------------- cli_session


class CliSession(Workload):
    name = "cli_session"
    why = ("python -m spiralmaps subprocesses run one at a time: catalog emit, verify on the emitted "
           "and on the constructed files, construct extremal, power-transform and f-epsilon, and plot "
           "as SVG and with --csv. The only workload that pays interpreter start and imports on "
           "every op (numpy is most of it), plus argparse and file reads and writes: lazy imports "
           "or a multi-file verify move only this workload.")
    trace_cycles = 2
    #: Set to a Tracer by a traced run: commands then run under perfbench/tracer.py.
    tracer = None

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.env = child_env()
        self.tracer_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

    def command(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            argv = [sys.executable, "-m", "spiralmaps", *args]
        else:
            spans = _path(self.workdir, "spans.json")
            if os.path.exists(spans):
                os.remove(spans)
            argv = [sys.executable, self.tracer_script, spans, "--", *args]
        done = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if self.tracer is not None:
            with open(spans, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
        return done

    def make_cycle(self, c: int) -> list[Op]:
        rng = self.rng(4, c)
        names = construct.catalog_names()
        name = names[c % len(names)] if c != WARMUP_CYCLE else "f2"
        lam = float(LAMBDAS[c % len(LAMBDAS)]) if c != WARMUP_CYCLE else 0.3
        alpha = _draw_alpha(name, rng)
        f = lambda stem: f"{stem}-{c}.{'svg' if stem == 'plot' else 'csv' if stem == 'table' else 'json'}"
        p = criteria.SpiralParams(lam)

        # Inputs the program receives as files.
        signed = construct.random_signed_map(rng, p, order=16, n_terms=8)
        sa, sb = ref.map_file_coefficients(_write(_path(self.workdir, f("signed")), _spec_text(signed, p)))
        g = _starlike_series(rng, 32)
        gm = harmonic.HarmonicMapSpec(a=g[2:], b=[], truncation_order=32)
        ga, _ = ref.map_file_coefficients(_write(_path(self.workdir, f("starlike")), _spec_text(gm, p)))
        x = rng.random(3) * np.exp(2j * np.pi * rng.random(3))
        y = rng.random(3) * np.exp(2j * np.pi * rng.random(3))
        scale = rng.uniform(0.1, 0.9) / (np.abs(x).sum() + np.abs(y).sum())
        x, y = x * scale, y * scale
        xi, yi = rng.choice(np.arange(2, 9), 3, replace=False), rng.choice(np.arange(1, 9), 3, replace=False)

        emit = ["catalog", "emit", name, "--lambda", repr(lam), "--out", f("emitted")]
        if alpha is not None:
            emit += ["--alpha", repr(alpha.real)] + (["--alpha-im", repr(alpha.imag)] if alpha.imag else [])
        extremal = ["construct", "extremal", "--lambda", repr(lam), "--truncation", "8", "--out", f("extremal")]
        for flag, idx, vals in (("--x", xi, x), ("--y", yi, y)):
            for n, v in zip(idx, vals):
                extremal += [flag, f"{n}={float(v.real)!r},{float(v.imag)!r}"]
        A, B = ref.weights(lam, 8)
        want_x = np.zeros(7, complex)
        want_x[xi - 2] = x * B / A[xi]
        want_y = np.zeros(8, complex)
        want_y[yi - 1] = y * B / A[yi]
        coeffs = None if name in CLOSED_FORMS else ref.catalog_coefficients(name, lam, alpha)
        emitted_passes = coeffs is not None and _strictly_sufficient(*coeffs, lam)
        plot_rng = np.random.default_rng(rng.integers(2**63))

        def check_emit(done):
            _require_exit(done, 0)
            with open(_path(self.workdir, f("emitted")), encoding="utf-8") as fh:
                doc = json.load(fh)
            ref.require(doc["catalog"]["name"] == name and ref.close(doc["lambda"], lam, 1, ref.TEXT_TOL),
                        f"emitted {doc['catalog']} at lambda {doc['lambda']}")
            if alpha is not None:
                got = doc["catalog"]["params"]["alpha"]
                got = complex(*got) if isinstance(got, list) else complex(got)
                ref.require(abs(got - alpha) <= ref.TEXT_TOL, f"emitted alpha {got}, expected {alpha}")

        def check_file(stem, want_a, want_b, tol=ref.TEXT_TOL):
            with open(_path(self.workdir, f(stem)), encoding="utf-8") as fh:
                a, b = ref.map_file_coefficients(fh.read())
            ref.require_coefficients(a, want_a, f"{stem} a", tol)
            ref.require_coefficients(b, want_b, f"{stem} b", tol)

        def verify(stem, built_to_pass):
            def check(done):
                value = ref.check_exit_code(done.returncode, done.stdout)
                ref.require(value == "true" or not built_to_pass,
                            f"{stem}: a map built to pass the sufficient test reports all_pass = false")
            return Op("verify", f"verify {stem} ({name} lam={lam:.4g})",
                      lambda: self.command(["verify", f(stem)]), check, f"verify {stem}")

        def check_family(done):
            ref.check_exit_code(done.returncode, done.stdout, "family_pass")
            if done.returncode == 0:
                A16, B16 = ref.weights(lam, 16)
                k = np.arange(17)
                check_file("family", k[2:] * B16 / A16[2:] * np.abs(sa), k[1:] * B16 / A16[1:] * np.abs(sb))

        def check_plot(stem, checker):
            def check(done):
                _require_exit(done, 0)
                with open(_path(self.workdir, f("emitted")), encoding="utf-8") as fh:
                    fields = ref.catalog_fields(name, *ref.map_file_parameters(fh.read()))
                with open(_path(self.workdir, f(stem)), encoding="utf-8") as fh:
                    checker(fh.read(), fields, render.DEFAULT_RADII, SAMPLES, plot_rng)
            return check

        def check_power(done):
            _require_exit(done, 0)
            want = ref.power_transform(np.concatenate([[0.0, 1.0], ga]), lam)
            check_file("power", want[2:], np.zeros(32), 1e-7)

        def check_extremal(done):
            _require_exit(done, 0)
            check_file("extremal", want_x, want_y)

        def op(kind, args, check):
            return Op(kind, f"{' '.join(args[:2])} ({name} lam={lam:.4g})", lambda: self.command(args), check, kind)

        return [
            op("catalog_emit", emit, check_emit),
            verify("emitted", emitted_passes),
            op("construct_extremal", extremal, check_extremal),
            verify("extremal", True),
            op("construct_power_transform",
               ["construct", "power-transform", "--g", f("starlike"), "--lambda", repr(lam), "--out", f("power")],
               check_power),
            verify("power", False),
            op("construct_f_epsilon",
               ["construct", "f-epsilon", "--from", f("signed"), "--n-eps", "64", "--out", f("family")],
               check_family),
            verify("family", True),
            op("plot_svg", ["plot", f("emitted"), "--out", f("plot")], check_plot("plot", ref.check_svg)),
            op("plot_csv", ["plot", f("emitted"), "--csv", "--out", f("table")], check_plot("table", ref.check_csv)),
        ]


def _require_exit(done, code: int) -> None:
    ref.require(done.returncode == code,
                f"exit code {done.returncode}, expected {code}: {done.stderr.strip()[-300:]}")


def child_env() -> dict:
    """Environment of a child process: the checkout's src on the path.

    The BLAS thread settings are inherited from run.py, which sets them
    before numpy is first imported.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(spiralmaps.__file__)))
    return env


WORKLOADS = {w.name: w for w in (CatalogSession, VerifyDense, FamilyTransform, CliSession)}
