"""Span tracing of the spiralmaps layers, installed from outside the package.

``Tracer.install`` replaces the package functions listed in ``LAYERS`` with
wrappers that record a span (name, start, end, parent, op id, exception) and
the computed counts at that boundary.  A function is replaced under every
name a caller can look it up by, so ``criteria.h_values`` is traced as well
as ``harmonic.h_values``.  Spans stay in memory until ``dump``.

``mapfile.format_number`` is deliberately not wrapped: a plot calls it about
30,000 times, and a span per call would dominate both the trace and the
run.  Its time is part of its caller's self time (render, emit, report).

Run as a script, this module executes one ``spiralmaps`` CLI command under
the tracer and writes the spans to a file:

    python perfbench/tracer.py SPANS.json -- verify map.json
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

MODULES = ("series", "harmonic", "criteria", "construct", "mapfile", "render", "cli")


def _field_counts(name):
    # Horner over L coefficients costs L - 1 multiply-adds per point; h and g
    # carry N + 1 coefficients, their derivatives N.
    deriv = name.startswith("d")

    def count(c, args, kwargs, out):
        m, n = args[0], getattr(out, "size", 1)
        c["harmonic.field_evals"] += 1
        c["harmonic.field_points"] += n
        c["harmonic.field_bytes"] += 16 * n
        c["harmonic.grid_field_evals"] += n > 1
        if m.closed_form is not None:
            c["harmonic.closed_form_evals"] += 1
        else:
            c["harmonic.field_madds"] += (m.truncation_order - deriv) * n
    return count


def _recurrence_count(c, args, kwargs, out):
    c["series.recurrence_coeffs"] += out.order + 1


def _evaluate_count(c, args, kwargs, out):
    c["series.evaluate_calls"] += 1
    c["series.evaluate_madds"] += args[0].order * getattr(out, "size", 1)


def _family_count(c, args, kwargs, out):
    c["construct.family_members"] += kwargs.get("n_eps", args[4] if len(args) > 4 else 64)


def _render_count(c, args, kwargs, out):
    spec = args[1]
    c["render.points"] += len(spec.radii) * spec.samples_per_circle
    c["render.bytes"] += len(out)


def _parse_count(c, args, kwargs, out):
    c["mapfile.bytes"] += len(args[0].encode())


def _emit_count(c, args, kwargs, out):
    c["mapfile.bytes"] += len(out.encode())


def _checks_count(c, args, kwargs, out):
    c["criteria.run_all_checks_calls"] += 1


#: module -> {function or Class.method: (self-time metric, count hook)}
LAYERS = {
    "series": {
        "log_series": ("series.recurrence_s", _recurrence_count),
        "exp_series": ("series.recurrence_s", _recurrence_count),
        "divide": ("series.recurrence_s", _recurrence_count),
        "pow_series": ("series.recurrence_s", None),
        "log_derivative_ratio": ("series.recurrence_s", None),
        "PowerSeries.evaluate": ("series.evaluate_s", _evaluate_count),
    },
    "harmonic": {
        **{f: ("harmonic.field_s", _field_counts(f)) for f in ("h_values", "g_values", "dh_values", "dg_values")},
        **{f: ("harmonic.scan_s", None) for f in (
            "grid_points", "eval_f", "d_operator", "jacobian", "pair_d_operator",
            "sense_preserving_on_grid", "nonvanishing_on_grid")},
    },
    "criteria": {
        **{f: ("criteria.coefficient_s", None) for f in (
            "weight_table", "silverman_check", "sufficient_check", "necessary_weighted_check",
            "necessary_sharp_check", "growth_bounds", "axis_profile")},
        "pointwise_spiral_check": ("criteria.pointwise_s", None),
        "pointwise_fully_starlike_check": ("criteria.pointwise_s", None),
        "spiral_margin": ("criteria.margin_s", None),
        "spiral_margin_on_grid": ("criteria.margin_s", None),
        "spiral_inequality_sides": ("criteria.sides_s", None),
        "run_all_checks": ("criteria.report_s", _checks_count),
        "VerificationReport.all_passed": ("criteria.report_s", None),
        "epsilon_starlike_check": ("criteria.eps_family_s", None),
    },
    "construct": {
        "transform_family_check": ("construct.family_s", _family_count),
        **{f: ("construct.power_transform_s", None) for f in (
            "spirallike_power_transform", "transform_identity_defect", "transform_exponent")},
        **{f: ("construct.builder_s", None) for f in (
            "extremal_family", "convex_combination", "decompose", "recombine",
            "multiplier_transfer", "starlike_associate", "random_sufficient_map",
            "random_signed_map", "random_starlike_budget_map")},
        "catalog": ("construct.catalog_s", None),
        "catalog_names": ("construct.catalog_s", None),
    },
    "mapfile": {
        "parse_map_document": ("mapfile.parse_s", _parse_count),
        "load_map_file": ("mapfile.parse_s", None),
        "MapDocument.build": ("mapfile.parse_s", None),
        "emit_map_document": ("mapfile.emit_s", _emit_count),
        "document_from_map": ("mapfile.emit_s", None),
    },
    "render": {
        "render_svg": ("render.svg_s", _render_count),
        "circle_image": ("render.svg_s", None),
        "render_csv": ("render.csv_s", _render_count),
    },
    "cli": {
        # The verification report's text form; its time belongs to the report.
        "report_lines": ("criteria.report_s", None),
        "main": (None, None),
    },
}

TIME_METRICS = sorted({m for funcs in LAYERS.values() for m, _ in funcs.values() if m})
COUNT_METRICS = (
    "series.recurrence_calls", "series.recurrence_coeffs", "series.evaluate_calls",
    "series.evaluate_madds", "harmonic.field_evals", "harmonic.grid_field_evals",
    "harmonic.field_points", "harmonic.field_madds", "harmonic.field_bytes",
    "criteria.run_all_checks_calls", "criteria.near_zero", "construct.family_members",
    "mapfile.bytes", "render.points", "render.bytes",
)
_RECURRENCES = {f"series.{f}" for f, (m, _) in LAYERS["series"].items() if m == "series.recurrence_s"}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.exc: list = []
        self.counts: Counter = Counter()
        self.metric_of: dict[str, str] = {}
        self.op_id = -1
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.exc.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, exc=None) -> None:
        self.end[idx] = time.perf_counter()
        self.exc[idx] = exc
        self._stack.pop()

    def wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, out)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            tracer.close(idx)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every listed function under every name it is looked up by."""
        mods = {name: importlib.import_module(f"spiralmaps.{name}") for name in MODULES}
        mods["spiralmaps"] = importlib.import_module("spiralmaps")
        for modname, funcs in LAYERS.items():
            for attr, (metric, hook) in funcs.items():
                span = f"{modname}.{attr}"
                self.metric_of[span] = metric
                if span in _RECURRENCES:
                    hook = _count_call(hook)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[modname], cls_name)
                    fn = cls.__dict__[meth]
                    traced = self.wrap(span, fn, hook)
                    for key, value in list(cls.__dict__.items()):
                        if value is fn:  # PowerSeries.__call__ aliases evaluate
                            setattr(cls, key, traced)
                    continue
                fn = getattr(mods[modname], attr)
                traced = self.wrap(span, fn, hook)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    # --------------------------------------------------------------- output

    def merge(self, payload: dict) -> None:
        """Adopt the spans of a traced child process under the open span."""
        base = len(self.names)
        here = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _op, exc in payload["spans"]:
            self.names.append(name)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(base + parent if parent >= 0 else here)
            self.op.append(self.op_id)
            self.exc.append(exc)
        self.counts.update(payload["counts"])
        self.metric_of.update(payload["metric_of"])

    def payload(self) -> dict:
        return {
            "spans": [list(row) for row in zip(self.names, self.start, self.end, self.parent, self.op, self.exc)],
            "counts": dict(self.counts),
            "metric_of": self.metric_of,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)

    def layer_metrics(self) -> dict:
        """Self time per layer metric, and the counts, from the recorded spans."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        near_zero_below = [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.exc[i] == "NearZeroError":
                    near_zero_below[p] = True
        out = {m: 0.0 for m in TIME_METRICS}
        out.update({m: 0 for m in COUNT_METRICS})
        out.update(self.counts)
        for i in range(n):
            metric = self.metric_of.get(self.names[i])
            if metric:
                out[metric] += dur[i] - child[i]
            if self.exc[i] == "NearZeroError" and not near_zero_below[i]:
                out["criteria.near_zero"] += 1
        evals = out["harmonic.field_evals"]
        out["harmonic.closed_form_share"] = out.pop("harmonic.closed_form_evals", 0) / evals if evals else 0.0
        return out


def _count_call(hook):
    def count(c, args, kwargs, out):
        c["series.recurrence_calls"] += 1
        if hook is not None:
            hook(c, args, kwargs, out)
    return count


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <spiralmaps arguments>")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("spiralmaps.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
