"""spiralmaps benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.  The
workload's ops run in whole cycles until at least S seconds of op time have
passed; every op's output is checked against ``reference.py``.  Set-up
(package import, input generation, map files, one warm-up op per kind) is
timed in this process and in two more fresh processes, and the median is
reported.

``--trace 1`` runs a fixed op list (``trace_cycles`` cycles of the workload)
twice, untraced and then traced, and reports the per-layer metrics derived
from the spans, ``bench.tracing_overhead`` and the CLI import baselines.  A
fixed list makes every count repeat exactly for a given seed.

Each run prints its metrics by name with units, lists any failed op, and
ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Details and spans are written under ``.perfbench/`` in the repository root.
``python3 perfbench/run.py --describe`` prints why each workload was chosen.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 5
BASELINE_SAMPLES = 5
TAIL_BEYOND = 10
WORKLOADS = ("catalog_session", "verify_dense", "family_transform", "cli_session")
CLI_KINDS = ("catalog_emit", "verify", "construct_extremal", "construct_power_transform",
             "construct_f_epsilon", "plot_svg", "plot_csv")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("cli.command_s."):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "_overhead")):
        return "fraction"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--describe", action="store_true", help="print each workload's purpose")
    args = ap.parse_args(argv)
    if not args.describe and not args.workload:
        ap.error("--workload is required")
    return args


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------- ops


def run_op(op, failures: list, tracer=None, op_id: int = -1) -> float:
    """Time one op, check its output, record a failure; returns its latency."""
    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.open(f"bench.{op.kind}")
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span, type(exc).__name__)
        failures.append((op.label, f"raised {type(exc).__name__}: {exc}"))
        return dt
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    try:
        op.check(out)
    except Exception as exc:
        failures.append((op.label, f"{type(exc).__name__}: {exc}"))
    return dt


def setup(name: str, seed: int, workdir: str):
    """Import, inputs, files and one warm-up op per kind; the set-up time."""
    t0 = time.perf_counter()
    import workloads  # numpy and spiralmaps are first imported here

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    failures: list = []
    warm = wl.warmup()
    for op in warm:
        run_op(op, failures)
    return time.perf_counter() - t0, wl, len(warm), failures


def setup_samples(args, first: float) -> list[float]:
    """The set-up time of this process and of fresh processes."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, level in percent, samples beyond).  Below 2 x 10 samples
    no percentile at or above the median qualifies, and the maximum is
    reported instead (level 100, none beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# --------------------------------------------------------------- measuring


def throughput(groups: list[str], latencies: list[float]) -> float:
    """Ops per second of op time, each group of like ops timed at its median.

    On a shared virtual machine the CPU speed can switch between levels for
    seconds at a time (1.6x apart on a 2-vCPU VM at 2.1 GHz); the median of
    each group keeps a minority of either phase from moving the result,
    where the mean would not.
    """
    by_group: dict = {}
    for g, dt in zip(groups, latencies):
        by_group.setdefault(g, []).append(dt)
    return len(latencies) / sum(len(v) * statistics.median(v) for v in by_group.values())


def measure(args, wl):
    failures: list = []
    latencies: list[float] = []
    groups: list[str] = []
    busy, c = 0.0, 0
    while busy < args.seconds:
        for op in wl.cycle(c):
            dt = run_op(op, failures)
            latencies.append(dt)
            groups.append(op.group)
            busy += dt
        c += 1
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return latencies, groups, busy, c, peak_rss_mb, failures


def cli_baselines() -> dict:
    """Wall time of a bare interpreter, of importing numpy and of importing
    spiralmaps.cli, as metrics; and the last as the import baseline."""
    stmts = {"pass": "pass", "numpy": "import numpy", "package": "import spiralmaps.cli"}
    times = {k: [] for k in stmts}
    for _ in range(BASELINE_SAMPLES):
        for key, stmt in stmts.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", stmt], check=True, timeout=60)
            times[key].append(time.perf_counter() - t0)
    med = {k: statistics.median(v) for k, v in times.items()}
    return {
        "cli.interpreter_s": med["pass"],
        "cli.numpy_import_s": med["numpy"] - med["pass"],
        "cli.package_import_s": med["package"] - med["numpy"],
    }, med["package"]


def traced_run(args, wl):
    import tracer as tracing

    ops = [op for c in range(wl.trace_cycles) for op in wl.cycle(c)]
    failures: list = []
    base, package_wall = cli_baselines()
    untraced = [run_op(op, failures) for op in ops]
    tr = tracing.Tracer()
    tr.install()
    wl.tracer = tr  # cli_session then runs each command under tracer.py
    traced = [run_op(op, failures, tr, k) for k, op in enumerate(ops)]
    metrics = tr.layer_metrics()
    metrics.update(base)
    for kind in CLI_KINDS:
        walls = [dt for op, dt in zip(ops, untraced) if op.kind == kind]
        metrics[f"cli.command_s.{kind}"] = (
            statistics.median(walls) - package_wall if wl.name == "cli_session" else 0.0)
    metrics["bench.tracing_overhead"] = sum(traced) / sum(untraced) - 1.0
    trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
    payload = tr.payload()
    payload.update(metrics=metrics, ops=[op.label for op in ops])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return ops, metrics, failures, trace_path


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(SRC, "spiralmaps", "__init__.py")):
        return fail("src/spiralmaps not found; run from the root of a spiralmaps checkout")
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    if args.describe:
        import workloads
        for w in workloads.WORKLOADS.values():
            print(f"{w.name}: {w.why}\n  seed: --seed N draws every input from "
                  f"numpy.random.default_rng([N, stream, cycle]).\n")
        return 0
    compileall.compile_dir(os.path.join(SRC, "spiralmaps"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    setup_s, wl, n_warm, failures = setup(args.workload, args.seed, workdir)
    import spiralmaps

    if not os.path.abspath(spiralmaps.__file__).startswith(SRC + os.sep):
        return fail(f"spiralmaps imported from {spiralmaps.__file__}, not from {SRC}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload = {wl.name} (seed {args.seed}, trace {args.trace})")
    print(f"why = {wl.why}")
    if args.trace:
        ops, metrics, more, trace_path = traced_run(args, wl)
        failures += more
        attempted = n_warm + 2 * len(ops)
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]!r} {layer_unit(name)}")
        checks = metrics["criteria.run_all_checks_calls"]
        if checks:
            print(f"field evaluations per run_all_checks = {metrics['harmonic.field_evals'] / checks:g} "
                  f"({metrics['harmonic.grid_field_evals'] / checks:g} on more than one point)")
        print(f"spans = {trace_path}")
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        latencies, groups, busy, cycles, peak_rss_mb, more = measure(args, wl)
        failures += more
        samples = setup_samples(args, setup_s)
        attempted = n_warm + len(latencies)
        tail_s, level, beyond = tail(latencies)
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": throughput(groups, latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(samples)} set-ups: " + ", ".join(f"{s:.4f}" for s in samples),
            "ops_per_s": (f"{len(latencies)} ops in {busy:.3f} s of op time, {cycles} cycles, "
                          f"{len(set(groups))} groups at their median"),
            "op_p50_ms": f"{len(latencies)} samples",
            "op_tail_ms": (f"p{level:.2f}, {len(latencies)} samples, {beyond} beyond" if beyond
                           else f"maximum: {len(latencies)} samples are too few for ten beyond p50"),
            "peak_rss_mb": "largest child process" if wl.name == "cli_session" else "benchmark process",
        }
        for name, value in values.items():
            print(f"{name} = {value!r} {END_TO_END_UNITS[name]} ({notes[name]})")
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        details = dict(metrics=result_metrics, notes=notes, setup_samples=samples,
                       latencies=latencies, failures=failures)
        with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(details, fh)
    print(f"error_rate = {len(failures) / attempted!r} fraction ({len(failures)} of {attempted} ops, "
          f"{n_warm} of them warm-up)")
    for label, reason in failures:
        print(f"failed op: {label}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
