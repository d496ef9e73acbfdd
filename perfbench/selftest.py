"""Self-test of the benchmark at a tiny run length.

    python3 perfbench/selftest.py            (from the repository root)

For every workload it asserts that

- a ``--trace 0`` run passes its output checks and reports exactly the
  end-to-end metrics of BENCHMARK.json, each with its unit;
- two ``--trace 1`` runs with the same seed report exactly the per-layer
  metrics of BENCHMARK.json with their units, and every computed count
  (unit ``count`` or ``bytes``, and the closed-form share) is equal in both.

On verify_dense it checks the field-evaluation count against the code as it
stood when the benchmark was written: 16 per ``run_all_checks``, 12 of them
on the full grid.  A change that shares grid fields between the scans
changes these numbers, and this assertion with them.

Finally it copies BENCHMARK.json and perfbench/ into an otherwise empty
directory and asserts that run.py fails there without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
SECONDS = "0.1"
SEED = "7"


#: Every metric the benchmark was asked to report; BENCHMARK.json must list them.
REQUIRED = {
    "end_to_end": ["setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"],
    "per_layer": [
        "series.recurrence_calls", "series.recurrence_coeffs", "series.recurrence_s",
        "series.evaluate_calls", "series.evaluate_madds", "series.evaluate_s",
        "harmonic.field_evals", "harmonic.field_points", "harmonic.field_madds", "harmonic.field_s",
        "harmonic.scan_s", "harmonic.closed_form_share", "harmonic.field_bytes",
        "criteria.coefficient_s", "criteria.pointwise_s", "criteria.margin_s", "criteria.sides_s",
        "criteria.report_s", "criteria.near_zero", "criteria.eps_family_s",
        "construct.family_s", "construct.family_members", "construct.power_transform_s",
        "construct.builder_s", "construct.catalog_s",
        "mapfile.parse_s", "mapfile.emit_s", "mapfile.bytes",
        "render.svg_s", "render.csv_s", "render.points", "render.bytes",
        "cli.interpreter_s", "cli.numpy_import_s", "cli.package_import_s",
        *(f"cli.command_s.{k}" for k in ("catalog_emit", "verify", "construct_extremal",
                                          "construct_power_transform", "construct_f_epsilon",
                                          "plot_svg", "plot_csv")),
        "bench.tracing_overhead",
    ],
}


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr[-2000:]}"
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["correct"] and out["failed"] == 0, done.stdout[-3000:]
    assert out["attempted"] >= 1
    return out["metrics"]


def require_metrics(metrics: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{what}: missing {sorted(set(want) - set(got))}, extra " \
        f"{sorted(set(got) - set(want))}, units {[(k, got[k], want[k]) for k in want if got.get(k) != want[k]]}"
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} = {m['value']!r}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for kind, names in REQUIRED.items():
        missing = set(names) - {m["name"] for m in spec[kind]}
        assert not missing, f"BENCHMARK.json {kind} lacks {sorted(missing)}"
    for w in spec["workloads"]:
        name = w["name"]
        require_metrics(result(bench(name, 0)), spec["end_to_end"], f"{name} trace 0")
        first, second = result(bench(name, 1)), result(bench(name, 1))
        require_metrics(first, spec["per_layer"], f"{name} trace 1")
        counts = [k for k, m in first.items() if m["unit"] in ("count", "bytes")]
        counts.append("harmonic.closed_form_share")
        differ = {k: (first[k]["value"], second[k]["value"]) for k in counts
                  if first[k]["value"] != second[k]["value"]}
        assert not differ, f"{name}: counts differ between two traced runs: {differ}"
        if name == "verify_dense":
            checks = first["criteria.run_all_checks_calls"]["value"]
            assert checks > 0
            assert first["harmonic.field_evals"]["value"] == 16 * checks, first["harmonic.field_evals"]
            assert first["harmonic.grid_field_evals"]["value"] == 12 * checks, first["harmonic.grid_field_evals"]
        print(f"ok {name}")

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        assert done.returncode != 0, "run.py succeeded without the program"
        assert '"metrics"' not in done.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
