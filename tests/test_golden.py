"""Golden-output tests: CLI text must stay byte-identical across refactors.

``tests/golden/`` holds the output of

- ``verify`` on the default grid for every catalog entry at four spiral
  angles, plus the order-64 power transform of ``koebe``;
- ``construct power-transform --g koebe`` and one ``plot --csv``;
- the full-precision scan minima and pass flags of ``verify`` on a
  200x2048 grid.

The dense numbers are compared to within 1e-12 * max(1, |v|) rather than
bytewise: on grids above numpy's temporary-elision threshold a complex
product may be computed in place, which moves witnesses of rounding-level
ties.  Regenerate the files only for a deliberate, argued output change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from spiralmaps.cli import main
from spiralmaps.construct import catalog_names
from spiralmaps.criteria import run_all_checks
from spiralmaps.harmonic import GridSpec
from spiralmaps.mapfile import load_map_file

GOLDEN = Path(__file__).parent / "golden"
LAMBDAS = ("0", "0.785398163", "-0.785398163", "1.047")
ALPHA = {"f1": "-0.5", "f2": "0.95", "f3": "0.5", "f5": "0.5"}
TRANSFORM = ["construct", "power-transform", "--g", "koebe", "--lambda", "-0.785398163"]
PLOT = ("f3", "0.785398163", ["--csv", "--samples", "64"])
DENSE_GRID = GridSpec(n_radii=200, n_angles=2048)
DENSE = (
    ("f2", "0.785398163"),
    ("f4", "-0.785398163"),
    ("harmonic_koebe", "0"),
    ("power-transform", "-0.785398163"),
)


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _map_file(tmp: str, name: str, lam: str) -> str:
    """Emit a catalog entry, or the koebe power transform, as a map file."""
    path = os.path.join(tmp, f"{name}_{lam}.json")
    if name == "power-transform":
        argv = TRANSFORM[:4] + ["--lambda", lam, "--out", path]
    else:
        argv = ["catalog", "emit", name, "--lambda", lam, "--out", path]
        if name in ALPHA:
            argv += ["--alpha", ALPHA[name]]
    rc, _ = _cli(argv)
    assert rc == 0, argv
    return path


def verify_text(tmp: str) -> str:
    cases = [(name, lam) for name in catalog_names() for lam in LAMBDAS]
    cases.append(("power-transform", "-0.785398163"))
    parts = []
    for name, lam in cases:
        rc, out = _cli(["verify", _map_file(tmp, name, lam)])
        parts.append(f"## {name} lambda={lam} exit={rc}\n{out}")
    return "".join(parts)


def transform_text(tmp: str) -> str:
    rc, out = _cli(TRANSFORM)
    assert rc == 0
    return out


def plot_text(tmp: str) -> str:
    name, lam, flags = PLOT
    rc, out = _cli(["plot", _map_file(tmp, name, lam)] + flags)
    assert rc == 0
    return out


def dense_numbers(tmp: str) -> dict:
    out = {}
    for name, lam in DENSE:
        m, p = load_map_file(_map_file(tmp, name, lam))
        rep = run_all_checks(m, p, DENSE_GRID)
        scans = {
            "sense_preserving": rep.sense_preserving,
            "nonvanishing": rep.nonvanishing,
            "pointwise": rep.pointwise,
            "margin": rep.margin,
        }
        row = {}
        for key, scan in scans.items():
            if scan is not None:
                row[f"{key}_min"] = scan.min_value
                row[f"{key}_pass"] = scan.passed
        row["all_pass"] = rep.all_passed()
        out[f"{name} lambda={lam}"] = row
    return out


TEXT_FILES = {
    "verify_catalog.txt": verify_text,
    "construct_power_transform_koebe.json": transform_text,
    "plot_f3.csv": plot_text,
}


def _assert_same_bytes(filename: str, produced: str) -> None:
    expected = (GOLDEN / filename).read_bytes()
    if produced.encode() != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(), produced.splitlines(),
            "golden", "now", lineterm="", n=1,
        )
        raise AssertionError(f"{filename} changed:\n" + "\n".join(list(diff)[:40]))


def test_verify_catalog_default_grid(tmp_path):
    _assert_same_bytes("verify_catalog.txt", verify_text(str(tmp_path)))


def test_construct_power_transform(tmp_path):
    _assert_same_bytes(
        "construct_power_transform_koebe.json", transform_text(str(tmp_path))
    )


def test_plot_csv(tmp_path):
    _assert_same_bytes("plot_f3.csv", plot_text(str(tmp_path)))


def test_verify_dense_grid(tmp_path):
    expected = json.loads((GOLDEN / "verify_dense.json").read_text())
    produced = dense_numbers(str(tmp_path))
    assert produced.keys() == expected.keys()
    for case, want in expected.items():
        got = produced[case]
        assert got.keys() == want.keys(), case
        for key, value in want.items():
            if key.endswith("_pass"):
                assert got[key] is value, (case, key)
            else:
                assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), (
                    case, key, got[key], value,
                )


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename, produce in TEXT_FILES.items():
            (GOLDEN / filename).write_bytes(produce(tmp).encode())
        (GOLDEN / "verify_dense.json").write_text(
            json.dumps(dense_numbers(tmp), indent=1) + "\n"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    _write()
