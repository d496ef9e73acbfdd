"""Golden-output tests: CLI text must stay byte-identical across refactors.

``tests/golden/`` holds the output of

- ``verify`` on the default grid for every catalog entry at four spiral
  angles, plus the order-64 power transform of ``koebe``;
- ``construct power-transform --g koebe``;
- ``construct f-epsilon`` on three seeded ``random_signed_map``s, its
  stdout and the map it writes, one of them scaled until the family
  fails (exit 1, no map written);
- ``plot`` as CSV and SVG of ``f3`` and of a seeded order-64
  ``random_signed_map``;
- an emitted map file whose coefficients sit on the edges of the
  9-significant-digit format: ``-0.0``, subnormals, values near ``1e-5``,
  ``1e9`` and ``1e16``, ``+-1.7e308`` and values that round up a decade;
- the full-precision scan minima and pass flags of ``verify`` on a
  200x2048 grid.

The dense numbers are compared to within 1e-12 * max(1, |v|) rather than
bytewise: on grids above numpy's temporary-elision threshold a complex
product may be computed in place, which moves witnesses of rounding-level
ties.  Regenerate files only for a deliberate, argued output change, naming
the files to rewrite (all of them when none is named):

    PYTHONPATH=src python tests/test_golden.py --write [NAME ...]

``verify_dense.json`` holds full-precision numbers that differ in the last
digits between machines, so name only the files whose output changed.
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

import numpy as np
import pytest

from spiralmaps.cli import main
from spiralmaps.construct import catalog_names, random_signed_map
from spiralmaps.criteria import SpiralParams, run_all_checks
from spiralmaps.harmonic import (
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    dg_values,
    dh_values,
    eval_f,
    jacobian,
)
from spiralmaps.mapfile import (
    MapDocument,
    document_from_map,
    emit_map_document,
    load_map_file,
)

GOLDEN = Path(__file__).parent / "golden"
LAMBDAS = ("0", "0.785398163", "-0.785398163", "1.047")
ALPHA = {"f1": "-0.5", "f2": "0.95", "f3": "0.5", "f5": "0.5"}
TRANSFORM = ["construct", "power-transform", "--g", "koebe", "--lambda", "-0.785398163"]
PLOT = ("f3", "0.785398163", ["--samples", "64"])
RANDOM_PLOT = (20240817, 0.6, ["--radii", "0.3,0.7,0.95", "--samples", "96"])
EDGE_A = [
    [-0.0, 0.0], [5e-324, -5e-324], [2.2250738585072014e-308, -1e-310],
    [1e-5, -1e-5], [9.99999999e-6, 9.999999995e-6], [9.9999999996e-5, 1.00000000049e-5],
    [1e16, -1e16], [9.9999999996e15, 1.23456789012e16], [999999999.5, 999999999.4],
    [1e9, 123456789.0], [-1.7e308, 1.7976931348623157e308], [0.1, -0.30000000000000004],
]
EDGE_B = [[1.0, -0.0], [-2.5e-7, 3.3333333333333335e-5], [4.9406564584124654e-324, -0.0]]
#: (seed, lambda, order, scale): random_signed_map coefficients times scale.
#: Scale 4 takes the map past the family's budget, so the check fails.
FAMILY = ((1, 0.6, 16, 1.0), (2, -1.0, 64, 1.0), (4, 0.3, 16, 4.0))
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


def _plot(path: str, flags) -> str:
    rc, out = _cli(["plot", path] + flags)
    assert rc == 0
    return out


def _random_map_file(tmp: str) -> str:
    seed, lam, _ = RANDOM_PLOT
    p = SpiralParams(lam)
    m = random_signed_map(np.random.default_rng(seed), p, order=64)
    path = os.path.join(tmp, "random64.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_map_document(document_from_map(m, p)))
    return path


def family_text(tmp: str) -> str:
    parts = []
    for seed, lam, order, scale in FAMILY:
        p = SpiralParams(lam)
        m = random_signed_map(np.random.default_rng(seed), p, order=order, n_terms=order // 2)
        m = HarmonicMapSpec(a=scale * m.a, b=scale * m.b, truncation_order=order, signed_form=True)
        src, out = os.path.join(tmp, "signed.json"), os.path.join(tmp, "family.json")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(emit_map_document(document_from_map(m, p)))
        if os.path.exists(out):
            os.remove(out)
        rc, text = _cli(["construct", "f-epsilon", "--from", src, "--out", out])
        written = Path(out).read_text() if os.path.exists(out) else ""
        parts.append(f"## seed={seed} lambda={lam} order={order} scale={scale} exit={rc}\n"
                     f"{text}{written}")
    return "".join(parts)


def plot_csv_text(tmp: str) -> str:
    name, lam, flags = PLOT
    return _plot(_map_file(tmp, name, lam), ["--csv"] + flags)


def plot_svg_text(tmp: str) -> str:
    name, lam, flags = PLOT
    return _plot(_map_file(tmp, name, lam), flags)


def random_csv_text(tmp: str) -> str:
    return _plot(_random_map_file(tmp), ["--csv"] + RANDOM_PLOT[2])


def random_svg_text(tmp: str) -> str:
    return _plot(_random_map_file(tmp), RANDOM_PLOT[2])


def edge_map_text(tmp: str) -> str:
    doc = MapDocument(lam=-0.0, truncation=13, signed_form=False, a=EDGE_A, b=EDGE_B)
    return emit_map_document(doc)


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
    "construct_f_epsilon.txt": family_text,
    "plot_f3.csv": plot_csv_text,
    "plot_f3.svg": plot_svg_text,
    "plot_random64.csv": random_csv_text,
    "plot_random64.svg": random_svg_text,
    "map_edge_numbers.json": edge_map_text,
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


def _horner_at(m, p, z, key: str) -> tuple[float, float]:
    """A scanned quantity at z by the plain expressions, and the magnitude of
    the terms it comes from."""
    f, rot_df = eval_f(m, z), p.phase * d_operator(m, z)
    if key == "sense_preserving":
        return jacobian(m, z), abs(dh_values(m, z)) ** 2 + abs(dg_values(m, z)) ** 2
    if key == "nonvanishing":
        return abs(f), abs(f)
    if key == "pointwise":
        return (rot_df / f).real, abs(rot_df / f)
    return abs(f + rot_df) - abs(f - rot_df), abs(f) + abs(rot_df)


def test_catalog_minima_are_the_values_at_their_witnesses(tmp_path):
    # The FFT evaluates at the exact angles 2 pi j / n: without exact axis
    # points f7 at lambda 0 (f = 2 Re z) reports |f| = 0 at a witness where
    # the expression reads 1e-19.
    for name in catalog_names():
        for lam in LAMBDAS:
            m, p = load_map_file(_map_file(str(tmp_path), name, lam))
            report = run_all_checks(m, p, GridSpec())
            for key in ("sense_preserving", "nonvanishing", "pointwise", "margin"):
                res = getattr(report, key)
                if res is None:
                    continue
                value, scale = _horner_at(m, p, res.witness, key)
                assert abs(res.min_value - value) <= 1e-9 * scale, (name, lam, key)


def test_construct_power_transform(tmp_path):
    _assert_same_bytes(
        "construct_power_transform_koebe.json", transform_text(str(tmp_path))
    )


def test_construct_f_epsilon(tmp_path):
    _assert_same_bytes("construct_f_epsilon.txt", family_text(str(tmp_path)))


def test_plot_csv(tmp_path):
    _assert_same_bytes("plot_f3.csv", plot_csv_text(str(tmp_path)))


@pytest.mark.parametrize(
    "filename",
    ["plot_f3.svg", "plot_random64.csv", "plot_random64.svg", "map_edge_numbers.json"],
)
def test_plot_and_emit(filename, tmp_path):
    _assert_same_bytes(filename, TEXT_FILES[filename](str(tmp_path)))


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


def dense_text(tmp: str) -> str:
    return json.dumps(dense_numbers(tmp), indent=1) + "\n"


WRITERS = {**TEXT_FILES, "verify_dense.json": dense_text}


def _write(names) -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename in names:
            (GOLDEN / filename).write_bytes(WRITERS[filename](tmp).encode())


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] != ["--write"] or not set(args[1:]) <= WRITERS.keys():
        raise SystemExit(
            "usage: python tests/test_golden.py --write [NAME ...]\n"
            "names: " + " ".join(WRITERS)
        )
    _write(args[1:] or list(WRITERS))
