"""End-to-end CLI tests: verify, weights, construct, plot, catalog."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spiralmaps.cli import main
from spiralmaps.mapfile import emit_map_document, parse_map_document


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_report(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(
        '{"lambda": 0.3, "truncation": 1, "signed_form": true, "a": [], "b": []}'
    )
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    doc = {
        "lambda": math.pi / 3,
        "truncation": 2,
        "signed_form": False,
        "catalog": {"name": "f2", "params": {"alpha": 0.95}},
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.json"
    doc = {
        "lambda": math.pi / 4,
        "truncation": 1,
        "signed_form": False,
        "catalog": {"name": "f1", "params": {"alpha": -0.5}},
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerify:
    def test_identity_all_pass(self, identity_file, capsys):
        rc, out, _ = run_cli(["verify", identity_file], capsys)
        rep = parse_report(out)
        assert rc == 0
        assert rep["all_pass"] == "true"
        assert float(rep["sufficient_sum"]) == 0.0
        assert rep["pointwise_method"] == "sampled"

    def test_f2_report(self, f2_file, capsys):
        rc, out, _ = run_cli(["verify", f2_file], capsys)
        rep = parse_report(out)
        assert rc == 0
        assert abs(float(rep["sufficient_sum"]) - 0.95) < 1e-8
        assert float(rep["pointwise_min_margin"]) > 0

    def test_f1_fails_with_witness(self, f1_file, capsys):
        rc, out, _ = run_cli(["verify", f1_file], capsys)
        rep = parse_report(out)
        assert rc == 1
        assert rep["all_pass"] == "false"
        assert rep["pointwise_pass"] == "false"
        assert float(rep["inequality_lhs"]) < float(rep["inequality_rhs"])

    def test_custom_grid(self, identity_file, capsys):
        rc, out, _ = run_cli(
            ["verify", identity_file, "--grid", "0.01,0.9,5,16", "--eps", "1e-8"], capsys
        )
        rep = parse_report(out)
        assert rc == 0
        assert rep["grid_n_radii"] == "5"
        assert float(rep["margin_eps"]) == 1e-8

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 0.3')
        rc, _, err = run_cli(["verify", str(bad)], capsys)
        assert rc == 2
        assert "line" in err

    def test_bad_grid_is_usage_error(self, identity_file, capsys):
        rc, _, err = run_cli(["verify", identity_file, "--grid", "0.1,0.9"], capsys)
        assert rc == 2
        rc, _, err = run_cli(
            ["verify", identity_file, "--grid", "0.9,0.1,5,16"], capsys
        )
        assert rc == 2

    def test_exact_zero_at_margin_zero_is_not_applicable(self, tmp_path, capsys):
        # h = z - 16 z^5 vanishes at the grid point z = 1/2.  At --eps 0 a zero
        # |f| is not above the margin, so the quotient is not formed: no numpy
        # warning and no non-finite number in the report.
        path = tmp_path / "zero.json"
        path.write_text('{"lambda": 0, "truncation": 5, "signed_form": false, '
                        '"a": [[0,0],[0,0],[0,0],[-16,0]], "b": []}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(
                ["verify", str(path), "--grid", "0.125,0.5,4,8", "--eps", "0"], capsys
            )
        rep = parse_report(out)
        assert (rc, err) == (1, "")
        assert rep["nonvanishing_min"] == "0" and rep["nonvanishing_pass"] == "false"
        assert rep["pointwise_applicable"] == "false"

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(["verify", "/nonexistent.json"], capsys)
        assert rc == 2

    def test_exit_code_matches_report(self, f1_file, f2_file, identity_file, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"lambda": 0.3, "truncation": 100000000000, "a": [], "b": []}')
        long = tmp_path / "long.json"
        long.write_text('{"lambda": 0.3, "truncation": 4096, "signed_form": true, "a": [], "b": []}')
        for path, expected in ((f1_file, 1), (f2_file, 0), (identity_file, 0)):
            rc, out, _ = run_cli(["verify", path], capsys)
            rep = parse_report(out)
            assert rc == expected
            assert rep["all_pass"] == ("true" if expected == 0 else "false")
        for argv in (
            ["plot", identity_file, "--samples", "10"],
            ["plot", identity_file, "--radii", "1.5"],
            ["plot", identity_file, "--radii", "abc"],
            ["plot", identity_file, "--samples", "2000000000"],
            ["construct", "f-epsilon", "--from", identity_file, "--n-eps", "0"],
            ["construct", "f-epsilon", "--from", identity_file, "--n-eps", "2000000000"],
            ["construct", "f-epsilon", "--from", str(long), "--n-eps", "65536"],
            ["verify", identity_file, "--grid", "0.001,0.99,1,100000000"],
            ["verify", identity_file, "--grid", "0.001,0.99,1000000000,8"],
            ["verify", identity_file, "--grid", "0.001,0.99,1,16777216"],
            ["verify", identity_file, "--eps", "nan"],
            ["verify", identity_file, "--eps", "inf"],
            ["construct", "f-epsilon", "--from", identity_file, "--eps", "nan"],
            ["construct", "f-epsilon", "--from", identity_file, "--eps", "inf"],
            ["weights", "--lambda", "0.3", "--n", "100000000000"],
            ["verify", str(huge)],
            ["catalog", "emit", "koebe", "--truncation", "100000000000"],
            ["construct", "power-transform", "--lambda", "0.3", "--truncation", "100000000000"],
            ["construct", "extremal", "--lambda", "0.3", "--x", "100000000000=0.1"],
        ):
            rc, out, err = run_cli(argv, capsys)
            assert rc == 2, argv
            assert out == "" and err.startswith("error: "), (argv, err)


class TestWeights:
    def test_lambda_zero_column(self, capsys):
        rc, out, _ = run_cli(["weights", "--lambda", "0", "--n", "5"], capsys)
        assert rc == 0
        rows = [l.split() for l in out.strip().split("\n")[3:]]
        for row in rows:
            assert abs(float(row[2]) - int(row[0])) < 1e-12

    def test_pi4_values(self, capsys):
        rc, out, _ = run_cli(
            ["weights", "--lambda", str(math.pi / 4), "--n", "2"], capsys
        )
        lines = out.strip().split("\n")
        assert abs(float(lines[1].split(" = ")[1]) - 1.0823922) < 1e-6
        row1 = lines[3].split()
        row2 = lines[4].split()
        assert abs(float(row1[3]) - math.tan(math.pi / 8)) < 1e-6
        assert abs(float(row2[1]) - 4.2715584) < 1e-6

    def test_out_of_range_is_usage_error(self, capsys):
        # A bad --lambda or --n 0 gets the prefix of every other usage error.
        for argv in (["--lambda", "1.6", "--n", "4"], ["--lambda", "0.5", "--n", "0"]):
            rc, _, err = run_cli(["weights", *argv], capsys)
            assert rc == 2
            assert err.startswith("error: ")


class TestConstruct:
    def test_extremal_empty_is_identity(self, tmp_path, capsys):
        out_path = tmp_path / "id.json"
        rc, _, _ = run_cli(
            ["construct", "extremal", "--lambda", "0.5", "--out", str(out_path)], capsys
        )
        assert rc == 0
        m, p = parse_map_document(out_path.read_text()).build()
        assert np.all(m.a == 0) and np.all(m.b == 0)

    def test_extremal_roundtrips_through_verify(self, tmp_path, capsys):
        out_path = tmp_path / "ex.json"
        rc, _, _ = run_cli(
            [
                "construct", "extremal", "--lambda", "0.6",
                "--x", "2=0.3", "--y", "1=0.4,0.1",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert rc == 0
        rc, out, _ = run_cli(["verify", str(out_path)], capsys)
        rep = parse_report(out)
        assert rc == 0
        assert abs(float(rep["sufficient_sum"]) - (0.3 + math.hypot(0.4, 0.1))) < 1e-8

    def test_extremal_budget_violation(self, tmp_path, capsys):
        rc, _, err = run_cli(
            [
                "construct", "extremal", "--lambda", "0.6",
                "--x", "2=0.8", "--y", "1=0.9",
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert rc == 1
        assert "budget" in err

    def test_combo_signed(self, tmp_path, capsys):
        out_path = tmp_path / "combo.json"
        rc, _, _ = run_cli(
            [
                "construct", "combo", "--lambda", "0.5", "--sign", "-1",
                "--X", "2=0.3", "--Y", "1=0.2", "--Y", "3=0.1",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert rc == 0
        m, _ = parse_map_document(out_path.read_text()).build()
        assert m.signed_form
        rc, out, _ = run_cli(["verify", str(out_path)], capsys)
        rep = parse_report(out)
        assert rc == 0
        assert abs(float(rep["sufficient_sum"]) - 0.6) < 1e-8

    def test_multiplier_builds_two_term_example(self, tmp_path, capsys):
        lam = math.pi / 4
        alpha = 0.3
        src = tmp_path / "starlike.json"
        src.write_text(
            json.dumps(
                {
                    "lambda": lam,
                    "truncation": 2,
                    "signed_form": True,
                    "a": [],
                    "b": [[alpha, 0], [(1 - alpha) / 2, 0]],
                }
            )
        )
        out_path = tmp_path / "f5.json"
        rc, _, _ = run_cli(
            ["construct", "multiplier", "--from", str(src), "--dn-max",
             "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        m, p = parse_map_document(out_path.read_text()).build()
        from spiralmaps.construct import catalog
        from spiralmaps.criteria import SpiralParams

        f5 = catalog("f5", p=SpiralParams(lam), alpha=alpha)
        assert np.allclose(m.b, f5.b, atol=1e-8)

    def test_multiplier_bound_violation_named(self, tmp_path, capsys):
        src = tmp_path / "starlike.json"
        src.write_text(
            '{"lambda": 0.785398163, "truncation": 3, "signed_form": true,'
            ' "a": [], "b": [[0.5, 0], [0, 0], [0.1, 0]]}'
        )
        rc, _, err = run_cli(
            ["construct", "multiplier", "--from", str(src), "--d", "3=5.0",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert rc == 1
        assert "d_3" in err

    def test_power_transform_koebe(self, tmp_path, capsys):
        out_path = tmp_path / "spiral.json"
        rc, _, _ = run_cli(
            [
                "construct", "power-transform", "--g", "koebe",
                "--lambda", str(-math.pi / 4), "--out", str(out_path),
            ],
            capsys,
        )
        assert rc == 0
        m, _ = parse_map_document(out_path.read_text()).build()
        assert abs(m.a_coeff(2) - (1 - 1j)) < 1e-8

    def test_power_transform_mirror_orientation(self, tmp_path, capsys):
        out_path = tmp_path / "spiral.json"
        rc, _, _ = run_cli(
            [
                "construct", "power-transform", "--g", "koebe",
                "--lambda", str(math.pi / 4), "--orientation", "-1",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert rc == 0
        m, _ = parse_map_document(out_path.read_text()).build()
        assert abs(m.a_coeff(2) - (1 - 1j)) < 1e-8

    def test_f_epsilon_family(self, tmp_path, capsys):
        src = tmp_path / "signed.json"
        src.write_text(
            json.dumps(
                {
                    "lambda": math.pi / 4,
                    "truncation": 2,
                    "signed_form": True,
                    "a": [[-0.25, 0]],
                    "b": [[0.25, 0]],
                }
            )
        )
        out_path = tmp_path / "out.json"
        rc, out, _ = run_cli(
            ["construct", "f-epsilon", "--from", str(src), "--n-eps", "16",
             "--grid", "0.001,0.9,10,32", "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        assert "family_min_margin" in out
        assert "family_pass = true" in out
        assert out_path.exists()


class TestPlot:
    def test_svg_deterministic(self, f2_file, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(["plot", f2_file, "--out", str(a)], capsys)
        run_cli(["plot", f2_file, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_output(self, identity_file, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        rc, _, _ = run_cli(
            ["plot", identity_file, "--radii", "0.5", "--samples", "64", "--csv",
             "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "r,theta,re,im"
        assert len(lines) == 65

    def test_custom_radii(self, identity_file, tmp_path, capsys):
        out_path = tmp_path / "p.svg"
        rc, _, _ = run_cli(
            ["plot", identity_file, "--radii", "0.3,0.6", "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        assert out_path.read_text().count("<polyline") == 2


class TestCatalog:
    def test_list(self, capsys):
        rc, out, _ = run_cli(["catalog", "list"], capsys)
        assert rc == 0
        for name in ("f1", "f7", "koebe", "harmonic_koebe", "half_plane", "identity"):
            assert name in out

    def test_emit_f6(self, tmp_path, capsys):
        out_path = tmp_path / "f6.json"
        rc, _, _ = run_cli(
            ["catalog", "emit", "f6", "--lambda", str(math.pi / 4),
             "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        m, _ = parse_map_document(out_path.read_text()).build()
        assert abs(m.b_coeff(1) + math.tan(math.pi / 8)) < 1e-8

    def test_emit_f1(self, tmp_path, capsys):
        out_path = tmp_path / "f1.json"
        rc, _, _ = run_cli(
            ["catalog", "emit", "f1", "--alpha", "-0.5", "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        m, _ = parse_map_document(out_path.read_text()).build()
        assert m.b_coeff(1) == -0.5

    def test_unknown_name_lists_valid(self, capsys):
        rc, _, err = run_cli(["catalog", "emit", "f99"], capsys)
        assert rc == 2
        assert "identity" in err

    def test_emit_parse_emit_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "f2.json"
        run_cli(
            ["catalog", "emit", "f2", "--lambda", str(math.pi / 3),
             "--alpha", "0.95", "--out", str(out_path)],
            capsys,
        )
        text = out_path.read_text()
        assert emit_map_document(parse_map_document(text)) == text


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "spiralmaps", "weights", "--lambda", "0", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "A_n_over_B" in proc.stdout
