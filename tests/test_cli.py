"""End-to-end CLI tests: verify, weights, construct, plot, catalog."""

import argparse
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spiralmaps import cli
from spiralmaps.cli import main
from spiralmaps.construct import ConstraintError, DecompositionError
from spiralmaps.criteria import ClassFormError, HypothesisError, NearZeroError
from spiralmaps.mapfile import (
    MapFileError,
    NonFiniteOutputError,
    emit_map_document,
    parse_map_document,
)
from spiralmaps.series import NormalizationError


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

    @pytest.mark.parametrize("flags", [["--csv"], []])
    def test_overflowing_plot_writes_no_file(self, tmp_path, capsys, flags):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"lambda": 0.3, "truncation": 4, "signed_form": false, '
            '"a": [[1.5e308, 0], [1.5e308, 0], [1.5e308, 0]], "b": []}'
        )
        out_path = tmp_path / "p.out"
        rc, out, err = run_cli(["plot", str(path), "--out", str(out_path)] + flags, capsys)
        assert rc == 1
        assert err == "error: non-finite number in output\n"
        assert not out_path.exists()
        rc, out, err = run_cli(["plot", str(path)] + flags, capsys)
        assert (rc, out) == (1, "")

    def test_custom_radii(self, identity_file, tmp_path, capsys):
        out_path = tmp_path / "p.svg"
        rc, _, _ = run_cli(
            ["plot", identity_file, "--radii", "0.3,0.6", "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        assert out_path.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("radii", ["", " "])
    def test_empty_radii_is_usage_error(self, identity_file, tmp_path, capsys, radii):
        # An explicitly empty list is refused, not read as "the default radii".
        out_path = tmp_path / "p.svg"
        rc, out, err = run_cli(["plot", identity_file, "--radii", radii, "--out", str(out_path)], capsys)
        assert (rc, out, err) == (2, "", "error: need at least one radius\n")
        assert not out_path.exists()


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


@pytest.mark.parametrize("truncation", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "emit", "koebe"],
        ["construct", "power-transform", "--lambda", "0.3"],
        ["construct", "extremal", "--lambda", "0.5", "--x", "2=0.1"],
    ],
)
def test_truncation_below_one_is_a_usage_error(argv, truncation, tmp_path, capsys):
    # Not the default order, the coefficient indices or a failure exit: a
    # usage error, and no map written.
    out_path = tmp_path / "map.json"
    rc, out, err = run_cli([*argv, "--truncation", truncation, "--out", str(out_path)], capsys)
    assert rc == 2
    assert err.startswith("error: --truncation ")
    assert out == "" and not out_path.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "spiralmaps", "weights", "--lambda", "0", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "A_n_over_B" in proc.stdout


def write_catalog_file(tmp_path, name, params, lam=0.5, truncation=2):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"lambda": lam, "truncation": truncation, "signed_form": False,
                                "catalog": {"name": name, "params": params}}))
    return str(path)


@pytest.mark.parametrize(
    "name, params, truncation, message",
    [
        ("koebe", {"alpha": 0.5}, 64, "'koebe' takes no parameter 'alpha'"),
        ("f2", {"beta": 0.5}, 2, "'f2' takes no parameter 'beta'"),
        ("f2", {"alpha": 0.5, "lambda": 0.1}, 2, "'f2' takes no parameter 'lambda'"),
        ("f2", {}, 2, "'f2' needs the parameter 'alpha'"),
        ("f1", {"alpha": 1.5}, 1, "open unit disk"),
        ("f5", {"alpha": [0.5, 0.1]}, 2, "f5 needs a real alpha"),
    ],
)
def test_verify_refuses_catalog_parameters_as_a_file_error(name, params, truncation, message,
                                                            tmp_path, capsys):
    path = write_catalog_file(tmp_path, name, params, truncation=truncation)
    rc, out, err = run_cli(["verify", path], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["koebe", "--alpha", "0.5"], "'koebe' takes no --alpha"),
        (["f6", "--lambda", "0.3", "--alpha", "0.5"], "'f6' takes no --alpha"),
        (["f2", "--lambda", "0.3"], "needs the parameter alpha"),
        (["f1", "--alpha", "1.5"], "open unit disk"),
        (["f5", "--lambda", "0.3", "--alpha", "0.5", "--alpha-im", "0.1"], "f5 needs a real alpha"),
    ],
)
def test_catalog_emit_refuses_parameters_as_a_usage_error(argv, message, tmp_path, capsys):
    out_path = tmp_path / "map.json"
    rc, out, err = run_cli(["catalog", "emit", *argv, "--out", str(out_path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["verify", "map.json"], ["construct", "f-epsilon"]])
def test_grid_defaults_are_the_default_grid(argv):
    from spiralmaps.cli import _parse_grid, build_parser
    from spiralmaps.harmonic import GridSpec

    args = build_parser().parse_args(argv)
    assert _parse_grid(args.grid, args.eps) == GridSpec()


# Every construct option with a valid value, and the options each builder reads.
CONSTRUCT_OPTIONS = {
    "--lambda": ["0.3"], "--truncation": ["4"], "--x": ["2=0.1"], "--y": ["1=0.1"],
    "--X": ["2=0.1"], "--Y": ["1=0.1"], "--sign": ["-1"], "--from": None, "--dn-max": [],
    "--d": ["1=0.5"], "--g": ["koebe"], "--orientation": ["-1"], "--n-eps": ["4"],
    "--grid": ["0.01,0.9,4,16"], "--eps": ["1e-9"], "--out": None,
}
BUILDER_OPTIONS = {
    "extremal": ("--lambda", "--truncation", "--x", "--y", "--out"),
    "combo": ("--lambda", "--truncation", "--X", "--Y", "--sign", "--out"),
    "multiplier": ("--lambda", "--from", "--dn-max", "--d", "--out"),
    "power-transform": ("--lambda", "--truncation", "--g", "--orientation", "--out"),
    "f-epsilon": ("--lambda", "--from", "--n-eps", "--grid", "--eps", "--out"),
}
BUILDER_ARGV = {
    "extremal": ["--lambda", "0.3", "--x", "2=0.1"],
    "combo": ["--lambda", "0.3", "--X", "2=0.1"],
    "multiplier": ["--dn-max"],
    "power-transform": ["--lambda", "0.3"],
    "f-epsilon": ["--n-eps", "4", "--grid", "0.01,0.9,4,16"],
}


def construct_argv(builder, from_file, out_path):
    """A construct command that writes a map: the --from builders read
    ``from_file``, the others build from their own options."""
    source = ["--from", from_file] if "--from" in BUILDER_OPTIONS[builder] else []
    return ["construct", builder, *BUILDER_ARGV[builder], *source, "--out", str(out_path)]


def test_builder_commands_write_a_map(identity_file, tmp_path, capsys):
    # The base commands of the option tests below succeed on their own.
    for builder in BUILDER_OPTIONS:
        out_path = tmp_path / f"{builder}.json"
        rc, _, err = run_cli(construct_argv(builder, identity_file, out_path), capsys)
        assert (rc, err) == (0, ""), builder
        assert parse_map_document(out_path.read_text()).build()


@pytest.mark.parametrize(
    "builder, option",
    [(b, o) for b, read in BUILDER_OPTIONS.items() for o in CONSTRUCT_OPTIONS if o not in read],
)
def test_construct_refuses_options_its_builder_does_not_read(builder, option, identity_file,
                                                              tmp_path, capsys):
    out_path = tmp_path / "map.json"
    value = CONSTRUCT_OPTIONS[option]
    extra = [option, *(value if value is not None else [identity_file])]
    with pytest.raises(SystemExit) as exc:
        main(construct_argv(builder, identity_file, out_path) + extra)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {option}" in err
    assert err.startswith(f"usage: spiralmaps construct {builder} ")  # the builder's own usage
    assert not out_path.exists()


@pytest.mark.parametrize("argv, prog", [
    (["verify", "map.json"], "verify"),
    (["weights", "--lambda", "0.3", "--n", "4"], "weights"),
    (["plot", "map.json"], "plot"),
    (["catalog", "list"], "catalog list"),
    (["catalog", "emit", "koebe"], "catalog emit"),
])
def test_unknown_option_prints_the_command_usage(argv, prog, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--bogus"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: spiralmaps {prog} ")
    assert err.endswith("error: unrecognized arguments: --bogus\n")


def test_power_transform_truncation_of_a_map_file_is_a_usage_error(tmp_path, capsys):
    # --truncation sets the order of a catalog --g; a map file has its own.
    g_path, out_path = tmp_path / "g6.json", tmp_path / "map.json"
    rc, _, _ = run_cli(["catalog", "emit", "identity", "--truncation", "6", "--out", str(g_path)], capsys)
    assert rc == 0
    rc, out, err = run_cli(["construct", "power-transform", "--g", str(g_path), "--lambda", "0.3",
                            "--truncation", "3", "--out", str(out_path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --truncation ") and str(g_path) in err
    assert not out_path.exists()
    # Without --truncation the file's order is the transform's.
    rc, _, _ = run_cli(["construct", "power-transform", "--g", str(g_path), "--lambda", "0.3",
                        "--out", str(out_path)], capsys)
    assert rc == 0 and parse_map_document(out_path.read_text()).truncation == 6


def test_multiplier_takes_dn_max_or_d_not_both(identity_file, tmp_path, capsys):
    # With --dn-max the --d entries would be dropped.
    out_path = tmp_path / "map.json"
    with pytest.raises(SystemExit) as exc:
        main(construct_argv("multiplier", identity_file, out_path) + ["--d", "1=0.5"])
    assert exc.value.code == 2
    assert "not allowed with argument --dn-max" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("builder", ["multiplier", "f-epsilon"])
def test_construct_without_from_is_a_usage_error(builder, tmp_path, capsys):
    out_path = tmp_path / "map.json"
    rc, out, err = run_cli(["construct", builder, *BUILDER_ARGV[builder],
                            "--out", str(out_path)], capsys)
    assert (rc, out, err) == (2, "", f"error: construct {builder} needs --from\n")
    assert not out_path.exists()


@pytest.mark.parametrize("lam", ["2", "-1.6", "nan", "inf"])
@pytest.mark.parametrize("command", [*BUILDER_OPTIONS, "catalog emit", "weights"])
def test_lambda_outside_the_open_interval_is_a_usage_error(command, lam, identity_file,
                                                            tmp_path, capsys):
    out_path = tmp_path / "map.json"
    if command == "catalog emit":
        argv = ["catalog", "emit", "koebe", "--out", str(out_path)]
    elif command == "weights":
        argv = ["weights", "--n", "4"]
    else:
        argv = construct_argv(command, identity_file, out_path)
    rc, out, err = run_cli([*argv, "--lambda", lam], capsys)
    assert (rc, out, err) == (2, "", "error: spiral angle must satisfy |lam| < pi/2\n")
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["koebe", "f1"])
def test_catalog_emit_alpha_im_without_alpha_is_a_usage_error(name, tmp_path, capsys):
    out_path = tmp_path / "map.json"
    rc, out, err = run_cli(["catalog", "emit", name, "--alpha-im", "0.5",
                            "--out", str(out_path)], capsys)
    assert (rc, out, err) == (2, "", "error: --alpha-im needs --alpha\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "builder, option, value",
    [
        ("extremal", "--x", "2=nan"),
        ("extremal", "--y", "1=0.1,nan"),
        ("extremal", "--y", "1=inf"),
        ("combo", "--X", "2=nan"),
        ("combo", "--Y", "1=-inf"),
        ("multiplier", "--d", "1=nan"),
        ("multiplier", "--d", "1=0.5,inf"),
    ],
)
def test_non_finite_indexed_value_is_a_usage_error(builder, option, value, identity_file,
                                                   tmp_path, capsys):
    out_path = tmp_path / "map.json"
    argv = construct_argv(builder, identity_file, out_path)
    if builder == "multiplier":
        argv.remove("--dn-max")
    rc, out, err = run_cli([*argv, option, value], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {option} entry {value!r} contains a non-finite value\n"
    assert not out_path.exists()


def map_text(signed_form, a):
    return json.dumps({"lambda": 0.3, "truncation": 2, "signed_form": signed_form,
                       "a": a, "b": []})


# Inputs the program refuses: each exits 2 with one error line, whichever
# layer refuses it (the map, its class form, the weights or the file read).
# The input is the text or bytes of a file, DIRECTORY, or None for no file.
DIRECTORY = object()
COMBO = ["construct", "combo", "--lambda", "0.3", "--X", "1=0.5", "--Y", "1=0.3"]
DN_MAX = ["construct", "multiplier", "--dn-max", "--from", "{}"]
REFUSED_INPUTS = {
    "a past the truncation, verify": (map_text(False, [[0.1, 0]] * 2), ["verify", "{}"]),
    "a past the truncation, plot": (map_text(False, [[0.1, 0]] * 2), ["plot", "{}"]),
    "a past the truncation, construct": (map_text(False, [[0.1, 0]] * 2), DN_MAX),
    "signed form with a_2 > 0": (map_text(True, [[0.1, 0]]), ["verify", "{}"]),
    "multiplier of an unsigned map": (map_text(False, [[0.1, 0]]), DN_MAX),
    "combo weights summing past 1": (None, [*COMBO, "--X", "2=0.3"]),
    "negative combo weight": (None, [*COMBO, "--X", "2=-0.1"]),
    "a directory": (DIRECTORY, ["verify", "{}"]),
    "not utf-8": (map_text(False, []).encode() + b"\xe9", ["verify", "{}"]),
}


def input_path(tmp_path, content):
    path = tmp_path / "input"
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    return str(path)


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_refused_input_is_a_usage_error(case, tmp_path, capsys):
    content, argv = REFUSED_INPUTS[case]
    path = input_path(tmp_path, content)
    rc, out, err = run_cli([a.format(path) for a in argv], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_directory_is_a_usage_error_without_a_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spiralmaps", "verify", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "error, rc",
    [
        (ConstraintError, 1),
        (NearZeroError, 1),
        (NonFiniteOutputError, 1),
        (MapFileError, 2),
        (ClassFormError, 2),
        (HypothesisError, 2),
        (NormalizationError, 2),
        (DecompositionError, 2),
        (ValueError, 2),
        (FileNotFoundError, 2),
        (IsADirectoryError, 2),
        (argparse.ArgumentTypeError, 2),
    ],
)
def test_exit_status_rule(error, rc, monkeypatch, capsys):
    # main alone maps an error to its exit status: 1 for a failed
    # computation, 2 for anything the program refuses.
    def command(args):
        raise error("refused")

    monkeypatch.setattr(cli, "_cmd_weights", command)
    assert run_cli(["weights", "--lambda", "0.3", "--n", "4"], capsys) == (rc, "", "error: refused\n")


def test_constraint_error_shows_the_excess(capsys):
    rc, out, err = run_cli(["construct", "extremal", "--lambda", "0.3", "--x", "2=0.5",
                            "--y", "1=0.50000000001"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: weight budget sum|x| + sum|y| = 1.00000000001 exceeds 1\n"
