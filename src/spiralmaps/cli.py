"""Command-line front end.

Subcommands:

    verify <file> [--grid r_min,r_max,n_r,n_theta] [--eps E]
    weights --lambda <rad> --n <N>
    construct {extremal|combo|multiplier|power-transform|f-epsilon} ...
    plot <file> [--radii ...] [--samples S] [--csv] [--out PATH]
    catalog [list | emit <name> ...]

Exit codes: 0 all applicable checks passed (or output written), 1 a check
failed, 2 usage or parse errors.  All numeric output uses 9 significant
digits so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .construct import (
    CATALOG_PARAMS,
    CombinationWeights,
    ConstraintError,
    DecompositionError,
    MAX_FAMILY_COEFFS,
    MultiplierSequence,
    catalog,
    catalog_names,
    convex_combination,
    extremal_family,
    multiplier_transfer,
    spirallike_power_transform,
    transform_family_check,
)
from .criteria import (
    MAX_EPS_SAMPLES,
    NearZeroError,
    SpiralParams,
    VerificationReport,
    run_all_checks,
    weight_table,
)
from .harmonic import GridSpec, HarmonicMapSpec, ScanResult
from .mapfile import (
    MapDocument,
    MapFileError,
    document_from_map,
    emit_map_document,
    format_number,
    load_map_file,
    parse_map_document,
)
from .render import DEFAULT_RADII, PlotSpec, render_csv, render_svg
from .series import MAX_ORDER

_USAGE_EXIT = 2
_FAIL_EXIT = 1


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _scan_lines(key: str, min_key: str, scan: ScanResult) -> list[str]:
    return [
        f"{key}_{min_key} = {format_number(scan.min_value)}",
        f"{key}_witness_re = {format_number(scan.witness.real)}",
        f"{key}_witness_im = {format_number(scan.witness.imag)}",
        f"{key}_pass = {_fmt_bool(scan.passed)}",
    ]


def report_lines(report: VerificationReport) -> list[str]:
    """Flat key = value rendering of a verification report."""
    g = report.grid
    lines = [
        f"lambda = {format_number(report.lam)}",
        f"truncation = {report.truncation_order}",
        f"grid_r_min = {format_number(g.r_min)}",
        f"grid_r_max = {format_number(g.r_max)}",
        f"grid_n_radii = {g.n_radii}",
        f"grid_n_angles = {g.n_angles}",
        f"margin_eps = {format_number(g.margin_eps)}",
        f"pointwise_method = {'sampled' if report.sampled else 'exact'}",
        f"silverman_sum = {format_number(report.silverman.value)}",
        f"silverman_pass = {_fmt_bool(report.silverman.passed)}",
        f"sufficient_sum = {format_number(report.sufficient.value)}",
        f"sufficient_pass = {_fmt_bool(report.sufficient.passed)}",
        f"necessary_applicable = {_fmt_bool(report.necessary_weighted is not None)}",
    ]
    if report.necessary_weighted is not None:
        lines += [
            f"necessary_weighted_sum = {format_number(report.necessary_weighted.value)}",
            f"necessary_weighted_pass = {_fmt_bool(report.necessary_weighted.passed)}",
            f"necessary_sharp_sum = {format_number(report.necessary_sharp.value)}",
            f"necessary_sharp_pass = {_fmt_bool(report.necessary_sharp.passed)}",
        ]
    lines += _scan_lines("sense_preserving", "min", report.sense_preserving)
    lines += _scan_lines("nonvanishing", "min", report.nonvanishing)
    lines.append(f"pointwise_applicable = {_fmt_bool(report.pointwise is not None)}")
    if report.pointwise is not None:
        lhs, rhs = report.inequality_sides
        lines += _scan_lines("pointwise", "min_margin", report.pointwise) + [
            f"inequality_lhs = {format_number(lhs)}",
            f"inequality_rhs = {format_number(rhs)}",
        ]
    if report.margin is not None:
        lines += _scan_lines("margin", "min", report.margin)
    lines.append(f"growth_applicable = {_fmt_bool(report.growth is not None)}")
    if report.growth is not None:
        lines += [
            f"growth_lower = {format_number(report.growth.lower)}",
            f"growth_upper = {format_number(report.growth.upper)}",
            f"covering_radius = {format_number(report.growth.covering_radius)}",
        ]
    lines.append(f"all_pass = {_fmt_bool(report.all_passed())}")
    return lines


def _parse_grid(text: str, eps: float) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("grid must be r_min,r_max,n_r,n_theta")
    try:
        return GridSpec(
            r_min=float(parts[0]),
            r_max=float(parts[1]),
            n_radii=int(parts[2]),
            n_angles=int(parts[3]),
            margin_eps=eps,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _order(n, what: str):
    """An order or coefficient index from argv; above MAX_ORDER a usage error."""
    if n is not None and n > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"{what} {n} exceeds the largest order {MAX_ORDER}")
    return n


def _parse_indexed(values, what: str, complex_ok: bool = True) -> dict[int, complex]:
    """Parse repeated ``n=re[,im]`` options into an index -> value dict."""
    out: dict[int, complex] = {}
    for item in values or []:
        if "=" not in item:
            raise MapFileError(f"{what} entry {item!r} is not of the form n=re[,im]")
        idx_text, _, val_text = item.partition("=")
        try:
            idx = int(idx_text)
        except ValueError:
            raise MapFileError(f"{what} index {idx_text!r} is not an integer")
        pieces = val_text.split(",")
        try:
            re = float(pieces[0])
            im = float(pieces[1]) if len(pieces) > 1 else 0.0
        except (ValueError, IndexError):
            raise MapFileError(f"{what} value {val_text!r} is not re[,im]")
        if im != 0.0 and not complex_ok:
            raise MapFileError(f"{what} value for n={idx} must be real")
        out[idx] = complex(re, im)
    return out


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------- commands


def _cmd_verify(args) -> int:
    m, p = load_map_file(args.file)
    grid = _parse_grid(args.grid, args.eps)
    report = run_all_checks(m, p, grid)
    for line in report_lines(report):
        print(line)
    return 0 if report.all_passed() else _FAIL_EXIT


def _cmd_weights(args) -> int:
    _order(args.n, "--n")
    try:
        p = SpiralParams(args.lam)
        wt = weight_table(p, args.n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    print(f"lambda = {format_number(p.lam)}")
    print(f"B = {format_number(wt.B)}")
    print("n A_n A_n_over_B n_B_over_A_n")
    suff = wt.sufficient_ratios()
    nec = wt.necessary_ratios()
    for n in range(1, args.n + 1):
        print(
            f"{n} {format_number(wt.A[n])} {format_number(suff[n])} "
            f"{format_number(n * nec[n])}"
        )
    return 0


def _dict_to_tail(d: dict[int, complex], start: int, n_max: int, what: str) -> np.ndarray:
    out = np.zeros(n_max - start + 1, dtype=np.complex128)
    for n, v in d.items():
        if not start <= n <= n_max:
            raise MapFileError(f"{what} index n={n} outside {start}..{n_max}")
        out[n - start] = v
    return out


def _cmd_construct(args) -> int:
    p = SpiralParams(args.lam) if args.lam is not None else None
    _order(args.truncation, "--truncation")
    if args.builder == "extremal":
        if p is None:
            raise MapFileError("construct extremal needs --lambda")
        x = _parse_indexed(args.x, "--x")
        y = _parse_indexed(args.y, "--y")
        n_max = _order(max([args.truncation or 1] + list(x) + list(y)), "index")
        m = extremal_family(
            _dict_to_tail(x, 2, n_max, "--x"),
            _dict_to_tail(y, 1, n_max, "--y"),
            p,
            order=n_max,
        )
    elif args.builder == "combo":
        if p is None:
            raise MapFileError("construct combo needs --lambda")
        xw = _parse_indexed(args.X, "--X", complex_ok=False)
        yw = _parse_indexed(args.Y, "--Y", complex_ok=False)
        n_max = _order(max([args.truncation or 1] + list(xw) + list(yw)), "index")
        X = _dict_to_tail(xw, 1, n_max, "--X").real
        Y = _dict_to_tail(yw, 1, n_max, "--Y").real
        slack = 1.0 - X.sum() - Y.sum()
        if 1 not in xw:
            if slack < -1e-12:
                raise MapFileError(f"combination weights exceed 1 by {-slack:.3g}")
            X[0] = max(slack, 0.0)  # identity share absorbs the remainder
        m = convex_combination(CombinationWeights(X=X, Y=Y), p, sign=args.sign)
    elif args.builder == "multiplier":
        F, p_file = load_map_file(args.from_file)
        p = p or p_file
        if args.dn_max:
            d = MultiplierSequence.max_allowed(p, F.truncation_order)
        else:
            dvals = _parse_indexed(args.d, "--d")
            if not dvals:
                raise MapFileError("construct multiplier needs --dn-max or --d entries")
            d = MultiplierSequence(
                _dict_to_tail(dvals, 1, F.truncation_order, "--d")
            )
        m = multiplier_transfer(F, d, p)
    elif args.builder == "power-transform":
        if p is None:
            raise MapFileError("construct power-transform needs --lambda")
        if args.g in ("koebe", "identity"):
            g = catalog(args.g, order=args.truncation).h_series()  # None -> default
        else:
            gm, _ = load_map_file(args.g)
            if np.any(np.abs(gm.b) > 0):
                raise MapFileError("power-transform input must be analytic (empty b)")
            g = gm.h_series()
        h = spirallike_power_transform(g, p, orientation=args.orientation)
        m = HarmonicMapSpec(
            a=h.coeffs[2:], b=[], truncation_order=h.order, signed_form=False
        )
    elif args.builder == "f-epsilon":
        if not 1 <= args.n_eps <= MAX_EPS_SAMPLES:
            raise argparse.ArgumentTypeError(f"--n-eps must lie in 1..{MAX_EPS_SAMPLES}")
        F, p_file = load_map_file(args.from_file)
        p = p or p_file
        if not F.signed_form:
            raise MapFileError("construct f-epsilon needs a signed-form input map")
        if args.n_eps * F.truncation_order > MAX_FAMILY_COEFFS:
            raise argparse.ArgumentTypeError(f"--n-eps x truncation exceeds {MAX_FAMILY_COEFFS}")
        res = transform_family_check(
            F.h_series(), F.g_series(), p,
            grid=_parse_grid(args.grid, args.eps), n_eps=args.n_eps,
        )
        print(f"family_min_margin = {format_number(res.min_value)}")
        print(f"family_witness_eps_re = {format_number(res.witness_eps.real)}")
        print(f"family_witness_eps_im = {format_number(res.witness_eps.imag)}")
        print(f"family_pass = {_fmt_bool(res.passed)}")
        if not res.passed:
            return _FAIL_EXIT
        m = multiplier_transfer(
            F, MultiplierSequence.max_allowed(p, F.truncation_order), p
        )
    else:  # pragma: no cover - argparse restricts choices
        raise MapFileError(f"unknown builder {args.builder!r}")

    doc = document_from_map(m, p)
    _write_output(emit_map_document(doc), args.out)
    return 0


def _cmd_plot(args) -> int:
    m, _ = load_map_file(args.file)
    try:
        radii = (
            tuple(float(r) for r in args.radii.split(","))
            if args.radii
            else DEFAULT_RADII
        )
        spec = PlotSpec(
            radii=radii,
            samples_per_circle=args.samples,
            fmt="csv" if args.csv else "svg",
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    text = render_csv(m, spec) if args.csv else render_svg(m, spec)
    _write_output(text, args.out)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            params = CATALOG_PARAMS[name]
            suffix = f" ({', '.join(params)})" if params else ""
            print(f"{name}{suffix}")
        return 0
    # emit
    name = args.name
    if name not in CATALOG_PARAMS:
        print(f"unknown catalog name {name!r}; valid names:", file=sys.stderr)
        for known in catalog_names():
            print(f"  {known}", file=sys.stderr)
        return _USAGE_EXIT
    lam = args.lam if args.lam is not None else 0.0
    p = SpiralParams(lam)
    alpha = complex(args.alpha_re, args.alpha_im) if args.alpha_re is not None else None
    m = catalog(name, p=p, alpha=alpha, order=_order(args.truncation, "--truncation"))
    params: dict = {}
    if "alpha" in CATALOG_PARAMS[name]:
        params["alpha"] = (
            [alpha.real, alpha.imag] if alpha is not None and alpha.imag else
            (alpha.real if alpha is not None else None)
        )
    doc = MapDocument(
        lam=lam,
        truncation=m.truncation_order,
        signed_form=m.signed_form,
        catalog_name=name,
        catalog_params={k: v for k, v in params.items() if v is not None},
    )
    _write_output(emit_map_document(doc), args.out)
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralmaps",
        description="Verify, construct, and plot spirallike harmonic mappings of the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run every applicable check on a map file")
    pv.add_argument("file")
    pv.add_argument("--grid", default="0.001,0.99,40,256", help="r_min,r_max,n_r,n_theta")
    pv.add_argument("--eps", type=float, default=1e-9, help="strict-inequality margin")
    pv.set_defaults(func=_cmd_verify)

    pw = sub.add_parser("weights", help="print the weight table for one angle")
    pw.add_argument("--lambda", dest="lam", type=float, required=True)
    pw.add_argument("--n", type=int, required=True)
    pw.set_defaults(func=_cmd_weights)

    pc = sub.add_parser("construct", help="build a map and write it as a map file")
    pc.add_argument(
        "builder",
        choices=["extremal", "combo", "multiplier", "power-transform", "f-epsilon"],
    )
    pc.add_argument("--lambda", dest="lam", type=float, default=None)
    pc.add_argument("--truncation", type=int, default=None)
    pc.add_argument("--x", action="append", help="extremal weight n=re[,im]")
    pc.add_argument("--y", action="append", help="extremal weight n=re[,im]")
    pc.add_argument("--X", action="append", help="combination weight n=w")
    pc.add_argument("--Y", action="append", help="combination weight n=w")
    pc.add_argument("--sign", type=int, choices=[-1, 1], default=1)
    pc.add_argument("--from", dest="from_file", help="input map file")
    pc.add_argument("--dn-max", action="store_true", help="use d_n = n B/A_n")
    pc.add_argument("--d", action="append", help="multiplier n=re[,im]")
    pc.add_argument("--g", default="koebe", help="transform input: catalog name or file")
    pc.add_argument("--orientation", type=int, choices=[-1, 1], default=1)
    pc.add_argument("--n-eps", type=int, default=64)
    pc.add_argument("--grid", default="0.001,0.99,40,256")
    pc.add_argument("--eps", type=float, default=1e-9)
    pc.add_argument("--out", default=None, help="output path (default stdout)")
    pc.set_defaults(func=_cmd_construct)

    pp = sub.add_parser("plot", help="render circle images as SVG or CSV")
    pp.add_argument("file")
    pp.add_argument("--radii", default=None, help="comma-separated radii in (0,1)")
    pp.add_argument("--samples", type=int, default=720)
    pp.add_argument("--csv", action="store_true", help="emit CSV instead of SVG")
    pp.add_argument("--out", default=None, help="output path (default stdout)")
    pp.set_defaults(func=_cmd_plot)

    pk = sub.add_parser("catalog", help="list or emit built-in example maps")
    ksub = pk.add_subparsers(dest="action", required=True)
    kl = ksub.add_parser("list")
    kl.set_defaults(func=_cmd_catalog, action="list")
    ke = ksub.add_parser("emit")
    ke.add_argument("name")
    ke.add_argument("--lambda", dest="lam", type=float, default=None)
    ke.add_argument("--alpha", dest="alpha_re", type=float, default=None)
    ke.add_argument("--alpha-im", dest="alpha_im", type=float, default=0.0)
    ke.add_argument("--truncation", type=int, default=None)
    ke.add_argument("--out", default=None)
    ke.set_defaults(func=_cmd_catalog, action="emit")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MapFileError, FileNotFoundError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ConstraintError, DecompositionError, NearZeroError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAIL_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
