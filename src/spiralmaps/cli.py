"""Command-line front end.

Subcommands:

    verify <file> [--grid r_min,r_max,n_r,n_theta] [--eps E]
    weights --lambda <rad> --n <N>
    construct extremal --lambda <rad> [--truncation N] [--x n=re[,im]]...
        [--y n=re[,im]]... [--out PATH]
    construct combo --lambda <rad> [--truncation N] [--X n=w]... [--Y n=w]...
        [--sign {-1,1}] [--out PATH]
    construct multiplier --from <file> [--lambda <rad>]
        (--dn-max | --d n=re[,im]...) [--out PATH]
    construct power-transform --lambda <rad> [--truncation N]
        [--g {koebe|identity|<file>}] [--orientation {-1,1}] [--out PATH]
    construct f-epsilon --from <file> [--lambda <rad>] [--n-eps K]
        [--grid r_min,r_max,n_r,n_theta] [--eps E] [--out PATH]
    plot <file> [--radii ...] [--samples S] [--csv] [--out PATH]
    catalog [list | emit <name> [--lambda <rad>] [--alpha re [--alpha-im im]]
        [--truncation N] [--out PATH]]

Each construct builder accepts only the options listed for it, spelled out
in full: any other option is a usage error with the builder's usage line.
The power transform's --truncation sets the order of a catalog --g only.

Exit codes: 0 all applicable checks passed (or output written); 1 a check
failed, a constraint was violated, a denominator came near zero or an
output number overflowed; 2 any other error: a refused option, value or
map file, or a file that cannot be read or written.  All numeric output
uses 9 significant digits so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .construct import (
    CATALOG_PARAMS,
    CombinationWeights,
    ConstraintError,
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
    NonFiniteOutputError,
    document_from_map,
    emit_map_document,
    format_number,
    load_map_file,
    parse_map_document,
)
from .render import DEFAULT_RADII, PlotSpec, plot_blocks
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
        "pointwise_method = sampled",
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
    return GridSpec(
        r_min=float(parts[0]),
        r_max=float(parts[1]),
        n_radii=int(parts[2]),
        n_angles=int(parts[3]),
        margin_eps=eps,
    )


def _order(n, what: str):
    """An order or coefficient index from argv; below 1 or above MAX_ORDER a
    usage error."""
    if n is not None and n < 1:
        raise argparse.ArgumentTypeError(f"{what} {n} is below the least order 1")
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
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MapFileError(f"{what} entry {item!r} contains a non-finite value")
        if im != 0.0 and not complex_ok:
            raise MapFileError(f"{what} value for n={idx} must be real")
        out[idx] = complex(re, im)
    return out


def _write_output(blocks, path: str | None) -> None:
    """Write each text block of ``blocks`` as it comes, to ``path`` or stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)


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
    p = SpiralParams(args.lam)
    wt = weight_table(p, args.n)
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
    if args.builder == "extremal":
        order = _order(args.truncation, "--truncation")
        x = _parse_indexed(args.x, "--x")
        y = _parse_indexed(args.y, "--y")
        n_max = _order(max([order or 1] + list(x) + list(y)), "index")
        m = extremal_family(
            _dict_to_tail(x, 2, n_max, "--x"),
            _dict_to_tail(y, 1, n_max, "--y"),
            p,
            order=n_max,
        )
    elif args.builder == "combo":
        order = _order(args.truncation, "--truncation")
        xw = _parse_indexed(args.X, "--X", complex_ok=False)
        yw = _parse_indexed(args.Y, "--Y", complex_ok=False)
        n_max = _order(max([order or 1] + list(xw) + list(yw)), "index")
        X = _dict_to_tail(xw, 1, n_max, "--X").real
        Y = _dict_to_tail(yw, 1, n_max, "--Y").real
        slack = 1.0 - X.sum() - Y.sum()
        if 1 not in xw:
            if slack < -1e-12:
                raise MapFileError(f"combination weights exceed 1 by {-slack:.3g}")
            X[0] = max(slack, 0.0)  # identity share absorbs the remainder
        m = convex_combination(CombinationWeights(X=X, Y=Y), p, sign=args.sign)
    elif args.builder == "multiplier":
        if args.from_file is None:
            raise MapFileError("construct multiplier needs --from")
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
        order = _order(args.truncation, "--truncation")
        if args.g in ("koebe", "identity"):
            g = catalog(args.g, order=order).h_series()  # None -> default
        else:
            if order is not None:
                raise MapFileError(f"--truncation needs a catalog --g, not the map file {args.g!r}")
            gm, _ = load_map_file(args.g)
            if np.any(np.abs(gm.b) > 0):
                raise MapFileError("power-transform input must be analytic (empty b)")
            g = gm.h_series()
        h = spirallike_power_transform(g, p, orientation=args.orientation)
        m = HarmonicMapSpec(
            a=h.coeffs[2:], b=[], truncation_order=h.order, signed_form=False
        )
    else:  # f-epsilon
        if args.from_file is None:
            raise MapFileError("construct f-epsilon needs --from")
        F, p_file = load_map_file(args.from_file)
        p = p or p_file
        if not F.signed_form:
            raise MapFileError("construct f-epsilon needs a signed-form input map")
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

    doc = document_from_map(m, p)
    _write_output([emit_map_document(doc)], args.out)
    return 0


def _cmd_plot(args) -> int:
    m, _ = load_map_file(args.file)
    if args.radii is None:
        radii = DEFAULT_RADII
    elif args.radii.strip():
        radii = tuple(float(r) for r in args.radii.split(","))
    else:
        radii = ()  # PlotSpec refuses it: need at least one radius
    spec = PlotSpec(
        radii=radii,
        samples_per_circle=args.samples,
        fmt="csv" if args.csv else "svg",
    )
    # Every curve is evaluated and checked before the output is opened, so a
    # curve that overflows writes no file.
    _write_output(plot_blocks(m, spec), args.out)
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
    alpha, params = None, {}
    if args.alpha_im is not None and args.alpha_re is None:
        raise argparse.ArgumentTypeError("--alpha-im needs --alpha")
    if args.alpha_re is not None:
        if "alpha" not in CATALOG_PARAMS[name]:
            raise argparse.ArgumentTypeError(f"catalog entry {name!r} takes no --alpha")
        alpha = complex(args.alpha_re, args.alpha_im or 0.0)
        params["alpha"] = [alpha.real, alpha.imag] if alpha.imag else alpha.real
    m = catalog(name, p=p, alpha=alpha, order=_order(args.truncation, "--truncation"))
    doc = MapDocument(
        lam=lam,
        truncation=m.truncation_order,
        signed_form=m.signed_form,
        catalog_name=name,
        catalog_params=params,
    )
    _write_output([emit_map_document(doc)], args.out)
    return 0


# ------------------------------------------------------------------- parser


def _grid_arguments(parser: argparse.ArgumentParser) -> None:
    """--grid and --eps, whose defaults give ``GridSpec()``."""
    g = GridSpec()
    grid = f"{g.r_min!r},{g.r_max!r},{g.n_radii},{g.n_angles}"
    parser.add_argument("--grid", default=grid, help="r_min,r_max,n_r,n_theta")
    parser.add_argument("--eps", type=float, default=g.margin_eps, help="strict-inequality margin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralmaps",
        description="Verify, construct, and plot spirallike harmonic mappings of the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run every applicable check on a map file")
    pv.add_argument("file")
    _grid_arguments(pv)
    pv.set_defaults(func=_cmd_verify, parser=pv)

    pw = sub.add_parser("weights", help="print the weight table for one angle")
    pw.add_argument("--lambda", dest="lam", type=float, required=True)
    pw.add_argument("--n", type=int, required=True)
    pw.set_defaults(func=_cmd_weights, parser=pw)

    pc = sub.add_parser("construct", help="build a map and write it as a map file")
    builders = pc.add_subparsers(dest="builder", required=True)
    pe, pb, pm, pt, pf = (builders.add_parser(name, allow_abbrev=False) for name in (
        "extremal", "combo", "multiplier", "power-transform", "f-epsilon"))
    for b in (pe, pb, pm, pt, pf):
        b.add_argument("--lambda", dest="lam", type=float, required=b not in (pm, pf))
        b.add_argument("--out", default=None, help="output path (default stdout)")
        b.set_defaults(func=_cmd_construct, parser=b)
    for b in (pe, pb, pt):
        b.add_argument("--truncation", type=int, default=None)
    for b in (pm, pf):
        b.add_argument("--from", dest="from_file", help="input map file")
    pe.add_argument("--x", action="append", help="extremal weight n=re[,im]")
    pe.add_argument("--y", action="append", help="extremal weight n=re[,im]")
    pb.add_argument("--X", action="append", help="combination weight n=w")
    pb.add_argument("--Y", action="append", help="combination weight n=w")
    pb.add_argument("--sign", type=int, choices=[-1, 1], default=1)
    multipliers = pm.add_mutually_exclusive_group()
    multipliers.add_argument("--dn-max", action="store_true", help="use d_n = n B/A_n")
    multipliers.add_argument("--d", action="append", help="multiplier n=re[,im]")
    pt.add_argument("--g", default="koebe", help="transform input: catalog name or file")
    pt.add_argument("--orientation", type=int, choices=[-1, 1], default=1)
    pf.add_argument("--n-eps", type=int, default=64)
    _grid_arguments(pf)

    pp = sub.add_parser("plot", help="render circle images as SVG or CSV")
    pp.add_argument("file")
    pp.add_argument("--radii", default=None, help="comma-separated radii in (0,1)")
    pp.add_argument("--samples", type=int, default=720)
    pp.add_argument("--csv", action="store_true", help="emit CSV instead of SVG")
    pp.add_argument("--out", default=None, help="output path (default stdout)")
    pp.set_defaults(func=_cmd_plot, parser=pp)

    pk = sub.add_parser("catalog", help="list or emit built-in example maps")
    ksub = pk.add_subparsers(dest="action", required=True)
    kl = ksub.add_parser("list")
    kl.set_defaults(func=_cmd_catalog, action="list", parser=kl)
    ke = ksub.add_parser("emit")
    ke.add_argument("name")
    ke.add_argument("--lambda", dest="lam", type=float, default=None)
    ke.add_argument("--alpha", dest="alpha_re", type=float, default=None)
    ke.add_argument("--alpha-im", dest="alpha_im", type=float, default=None)
    ke.add_argument("--truncation", type=int, default=None)
    ke.add_argument("--out", default=None)
    ke.set_defaults(func=_cmd_catalog, action="emit", parser=ke)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # argparse hands a subcommand's unknown options back to the top-level parser
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # The one place an error becomes an exit status: a failed computation
    # exits 1, any refused input or failed read or write exits 2.
    try:
        return args.func(args)
    except (ConstraintError, NearZeroError, NonFiniteOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAIL_EXIT
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
