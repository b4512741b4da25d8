"""Command-line entry point.

Subcommands
-----------
measure build|derive     construct or perturb a 1-D measure (JSON out)
profile iso|conc         tabulate a profile (CSV out, optional SVG)
transport w1|wc|divergence   costs and divergences between two measures
constants all            estimated constants report for one measure (JSON)
verify <suite...|all>    run verification suites; exit 1 on failure
plot <profile.csv>       render a profile CSV as a plain SVG polyline

Numeric CSV output carries 12 significant digits; pipelines are
deterministic for a fixed seed and grid (fixed reduction order), so two
runs with the same flags produce byte-identical artifacts.  verify runs
its suites in up to min(--jobs, CPU count, number of suites) worker
processes, in-process for one (CONC_TOOLKIT_JOBS overrides --jobs), and
writes byte-identical reports for any jobs value.  Bad input, including a
file that cannot be read or written, exits 2 with one "error:" line; exit 1
means only that a suite failed.

Every vectorized evaluator behind these commands keeps one array
contract: a scalar argument gives a float, an array-like argument an
array of the same shape.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .costs import CostSpec
from .errors import ToolkitError
from .functional import logsob_constant_1d, poincare_constant_1d
from .measures import Measure1D, build_measure_1d, derive_measure
from .profiles import (
    conc_profile,
    fit_constant,
    iso_profile_1d,
    profile_from_csv,
    profile_to_csv,
    profile_to_svg,
)
from .reports import ConstantsReport
from .suites import SUITE_IDS, run_suites
from .transport import (
    divergences,
    first_moment_constant,
    w1_1d,
    wc_monotone_1d,
)


def _add_measure_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", help="measure JSON file")
    parser.add_argument("--preset", choices=["gamma_p", "gaussian_restricted"])
    parser.add_argument("--p", type=float, help="exponent for gamma_p")
    parser.add_argument("--a", type=float, default=0.0,
                        help="left endpoint for gaussian_restricted")
    parser.add_argument("--half-width", type=float, default=None)
    parser.add_argument("--grid-points", type=int, default=4096)


def _load_measure(args) -> Measure1D:
    if args.measure:
        return Measure1D.load(args.measure)
    if args.preset:
        return build_measure_1d(preset=args.preset, p=args.p, a=args.a,
                                half_width=args.half_width,
                                n_points=args.grid_points)
    raise ToolkitError("provide --measure FILE or --preset NAME")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conc-toolkit",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")

    m = sub.add_parser("measure", help="build or derive measures")
    msub = m.add_subparsers(dest="subcommand")
    mb = msub.add_parser("build")
    _add_measure_source(mb)
    mb.add_argument("--out", required=True)
    md = msub.add_parser("derive")
    md.add_argument("--in", dest="inp", required=True)
    md.add_argument("--mode", required=True,
                    choices=["density-ratio", "restrict", "translate"])
    md.add_argument("--phi", help="CSV of node values for density-ratio")
    md.add_argument("--cap", type=float, help="log-ratio cap D")
    md.add_argument("--lo", type=float, default=-math.inf)
    md.add_argument("--hi", type=float, default=math.inf)
    md.add_argument("--t", type=float, help="translation")
    md.add_argument("--out", required=True)

    pr = sub.add_parser("profile", help="tabulate profiles")
    psub = pr.add_subparsers(dest="subcommand")
    for kind in ("iso", "conc"):
        pp = psub.add_parser(kind)
        _add_measure_source(pp)
        pp.add_argument("--out", required=True)
        pp.add_argument("--svg", help="also render an SVG plot")
        if kind == "conc":
            pp.add_argument("--r-max", type=float, default=None)

    t = sub.add_parser("transport", help="transport costs and divergences")
    tsub = t.add_subparsers(dest="subcommand")
    for name in ("w1", "wc", "divergence"):
        tp = tsub.add_parser(name)
        tp.add_argument("--a", dest="file_a", required=True)
        tp.add_argument("--b", dest="file_b", required=True)
        if name == "wc":
            tp.add_argument("--p", type=float, default=2.0)
            tp.add_argument("--scale", type=float, default=1.0)

    c = sub.add_parser("constants", help="estimated constants report")
    csub = c.add_subparsers(dest="subcommand")
    ca = csub.add_parser("all")
    _add_measure_source(ca)
    ca.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suites", nargs="+",
                   help=f"suite ids or 'all'; known: {', '.join(SUITE_IDS)}")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="directory for JSON reports")
    v.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes, at most one per CPU and per suite; "
                        "1 runs in-process (CONC_TOOLKIT_JOBS overrides)")

    pl = sub.add_parser("plot", help="render a profile CSV as SVG")
    pl.add_argument("csv")
    pl.add_argument("--out", required=True)
    return ap


def _cmd_measure(args) -> int:
    if args.subcommand == "build":
        mu = _load_measure(args)
        mu.save(args.out)
        print(f"wrote {args.out} (logZ = {mu.log_z:.12g}, "
              f"logconcave = {mu.logconcave}, kappa = {mu.kappa:.6g})")
        return 0
    if args.subcommand == "derive":
        needs = {"density-ratio": ("phi", "cap"), "translate": ("t",)}
        missing = " and ".join(f"--{k}" for k in needs.get(args.mode, ())
                               if getattr(args, k) is None)
        if missing:
            raise ToolkitError(f"--mode {args.mode} requires {missing}")
        mu1 = Measure1D.load(args.inp)
        if args.mode == "density-ratio":
            try:
                phi = np.loadtxt(args.phi, delimiter=",")
            except (OSError, ValueError) as exc:
                raise ToolkitError(f"cannot read --phi {args.phi}: {exc}") from None
            mu2 = derive_measure(mu1, "density-ratio", phi=phi, cap=args.cap)
        elif args.mode == "restrict":
            mu2 = derive_measure(mu1, "restrict", a=args.lo, b=args.hi)
        else:
            mu2 = derive_measure(mu1, "translate", t=args.t)
        mu2.save(args.out)
        print(f"wrote {args.out}")
        return 0
    raise ToolkitError("measure needs a subcommand: build | derive")


def _cmd_profile(args) -> int:
    mu = _load_measure(args)
    if args.subcommand == "iso":
        prof = iso_profile_1d(mu)
    elif args.subcommand == "conc":
        r_grid = None
        if args.r_max is not None:
            if not math.isfinite(args.r_max):  # linspace would warn first
                raise ToolkitError(f"--r-max must be finite, got {args.r_max}")
            r_grid = np.linspace(0.0, args.r_max, 1025)
        prof = conc_profile(mu, r_grid=r_grid)
    else:
        raise ToolkitError("profile needs a subcommand: iso | conc")
    profile_to_csv(prof, args.out)
    print(f"wrote {args.out} ({prof.inputs.size} rows, {prof.exactness})")
    if args.svg:
        profile_to_svg(prof, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_transport(args) -> int:
    a = Measure1D.load(args.file_a)
    b = Measure1D.load(args.file_b)
    if args.subcommand == "w1":
        print(f"{w1_1d(a, b):.12g}")
    elif args.subcommand == "wc":
        val = wc_monotone_1d(a, b, CostSpec(args.p), args.scale)
        print(f"{val:.12g}")
    elif args.subcommand == "divergence":
        rep = divergences(a, b)
        print(json.dumps({"H(a|b)": rep.h_nu_mu, "H(b|a)": rep.h_mu_nu,
                          "d_TV": rep.d_tv}, sort_keys=True))
    else:
        raise ToolkitError("transport needs a subcommand: w1 | wc | divergence")
    return 0


def _cmd_constants(args) -> int:
    mu = _load_measure(args)
    report = ConstantsReport()
    report.add(poincare_constant_1d(mu))
    report.add(logsob_constant_1d(mu))
    report.add(first_moment_constant(mu))
    iso = iso_profile_1d(mu)
    report.add(fit_constant(
        iso, "ratio",
        reference=type(iso)(kind="iso", inputs=iso.inputs, values=iso.inputs),
        constant_id="D_Iso_1"))
    conc = conc_profile(mu)
    report.add(fit_constant(conc, "p-exp-conc", p=1.0, constant_id="D_Con_1"))
    report.save(args.out)
    print(f"wrote {args.out} ({len(report.entries)} entries)")
    return 0


def _cmd_verify(args) -> int:
    ids = list(SUITE_IDS) if "all" in args.suites else args.suites
    unknown = [s for s in ids if s not in SUITE_IDS]
    if unknown:
        raise ToolkitError(f"unknown suites: {unknown}")
    try:  # the environment variable overrides the flag
        jobs = int(os.environ.get("CONC_TOOLKIT_JOBS", args.jobs))
    except ValueError as exc:
        raise ToolkitError(
            f"CONC_TOOLKIT_JOBS must be a positive integer ({exc})") from None
    reports = run_suites(ids, seed=args.seed, jobs=jobs)
    all_ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {rep.suite_id}: {json.dumps(rep.summary, sort_keys=True, default=str)}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            rep.save(os.path.join(args.out, f"{rep.suite_id}.json"))
        all_ok = all_ok and rep.passed
    return 0 if all_ok else 1


def _cmd_plot(args) -> int:
    prof = profile_from_csv(args.csv, kind="iso")
    profile_to_svg(prof, args.out)
    print(f"wrote {args.out}")
    return 0


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        if args.command == "measure":
            return _cmd_measure(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "transport":
            return _cmd_transport(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "plot":
            return _cmd_plot(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file named on the command line
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    parser.print_usage()
    return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
