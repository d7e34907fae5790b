"""Command-line front door.

Subcommands: thm1, thm2, thm3, tuynman, coherent, crosscheck, calibrate.
Exit codes: 0 = run completed with all declared assertions passing;
1 = assertions failed (the report is still written); 2 = usage or
expression error (including coefficients above symbols.COEFF_L1_BOUND);
3 = capacity error, quadrature rule too weak for a requested level
(UnderResolvedRuleError) or corrupted conventions ledger.

Experiments refuse to run without a conventions ledger (see `btq calibrate`)
unless --auto-calibrate is given.  BTQ_LEDGER overrides the ledger path.
All numeric output uses shortest round-trip decimals and files are written
atomically, so runs with the same configuration are byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import calibration, lab
from .errors import (CalibrationError, CapacityError, LedgerError,
                     SymbolParseError, UnderResolvedRuleError)
from .symbols import COEFF_L1_BOUND, parse, sup_norm_argmax

DEFAULT_MAX_LEVEL = 256
DEFAULT_LEVELS = "8,16,32,64"

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class UsageError(Exception):
    pass


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="btq",
        description="Berezin-Toeplitz quantization experiments on the sphere")
    sub = p.add_subparsers(dest="experiment", required=True)

    def common(sp, needs_g=False):
        sp.add_argument("--f", required=True, help="symbol expression, e.g. 'x3'")
        if needs_g:
            sp.add_argument("--g", required=True, help="second symbol expression")
        sp.add_argument("--levels", default=DEFAULT_LEVELS,
                        help="comma-separated strictly increasing levels")
        sp.add_argument("--window", default=None,
                        help="fit window, a subset of --levels")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--margin", type=int, default=0,
                        help="extra exactness degree for the radial Gauss rule "
                             "(adds radial nodes)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--auto-calibrate", action="store_true",
                        help="write the conventions ledger if it is missing")
        sp.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)

    common(sub.add_parser("thm1", help="sup-norm limit of ||T_f||"))
    common(sub.add_parser("thm2", help="commutator vs Poisson bracket"), needs_g=True)
    sp3 = sub.add_parser("thm3", help="star-product residuals")
    common(sp3, needs_g=True)
    sp3.add_argument("--order", type=int, choices=(1, 2), default=2,
                     help="which residual order to report")
    common(sub.add_parser("tuynman", help="geometric vs Toeplitz quantization"))
    common(sub.add_parser("coherent",
                          help="coherent-state expectations at the |f| maximizer"))
    common(sub.add_parser("crosscheck", help="three-path Toeplitz agreement"))
    spc = sub.add_parser("calibrate", help="measure and freeze sign conventions")
    spc.add_argument("--force", action="store_true",
                     help="overwrite a corrupted ledger")
    return p


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".btq_out_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report, args):
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _levels(args):
    levels = _int_list(args.levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
        raise UsageError("--levels must be strictly increasing and >= 1")
    if levels[-1] > args.max_level:
        raise CapacityError(
            f"level {levels[-1]} exceeds --max-level {args.max_level}")
    window = None
    if args.window is not None:
        window = _int_list(args.window)
        if not set(window) <= set(levels):
            raise UsageError("--window must be a subset of --levels")
    return levels, window


def _conventions(args):
    path = calibration.ledger_path()
    if os.path.exists(path):
        return calibration.load_ledger(path)
    if not args.auto_calibrate:
        raise UsageError(
            f"no conventions ledger at {path}; run `btq calibrate` first "
            "or pass --auto-calibrate")
    conv, diag = calibration.calibrate()
    calibration.write_ledger(path, conv, diag)
    print(f"calibrated conventions written to {path}", file=sys.stderr)
    return conv


def _run_calibrate(args):
    path = calibration.ledger_path()
    if os.path.exists(path) and not args.force:
        try:
            calibration.load_ledger(path)
        except LedgerError as exc:
            print(f"btq: {exc}\nbtq: delete the ledger or rerun with --force",
                  file=sys.stderr)
            return EXIT_CAPACITY
    conv, diag = calibration.calibrate()
    calibration.write_ledger(path, conv, diag)
    print(f"conventions ledger written to {path}")
    print(f"  poisson_constant = {conv.poisson_constant!r}")
    print(f"  laplace_sign     = {conv.laplace_sign} "
          f"(scale {conv.laplace_scale!r})")
    return EXIT_OK


def _dispatch(args):
    if args.experiment == "calibrate":
        return _run_calibrate(args)

    conv = _conventions(args)
    levels, window = _levels(args)
    if args.margin < 0:
        raise UsageError("--margin must be >= 0")
    f = parse(args.f)
    g = parse(args.g) if args.experiment in ("thm2", "thm3") else None
    if g is not None and f.coeff_l1() * g.coeff_l1() > COEFF_L1_BOUND:
        raise UsageError("--f and --g: the product of their coefficient l1 "
                         f"norms exceeds {COEFF_L1_BOUND:g}")
    kw = dict(window=window, conventions=conv, margin=args.margin,
              seed=args.seed)

    if args.experiment == "thm1":
        report = lab.thm1_run(f, levels, **kw)
    elif args.experiment == "thm2":
        report = lab.thm2_run(f, g, levels, **kw)
    elif args.experiment == "thm3":
        reports = lab.thm3_run(f, g, levels, **kw)
        report = reports[args.order]
    elif args.experiment == "tuynman":
        kw.pop("window")
        report = lab.tuynman_run(f, levels, **kw)
    elif args.experiment == "coherent":
        _, x0 = sup_norm_argmax(f)
        report = lab.coherent_run(f, x0, levels, **kw)
    elif args.experiment == "crosscheck":
        kw.pop("window")
        report = lab.crosscheck_run(f, levels, **kw)
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown experiment {args.experiment}")

    _emit(report, args)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"btq: {len(failed)} assertion(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _dispatch(args)
    except SymbolParseError as exc:
        print(f"btq: expression error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"btq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, LedgerError, UnderResolvedRuleError) as exc:
        hint = "; rerun `btq calibrate`" if isinstance(exc, LedgerError) else ""
        print(f"btq: {exc}{hint}", file=sys.stderr)
        return EXIT_CAPACITY
    except CalibrationError as exc:
        print(f"btq: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
