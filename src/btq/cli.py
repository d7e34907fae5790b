"""Command-line front door.

Subcommands: thm1, thm2, thm3, tuynman, coherent, crosscheck, calibrate.
Exit codes: 0 = run completed with all declared assertions passing;
1 = assertions failed (the report is still written); 2 = usage or expression
error (including coefficients above symbols.COEFF_L1_BOUND and nesting above
symbols.MAX_NESTING_DEPTH) or an unwritable --out path; 3 = capacity
error (a level above the level cap, hilbert.MAX_LEVEL or a lower
--max-level, refused before any rule or table is built, or a product, a
power or a thm2/thm3 pair's summed degree above symbols.MAX_SYMBOL_DEGREE),
UnderResolvedRuleError (a basis table that fails its Gram self-test, or a
real symbol whose T_f fails the hermiticity check) or CalibrationError.

Every experiment uses the signs geometry.POISSON_CONSTANT and LAPLACE_SIGN
and reads or writes no file but --out.  `btq calibrate` measures two
identities exact at every level with each sign and its opposite, prints the
defects and writes nothing; it exits 3 unless only the built-in signs hold
them (calibration.calibrate).  All numeric output uses
shortest round-trip decimals and files are written atomically, so runs with the
same configuration are byte-reproducible under 1 and 2 BLAS threads alike:
assembly makes no BLAS call, and norms.operator_norm calls LAPACK eigvalsh
only on matrices of at most norms.WINDOW_ROWS rows, where its bytes do not
change with the thread count.

`python -m btq.cli` and the `btq` console script call `run`, which freezes
the heap after `main` returns, so the interpreter's exit skips the garbage
collector's passes over it; `main` itself, which tests call in process,
never freezes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile

from . import calibration, lab
from .errors import (CalibrationError, CapacityError, SymbolParseError,
                     UnderResolvedRuleError)
from .hilbert import MAX_LEVEL
from .symbols import COEFF_L1_BOUND, MAX_SYMBOL_DEGREE, parse

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
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--max-level", type=int, default=MAX_LEVEL,
                        help=f"a lower level cap (default and highest: {MAX_LEVEL})")

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
    sub.add_parser("calibrate", help="check the sign conventions by measurement")
    return p


def atomic_write(path, payload):
    """Write bytes to path through a temp file in the same directory and a
    rename, so readers see the old file or the new one, never a part."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".btq_")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:  # name the destination, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(report, args):
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        atomic_write(args.out, text.encode())
    else:
        sys.stdout.write(text)


def _levels(args):
    levels = _int_list(args.levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
        raise UsageError("--levels must be strictly increasing and >= 1")
    cap = min(args.max_level, MAX_LEVEL)
    if levels[-1] > cap:
        raise CapacityError(f"level {levels[-1]} exceeds the level cap {cap}")
    return levels


def _run_calibrate():
    defects = calibration.calibrate()
    print(f"defect at m = {calibration.LEVEL}: built-in sign, opposite sign")
    for name, (built_in, opposite) in defects.items():
        print(f"  {name}: {built_in!r}, {opposite!r}")
    return EXIT_OK


def _dispatch(args):
    if args.experiment == "calibrate":
        return _run_calibrate()

    levels = _levels(args)  # refused before any rule or table is built
    f = parse(args.f)
    g = parse(args.g) if "g" in args else None  # only thm2 and thm3 define --g
    if g is not None and f.coeff_l1() * g.coeff_l1() > COEFF_L1_BOUND:
        raise UsageError("--f and --g: the product of their coefficient l1 "
                         f"norms exceeds {COEFF_L1_BOUND:g}")
    if g is not None and f.degree + g.degree > MAX_SYMBOL_DEGREE:
        raise CapacityError(f"--f and --g: degrees {f.degree} + {g.degree} "
                            f"exceed the symbol degree cap {MAX_SYMBOL_DEGREE}")

    if args.experiment == "thm1":
        report = lab.thm1_run(f, levels)
    elif args.experiment == "thm2":
        report = lab.thm2_run(f, g, levels)
    elif args.experiment == "thm3":
        reports = lab.thm3_run(f, g, levels)
        report = reports[args.order]
    elif args.experiment == "tuynman":
        report = lab.tuynman_run(f, levels)
    elif args.experiment == "coherent":
        report = lab.coherent_run(f, None, levels)
    elif args.experiment == "crosscheck":
        report = lab.crosscheck_run(f, levels)
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
    except (CapacityError, UnderResolvedRuleError) as exc:
        print(f"btq: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CalibrationError as exc:
        print(f"btq: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:  # an unwritable --out path
        print(f"btq: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None):
    """`main`, then `gc.freeze()`: the process is about to exit."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
