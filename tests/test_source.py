"""Properties of the package source itself, not of its numbers."""

import subprocess
import sys
import tokenize
from pathlib import Path

from btq import extrema, norms, operators, symbols
from conftest import _fresh_env

SRC = Path(__file__).resolve().parents[1] / "src" / "btq"

# CPython's parser doubles its token array when a module passes 4096 tokens.
# Compiling a module just past that step measured about 0.25 MB more
# tracemalloc peak in compile() than just below it (1.48 -> 1.71 MB), and a
# process that compiles src/ at import pays it in its peak RSS.  The bound
# leaves a margin below the step.
TOKEN_BOUND = 4000


def _code_tokens(path):
    with open(path, "rb") as fh:
        return [t for t in tokenize.tokenize(fh.readline)
                if t.type not in (tokenize.COMMENT, tokenize.NL)]


def test_every_module_stays_below_the_parser_token_step():
    sizes = {path.name: len(_code_tokens(path)) for path in sorted(SRC.glob("*.py"))}
    assert "operators.py" in sizes and "symbols.py" in sizes
    over = {name: n for name, n in sizes.items() if n >= TOKEN_BOUND}
    assert not over, over


def test_symbols_re_exports_the_sup_norm_search():
    # the search lives in `extrema`; `symbols` binds the same functions, so
    # `symbols.grid_extrema` callers and wrappers reach the one object.  Its
    # constants are read (and patched) in `extrema` only
    for name in ("grid_extrema", "sup_norm", "sup_norm_argmax"):
        assert getattr(symbols, name) is getattr(extrema, name)
    assert not hasattr(symbols, "GRID_RESOLUTION")
    # `extrema` imports `eval_ambient` from `symbols`, which binds the search
    # at its end: the same object whichever module a fresh interpreter
    # imports first
    check = "import btq.extrema, btq.symbols as s; assert s.grid_extrema is btq.extrema.grid_extrema"
    for first in ("btq.extrema", "btq.symbols", "btq.cli"):
        proc = subprocess.run([sys.executable, "-c", f"import {first}; {check}"],
                              env=_fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (first, proc.stderr)


def test_operators_re_exports_the_norms():
    # the norms live in `norms`; `operators` binds the same objects, so
    # `operators.operator_norm` callers and wrappers reach the one function.
    # Patch constants in `norms`: a patch of the `operators` binding reaches
    # no norm
    for name in ("operator_norm", "_band_radius", "_band_inertia", "DENSE_NORM_ROWS"):
        assert getattr(operators, name) is getattr(norms, name)
    check = ("import btq.norms, btq.operators as o; "
             "assert o.operator_norm is btq.norms.operator_norm")
    for first in ("btq.norms", "btq.operators", "btq.cli"):
        proc = subprocess.run([sys.executable, "-c", f"import {first}; {check}"],
                              env=_fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (first, proc.stderr)
