"""Properties of the package source itself, not of its numbers."""

import ast
import graphlib
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
    assert symbols.Symbol.__call__ is symbols.eval_ambient  # how `extrema` reads f
    # `symbols` imports the search at its top, and `extrema` imports nothing
    # from `symbols` (it calls the symbols it is given): the same object
    # whichever module a fresh interpreter imports first
    check = "import btq.extrema, btq.symbols as s; assert s.grid_extrema is btq.extrema.grid_extrema"
    for first in ("btq.extrema", "btq.symbols", "btq.cli"):
        proc = subprocess.run([sys.executable, "-c", f"import {first}; {check}"],
                              env=_fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (first, proc.stderr)


def test_operators_re_exports_the_norms():
    # the band algebra and the norms live in `norms`, which imports nothing
    # from btq; `operators` binds the same objects, so `operators.operator_norm`
    # callers and wrappers reach the one function.  It binds the band algebra
    # it calls and nothing else: read the Sturm count, the band radius and
    # the constants in `norms`
    for name in ("operator_norm", "_band_index", "_band_adjoint", "_band_product", "_dense"):
        assert getattr(operators, name) is getattr(norms, name)
    for name in ("_band_radius", "_band_inertia", "WINDOW_ROWS"):
        assert not hasattr(operators, name)
    check = ("import btq.norms, btq.operators as o; "
             "assert o.operator_norm is btq.norms.operator_norm")
    for first in ("btq.norms", "btq.operators", "btq.cli"):
        proc = subprocess.run([sys.executable, "-c", f"import {first}; {check}"],
                              env=_fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (first, proc.stderr)


# The names a module imports and never reads: each is a binding kept for the
# benchmark tracer, which wraps a function in every `btq` namespace that binds
# it (`benchmark/tracing.py` WRAPPED), and whose selftest expects these
# (`benchmark/selftest.py`).  `symbols` and `operators` are also the documented
# homes of the sup-norm search and of `operator_norm`.
PASS_THROUGH = {("lab", "make_rule"), ("lab", "basis_eval_grid"),
                ("operators", "operator_norm"), ("symbols", "grid_extrema"),
                ("symbols", "sup_norm"), ("symbols", "sup_norm_argmax")}


def _modules():
    """{module name: parsed source} for every module but the package's."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def test_intra_package_imports_form_no_cycle():
    graph = {}
    for name, tree in _modules().items():
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:  # from . / from .x
                graph[name] |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):  # none by absolute name
                names = [node.module] if isinstance(node, ast.ImportFrom) \
                    else [a.name for a in node.names]
                assert not any(n.split(".")[0] == "btq" for n in names), name
    assert set().union(*graph.values()) <= set(graph)
    assert graph["extrema"] == {"geometry"} and "extrema" in graph["symbols"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_imported_but_unused_names_are_the_tracers_pass_throughs():
    unused = set()
    for name, tree in _modules().items():
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        unused |= {(name, b) for b in bound - read}
    assert unused == PASS_THROUGH
