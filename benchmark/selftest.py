"""Self-tests of the benchmark harness (about 40 s).

    python3 -m pytest -q benchmark/selftest.py

Not collected by the repository's own test run: the file name does not
match `test_*.py`, and two tests run whole traced workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The traced wall time outside every wrapped function: the runner's own code
# (where an unwrapped hot btq function would land) as a share of it, and
# interpreter start, import and exit per process (about 0.2 s on 2 cores).
RUNNER_SHARE = 0.05
PROCESS_S = 0.5


def _btq_namespaces():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "btq" or name.startswith("btq."))}


def test_every_binding_is_patched_and_restored():
    import btq.cli  # noqa: F401

    originals = {}
    for module, funcs in tracing.WRAPPED.items():
        for func in funcs:
            originals[id(getattr(sys.modules[f"btq.{module}"], func))] = func
    tracer = tracing.Tracer()
    patched = set(tracer.install())
    try:
        for name, mod in _btq_namespaces().items():
            for attr, value in vars(mod).items():
                assert id(value) not in originals, f"{name}.{attr} left unwrapped"
        # names bound by `from .x import y` in the modules that call them
        expected = {
            "btq": ["toeplitz", "operator_norm", "parse", "calibrate", "thm1_run"],
            "btq.lab": ["toeplitz", "toeplitz_exact", "kernel_matrix", "prequantum",
                        "tuynman_rhs", "operator_norm", "commutator",
                        "basis_eval_grid", "make_rule", "multiply",
                        "poisson_bracket", "c1_candidate", "fit_rate"],
            "btq.calibration": ["toeplitz", "prequantum", "tuynman_rhs",
                                "operator_norm", "commutator", "poisson_bracket"],
            "btq.operators": ["basis_eval_grid", "make_rule", "laplace_beltrami",
                              "operator_norm"],
            "btq.cli": ["parse"],
        }
        for ns, names in expected.items():
            for attr in names:
                assert (ns, attr) in patched
                assert getattr(sys.modules[ns], attr).__wrapped_by_tracer__
    finally:
        tracer.uninstall()
    for name, mod in _btq_namespaces().items():
        for attr, value in vars(mod).items():
            assert not getattr(value, "__wrapped_by_tracer__", False), \
                f"{name}.{attr} not restored"


def test_self_times_partition_a_span_tree():
    import btq

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(tracing.ROOT)
        btq.operator_norm(btq.toeplitz(btq.parse("x3"), 8))
        tracer.end()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [rec[0] for rec in spans]
    assert names == [tracing.ROOT, "symbols.parse", "operators.toeplitz",
                     "geometry.make_rule", "hilbert.basis_eval_grid",
                     "operators.operator_norm.hermitian"]
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], abs=1e-9)
    assert spans[3][3] == 2 and spans[4][3] == 2  # children of toeplitz
    assert [rec[5] for rec in spans[2:]] == [8, 8, 8, 8]


def _traced(workload, tmp_path):
    result = run.run(workload, seed=7, seconds=0, trace=1, workdir=tmp_path)
    assert not [op.cause for p in result["passes"] for op in p.ops if op.wrong_output]
    assert not run.reproducibility_problems(result["passes"])
    metrics, traced_wall = run.per_layer(result)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    # spans nest: no self time is negative, and each process, timed by the
    # harness, outlasts its root span, timed inside it
    processes = run.traced_processes(result)
    for wall, payload in processes:
        spans = payload["spans"]
        assert spans[0][0] == tracing.ROOT and spans[0][2] - spans[0][1] <= wall
        assert min(tracing.self_times(spans)) >= -1e-9
    # the wrapped layers' self times account for the rest of the traced wall
    assert metrics["runner.self_s"] <= RUNNER_SHARE * traced_wall
    assert metrics["cli.process_s"] <= PROCESS_S * len(processes)
    return metrics, traced_wall


def test_star_product_is_general_norm_bound(tmp_path):
    metrics, wall = _traced("star-product", tmp_path)
    assert metrics["operators.operator_norm.general.self_s"] > 0.9 * wall
    assert metrics["symbols.grid_extrema.self_s"] < 0.01 * wall


def test_small_many_has_no_general_norm(tmp_path):
    metrics, wall = _traced("small-many", tmp_path)
    assert metrics["operators.operator_norm.general.calls"] == 0
    # one per symbol and level, plus the traced setup's calibration
    assert metrics["operators.operator_norm.hermitian.calls"] >= \
        len(workloads.SMALL_LEVELS) * workloads.SMALL_MANY_SYMBOLS
    layer = {k: v for k, v in metrics.items()
             if k.endswith(".self_s") and k not in ("runner.self_s",)}
    assert max(layer, key=layer.get) == "symbols.grid_extrema.self_s"


def test_symbols_are_fixed_by_the_seed():
    import btq

    a, b = workloads.random_symbols(3), workloads.random_symbols(3)
    assert a == b and workloads.symbols_hash(a) == workloads.symbols_hash(b)
    assert a != workloads.random_symbols(4)
    degrees = {btq.parse(e).degree for s in range(5) for e in workloads.random_symbols(s)}
    assert degrees <= set(range(1, 7)) and len(degrees) == 6


def test_report_checks_reject_wrong_numbers():
    op = workloads.README[0]  # thm1 x3, CSV
    rows = ["m,hbar,measured,reference,gap"]
    for m in op.levels:
        rows.append(f"{m},{1 / m!r},{m / (m + 2)!r},1.0,{2 / (m + 2)!r}")
    good = ("\n".join(rows) + "\n").encode()
    assert workloads.check_report(op, good) == []
    bad = good.replace(b"0.8,", b"0.8000001,")
    assert workloads.check_report(op, bad)
    dropped = ("\n".join(rows[:-1]) + "\n").encode()
    assert "report levels" in workloads.check_report(op, dropped)[0]
    no_m = good.replace(b"m,hbar", b"n,hbar")
    thm2 = workloads.README[1]  # JSON report
    null = json.dumps({"rows": [{"m": m, "measured": None} for m in thm2.levels],
                       "checks": []}).encode()
    for o, data in ((op, no_m), (thm2, b'{"checks": []}'), (thm2, null)):
        assert workloads.check_report(o, data)[0].startswith("malformed report")


def test_failure_causes_are_classified():
    mem = ("Traceback (most recent call last):\n  ...\nnumpy._core._exceptions."
           "_ArrayMemoryError: Unable to allocate 1.02 GiB\n")
    assert run.failure_cause(1, mem).startswith("memory: numpy")
    assert run.failure_cause(3, "btq: basis table would exceed the memory cap\n") \
        == "exit 3: btq: basis table would exceed the memory cap"
    assert run.failure_cause(1, "btq: 1 assertion(s) failed: x\n").startswith("assertion")
    assert run.failure_cause(None, "") == "timeout"
    assert run.failure_cause(-9, "") == "signal SIGKILL"


def test_end_to_end_metrics_match_the_declaration():
    p = run.PassResult(ops=[run.OpResult("a", 8, 1.0, 10.0)])
    s = run.OpResult("setup", 0, 0.5, 30.0)
    metrics, attempted, failed = run.end_to_end({"passes": [p], "setups": [s]})
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert (attempted, failed) == (1, 0)


def test_max_level_ok_stops_at_first_failing_level():
    p = run.PassResult(ops=[run.OpResult("a", 128, 1.0, 1.0),
                            run.OpResult("b", 256, 1.0, 1.0, cause="exception"),
                            run.OpResult("c", 512, 1.0, 1.0)])
    assert p.max_level_ok() == 128
    assert p.wall_s() == 2.0 + run.OP_TIME_LIMIT_S
    assert p.peak_rss_mb() == run.OP_MEMORY_MB
    assert p.verified() == (2.0, 1.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "readme", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
