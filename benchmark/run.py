"""btq benchmark: end-to-end and per-layer numbers for four workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; btq is imported from `src/` of that
checkout, nothing is installed.  Operations run one at a time (closed loop,
one client), each in a fresh process under a per-operation time limit and
address-space cap, with BLAS/OpenMP threads pinned to one.

`--trace 0` repeats setup and passes of the workload for S seconds and
prints the end-to-end metrics (medians over passes and setups).  `--trace 1`
runs one untraced pass and one traced pass (same processes, btq functions
wrapped from `child.py`) and prints the per-layer metrics.  Every report is
checked against closed forms; the last stdout line is the JSON result.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

OP_TIME_LIMIT_S = 60.0  # per operation; a failed operation is charged this
OP_MEMORY_BYTES = 3 << 30  # RLIMIT_AS of every operation process
OP_MEMORY_MB = OP_MEMORY_BYTES / 2**20  # ... and this is its charged peak RSS
RUN_BUDGET_S = 165.0  # a run stops starting work after this
MIN_SETUPS = 5
BUDGET_REFUSAL = "refused: run budget exhausted"
# One BLAS thread (<= nproc): toeplitz assembly asks for one thread per chunk
# through threadpoolctl, a silent no-op when that is not installed, and a
# single thread gives steadier timings on a small shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class OpResult:
    op_id: str
    level: int
    real_s: float
    rss_mb: float
    cause: str = None  # None: completed and verified
    wrong_output: bool = False  # failed a check on a report it emitted
    sha256: str = None
    spans: dict = None

    @property
    def ok(self):
        return self.cause is None

    # A failed or refused operation is charged the limits it missed, so that a
    # fix that lets it run never reads as a slowdown or a memory regression.
    def charged_s(self):
        return self.real_s if self.ok else OP_TIME_LIMIT_S

    def charged_rss_mb(self):
        return self.rss_mb if self.ok else OP_MEMORY_MB


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    process_wall_s: float = 0.0  # summed wall time of the operation processes
    outside_ops_s: float = 0.0  # small-many: process time outside operations
    digest: str = None  # small-many: sha256 of every computed value

    def wall_s(self):
        return self.outside_ops_s + sum(op.charged_s() for op in self.ops)

    def peak_rss_mb(self):
        return max(op.charged_rss_mb() for op in self.ops)

    def verified(self):
        """Real seconds and largest peak RSS of the verified operations."""
        ok = [op for op in self.ops if op.ok]
        return (sum(op.real_s for op in ok),
                max((op.rss_mb for op in ok), default=0.0))

    def max_level_ok(self):
        """Highest level at which every operation up to that level verified."""
        best = 0
        for level in sorted({op.level for op in self.ops}):
            if not all(op.ok for op in self.ops if op.level <= level):
                break
            best = level
        return best


class Runner:
    """Launches operation processes for one benchmark run."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self._seq = 0

    def opdir(self, name):
        self._seq += 1
        d = self.workdir / f"{self._seq:04d}-{name}"
        d.mkdir(parents=True)
        return d

    def launch(self, argv, cwd, ledger):
        """Run one operation process; (exit code or None on timeout, wall s,
        peak RSS MB of that process alone, stdout bytes, stderr text)."""
        timeout = min(OP_TIME_LIMIT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, 0.0, 0.0, b"", BUDGET_REFUSAL
        env = dict(self.env, BTQ_LEDGER=str(ledger))
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, preexec_fn=_limit_child)
            box = {}

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                box.update(t=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            try:
                waiter.join(timeout)
            finally:  # also when the harness itself is interrupted
                # not is_alive(): an interrupted join() can mark the thread stopped
                timed_out = "status" not in box
                if timed_out:
                    os.kill(proc.pid, signal.SIGKILL)
                    while "status" not in box:  # the waiter reaps the killed child
                        time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
        wall = box["t"] - t0
        rss_mb = box["usage"].ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        stderr = (cwd / "stderr").read_text(errors="replace")
        code = None if timed_out else proc.returncode
        return code, wall, rss_mb, (cwd / "stdout").read_bytes(), stderr


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (OP_MEMORY_BYTES, OP_MEMORY_BYTES))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def failure_cause(code, stderr):
    """Why an operation process did not succeed, from its exit and stderr."""
    if code is None:
        return BUDGET_REFUSAL if stderr == BUDGET_REFUSAL else "timeout"
    if code < 0:
        return f"signal {signal.Signals(-code).name}"
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    last = lines[-1] if lines else ""
    if "Traceback (most recent call last)" in stderr:
        exc = last.split(":", 1)[0]
        kind = "memory" if "MemoryError" in exc else "exception"
        return f"{kind}: {last[:200]}"
    if "assertion(s) failed" in last:
        return f"assertion: {last[:200]}"
    return f"exit {code}: {last[:200]}"


# -- passes ---------------------------------------------------------------


def python_argv(traced, spans, op_id, mode_args):
    if traced:
        return [sys.executable, str(HERE / "child.py"), "--spans", str(spans),
                op_id] + mode_args
    if mode_args[0] == "cli":
        return [sys.executable, "-m", "btq.cli"] + mode_args[1:]
    return [sys.executable, str(HERE / "child.py")] + mode_args


def load_spans(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def setup(runner, traced=False):
    """Fresh interpreter: import btq and `btq calibrate` into an empty ledger."""
    d = runner.opdir("setup")
    ledger = d / "btq_conventions.json"
    spans = d / "spans.json"
    code, wall, rss, _, stderr = runner.launch(
        python_argv(traced, spans, "setup", ["cli", "calibrate"]), d, ledger)
    result = OpResult("setup", 0, wall, rss)
    if code != 0:
        result.cause = failure_cause(code, stderr)
    if traced:
        result.spans = load_spans(spans)
    return result, ledger


def cli_pass(runner, ops, ledger, traced, verified):
    res = PassResult()
    for op in ops:
        d = runner.opdir(op.op_id)
        spans = d / "spans.json"
        code, wall, rss, stdout, stderr = runner.launch(
            python_argv(traced, spans, op.op_id, ["cli", *op.argv]), d, ledger)
        r = OpResult(op.op_id, op.level, wall, rss)
        res.process_wall_s += wall
        if traced:
            r.spans = load_spans(spans)
        if code != 0:
            r.cause = failure_cause(code, stderr)
            r.wrong_output = r.cause.startswith("assertion")
        elif op.out and not (d / op.out).is_file():
            r.cause = f"check: exit 0 but no report at --out {op.out}"
            r.wrong_output = True
        else:
            data = (d / op.out).read_bytes() if op.out else stdout
            r.sha256 = hashlib.sha256(data).hexdigest()
            key = (op.op_id, r.sha256)
            if key not in verified:  # identical bytes verify identically
                verified[key] = workloads.check_report(op, data)
            if verified[key]:
                r.cause = "check: " + "; ".join(verified[key])[:400]
                r.wrong_output = True
        res.ops.append(r)
    return res


def small_many_pass(runner, exprs, ledger, traced):
    d = runner.opdir("small-many")
    job, results, spans = d / "job.json", d / "results.json", d / "spans.json"
    job.write_text(json.dumps({"exprs": exprs}))
    code, wall, rss, _, stderr = runner.launch(
        python_argv(traced, spans, "small-many",
                    ["small-many", str(job), str(results)]), d, ledger)
    res = PassResult(process_wall_s=wall)
    records = {}
    digest = None
    if code == 0:
        payload = json.loads(results.read_text())
        records = {rec["id"]: rec for rec in payload["ops"]}
        digest = payload["digest"]
    lost = failure_cause(code, stderr) if code != 0 else "not reported"
    for i in range(len(exprs)):
        for level in (0,) + workloads.SMALL_LEVELS:
            op_id = f"s{i}" if level == 0 else f"s{i}-m{level}"
            rec = records.get(op_id)
            r = OpResult(op_id, level, 0.0, rss)
            if rec is None:
                r.cause = lost
            else:
                r.real_s = rec["elapsed_s"]
                r.cause = rec["cause"]
                r.wrong_output = bool(r.cause and r.cause.startswith("check"))
            res.ops.append(r)
    # interpreter start, import, the loop's own checks and exit
    res.outside_ops_s = max(0.0, wall - sum(op.real_s for op in res.ops))
    if traced:
        res.ops[0].spans = load_spans(spans)
    res.digest = digest
    return res


# -- one run --------------------------------------------------------------


def run(workload, seed, seconds, trace, workdir):
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = Runner(workdir, deadline)
    exprs = workloads.random_symbols(seed) if workload == "small-many" else None
    verified = {}

    def one_pass(traced):
        s, ledger = setup(runner, traced)
        if workload == "small-many":
            p = small_many_pass(runner, exprs, ledger, traced)
        else:
            p = cli_pass(runner, workloads.CLI_WORKLOADS[workload], ledger, traced,
                         verified)
        if not s.ok:  # nothing of the pass can be trusted without its ledger
            for op in p.ops:
                op.cause = op.cause or f"setup failed: {s.cause}"
        return s, p

    setups, passes = [], []
    if trace:
        setups_u, untraced = one_pass(False)
        setup_t, traced = one_pass(True)
        setups, passes = [setups_u, setup_t], [untraced, traced]
    else:
        for _ in range(MIN_SETUPS - 1):
            setups.append(setup(runner)[0])
        t0 = time.monotonic()
        while True:
            s, p = one_pass(False)
            setups.append(s)
            passes.append(p)
            elapsed = time.monotonic() - t0
            last = p.process_wall_s + s.real_s
            if elapsed >= seconds or time.monotonic() + 1.5 * last > deadline:
                break
    return {"workload": workload, "seed": seed, "setups": setups,
            "passes": passes, "exprs": exprs}


def reproducibility_problems(passes):
    """Report bytes must repeat exactly across passes of the same code."""
    seen, problems = {}, []
    for p in passes:
        for op in p.ops:
            if op.sha256 is None:
                continue
            if seen.setdefault(op.op_id, op.sha256) != op.sha256:
                problems.append(f"{op.op_id}: report bytes differ between passes")
        if p.digest is not None and seen.setdefault("small-many", p.digest) != p.digest:
            problems.append("small-many: computed values differ between passes")
    return problems


def end_to_end(result):
    passes, setups = result["passes"], result["setups"]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if not op.ok)
    metrics = {
        "wall_s": (statistics.median(p.wall_s() for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb() for p in passes), "MB"),
        "setup_s": (statistics.median(s.real_s for s in setups), "s"),
        "ops_ok_frac": ((attempted - failed) / attempted, "fraction"),
        "max_level_ok": (statistics.median(p.max_level_ok() for p in passes), "m"),
    }
    return metrics, attempted, failed


def traced_processes(result):
    """(wall s, span payload or None) of each process of the traced pass."""
    traced = result["passes"][1]
    setup_t = result["setups"][1]
    out = [(setup_t.real_s, setup_t.spans)]
    if result["workload"] == "small-many":  # one process for the whole pass
        return out + [(traced.process_wall_s, traced.ops[0].spans)]
    return out + [(op.real_s, op.spans) for op in traced.ops]


def per_layer(result):
    untraced, traced = result["passes"]
    metrics = tracing.summarize(traced_processes(result))
    traced_wall = result["setups"][1].real_s + traced.process_wall_s
    untraced_wall = result["setups"][0].real_s + untraced.process_wall_s
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, traced_wall


def machine_facts():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no mode="dicts"
        blas = "unknown"
    try:
        import threadpoolctl  # noqa: F401
        tpc = True
    except ImportError:
        tpc = False
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "threadpoolctl_imports": tpc, "src_lines": lines,
            "op_time_limit_s": OP_TIME_LIMIT_S,
            "op_memory_bytes": OP_MEMORY_BYTES,
            "blas_threads": BLAS_THREADS}


def op_table(passes):
    rows = []
    for n, p in enumerate(passes):
        for op in p.ops:
            rows.append({"pass": n, "op": op.op_id, "level": op.level,
                         "real_s": op.real_s, "rss_mb": op.rss_mb, "ok": op.ok,
                         "cause": op.cause, "sha256": op.sha256})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "btq" / "__init__.py").is_file():
        print(f"benchmark: no btq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    base = ROOT / ".bench_work"
    workdir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    wrong = [f"{op.op_id}: {op.cause}" for p in passes for op in p.ops
             if op.wrong_output]
    wrong += [f"setup: {s.cause}" for s in result["setups"] if not s.ok]
    wrong += reproducibility_problems(passes)
    e2e, attempted, failed = end_to_end(result)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "facts": machine_facts(), "problems": wrong,
              "setups_s": [s.real_s for s in result["setups"]],
              "ops": op_table(passes)}
    if result["exprs"] is not None:
        detail["symbols"] = result["exprs"]
        detail["symbols_sha256"] = workloads.symbols_hash(result["exprs"])
    detail["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    detail["end_to_end"]["ops_failed_frac"] = failed / attempted
    # what the charged metrics hide while some operation fails
    verified = [p.verified() for p in passes]
    detail["verified_s"] = [v[0] for v in verified]
    detail["verified_peak_rss_mb"] = [v[1] for v in verified]

    if args.trace:
        layers, traced_wall = per_layer(result)
        detail["per_layer"] = layers
        detail["traced_wall_s"] = traced_wall
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        spans_out = [{"op": op.op_id, **op.spans} for op in
                     [result["setups"][1]] + passes[1].ops if op.spans]
        (base / f"spans-{args.workload}.json").write_text(json.dumps(spans_out))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    (base / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    _print_summary(detail, e2e, failed, attempted)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".m_exponent"):
        return "exponent"
    if name.endswith("_max"):
        return "max_abs"
    return "count"


def _print_summary(detail, e2e, failed, attempted):
    f = detail["facts"]
    print(f"# btq benchmark  workload={detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']}")
    print(f"# nproc={f['nproc']} python={f['python']} numpy={f['numpy']} "
          f"blas={f['blas']} threadpoolctl_imports={f['threadpoolctl_imports']} "
          f"src_lines={f['src_lines']} blas_threads={f['blas_threads']}")
    if "symbols_sha256" in detail:
        print(f"# symbols sha256={detail['symbols_sha256']}")
    for name, (value, unit) in e2e.items():
        print(f"{name:>16} {value:.6g} {unit}")
    print(f"{'ops_failed_frac':>16} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted})")
    for op in detail["ops"]:
        if not op["ok"]:
            print(f"  failed pass{op['pass']} {op['op']} (m={op['level']}): "
                  f"{op['cause']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM {problem}")
    if "per_layer" in detail:
        layers = detail["per_layer"]
        outside = layers["runner.self_s"] + layers["cli.process_s"]
        print(f"# traced wall {detail['traced_wall_s']:.3f} s, outside every "
              f"wrapped function {outside:.3f} s")
        for name, value in detail["per_layer"].items():
            if value:
                print(f"  {name} {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
