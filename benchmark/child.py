"""Operation process of the benchmark.

    python benchmark/child.py [--spans PATH OP_ID] cli ARG...
    python benchmark/child.py [--spans PATH OP_ID] small-many JOB.json RESULTS.json

`cli` calls `btq.cli.main(ARG...)` exactly as `python -m btq.cli ARG...`
would (the untraced CLI passes run that command itself).  `small-many` runs
the in-process symbol and small-level loop below.  With `--spans`, the
wrappers of `tracing.Tracer` are installed first and the spans are written
to PATH when the process ends, also when the operation raises.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import ROOT, Tracer  # noqa: E402
from workloads import SMALL_LEVELS  # noqa: E402


def _sphere_points(n=64):
    """Fixed Fibonacci points (x1, x2, x3) on the sphere."""
    pts = []
    for i in range(n):
        x3 = 1.0 - 2.0 * (i + 0.5) / n
        rho = math.sqrt(1.0 - x3 * x3)
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        pts.append((rho * math.cos(phi), rho * math.sin(phi), x3))
    return pts


def _terms_bytes(sym):
    return repr(sorted(sym.terms.items())).encode()


def _coeff_max(sym):
    return max((abs(c) for c in sym.terms.values()), default=0.0)


def small_many(exprs, tracer=None):
    """Symbol layer and small-level assembly for each expression.

    Operation `s<i>` (level 0) runs parse, sup_norm, poisson_bracket,
    c1_candidate and laplace_beltrami on symbol i, paired with symbol i+1;
    operation `s<i>-m<m>` runs toeplitz, toeplitz_exact, prequantum and the
    Hermitian operator norm at level m.  btq is called through the package
    namespace, so wrappers installed by a tracer are seen.  Returns one
    record per operation and the sha256 of every computed value.
    """
    import btq
    import numpy as np

    points = np.array(_sphere_points())
    digest = hashlib.sha256()
    records = []
    symbols = {}

    def run(op_id, level, body):
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        problems, cause = [], None
        try:
            for chunk in body(problems):
                digest.update(chunk)
        except MemoryError as exc:
            cause = f"memory: {type(exc).__name__}"
        except Exception as exc:  # a failing operation is recorded, not fatal
            cause = f"exception: {type(exc).__module__}.{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if cause is None and problems:
            cause = "check: " + "; ".join(problems)
        records.append({"id": op_id, "level": level, "ok": cause is None,
                        "cause": cause, "elapsed_s": elapsed})

    def symbol_op(i):
        def body(problems):
            f = btq.parse(exprs[i])
            g = btq.parse(exprs[(i + 1) % len(exprs)])
            sup = btq.sup_norm(f)
            pb = btq.poisson_bracket(f, g)
            c1 = btq.c1_candidate(f, g, btq.SELECTED_C1_ORDERING)
            c1_swap = btq.c1_candidate(g, f, btq.SELECTED_C1_ORDERING)
            lap = btq.laplace_beltrami(f)
            symbols[i] = (f, sup)
            # C1(f,g) - C1(g,f) = -i {f,g} for either ordering
            defect = _coeff_max(c1 - c1_swap + pb * 1j)
            if defect > 1e-12 * max(1.0, _coeff_max(c1)):
                problems.append(f"C1 antisymmetrization defect {defect!r}")
            vals = np.abs(btq.eval_ambient(f, points[:, 0], points[:, 1], points[:, 2]))
            if float(vals.max()) > sup + 1e-12:
                problems.append(f"sup_norm {sup!r} below a sampled |f| {vals.max()!r}")
            yield repr(sup).encode()
            for sym in (pb, c1, lap):
                yield _terms_bytes(sym)
        return body

    def level_op(i, m):
        def body(problems):
            f, sup = symbols[i]
            t = btq.toeplitz(f, m)
            te = btq.toeplitz_exact(f, m)
            q = btq.prequantum(f, m)
            norm = btq.operator_norm(t)
            gap = float(np.max(np.abs(t.mat - te.mat)))
            if gap > 1e-10:
                problems.append(f"toeplitz vs toeplitz_exact {gap!r} at m={m}")
            if not t.hermitian:
                problems.append(f"T_f of a real symbol not flagged Hermitian at m={m}")
            if norm > sup + 1e-9:
                problems.append(f"|T_f|={norm!r} above sup|f|={sup!r} at m={m}")
            skew = float(np.max(np.abs(q.mat + q.mat.conj().T)))
            if skew > 1e-9 * (1.0 + float(np.max(np.abs(q.mat)))):
                problems.append(f"Q_f not anti-Hermitian ({skew!r}) at m={m}")
            for mat in (t.mat, te.mat, q.mat):
                yield np.ascontiguousarray(mat).tobytes()
            yield repr(norm).encode()
        return body

    for i in range(len(exprs)):
        run(f"s{i}", 0, symbol_op(i))
        for m in SMALL_LEVELS:
            if i in symbols:
                run(f"s{i}-m{m}", m, level_op(i, m))
            else:
                records.append({"id": f"s{i}-m{m}", "level": m, "ok": False,
                                "cause": "skipped: symbol operation failed",
                                "elapsed_s": 0.0})
    return records, digest.hexdigest()


def main(argv):
    spans = None
    if argv[:1] == ["--spans"]:
        spans, op_id, argv = argv[1], argv[2], argv[3:]
    mode, rest = argv[0], argv[1:]
    tracer = None
    if spans is not None:
        tracer = Tracer()
        tracer.op = op_id
        tracer.install()
        tracer.begin(ROOT)
    try:
        if mode == "cli":
            import btq.cli
            return btq.cli.main(rest)
        if mode == "small-many":
            with open(rest[0]) as fh:
                job = json.load(fh)
            records, digest = small_many(job["exprs"], tracer)
            with open(rest[1], "w") as fh:
                json.dump({"ops": records, "digest": digest}, fh)
            return 0
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.end()
            tracer.write(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
