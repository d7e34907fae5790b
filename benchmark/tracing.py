"""Spans around btq's public functions, installed from outside the package.

The child side (`Tracer`) replaces every binding of each wrapped function in
every loaded `btq.*` module with a timing wrapper, keeps the spans in memory
and writes them out once, when the operation's process ends.  The harness
side (`summarize`) turns span files into per-layer self times, call and
failure counts, computed byte and node counts, and growth exponents in m.

Nothing under `src/` is changed: `from .operators import toeplitz` in
`btq.lab` binds the same function object as `btq.operators.toeplitz`, so the
wrapper is installed by identity in every namespace that holds the object.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time

# module -> public functions wrapped in that module (the layers are modules)
WRAPPED = {
    "geometry": ("make_rule",),
    "hilbert": ("basis_eval_grid",),
    "operators": ("toeplitz", "toeplitz_exact", "kernel_matrix", "prequantum",
                  "tuynman_rhs", "commutator", "operator_norm"),
    "symbols": ("parse", "grid_extrema", "multiply", "poisson_bracket",
                "c1_candidate", "laplace_beltrami"),
    "calibration": ("calibrate",),
    "lab": ("thm1_run", "thm2_run", "thm3_run", "tuynman_run", "coherent_run",
            "crosscheck_run", "fit_rate"),
}

# Position of the level argument m, for the growth-exponent fits.
_LEVEL_ARG = {"make_rule": 0, "basis_eval_grid": 0, "toeplitz": 1,
              "toeplitz_exact": 1, "kernel_matrix": 1, "prequantum": 1,
              "tuynman_rhs": 1}
_OPERATOR_ARG = ("operator_norm", "commutator")  # m read from args[0].m
_MATRIX_MAKERS = ("toeplitz", "toeplitz_exact", "kernel_matrix", "prequantum",
                  "tuynman_rhs", "commutator")
_GRAM_RE = re.compile(r"Gram self-test defect ([0-9.eE+-]+)")

ROOT = "runner"
EXPONENT_NAMES = ("hilbert.basis_eval_grid", "operators.toeplitz",
                  "operators.kernel_matrix", "operators.prequantum",
                  "operators.operator_norm.general")
COUNT_NAMES = ("geometry.quad_nodes", "hilbert.table_bytes",
               "hilbert.gram_defect_max", "operators.matrix_bytes")


def span_names():
    """Every span name a traced pass can produce, in a fixed order."""
    names = []
    for module, funcs in WRAPPED.items():
        for func in funcs:
            if func == "operator_norm":
                names += [f"{module}.{func}.hermitian", f"{module}.{func}.general"]
            else:
                names.append(f"{module}.{func}")
    return names


class Tracer:
    """In-memory span recorder for one operation process.

    A span is [name, start, end, parent index, failed, m, op id]; times are
    `time.perf_counter()` seconds of this process.
    """

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.op = ""
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- spans ----------------------------------------------------------

    def begin(self, name, m=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0, m, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self, failed=False):
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        rec[4] = int(failed)

    def write(self, path):
        now = time.perf_counter()
        for rec in self.spans:  # spans still open when the process ends
            if rec[2] is None:
                rec[2] = now
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- wrappers -------------------------------------------------------

    def _record(self, func, result):
        if func == "make_rule":
            self.counts["geometry.quad_nodes"] += int(result.n_nodes)
        elif func == "basis_eval_grid":
            self.counts["hilbert.table_bytes"] += int(result.B.nbytes)
            if result.gram_defect is not None:
                self._gram(result.gram_defect)
        elif func in _MATRIX_MAKERS:
            self.counts["operators.matrix_bytes"] += int(result.mat.nbytes)

    def _gram(self, defect):
        key = "hilbert.gram_defect_max"
        self.counts[key] = max(self.counts[key], float(defect))

    def _wrap(self, module, func, fn):
        tracer = self
        name = f"{module}.{func}"
        pos = _LEVEL_ARG.get(func)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            m = None
            span = name
            if func in _OPERATOR_ARG:
                m = args[0].m
                if func == "operator_norm":
                    span += ".hermitian" if args[0].hermitian else ".general"
            elif pos is not None:
                m = kwargs["m"] if "m" in kwargs else args[pos]
            tracer.begin(span, m)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(failed=True)
                hit = _GRAM_RE.search(str(exc)) if func == "basis_eval_grid" else None
                if hit:
                    tracer._gram(float(hit.group(1)))
                raise
            tracer.end()
            tracer._record(func, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self):
        """Wrap every function of WRAPPED in every `btq.*` namespace binding it."""
        import btq  # noqa: F401  (loads every submodule the package imports)
        import btq.cli  # noqa: F401

        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == "btq" or key.startswith("btq."))]
        for module, funcs in WRAPPED.items():
            home = sys.modules[f"btq.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(module, func, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))
        return [(ns.__name__, attr) for ns, attr, _ in self._patched]

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


# -- harness side ---------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    Spans of one process are strictly nested (btq runs its wrapped calls on
    one thread), so direct children never overlap each other.
    """
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def _fit_exponent(points):
    """Growth exponent of per-call seconds in m via btq.lab.fit_rate.

    Uses the median self time of the calls that returned, at each distinct
    m >= 1.  Returns 0.0 when fewer than three levels have a positive time.
    """
    from btq.errors import InsufficientDataError
    from btq.lab import ConvergenceRow, fit_rate

    by_m = {}
    for m, t in points:
        if m is not None and m >= 1:
            by_m.setdefault(int(m), []).append(t)
    rows = []
    for m, ts in sorted(by_m.items()):
        ts = sorted(ts)
        rows.append(ConvergenceRow.make(m, ts[len(ts) // 2], 0.0))
    try:
        return -fit_rate(rows, window=[r.m for r in rows]).slope
    except InsufficientDataError:
        return 0.0


def summarize(traced_ops):
    """Per-layer metrics of one traced pass.

    `traced_ops` is a list of (op wall seconds, span file payload or None).
    Returns a dict name -> value.
    """
    names = span_names()
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    failed = dict.fromkeys(names, 0)
    points = {name: [] for name in EXPONENT_NAMES}
    counts = {name: 0 for name in COUNT_NAMES}
    runner_s = process_s = 0.0
    for op_wall, payload in traced_ops:
        if payload is None:
            process_s += op_wall  # no spans: the whole process is unattributed
            continue
        spans = payload["spans"]
        own = self_times(spans)
        for rec, t in zip(spans, own):
            name = rec[0]
            if name == ROOT:
                runner_s += t
                process_s += op_wall - (rec[2] - rec[1])
                continue
            calls[name] += 1
            self_s[name] += t
            failed[name] += rec[4]
            if name in points and not rec[4]:  # a refusal says nothing of growth
                points[name].append((rec[5], t))
        for key, value in payload["counts"].items():
            counts[key] = max(counts[key], value) if key.endswith("_max") \
                else counts[key] + value
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.failed"] = failed[name]
    metrics["runner.self_s"] = runner_s
    metrics["cli.process_s"] = process_s
    metrics.update(counts)
    for name in EXPONENT_NAMES:
        metrics[f"{name}.m_exponent"] = _fit_exponent(points[name])
    return metrics
