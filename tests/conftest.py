import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from btq.symbols import Symbol, X3

# property tests replay the same examples on every run and keep no example
# database; hypothesis still caches the literals it mines from local source
# files, so that cache goes to the temp directory, not the checkout
settings.register_profile("btq", derandomize=True, database=None, deadline=None)
settings.load_profile("btq")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "btq-hypothesis"))


def random_symbol(rng, degree=3, nterms=5, real=True):
    """Random integer-coefficient symbol of total degree <= degree.

    Integer coefficients keep the ring operations exact in floating point,
    so algebraic identities can be asserted coefficient-exactly.
    """
    terms = {}
    for _ in range(nterms):
        while True:
            e = tuple(int(x) for x in rng.randint(0, degree + 1, 3))
            if sum(e) <= degree:
                break
        c = int(rng.randint(-3, 4)) or 1
        if not real:
            c = complex(c, int(rng.randint(-3, 4)))
        terms[e] = terms.get(e, 0) + c
    s = Symbol(terms)
    return s if not s.is_zero else X3


def dense_hermitian(mat):
    """The dense hermiticity check of `QuantumOperator` before it stored bands."""
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    return float(np.max(np.abs(mat - mat.conj().T))) <= 1e-12 * scale


def random_point(rng, radius=2.0):
    """Random finite-chart point with |z| <= radius."""
    from btq.geometry import SpherePoint
    z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
    return SpherePoint.from_z(z)


@pytest.fixture
def rng():
    return np.random.RandomState(12345)


_ASSEMBLE = """
import sys, time
from btq import parse, toeplitz
f, m = parse(sys.argv[1]), int(sys.argv[2])
t0 = time.monotonic()
t = toeplitz(f, m)
wall = time.monotonic() - t0
sys.stdout.buffer.write(repr(wall).encode() + b"\\n" + t.mat.tobytes())
"""


def _fresh_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def assemble_in_subprocess(expr, m, blas_threads):
    """T_f (table plus assembly) in a fresh process whose BLAS and OpenMP
    pools have blas_threads threads; returns (matrix bytes, wall seconds)."""
    env = _fresh_env(OPENBLAS_NUM_THREADS=str(blas_threads),
                     OMP_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", _ASSEMBLE, expr, str(m)],
                          env=env, capture_output=True, check=True)
    wall, _, payload = proc.stdout.partition(b"\n")
    return payload, float(wall)


def modules_after(code):
    """The names in sys.modules after running code in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=_fresh_env(), capture_output=True, text=True, check=True)
    return set(proc.stdout.split())
