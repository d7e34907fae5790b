"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with `pytest -s` to see them live)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from btq import lab
from btq import operators as op
from btq import symbols as sy
from btq.geometry import SpherePoint, make_rule
from btq.hilbert import (basis_eval_grid, coherent_density,
                         coherent_density_reference, coherent_state, dimension,
                         kernel_density)
from conftest import assemble_in_subprocess, random_point, random_symbol

X1, X2, X3, ONE = sy.X1, sy.X2, sy.X3, sy.ONE


@contextmanager
def criterion(n, desc):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n:2d}: {desc}")
        raise
    print(f"[PASS] criterion {n:2d}: {desc} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "three Toeplitz paths agree entrywise within 1e-10"):
        t0 = time.monotonic()
        symbols = [X1, X2, X3, X3 * X3, X1 * X2, X1 * X1]
        for f in symbols:
            for m in (1, 2, 4, 8, 16, 32, 64):
                assert lab.cross_check(f, m) <= 1e-10, (f, m)
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_thm1_exact_family_and_upper_bound(rng):
    with criterion(2, "||T_x3|| = m/(m+2) for m <= 128; easy bound holds"):
        for m in range(1, 129):
            t = op.toeplitz_exact(X3, m)
            assert abs(op.operator_norm(t) - m / (m + 2)) <= 1e-10
        for m in (8, 64, 128):
            t = op.toeplitz(X3, m)
            assert abs(op.operator_norm(t) - m / (m + 2)) <= 1e-10
        for _ in range(20):
            f = random_symbol(rng, degree=3)
            sup = sy.sup_norm(f)
            for m in (8, 32):
                assert op.operator_norm(op.toeplitz(f, m)) <= sup + 1e-9


def test_criterion_03_thm1_generic_rate():
    with criterion(3, "thm1 gap rate for 0.3 + x1 + 0.5 x2 x3 in [0.9, 1.1]"):
        t0 = time.monotonic()
        f = sy.parse("0.3 + x1 + 0.5*x2*x3")
        rep = lab.thm1_run(f, [16, 32, 64, 128, 256])
        assert rep.passed
        assert 0.9 <= rep.fit.slope <= 1.1, rep.fit
        assert time.monotonic() - t0 < 300.0


def test_criterion_04_thm2_defect_and_rate():
    with criterion(4, "thm2 defect = 4m/(m+2)^2 within 1e-9; rate in [0.9, 1.1]"):
        # confirm the spin oracle against the exact-moment path at m <= 3
        for m in (1, 2, 3):
            tf, tg = op.toeplitz_exact(X1, m), op.toeplitz_exact(X2, m)
            tfg = op.toeplitz_exact(sy.poisson_bracket(X1, X2), m)
            defect = (1j * m) * op.commutator(tf, tg) - tfg
            d = op.operator_norm(defect)
            assert abs(d - 4 * m / (m + 2) ** 2) <= 1e-13
        rep = lab.thm2_run(X1, X2, [2, 8, 16, 32, 64, 128, 256])
        gaps = {r.m: r.gap for r in rep.rows}
        for m in (2, 8, 32):
            assert abs(gaps[m] - 4 * m / (m + 2) ** 2) <= 1e-9
        fit = lab.fit_rate(rep.rows, window=[16, 32, 64, 128, 256])
        assert 0.9 <= fit.slope <= 1.1, fit
        assert 0.9 <= rep.fit.slope <= 1.1, rep.fit


def test_criterion_05_star_product(rng):
    with criterion(5, "Eq4 + cocycle exact; N=2 slope in [1.8, 2.2]; "
                      "rejected ordering fails the band"):
        for _ in range(50):
            f, g, h = (random_symbol(rng, degree=3) for _ in range(3))
            eq4 = sy.c1_candidate(f, g, sy.SELECTED_C1_ORDERING) \
                - sy.c1_candidate(g, f, sy.SELECTED_C1_ORDERING) \
                + 1j * sy.poisson_bracket(f, g)
            assert eq4.is_zero
            c1 = lambda a, b: sy.c1_candidate(a, b, sy.SELECTED_C1_ORDERING)
            cocycle = c1(f, g) * h + c1(f * g, h) - f * c1(g, h) - c1(f, g * h)
            assert cocycle.is_zero
        levels = [16, 32, 64, 128]
        for f, g in ((X3, X3), (X1, X2)):
            sel = lab.thm3_run(f, g, levels)
            fit = lab.fit_rate(sel[2].rows, window=levels)
            assert 1.8 <= fit.slope <= 2.2, (f, g, fit)
            rej = lab.thm3_run(f, g, levels,
                               c1_ordering=sy.REJECTED_C1_ORDERING)
            rfit = lab.fit_rate(rej[2].rows, window=levels)
            assert not 1.8 <= rfit.slope <= 2.2, (f, g, rfit)


def test_criterion_06_tuynman_identity():
    with criterion(6, "Q_f = i T_{f - Lap f/2m} within 1e-8 (1 + ||Q||)"):
        for f in (X1, X3, X3 * X3):
            rep = lab.tuynman_run(f, [4, 8, 16, 32])
            assert rep.passed, f
        for m in (4, 8, 16, 32):
            expect = 1j * np.diag([(m - 2 * k) / m for k in range(m + 1)])
            q = op.prequantum(X3, m)
            rhs = op.tuynman_rhs(X3, m)
            assert np.max(np.abs(q.mat - expect)) <= 1e-10
            assert np.max(np.abs(rhs.mat - expect)) <= 1e-10


def test_criterion_07_coherent_bound():
    with criterion(7, "l_m = m/(m+2) at the pole; sandwich + slope >= 0.9 "
                      "for 10 random maximizers"):
        north = SpherePoint.from_z(0)
        rep = lab.coherent_run(X3, north, [2, 8, 32, 64])
        for r in rep.rows:
            assert abs(r.measured - r.m / (r.m + 2)) <= 1e-10
        assert rep.passed
        rng = np.random.RandomState(1)
        levels = [8, 16, 32, 64, 128]
        for _ in range(10):
            f = random_symbol(rng, degree=3)
            _, x0 = sy.sup_norm_argmax(f)
            r = lab.coherent_run(f, x0, levels)
            assert r.passed
            assert r.fit is not None and r.fit.slope >= 0.9, r.fit


def test_criterion_08_hilbert_identities(rng):
    with criterion(8, "dim = m+1; Gram = I (1e-12); kernel density (m+1)/2pi; "
                      "coherent density identity (1e-10)"):
        for m in (1, 8, 64):
            assert dimension(m) == m + 1
            table = basis_eval_grid(m, make_rule(m, 0))
            assert table.B.shape[1] == m + 1
            assert table.gram_defect <= 1e-12
            expect = (m + 1) / (2.0 * math.pi)
            for _ in range(50):
                p = random_point(rng)
                assert abs(kernel_density(m, p) - expect) <= 1e-12 * expect
            done = 0
            while done < 50:
                z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                p = random_point(rng)
                ref = coherent_density_reference(m, z0, p)
                if ref < 1e-250:
                    continue
                assert abs(coherent_density(m, z0, p) - ref) <= 1e-10 * ref
                done += 1


def test_criterion_09_structure_invariants(rng):
    with criterion(9, "hermiticity flags, positivity, SU(2) norm equality, "
                      "Leibniz and Jacobi"):
        for _ in range(5):
            f = random_symbol(rng, degree=3)
            t = op.toeplitz(f, 16)
            assert t.hermitian and t.hermitian_defect() <= 1e-12
            q = op.prequantum(f, 12)
            assert np.max(np.abs(q.mat + q.mat.conj().T)) <= 1e-10
            g = random_symbol(rng, degree=2)
            pos = op.toeplitz(g * g, 16)
            assert float(np.min(np.linalg.eigvalsh(pos.mat))) >= -1e-10
        assert not op.toeplitz(X1 + 1j * X2, 8).hermitian
        for m in (4, 32, 64):
            assert abs(op.operator_norm(op.toeplitz(X1, m))
                       - op.operator_norm(op.toeplitz(X3, m))) <= 1e-10
        pb = sy.poisson_bracket
        for _ in range(50):
            f, g, h = (random_symbol(rng, degree=3) for _ in range(3))
            assert (pb(f * g, h) - f * pb(g, h) - pb(f, h) * g).is_zero
            assert (pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))).is_zero


def test_criterion_10_performance():
    with criterion(10, "T_f at m=200, deg 4: < 60 s on one BLAS thread, < 15 s "
                       "on eight, bit-identical"):
        expr = "x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125"
        assert sy.parse(expr).degree == 4
        t1, wall1 = assemble_in_subprocess(expr, 200, blas_threads=1)
        t8, wall8 = assemble_in_subprocess(expr, 200, blas_threads=8)
        print(f"  assembly walls: one thread={wall1:.2f}s eight={wall8:.2f}s")
        assert wall1 < 60.0
        assert wall8 < 15.0
        assert t1 == t8
