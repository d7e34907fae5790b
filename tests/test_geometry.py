import math
from fractions import Fraction

import numpy as np
import pytest

from btq.geometry import (TOTAL_AREA, QuadratureRule, SpherePoint,
                          curvature_check, diastasis, make_rule, phi_grid)
from conftest import modules_after


def beta_closed_form(a, b):
    # independent oracle: int_0^1 s^a (1-s)^b ds = a! b!/(a+b+1)!
    return float(Fraction(math.factorial(a) * math.factorial(b),
                          math.factorial(a + b + 1)))


def product_integral(rule, degree, radial, q):
    """2 pi sum of radial(s) e^{i q phi} over rule x phi_grid(degree)."""
    phi = phi_grid(degree)
    samples = radial(rule.s_nodes)[:, None] * np.exp(1j * q * phi)[None, :]
    return np.sum(rule.s_weights[:, None] * samples) * (2.0 * math.pi / len(phi))


def test_total_area_is_2pi():
    rule = make_rule(0, 0)
    assert abs(2.0 * math.pi * np.sum(rule.s_weights) - TOTAL_AREA) < 1e-12
    assert abs(product_integral(rule, 0, np.ones_like, 0) - TOTAL_AREA) < 1e-12


def test_highest_radial_moment_exact():
    for m, d in ((0, 0), (3, 2), (10, 4)):
        rule = make_rule(m, d)
        val = 2.0 * math.pi * np.sum(rule.s_weights * rule.s_nodes ** (m + d))
        expect = 2.0 * math.pi * beta_closed_form(m + d, 0)
        assert abs(val - expect) <= 1e-13 * abs(expect)


def test_full_period_oscillation_integrates_to_zero():
    # phi_grid(d) is exact for the harmonics |q| <= 2d
    rule = make_rule(2, 1)
    for d in (0, 1, 3, 6):
        phi = phi_grid(d)
        assert len(phi) == 2 * d + 1
        for q in range(-2 * d, 2 * d + 1):
            val = product_integral(rule, d, np.ones_like, q)
            assert abs(val - (TOTAL_AREA if q == 0 else 0.0)) < 1e-13
        # the next harmonic aliases onto q = 0: the bound 2d is tight
        assert abs(product_integral(rule, d, np.ones_like, 2 * d + 1)
                   - TOTAL_AREA) < 1e-13


def test_quadrature_exactness_100_random_moments(rng):
    rule, d = make_rule(8, 4), 4
    for _ in range(100):
        a = int(rng.randint(0, rule.max_radial_degree + 1))
        b = int(rng.randint(0, rule.max_radial_degree + 1 - a))
        q = int(rng.randint(-2 * d, 2 * d + 1))
        val = product_integral(rule, d, lambda s: s**a * (1.0 - s) ** b, q)
        if q == 0:
            expect = 2.0 * math.pi * beta_closed_form(a, b)
            assert abs(val - expect) <= 1e-12 * abs(expect)
        else:
            assert abs(val) < 1e-12


def test_rule_declares_its_exactness():
    rule = make_rule(5, 3)
    assert rule.max_radial_degree >= 5 + 3
    assert rule.max_radial_degree == 2 * rule.n_nodes - 1
    assert rule.n_nodes == len(rule.s_nodes) == len(rule.s_weights)
    assert np.all(rule.s_nodes > 0.0) and np.all(rule.s_nodes < 1.0)


def test_make_rule_is_memoised():
    for args in ((0, 0), (8, 4), (17, 8)):
        rule = make_rule(*args)
        assert make_rule(*args) is rule
        fresh = make_rule.__wrapped__(*args)
        assert fresh is not rule
        for name in ("s_nodes", "s_weights"):
            arr = getattr(rule, name)
            assert not arr.flags.writeable
            assert arr.tobytes() == getattr(fresh, name).tobytes()
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert (rule.n_nodes, rule.max_radial_degree) == \
            (fresh.n_nodes, fresh.max_radial_degree)


def test_nodes_match_the_companion_eigenvalues():
    # leggauss (an n x n eigensolve) is the reference here only
    for n_s in [*range(1, 65), 129, 257, 503, 504, 543, 544]:
        x, _ = np.polynomial.legendre.leggauss(n_s)
        rule = make_rule.__wrapped__(0, 2 * n_s - 1)
        assert rule.n_nodes == n_s
        assert np.max(np.abs(rule.s_nodes - 0.5 * (x + 1.0))) <= 2.3e-16
        assert np.all(np.diff(rule.s_nodes) > 0.0)


def test_rule_loads_no_polynomial_module():
    assert "numpy.polynomial" not in modules_after(
        "import btq\nbtq.make_rule(1000, 6)")


def test_chart_roundtrip(rng):
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p = SpherePoint.from_z(z)
        x1, x2, x3 = p.ambient()
        assert abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0) < 1e-12
        q = SpherePoint.from_ambient(x1, x2, x3)
        assert q.chart == "finite"
        assert abs(q.z - z) < 1e-12 * max(1.0, abs(z))


def test_chart_conventions():
    assert SpherePoint.from_z(0).ambient() == (0.0, 0.0, 1.0)
    assert SpherePoint.infinity().ambient() == (0.0, 0.0, -1.0)
    # x2 is positive along +Im z
    _, x2, _ = SpherePoint.from_z(0.5j).ambient()
    assert x2 > 0
    with pytest.raises(ValueError):
        SpherePoint.from_ambient(0.5, 0.5, 0.5)


def test_diastasis_examples():
    north = SpherePoint.from_z(0)
    assert diastasis(north, north) == 0.0
    assert abs(diastasis(north, SpherePoint.from_z(1)) - math.log(2)) < 1e-14
    assert math.isinf(diastasis(north, SpherePoint.infinity()))


def test_diastasis_symmetric_positive(rng):
    pts = [SpherePoint.from_z(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
           for _ in range(12)] + [SpherePoint.infinity()]
    for p in pts:
        for q in pts:
            d1, d2 = diastasis(p, q), diastasis(q, p)
            assert d1 == d2
            assert d1 >= 0.0
            if p is not q:
                assert d1 > 0.0 or (p.chart == q.chart == "finite"
                                    and abs(p.z - q.z) < 1e-15)


def test_diastasis_antipode():
    p = SpherePoint.from_z(0.7 - 0.2j)
    x1, x2, x3 = p.ambient()
    assert math.isinf(diastasis(p, SpherePoint.from_ambient(-x1, -x2, -x3)))


def test_curvature_check(rng):
    pts = [SpherePoint.from_z(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
           for _ in range(20)]
    assert curvature_check(0, pts) == 0.0
    # m=1 at z=0: both sides equal 1
    assert curvature_check(1, [SpherePoint.from_z(0)]) < 1e-15
    assert curvature_check(5, pts) < 1e-12


def test_rule_is_frozen():
    rule = make_rule(2, 1)
    with pytest.raises(AttributeError):
        rule.max_radial_degree = 7
    assert rule.max_radial_degree == 3
    assert isinstance(rule, QuadratureRule)
