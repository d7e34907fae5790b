"""Polynomial observables on the sphere: product, Poisson bracket, Laplacian,
sup-norm, and the first star-product bidifferential operator.

A Symbol is a polynomial in the ambient coordinates (x1, x2, x3) taken
modulo the sphere relation x1^2 + x2^2 + x3^2 = 1.  Normal form eliminates
every power x1^a with a >= 2 via x1^2 = 1 - x2^2 - x3^2, so equality of
symbols is equality of coefficient dictionaries.  Coefficients are complex;
classical observables are the real-flagged subclass.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources

import numpy as np

from .errors import SymbolSyntaxError, UnknownIdentifierError
from .geometry import DEFAULT_CONVENTIONS, SpherePoint

_REAL_TOL = 1e-13


def _reduced(terms):
    """Rewrite a coefficient dict into normal form (x1-exponent <= 1)."""
    out = {}
    stack = list(terms.items())
    while stack:
        (a, b, c), coeff = stack.pop()
        if coeff == 0:
            continue
        if a <= 1:
            v = out.get((a, b, c), 0j) + coeff
            if v == 0:
                out.pop((a, b, c), None)
            else:
                out[(a, b, c)] = v
        else:
            # x1^2 -> 1 - x2^2 - x3^2
            stack.append(((a - 2, b, c), coeff))
            stack.append(((a - 2, b + 2, c), -coeff))
            stack.append(((a - 2, b, c + 2), -coeff))
    return out


class Symbol:
    """Immutable normal-form polynomial on S^2."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", _reduced(dict(terms)))

    def __setattr__(self, *_):
        raise AttributeError("Symbol is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0j) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return Symbol(out)

    __radd__ = __add__

    def __neg__(self):
        return Symbol({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Symbol({e: c * other for e, c in self.terms.items()})
        out = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = out.get(e, 0j) + v1 * v2
        return Symbol(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("symbol powers must be nonnegative integers")
        out = constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((e, c) for e, c in self.terms.items())))

    # -- inspection ------------------------------------------------------

    @property
    def degree(self):
        return max((a + b + c for (a, b, c) in self.terms), default=0)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_real(self):
        if not self.terms:
            return True
        scale = max(1.0, max(abs(c) for c in self.terms.values()))
        return max(abs(c.imag) for c in self.terms.values()) <= _REAL_TOL * scale

    def coeff_max(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff_l1(self):
        """Sum of |coefficients|: a bound on sup |f| over the sphere."""
        return sum(abs(c) for c in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "Symbol(0)"
        bits = []
        for (a, b, c), v in sorted(self.terms.items()):
            mon = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in ((1, a), (2, b), (3, c)) if e)
            coeff = f"{v.real:g}" if v.imag == 0 else f"({v:g})"
            bits.append(f"{coeff}*{mon}" if mon else coeff)
        return "Symbol(" + " + ".join(bits) + ")"


def _coerce(obj):
    if isinstance(obj, Symbol):
        return obj
    if isinstance(obj, (int, float, complex)):
        return constant(obj)
    raise TypeError(f"cannot interpret {obj!r} as a Symbol")


def constant(value):
    return Symbol({(0, 0, 0): complex(value)})


def coordinate(i):
    """The ambient coordinate function x_i, i in {1,2,3}."""
    e = [0, 0, 0]
    e[i - 1] = 1
    return Symbol({tuple(e): 1.0})


X1, X2, X3 = coordinate(1), coordinate(2), coordinate(3)
ONE = constant(1.0)


def multiply(f, g):
    """Pointwise product in normal form (the star product's C_0)."""
    return f * g


# -- expression grammar -----------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' uint)?
#   base   := number | 'x1' | 'x2' | 'x3' | '(' expr ')' | '-' factor
#
# Whitespace is insignificant.  Parse trees are tuples:
#   ("const", v) ("var", i) ("add"|"sub"|"mul", l, r) ("pow", t, n) ("neg", t)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise SymbolSyntaxError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind == "op" and val == op:
            return self.take()
        raise SymbolSyntaxError(f"expected {op!r}", at)

    def parse(self):
        tree = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected {val!r}", at)
        return tree

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = ("add" if val == "+" else "sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            nkind, nval, nat = self.take()
            if nkind != "num" or not nval.isdigit():
                raise SymbolSyntaxError("exponent must be an unsigned integer", nat)
            node = ("pow", node, int(nval))
        return node

    def base(self):
        kind, val, at = self.take()
        if kind == "num":
            return ("const", float(val))
        if kind == "ident":
            if val in ("x1", "x2", "x3"):
                return ("var", int(val[1]))
            raise UnknownIdentifierError(f"unknown identifier {val!r}", at)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and val == "-":
            return ("neg", self.factor())
        found = repr(val) if val else "end of input"
        raise SymbolSyntaxError(
            f"expected a number, coordinate or '(' but found {found}", at)


def parse_expr(text):
    """Parse text into a SymbolExpr tuple tree (see grammar above)."""
    return _Parser(text).parse()


def eval_expr(tree, x1, x2, x3):
    """Evaluate a parse tree directly at ambient coordinates."""
    op = tree[0]
    if op == "const":
        return tree[1]
    if op == "var":
        return (x1, x2, x3)[tree[1] - 1]
    if op == "neg":
        return -eval_expr(tree[1], x1, x2, x3)
    if op == "pow":
        return eval_expr(tree[1], x1, x2, x3) ** tree[2]
    l = eval_expr(tree[1], x1, x2, x3)
    r = eval_expr(tree[2], x1, x2, x3)
    return l + r if op == "add" else l - r if op == "sub" else l * r


def compile_expr(tree):
    """Fold a parse tree into a normal-form Symbol."""
    op = tree[0]
    if op == "const":
        return constant(tree[1])
    if op == "var":
        return coordinate(tree[1])
    if op == "neg":
        return -compile_expr(tree[1])
    if op == "pow":
        return compile_expr(tree[1]) ** tree[2]
    l = compile_expr(tree[1])
    r = compile_expr(tree[2])
    return l + r if op == "add" else l - r if op == "sub" else l * r


# under this bound on `coeff_l1` (and on the product of two symbols' norms,
# see cli) every operator, derivative and Laplacian the lab forms stays many
# decades below float overflow
COEFF_L1_BOUND = 1e250


def parse(text):
    """Parse an expression string into a Symbol.  Coefficients whose l1 norm
    is above COEFF_L1_BOUND or not finite (an overflow, or nan from one) are
    a SymbolSyntaxError."""
    f = compile_expr(parse_expr(text))
    l1 = f.coeff_l1()
    if not l1 <= COEFF_L1_BOUND:
        raise SymbolSyntaxError(
            f"coefficient l1 norm {l1:.3g} exceeds {COEFF_L1_BOUND:g}", 0)
    return f


# -- calculus ----------------------------------------------------------------


def partial(f, i):
    """Formal d/dx_i on the normal-form representative."""
    out = {}
    for (a, b, c), v in f.terms.items():
        e = [a, b, c]
        if e[i - 1] == 0:
            continue
        coeff = v * e[i - 1]
        e[i - 1] -= 1
        key = tuple(e)
        out[key] = out.get(key, 0j) + coeff
    return Symbol(out)


def poisson_bracket(f, g, conventions=DEFAULT_CONVENTIONS):
    """{f,g} as the biderivation generated by {x_i,x_j} = c eps_ijk x_k.

    Well defined on the quotient ring because the sphere relation is a
    Casimir of this bracket; the sign of c is the calibrated convention.
    """
    c = conventions.poisson_constant
    d = [partial(f, i) for i in (1, 2, 3)]
    e = [partial(g, i) for i in (1, 2, 3)]
    out = X3 * (d[0] * e[1] - d[1] * e[0]) \
        + X1 * (d[1] * e[2] - d[2] * e[1]) \
        + X2 * (d[2] * e[0] - d[0] * e[2])
    return out * c


def laplace_beltrami(f, conventions=DEFAULT_CONVENTIONS):
    """Laplacian of the metric g(X,Y) = omega(X, IY).

    Computed per homogeneous ambient monomial p of degree d through
    (laplacian_R3 p - d(d+1) p)|_sphere, then scaled by the convention
    (scale 2, sign +1 here: eigenvalue -2 l(l+1) on degree-l harmonics,
    e.g. x3 -> -4 x3 for the area-2pi sphere).
    """
    amb = {}
    for (a, b, c), v in f.terms.items():
        d = a + b + c
        for i, e in enumerate((a, b, c)):
            if e >= 2:
                key = [a, b, c]
                key[i] -= 2
                key = tuple(key)
                amb[key] = amb.get(key, 0j) + v * e * (e - 1)
        key = (a, b, c)
        amb[key] = amb.get(key, 0j) - v * d * (d + 1)
    return Symbol(amb) * (conventions.laplace_sign * conventions.laplace_scale)


# -- first star-product bidifferential ---------------------------------------

C1_ORDERINGS = ("dzbar-dz", "dz-dzbar")


def _load_c1_table():
    with resources.files("btq").joinpath("data/c1_table.json").open() as fh:
        raw = json.load(fh)
    return [[symbol_from_json(cell) for cell in row] for row in raw["G"]]


_C1_TABLE = None


def c1_contraction_table():
    """The nine degree<=2 symbols G_ij = (1+z zbar)^2 (dzbar x_i)(dz x_j).

    Loaded from the committed fixture; scripts/derive_c1_table.py regenerates
    it with an independent symbolic stereographic derivation.
    """
    global _C1_TABLE
    if _C1_TABLE is None:
        _C1_TABLE = _load_c1_table()
    return _C1_TABLE


def c1_candidate(f, g, ordering="dzbar-dz"):
    """First star-product coefficient candidate C1(f,g).

    ordering "dzbar-dz" is the contraction g^{1bar1} (dzbar f)(dz g)
    = sum_ij G_ij (d_i f)(d_j g); "dz-dzbar" is -(1+z zbar)^2 (dz f)(dzbar g),
    its negated transpose.  Both satisfy the antisymmetrization identity
    C1(f,g) - C1(g,f) = -i {f,g}; the semiclassical residual experiment
    selects "dz-dzbar" as the one belonging to the Berezin-Toeplitz star
    product and keeps "dzbar-dz" as the non-decaying regression fixture.
    """
    if ordering not in C1_ORDERINGS:
        raise ValueError(f"ordering must be one of {C1_ORDERINGS}")
    table = c1_contraction_table()
    df = [partial(f, i) for i in (1, 2, 3)]
    dg = [partial(g, i) for i in (1, 2, 3)]
    out = Symbol({})
    for i in range(3):
        for j in range(3):
            if ordering == "dzbar-dz":
                out = out + table[i][j] * df[i] * dg[j]
            else:
                out = out - table[j][i] * df[i] * dg[j]
    return out


SELECTED_C1_ORDERING = "dz-dzbar"
REJECTED_C1_ORDERING = "dzbar-dz"


# -- evaluation and sup norm --------------------------------------------------


def eval_ambient(f, x1, x2, x3):
    """Vectorized polynomial evaluation at ambient coordinates."""
    out = None
    for (a, b, c), v in sorted(f.terms.items()):
        term = v * x1**a * x2**b * x3**c
        out = term if out is None else out + term
    if out is None:
        return np.zeros(np.broadcast(x1, x2, x3).shape, dtype=complex) \
            if isinstance(x1, np.ndarray) else 0j
    return out


def evaluate(f, p):
    """Exact evaluation at a SpherePoint (chart independent)."""
    x1, x2, x3 = p.ambient()
    return complex(eval_ambient(f, x1, x2, x3))


def _real_values(f, u, phi):
    """Re f at (u = x3, phi) in real arithmetic: for real coordinates
    v.real * x1^a * x2^b * x3^c is Re(v * x1^a * x2^b * x3^c) exactly."""
    rho = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    x1, x2 = rho * np.cos(phi), rho * np.sin(phi)
    terms = [v.real * x1**a * x2**b * u**c
             for (a, b, c), v in sorted(f.terms.items())]
    return sum(terms[1:], terms[0]) if terms else np.zeros(np.shape(u))


def _refine(f, u0, phi0, sign, rounds=48, local=7):
    """Shrinking local grid search for the maximum of sign*f from each start
    (one row of u0, phi0, sign).  All starts advance together, one
    (starts, local^2) batch per round; a start moves to the first maximum of
    its grid only on a strict gain.  Returns (best sign*f, u, phi) per start."""
    du, dphi = 2.0 / local, 2.0 * math.pi / local
    rows = np.arange(len(sign))
    best_u, best_phi = u0, phi0
    best = sign * _real_values(f, u0, phi0)
    for _ in range(rounds):
        us = np.clip(np.linspace(best_u - du, best_u + du, local, axis=-1), -1, 1)
        ps = np.linspace(best_phi - dphi, best_phi + dphi, local, axis=-1)
        uu, pp = np.repeat(us, local, axis=-1), np.tile(ps, local)
        vals = sign[:, None] * _real_values(f, uu, pp)
        k = np.argmax(vals, axis=-1)
        better = vals[rows, k] > best
        best = np.where(better, vals[rows, k], best)
        best_u = np.where(better, uu[rows, k], best_u)
        best_phi = np.where(better, pp[rows, k], best_phi)
        du *= 0.5
        dphi *= 0.5
    return best, best_u, best_phi


def grid_extrema(f, resolution=96):
    """(min, max, argmin point, argmax point) of a real symbol.

    Dense (resolution x 2*resolution) grid in (u = x3, phi) -- accuracy
    O(resolution^-2) -- then `_refine` from the 4 best cells of each sign,
    all 8 starts together.  A search, not a certificate: an extremum outside
    the basins of the starts is missed.
    """
    if not f.is_real:
        raise ValueError("grid extrema are defined for real symbols only")
    u = np.linspace(-1.0, 1.0, resolution)
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    uu, pp = uu.ravel(), pp.ravel()
    vals = _real_values(f, uu, pp)
    n = min(4, vals.size)
    start = np.concatenate([np.argsort(s * vals)[::-1][:n] for s in (1.0, -1.0)])
    sign = np.repeat([1.0, -1.0], n)
    best, best_u, best_phi = _refine(f, uu[start], pp[start], sign)
    ext = []
    for lo in (0, n):
        k = lo + int(np.argmax(best[lo:lo + n]))
        cu, cp = best_u[k], best_phi[k]
        rho = math.sqrt(max(0.0, 1.0 - cu * cu))
        pt = SpherePoint.from_ambient(rho * math.cos(cp), rho * math.sin(cp), cu)
        ext.append((sign[k] * best[k], pt))
    (fmax, arg_max), (fmin, arg_min) = ext
    return float(fmin), float(fmax), arg_min, arg_max


def sup_norm(f, resolution=96):
    """Sup of |f| over the sphere for a real symbol."""
    fmin, fmax, _, _ = grid_extrema(f, resolution)
    return max(abs(fmin), abs(fmax))


def sup_norm_argmax(f, resolution=96):
    """(sup |f|, maximizer SpherePoint) for a real symbol."""
    fmin, fmax, arg_min, arg_max = grid_extrema(f, resolution)
    if abs(fmin) > abs(fmax):
        return abs(fmin), arg_min
    return abs(fmax), arg_max


def grid_min(f, resolution=96):
    """Min of a real symbol over the sup-norm grid (positivity checks)."""
    fmin, _, _, _ = grid_extrema(f, resolution)
    return fmin


# -- serialization -------------------------------------------------------------


def symbol_to_json(f):
    """{"terms":[{"e":[a,b,c],"re":r,"im":i}, ...]} in sorted exponent order."""
    return {"terms": [{"e": list(e), "re": c.real, "im": c.imag}
                      for e, c in sorted(f.terms.items())]}


def symbol_from_json(obj):
    return Symbol({tuple(t["e"]): complex(t["re"], t["im"]) for t in obj["terms"]})
