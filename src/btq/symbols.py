"""Polynomial observables on the sphere: product, Poisson bracket, Laplacian,
evaluation, and the first star-product bidifferential operator.  A Symbol
is callable: f(x1, x2, x3) is `eval_ambient`.  The sup-norm search lives in
`extrema`, which reads a symbol only through such calls, and is bound here.

A Symbol is a polynomial in the ambient coordinates (x1, x2, x3) taken
modulo the sphere relation x1^2 + x2^2 + x3^2 = 1.  Normal form eliminates
every power x1^a with a >= 2 via x1^2 = 1 - x2^2 - x3^2, so equality of
symbols is equality of coefficient dictionaries.  Coefficients are complex;
classical observables are the real-flagged subclass.  A term, product or
power above MAX_SYMBOL_DEGREE is a CapacityError before anything is formed.
"""

from __future__ import annotations

import math
import numbers
import re

import numpy as np

from .errors import CapacityError, SymbolSyntaxError, UnknownIdentifierError
from .extrema import grid_extrema, sup_norm, sup_norm_argmax  # noqa: F401
from .geometry import LAPLACE_SCALE, LAPLACE_SIGN, POISSON_CONSTANT

_REAL_TOL = 1e-13

# the highest degree a Symbol holds: a product's cost grows like degree^4
MAX_SYMBOL_DEGREE = 64


def _reduced(terms):
    """Normal form (x1-exponent <= 1), each x1^(2j) = (1 - x2^2 - x3^2)^j in
    one trinomial step (coefficients <= 3^32 < 2^53 under the degree cap).
    Terms are read last first, leaves x3-power first: the order of `terms`
    sets the summation order of later products, so it is in the numbers."""
    out = {}
    for e, coeff in reversed(terms.items()):
        if e[0] < 2:  # most terms: already normal
            v = out.get(e, 0j) + coeff
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
            continue
        a, b, c = e
        j = a // 2
        for r in range(j, -1, -1):
            for q in range(j - r, -1, -1):
                n = math.comb(j, r) * math.comb(j - r, q)
                k = (a % 2, b + 2 * q, c + 2 * r)
                v = out.get(k, 0j) + coeff * (-n if (q + r) % 2 else n)
                if v == 0:
                    out.pop(k, None)
                else:
                    out[k] = v
    return out


def _normal(terms):
    """Symbol of a fresh dict within the degree cap, uncopied and unchecked:
    the ring operations keep or lower degrees, and `__mul__` checks first."""
    f = object.__new__(Symbol)
    object.__setattr__(f, "terms", _reduced(terms))
    return f


class Symbol:
    """Immutable normal-form polynomial on S^2."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = dict(terms)
        if max(map(sum, terms), default=0) > MAX_SYMBOL_DEGREE:
            raise CapacityError(f"a term exceeds the symbol degree cap {MAX_SYMBOL_DEGREE}")
        object.__setattr__(self, "terms", _reduced(terms))

    def __setattr__(self, *_):
        raise AttributeError("Symbol is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0j) + c
        return _normal(out)  # the normal form drops the zero sums

    __radd__ = __add__

    def __neg__(self):
        return _normal({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return _normal({e: c * other for e, c in self.terms.items()})
        other, out = _coerce(other), {}
        if self.degree + other.degree > MAX_SYMBOL_DEGREE:
            raise CapacityError(f"a product of degree {self.degree + other.degree} "
                                f"exceeds the symbol degree cap {MAX_SYMBOL_DEGREE}")
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = out.get(e, 0j) + v1 * v2
        return _normal(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("symbol powers must be nonnegative integers")
        top = MAX_SYMBOL_DEGREE // max(self.degree, 1)  # n products: cap constants too
        if n > top:
            raise CapacityError(f"a degree-{self.degree} symbol admits powers up to ^{top} "
                                f"under the symbol degree cap {MAX_SYMBOL_DEGREE}")
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
        return max(map(sum, self.terms), default=0)

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
    if isinstance(obj, numbers.Number):
        return constant(obj)
    raise TypeError(f"cannot interpret {obj!r} as a Symbol")


def constant(value):
    return _normal({(0, 0, 0): complex(value)})


def coordinate(i):
    """The ambient coordinate function x_i, i in {1,2,3}."""
    e = [0, 0, 0]
    e[i - 1] = 1
    return _normal({tuple(e): 1.0})


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
# Whitespace is insignificant.

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
    """Recursive descent over the grammar above.  Each production folds
    straight into its normal-form Symbol: a number is `constant`, x_i is
    `coordinate(i)`, and the operators are the Symbol ring operations,
    applied left to right as they are read."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open '(' and unary '-' around the current token

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        f = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected {val!r}", at)
        return f

    def expr(self):
        f = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            f = f + self.term() if self.take()[1] == "+" else f - self.term()
        return f

    def term(self):
        f = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            f = f * self.factor()
        return f

    def factor(self):
        f = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            nkind, nval, nat = self.take()
            if nkind != "num" or not nval.isdigit():
                raise SymbolSyntaxError("exponent must be an unsigned integer", nat)
            # more digits than the cap: refused before `int` reads them all
            digits = nval.lstrip("0") or "0"
            if len(digits) > len(str(MAX_SYMBOL_DEGREE)):
                raise CapacityError(f"a {len(digits)}-digit exponent exceeds the "
                                    f"symbol degree cap {MAX_SYMBOL_DEGREE}")
            f = f ** int(digits)
        return f

    def base(self):
        kind, val, at = self.take()
        if kind == "num":
            return constant(float(val))
        if kind == "ident":
            if val in ("x1", "x2", "x3"):
                return coordinate(int(val[1]))
            raise UnknownIdentifierError(f"unknown identifier {val!r}", at)
        if kind == "op" and val in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise SymbolSyntaxError(
                    f"'(' and unary '-' nest deeper than {MAX_NESTING_DEPTH}", at)
            f = self.expr() if val == "(" else -self.factor()
            if val == "(":
                kind, val, at = self.take()
                if kind != "op" or val != ")":
                    raise SymbolSyntaxError("expected ')'", at)
            self.depth -= 1
            return f
        found = repr(val) if val else "end of input"
        raise SymbolSyntaxError(
            f"expected a number, coordinate or '(' but found {found}", at)


# each '(' costs `_Parser` four stack frames; 100 fit Python's recursion limit
MAX_NESTING_DEPTH = 100

# under this bound on `coeff_l1` (and on the product of two symbols' norms,
# see cli) every operator, derivative and Laplacian the lab forms stays many
# decades below float overflow
COEFF_L1_BOUND = 1e250


def _bounded(f):
    """f, unless a coefficient is not finite or their l1 norm is above
    COEFF_L1_BOUND: then a SymbolSyntaxError.  abs() reads no non-finite one:
    of a complex nan, CPython 3.11 can raise an earlier overflow's error."""
    l1 = f.coeff_l1() if np.isfinite(list(f.terms.values())).all() else math.inf
    if not l1 <= COEFF_L1_BOUND:
        raise SymbolSyntaxError(
            f"coefficient l1 norm {l1:.3g} exceeds {COEFF_L1_BOUND:g}", 0)
    return f


def parse(text):
    """Parse an expression string straight into its normal-form Symbol (no
    intermediate tree; see `_Parser`).  Coefficients that `_bounded`
    refuses are a SymbolSyntaxError.  A product or power above
    MAX_SYMBOL_DEGREE is `Symbol`'s CapacityError, raised before it is
    formed.  '(' and unary '-' nested deeper than MAX_NESTING_DEPTH are a
    SymbolSyntaxError at the offending token."""
    return _bounded(_Parser(text).parse())


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
    return _normal(out)


def poisson_bracket(f, g):
    """{f,g} as the biderivation generated by {x_i,x_j} = c eps_ijk x_k,
    c = POISSON_CONSTANT.

    Well defined on the quotient ring because the sphere relation is a
    Casimir of this bracket; `btq calibrate` checks c by the spin identity
    (m+2) i [T_x1, T_x2] = T_{x1,x2}, exact at every level.
    """
    d = [partial(f, i) for i in (1, 2, 3)]
    e = [partial(g, i) for i in (1, 2, 3)]
    out = X3 * (d[0] * e[1] - d[1] * e[0]) \
        + X1 * (d[1] * e[2] - d[2] * e[1]) \
        + X2 * (d[2] * e[0] - d[0] * e[2])
    return out * POISSON_CONSTANT


def laplace_beltrami(f):
    """Laplacian of the metric g(X,Y) = omega(X, IY).

    Computed per homogeneous ambient monomial p of degree d through
    (laplacian_R3 p - d(d+1) p)|_sphere, then scaled by LAPLACE_SIGN
    LAPLACE_SCALE = 2: eigenvalue -2 l(l+1) on degree-l harmonics,
    e.g. x3 -> -4 x3 for the area-2pi sphere.
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
    return _normal(amb) * (LAPLACE_SIGN * LAPLACE_SCALE)


# -- first star-product bidifferential ---------------------------------------

C1_ORDERINGS = ("dzbar-dz", "dz-dzbar")


def c1_candidate(f, g, ordering):
    """First star-product coefficient candidate C1(f,g) in the named ordering.

    On the sphere, C1 = skew +- pairing: skew = -(i/c){f,g}, c =
    POISSON_CONSTANT, and pairing is the carre du champ of the Laplacian,
    (Delta(fg) - f Delta g - g Delta f)/(2 LAPLACE_SIGN LAPLACE_SCALE) =
    grad f . grad g - (x . grad f)(x . grad g), the tangential gradient
    pairing.  "dzbar-dz" is (1+z zbar)^2 (dzbar f)(dz g) = skew + pairing;
    "dz-dzbar" is -(1+z zbar)^2 (dz f)(dzbar g) = skew - pairing, its
    negated transpose; both satisfy C1(f,g) - C1(g,f) = -i {f,g}.  The
    constant SELECTED_C1_ORDERING, "dz-dzbar", is the Berezin-Toeplitz one:
    criterion 5 checks that its thm3 N=2 slope lies in [1.8, 2.2] and that
    that of "dzbar-dz", the non-decaying regression fixture, does not.
    """
    if ordering not in C1_ORDERINGS:
        raise ValueError(f"ordering must be one of {C1_ORDERINGS}")
    lap = laplace_beltrami
    pairing = (lap(f * g) - f * lap(g) - g * lap(f)) \
        * (0.5 / (LAPLACE_SIGN * LAPLACE_SCALE))
    skew = poisson_bracket(f, g) * (-1j / POISSON_CONSTANT)
    return skew + pairing if ordering == "dzbar-dz" else skew - pairing


SELECTED_C1_ORDERING = "dz-dzbar"
REJECTED_C1_ORDERING = "dzbar-dz"


# -- evaluation ----------------------------------------------------------------


def eval_ambient(f, x1, x2, x3):
    """f at ambient coordinates (scalars or arrays), in their broadcast
    shape: the one evaluator of a Symbol.  Terms are added in sorted order,
    each its coefficient times its factors left to right; each power x_i^e
    is taken once, x_i^0 is skipped and x_i^1 is x_i.  With no nonzero
    imaginary part in the coefficients, f is evaluated in real arithmetic:
    at real coordinates, the real part of the complex sum, bit for bit up
    to the sign of a zero."""
    x, powers, out = (x1, x2, x3), {}, None
    real = not any(v.imag for v in f.terms.values())
    for exps, v in sorted(f.terms.items()):
        t = v.real if real else v
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = x[i] if e == 1 else x[i] ** e
                t = t * powers[i, e]
        out = t if out is None else out + t
    shape = np.broadcast(x1, x2, x3).shape
    if out is None:
        return np.zeros(shape)
    return out if np.shape(out) == shape else np.broadcast_to(out, shape)


Symbol.__call__ = eval_ambient


def evaluate(f, p):
    """Exact evaluation at a SpherePoint (chart independent)."""
    return complex(f(*p.ambient()))


# -- serialization -------------------------------------------------------------


def symbol_to_json(f):
    """{"terms":[{"e":[a,b,c],"re":r,"im":i}, ...]} in sorted exponent order."""
    return {"terms": [{"e": list(e), "re": c.real, "im": c.imag}
                      for e, c in sorted(f.terms.items())]}


def symbol_from_json(obj):
    """Inverse of `symbol_to_json`; a term above MAX_SYMBOL_DEGREE is the
    CapacityError `Symbol` raises before reducing anything.  An "e" that is not
    three nonnegative integers (bools refused) or repeats an earlier one is
    a SymbolSyntaxError at its term's index, and coefficients that `parse`
    refuses (`_bounded`) are a SymbolSyntaxError too."""
    terms = {}
    for i, t in enumerate(obj["terms"]):
        e = t["e"]
        if not (isinstance(e, (list, tuple)) and len(e) == 3
                and all(type(k) is int and k >= 0 for k in e)):
            raise SymbolSyntaxError(
                f"exponents {e!r} are not three nonnegative integers", i)
        if tuple(e) in terms:
            raise SymbolSyntaxError(f"exponents {e!r} repeat an earlier term", i)
        terms[tuple(e)] = complex(t["re"], t["im"])
    return _bounded(Symbol(terms))
