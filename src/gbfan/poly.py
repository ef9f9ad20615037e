"""Sparse polynomials over Z_p with pluggable monomial orders.

Exponent vectors are plain integer tuples.  Monomial orders supply a sort
key, so ascending key order is ascending monomial order; every key is
injective on exponent vectors, which makes each order strict and total.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import (
    DimensionMismatch,
    InconsistentMarking,
    ModulusMismatch,
    PolySyntaxError,
)
from .field import int_tuple, is_prime


def divides(u, v):
    """Coordinate-wise divisibility of exponent vectors."""
    return all(a <= b for a, b in zip(u, v))


class MonomialOrder:
    """Base class for total orders on exponent vectors."""

    def key(self, u):
        raise NotImplementedError

    def compare(self, u, v):
        """Return -1, 0 or 1 as u is below, equal to, or above v."""
        if len(u) != len(v):
            raise DimensionMismatch(f"exponent lengths {len(u)} and {len(v)}")
        ku, kv = self.key(tuple(u)), self.key(tuple(v))
        return (ku > kv) - (ku < kv)

    def __eq__(self, other):
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self):
        return hash((type(self).__name__, self._params()))

    def _params(self):
        return ()


def _check_permutation(permutation):
    perm = int_tuple(permutation, "permutation")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
    return perm


class LexOrder(MonomialOrder):
    """Lexicographic order; the permutation lists variables by precedence."""

    def __init__(self, permutation=None):
        self.permutation = None if permutation is None else _check_permutation(permutation)

    def key(self, u):
        if self.permutation is None:
            return tuple(u)
        if len(u) != len(self.permutation):
            raise DimensionMismatch(
                f"exponent length {len(u)} against permutation of {len(self.permutation)}"
            )
        return tuple(u[i] for i in self.permutation)

    def _params(self):
        return (self.permutation,)

    def __repr__(self):
        return f"LexOrder({self.permutation})" if self.permutation else "LexOrder()"


class GrLexOrder(MonomialOrder):
    """Total degree first, lexicographic tie-break."""

    def key(self, u):
        return (sum(u), tuple(u))

    def __repr__(self):
        return "GrLexOrder()"


class GrevLexOrder(MonomialOrder):
    """Total degree first, reverse lexicographic tie-break."""

    def key(self, u):
        return (sum(u), tuple(-e for e in reversed(u)))

    def __repr__(self):
        return "GrevLexOrder()"


class WeightOrder(MonomialOrder):
    """Order by a strictly positive rational weight vector.

    Ties are broken lexicographically through the tie permutation, which
    defaults to x1 above x2 above the rest.  The empty vector orders the
    one monomial in no variables.
    """

    def __init__(self, weights, tie=None):
        ws = []
        for w in weights:
            f = Fraction(w)
            if f <= 0:
                raise ValueError(f"weights must be positive, got {w}")
            ws.append(int(f) if f.denominator == 1 else f)
        self.weights = tuple(ws)
        self.tie = (
            tuple(range(len(ws))) if tie is None else _check_permutation(tie)
        )
        if len(self.tie) != len(ws):
            raise ValueError("tie permutation length differs from weight length")
        self._identity_tie = self.tie == tuple(range(len(ws)))

    def key(self, u):
        if len(u) != len(self.weights):
            raise DimensionMismatch(
                f"exponent length {len(u)} against weight vector of {len(self.weights)}"
            )
        dot = sum(map(mul, self.weights, u))
        if self._identity_tie:
            return (dot, tuple(u))
        return (dot, tuple(u[i] for i in self.tie))

    def _params(self):
        return (self.weights, self.tie)

    def __repr__(self):
        return f"WeightOrder({list(self.weights)}, tie={list(self.tie)})"


def compare(order, u, v):
    """Three-way comparison of exponent vectors under an order."""
    return order.compare(u, v)


class Polynomial:
    """Sparse polynomial over Z_p in n variables.

    Terms map exponent tuples to coefficients in [1, p); the zero
    polynomial stores no terms, so equal polynomials are structurally
    equal.

    Example
    -------
    >>> f = Polynomial(3, 2, {(1, 0): 1, (2, 0): 2})   # x1 + 2*x1^2
    >>> f.evaluate((2, 1))
    1
    """

    __slots__ = ("p", "n", "terms")

    def __init__(self, p, n, terms=None):
        if not is_prime(p):
            raise ValueError(f"p must be prime: {p}")
        if n < 0:
            raise ValueError(f"n must be nonnegative: {n}")
        tidy = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exps, coeff in items:
                e = int_tuple(exps, "exponents")
                if len(e) != n:
                    raise DimensionMismatch(
                        f"exponent {e} has length {len(e)}, expected {n}"
                    )
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = (tidy.get(e, 0) + int_tuple((coeff,), "coefficients")[0]) % p
                if c:
                    tidy[e] = c
                elif e in tidy:
                    del tidy[e]
        self.p = p
        self.n = n
        self.terms = tidy

    @classmethod
    def _from_reduced(cls, p, n, terms):
        """A polynomial that takes a dict of reduced terms as it is: length-n
        tuples of nonnegative exponents, each with a coefficient in [1, p).

        For terms the package built itself; nothing is checked or copied.
        """
        f = object.__new__(cls)
        f.p = p
        f.n = n
        f.terms = terms
        return f

    @classmethod
    def zero(cls, p, n):
        return cls(p, n)

    @classmethod
    def constant(cls, p, n, c):
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def variable(cls, p, n, i):
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} outside 0..{n - 1}")
        exps = tuple(int(j == i) for j in range(n))
        return cls(p, n, {exps: 1})

    def _check_compatible(self, other):
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"mixed arities {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.p, self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Polynomial(p, self.n, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return Polynomial(p, self.n, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.p, self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.p
            return Polynomial(
                self.p, self.n, {e: c * v for e, v in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return Polynomial(p, self.n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {exponent}")
        out = Polynomial.constant(self.p, self.n, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, point):
        """Exact value at a point of Z_p^n."""
        v = int_tuple(point, "coordinates")
        if len(v) != self.n:
            raise DimensionMismatch(f"point {v} has length {len(v)}, expected {self.n}")
        p = self.p
        total = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for vi, ei in zip(v, exps):
                if ei:
                    val = val * pow(vi, ei, p) % p
                    if not val:
                        break
            total = (total + val) % p
        return total

    def leading_exponent(self, order):
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.p == other.p
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial(mod {self.p}: {format_polynomial(self)})"


class MarkedPolynomial:
    """A polynomial with a designated monic leading term."""

    __slots__ = ("poly", "leading")

    def __init__(self, poly, leading):
        leading = int_tuple(leading, "exponents")
        if poly.terms.get(leading) != 1:
            raise ValueError(
                f"marked term {leading} must appear with coefficient 1"
            )
        self.poly = poly
        self.leading = leading

    @classmethod
    def mark(cls, poly, order):
        """Mark at the order-maximal term, rescaling monic."""
        lead = poly.leading_exponent(order)
        lc = poly.terms[lead]
        if lc != 1:
            poly = poly * pow(lc, -1, poly.p)
        return cls(poly, lead)

    def __eq__(self, other):
        return (
            isinstance(other, MarkedPolynomial)
            and self.poly == other.poly
            and self.leading == other.leading
        )

    def __hash__(self):
        return hash((self.poly, self.leading))

    def __repr__(self):
        return f"MarkedPolynomial({self.poly!r} @ {self.leading})"


def evaluate(f, point):
    """Exact value of f at a point of Z_p^n."""
    return f.evaluate(point)


def normal_form(f, basis, order):
    """Remainder of f under marked reduction by a basis.

    The largest reducible term under the order is rewritten first, using
    the first marked polynomial in the given sequence whose leading term
    divides it; no term of the result is divisible by any marked term.
    """
    for g in basis:
        if g.poly.leading_exponent(order) != g.leading:
            raise InconsistentMarking(
                f"marked term {g.leading} is not maximal in {g.poly!r}"
            )
    p, n = f.p, f.n
    rem = dict(f.terms)
    while True:
        target = None
        for u in sorted(rem, key=order.key, reverse=True):
            for g in basis:
                if divides(g.leading, u):
                    target = (u, g)
                    break
            if target:
                break
        if target is None:
            break
        u, g = target
        c = rem[u]
        shift = tuple(a - b for a, b in zip(u, g.leading))
        for e, ce in g.poly.terms.items():
            moved = tuple(a + b for a, b in zip(e, shift))
            v = (rem.get(moved, 0) - c * ce) % p
            if v:
                rem[moved] = v
            elif moved in rem:
                del rem[moved]
    return Polynomial(p, n, rem)


def parse_polynomial(text, p, n):
    """Parse polynomial text over variables x1..xn with coefficients mod p.

    Grammar: terms joined by '+'; a term is an optional leading integer
    coefficient and '*'-separated factors; a factor is a variable with an
    optional '^' exponent.  Integers are written in the digits 0-9.
    Whitespace is ignored.  Subtraction is not part of the grammar;
    negative displays are encoded with mod-p coefficients.  Per-variable
    exponents above p are rejected.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    pos = 0
    size = len(text)

    def skip_ws():
        nonlocal pos
        while pos < size and text[pos].isspace():
            pos += 1

    def read_int():
        nonlocal pos
        start = pos
        while pos < size and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise PolySyntaxError("expected an integer", start)
        return int(text[start:pos])

    def read_factor():
        nonlocal pos
        start = pos
        if pos >= size or text[pos] != "x":
            raise PolySyntaxError("expected a variable", pos)
        pos += 1
        idx = read_int()
        if not 1 <= idx <= n:
            raise PolySyntaxError(f"variable x{idx} outside x1..x{n}", start)
        exp = 1
        save = pos
        skip_ws()
        if pos < size and text[pos] == "^":
            pos += 1
            skip_ws()
            exp = read_int()
        else:
            pos = save
        return idx - 1, exp

    terms = {}

    def read_term():
        nonlocal pos
        skip_ws()
        start = pos
        coeff = 1
        exps = [0] * n
        if pos < size and "0" <= text[pos] <= "9":
            coeff = read_int()
        elif pos < size and text[pos] == "x":
            i, e = read_factor()
            exps[i] += e
        else:
            raise PolySyntaxError("expected a coefficient or a variable", pos)
        while True:
            save = pos
            skip_ws()
            if pos < size and text[pos] == "*":
                pos += 1
                skip_ws()
                i, e = read_factor()
                exps[i] += e
            else:
                pos = save
                break
        for i, e in enumerate(exps):
            if e > p:
                raise PolySyntaxError(
                    f"exponent {e} of x{i + 1} exceeds the cap {p}", start
                )
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + coeff) % p

    read_term()
    while True:
        skip_ws()
        if pos >= size:
            break
        if text[pos] != "+":
            raise PolySyntaxError("expected '+'", pos)
        pos += 1
        read_term()
    return Polynomial(p, n, terms)


@lru_cache(maxsize=4096)
def format_monomial(u, names=None):
    """Render the monomial with exponent vector u, '1' for the constant.

    Factors are joined by '*'; '^' appears only on exponents above 1.
    `names` is a tuple of variable names, x1..xn when None.
    """
    factors = []
    for i, e in enumerate(u):
        if e:
            name = names[i] if names else f"x{i + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def format_polynomial(f, order=None, names=None):
    """Render a polynomial with terms in strictly descending order.

    Coefficients print reduced to [1, p); a unit coefficient is omitted
    except on the constant term; monomials print by `format_monomial`.
    """
    if order is None:
        order = GrevLexOrder()
    if not f.terms:
        return "0"
    if names is not None:
        names = tuple(names)
    parts = []
    for u in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[u]
        if not any(u):
            parts.append(str(c))
        elif c == 1:
            parts.append(format_monomial(u, names))
        else:
            parts.append(f"{c}*{format_monomial(u, names)}")
    return " + ".join(parts)
