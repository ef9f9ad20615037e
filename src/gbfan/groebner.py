"""Reduced Groebner bases of vanishing ideals of finite point sets.

The basis for one monomial order comes from border-driven
Buchberger-Moeller interpolation over the points: monomials are tested in
ascending order, each only once it lies on the border of the staircase
grown so far, so the work grows with the number of points and variables
and not with p.  The complete collection over all orders (the algebraic
fan) comes from a depth-first walk over the basic staircases alone,
pruned as soon as the value vectors of a partial staircase become
dependent.  Each is tested for coherence with a strictly positive weight
vector, using exact rational inequality elimination, and its basis is
read off the interpolated corner tails, under a certificate that each
tail lies below its corner in the witness order.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import BudgetExceeded, EmptyPointSet
from .field import gf2_reduce, modp_reduce, modp_solve_columns
from .points import OrderIdealSet, walk_staircases
from .poly import (
    MarkedPolynomial,
    Polynomial,
    WeightOrder,
    divides,
    format_polynomial,
    normal_form,
)


class ReducedGroebnerBasis:
    """Monic, inter-reduced basis with its standard-monomial staircase."""

    __slots__ = ("order", "generators", "standard_monomials", "p", "n")

    def __init__(self, order, generators, standard_monomials):
        self.order = order
        self.generators = tuple(generators)
        self.standard_monomials = standard_monomials
        self.p = standard_monomials.p
        self.n = standard_monomials.n

    def polynomials(self):
        return [g.poly for g in self.generators]

    def leading_exponents(self):
        return [g.leading for g in self.generators]

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGroebnerBasis)
            and self.order == other.order
            and self.generators == other.generators
            and self.standard_monomials == other.standard_monomials
        )

    def __hash__(self):
        return hash((self.order, self.generators, self.standard_monomials))

    def __repr__(self):
        gens = ", ".join(format_polynomial(g.poly, self.order) for g in self.generators)
        return f"ReducedGroebnerBasis[{gens}]"


@dataclass(frozen=True)
class FanEntry:
    standard_monomials: OrderIdealSet
    basis: ReducedGroebnerBasis
    witness_weight: tuple

    def to_json(self):
        return {
            "sm": [list(u) for u in self.standard_monomials.points],
            "gb": [
                format_polynomial(g.poly, self.basis.order)
                for g in self.basis.generators
            ],
            "witness_weight": list(self.witness_weight),
        }


class AlgebraicFan:
    """All distinct reduced bases of one vanishing ideal, keyed by staircase."""

    __slots__ = ("points", "entries")

    def __init__(self, points, entries):
        self.points = points
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def staircases(self):
        return [e.standard_monomials for e in self.entries]

    def to_json(self):
        return {
            "points": self.points.to_json(),
            "entries": [e.to_json() for e in self.entries],
        }

    def __repr__(self):
        return f"AlgebraicFan({len(self.entries)} bases of {self.points!r})"


def bm_reduced_gb(points, order):
    """Reduced Groebner basis of the vanishing ideal, for one order.

    Border-driven Buchberger-Moeller interpolation.  Candidate monomials
    wait in a queue ordered by the monomial order, starting from the
    constant monomial 1.  The smallest candidate is popped; a multiple of a
    committed leading term is dropped.  Otherwise its vector of values over
    the points either extends the span of the standard monomials found so
    far, and its n successors u*x_j become candidates, or it produces one
    generator, the monomial minus its interpolant over the standard
    monomials.  A monomial is tested only after every divisor of it has
    been found standard, so the leading terms are the corners of the
    staircase and the result is monic and inter-reduced by construction.

    A successor's values are its parent's values times one coordinate of
    each point, so at most 1 + n*|V| monomials are visited and the work
    does not depend on p.
    """
    if len(points) == 0:
        raise EmptyPointSet("cannot interpolate an empty point set")
    p, n = points.p, points.n
    pts = points.points
    m = len(pts)
    one = (0,) * n
    border = [(order.key(one), one, [1] * m)]
    queued = {one}

    sm = []
    basis = []
    row_combos = []
    generators = []
    leads = []

    while border:
        _, u, values = heapq.heappop(border)
        skip = False
        for t in leads:
            if divides(t, u):
                skip = True
                break
        if skip:
            continue
        residual = list(values)
        acc = [0] * len(sm)
        for c, combo in zip(modp_reduce(residual, basis, p), row_combos):
            if c:
                for j in range(len(combo)):
                    acc[j] = (acc[j] + c * combo[j]) % p
        piv = next((i for i, x in enumerate(residual) if x), None)
        if piv is None:
            terms = {u: 1}
            for j, cj in enumerate(acc):
                if cj:
                    terms[sm[j]] = p - cj
            generators.append(MarkedPolynomial(Polynomial(p, n, terms), u))
            leads.append(u)
        else:
            inv = pow(residual[piv], -1, p)
            basis.append((piv, [x * inv % p for x in residual]))
            combo = [(-x * inv) % p for x in acc]
            combo.append(inv % p)
            row_combos.append(combo)
            sm.append(u)
            for j in range(n):
                w = u[:j] + (u[j] + 1,) + u[j + 1 :]
                if w not in queued:
                    queued.add(w)
                    succ = [x * v[j] % p for x, v in zip(values, pts)]
                    heapq.heappush(border, (order.key(w), w, succ))

    if len(sm) != m:
        raise RuntimeError("standard monomials do not span the point space")
    return ReducedGroebnerBasis(
        order=order,
        generators=generators,
        standard_monomials=OrderIdealSet(p, n, sm),
    )


def _corners(members, n):
    """Minimal exponent vectors outside a staircase."""
    inside = set(members)
    cand = set()
    for u in members:
        for j in range(n):
            w = u[:j] + (u[j] + 1,) + u[j + 1 :]
            if w not in inside:
                cand.add(w)
    corners = [
        w
        for w in cand
        if all(
            w[:j] + (w[j] - 1,) + w[j + 1 :] in inside
            for j in range(n)
            if w[j]
        )
    ]
    return sorted(corners)


def _normalize_row(coeffs, rhs):
    g = 0
    for x in coeffs:
        g = gcd(g, abs(x))
    g = gcd(g, abs(rhs))
    if g > 1:
        coeffs = tuple(x // g for x in coeffs)
        rhs = rhs // g
    return coeffs, rhs


def _positive_weight_witness(diffs, nvars):
    """Integer w with every coordinate positive and w.d > 0 for each given
    integer difference d, or None when no such vector exists.

    Strictness is encoded as margin >= 1; for homogeneous integer systems
    this is equivalent to strict positivity under scaling.  Variables are
    eliminated successively, then a witness is rebuilt by back-substitution
    and rescaled to the smallest integer vector on its ray.
    """
    rows = set()
    for i in range(nvars):
        unit = tuple(int(j == i) for j in range(nvars))
        rows.add((unit, 1))
    for d in diffs:
        rows.add(_normalize_row(tuple(d), 1))

    steps = []
    current = rows
    remaining = list(range(nvars))
    while remaining:
        counts = {}
        for var in remaining:
            pos = sum(1 for a, _ in current if a[var] > 0)
            neg = sum(1 for a, _ in current if a[var] < 0)
            counts[var] = pos * neg
        var = min(remaining, key=lambda v: (counts[v], v))
        steps.append((var, current))
        pos_rows = [(a, b) for a, b in current if a[var] > 0]
        neg_rows = [(a, b) for a, b in current if a[var] < 0]
        zero_rows = {(a, b) for a, b in current if a[var] == 0}
        new_rows = set(zero_rows)
        for ap, bp in pos_rows:
            for an, bn in neg_rows:
                mp, mn = -an[var], ap[var]
                coeffs = tuple(mp * x + mn * y for x, y in zip(ap, an))
                rhs = mp * bp + mn * bn
                if not any(coeffs):
                    if rhs > 0:
                        return None
                    continue
                new_rows.add(_normalize_row(coeffs, rhs))
        for a, b in new_rows:
            if not any(a) and b > 0:
                return None
        current = new_rows
        remaining.remove(var)

    for a, b in current:
        if b > 0:
            return None

    values = {}
    for var, system in reversed(steps):
        lower = None
        upper = None
        for a, b in system:
            av = a[var]
            if av == 0:
                continue
            rest = b - sum(
                Fraction(a[j]) * values[j] for j in values if a[j]
            )
            bound = Fraction(rest, av)
            if av > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is None:
            lower = upper if upper is not None else Fraction(1)
        values[var] = lower

    witness = [values[i] for i in range(nvars)]
    scale = lcm(*(w.denominator for w in witness)) if witness else 1
    ints = [int(w * scale) for w in witness]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    if any(x <= 0 for x in ints):
        raise RuntimeError("witness reconstruction produced a nonpositive weight")
    for d in diffs:
        if sum(w * x for w, x in zip(ints, d)) <= 0:
            raise RuntimeError("witness reconstruction violated a constraint")
    return tuple(ints)


class _Values(dict):
    """Value vector over the points of each monomial looked up.

    A monomial's vector is that of a divisor times one coordinate column,
    so each costs one pass over the points and none calls eval_monomial.
    Over Z_p a vector is a tuple; for the Z_2 walk it is a bit mask, bit i
    standing for point i, and the product is a bitwise and.
    """

    def __init__(self, points, masks=False):
        super().__init__()
        n, m = points.n, len(points)
        columns = list(zip(*points.points))
        if masks:
            self.columns = [sum(c << i for i, c in enumerate(col)) for col in columns]
            self[(0,) * n] = (1 << m) - 1
        else:
            self.columns = columns
            self.p = points.p
            self[(0,) * n] = (1,) * m
        self.masks = masks

    def __missing__(self, u):
        j = next(j for j, e in enumerate(u) if e)
        parent = self[u[:j] + (u[j] - 1,) + u[j + 1 :]]
        if self.masks:
            vec = parent & self.columns[j]
        else:
            p = self.p
            vec = tuple(x * c % p for x, c in zip(parent, self.columns[j]))
        self[u] = vec
        return vec


def _basic_staircases(points):
    """Every staircase of |V| monomials with an invertible evaluation matrix.

    The staircase walk, in the lex order of `enumerate_order_ideals`, where
    a monomial joins only when its value vector is independent of the
    members' vectors: those are kept as echelon pivots, pushed on the way
    down and popped on the way back.  Every subset of a basic staircase has
    independent vectors, so a dependent branch is dropped at once.  Yields
    member tuples.
    """
    p, n, m = points.p, points.n, len(points)
    if p == 2:
        values = _Values(points, masks=True)
        pivots = {}

        def push(u):
            mask = gf2_reduce(values[u], pivots)
            if not mask:
                return None
            key = mask.bit_length() - 1
            pivots[key] = mask
            return key

        pop = pivots.pop
    else:
        values = _Values(points)
        basis = []

        def push(u):
            vec = list(values[u])
            modp_reduce(vec, basis, p)
            piv = next((i for i, x in enumerate(vec) if x), None)
            if piv is None:
                return None
            inv = pow(vec[piv], -1, p)
            basis.append((piv, [x * inv % p for x in vec]))
            return piv

        def pop(_):
            basis.pop()

    return walk_staircases(p, n, m, push, pop)


def _basic_staircase_count(points, limit=None):
    count = 0
    for _ in _basic_staircases(points):
        count += 1
        if count == limit:
            break
    return count


def is_unique_gb(points):
    """Whether the vanishing ideal has a single reduced basis.

    Returns (unique, basic staircase count): the ideal is unique exactly
    when only one staircase of the right size has an invertible
    evaluation matrix, which avoids any feasibility solving.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    count = _basic_staircase_count(points)
    return count == 1, count


def all_reduced_gbs(points, max_box=64, max_points=16):
    """Every distinct reduced Groebner basis of the vanishing ideal.

    Candidates are the basic staircases of size |V|, from the pruned walk
    over [0, min(p, |V|))^n; `max_box` bounds the size of that box.  Each
    corner c of a candidate is interpolated over the staircase, and the
    candidate is kept when a strictly positive weight vector makes every
    corner larger than each term of its tail.  The basis is then read off
    those tails, one generator c - tail(c) per corner, sorted by the
    witness order.  A certificate checks that each tail term lies below
    its corner in that order: the generators vanish on the points and lead
    at the corners, so the standard monomials are exactly the staircase.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    p, n, m = points.p, points.n, len(points)
    box = min(p, m) ** n
    if box > max_box:
        raise BudgetExceeded(f"box size {box} exceeds the budget {max_box}")
    if m > max_points:
        raise BudgetExceeded(f"{m} points exceed the budget {max_points}")
    values = _Values(points)
    entries = []
    for members in _basic_staircases(points):
        corners = _corners(members, n)
        rows = list(zip(*(values[u] for u in members)))
        tails = modp_solve_columns(rows, [values[c] for c in corners], p)
        diffs = []
        for corner, tail in zip(corners, tails):
            for u, coeff in zip(members, tail):
                if coeff:
                    diffs.append(tuple(a - b for a, b in zip(corner, u)))
        witness = _positive_weight_witness(diffs, n)
        if witness is None:
            continue
        order = WeightOrder(witness)
        key = {u: order.key(u) for u in (*members, *corners)}
        generators = []
        for corner, tail in sorted(zip(corners, tails), key=lambda ct: key[ct[0]]):
            terms = {corner: 1}
            for u, coeff in zip(members, tail):
                if coeff:
                    if key[u] >= key[corner]:
                        raise RuntimeError(
                            f"tail term {u} does not lie below its corner {corner}"
                        )
                    terms[u] = p - coeff
            generators.append(MarkedPolynomial(Polynomial(p, n, terms), corner))
        staircase = OrderIdealSet(p, n, members)
        basis = ReducedGroebnerBasis(order, generators, staircase)
        entries.append(FanEntry(staircase, basis, witness))
    entries.sort(key=lambda e: e.standard_monomials.points)
    return AlgebraicFan(points, entries)


def universal_basis(points, max_box=64, max_points=16):
    """Union of the generators of every reduced basis.

    Elements are marked polynomials; the same polynomial marked at two
    different leading terms contributes twice.
    """
    fan = all_reduced_gbs(points, max_box=max_box, max_points=max_points)
    seen = set()
    out = []
    for entry in fan.entries:
        for g in entry.basis.generators:
            if g not in seen:
                seen.add(g)
                out.append(g)
    out.sort(key=lambda g: (g.leading, sorted(g.poly.terms.items())))
    return out


def transport_gb(basis, shift):
    """Carry a reduced basis across a linear shift of its points.

    A polynomial vanishes on the shifted points exactly when its
    composition with the shift vanishes on the originals, so each
    generator passes through the inverse substitution, is rescaled monic
    at its preserved leading term, and the tails are inter-reduced.
    """
    from .shifts import apply_shift_to_polynomial, invert_shift

    inv = invert_shift(shift)
    moved = []
    for g in basis.generators:
        f = apply_shift_to_polynomial(inv, g.poly)
        lc = f.terms.get(g.leading)
        if lc is None:
            raise RuntimeError("leading term lost during substitution")
        if lc != 1:
            f = f * pow(lc, -1, f.p)
        moved.append(MarkedPolynomial(f, g.leading))
    reduced = []
    for i, g in enumerate(moved):
        others = moved[:i] + moved[i + 1 :]
        r = normal_form(g.poly, others, basis.order)
        reduced.append(MarkedPolynomial(r, g.leading))
    return ReducedGroebnerBasis(
        order=basis.order,
        generators=reduced,
        standard_monomials=basis.standard_monomials,
    )


def ideal_membership(f, points):
    """Whether f vanishes at every point, i.e. lies in the vanishing ideal."""
    if f.p != points.p:
        raise ValueError(f"polynomial mod {f.p} against points mod {points.p}")
    if f.n != points.n:
        raise ValueError(
            f"polynomial in {f.n} variables against points in {points.n}"
        )
    return all(f.evaluate(v) == 0 for v in points.points)


def verify_reduced_gb(basis, points):
    """Check the structural contract of a reduced basis against its points.

    Raises ValueError on the first violation: markings must be monic and
    order-maximal, generators inter-reduced and vanishing on the points,
    and the staircase must have exactly one monomial per point, none of
    them divisible by a leading term.
    """
    order = basis.order
    leads = basis.leading_exponents()
    for g in basis.generators:
        if g.poly.terms.get(g.leading) != 1:
            raise ValueError(f"generator not monic at {g.leading}")
        if g.poly.leading_exponent(order) != g.leading:
            raise ValueError(f"marked term {g.leading} is not order-maximal")
        for v in points.points:
            if g.poly.evaluate(v) != 0:
                raise ValueError(f"generator {g!r} does not vanish at {v}")
    for i, g in enumerate(basis.generators):
        for j, lead in enumerate(leads):
            if i == j:
                continue
            for term in g.poly.terms:
                if divides(lead, term):
                    raise ValueError(
                        f"term {term} of generator {i} divisible by leading term {lead}"
                    )
    if len(basis.standard_monomials) != len(points):
        raise ValueError("staircase size differs from the point count")
    for u in basis.standard_monomials.points:
        for lead in leads:
            if divides(lead, u):
                raise ValueError(f"standard monomial {u} divisible by {lead}")
