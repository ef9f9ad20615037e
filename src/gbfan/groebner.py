"""Reduced Groebner bases of vanishing ideals of finite point sets.

The basis for one monomial order comes from border-driven
Buchberger-Moeller interpolation over the points: monomials are tested in
ascending order, each only once it lies on the border of the staircase
grown so far, so the work grows with the number of points and variables
and not with p.  The complete collection over all orders (the algebraic
fan) comes from a depth-first walk over the basic staircases alone,
pruned as soon as the value vectors of a partial staircase become
dependent.  Both run on the one interpolation kernel, `points._echelon`,
whose echelon rows carry their combinations of the members: reducing a
dependent monomial's value vector reads off a generator of
`bm_reduced_gb`, or a corner's tail in the walk, and reducing a target
vector of values over the points reads off its interpolant.  A staircase
is kept when a strictly positive weight vector makes every corner larger
than its tail terms.  Its corners come from the walk's own subset mask,
and its tails are read corner by corner, each corner-minus-tail
difference an int in base 2q + 1 over the walk's box [0, q)^n: a pair of
opposite differences refutes the staircase as soon as the second is
read, before the remaining tails and before any tuple is built, and
otherwise integer Fourier-Motzkin elimination decides it, on the same
differences as tuples, and rebuilds the witness.  The
elimination drops each derived row that Chernikov's rule shows implied,
and refuses, with BudgetExceeded, a step that would pair more than
FM_MAX_PAIRS rows.  One generator, `_coherent_staircases`, runs the
walk, reads the tails, makes both tests and yields the staircases that
pass, in the walk's lex order: `fan_size` only counts them, for callers
that need the number of bases, `all_reduced_gbs` reads each basis off
its tails, under a certificate that each tail lies below its corner in
the witness order, and `fds.enumerate_models` hands it the data's output
columns as targets and reads every model off the same rows, with no
second solve.
"""

import heapq
from dataclasses import dataclass
from math import gcd
from operator import mul, sub

from .errors import BudgetExceeded, EmptyPointSet
from .points import (
    OrderIdealSet,
    _box,
    _digit_masks,
    _echelon,
    lex_unique,
    walk_staircases,
)
from .poly import (
    MarkedPolynomial,
    Polynomial,
    WeightOrder,
    divides,
    format_polynomial,
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

    def to_json(self, names=None):
        return {
            "sm": [list(u) for u in self.standard_monomials.points],
            "gb": [
                format_polynomial(g.poly, self.basis.order, names)
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

    def to_json(self, names=None):
        return {
            "points": self.points.to_json(),
            "entries": [e.to_json(names) for e in self.entries],
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

    Value vectors and echelon rows come from `points._echelon`: a
    monomial is standard when it pushes a row, and the rows carry their
    combinations of the standard monomials, so a dependent monomial's
    interpolant is read off them.  At most 1 + n*|V| monomials are
    visited and the work does not depend on p.
    """
    if len(points) == 0:
        raise EmptyPointSet("cannot interpolate an empty point set")
    p, n, m = points.p, points.n, len(points)
    push, _, vector, coefficients, _ = _echelon(points)
    one = (0,) * n
    border = [(order.key(one), one)]
    queued = {one}
    sm = []
    generators = []
    leads = []

    while border:
        _, u = heapq.heappop(border)
        if any(divides(t, u) for t in leads):
            continue
        # m members span every vector, and have no combination slot to spare
        if len(sm) < m and push(u) is not None:
            sm.append(u)
            for j in range(n):
                w = u[:j] + (u[j] + 1,) + u[j + 1 :]
                if w not in queued:
                    queued.add(w)
                    heapq.heappush(border, (order.key(w), w))
        else:
            # u minus its interpolant over the members vanishes on the points
            terms = {u: 1}
            for v, c in zip(sm, coefficients(vector(u))):
                if c:
                    terms[v] = p - c
            poly = Polynomial._from_reduced(p, n, terms)
            generators.append(MarkedPolynomial(poly, u))
            leads.append(u)

    if len(sm) != m:
        raise RuntimeError("standard monomials do not span the point space")
    return ReducedGroebnerBasis(
        order=order,
        generators=generators,
        standard_monomials=OrderIdealSet(p, n, sm),
    )


def _corner_reader(p, n, m):
    """The corners of the staircases that `walk_staircases(p, n, m)`
    yields, read off their masks, and a code for each monomial of the
    walk's box: (corners, codes).

    A code is the value of an exponent vector's digits in base 2q + 1,
    where q = max(1, min(p, m)) is the side of the walk's box [0, q)^n.
    A corner's exponents lie in [0, q] and a member's in [0, q), so each
    entry of a difference c - u lies in [-q, q]: its code is code(c) -
    code(u), distinct differences have distinct codes, and -d has the
    code of d negated.  `codes[bit]` is the code of the monomial at that
    bit of a walk mask.

    `corners(chosen)` lists (corner, code) in sorted order.  Inside the
    box, w is a corner when it is not chosen and, for every j, w_j = 0 or
    w/x_j is chosen: the walk's candidate formula over the whole box,
    which `full` bounds when n = 0.  Outside it the corners are the pure
    powers q e_j with (q - 1) e_j chosen and no others, since every
    w - e_j of a corner w is a member.  Bits read highest first come in
    lex order, so only a pure power calls for a sort.
    """
    q = max(1, min(p, m))
    digits = _digit_masks(q, n)
    box = _box(q, n)
    top = len(box) - 1
    full = (1 << len(box)) - 1
    base = 2 * q + 1
    codes = []
    for v in reversed(box):  # bit b is lex index top - b
        code = 0
        for x in v:
            code = code * base + x
        codes.append(code)
    # per j: the bit of (q - 1) e_j, the corner q e_j and its code
    powers = []
    for j, (width, _) in enumerate(digits):
        power = (0,) * j + (q,) + (0,) * (n - 1 - j)
        powers.append((top - (q - 1) * width, power, q * base ** (n - 1 - j)))

    def corners(chosen):
        free = full & ~chosen
        for width, masks in digits:
            free &= masks[0] | (chosen & ~masks[-1]) >> width
        out = []
        while free:
            bit = free.bit_length() - 1
            free ^= 1 << bit
            out.append((box[top - bit], codes[bit]))
        outside = [(power, code) for bit, power, code in powers if chosen >> bit & 1]
        if outside:
            out += outside
            out.sort()
        return out

    return corners, codes


# the most row pairs one Fourier-Motzkin elimination step may combine
FM_MAX_PAIRS = 10**6


def _positive_weight_witness(diffs, nvars):
    """Integer w with every coordinate positive and w.d > 0 for each given
    integer difference d, or None when no such vector exists.

    Strictness is encoded as margin >= 1; for homogeneous integer systems
    this is equivalent to strict positivity under scaling.  The elimination
    runs with Chernikov's pruning; a witness it rebuilds is checked against
    every difference and, should the check fail, the system is solved
    again without pruning.  Raises BudgetExceeded when an elimination step
    would pair more than FM_MAX_PAIRS rows.
    """
    witness = _fm_witness(diffs, nvars, prune=True)
    if witness is None or _is_witness(witness, diffs):
        return witness
    witness = _fm_witness(diffs, nvars, prune=False)
    if witness is not None and not _is_witness(witness, diffs):
        raise RuntimeError("witness reconstruction violated a constraint")
    return witness


def _is_witness(w, diffs):
    return all(x > 0 for x in w) and all(sum(map(mul, w, d)) > 0 for d in diffs)


def _fm_witness(diffs, nvars, prune):
    """Fourier-Motzkin elimination on integer rows, with back-substitution.

    Rows (a, b) stand for a.w >= b: a unit row for each coordinate and one
    row per distinct difference, each input with a bit of its own.
    Variables are eliminated successively, each time the one whose
    positive and negative row counts have the least product, and derived
    rows are divided by the gcd of their entries.  A derived row carries
    the bit mask of the inputs it combines.  With `prune`, after k
    eliminations a pair whose masks together hold more than k + 1 bits is
    skipped before any arithmetic: such a row is implied by the others
    (Chernikov 1965; Imbert 1993).  A row derived twice keeps the mask it
    was first derived with, which the caller's check covers.  The witness
    is rebuilt by back-substitution, taking each variable at its largest
    lower bound, over one common integer denominator, and rescaled to the
    smallest integer vector on its ray; None means the rows are
    infeasible, which the inputs then are too.
    """
    rows = {}
    for i in range(nvars):
        rows.setdefault((tuple(int(j == i) for j in range(nvars)), 1), 1 << len(rows))
    for d in diffs:
        if not any(d):  # 0.w >= 1: a tail term equal to its corner
            return None
        rows.setdefault((tuple(d), 1), 1 << len(rows))
    inputs = len(rows)

    steps = []
    remaining = list(range(nvars))
    while remaining:
        columns = list(zip(*[a for a, _ in rows]))
        counts = {}
        for v in remaining:
            col = columns[v]
            below = len([x for x in col if x < 0])
            counts[v] = (len(col) - col.count(0) - below) * below
        var = min(remaining, key=lambda v: (counts[v], v))
        if counts[var] > FM_MAX_PAIRS:
            raise BudgetExceeded(
                f"Fourier-Motzkin step of {counts[var]} row pairs exceeds "
                f"the budget {FM_MAX_PAIRS}"
            )
        remaining.remove(var)
        steps.append((var, rows))
        limit = len(steps) + 1 if prune else inputs
        pos_rows, neg_rows, new_rows = [], [], {}
        for row, mask in rows.items():
            x = row[0][var]
            if x > 0:
                pos_rows.append((row, mask))
            elif x < 0:
                neg_rows.append((row, mask))
            else:
                new_rows[row] = mask
        for (ap, bp), pos_mask in pos_rows:
            mn = ap[var]
            for (an, bn), neg_mask in neg_rows:
                mask = pos_mask | neg_mask
                if mask.bit_count() > limit:
                    continue
                mp = -an[var]
                coeffs = [mp * x + mn * y for x, y in zip(ap, an)]
                rhs = mp * bp + mn * bn
                g = gcd(*coeffs)
                if not g:
                    # 0.w >= rhs is infeasible: inputs have rhs 1, and a
                    # derived rhs is a positive combination of those, so
                    # it stays at least 1 after division by a positive gcd
                    return None
                g = gcd(g, rhs)
                if g > 1:
                    coeffs = [x // g for x in coeffs]
                    rhs //= g
                new_rows.setdefault((tuple(coeffs), rhs), mask)
        rows = new_rows

    # variable j has the value num[j] / den; unassigned ones hold 0
    num = [0] * nvars
    den = 1
    for var, system in reversed(steps):
        # the largest lower bound r / (den * q), q > 0; the unit row of var
        # is still in its system and gives 1 = den / den
        r, q = den, 1
        for a, b in system:
            av = a[var]
            if av > 0:
                rest = b * den - sum(map(mul, a, num))
                if rest * q > r * av:
                    r, q = rest, av
        num = [x * q for x in num]
        num[var] = r
        den *= q

    g = gcd(*num)
    return tuple(x // g for x in num)


def is_unique_gb(points):
    """Whether the vanishing ideal has a single reduced basis.

    Returns (unique, number of reduced bases).  The n lex orders decide
    (`points.lex_unique`), with no budget: the points are unique exactly
    when those orders give one standard set, and then (True, 1) comes with
    no walk.  Points that are not unique have their bases counted by
    `fan_size`, under its default budgets.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    if lex_unique(points):
        return True, 1
    return False, fan_size(points)


def check_fan_budget(points, max_box=64, max_points=16):
    """Refuse a point set whose fan walk would exceed the budgets.

    The walk stays inside [0, min(p, |V|))^n, whose size `max_box` bounds;
    `max_points` bounds |V|.  Raises EmptyPointSet or BudgetExceeded.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    m = len(points)
    if (box := min(points.p, m) ** points.n) > max_box:
        raise BudgetExceeded(f"box size {box} exceeds the budget {max_box}")
    if m > max_points:
        raise BudgetExceeded(f"{m} points exceed the budget {max_points}")


def _coherent_staircases(points, targets=()):
    """Each basic staircase whose corners a strictly positive weight puts
    above every term of their tails: the one filter of the fan.

    The staircases of m = |V| monomials come from `walk_staircases`, in
    the lex order of `enumerate_order_ideals`, kept to basic ones by the
    pushes of `points._echelon`, and their corners from the walk's masks
    (`_corner_reader`).  On a full staircase the echelon rows span every
    value vector, so reducing a corner's vector reads off the unique
    member coefficients of its interpolant, and reducing a target, a
    vector of values over the points, reads off its own.  The tails are
    read corner by corner, in sorted order, and each term u of the tail
    of c gives the difference c - u as an int code; no weight w makes
    both w.d and w.(-d) positive (Gordan's alternative with multipliers
    (1, 1)), so the staircase is refuted at the first difference whose
    negation came before it, and its remaining tails are never read.  On
    the others the Fourier-Motzkin kernel decides, on the same
    differences as tuples, corner by corner and term by term, and only a
    staircase it keeps has its targets read.  Yields (members, tails,
    witness, fits): one (corner, [(member, coefficient), ...]) per corner
    in sorted order, the witness, and one [(member, coefficient), ...]
    per target, zero terms left out; with no targets, fits is ().
    """
    p, n, m = points.p, points.n, len(points)
    push, pop, vector, coefficients, pack = _echelon(points)
    corners, codes = _corner_reader(p, n, m)
    packed = [pack(t) for t in targets]
    for members, chosen in walk_staircases(p, n, m, push, pop):
        # the members' codes, highest bit first, which is their order
        member_codes = []
        rest = chosen
        while rest:
            bit = rest.bit_length() - 1
            rest ^= 1 << bit
            member_codes.append(codes[bit])
        seen = set()
        tails = []
        for c, code in corners(chosen):
            tail = []
            for u, uc, x in zip(members, member_codes, coefficients(vector(c))):
                if x:
                    d = code - uc
                    if -d in seen:
                        break
                    seen.add(d)
                    tail.append((u, x))
            else:
                tails.append((c, tail))
                continue
            break  # an opposite pair refutes the staircase
        else:
            diffs = [tuple(map(sub, c, u)) for c, tail in tails for u, _ in tail]
            witness = _positive_weight_witness(diffs, n)
            if witness is not None:
                fits = [
                    [(u, x) for u, x in zip(members, coefficients(vec)) if x]
                    for vec in packed
                ] if packed else ()
                yield members, tails, witness, fits


def fan_size(points, max_box=64, max_points=16):
    """The number of distinct reduced Groebner bases of the vanishing ideal.

    The one count of bases, which `is_unique_gb`, `gbfan unique` and
    `classify` read.  After the budgets of `all_reduced_gbs`, a set that
    the n lex orders decide unique (`points.lex_unique`) has one basis and
    no walk; any other set has the staircases `all_reduced_gbs` would list
    counted, without building their bases.
    """
    check_fan_budget(points, max_box, max_points)
    if lex_unique(points):
        return 1
    return sum(1 for _ in _coherent_staircases(points))


def all_reduced_gbs(points, max_box=64, max_points=16):
    """Every distinct reduced Groebner basis of the vanishing ideal.

    Candidates are the basic staircases of size |V|, from the pruned walk
    over [0, min(p, |V|))^n; `max_box` bounds the size of that box.  The
    tail of each corner c, its interpolant over the staircase, is read off
    the walk's echelon rows, and `_coherent_staircases` keeps a candidate
    when a strictly positive weight vector makes every corner larger than
    each term of its tail.  The basis is then read off those tails, one
    generator c - tail(c) per corner, sorted by the witness order.  A
    certificate checks that each tail term lies below its corner in that
    order: the generators vanish on the points and lead at the corners, so
    the standard monomials are exactly the staircase.  The entries come
    in the walk's order, lexicographic on the sorted standard monomials.
    """
    check_fan_budget(points, max_box, max_points)
    p, n = points.p, points.n
    entries = []
    for members, tails, witness, _ in _coherent_staircases(points):
        order = WeightOrder(witness)
        key = {u: order.key(u) for u in (*members, *(c for c, _ in tails))}
        generators = []
        for corner, tail in sorted(tails, key=lambda ct: key[ct[0]]):
            terms = {corner: 1}
            for u, coeff in tail:
                if key[u] >= key[corner]:
                    raise RuntimeError(
                        f"tail term {u} does not lie below its corner {corner}"
                    )
                terms[u] = p - coeff
            poly = Polynomial._from_reduced(p, n, terms)
            generators.append(MarkedPolynomial(poly, corner))
        staircase = OrderIdealSet._from_walk(p, n, members)
        basis = ReducedGroebnerBasis(order, generators, staircase)
        entries.append(FanEntry(staircase, basis, witness))
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
    generator passes through the inverse substitution and is rescaled
    monic at its preserved leading term.  No inter-reduction is needed.
    A generator is c - sum a_t t, with every t in the staircase S and
    t < c.  Substituting x_i -> a_i x_i + b_i sends c to a nonzero multiple
    of c plus proper divisors of c, and each t to divisors of t.  Every
    proper divisor of a corner lies in S, every divisor of t lies in S,
    and all of them lie below c; no t is a multiple of c, since t lies in
    S.  So the image, made monic at c, is c minus a combination of S that
    vanishes with it on the shifted points: c minus its normal form, the
    reduced generator of the shifted ideal, whose staircase is again S.
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
    return ReducedGroebnerBasis(
        order=basis.order,
        generators=moved,
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
