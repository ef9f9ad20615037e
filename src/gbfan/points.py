"""Finite point sets in Z_p^n and staircases of exponent vectors.

Points and exponent vectors share one representation, so a staircase can
be read as a set of monomials or as a set of data points without any
conversion.

`_echelon`, the one interpolation kernel, reduces the value vectors of
monomials over the points against echelon rows that remember their
combinations; every algorithm of the package runs on it.

A subset of the box [0, p)^n is also one int, one bit per lex index, in
the single layout of `_digit_masks`: `_subset_mask` and `_subset_points`
convert, and the staircase walk `walk_staircases`, the corners the fan
reads off its masks, the lex kernel `_LexStandardSets`, the shift orbits
of `shifts` and the augmentation scan of `fds` all read the same masks.
"""

import itertools
from functools import lru_cache
from math import prod

from .errors import BudgetExceeded, DimensionMismatch, EmptyStaircase
from .field import MatrixZp, ModpRows, gf2_reduce, int_tuple, is_prime


@lru_cache(maxsize=None)
def _box(p, n):
    return tuple(itertools.product(range(p), repeat=n))


def box_points(p, n):
    """All points of Z_p^n in lexicographic order."""
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    return list(_box(p, n))


@lru_cache(maxsize=None)
def _digit_masks(p, n):
    """Per coordinate j of the box [0, p)^n: the width p^(n-1-j) of a
    digit's block of lex indices, and the p subset masks of the indices
    whose j-th digit is c, for c = 0..p-1.

    This is the one subset-mask layout of the box: a subset is one int,
    bit N-1-i standing for lex index i (N = p^n), so that among subsets
    of one size a larger mask is a lexicographically smaller sorted
    subset.  Digit c of coordinate j holds a block of `width` bits at
    offset (p-1-c) * width in every period of p * width bits, so its mask
    is the digit-0 mask moved c blocks down.  A box whose masks are too
    large for an int, or for memory, raises BudgetExceeded.
    """
    size = p**n
    table = []
    try:
        for j in range(n):
            width = p ** (n - 1 - j)
            repeat = ((1 << size) - 1) // ((1 << p * width) - 1)
            floor = ((1 << width) - 1) * repeat << (p - 1) * width
            table.append((width, tuple(floor >> c * width for c in range(p))))
    except (OverflowError, MemoryError):
        raise BudgetExceeded(
            f"box size {size} is too large for a mask of one bit per member"
        ) from None
    return tuple(table)


def _subset_mask(points, p, n):
    """The subset mask of distinct points of [0, p)^n (see `_digit_masks`)."""
    top = p**n - 1
    mask = 0
    for v in points:
        index = 0
        for c in v:
            index = index * p + c
        mask |= 1 << top - index
    return mask


def _subset_points(mask, p, n):
    """The points of a subset mask of [0, p)^n, in lex order."""
    box = _box(p, n)
    size = len(box)
    out = []
    while mask:
        bit = mask.bit_length()
        out.append(box[size - bit])
        mask ^= 1 << bit - 1
    return tuple(out)


def eval_monomial(point, exponents, p):
    """Value of x^exponents at a point, exactly over Z_p."""
    return prod(pow(v, e, p) for v, e in zip(point, exponents)) % p


def _has_kind(value, kind):
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(x, kind[0]) for x in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def require(value, kind, what):
    """A value read from JSON, refused unless it has the given kind.

    A kind is a type, or a one-item list [k] for a list of items of kind
    k.  A bool never passes as an integer.
    """
    if not _has_kind(value, kind):
        raise ValueError(f"{what}, got {value!r}")
    return value


def require_object(data, keys, what):
    """Parsed JSON that must be an object holding the given keys."""
    require(data, dict, f"{what} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} lacks the key(s) {', '.join(missing)}")
    return data


class PointSet:
    """Distinct points of Z_p^n, stored in canonical (lexicographic) order."""

    __slots__ = ("p", "n", "points", "_members")

    def __init__(self, p, n, points):
        if not is_prime(p):
            raise ValueError(f"p must be prime: {p}")
        if n < 0:
            raise ValueError(f"n must be nonnegative: {n}")
        seen = set()
        cleaned = []
        for v in points:
            t = int_tuple(v, "coordinates")
            if len(t) != n:
                raise DimensionMismatch(
                    f"point {t} has {len(t)} coordinates, expected {n}"
                )
            if any(c < 0 or c >= p for c in t):
                raise ValueError(f"coordinates of {t} must lie in [0, {p})")
            if t in seen:
                raise ValueError(f"repeated point {t}")
            seen.add(t)
            cleaned.append(t)
        self.p = p
        self.n = n
        self.points = tuple(sorted(cleaned))
        self._members = seen

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, v):
        return tuple(v) in self._members

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.p == other.p
            and self.n == other.n
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.p, self.n, self.points))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, n={self.n}, {list(self.points)})"

    def union(self, extra):
        pts = set(self.points)
        for v in extra:
            pts.add(int_tuple(v, "coordinates"))
        return PointSet(self.p, self.n, pts)

    def complement(self):
        """Points of the ambient box not in this set."""
        return PointSet(
            self.p, self.n, [v for v in _box(self.p, self.n) if v not in self._members]
        )

    def to_json(self):
        return {"p": self.p, "n": self.n, "points": [list(v) for v in self.points]}

    @classmethod
    def from_json(cls, data):
        """Read {"p", "n", "points"}; other keys are ignored."""
        require_object(data, ("p", "n", "points"), "a point file")
        return cls(
            require(data["p"], int, "p must be an integer"),
            require(data["n"], int, "n must be an integer"),
            require(data["points"], [[int]], "points must be lists of integers"),
        )


class OrderIdealSet(PointSet):
    """A downward-closed set of exponent vectors inside [0, p)^n."""

    __slots__ = ()

    def __init__(self, p, n, members):
        super().__init__(p, n, members)
        if not is_staircase(self):
            raise ValueError(f"{list(self.points)} is not downward closed")

    @classmethod
    def _from_walk(cls, p, n, members):
        """A staircase that takes a tuple of members as it is: sorted,
        distinct, downward closed and inside [0, p)^n, as
        `walk_staircases` yields them.  Nothing is checked.
        """
        s = object.__new__(cls)
        s.p = p
        s.n = n
        s.points = members
        s._members = set(members)
        return s


def is_staircase(points):
    """Whether a set, read as exponent vectors, is downward closed."""
    if isinstance(points, PointSet):
        pts = set(points.points)
    else:
        pts = {int_tuple(v, "exponents") for v in points}
    for v in pts:
        for j, c in enumerate(v):
            if c and (*v[:j], c - 1, *v[j + 1 :]) not in pts:
                return False
    return True


def _exponent_list(monomials, n):
    """The monomials as tuples of n exponents, each a nonnegative int.

    Raises DimensionMismatch for a length other than n, and ValueError for
    a negative exponent, a float or a bool.  With n None, the first
    monomial fixes the length.
    """
    mons = [int_tuple(u, "exponents") for u in monomials]
    for u in mons:
        n = len(u) if n is None else n
        if len(u) != n:
            raise DimensionMismatch(f"monomial {u} has {len(u)} exponents, expected {n}")
        if any(e < 0 for e in u):
            raise ValueError(f"exponents must be nonnegative, got {list(u)!r}")
    return mons


def evaluation_matrix(monomials, points, p=None):
    """Matrix of monomial values: entry (i, j) is the j-th monomial at the i-th point.

    A PointSet argument contributes its canonical order; a plain sequence
    of points is used exactly in the order given.
    """
    if isinstance(points, PointSet):
        pts, p, n = list(points.points), points.p, points.n
    else:
        pts = [int_tuple(v, "coordinates") for v in points]
        if p is None and isinstance(monomials, PointSet):
            p = monomials.p
        dims = {len(v) for v in pts}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
        n = dims.pop() if dims else None
    if p is None:
        raise ValueError("p is required when neither argument is a PointSet")
    mons = _exponent_list(monomials, n)
    return MatrixZp(p, [[eval_monomial(v, u, p) for u in mons] for v in pts])


class _Values(dict):
    """Value vector over a list of points of each monomial looked up.

    A monomial's vector is that of the monomial with its first nonzero
    exponent e cleared, times the e-th power of that coordinate's column,
    so each costs one pass over the points, any exponent included, and
    none calls eval_monomial.  Over Z_p a vector is a tuple; over Z_2 it
    is a bit mask, bit i standing for point i, and the product is a
    bitwise and.
    """

    def __init__(self, p, n, points):
        super().__init__()
        self.masks = p == 2
        columns = list(zip(*points))
        if self.masks:
            self.columns = [sum(c << i for i, c in enumerate(col)) for col in columns]
            self[(0,) * n] = (1 << len(points)) - 1
        else:
            self.columns = columns
            self.p = p
            self[(0,) * n] = (1,) * len(points)

    def __missing__(self, u):
        j, e = next((j, e) for j, e in enumerate(u) if e)
        parent = self[u[:j] + (0,) + u[j + 1 :]]
        if self.masks:
            vec = parent & self.columns[j]
        else:
            p = self.p
            vec = tuple(x * pow(c, e, p) % p for x, c in zip(parent, self.columns[j]))
        self[u] = vec
        return vec


def _echelon(points):
    """The interpolation kernel over a point set: (push, pop, vector,
    coefficients, pack).

    `push(u)` makes u the next of at most m = |V| members, and returns a
    key for `pop`, which drops the last member, when u's value vector is
    independent of theirs; a dependent u returns None and changes nothing.
    The echelon rows carry their combinations of the members, so
    `coefficients(vec)` reads off the member coefficients of a packed
    vector in their span, its interpolant once there are m members.
    `vector(u)` is u's packed value vector and `pack` packs a vector of
    values over the points.  Over Z_2 a row is one bit mask, the values
    above the low m bits, one combination bit per member; over Z_p it is
    one `ModpRows` row, whose low m slots hold the combination.
    """
    p, n, m = points.p, points.n, len(points)
    values = _Values(p, n, points.points)
    if p == 2:
        pivots = {}

        def push(u):
            mask = gf2_reduce(values[u] << m | 1 << len(pivots), pivots)
            if not mask >> m:
                return None
            key = mask.bit_length() - 1
            pivots[key] = mask
            return key

        def coefficients(vec):
            combo = gf2_reduce(vec << m, pivots)
            return [combo >> j & 1 for j in range(m)]

        def pack(target):
            return sum(x << i for i, x in enumerate(target))

        return push, pivots.pop, values.__getitem__, coefficients, pack

    echelon = ModpRows(p, m)
    cache = {}

    def vector(u):
        vec = cache.get(u)
        if vec is None:
            vec = cache[u] = echelon.pack(values[u])
        return vec

    def push(u):
        seed = 1 << len(echelon.rows) * echelon.width
        return echelon.insert(echelon.reduce(vector(u) | seed))

    def pop(_):
        echelon.rows.pop()

    def coefficients(vec):
        # a reduced vector's slots hold minus its interpolant
        return [-x % p for x in echelon.combination(echelon.reduce(vec), m)]

    return push, pop, vector, coefficients, echelon.pack


def is_basic(staircase, points):
    """Whether the monomials form a quotient basis for the ideal of the points.

    True exactly when there is one monomial per point and their value
    vectors are independent: each one pushes a row of `_echelon`.
    """
    mons = _exponent_list(staircase, points.n)
    if len(mons) != len(points):
        return False
    push = _echelon(points)[0]
    return all(push(u) is not None for u in mons)


def layer(staircase, j, i):
    """Slice of a staircase at value i of coordinate j, with j deleted."""
    if not 0 <= j < staircase.n:
        raise IndexError(f"coordinate {j} outside 0..{staircase.n - 1}")
    members = [u[:j] + u[j + 1 :] for u in staircase.points if u[j] == i]
    return OrderIdealSet(staircase.p, staircase.n - 1, members)


def height(staircase, j):
    """One plus the largest value of coordinate j across the staircase."""
    if not staircase.points:
        raise EmptyStaircase("height of an empty staircase")
    if not 0 <= j < staircase.n:
        raise IndexError(f"coordinate {j} outside 0..{staircase.n - 1}")
    return 1 + max(u[j] for u in staircase.points)


def walk_staircases(p, n, m, push=lambda v: True, pop=lambda key: None):
    """Yield the m-member staircases inside [0, p)^n, each as its sorted
    member tuple and its subset mask: (members, chosen).

    Depth-first, in lex order of the member lists, inside [0, q)^n with
    q = min(p, m), or 1 at m = 0, which holds every staircase of m
    members.  The chosen members are a subset mask of that box
    (`_digit_masks`), and so are the candidates: the monomials after the
    last member whose divisors u/x_j are all chosen.  Multiplying the
    chosen set by x_j moves its mask one digit block down, so the
    candidates cost n mask operations per member, and the walk takes
    them highest bit first, which is lex order.  A candidate joins when
    `push(v)` does not return None; whatever it returns goes to `pop`
    when the walk backtracks past v.  A push that refuses drops every
    staircase extending the current members by v.  The same formula over
    the whole box, less the chosen bits, gives a staircase's corners
    inside it (`groebner._corner_reader`).
    """
    q = max(1, min(p, m))
    digits = _digit_masks(q, n)
    box = _box(q, n)
    top = len(box) - 1
    # the origin, the top bit, is the one monomial with no divisors
    members, keys, saved = [], [], []
    chosen, candidates = 0, 1 << top
    while True:
        depth = len(members)
        if depth == m:
            yield tuple(members), chosen
        else:
            # lexicographic prefixes of a staircase are staircases, so
            # growing past the last member reaches every staircase once;
            # the member at depth d sits at bit m-1-d or above, which
            # leaves room for the members after it
            key = None
            while key is None and candidates >> m - 1 - depth:
                bit = candidates.bit_length() - 1
                candidates ^= 1 << bit
                v = box[top - bit]
                key = push(v)
            if key is not None:
                members.append(v)
                keys.append(key)
                saved.append((chosen, candidates))
                chosen |= 1 << bit
                candidates = (1 << bit) - 1
                for width, masks in digits:
                    candidates &= masks[0] | (chosen & ~masks[-1]) >> width
                continue
        if not members:
            return
        members.pop()
        pop(keys.pop())
        chosen, candidates = saved.pop()


class _LexStandardSets:
    """Lex standard sets of point sets in Z_p^n, with no elimination.

    A point set, and a set of exponent vectors, is held as a subset mask
    of the box [0, p)^n (`_subset_mask`).  Under lex with leading variable
    x_j, let T_a be the projections along x_j of the points whose fiber
    holds more than a points.  Then the standard set is the union over a
    of x_j^a times the standard set of T_a in the remaining variables
    (Cerlienco-Mureddu 1995; Felszeghy-Ráth-Rónyai 2006).  A projection
    keeps its points where coordinate j is 0, so every mask stays on the
    one box, and multiplying by x_j^a moves the bits a digit blocks down.
    Over Z_2 the T_a come from the two slices x_j = 0, 1 in a few mask
    operations; over Z_p they are counted point by point, so the cost
    follows the number of points, not p.

    The projections are memoised for the life of the instance, one dict
    per precedence and depth, keyed on the mask.  The masks asked for at
    the top are not: each is a new candidate set, and memoising them
    would hold one mask of p^n bits per candidate.
    """

    def __init__(self, p, n):
        self.p = p
        # first, so that a box too large for its masks is refused there
        self.digits = _digit_masks(p, n)
        # the monomial 1, lex index 0, the top bit
        self.one = 1 << p**n - 1
        # the plans of `unique`: the identity, its reverse, then x_j first
        # for each middle j
        first = tuple(range(n))
        middles = [(j, *first[:j], *first[j + 1 :]) for j in range(1, n - 1)]
        self.first_plan, *self.other_plans = [
            self._plan(order) for order in (first, first[::-1], *middles)
        ]

    def _plan(self, precedence):
        # per depth: a memo, none at the top, then the block width and the
        # digit-0 mask, which the projections keep, of the variable dropped
        return [
            (None if depth == 0 else {}, self.digits[j][0], self.digits[j][1][0])
            for depth, j in enumerate(precedence)
        ]

    def __call__(self, mask, precedence):
        """The standard set of the points in `mask` under the lex order
        whose variables, by precedence, are the tuple `precedence`, as
        `LexOrder(precedence)` orders them."""
        return self._standard(mask, self._plan(precedence), 0)

    def unique(self, mask):
        """Whether the points in `mask` have a single reduced Groebner
        basis, that is whether the n lex orders "x_j first" give one
        standard set: the identity and its reverse first, then (j, the
        others in order) for each middle j, stopping at the first that
        differs.

        Lemma (Mora-Robbiano 1988, "The Groebner fan of an ideal").  Let G
        be the reduced basis of I(V) under an order <, with leading terms
        c and staircase S.  An order <' has the same reduced basis iff it
        keeps every leading term c: then the c's generate an ideal inside
        in_<'(I) with as many standard monomials, |V|, so the two are
        equal; and if <' makes a tail term t lead, t lies in in_<'(I) but
        also in S, since G is reduced.

        Theorem.  V has one reduced basis iff, in its reduced basis under
        any one order, every tail term divides its generator's leading
        term.  If t divides c and t != c, every order puts c above t; if
        not, some t_j > c_j, lex with x_j first puts t above c, and the
        lemma gives a second basis.

        Corollary.  V is unique iff the n lex orders "x_j first", the
        other variables in any fixed order, give one standard set: apply
        the theorem to lex with x_0 first, whose proof names the j of
        another standard set.  A unique V has exactly one basic staircase:
        every tail term divides its corner, so a monomial u outside S
        reduces by G to divisors of u, which lie in any order ideal that
        holds u, and that ideal's value vectors are dependent.
        """
        standard = self._standard(mask, self.first_plan, 0)
        for plan in self.other_plans:
            if self._standard(mask, plan, 0) != standard:
                return False
        return True

    def _standard(self, mask, plan, depth):
        if not mask & (mask - 1):
            # no point, or one: the standard set is empty, or {1}
            return self.one if mask else 0
        memo, width, floor = plan[depth]
        if memo is not None:
            found = memo.get(mask)
            if found is not None:
                return found
        below = depth + 1
        if self.p == 2:
            # T_0 = V0 | V1 and T_1 = V0 & V1 for the slices x_j = 0, 1
            low = mask & floor
            high = mask << width & floor
            found = self._standard(low | high, plan, below)
            both = low & high
            if both:
                found |= self._standard(both, plan, below) >> width
        else:
            # fibers[a] is T_a, kept as running counts: each point puts its
            # projection into the first T_a that lacks it.  Bit i has digit
            # p - 1 - i // width % p, and projects that many blocks up.
            p = self.p
            fibers = []
            rest = mask
            while rest:
                i = rest.bit_length() - 1
                rest ^= 1 << i
                bit = 1 << i + (p - 1 - i // width % p) * width
                for a, fiber in enumerate(fibers):
                    if not fiber & bit:
                        fibers[a] = fiber | bit
                        break
                else:
                    fibers.append(bit)
            found = 0
            for a, fiber in enumerate(fibers):
                found |= self._standard(fiber, plan, below) >> a * width
        if memo is not None:
            memo[mask] = found
        return found


def lex_unique(points):
    """Whether a nonempty point set has a single reduced Groebner basis,
    by the n lex orders of `_LexStandardSets.unique`.

    Each coordinate's distinct values are first relabelled 0, ..., k_j - 1.
    Fiber counts see only which coordinates are equal, so the lex standard
    sets do not change, and the mask lives on the box [0, q)^n with
    q = max(2, max k_j), where each k_j <= min(p, |V|), never on [0, p)^n.
    """
    labels = [{c: i for i, c in enumerate(sorted(set(col)))} for col in zip(*points)]
    q, n = max([2, *map(len, labels)]), points.n
    relabelled = [[label[c] for label, c in zip(labels, v)] for v in points]
    return _LexStandardSets(q, n).unique(_subset_mask(relabelled, q, n))


def enumerate_order_ideals(p, n, m):
    """All downward-closed m-subsets of [0, p)^n.

    Results are ordered lexicographically on their sorted member lists,
    each staircase appearing exactly once.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    if not 1 <= m <= p**n:
        raise ValueError(f"m must lie in [1, {p**n}], got {m}")
    return [OrderIdealSet(p, n, members) for members, _ in walk_staircases(p, n, m)]
