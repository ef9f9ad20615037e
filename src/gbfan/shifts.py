"""Linear shifts of point sets and shift-equivalence classification.

A linear shift acts coordinate-wise as x_i -> a_i x_i + b_i with every
a_i invertible, so it is a bijection of Z_p^n and an equivalence relation
on point sets of equal size.  Shifted point sets have the same number of
reduced Groebner bases, and so do point sets with permuted coordinates;
the classification sweep computes one fan per orbit of the group those
maps generate.  Orbits are built on the subset masks of the box whose
layout `points` owns, with each shift a few block moves of its digit
masks.
"""

import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb, prod

from .errors import BudgetExceeded, DimensionMismatch, EmptyPointSet, ModulusMismatch
from .field import int_tuple, is_prime
from .points import (
    OrderIdealSet,
    PointSet,
    _digit_masks,
    _subset_mask,
    _subset_points,
    box_points,
    is_staircase,
)
from .poly import Polynomial


class LinearShift:
    """Coordinate-wise map x_i -> a_i x_i + b_i with invertible a_i."""

    __slots__ = ("p", "a", "b")

    def __init__(self, p, a, b):
        a = tuple(x % p for x in int_tuple(a, "scales"))
        b = tuple(x % p for x in int_tuple(b, "offsets"))
        if len(a) != len(b):
            raise DimensionMismatch(f"{len(a)} scales against {len(b)} offsets")
        if any(x == 0 for x in a):
            raise ValueError("every scale coefficient must be nonzero")
        self.p = p
        self.a = a
        self.b = b

    @property
    def n(self):
        return len(self.a)

    @classmethod
    def identity(cls, p, n):
        return cls(p, (1,) * n, (0,) * n)

    def apply_point(self, v):
        if len(v) != self.n:
            raise DimensionMismatch(f"point of length {len(v)}, shift of {self.n}")
        p = self.p
        return tuple((ai * vi + bi) % p for ai, bi, vi in zip(self.a, self.b, v))

    def coefficients(self):
        """Interleaved (a_1, b_1, ..., a_n, b_n), the canonical sort key."""
        out = []
        for ai, bi in zip(self.a, self.b):
            out.append(ai)
            out.append(bi)
        return tuple(out)

    def to_json(self):
        return {"a": list(self.a), "b": list(self.b)}

    def __eq__(self, other):
        return (
            isinstance(other, LinearShift)
            and self.p == other.p
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __repr__(self):
        parts = []
        for ai, bi in zip(self.a, self.b):
            term = "x" if ai == 1 else f"{ai}x"
            parts.append(term if bi == 0 else f"{term}+{bi}")
        return f"LinearShift({', '.join(parts)} mod {self.p})"


def apply_shift(shift, points):
    """Image of a point set under a shift, canonically sorted."""
    if shift.p != points.p:
        raise ModulusMismatch(f"shift mod {shift.p} against points mod {points.p}")
    if shift.n != points.n:
        raise DimensionMismatch(f"shift on {shift.n} coordinates, points in {points.n}")
    return PointSet(points.p, points.n, [shift.apply_point(v) for v in points])


def invert_shift(shift):
    """The inverse shift: x_i -> a_i^{-1} x_i - a_i^{-1} b_i."""
    p = shift.p
    a_inv = [pow(ai, -1, p) for ai in shift.a]
    b_inv = [(-ai * bi) % p for ai, bi in zip(a_inv, shift.b)]
    return LinearShift(p, a_inv, b_inv)


def apply_shift_to_polynomial(shift, poly):
    """Substitute a_i x_i + b_i for each variable, expanded and reduced."""
    if shift.p != poly.p:
        raise ModulusMismatch(f"shift mod {shift.p} against polynomial mod {poly.p}")
    if shift.n != poly.n:
        raise DimensionMismatch(
            f"shift on {shift.n} coordinates, polynomial in {poly.n}"
        )
    p, n = poly.p, poly.n
    powers = {}

    def linear_power(i, e):
        got = powers.get((i, e))
        if got is None:
            affine = Polynomial(
                p, n, {tuple(int(j == i) for j in range(n)): shift.a[i], (0,) * n: shift.b[i]}
            )
            got = affine**e
            powers[(i, e)] = got
        return got

    out = Polynomial.zero(p, n)
    for exps, coeff in poly.terms.items():
        term = Polynomial.constant(p, n, coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * linear_power(i, e)
        out = out + term
    return out


def all_shifts(p, n):
    """Every linear shift of Z_p^n, ordered by coefficient tuple."""
    pairs = [(a, b) for a in range(1, p) for b in range(p)]
    for combo in itertools.product(pairs, repeat=n):
        yield LinearShift(p, [ab[0] for ab in combo], [ab[1] for ab in combo])


def _coordinate_pairs(src_col, tgt_col, p):
    """The pairs (a, b), ascending, for which x -> a x + b carries the
    multiset src_col onto tgt_col.  The images t0 != t1 of the two least
    distinct source values s0, s1 fix a = (t1 - t0) / (s1 - s0) and
    b = t0 - a s0, and each guess is checked by its sorted image:
    O(h^2 m log m) for h distinct values, whatever p is.  A one-value
    column yields only a = 1, first of the scales, which all move it alike.
    """
    target = sorted(tgt_col)
    s, t = sorted(set(src_col)), sorted(set(target))
    if len(s) != len(t):
        return []
    if len(s) == 1:
        return [(1, (t[0] - s[0]) % p)]
    step = pow(s[1] - s[0], -1, p)
    pairs = []
    for t0, t1 in itertools.permutations(t, 2):
        a = (t1 - t0) * step % p
        b = (t0 - a * s[0]) % p
        if sorted((a * x + b) % p for x in src_col) == target:
            pairs.append((a, b))
    return sorted(pairs)


def detect_shift(source, target):
    """The shift mapping source onto target, or None.

    Per coordinate, the surviving scale/offset pairs are those carrying
    the coordinate multiset of the source onto that of the target; their
    product is scanned in coefficient order, so the returned shift has the
    lexicographically smallest (a_1, b_1, ..., a_n, b_n).
    """
    if source.p != target.p:
        raise ModulusMismatch(f"moduli {source.p} and {target.p}")
    if source.n != target.n:
        raise DimensionMismatch(f"dimensions {source.n} and {target.n}")
    if len(source) != len(target):
        return None
    p, n = source.p, source.n
    if len(source) == 0 or n == 0:
        return LinearShift.identity(p, n)
    target_set = set(target.points)
    candidates = [
        _coordinate_pairs(src_col, tgt_col, p)
        for src_col, tgt_col in zip(zip(*source), zip(*target))
    ]
    for combo in itertools.product(*candidates):
        shift = LinearShift(p, [ab[0] for ab in combo], [ab[1] for ab in combo])
        if {shift.apply_point(v) for v in source} == target_set:
            return shift
    return None


def find_staircase_shift(points, max_sets=20000):
    """A staircase and the shift carrying it onto the points, or None.

    A staircase's fibers along a coordinate do not grow, so its column j
    takes the value i as often as the i-th largest fiber of V's column j.
    The shifts onto V are then the product of the `_coordinate_pairs` of
    those columns, scanned in coefficient order until a preimage of V is
    a staircase; the first has the smallest (a_1, b_1, ..., a_n, b_n).  A
    product over `max_sets` raises BudgetExceeded before any is tried.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    p = points.p
    candidates = []
    for col in zip(*points):
        counts = sorted(Counter(col).values(), reverse=True)
        stair_col = [i for i, c in enumerate(counts) for _ in range(c)]
        pairs = _coordinate_pairs(stair_col, col, p)
        candidates.append([(a, b, pow(a, -1, p)) for a, b in pairs])
    total = prod(map(len, candidates))
    if total > max_sets:
        raise BudgetExceeded(f"{total} shifts exceed the budget {max_sets}; raise max_sets")
    for combo in itertools.product(*candidates):
        preimage = [tuple(i * (x - b) % p for (_, b, i), x in zip(combo, v)) for v in points]
        if is_staircase(preimage):
            shift = LinearShift(p, [c[0] for c in combo], [c[1] for c in combo])
            return shift, OrderIdealSet(p, points.n, preimage)
    return None


@dataclass(frozen=True)
class ShiftClass:
    representative: tuple
    size: int
    gb_count: int
    unique: bool

    def to_json(self):
        return {
            "rep": [list(v) for v in self.representative],
            "size": self.size,
            "gb_count": self.gb_count,
            "unique": self.unique,
        }


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    n: int
    m: int
    total: int
    classes: tuple
    unique_sets: int
    unique_fraction: float
    mode: str = "exhaustive"
    seed: int | None = None

    def to_json(self):
        data = {
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "total": self.total,
            "classes": [c.to_json() for c in self.classes],
            "unique_sets": self.unique_sets,
            "unique_fraction": self.unique_fraction,
        }
        if self.mode != "exhaustive":
            data["mode"] = self.mode
            data["seed"] = self.seed
        return data


def _move(mask, moves):
    """The image of a subset mask under a bit permutation of the box, given
    as block moves: (digit mask, shift of its indices), the masks disjoint."""
    return sum([(mask & m) >> d if d >= 0 else (mask & m) << -d for m, d in moves])


def _mask_orbit(mask, p, n):
    """Every image of the subset `mask` of `[0, p)^n` under the shift group,
    as a list of distinct masks.

    Images are built one coordinate at a time: x_j -> a x_j + b is the
    scaling by a, then the translation by b.  The scaling moves each index
    with digit c by (a c mod p - c) * width, one masked block move per
    digit the set holds; it only matters on a column of two values or
    more, since a translation moves a one-value column anywhere.  The
    translation by b carries the digits below p - b up by b, a right shift
    by b * width, and the others down by p - b.
    """
    images = [mask]
    for width, masks in _digit_masks(p, n):
        # Z_2 has no scale but 1
        held = [c for c in range(p) if mask & masks[c]] if p > 2 else ()
        if len(held) > 1:
            parts = [masks[c] for c in held]
            scaled = list(images)
            for a in range(2, p):
                shifts = [(a * c % p - c) * width for c in held]
                moves = list(zip(parts, shifts))
                scaled += [_move(x, moves) for x in images]
            images = list(set(scaled))
        grown = set(images)
        for b in range(1, p):
            low, high = sum(masks[: p - b]), sum(masks[p - b :])
            up, down = b * width, (p - b) * width
            grown.update([(x & low) >> up | (x & high) << down for x in images])
        images = list(grown)
    return images


def _check_group_order(p, n, max_sets):
    """Refuse a shift group of order above max_sets before any shift is listed."""
    group_order = (p * (p - 1)) ** n
    if group_order > max_sets:
        raise BudgetExceeded(
            f"shift group of order {group_order} exceeds the budget {max_sets}; "
            "raise max_sets"
        )


def shift_orbit(p, n, points, max_sets=20000):
    """Every image of a point set under the shift group, canonically sorted.

    Coordinates must lie in [0, p) and no point may repeat.  `max_sets`
    bounds the order of the shift group, (p(p-1))^n, as in `classify`.
    The orbit is built on bit masks of the box, as in `classify`.
    """
    points = PointSet(p, n, points)
    _check_group_order(p, n, max_sets)
    orbit = _mask_orbit(_subset_mask(points, p, n), p, n)
    return [_subset_points(image, p, n) for image in sorted(orbit, reverse=True)]


def _unrank_combination(index, items, m):
    """The index-th m-combination of items in lexicographic order."""
    out = []
    start = 0
    remaining = m
    n_items = len(items)
    while remaining:
        for i in range(start, n_items):
            block = comb(n_items - i - 1, remaining - 1)
            if index < block:
                out.append(items[i])
                start = i + 1
                remaining -= 1
                break
            index -= block
    return tuple(out)


def _draw_ranks(rng, population, k):
    """k distinct ints below population, drawn as `Random.sample` draws
    from a population above its pool size: one `randrange` each, redrawn
    on a repeat.  `range` cannot hold a population above sys.maxsize."""
    ranks = set()
    while len(ranks) < k:
        ranks.add(rng.randrange(population))
    return ranks


def classify(p, n, m, sample=None, seed=0, max_sets=20000, fan_budget=None):
    """Partition the m-subsets of Z_p^n into shift-equivalence classes.

    Each class is summarized by its lexicographically smallest member,
    its orbit size, and the number of reduced bases of that
    representative.  With sample=k, k subsets are drawn without
    replacement using the seed and only the drawn sets are tallied.

    Subsets are bit masks of the box (see `points._digit_masks`), and
    orbits are built by `_mask_orbit`.  Translations carry any point to the origin,
    so every class has members that hold the origin, its lex-smallest
    among them.  An exhaustive sweep therefore visits only the
    C(p^n - 1, m - 1) subsets that hold the origin, a drawn subset is
    first translated so that its first point sits there, and only members
    that hold the origin are registered.

    The basis count is shared by every class in one orbit of the group
    generated by shifts and coordinate permutations: a permutation of the
    variables carries the vanishing ideal of V onto that of the permuted
    set, and its fan onto the permuted fan.  So one fan is counted, by
    `fan_size`, per such orbit, whose shift classes are reached from the
    fan's class by adjacent coordinate swaps.  `max_sets` bounds the
    population of an exhaustive sweep, the shift group's order (each new
    class costs that many images) and the members registered for sharing.
    """
    from .groebner import fan_size

    if not is_prime(p):
        raise ValueError(f"p must be prime: {p}")
    for name, size in (("n", n), ("m", m)):
        if size < 0:
            raise ValueError(f"{name} must be nonnegative: {size}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample size must be positive: {sample}")
    _check_group_order(p, n, max_sets)
    box = box_points(p, n)
    size = len(box)
    population = comb(size, m)
    if sample is None and population > max_sets:
        raise BudgetExceeded(
            f"{population} subsets exceed the budget {max_sets}; "
            "raise max_sets or use sampling"
        )
    if m == 0:
        raise EmptyPointSet("empty point set")

    budget = fan_budget or {}
    digits = _digit_masks(p, n)
    origin = 1 << (size - 1)
    # Swapping coordinates j and j+1 of a point with digits c and c + e
    # there moves its index by e * (p - 1) times the block width of j+1.
    swaps = [
        [
            (
                sum(left[c] & right[c + e] for c in range(p) if 0 <= c + e < p),
                e * (p - 1) * width,
            )
            for e in range(1 - p, p)
        ]
        for (_, left), (width, right) in zip(digits, digits[1:])
    ]
    class_of = {}
    registered = []

    def register(orbit, stored, gb_count):
        entry = ShiftClass(
            representative=_subset_points(max(stored), p, n),
            size=len(orbit),
            gb_count=gb_count,
            unique=gb_count == 1,
        )
        registered.append(entry)
        class_of.update(dict.fromkeys(stored, entry))
        return entry

    def share(rep, gb_count):
        """Register, with the same count, every shift class reached from the
        class of rep by adjacent swaps, while the registry holds at most
        max_sets members."""
        pending = [rep]
        while pending:
            rep = pending.pop()
            for swap in swaps:
                image = _move(rep, swap)
                if image in class_of:
                    continue
                reached = _mask_orbit(image, p, n)
                stored = [x for x in reached if x >= origin]
                if len(class_of) + len(stored) > max_sets:
                    return
                register(reached, stored, gb_count)
                pending.append(max(stored))

    def lookup(mask):
        entry = class_of.get(mask)
        if entry is None:
            orbit = _mask_orbit(mask, p, n)
            stored = [x for x in orbit if x >= origin]
            rep = max(stored)
            count = fan_size(PointSet(p, n, _subset_points(rep, p, n)), **budget)
            entry = register(orbit, stored, count)
            share(rep, count)
        return entry

    if sample is None:
        # every class holds the origin, so the sweep meets each class
        # registered on the way, shared ones included
        bits = [origin >> i for i in range(1, size)]
        for c in itertools.combinations(bits, m - 1):
            lookup(sum(c, origin))
        hit = registered
        unique_sets = sum(c.size for c in hit if c.unique)
        total = population
        mode = "exhaustive"
    else:
        total = min(sample, population)
        rng = random.Random(seed)
        if population <= sys.maxsize:
            ranks = rng.sample(range(population), total)
        else:
            ranks = _draw_ranks(rng, population, total)
        drawn = []
        for r in sorted(ranks):
            subset = _unrank_combination(r, box, m)
            moved = [tuple((x - y) % p for x, y in zip(v, subset[0])) for v in subset]
            drawn.append(lookup(_subset_mask(moved, p, n)))
        hit = set(drawn)
        unique_sets = sum(entry.unique for entry in drawn)
        mode = "sample"

    classes = sorted(hit, key=lambda c: c.representative)
    return ClassificationReport(
        p=p,
        n=n,
        m=m,
        total=total,
        classes=tuple(classes),
        unique_sets=unique_sets,
        unique_fraction=unique_sets / total if total else 0.0,
        mode=mode,
        seed=seed if mode == "sample" else None,
    )
