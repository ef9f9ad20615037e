"""Brute-force oracles shared across the test modules.

Each oracle is deliberately independent of the library code path it
checks: subset filters instead of incremental enumeration, exhaustive
shift scans instead of pruned searches, weight-grid sweeps instead of
staircase feasibility, rational Fourier-Motzkin back-substitution
instead of the integer kernel, recursive generators instead of the
staircase walk's flat loop over box indices, and echelon rows as lists
instead of packed ints.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from gbfan import (
    BudgetExceeded,
    ClassificationReport,
    LinearShift,
    MarkedPolynomial,
    OrderIdealSet,
    PointSet,
    Polynomial,
    ReducedGroebnerBasis,
    ShiftClass,
    WeightOrder,
    all_reduced_gbs,
    all_shifts,
    bm_reduced_gb,
    box_points,
    divides,
)
from gbfan.errors import EmptyPointSet
from gbfan.fds import ModelEnumeration
from gbfan.field import modp_solve_columns
from gbfan.points import eval_monomial
from gbfan.shifts import _unrank_combination


def span_rank(rows, p):
    """Rank over Z_p read off the size of the row span, which is p^rank.

    The span grows by closure: each row adds every multiple of itself to
    every vector reached so far.
    """
    width = len(rows[0]) if rows else 0
    span = {(0,) * width}
    for row in rows:
        span = {
            tuple((a + c * b) % p for a, b in zip(vec, row))
            for vec in span
            for c in range(p)
        }
    size, r = len(span), 0
    while size > 1:
        size //= p
        r += 1
    return r


def _normalize_row(coeffs, rhs):
    g = 0
    for x in coeffs:
        g = gcd(g, abs(x))
    g = gcd(g, abs(rhs))
    if g > 1:
        coeffs = tuple(x // g for x in coeffs)
        rhs = rhs // g
    return coeffs, rhs


def fm_witness_reference(diffs, nvars):
    """Integer w with every coordinate positive and w.d > 0 for each given
    integer difference d, or None when no such vector exists.

    Strictness is encoded as margin >= 1; for homogeneous integer systems
    this is equivalent to strict positivity under scaling.  Variables are
    eliminated successively, then a witness is rebuilt by back-substitution
    and rescaled to the smallest integer vector on its ray.  Rational
    back-substitution; the reference for the integer kernel
    `groebner._positive_weight_witness`.
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


@lru_cache(maxsize=None)
def monomial_box(p, n):
    """Exponent vectors with entries up to p, the largest exponent any
    reduced basis of an ideal of points can carry."""
    return tuple(itertools.product(range(p + 1), repeat=n))


def box_scan_reduced_gb(points, order):
    """Reduced basis by scanning the whole box [0, p]^n in ascending order.

    Each monomial's vector of values over the points either extends the
    span of the standard monomials found so far or produces one generator,
    the monomial minus its interpolant over the standard monomials.
    Multiples of committed leading terms are skipped.  Costs (p+1)^n
    monomials; the reference for the border walk of `bm_reduced_gb`.
    """
    p, n = points.p, points.n
    pts = points.points
    m = len(pts)
    ordered = sorted(monomial_box(p, n), key=order.key)

    sm = []
    reduced_rows = []
    row_combos = []
    pivots = []
    generators = []
    leads = []

    for u in ordered:
        skip = False
        for t in leads:
            if divides(t, u):
                skip = True
                break
        if skip:
            continue
        residual = [eval_monomial(v, u, p) for v in pts]
        acc = [0] * len(sm)
        for row, combo, piv in zip(reduced_rows, row_combos, pivots):
            c = residual[piv]
            if c:
                for i in range(m):
                    residual[i] = (residual[i] - c * row[i]) % p
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
            reduced_rows.append([x * inv % p for x in residual])
            combo = [(-x * inv) % p for x in acc]
            combo.append(inv % p)
            row_combos.append(combo)
            pivots.append(piv)
            sm.append(u)

    if len(sm) != m:
        raise RuntimeError("standard monomials do not span the point space")
    return ReducedGroebnerBasis(
        order=order,
        generators=generators,
        standard_monomials=OrderIdealSet(p, n, sm),
    )


def brute_force_order_ideals(p, n, m):
    """All downward-closed m-subsets by filtering every m-subset."""
    box = box_points(p, n)
    out = []
    for subset in itertools.combinations(box, m):
        chosen = set(subset)
        closed = all(
            (*v[:j], c - 1, *v[j + 1 :]) in chosen
            for v in subset
            for j, c in enumerate(v)
            if c
        )
        if closed:
            out.append(tuple(sorted(subset)))
    return sorted(out)


def brute_force_models(points, outputs, p):
    """Distinct interpolants of the outputs over every basic staircase.

    Every order ideal of size len(points) is tried against every
    coefficient vector in Z_p^m, evaluating each monomial as a plain
    product of powers.  An ideal is kept when exactly one vector
    reproduces the outputs; for a square system that is the same as an
    invertible evaluation matrix.  Returns the distinct interpolants as
    term dicts without zero coefficients, in order of first appearance.
    """
    points = [tuple(v) for v in points]
    outputs = [y % p for y in outputs]
    m, n = len(points), len(points[0])
    found = []
    for ideal in brute_force_order_ideals(p, n, m):
        rows = [
            [math.prod(x**e for x, e in zip(v, u)) % p for u in ideal]
            for v in points
        ]
        solutions = [
            coeffs
            for coeffs in itertools.product(range(p), repeat=m)
            if all(
                sum(a * c for a, c in zip(row, coeffs)) % p == y
                for row, y in zip(rows, outputs)
            )
        ]
        if len(solutions) == 1:
            terms = {u: c for u, c in zip(ideal, solutions[0]) if c}
            if terms not in found:
                found.append(terms)
    return found


def enumerate_models_reference(dataset, max_box=64, max_points=16):
    """All interpolating models across every quotient basis of the inputs.

    The whole fan is built by `all_reduced_gbs`, and each entry's
    staircase is solved afresh by `field.modp_solve_columns`, on an
    evaluation matrix of `eval_monomial` rows of its own.  The reference
    for `fds.enumerate_models`, which reads the models off the fan walk's
    echelon rows.
    """
    fan = all_reduced_gbs(dataset.inputs, max_box=max_box, max_points=max_points)
    coordinates = dataset.coordinates()
    columns = [dataset.outputs[j] for j in coordinates]
    p, n = dataset.p, dataset.n
    per_coordinate = [[] for _ in coordinates]
    for entry in fan.entries:
        mons = entry.standard_monomials.points
        rows = [[eval_monomial(v, u, p) for u in mons] for v in dataset.inputs]
        models = [
            Polynomial(p, n, dict(zip(mons, x)))
            for x in modp_solve_columns(rows, columns, p)
        ]
        for seen, model in zip(per_coordinate, models):
            if model not in seen:
                seen.append(model)
    models = tuple(tuple(seen) for seen in per_coordinate)
    counts = tuple(len(seen) for seen in models)
    return ModelEnumeration(
        models=models,
        counts=counts,
        total=math.prod(counts),
        staircases=tuple(e.standard_monomials.points for e in fan.entries),
    )


def all_shift_list(p, n):
    pairs = [(a, b) for a in range(1, p) for b in range(p)]
    return [
        LinearShift(p, [ab[0] for ab in combo], [ab[1] for ab in combo])
        for combo in itertools.product(pairs, repeat=n)
    ]


def brute_force_detect(source, target):
    """First shift (by coefficient tuple) mapping source onto target."""
    if len(source) != len(target):
        return None
    tgt = set(target.points)
    for shift in all_shift_list(source.p, source.n):
        if {shift.apply_point(v) for v in source} == tgt:
            return shift
    return None


def brute_force_staircase_shift(points, staircases):
    """Smallest-coefficient (shift, staircase) with shift(staircase) = points."""
    tgt = set(points.points)
    best = None
    for ideal in staircases:
        for shift in all_shift_list(points.p, points.n):
            if {shift.apply_point(v) for v in ideal.points} == tgt:
                if best is None or shift.coefficients() < best[0].coefficients():
                    best = (shift, ideal)
    return best


def weight_grid_bases(points, grid_max=8):
    """Reduced bases over the weight grid {1..grid_max}^n with every lex
    tie-break, deduplicated by the total order induced on the monomial box."""
    p, n = points.p, points.n
    box = monomial_box(p, n)
    seen = {}
    for w in itertools.product(range(1, grid_max + 1), repeat=n):
        for perm in itertools.permutations(range(n)):
            keys = [
                (
                    sum(wi * e for wi, e in zip(w, u)),
                    tuple(u[i] for i in perm),
                )
                for u in box
            ]
            induced = tuple(sorted(range(len(box)), key=keys.__getitem__))
            if induced not in seen:
                seen[induced] = bm_reduced_gb(points, WeightOrder(w, tie=perm))
    return list(seen.values())


def weight_grid_sm_sets(points, grid_max=8):
    return {
        basis.standard_monomials.points
        for basis in weight_grid_bases(points, grid_max)
    }


def random_point_set(rng, p, n, max_size=None):
    box = box_points(p, n)
    cap = len(box) if max_size is None else min(max_size, len(box))
    size = rng.randint(1, cap)
    return PointSet(p, n, rng.sample(box, size))


def random_points(rng, p, n, m):
    """m distinct random points, drawn without listing the box, for large p."""
    pts = set()
    while len(pts) < m:
        pts.add(tuple(rng.randrange(p) for _ in range(n)))
    return PointSet(p, n, pts)


def random_shift(rng, p, n):
    return LinearShift(
        p,
        [rng.randrange(1, p) for _ in range(n)],
        [rng.randrange(p) for _ in range(n)],
    )


def orbit_classify_reference(p, n, m, sample=None, seed=0, max_sets=20000, fan_budget=None):
    """The shift classification with one fan per shift class.

    Every orbit is built point by point with `LinearShift.apply_point` over
    the listed shift group, as sorted point tuples; no count is shared
    across coordinate permutations.  The reference for `classify`.
    """
    box = box_points(p, n)
    population = math.comb(len(box), m)
    if sample is None:
        if population > max_sets:
            raise BudgetExceeded(
                f"{population} subsets exceed the budget {max_sets}; "
                "raise max_sets or use sampling"
            )
        subsets = itertools.combinations(box, m)
        total = population
        mode = "exhaustive"
    else:
        if sample < 1:
            raise ValueError(f"sample size must be positive: {sample}")
        k = min(sample, population)
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(population), k))
        subsets = (_unrank_combination(r, box, m) for r in ranks)
        total = k
        mode = "sample"

    budget = fan_budget or {}
    shifts = list(all_shifts(p, n))
    class_of = {}
    classes = []
    unique_sets = 0
    for subset in subsets:
        entry = class_of.get(subset)
        if entry is None:
            orbit = {
                tuple(sorted(shift.apply_point(v) for v in subset))
                for shift in shifts
            }
            rep = min(orbit)
            fan = all_reduced_gbs(PointSet(p, n, rep), **budget)
            entry = ShiftClass(
                representative=rep,
                size=len(orbit),
                gb_count=len(fan),
                unique=len(fan) == 1,
            )
            classes.append(entry)
            for member in orbit:
                class_of[member] = entry
        if entry.unique:
            unique_sets += 1

    classes.sort(key=lambda c: c.representative)
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


def burnside_class_count(p, n, m):
    """The number of shift classes of m-subsets of Z_p^n, by Burnside's lemma.

    A subset is fixed by a shift g exactly when it is a union of cycles of
    g, so g fixes [t^m] of the product over its cycles of (1 + t^length)
    subsets.  A shift acts coordinate by coordinate, and on a product a
    cycle of length k and one of length l give gcd(k, l) cycles of length
    lcm(k, l).  So only cycle types are combined; no orbit is listed.
    """

    def cycle_type(perm):
        seen = set()
        lengths = {}
        for start in range(len(perm)):
            length = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
                length += 1
            if length:
                lengths[length] = lengths.get(length, 0) + 1
        return frozenset(lengths.items())

    per_coordinate = {}
    for a in range(1, p):
        for b in range(p):
            key = cycle_type([(a * x + b) % p for x in range(p)])
            per_coordinate[key] = per_coordinate.get(key, 0) + 1
    types = {frozenset({(1, 1)}): 1}  # Z_p^0 is one point
    for _ in range(n):
        combined = {}
        for left, count in types.items():
            for right, times in per_coordinate.items():
                lengths = {}
                for k, u in left:
                    for l, v in right:
                        lengths[lcm(k, l)] = lengths.get(lcm(k, l), 0) + u * v * gcd(k, l)
                key = frozenset(lengths.items())
                combined[key] = combined.get(key, 0) + count * times
        types = combined
    fixed = 0
    for cycles, count in types.items():
        coeffs = [1] + [0] * m
        for length, times in cycles:
            for _ in range(times):
                for d in range(m, length - 1, -1):
                    coeffs[d] += coeffs[d - length]
        fixed += count * coeffs[m]
    order = (p * (p - 1)) ** n
    assert fixed % order == 0
    return fixed // order


def corners_reference(members, n):
    """Minimal exponent vectors outside a staircase.

    Each border candidate u + e_j is kept when every w - e_j, for w_j > 0,
    is a member.  The reference for the corners of `groebner._corner_reader`.
    """
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


def _basic_count(points, limit=None):
    """The number of staircases of |V| monomials whose evaluation matrix
    over the points is invertible, counting stops once it reaches `limit`.

    The staircases come from `walk_staircases_reference`.  Each value
    vector is reduced against the members' echelon rows, kept as lists,
    and a dependent one refuses its monomial.
    """
    p, n, m = points.p, points.n, len(points)
    rows = []

    def push(u):
        vec = [eval_monomial(v, u, p) for v in points.points]
        for piv, row in rows:
            c = vec[piv]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return None
        inv = pow(vec[piv], -1, p)
        rows.append((piv, [x * inv % p for x in vec]))
        return piv

    def pop(_):
        rows.pop()

    count = 0
    for _ in walk_staircases_reference(p, n, m, push, pop):
        count += 1
        if count == limit:
            break
    return count


def min_augmentation_reference(points, k_max, max_sets=20000):
    """Fewest extra points forcing a unique reduced basis.

    Every candidate is built as its own `PointSet` by `points.union`, and
    its basic staircases are counted by `_basic_count`, which stops at the
    second.  The reference for `fds.min_augmentation`, which decides each
    candidate by the n lex orders and walks none.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    if k_max < 0:
        raise ValueError(f"max_k must be nonnegative, got {k_max}")
    if _basic_count(points, limit=2) == 1:
        return 0, PointSet(points.p, points.n, ())
    free = points.p**points.n - len(points)
    candidates = 0
    for k in range(min(k_max, free) + 1):
        candidates += math.comb(free, k)
        if candidates > max_sets:
            raise BudgetExceeded(
                f"{candidates} candidate sets of up to {k} extra points "
                f"exceed the budget {max_sets}"
            )
    complement = points.complement().points
    for k in range(1, k_max + 1):
        for extra in itertools.combinations(complement, k):
            candidate = points.union(extra)
            if _basic_count(candidate, limit=2) == 1:
                return k, PointSet(points.p, points.n, extra)
    return None


@lru_cache(maxsize=None)
def _box_with_divisors(q, n):
    """The box [0, q)^n in lex order, each member with its divisors u/x_j."""
    return tuple(
        (v, tuple(v[:j] + (c - 1,) + v[j + 1 :] for j, c in enumerate(v) if c))
        for v in itertools.product(range(q), repeat=n)
    )


def walk_staircases_reference(p, n, m, push=lambda v: True, pop=lambda key: None):
    """Yield the m-member staircases inside [0, p)^n as sorted member tuples.

    Depth-first, in lex order of the member lists, inside [0, min(p, m))^n,
    which holds every staircase of m members.  A monomial joins once its
    divisors have and `push(v)` does not return None; whatever it returns
    goes to `pop` when the walk backtracks past v.  A push that refuses
    drops every staircase extending the current members by v.  The
    recursive walk, one generator frame per member; the reference for
    `points.walk_staircases`.
    """
    box = _box_with_divisors(min(p, m), n)
    chosen = []
    chosen_set = set()

    def extend(start):
        if len(chosen) == m:
            yield tuple(chosen)
            return
        # lexicographic prefixes of a staircase are staircases, so growing
        # past the last member reaches every staircase exactly once
        for idx in range(start, len(box) - (m - len(chosen)) + 1):
            v, divisors = box[idx]
            for d in divisors:
                if d not in chosen_set:
                    break
            else:
                key = push(v)
                if key is not None:
                    chosen.append(v)
                    chosen_set.add(v)
                    yield from extend(idx + 1)
                    chosen_set.discard(v)
                    chosen.pop()
                    pop(key)

    return extend(0)


def staircase_tails_reference(points, targets=()):
    """Each basic staircase with the tail of each of its corners, and the
    interpolant of each target value vector.

    Lists instead of packed rows: echelon rows are (pivot, row) pairs, 1 at
    their own pivot and 0 at the pivots before, each with the list of
    member coefficients it stands for.  Reducing a vector records what was
    subtracted of each row, and those multipliers, weighed by the rows'
    coefficients, give its combination of the members.  Values come from
    `eval_monomial`, staircases from `walk_staircases_reference` and
    corners from `corners_reference`.  The helper of
    `coherent_staircases_reference`: a list of (members, tails, fits) with
    one (corner, [(member, coefficient), ...]) per corner and one
    [(member, coefficient), ...] per target, zero terms left out; with no
    targets, fits is ().  A staircase whose tuple differences c - u hold
    some d and -d is (members, None, None).
    """
    p, n, m = points.p, points.n, len(points)
    basis = []
    combos = []

    def vector(u):
        return [eval_monomial(v, u, p) for v in points.points]

    def reduce(vec):
        coeffs = []
        for piv, row in basis:
            c = vec[piv]
            if c:
                for i in range(m):
                    vec[i] = (vec[i] - c * row[i]) % p
            coeffs.append(c)
        return coeffs

    def combine(coeffs):
        acc = [0] * len(combos)
        for c, combo in zip(coeffs, combos):
            if c:
                acc[: len(combo)] = [a + c * x for a, x in zip(acc, combo)]
        return [x % p for x in acc]

    def push(u):
        vec = vector(u)
        coeffs = reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return None
        inv = pow(vec[piv], -1, p)
        basis.append((piv, [x * inv % p for x in vec]))
        combo = [-x * inv % p for x in combine(coeffs)]
        combo.append(inv)
        combos.append(combo)
        return piv

    def pop(_):
        basis.pop()
        combos.pop()

    out = []
    for members in walk_staircases_reference(p, n, m, push, pop):
        tails = []
        for c in corners_reference(members, n):
            coeffs = combine(reduce(vector(c)))
            tails.append((c, [(u, x) for u, x in zip(members, coeffs) if x]))
        fits = [
            [(u, x) for u, x in zip(members, combine(reduce(list(t)))) if x]
            for t in targets
        ]
        if _opposite_pair(tails):
            out.append((members, None, None))
        else:
            out.append((members, tails, fits if targets else ()))
    return out


def _differences_reference(tails):
    """The corner-minus-tail differences c - u as tuples, corner by corner
    and term by term."""
    return [tuple(a - b for a, b in zip(c, u)) for c, tail in tails for u, _ in tail]


def _opposite_pair(tails):
    """Whether the differences of the tails hold some d and -d."""
    diffs = set(_differences_reference(tails))
    return any(tuple(-x for x in d) in diffs for d in diffs)


def coherent_staircases_reference(points, targets=()):
    """The staircases of `staircase_tails_reference` that no opposite pair
    refutes and whose differences `fm_witness_reference` solves, as
    (members, tails, witness, fits): the list-row, tuple-path reference
    for `groebner._coherent_staircases`, the one generator from the walk
    to the witness.
    """
    out = []
    for members, tails, fits in staircase_tails_reference(points, targets):
        if tails is not None:
            witness = fm_witness_reference(_differences_reference(tails), points.n)
            if witness is not None:
                out.append((members, tails, witness, fits))
    return out
