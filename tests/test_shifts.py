import itertools
import json
import random
import time

import pytest

from gbfan import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyPointSet,
    GrevLexOrder,
    GrLexOrder,
    LexOrder,
    LinearShift,
    PointSet,
    Polynomial,
    WeightOrder,
    all_reduced_gbs,
    all_shifts,
    apply_shift,
    apply_shift_to_polynomial,
    box_points,
    classify,
    detect_shift,
    enumerate_order_ideals,
    find_staircase_shift,
    invert_shift,
    is_staircase,
    parse_polynomial,
    shift_orbit,
)
from gbfan.points import _LexStandardSets, _subset_mask
from gbfan.shifts import _draw_ranks
from _oracles import (
    all_shift_list,
    brute_force_detect,
    brute_force_staircase_shift,
    burnside_class_count,
    orbit_classify_reference,
    random_point_set,
    random_shift,
)


def test_linear_shift_validation():
    with pytest.raises(ValueError):
        LinearShift(3, (0, 1), (0, 0))
    with pytest.raises(DimensionMismatch):
        LinearShift(3, (1, 1), (0,))
    shift = LinearShift(3, (4, 2), (3, 5))
    assert shift.a == (1, 2) and shift.b == (0, 2)
    assert shift.coefficients() == (1, 0, 2, 2)


def test_apply_shift_examples():
    phi = LinearShift(3, (2, 2), (0, 2))
    V1 = PointSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    assert apply_shift(phi, V1).points == ((0, 1), (0, 2), (2, 2))

    plus_one = LinearShift(3, (1, 1), (1, 1))
    W = PointSet(3, 2, [(1, 1), (1, 2)])
    assert apply_shift(plus_one, W).points == ((2, 0), (2, 2))

    ident = LinearShift.identity(3, 2)
    assert apply_shift(ident, V1) == V1
    assert len(apply_shift(phi, V1)) == len(V1)  # bijection


def test_invert_shift_examples():
    phi = LinearShift(3, (2, 2), (0, 2))
    psi = invert_shift(phi)
    assert psi.a == (2, 2) and psi.b == (0, 2)
    for v in box_points(3, 2):
        assert psi.apply_point(phi.apply_point(v)) == v
    # characteristic 2: every shift is an involution
    for shift in all_shifts(2, 3):
        assert invert_shift(shift) == shift
        for v in box_points(2, 3):
            assert shift.apply_point(shift.apply_point(v)) == v
    ident = LinearShift.identity(5, 2)
    assert invert_shift(ident) == ident


def test_apply_shift_to_polynomial_examples():
    phi12 = LinearShift(2, (1, 1, 1, 1), (0, 0, 0, 1))
    x4 = Polynomial.variable(2, 4, 3)
    assert apply_shift_to_polynomial(phi12, x4) == parse_polynomial("x4 + 1", 2, 4)

    phi = LinearShift(3, (2,), (2,))
    x_sq = parse_polynomial("x1^2", 3, 1)
    moved = apply_shift_to_polynomial(phi, x_sq)
    assert moved == parse_polynomial("x1^2 + 2*x1 + 1", 3, 1)
    for v in range(3):
        assert moved.evaluate((v,)) == x_sq.evaluate(phi.apply_point((v,)))

    c = Polynomial.constant(3, 2, 2)
    assert apply_shift_to_polynomial(LinearShift(3, (2, 2), (1, 1)), c) == c


def test_detect_shift_examples():
    V1 = PointSet(3, 2, [(0, 0), (0, 1)])
    V2 = PointSet(3, 2, [(1, 1), (1, 2)])
    V3 = PointSet(3, 2, [(1, 1), (2, 2)])
    found = detect_shift(V1, V2)
    assert found == LinearShift(3, (1, 1), (1, 1))
    # exhaustive check over all 36 shifts: the alternative (x+1, 2x+2) maps
    # as well but loses lexicographically
    mapping = [
        s
        for s in all_shift_list(3, 2)
        if {s.apply_point(v) for v in V1} == set(V2.points)
    ]
    assert LinearShift(3, (1, 2), (1, 2)) in mapping
    assert min(s.coefficients() for s in mapping) == found.coefficients()
    assert detect_shift(V1, V3) is None
    assert detect_shift(V1, V1) == LinearShift.identity(3, 2)
    # no points, or no variables: the identity, with no pair searched
    empty = PointSet(5, 2, [])
    assert detect_shift(empty, empty) == LinearShift.identity(5, 2)
    lone = PointSet(3, 0, [()])
    assert detect_shift(lone, lone) == LinearShift.identity(3, 0)


def test_detect_shift_size_guard_and_direction():
    A = PointSet(3, 2, [(0, 0)])
    B = PointSet(3, 2, [(0, 0), (1, 1)])
    assert detect_shift(A, B) is None
    C1 = PointSet(2, 4, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)])
    C2 = PointSet(2, 4, [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1)])
    phi = detect_shift(C1, C2)
    assert phi == LinearShift(2, (1, 1, 1, 1), (0, 0, 0, 1))
    assert apply_shift(phi, C1) == C2


@pytest.mark.parametrize("population", [500, 10**6, 10**12, 2**62])
def test_drawn_ranks_are_those_of_random_sample(population):
    # the draw that classify makes above sys.maxsize, one randrange per
    # rank, takes the ranks Random.sample takes where range() fits
    for seed in range(3):
        expected = random.Random(seed).sample(range(population), 20)
        assert _draw_ranks(random.Random(seed), population, 20) == set(expected)


def test_detect_shift_agrees_with_brute_force():
    rng = random.Random(17)
    for _ in range(120):
        p, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        source = random_point_set(rng, p, n, max_size=5)
        if rng.random() < 0.5:
            target = apply_shift(random_shift(rng, p, n), source)
        else:
            target = random_point_set(rng, p, n, max_size=5)
        expected = brute_force_detect(source, target)
        got = detect_shift(source, target)
        assert got == expected


def test_shift_equivalence_relation():
    rng = random.Random(29)
    for _ in range(40):
        p, n = rng.choice([(2, 2), (3, 2)])
        V = random_point_set(rng, p, n, max_size=4)
        assert detect_shift(V, V) is not None
        W = apply_shift(random_shift(rng, p, n), V)
        U = apply_shift(random_shift(rng, p, n), W)
        assert detect_shift(V, W) is not None
        assert detect_shift(W, V) is not None  # symmetry
        assert detect_shift(V, U) is not None  # transitivity


def test_shift_count():
    assert len(list(all_shifts(2, 3))) == 8
    assert len(list(all_shifts(3, 2))) == 36


def test_leading_monomial_preserved_by_shifts():
    rng = random.Random(37)
    orders = {
        2: [LexOrder((1, 0)), GrLexOrder(), GrevLexOrder(), WeightOrder((2, 1))],
        3: [
            LexOrder((2, 0, 1)),
            GrLexOrder(),
            GrevLexOrder(),
            WeightOrder((1, 2, 3)),
        ],
    }
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        n = rng.choice([2, 3])
        f = Polynomial(
            p,
            n,
            {
                tuple(rng.randint(0, p) for _ in range(n)): rng.randrange(p)
                for _ in range(rng.randint(1, 4))
            },
        )
        if not f:
            continue
        shift = random_shift(rng, p, n)
        g = apply_shift_to_polynomial(shift, f)
        for order in orders[n]:
            assert f.leading_exponent(order) == g.leading_exponent(order)


def test_find_staircase_shift_examples():
    W = PointSet(3, 2, [(0, 1), (0, 2), (2, 2)])
    found = find_staircase_shift(W)
    assert found is not None
    shift, ideal = found
    assert ideal.points == ((0, 0), (0, 1), (1, 0))
    assert apply_shift(shift, PointSet(3, 2, ideal.points)) == W
    # canonical choice validated exhaustively
    oracle = brute_force_staircase_shift(W, enumerate_order_ideals(3, 2, 3))
    assert shift == oracle[0] and ideal.points == oracle[1].points
    assert shift == LinearShift(3, (2, 2), (0, 2))

    U = PointSet(2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert find_staircase_shift(U) is None

    S = PointSet(3, 2, [(0, 0), (1, 0)])
    shift, ideal = find_staircase_shift(S)
    assert shift == LinearShift.identity(3, 2)
    assert ideal.points == S.points


def _oracle_staircase_shift(V):
    return brute_force_staircase_shift(V, enumerate_order_ideals(V.p, V.n, len(V)))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_find_staircase_shift_matches_oracle_on_every_subset(p, n):
    # every staircase against every shift, on every nonempty subset
    box = box_points(p, n)
    hits = 0
    for m in range(1, len(box) + 1):
        for subset in itertools.combinations(box, m):
            V = PointSet(p, n, subset)
            expected = _oracle_staircase_shift(V)
            assert find_staircase_shift(V) == expected, V
            hits += expected is not None
    assert hits > 0


@pytest.mark.parametrize("p,n,sizes", [(5, 2, (3, 4, 5)), (7, 2, (2, 3, 4)), (2, 5, (3, 5, 6))])
def test_find_staircase_shift_matches_oracle_on_shifted_staircases(p, n, sizes):
    rng = random.Random(p * 100 + n)
    for m in sizes:
        staircases = enumerate_order_ideals(p, n, m)
        for _ in range(4):
            V = apply_shift(random_shift(rng, p, n), rng.choice(staircases))
            expected = _oracle_staircase_shift(V)
            assert expected is not None
            assert find_staircase_shift(V) == expected, V


def test_find_staircase_shift_budget_counts_shifts(monkeypatch):
    # the diagonal of Z_5^2: each column takes every value once, so all 20
    # scale/offset pairs of a coordinate survive, and 20 x 20 shifts remain;
    # none has a staircase preimage
    import gbfan.shifts

    tried = []

    def counting(points):
        tried.append(points)
        return is_staircase(points)

    monkeypatch.setattr(gbfan.shifts, "is_staircase", counting)
    diagonal = PointSet(5, 2, [(i, i) for i in range(5)])
    assert find_staircase_shift(diagonal, max_sets=400) is None
    assert len(tried) == 400
    tried.clear()
    with pytest.raises(BudgetExceeded, match="400 shifts exceed the budget 399"):
        find_staircase_shift(diagonal, max_sets=399)
    assert tried == []


def test_find_staircase_shift_in_z2_10_under_default_budgets():
    # the staircase {0, e_1, ..., e_10}, moved by an offset: its box has
    # 2^10 members, but each column has one surviving pair, so one shift
    # is tried
    n = 10
    corner = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    staircase = PointSet(2, n, [(0,) * n, *corner])
    offset = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    V = apply_shift(LinearShift(2, (1,) * n, offset), staircase)
    shift, ideal = find_staircase_shift(V)
    assert shift == LinearShift(2, (1,) * n, offset)
    assert ideal.points == staircase.points


def test_find_staircase_shift_refuses_an_empty_set():
    with pytest.raises(EmptyPointSet):
        find_staircase_shift(PointSet(3, 2, []))


def test_shift_searches_do_not_grow_with_p():
    # a scan over all p(p - 1) pairs per coordinate would not return here
    p = 1000003
    V = PointSet(p, 2, [(0, 5), (1, 5), (0, 9)])
    shift, ideal = find_staircase_shift(V)
    assert ideal.points == ((0, 0), (0, 1), (1, 0))
    assert apply_shift(shift, ideal) == V
    W = PointSet(p, 2, [(7, 1), (9, 1), (7, 3)])
    found = detect_shift(V, W)
    half = pow(2, -1, p)
    assert found == LinearShift(p, (2, half), (7, 1 - 5 * half))
    assert apply_shift(found, V) == W


def test_classify_singletons():
    report = classify(2, 3, 1)
    assert report.total == 8
    assert len(report.classes) == 1
    entry = report.classes[0]
    assert entry.size == 8 and entry.unique and entry.gb_count == 1
    assert report.unique_sets == 8 and report.unique_fraction == 1.0


def test_classify_matches_direct_fans():
    import itertools

    report = classify(2, 2, 2)
    by_member = {}
    for subset in itertools.combinations(box_points(2, 2), 2):
        fan = all_reduced_gbs(PointSet(2, 2, subset))
        by_member[subset] = len(fan)
    assert report.total == 6
    assert sum(c.size for c in report.classes) == 6
    for entry in report.classes:
        assert by_member[entry.representative] == entry.gb_count
    assert report.unique_sets == sum(
        1 for count in by_member.values() if count == 1
    )


def test_classify_class_members_share_gb_count():
    rng = random.Random(41)
    report = classify(2, 3, 3)
    for entry in rng.sample(list(report.classes), 3):
        V = PointSet(2, 3, entry.representative)
        for shift in rng.sample(all_shift_list(2, 3), 3):
            W = apply_shift(shift, V)
            assert len(all_reduced_gbs(W)) == entry.gb_count


def test_classify_sampling_reproducible():
    a = classify(2, 4, 5, sample=40, seed=9)
    b = classify(2, 4, 5, sample=40, seed=9)
    assert a == b
    assert a.total == 40 and a.mode == "sample" and a.seed == 9
    data = a.to_json()
    assert data["mode"] == "sample" and data["seed"] == 9
    c = classify(2, 4, 5, sample=40, seed=10)
    assert c.total == 40


def test_classify_budget():
    with pytest.raises(BudgetExceeded):
        classify(2, 4, 5, max_sets=100)


def test_shift_orbit_members():
    from gbfan import shift_orbit

    report = classify(2, 2, 2)
    orbits = [shift_orbit(2, 2, entry.representative) for entry in report.classes]
    assert [len(orbit) for orbit in orbits] == [entry.size for entry in report.classes]
    seen = [member for orbit in orbits for member in orbit]
    assert len(seen) == len(set(seen)) == report.total
    for orbit, entry in zip(orbits, report.classes):
        assert min(orbit) == entry.representative


def test_classification_report_json_schema():
    report = classify(2, 2, 2)
    data = report.to_json()
    assert set(data) == {
        "p",
        "n",
        "m",
        "total",
        "classes",
        "unique_sets",
        "unique_fraction",
    }
    assert json.dumps(data)
    first = data["classes"][0]
    assert set(first) == {"rep", "size", "gb_count", "unique"}


def test_classify_group_budget():
    # the group (p(p-1))^n is refused before any shift is listed
    with pytest.raises(BudgetExceeded, match="order 1030301000000"):
        classify(101, 3, 2, sample=3)
    with pytest.raises(BudgetExceeded, match="order 74088"):
        classify(7, 3, 2, sample=3)
    assert classify(7, 3, 2, sample=3, max_sets=74088).total == 3


# (p, n, m, sample, seed, max_sets): exhaustive sweeps, sampled sweeps, and
# sweeps whose max_sets stops the sharing across permutations early
REFERENCE_CASES = (
    [(2, 2, m, None, 0, 20000) for m in range(1, 5)]
    + [(2, 3, m, None, 0, 20000) for m in range(1, 9)]
    + [(3, 2, m, None, 0, 20000) for m in range(1, 10)]
    + [
        (2, 4, 8, None, 0, 20000),
        (2, 0, 1, None, 0, 20000),
        (2, 4, 5, 300, 0, 20000),
        (2, 4, 7, 150, 1, 20000),
        (3, 3, 4, 150, 2, 20000),
        (3, 3, 5, 80, 3, 20000),
        (5, 2, 3, 200, 4, 20000),
        (2, 5, 6, 60, 5, 20000),
        (7, 2, 4, 40, 6, 20000),
        (5, 2, 4, 100, 9, 20000),
        (2, 4, 6, 150, 7, 64),
        (3, 3, 3, 100, 8, 216),
        (2, 5, 3, 200, 10, 400),
    ]
)


@pytest.mark.parametrize("p, n, m, sample, seed, max_sets", REFERENCE_CASES)
def test_classify_matches_orbit_reference(p, n, m, sample, seed, max_sets):
    args = {"sample": sample, "seed": seed, "max_sets": max_sets}
    assert classify(p, n, m, **args) == orbit_classify_reference(p, n, m, **args)


def test_classify_computes_one_fan_per_orbit_with_permutations(monkeypatch):
    import itertools

    import gbfan.groebner

    fan_size = gbfan.groebner.fan_size
    calls = []

    def counted(points, **budget):
        calls.append(points)
        return fan_size(points, **budget)

    monkeypatch.setattr(gbfan.groebner, "fan_size", counted)
    for p, n in [(2, 3), (3, 2)]:
        shifts = all_shift_list(p, n)
        perms = list(itertools.permutations(range(n)))
        for m in range(1, p**n):
            calls.clear()
            classify(p, n, m)
            orbits = {
                min(
                    tuple(sorted(s.apply_point(tuple(v[j] for j in perm)) for v in subset))
                    for perm in perms
                    for s in shifts
                )
                for subset in itertools.combinations(box_points(p, n), m)
            }
            assert len(calls) == len(orbits), (p, n, m)


def _apply_point_orbit(p, n, points):
    return sorted({tuple(sorted(s.apply_point(v) for v in points)) for s in all_shift_list(p, n)})


def test_shift_orbit_matches_apply_point_orbits():
    rng = random.Random(47)
    for _ in range(40):
        p, n = rng.choice([(2, 3), (3, 2), (5, 2), (3, 3), (7, 1)])
        V = random_point_set(rng, p, n, max_size=5)
        assert shift_orbit(p, n, V.points) == _apply_point_orbit(p, n, V.points)
    # the whole box, the empty set, the one point of Z_p^0, and sets that
    # miss the origin, whose lex-first image holds it
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        assert shift_orbit(p, n, box_points(p, n)) == [tuple(box_points(p, n))]
    assert shift_orbit(3, 2, []) == [()]
    assert shift_orbit(2, 0, [()]) == [((),)] == _apply_point_orbit(2, 0, [()])
    for _ in range(30):
        p, n = rng.choice([(2, 4), (3, 2), (3, 3), (5, 2)])
        V = rng.sample(box_points(p, n)[1:], rng.randint(1, 5))
        orbit = shift_orbit(p, n, V)
        assert orbit == _apply_point_orbit(p, n, V)
        assert orbit[0][0] == (0,) * n


def test_shift_orbit_refuses_a_repeated_point():
    with pytest.raises(ValueError, match="repeat"):
        shift_orbit(3, 1, [(1,), (1,)])


@pytest.mark.parametrize("p, n, top", [(2, 2, 4), (2, 3, 8), (2, 4, 16), (3, 2, 9),
                                       (5, 2, 5), (3, 3, 4), (7, 2, 3), (2, 5, 3)])
def test_class_count_is_burnside_count(p, n, top):
    for m in range(top + 1):
        if m == 0:
            with pytest.raises(EmptyPointSet):
                classify(p, n, m)
            continue
        report = classify(p, n, m, max_sets=10**5)
        assert len(report.classes) == burnside_class_count(p, n, m), (p, n, m)
        assert sum(c.size for c in report.classes) == report.total


def test_burnside_count_reproduces_the_pinned_sweeps():
    assert [burnside_class_count(*shape) for shape in
            [(2, 4, 5), (2, 4, 6), (3, 3, 5), (2, 5, 5), (2, 5, 6)]] == [273, 553, 460, 6293, 28861]
    assert burnside_class_count(2, 3, 9) == 0 and burnside_class_count(2, 0, 1) == 1


@pytest.mark.parametrize("p, n, m, classes, unique, unique_sets", [
    (3, 3, 5, 460, 24, 2673),
    (2, 5, 6, 28861, 426, 13152),
])
def test_exhaustive_sweeps_beyond_the_default_budget(p, n, m, classes, unique, unique_sets):
    report = classify(p, n, m, max_sets=10**6)
    assert len(report.classes) == classes == burnside_class_count(p, n, m)
    assert sum(c.unique for c in report.classes) == unique
    assert report.unique_sets == unique_sets


def test_shift_orbit_budget_and_range():
    # (101 * 100)^3 shifts: refused before the box is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="order 1030301000000"):
        shift_orbit(101, 3, [(0, 0, 0), (1, 2, 3)])
    assert time.perf_counter() - start < 1
    with pytest.raises(BudgetExceeded):
        shift_orbit(3, 2, [(0, 1)], max_sets=35)
    assert len(shift_orbit(3, 2, [(0, 1)], max_sets=36)) == 9
    for bad in ([(5,)], [(-1,)]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
            shift_orbit(3, 1, bad)


def test_permuted_sets_have_permuted_fans():
    rng = random.Random(53)
    for _ in range(60):
        p, n = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
        V = random_point_set(rng, p, n, max_size=6 if p == 2 else 4)
        perm = rng.sample(range(n), n)
        W = PointSet(p, n, [tuple(v[j] for j in perm) for v in V])
        fan_v = all_reduced_gbs(V, max_box=81)
        fan_w = all_reduced_gbs(W, max_box=81)
        assert len(fan_v) == len(fan_w)
        moved = {
            tuple(sorted(tuple(u[j] for j in perm) for u in s.points))
            for s in fan_v.staircases()
        }
        assert moved == {s.points for s in fan_w.staircases()}


@pytest.mark.parametrize(
    "p,n,m,classes,unique,staircases",
    [(2, 4, 4, 140, 22, 10), (2, 4, 5, 273, 37, 13), (2, 4, 6, 553, 48, 18),
     (3, 3, 4, 124, 13, 10), (3, 3, 5, 460, 24, 15)],
)
def test_unique_classes_are_those_whose_lex_staircases_agree(
    p, n, m, classes, unique, staircases
):
    # Over these exhaustive sweeps a shift class has a unique reduced basis
    # exactly when the n! lex orders give its representative one standard
    # set, and exactly when the n orders "x_j first" do: the proof is the
    # corollary in the docstring of `_LexStandardSets.unique`.  Shifted
    # staircases are unique, as the paper proves, and they are a minority
    # of the unique classes.
    report = classify(p, n, m, max_sets=10**5)
    assert (len(report.classes), sum(c.unique for c in report.classes)) == (classes, unique)
    lex = _LexStandardSets(p, n)
    perms = list(itertools.permutations(range(n)))
    shifted = 0
    for c in report.classes:
        mask = _subset_mask(c.representative, p, n)
        assert (len({lex(mask, perm) for perm in perms}) == 1) == c.unique, c
        assert lex.unique(mask) == c.unique, c
        if find_staircase_shift(PointSet(p, n, c.representative)) is not None:
            assert c.unique, c
            shifted += 1
    assert shifted == staircases
