import itertools
import random
import time
from fractions import Fraction

import pytest

from gbfan import (
    BudgetExceeded,
    EmptyPointSet,
    GrevLexOrder,
    GrLexOrder,
    LexOrder,
    LinearShift,
    MarkedPolynomial,
    OrderIdealSet,
    PointSet,
    Polynomial,
    WeightOrder,
    all_reduced_gbs,
    apply_shift,
    bm_reduced_gb,
    box_points,
    enumerate_order_ideals,
    fan_size,
    ideal_membership,
    is_basic,
    is_unique_gb,
    normal_form,
    parse_polynomial,
    transport_gb,
    universal_basis,
    verify_reduced_gb,
)
import gbfan.groebner
from gbfan.field import ModpRows, modp_row_rank, modp_solve_columns
from gbfan.groebner import (
    _coherent_staircases,
    _corner_reader,
    _fm_witness,
    _positive_weight_witness,
)
from gbfan.points import (
    _echelon,
    _subset_mask,
    eval_monomial,
    lex_unique,
    walk_staircases,
)
from _oracles import (
    _basic_count,
    brute_force_order_ideals,
    box_scan_reduced_gb,
    coherent_staircases_reference,
    corners_reference,
    fm_witness_reference,
    random_point_set,
    random_points,
    random_shift,
    span_rank,
    weight_grid_bases,
    weight_grid_sm_sets,
)

TOY = PointSet(3, 2, [(0, 0), (1, 0), (2, 1)])

# (differences, variables) -> (reference witness, pruned witness), for each
# call of the tests below whose witness moves under Chernikov's pruning
MOVED_WITNESSES = {}


@pytest.fixture
def fm_matches_reference(monkeypatch):
    """Check every Fourier-Motzkin call of the test against the reference.

    Pruning drops only rows the others imply, so verdicts must agree; a
    witness may move where pruning changes which variable goes next, and
    each such call is listed in MOVED_WITNESSES.
    """
    kernel = gbfan.groebner._positive_weight_witness
    calls = {}

    def recording(diffs, nvars):
        witness = kernel(diffs, nvars)
        calls[tuple(diffs), nvars] = witness
        return witness

    monkeypatch.setattr(gbfan.groebner, "_positive_weight_witness", recording)
    yield
    assert calls
    for (diffs, nvars), witness in calls.items():
        expected = fm_witness_reference(diffs, nvars)
        assert (witness is None) == (expected is None), diffs
        if witness != expected:
            assert MOVED_WITNESSES.get((diffs, nvars)) == (expected, witness), diffs


def _polys(basis):
    return {g.poly for g in basis.generators}


def test_toy_bases_exact():
    gb1 = bm_reduced_gb(TOY, WeightOrder((1, 1)))
    assert _polys(gb1) == {
        parse_polynomial("x2^2 + 2*x2", 3, 2),
        parse_polynomial("x1*x2 + x2", 3, 2),
        parse_polynomial("x1^2 + 2*x1 + x2", 3, 2),
    }
    assert gb1.standard_monomials.points == ((0, 0), (0, 1), (1, 0))

    gb2 = bm_reduced_gb(TOY, WeightOrder((1, 3)))
    assert _polys(gb2) == {
        parse_polynomial("x1^3 + 2*x1", 3, 2),
        parse_polynomial("x2 + x1^2 + 2*x1", 3, 2),
    }
    assert gb2.standard_monomials.points == ((0, 0), (1, 0), (2, 0))

    # generators sorted ascending by marked term
    for basis in (gb1, gb2):
        keys = [basis.order.key(g.leading) for g in basis.generators]
        assert keys == sorted(keys)
        verify_reduced_gb(basis, TOY)


def test_staircase_single_basis_any_order():
    V = PointSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    expected = {
        parse_polynomial("x2^2 + 2*x2", 3, 2),
        parse_polynomial("x1*x2", 3, 2),
        parse_polynomial("x1^2 + 2*x1", 3, 2),
    }
    for order in [
        LexOrder(),
        LexOrder((1, 0)),
        GrLexOrder(),
        GrevLexOrder(),
        WeightOrder((1, 1)),
        WeightOrder((5, 2)),
    ]:
        assert _polys(bm_reduced_gb(V, order)) == expected


def test_bm_rejects_empty():
    with pytest.raises(EmptyPointSet):
        bm_reduced_gb(PointSet(3, 2, []), GrevLexOrder())
    with pytest.raises(EmptyPointSet):
        all_reduced_gbs(PointSet(3, 2, []))
    with pytest.raises(EmptyPointSet):
        is_unique_gb(PointSet(3, 2, []))


def test_bm_deterministic():
    a = bm_reduced_gb(TOY, GrevLexOrder())
    b = bm_reduced_gb(TOY, GrevLexOrder())
    assert a == b


@pytest.mark.usefixtures("fm_matches_reference")
def test_fan_toy():
    fan = all_reduced_gbs(TOY)
    assert len(fan) == 2
    assert [e.standard_monomials.points for e in fan.entries] == [
        ((0, 0), (0, 1), (1, 0)),
        ((0, 0), (1, 0), (2, 0)),
    ]
    for entry in fan.entries:
        verify_reduced_gb(entry.basis, TOY)
        # witness weight really selects this staircase
        redo = bm_reduced_gb(TOY, WeightOrder(entry.witness_weight))
        assert redo.standard_monomials == entry.standard_monomials
    data = fan.to_json()
    assert set(data) == {"points", "entries"}
    assert set(data["entries"][0]) == {"sm", "gb", "witness_weight"}


@pytest.mark.usefixtures("fm_matches_reference")
def test_fan_staircase_and_s5():
    assert len(all_reduced_gbs(PointSet(3, 2, [(0, 0), (0, 1), (1, 0)]))) == 1
    S5 = PointSet(2, 4, [(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1)])
    assert len(all_reduced_gbs(S5)) == 13


def test_fan_budget():
    # the budget bounds the box [0, min(p, m))^n the walk searches: 3 points
    # in Z_3^4 give 3^4 = 81 > 64, while one point gives 1^4 = 1
    three = PointSet(3, 4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(BudgetExceeded, match="box size 81"):
        all_reduced_gbs(three)
    assert len(all_reduced_gbs(PointSet(3, 4, [(0, 0, 0, 0)]))) == 1
    with pytest.raises(BudgetExceeded):
        all_reduced_gbs(PointSet(2, 2, [(0, 0), (0, 1)]), max_points=1)
    # overridable
    assert len(all_reduced_gbs(three, max_box=100)) == 1


def test_is_unique_gb_examples():
    unique, count = is_unique_gb(TOY)
    assert not unique and count == 2
    for ideal in enumerate_order_ideals(3, 2, 3):
        V = PointSet(3, 2, ideal.points)
        assert is_unique_gb(V) == (True, 1)
        shifted = apply_shift(LinearShift(3, (2, 1), (1, 2)), V)
        assert is_unique_gb(shifted) == (True, 1)


def test_fan_size_reads_a_unique_set_off_the_lex_orders(monkeypatch):
    # a set the n lex orders decide unique has one basis and no walk; the
    # budgets still come first
    rng = random.Random(25)
    unique = [PointSet(3, 2, ideal.points) for ideal in enumerate_order_ideals(3, 2, 4)]
    unique += [apply_shift(random_shift(rng, 3, 2), V) for V in unique]
    for _ in range(60):
        V = random_point_set(rng, 2, 4, max_size=8)
        if lex_unique(V):
            unique.append(V)
    assert all(fan_size(V) == 1 for V in unique)

    def refuse(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(gbfan.groebner, "_coherent_staircases", refuse)
    assert len(unique) > 20
    for V in unique:
        assert fan_size(V) == 1 and is_unique_gb(V) == (True, 1), V
    with pytest.raises(AssertionError, match="the walk ran"):
        fan_size(TOY)
    with pytest.raises(BudgetExceeded, match="box size 9 exceeds the budget 8"):
        fan_size(unique[0], max_box=8)


def test_is_unique_gb_counts_bases_under_the_fan_budgets():
    # a unique set answers before any budget: 0, e1, e2 in Z_2^7 sit in a
    # walk box of 2^7 > 64 monomials, which fan_size refuses
    units = [tuple(int(i == j) for i in range(7)) for j in range(2)]
    three = PointSet(2, 7, [(0,) * 7, *units])
    assert is_unique_gb(three) == (True, 1)
    with pytest.raises(BudgetExceeded, match="box size 128"):
        fan_size(three)
    # a set with several bases has them counted by fan_size, under its
    # default budgets: 17 points exceed the 16 the walk may hold
    rng = random.Random(17)
    V = PointSet(2, 5, rng.sample(box_points(2, 5), 17))
    assert not lex_unique(V)
    with pytest.raises(BudgetExceeded, match="17 points exceed the budget 16"):
        is_unique_gb(V)
    assert is_unique_gb(TOY) == (False, fan_size(TOY)) == (False, 2)


def test_unique_without_staircase_shift():
    V = PointSet(2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert is_unique_gb(V) == (True, 1)
    basis = bm_reduced_gb(V, GrevLexOrder())
    assert _polys(basis) == {
        parse_polynomial("x3^2 + x3", 2, 3),
        parse_polynomial("x2*x3 + x3", 2, 3),
        parse_polynomial("x2^2 + x2", 2, 3),
        parse_polynomial("x1*x3 + x3", 2, 3),
        parse_polynomial("x1*x2 + x2", 2, 3),
        parse_polynomial("x1^2 + x1", 2, 3),
    }
    fan = all_reduced_gbs(V)
    assert len(fan) == 1


def _relabelled(rng, V):
    """A copy of V under a random bijection of Z_p on each coordinate."""
    maps = [rng.sample(range(V.p), V.p) for _ in range(V.n)]
    return PointSet(V.p, V.n, [tuple(f[c] for f, c in zip(maps, v)) for v in V])


def _assert_lex_decides(V):
    """Whether V is unique, asserting that the n lex orders decide it as
    the count of basic staircases does."""
    unique = lex_unique(V)
    assert unique == (_basic_count(V, limit=2) == 1), V
    return unique


def test_lex_uniqueness_on_every_subset_of_z2_3_and_z3_2():
    # The n lex orders give one standard set exactly when one staircase is
    # basic (the corollary in `_LexStandardSets.unique`), on every subset
    # and on a copy relabelled coordinate by coordinate, which keeps the
    # answer.  The oracle's count also equals one with ranks read off span
    # sizes over every order ideal.
    rng = random.Random(1800)
    outcomes = set()
    for p, n in [(2, 3), (3, 2)]:
        box = box_points(p, n)
        for mask in range(1, 1 << len(box)):
            V = PointSet(p, n, [v for i, v in enumerate(box) if mask >> i & 1])
            unique = _assert_lex_decides(V)
            assert _assert_lex_decides(_relabelled(rng, V)) == unique
            spans = [
                [[eval_monomial(v, u, p) for u in ideal] for v in V]
                for ideal in brute_force_order_ideals(p, n, len(V))
            ]
            assert _basic_count(V) == sum(span_rank(r, p) == len(V) for r in spans), V
            outcomes.add(unique)
    assert outcomes == {True, False}


def test_lex_uniqueness_on_every_subset_of_z2_4():
    # Translations and coordinate permutations map basic staircases to
    # basic staircases, so the oracle counts them on the first subset of
    # each orbit, and the n lex orders must decide every subset as that one
    box = box_points(2, 4)
    index = {v: i for i, v in enumerate(box)}
    moves = [
        [index[tuple(v[j] ^ a[j] for j in perm)] for v in box]
        for perm in itertools.permutations(range(4))
        for a in box
    ]
    expected = {}
    orbits = 0
    for mask in range(1, 1 << len(box)):
        V = PointSet(2, 4, [v for i, v in enumerate(box) if mask >> i & 1])
        if mask not in expected:
            orbits += 1
            unique = _basic_count(V, limit=2) == 1
            bits = [i for i in range(len(box)) if mask >> i & 1]
            for move in moves:
                expected[sum(1 << move[i] for i in bits)] = unique
        assert lex_unique(V) == expected[mask], V
    assert orbits == 401 and sum(expected.values()) == 5529


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_lex_uniqueness_on_random_sets(p):
    # each coordinate takes one to three random values, so that points
    # share coordinates and both answers occur; every set is checked as
    # drawn and relabelled
    rng = random.Random(1900 + p)
    outcomes = set()
    for _ in range(40):
        n = rng.choice((2, 3))
        values = [rng.sample(range(p), rng.randint(1, 3)) for _ in range(n)]
        grid = list(itertools.product(*values))
        V = PointSet(p, n, rng.sample(grid, rng.randint(1, min(len(grid), 8))))
        unique = _assert_lex_decides(V)
        assert _assert_lex_decides(_relabelled(rng, V)) == unique
        outcomes.add(unique)
    assert outcomes == {True, False}


def test_universal_basis_examples():
    marked = universal_basis(TOY)
    assert len(marked) == 5
    # x^2 + 2x + x2 sits in both bases with different markings
    shared = parse_polynomial("x2 + x1^2 + 2*x1", 3, 2)
    markings = {g.leading for g in marked if g.poly == shared}
    assert markings == {(2, 0), (0, 1)}

    V = PointSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    fan = all_reduced_gbs(V)
    assert set(universal_basis(V)) == set(fan.entries[0].basis.generators)

    single = universal_basis(PointSet(5, 1, [(3,)]))
    assert [g.poly for g in single] == [parse_polynomial("x1 + 2", 5, 1)]


def test_transport_examples():
    C1 = PointSet(2, 4, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)])
    g1 = all_reduced_gbs(C1).entries[0].basis
    phi12 = LinearShift(2, (1, 1, 1, 1), (0, 0, 0, 1))
    phi14 = LinearShift(2, (1, 1, 1, 1), (0, 0, 1, 1))
    g2 = transport_gb(g1, phi12)
    assert _polys(g2) == {
        parse_polynomial("x1^2 + x1", 2, 4),
        parse_polynomial("x2^2 + x2", 2, 4),
        parse_polynomial("x3", 2, 4),
        parse_polynomial("x4 + 1", 2, 4),
    }
    g4 = transport_gb(g1, phi14)
    assert _polys(g4) == {
        parse_polynomial("x1^2 + x1", 2, 4),
        parse_polynomial("x2^2 + x2", 2, 4),
        parse_polynomial("x3 + 1", 2, 4),
        parse_polynomial("x4 + 1", 2, 4),
    }
    assert transport_gb(g1, LinearShift.identity(2, 4)) == g1


def test_transport_matches_direct_computation():
    rng = random.Random(53)
    for _ in range(40):
        p, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        V = random_point_set(rng, p, n, max_size=5)
        shift = random_shift(rng, p, n)
        order = rng.choice(
            [GrevLexOrder(), GrLexOrder(), WeightOrder(tuple(range(1, n + 1)))]
        )
        basis = bm_reduced_gb(V, order)
        moved = transport_gb(basis, shift)
        direct = bm_reduced_gb(apply_shift(shift, V), order)
        assert moved == direct
        verify_reduced_gb(moved, apply_shift(shift, V))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 4), (11, 2)])
def test_transport_needs_no_inter_reduction(p, n):
    # the substituted generators, made monic, are already reduced: they
    # equal a fresh interpolation of the shifted points, and inter-reducing
    # them changes nothing
    rng = random.Random(700 + 10 * p + n)
    orders = [GrevLexOrder(), GrLexOrder(), LexOrder(), LexOrder(tuple(range(n))[::-1]),
              WeightOrder(tuple(range(1, n + 1)))]
    for _ in range(5):
        V = random_point_set(rng, p, n, max_size=8)
        shift = random_shift(rng, p, n)
        W = apply_shift(shift, V)
        for order in orders:
            moved = transport_gb(bm_reduced_gb(V, order), shift)
            assert moved == bm_reduced_gb(W, order), (V, shift, order)
            gens = moved.generators
            for i, g in enumerate(gens):
                others = gens[:i] + gens[i + 1 :]
                assert normal_form(g.poly, others, order) == g.poly


def test_ideal_membership_examples():
    rng = random.Random(61)
    for _ in range(20):
        p, n = rng.choice([(2, 2), (3, 2), (5, 1)])
        V = random_point_set(rng, p, n, max_size=6)
        for i in range(n):
            field_poly = Polynomial(p, n, {
                tuple(p if j == i else 0 for j in range(n)): 1,
                tuple(1 if j == i else 0 for j in range(n)): p - 1,
            })
            assert ideal_membership(field_poly, V)
        assert not ideal_membership(Polynomial.constant(p, n, 1), V)
    C1 = PointSet(2, 4, [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)])
    for g in all_reduced_gbs(C1).entries[0].basis.generators:
        assert ideal_membership(g.poly, C1)


def test_membership_equals_normal_form_vanishing():
    rng = random.Random(67)
    fan = all_reduced_gbs(TOY)
    for _ in range(60):
        f = Polynomial(
            3,
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(3)
                for _ in range(rng.randint(0, 4))
            },
        )
        member = ideal_membership(f, TOY)
        for entry in fan.entries:
            reduced = normal_form(f, entry.basis.generators, entry.basis.order)
            assert (not reduced) == member


@pytest.mark.usefixtures("fm_matches_reference")
def test_fan_matches_weight_grid_oracle_small():
    rng = random.Random(71)
    for _ in range(12):
        p, n = rng.choice([(2, 2), (3, 2), (2, 3)])
        V = random_point_set(rng, p, n, max_size=5)
        fan = all_reduced_gbs(V)
        fan_sms = {e.standard_monomials.points for e in fan.entries}
        oracle_sms = {
            basis.standard_monomials.points for basis in weight_grid_bases(V)
        }
        assert fan_sms == oracle_sms
        assert fan_size(V) == len(fan)


@pytest.mark.usefixtures("fm_matches_reference")
def test_fan_matches_weight_grid_oracle_larger_primes():
    rng = random.Random(99)
    for p, n in [(5, 1), (7, 1), (5, 2)]:
        for _ in range(2):
            V = random_point_set(rng, p, n, max_size=6)
            fan = all_reduced_gbs(V)
            fan_sms = {e.standard_monomials.points for e in fan.entries}
            oracle_sms = {
                basis.standard_monomials.points for basis in weight_grid_bases(V)
            }
            assert fan_sms == oracle_sms, (p, n, V.points)
            assert fan_size(V) == len(fan)


@pytest.mark.usefixtures("fm_matches_reference")
def test_complement_has_same_fan_size():
    # a set and its complement in the ambient box carry the same number of
    # reduced bases, a duality entirely independent of the enumeration path
    rng = random.Random(123)
    for _ in range(12):
        p, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        size = rng.randint(1, p**n - 1)
        V = PointSet(p, n, rng.sample(box_points(p, n), size))
        assert len(all_reduced_gbs(V)) == len(all_reduced_gbs(V.complement()))


@pytest.mark.usefixtures("fm_matches_reference")
def test_uniqueness_fast_path_matches_fan_size():
    rng = random.Random(79)
    for _ in range(40):
        p, n = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4)])
        V = random_point_set(rng, p, n, max_size=6)
        unique, count = is_unique_gb(V)
        fan = all_reduced_gbs(V)
        assert unique == (len(fan) == 1)
        assert count == len(fan)


@pytest.mark.usefixtures("fm_matches_reference")
@pytest.mark.parametrize(
    "p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3), (7, 1), (2, 5)]
)
def test_pruned_walk_and_tail_bases_match_oracles(p, n):
    # the walk, driven by the echelon's pushes, yields exactly the basic
    # staircases of the unpruned filter, in its order; each fan basis read
    # off the tails equals a fresh interpolation at its witness; and the
    # count-only path agrees
    rng = random.Random(500 + 10 * p + n)
    box = box_points(p, n)
    sets = [PointSet(p, n, [rng.choice(box)]), PointSet(p, n, box)]
    sets += [random_point_set(rng, p, n, max_size=12) for _ in range(30)]
    for V in sets:
        m = len(V)
        basic = [s.points for s in enumerate_order_ideals(p, n, m) if is_basic(s, V)]
        push, pop = _echelon(V)[:2]
        assert [s for s, _ in walk_staircases(p, n, m, push, pop)] == basic, V
        fan = all_reduced_gbs(V, max_box=p**n, max_points=m)
        for entry in fan.entries:
            redo = bm_reduced_gb(V, WeightOrder(entry.witness_weight))
            assert entry.basis == redo, (V, entry.witness_weight)
            _assert_validated(entry, V)
        assert is_unique_gb(V) == (len(fan) == 1, len(fan))
        assert fan_size(V, max_box=p**n, max_points=m) == len(fan)


def _assert_validated(entry, V):
    """The entry equals one built through the validating constructors."""
    p, n = V.p, V.n
    for g in entry.basis.generators:
        rebuilt = MarkedPolynomial(Polynomial(p, n, g.poly.terms), g.leading)
        assert g == rebuilt and (g.poly.p, g.poly.n) == (p, n), g
    sm = entry.standard_monomials
    rebuilt = OrderIdealSet(p, n, sm.points)
    assert sm == rebuilt and type(sm) is OrderIdealSet
    assert all(v in sm for v in rebuilt) and len(sm) == len(rebuilt)
    assert entry.basis.standard_monomials is sm
    verify_reduced_gb(entry.basis, V)


@pytest.mark.usefixtures("fm_matches_reference")
@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_fan_size_counts_the_validated_fan(p, n):
    # random sets over Z_2, Z_3 and Z_5: the count-only path agrees with the
    # fan, and every entry passes the validating constructors and the
    # structural check of a reduced basis
    rng = random.Random(1300 + 10 * p + n)
    for _ in range(12):
        V = random_point_set(rng, p, n, max_size=min(p**n - 1, 9))
        fan = all_reduced_gbs(V, max_box=p**n)
        assert fan_size(V, max_box=p**n) == len(fan), V
        for entry in fan.entries:
            _assert_validated(entry, V)


def _code(v, base):
    code = 0
    for x in v:
        code = code * base + x
    return code


@pytest.mark.parametrize(
    "p,n,sizes",
    [(2, 0, [1]), (5, 1, range(1, 6)), (7, 2, range(1, 10)), (5, 2, range(1, 13)),
     (3, 3, range(1, 11)), (2, 4, range(1, 17)), (2, 6, range(1, 10)),
     (3, 0, [1]), (7, 1, range(1, 8)), (2, 1, range(1, 3)), (3, 2, range(1, 10))],
)
def test_corners_match_reference(p, n, sizes):
    # on every staircase of each size, the corners read off the walk's mask
    # are the sorted corners of checking each w - e_j for membership, the
    # mask is the subset mask of the members, and each corner and member
    # carries its digits in base 2q + 1; where q = p < m, or q = m on a
    # line, the pure powers q e_j outside the box are corners too
    outside = 0
    for m in sizes:
        q = max(1, min(p, m))
        corners, codes = _corner_reader(p, n, m)
        for members, chosen in walk_staircases(p, n, m):
            assert chosen == _subset_mask(members, q, n), members
            expected = corners_reference(members, n)
            assert corners(chosen) == [(c, _code(c, 2 * q + 1)) for c in expected], members
            bits = [i for i in range(q**n) if chosen >> i & 1][::-1]
            assert [codes[i] for i in bits] == [_code(u, 2 * q + 1) for u in members]
            outside += sum(q in c for c in expected)
    assert outside or n == 0


@pytest.mark.parametrize(
    "p,n",
    [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3),
     (2, 4), (3, 4), (2, 5), (2, 6), (101, 3)],
)
def test_fan_layers_match_references(p, n, monkeypatch):
    # on every basic staircase, with tails and target interpolants from a
    # fresh solve: a staircase whose differences hold some d and -d is one
    # the rational reference refutes too, and Fourier-Motzkin is called on
    # exactly the others, in walk order, each with its differences in
    # corner order as rows; the integer kernel returns the reference's
    # witness, or None with it, and the generator yields the staircases it
    # keeps with the solved tails and target interpolants
    rng = random.Random(900 + 10 * p + n)
    sets = [random_points(rng, p, n, 1)]
    sets += [random_points(rng, p, n, rng.randint(2, min(p**n, 10))) for _ in range(8)]
    kernel = gbfan.groebner._positive_weight_witness
    rows = []

    def recording(diffs, nvars):
        rows.append(diffs)
        return kernel(diffs, nvars)

    monkeypatch.setattr(gbfan.groebner, "_positive_weight_witness", recording)
    for V in sets:
        targets = [tuple(rng.randrange(p) for _ in V.points) for _ in range(2)]
        survivors = []
        push, pop = _echelon(V)[:2]
        for members, _ in walk_staircases(p, n, len(V), push, pop):
            values = [[eval_monomial(v, u, p) for u in members] for v in V.points]
            expected = corners_reference(members, n)
            corners = [[eval_monomial(v, c, p) for v in V.points] for c in expected]
            solved = modp_solve_columns(values, corners + targets, p)
            solved_tails = [
                (c, [(u, x) for u, x in zip(members, coeffs) if x])
                for c, coeffs in zip(expected, solved)
            ]
            diffs = [
                tuple(a - b for a, b in zip(c, u))
                for c, tail in solved_tails for u, _ in tail
            ]
            negated = [tuple(-x for x in e) for e in diffs]
            witness = fm_witness_reference(diffs, n)
            if not set(diffs).isdisjoint(negated):
                assert witness is None, (V, members)
                continue
            fits = [
                [(u, x) for u, x in zip(members, coeffs) if x]
                for coeffs in solved[len(expected):]
            ]
            assert len(fits) == len(targets)
            assert kernel(diffs, n) == witness, (V, members)
            survivors.append((members, solved_tails, diffs, witness, fits))
        rows.clear()
        got = list(_coherent_staircases(V, targets))
        assert rows == [diffs for _, _, diffs, _, _ in survivors], V
        assert got == [
            (members, tails, witness, fits)
            for members, tails, _, witness, fits in survivors
            if witness is not None
        ], V


def _orbit_representatives(p, n):
    """One subset of Z_p^n per orbit of the translations and coordinate
    permutations, as subset masks over the lex indices of the box."""
    box = box_points(p, n)
    index = {v: i for i, v in enumerate(box)}
    maps = [
        [index[tuple((v[perm[j]] + b[j]) % p for j in range(n))] for v in box]
        for perm in itertools.permutations(range(n))
        for b in box
    ]
    seen = set()
    for mask in range(1, 1 << len(box)):
        if mask not in seen:
            members = [i for i in range(len(box)) if mask >> i & 1]
            seen.update(sum(1 << f[i] for i in members) for f in maps)
            yield [box[i] for i in members]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (101, 3)])
def test_coherent_staircases_match_tuple_reference(p, n):
    # the walk's masks and codes keep exactly the staircases, tails,
    # witnesses and target fits of the tuple path: every subset of Z_3^2,
    # every subset of Z_2^4 up to translation and coordinate permutation
    # (401 sets), and random sets of Z_101^3, with and without targets
    rng = random.Random(3100 + p)
    if p == 101:
        cases = [random_points(rng, p, n, rng.randint(1, 9)).points for _ in range(12)]
    elif p == 3:
        box = box_points(p, n)
        cases = [s for m in range(1, len(box) + 1) for s in itertools.combinations(box, m)]
    else:
        cases = list(_orbit_representatives(p, n))
    for points in cases:
        V = PointSet(p, n, points)
        targets = [tuple(rng.randrange(p) for _ in V.points) for _ in range(rng.randint(0, 2))]
        got = list(_coherent_staircases(V, targets))
        assert got == coherent_staircases_reference(V, targets), V


@pytest.mark.usefixtures("fm_matches_reference")
def test_structural_invariants_on_random_bases():
    rng = random.Random(73)
    for _ in range(25):
        p, n = rng.choice([(2, 2), (3, 2), (2, 3), (5, 1)])
        V = random_point_set(rng, p, n, max_size=6)
        for entry in all_reduced_gbs(V).entries:
            verify_reduced_gb(entry.basis, V)
            sm = entry.standard_monomials
            assert len(sm) == len(V)


def _basis_layout(basis):
    return (
        basis.standard_monomials.points,
        [(g.leading, g.poly.terms) for g in basis.generators],
    )


def _random_orders(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [rng.randint(1, 5) for _ in range(n)]
    tie = list(range(n))
    rng.shuffle(tie)
    return [
        GrevLexOrder(),
        GrLexOrder(),
        LexOrder(),
        LexOrder(perm),
        WeightOrder(weights),
        WeightOrder(weights, tie=tie),
        WeightOrder([Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(n)]),
    ]


@pytest.mark.parametrize(
    "p,n", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (11, 2)]
)
def test_border_walk_matches_box_scan(p, n):
    # same staircase, same generator order and the same term dicts as the
    # scan of the whole box [0, p]^n, on random sets and on single points
    rng = random.Random(1000 * p + n)
    sets = [random_point_set(rng, p, n, max_size=1) for _ in range(2)]
    sets += [random_point_set(rng, p, n, max_size=24) for _ in range(38)]
    for V in sets:
        for order in _random_orders(rng, n):
            assert _basis_layout(bm_reduced_gb(V, order)) == _basis_layout(
                box_scan_reduced_gb(V, order)
            ), (V, order)


def test_border_walk_without_variables():
    V = PointSet(3, 0, [()])
    for order in (GrevLexOrder(), GrLexOrder(), LexOrder()):
        basis = bm_reduced_gb(V, order)
        assert _basis_layout(basis) == _basis_layout(box_scan_reduced_gb(V, order))
        assert basis.standard_monomials.points == ((),)
        assert basis.generators == ()


LARGE_P_ORDERS = [GrevLexOrder(), GrLexOrder(), LexOrder(), WeightOrder((2, 3, 4))]
SYMPY_ORDERS = {GrevLexOrder(): "grevlex", GrLexOrder(): "grlex", LexOrder(): "lex"}


@pytest.mark.parametrize("p", [101, 1000003])
def test_large_p_bases_verify(p):
    # the box [0, p]^3 has over 10^18 monomials at p = 1000003; the border
    # walk never builds it
    V = random_points(random.Random(p), p, 3, 10)
    for order in LARGE_P_ORDERS:
        basis = bm_reduced_gb(V, order)
        verify_reduced_gb(basis, V)
        assert len(basis.standard_monomials) == 10


@pytest.mark.parametrize("p", [101, 1000003])
def test_large_p_bases_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    V = random_points(random.Random(p), p, 3, 10)
    xs = sympy.symbols("x1:4")
    for order, name in SYMPY_ORDERS.items():
        basis = bm_reduced_gb(V, order)
        # from_dict converts the coefficients of the dict it is given in place
        polys = [
            sympy.Poly.from_dict(dict(g.poly.terms), *xs, modulus=p)
            for g in basis.generators
        ]
        reduced = sympy.groebner(polys, *xs, modulus=p, order=name)
        theirs = {
            frozenset((tuple(e), int(c) % p) for e, c in g.terms())
            for g in reduced.polys
        }
        ours = {frozenset(g.poly.terms.items()) for g in basis.generators}
        assert ours == theirs, name


@pytest.mark.parametrize(
    "p,n,most",
    [(3, 2, 9), (3, 3, 10), (3, 4, 10), (5, 2, 12), (5, 3, 8), (7, 2, 12), (2, 4, 10)],
)
def test_packed_tails_match_list_reference(p, n, most):
    # the staircases, tails, witnesses and target interpolants read off
    # packed rows equal those of list rows, walked by the recursive
    # reference walk, staircase by staircase, corner by corner and target
    # by target
    rng = random.Random(600 + 10 * p + n)
    for _ in range(8):
        V = random_points(rng, p, n, rng.randint(1, most))
        outputs = random.Random(len(V.points))
        targets = [
            tuple(outputs.randrange(p) for _ in V.points) for _ in range(outputs.randint(0, 2))
        ]
        got = list(_coherent_staircases(V, targets))
        assert got == coherent_staircases_reference(V, targets), V


@pytest.mark.parametrize("p", [2, 3, 5, 251, 2**31 - 1])
def test_packed_rows_against_list_elimination(p):
    # vectors of p - 1 everywhere fill every slot as far as it can go; each
    # dependent vector equals its combination of the vectors kept before
    rng = random.Random(p)
    for m in (1, 2, 5, 12):
        echelon = ModpRows(p, m)
        assert echelon.width == ((p - 1) + m * (p - 1) ** 2).bit_length()
        vectors = [[p - 1] * m] + [
            [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(m)]
            for _ in range(3 * m)
        ]
        kept = []
        for vec in vectors:
            k = len(kept)
            seed = 1 << k * echelon.width if k < m else 0
            reduced = echelon.reduce(echelon.pack(vec) | seed)
            independent = k < m and echelon.insert(reduced) is not None
            assert independent == (modp_row_rank(kept + [vec], p) > k)
            if independent:
                kept.append(vec)
            else:
                combo = echelon.combination(reduced, k)
                assert all(
                    (x + sum(c * row[i] for c, row in zip(combo, kept))) % p == 0
                    for i, x in enumerate(vec)
                )
        assert len(kept) == modp_row_rank(vectors, p)


def test_border_walk_matches_box_scan_at_the_widest_slots():
    # 20 points mod 251 under the benchmark's gb orders: the widest packed
    # rows its gb ops reach
    assert ModpRows(251, 20).width == 21
    V = random_points(random.Random(251), 251, 2, 20)
    for order in (GrevLexOrder(), GrLexOrder(), LexOrder(), WeightOrder((2, 3))):
        assert _basis_layout(bm_reduced_gb(V, order)) == _basis_layout(
            box_scan_reduced_gb(V, order)
        ), order


def test_fm_falls_back_to_unpruned_elimination(monkeypatch):
    # a pruned system that gives a wrong witness is solved again unpruned
    kernel = gbfan.groebner._fm_witness
    pruned = []

    def spoiled(diffs, nvars, prune):
        pruned.append(prune)
        return (1,) * nvars if prune else kernel(diffs, nvars, prune)

    monkeypatch.setattr(gbfan.groebner, "_fm_witness", spoiled)
    diffs = [(1, -2), (-1, 3)]
    assert _positive_weight_witness(diffs, 2) == fm_witness_reference(diffs, 2) == (5, 2)
    assert pruned == [True, False]
    assert _positive_weight_witness([(1, -1)], 2) == (2, 1)
    assert pruned[2:] == [True, False]


@pytest.mark.parametrize("diffs", [
    [(0, 0)],
    [(1, -1), (0, 0)],
    [(0, 0), (1, -2), (-1, 3)],
])
def test_fm_refuses_a_zero_difference(diffs):
    # a zero difference asks for w.0 > 0: a tail term equal to its corner,
    # which no weight orders, so there is no witness with or without pruning
    assert _fm_witness(diffs, 2, prune=True) is None
    assert _fm_witness(diffs, 2, prune=False) is None
    assert _positive_weight_witness(diffs, 2) is None
    feasible = [d for d in diffs if any(d)]
    assert _positive_weight_witness(feasible, 2) == fm_witness_reference(feasible, 2)


def test_fm_pair_budget(monkeypatch):
    # a step pairs its rows only when their count is within the budget
    diffs = [(1, -1, 0), (0, 1, -1), (-1, 0, 2)]
    assert _positive_weight_witness(diffs, 3) == fm_witness_reference(diffs, 3)
    # every variable has two rows above and one below, so each step pairs 2
    monkeypatch.setattr(gbfan.groebner, "FM_MAX_PAIRS", 2)
    assert _positive_weight_witness(diffs, 3) == fm_witness_reference(diffs, 3)
    monkeypatch.setattr(gbfan.groebner, "FM_MAX_PAIRS", 1)
    with pytest.raises(BudgetExceeded) as info:
        _positive_weight_witness(diffs, 3)
    assert str(info.value) == "Fourier-Motzkin step of 2 row pairs exceeds the budget 1"


# 11 points in Z_2^6 whose fan took over 180 s without pruning
ELEVEN = PointSet(2, 6, [
    (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 1, 1), (0, 1, 0, 0, 1, 1), (0, 1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 1), (1, 1, 0, 0, 0, 1), (1, 1, 0, 0, 1, 0), (1, 1, 0, 1, 1, 0),
    (1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 0),
])


def test_eleven_points_in_z2_6_finish():
    start = time.perf_counter()
    fan = all_reduced_gbs(ELEVEN)
    assert time.perf_counter() - start < 20
    assert len(fan) == 232
    staircases = set(fan.staircases())
    for entry in fan.entries:
        verify_reduced_gb(entry.basis, ELEVEN)
        assert bm_reduced_gb(ELEVEN, WeightOrder(entry.witness_weight)) == entry.basis
    # every order of the grid and of random weights lands on a fan staircase
    found = weight_grid_sm_sets(ELEVEN, grid_max=1)
    rng = random.Random(11)
    for _ in range(200):
        weights = [rng.randint(1, 16) for _ in range(6)]
        tie = rng.sample(range(6), 6)
        found.add(bm_reduced_gb(ELEVEN, WeightOrder(weights, tie=tie)).standard_monomials.points)
    assert found <= {s.points for s in staircases}
