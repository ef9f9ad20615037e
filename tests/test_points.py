import itertools
import math
import random

import pytest

from gbfan import (
    DataSet,
    DimensionMismatch,
    EmptyStaircase,
    MatrixZp,
    NotBasic,
    OrderIdealSet,
    PointSet,
    box_points,
    enumerate_order_ideals,
    evaluation_matrix,
    height,
    is_basic,
    is_staircase,
    layer,
    model_select,
    select_models,
)
from gbfan.groebner import bm_reduced_gb
from gbfan.poly import LexOrder
from gbfan.points import (
    _LexStandardSets,
    _subset_mask,
    _subset_points,
    eval_monomial,
    walk_staircases,
)
from _oracles import brute_force_order_ideals, span_rank, walk_staircases_reference


def test_point_set_canonical_order_and_validation():
    V = PointSet(3, 2, [(2, 1), (0, 0), (1, 0)])
    assert V.points == ((0, 0), (1, 0), (2, 1))
    assert len(V) == 3 and (1, 0) in V
    assert [2, 1] in V and (2, 2) not in V and [0, 1] not in V
    with pytest.raises(ValueError):
        PointSet(3, 2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointSet(3, 2, [(0, 3)])
    with pytest.raises(DimensionMismatch):
        PointSet(3, 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        PointSet(6, 2, [(0, 0)])


def test_point_set_json_round_trip():
    V = PointSet(3, 2, [(2, 1), (0, 0)])
    assert PointSet.from_json(V.to_json()) == V
    assert V.to_json() == {"p": 3, "n": 2, "points": [[0, 0], [2, 1]]}


def test_point_set_complement_and_union():
    V = PointSet(2, 2, [(0, 0), (1, 1)])
    assert V.complement().points == ((0, 1), (1, 0))
    assert V.union([(0, 1)]).points == ((0, 0), (0, 1), (1, 1))


def test_point_set_refuses_non_integer_coordinates():
    # (1.5,) is refused, never stored as (1,)
    for point in ((1.5,), (True,), ("1",)):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            PointSet(3, 1, [point])


def test_union_refuses_non_integer_coordinates():
    # 1.0 equals 1, so a float copy of a member would vanish into the set
    V = PointSet(3, 1, [(1,)])
    for point in ((1.0,), (2.5,), (True,)):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            V.union([point])


def test_order_ideal_validation():
    OrderIdealSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrderIdealSet(3, 2, [(2, 0), (0, 1)])


def test_is_staircase_examples():
    assert is_staircase(PointSet(3, 2, [(0, 0), (0, 1), (1, 0)]))
    assert not is_staircase(PointSet(3, 2, [(2, 0), (0, 1)]))
    assert is_staircase(PointSet(2, 2, box_points(2, 2)))
    assert is_staircase([])


@pytest.mark.parametrize("p", [2, 3, 61, 67, 1009, 1000003])
def test_eval_monomial_matches_plain_powers(p):
    # small moduli read a power table, large ones call pow(); both must give
    # the plain product, for exponents on both sides of the cap p
    rng = random.Random(p)
    for _ in range(200):
        point = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(3)]
        exps = [rng.choice([0, 1, p, p + 1, rng.randrange(2 * p + 3)]) for _ in range(3)]
        expected = math.prod(pow(v, e, p) for v, e in zip(point, exps)) % p
        assert eval_monomial(point, exps, p) == expected


def test_evaluation_matrix_examples():
    lam1 = [(0, 0), (1, 0)]
    lam2 = [(0, 0), (0, 1)]
    # rows follow the given point order when a plain sequence is passed
    raw = [(2, 0), (0, 1)]
    assert evaluation_matrix(lam1, raw, p=3) == MatrixZp(3, [[1, 2], [1, 0]])
    assert evaluation_matrix(lam2, raw, p=3) == MatrixZp(3, [[1, 0], [1, 1]])
    # a PointSet contributes its canonical order instead
    V = PointSet(3, 2, raw)
    assert evaluation_matrix(lam1, V) == MatrixZp(3, [[1, 0], [1, 2]])
    ones = evaluation_matrix([(0, 0)], V)
    assert ones == MatrixZp(3, [[1], [1]])
    with pytest.raises(ValueError):
        evaluation_matrix(lam1, raw)
    with pytest.raises(DimensionMismatch):
        evaluation_matrix([(0, 0, 0)], V)


def test_evaluation_matrix_refuses_non_integer_exponents():
    # the exponent 1.5 is refused, never read as 1
    with pytest.raises(ValueError, match="exponents must be integers"):
        evaluation_matrix([(1.5,)], [(2,)], p=3)
    with pytest.raises(ValueError, match="exponents must be integers"):
        is_basic([(True,)], PointSet(3, 1, [(2,)]))


def test_evaluation_matrix_refuses_non_integer_points():
    for point in ((2.0,), (False,)):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            evaluation_matrix([(1,)], [point], p=3)


@pytest.mark.parametrize("monomials, error, message", [
    ([(0,), (1,)], DimensionMismatch, r"\(0,\) has 1 exponents, expected 2"),
    ([(0, 0, 0), (1, 0, 5)], DimensionMismatch, "has 3 exponents, expected 2"),
    ([(0, 0), (-1, 0)], ValueError, r"exponents must be nonnegative, got \[-1, 0\]"),
    ([(0, 0), (1.0, 0)], ValueError, "exponents must be integers"),
    ([(0, 0), (True, 0)], ValueError, "exponents must be integers"),
])
def test_evaluation_api_refuses_malformed_exponents(monomials, error, message):
    # a monomial of the wrong length is never zipped down to the points'
    # dimension, and a negative exponent is never read as an inverse:
    # evaluation_matrix, is_basic and select_models read exponents one way
    V = PointSet(3, 2, [(0, 0), (1, 0)])
    data = DataSet(V, {0: (1, 2)})
    calls = [
        lambda: evaluation_matrix(monomials, V),
        lambda: evaluation_matrix(monomials, list(V.points), p=3),
        lambda: is_basic(monomials, V),
        lambda: select_models(data, monomials, [0]),
        lambda: model_select(data, monomials, 0),
    ]
    for call in calls:
        with pytest.raises(error, match=message) as caught:
            call()
        assert "\n" not in str(caught.value)
    assert is_basic([(0, 0), (1, 0)], V)
    assert select_models(data, [(0, 0), (1, 0)], [0]) == [model_select(data, V, 0)]


def test_is_basic_examples():
    V = PointSet(3, 2, [(0, 0), (1, 0)])
    assert is_basic([(0, 0), (1, 0)], V)
    assert not is_basic([(0, 0), (0, 1)], V)
    # a staircase is basic for itself
    for ideal in enumerate_order_ideals(3, 2, 3):
        assert is_basic(ideal, PointSet(3, 2, ideal.points))
    # size mismatch is never basic
    assert not is_basic([(0, 0)], V)


def test_staircase_basicness_characterization():
    # two staircases: basic exactly when they coincide
    for p, n in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        ideals = [
            ideal
            for m in range(1, p**n + 1)
            for ideal in enumerate_order_ideals(p, n, m)
        ]
        for lam in ideals:
            for v in ideals:
                V = PointSet(p, n, v.points)
                assert is_basic(lam, V) == (lam.points == v.points)


@pytest.mark.parametrize("p,n,most", [(2, 4, 8), (3, 2, 6), (5, 2, 5), (7, 2, 4)])
def test_is_basic_and_select_models_match_span_rank(p, n, most):
    # on every order ideal of each random set's size, is_basic agrees with
    # the rank of eval_monomial rows read off the size of their span, and
    # where it holds select_models interpolates random outputs on the
    # ideal's monomials; a repeated monomial, or one monomial too few, is
    # never basic
    rng = random.Random(2600 + 10 * p + n)
    box = box_points(p, n)
    coordinates = list(range(n))
    for _ in range(6):
        V = PointSet(p, n, rng.sample(box, rng.randint(1, most)))
        m = len(V)
        outputs = {j: tuple(rng.randrange(p) for _ in range(m)) for j in coordinates}
        data = DataSet(V, outputs)
        for ideal in enumerate_order_ideals(p, n, m):
            mons = list(ideal.points)
            rows = [[eval_monomial(v, u, p) for u in mons] for v in V.points]
            basic = is_basic(mons, V)
            assert basic == (span_rank(rows, p) == m), (V, mons)
            if not basic:
                with pytest.raises(NotBasic):
                    select_models(data, mons, coordinates)
                continue
            for j, model in zip(coordinates, select_models(data, mons, coordinates)):
                assert set(model.terms) <= set(mons)
                assert tuple(model.evaluate(v) for v in V.points) == outputs[j], V
            repeated = mons[:-1] + mons[:1]
            for bad in (mons[:-1], repeated) if m > 1 else (mons[:-1],):
                assert not is_basic(bad, V), (V, bad)
                with pytest.raises(NotBasic):
                    select_models(data, bad, coordinates)


def test_layer_examples():
    lam = OrderIdealSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    assert layer(lam, 0, 0).points == ((0,), (1,))
    assert layer(lam, 0, 1).points == ((0,),)
    assert layer(lam, 0, 2).points == ()
    with pytest.raises(IndexError):
        layer(lam, 2, 0)


def test_height_examples():
    lam = OrderIdealSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    assert height(lam, 0) == 2
    assert height(OrderIdealSet(3, 2, [(0, 0)]), 1) == 1
    full = OrderIdealSet(3, 2, box_points(3, 2))
    assert height(full, 1) == 3
    with pytest.raises(EmptyStaircase):
        height(OrderIdealSet(3, 2, []), 0)
    with pytest.raises(IndexError):
        height(lam, -1)


def test_layers_reconstruct_staircase():
    rng = random.Random(5)
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        for m in range(1, p**n + 1):
            ideals = enumerate_order_ideals(p, n, m)
            for lam in rng.sample(ideals, min(4, len(ideals))):
                for j in range(n):
                    rebuilt = []
                    for i in range(height(lam, j)):
                        for u in layer(lam, j, i).points:
                            rebuilt.append(u[:j] + (i,) + u[j:])
                    assert sorted(rebuilt) == list(lam.points)


def test_enumerate_order_ideals_examples():
    assert [i.points for i in enumerate_order_ideals(2, 1, 2)] == [((0,), (1,))]
    assert [i.points for i in enumerate_order_ideals(3, 2, 2)] == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
    ]
    assert [i.points for i in enumerate_order_ideals(2, 2, 3)] == [
        ((0, 0), (0, 1), (1, 0))
    ]
    with pytest.raises(ValueError):
        enumerate_order_ideals(2, 2, 5)
    with pytest.raises(ValueError):
        enumerate_order_ideals(2, 2, 0)


def test_enumerate_order_ideals_against_brute_force():
    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4)]:
        if p**n > 16:
            continue
        for m in range(1, p**n + 1):
            expected = brute_force_order_ideals(p, n, m)
            got = [i.points for i in enumerate_order_ideals(p, n, m)]
            assert got == expected, (p, n, m)


def test_staircases_read_as_points_round_trip():
    # exponent vectors double as points: staircases are valid point sets
    for ideal in enumerate_order_ideals(3, 2, 4):
        V = PointSet(3, 2, ideal.points)
        assert V.points == ideal.points
        assert is_staircase(V)


def _walk_log(walk, p, n, m, rng, stop=None):
    # every push, refusal, pop and yield of one walk, in order; push i is
    # refused when the seeded draw says so, and each pop must receive the
    # key of the latest push not yet popped
    log, open_keys = [], []
    calls = itertools.count()

    def push(v):
        if rng.random() < 0.25:
            log.append(("refuse", v))
            return None
        key = (next(calls), v)
        open_keys.append(key)
        log.append(("push", v))
        return key

    def pop(key):
        assert key == open_keys.pop()
        log.append(("pop", key[1]))

    walker = walk(p, n, m, push, pop)
    for members in itertools.islice(walker, stop):
        log.append(("yield", members))
    walker.close()
    return log


def _walk_members(p, n, m, push=lambda v: True, pop=lambda key: None):
    # the walk's member tuples, without the subset masks beside them
    for members, _ in walk_staircases(p, n, m, push, pop):
        yield members


@pytest.mark.parametrize(
    "p,n",
    [(2, 0), (3, 0), *((2, n) for n in range(1, 7)), *((3, n) for n in range(1, 5)),
     (5, 1), (5, 2), (5, 3), (7, 2), (101, 2), (101, 3)],
)
def test_walk_matches_recursive_reference(p, n):
    # the mask walk yields the reference's staircases in its order, makes
    # the same pushes and pops when pushes refuse, and stops as the
    # reference does when the caller breaks off; the large boxes of p = 101
    # run m < 10, whose boxes [0, m)^n are composite-sided
    size = p**n
    top = range(size - 2, size + 1) if size < 2000 else []
    sizes = range(size + 1) if size <= 49 else [*range(10), *top]
    for m in sizes:
        got = list(_walk_members(p, n, m))
        assert got == list(walk_staircases_reference(p, n, m)), m
        assert len(set(got)) == len(got)
        for seed in range(3):
            for stop in (None, 1, 3):
                new = _walk_log(_walk_members, p, n, m, random.Random(seed), stop)
                ref = _walk_log(
                    walk_staircases_reference, p, n, m, random.Random(seed), stop
                )
                assert new == ref, (m, seed, stop)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_subset_masks_round_trip_and_order_sets_of_one_size_lex(p, n):
    # every subset of the small boxes, random ones of Z_5^2: the points
    # come back from their mask, and among sets of one size a larger mask
    # is a lexicographically smaller sorted set
    box = box_points(p, n)
    rng = random.Random(2700 + p)
    for m in range(len(box) + 1):
        if p**n <= 9:
            sets = list(itertools.combinations(box, m))
        else:
            sets = sorted({tuple(sorted(rng.sample(box, m))) for _ in range(30)})
        masks = []
        for members in sets:
            V = PointSet(p, n, members)
            masks.append(_subset_mask(V.points, p, n))
            assert _subset_points(masks[-1], p, n) == V.points
        assert all(a > b for a, b in zip(masks, masks[1:])), m


S5 = PointSet(2, 4, [(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1)])


@pytest.mark.parametrize(
    "p,n,sets", [(2, 1, 4), (2, 2, 12), (2, 3, 20), (2, 4, 20), (2, 5, 8),
                 (3, 2, 20), (3, 3, 12), (5, 2, 20), (5, 3, 4), (13, 2, 6)],
)
def test_lex_standard_sets_match_interpolation(p, n, sets):
    # the fiber-count kernel gives, under every variable precedence, the
    # standard monomials of Buchberger-Moeller interpolation under that lex
    # order, with one instance and its memo shared by every set
    rng = random.Random(1500 + 10 * p + n)
    box = box_points(p, n)
    lex = _LexStandardSets(p, n)
    cases = [PointSet(p, n, rng.sample(box, rng.randint(1, min(len(box), 14))))
             for _ in range(sets)]
    if (p, n) == (2, 4):
        cases.append(S5)
    for V in cases:
        mask = _subset_mask(V.points, p, n)
        for perm in itertools.permutations(range(n)):
            got = _subset_points(lex(mask, perm), p, n)
            want = bm_reduced_gb(V, LexOrder(perm)).standard_monomials.points
            assert got == want, (V, perm)
    # the empty set has no standard monomial
    assert lex(0, tuple(range(n))) == 0
