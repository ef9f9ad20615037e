import collections
import itertools
import json
import math
import random
import tracemalloc

import pytest

from gbfan import (
    And,
    BudgetExceeded,
    DataSet,
    DimensionMismatch,
    FiniteDynamicalSystem,
    LAC_UPDATE_POLYNOMIALS,
    Not,
    NotBasic,
    Or,
    PointSet,
    Polynomial,
    Var,
    apply_fds,
    boolean_to_poly,
    box_points,
    enumerate_models,
    is_unique_gb,
    lac_boolean_model,
    lac_fds,
    min_augmentation,
    model_select,
    parse_polynomial,
    state_space,
    weak_components,
)
from _oracles import (
    brute_force_models,
    brute_force_order_ideals,
    enumerate_models_reference,
    min_augmentation_reference,
    random_points,
    span_rank,
)

S5 = PointSet(2, 4, [(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1)])

LAC_COMPONENTS = [
    [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)],
    [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1)],
    [(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)],
    [(0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
]


def test_boolean_translation_examples():
    m, lac, le, ge = Var(0), Var(1), Var(2), Var(3)
    f_m = boolean_to_poly(And(Not(ge), Or(lac, le)), 4)
    assert f_m == parse_polynomial(LAC_UPDATE_POLYNOMIALS[0], 2, 4)
    f_l = boolean_to_poly(And(m, And(le, Not(ge))), 4)
    assert f_l == parse_polynomial(LAC_UPDATE_POLYNOMIALS[1], 2, 4)
    assert boolean_to_poly(Not(Not(Var(0))), 2) == Polynomial.variable(2, 2, 0)


def _random_expression(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randrange(n))
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return Not(_random_expression(rng, n, depth - 1))
    cls = And if kind == "and" else Or
    return cls(
        _random_expression(rng, n, depth - 1),
        _random_expression(rng, n, depth - 1),
    )


def test_translation_matches_truth_table():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 6)
        expr = _random_expression(rng, n, 4)
        poly = boolean_to_poly(expr, n)
        for exps in poly.terms:
            assert all(e <= 1 for e in exps)  # multilinear
        for state in itertools.product((0, 1), repeat=n):
            assert poly.evaluate(state) == expr.evaluate(state)


def test_substitution_chain_equivalent_by_truth_table():
    m, lac, le, ge = Var(0), Var(1), Var(2), Var(3)
    long_form = And(Not(ge), Or(lac, And(le, Not(ge))))
    short_form = And(Not(ge), Or(lac, le))
    assert boolean_to_poly(long_form, 4) == boolean_to_poly(short_form, 4)


def test_lac_model_polynomials():
    system = lac_fds()
    expected = [parse_polynomial(text, 2, 4) for text in LAC_UPDATE_POLYNOMIALS]
    assert list(system.components) == expected
    assert len(lac_boolean_model()) == 4


def test_apply_fds_examples():
    system = lac_fds()
    # evaluate the printed update polynomials independently
    printed = [parse_polynomial(text, 2, 4) for text in LAC_UPDATE_POLYNOMIALS]
    state = (1, 1, 0, 0)
    expected = tuple(f.evaluate(state) for f in printed)
    assert expected == (1, 0, 0, 0)
    assert apply_fds(system, state) == expected
    for s in box_points(2, 4):
        image = apply_fds(system, s)
        assert image[2] == s[2] and image[3] == s[3]  # identity coordinates
    zero = FiniteDynamicalSystem(2, 2, [Polynomial.zero(2, 2)] * 2)
    assert apply_fds(zero, (1, 1)) == (0, 0)
    with pytest.raises(DimensionMismatch):
        apply_fds(system, (0, 0))


def test_state_space_structure():
    system = lac_fds()
    graph = state_space(system)
    assert len(graph.nodes) == 16
    assert len(graph.images) == 16  # one out-edge per node
    printed = [parse_polynomial(text, 2, 4) for text in LAC_UPDATE_POLYNOMIALS]
    expected_fixed = [
        s
        for s in box_points(2, 4)
        if tuple(f.evaluate(s) for f in printed) == s
    ]
    assert graph.fixed_points() == expected_fixed
    for a, b in graph.edges():
        assert graph.successor(a) == b
        assert graph.successor(list(a)) == b

    ident = FiniteDynamicalSystem(
        2, 2, [Polynomial.variable(2, 2, 0), Polynomial.variable(2, 2, 1)]
    )
    assert all(a == b for a, b in state_space(ident).edges())
    with pytest.raises(BudgetExceeded):
        state_space(system, max_states=8)


def test_weak_components_examples():
    comps = weak_components(state_space(lac_fds()))
    assert [list(c.points) for c in comps] == LAC_COMPONENTS
    # identity-updated coordinates stay constant inside each component
    for comp in comps:
        assert len({v[2] for v in comp.points}) == 1
        assert len({v[3] for v in comp.points}) == 1

    ident = FiniteDynamicalSystem(
        2, 2, [Polynomial.variable(2, 2, 0), Polynomial.variable(2, 2, 1)]
    )
    assert len(weak_components(state_space(ident))) == 4

    const = FiniteDynamicalSystem(2, 2, [Polynomial.zero(2, 2)] * 2)
    assert len(weak_components(state_space(const))) == 1


def test_state_space_exports():
    graph = state_space(lac_fds())
    dot = graph.to_dot()
    assert dot.startswith("digraph")
    assert '"0100" -> "1000";' in dot
    data = graph.to_json()
    assert data["p"] == 2 and data["n"] == 4
    assert [[0, 1, 0, 0], [1, 0, 0, 0]] in data["edges"]
    assert json.dumps(data)


def test_model_select_examples():
    toy_inputs = PointSet(3, 2, [(0, 0), (1, 0), (2, 1)])
    data = DataSet(toy_inputs, {0: (0, 0, 1)})
    f1 = model_select(data, [(0, 0), (1, 0), (0, 1)], 0)
    assert f1 == parse_polynomial("x2", 3, 2)
    f2 = model_select(data, [(0, 0), (1, 0), (2, 0)], 0)
    assert f2 == parse_polynomial("x1 + 2*x1^2", 3, 2)
    zero = DataSet(toy_inputs, {0: (0, 0, 0)})
    assert not model_select(zero, [(0, 0), (1, 0), (0, 1)], 0)
    with pytest.raises(NotBasic):
        model_select(data, [(0, 0), (0, 1), (0, 2)], 0)
    with pytest.raises(NotBasic):
        model_select(data, [(0, 0), (1, 0)], 0)  # not square
    with pytest.raises(KeyError):
        model_select(data, [(0, 0), (1, 0), (0, 1)], 3)


def test_model_select_interpolation_exactness():
    rng = random.Random(89)
    for _ in range(40):
        p, n = rng.choice([(2, 3), (3, 2)])
        V = PointSet(p, n, rng.sample(box_points(p, n), rng.randint(1, 5)))
        outputs = tuple(rng.randrange(p) for _ in range(len(V)))
        data = DataSet(V, {0: outputs})
        from gbfan import all_reduced_gbs

        for entry in all_reduced_gbs(V).entries:
            model = model_select(data, entry.standard_monomials, 0)
            got = tuple(model.evaluate(v) for v in V.points)
            assert got == outputs


def test_enumerate_models_component_data():
    system = lac_fds()
    C1 = PointSet(2, 4, LAC_COMPONENTS[0])
    data = DataSet.from_fds(system, C1)
    result = enumerate_models(data)
    assert result.counts == (1, 1, 1, 1) and result.total == 1
    assert len(result.staircases) == 1
    sm = result.staircases[0]
    assert sm == ((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0))
    for j in range(4):
        model = result.models[j][0]
        for v in C1.points:
            assert model.evaluate(v) == system.apply(v)[j]


def test_enumerate_models_s5_regression():
    # Over the 13 staircases of S5, x2's update vanishes on every input, so
    # its interpolants collapse to the zero model.
    data = DataSet.from_fds(lac_fds(), S5)
    result = enumerate_models(data)
    assert result.counts == (4, 1, 4, 4)
    assert result.total == 64
    unique, count = is_unique_gb(S5)
    assert not unique and count == 13
    # every competing model still interpolates the data exactly, and the
    # per-coordinate collections are structurally distinct
    for j, per_coord in enumerate(result.models):
        assert len(set(per_coord)) == len(per_coord)
        for model in per_coord:
            got = tuple(model.evaluate(v) for v in data.inputs.points)
            assert got == data.outputs[j]
    # exhaustively over all 32 output vectors the distinct-model count
    # matches the brute-force oracle and only ever takes the values 1, 4,
    # 6 and 7; no output assignment yields 3 or 5 models
    counts = collections.Counter()
    for outs in itertools.product(range(2), repeat=len(S5)):
        result = enumerate_models(DataSet(S5, {0: outs}))
        oracle = brute_force_models(S5.points, outs, 2)
        assert sorted(sorted(f.terms.items()) for f in result.models[0]) == (
            sorted(sorted(t.items()) for t in oracle)
        ), outs
        counts[result.counts[0]] += 1
    assert set(counts) == {1, 4, 6, 7}
    assert counts == {1: 2, 4: 8, 6: 12, 7: 10}


def _assert_models_match_reference(data):
    result = enumerate_models(data)
    reference = enumerate_models_reference(data)
    assert result.to_json() == reference.to_json(), data.to_json()
    assert result.models == reference.models
    assert result.staircases == reference.staircases
    for j, per_coord in zip(data.coordinates(), result.models):
        for model in per_coord:
            got = tuple(model.evaluate(v) for v in data.inputs.points)
            assert got == data.outputs[j], (data.to_json(), j)


def test_enumerate_models_matches_reference_on_lac_data():
    # S5 under every output vector and with the lac system's outputs, and
    # the lac system on each of its weak components
    for outs in itertools.product(range(2), repeat=len(S5)):
        _assert_models_match_reference(DataSet(S5, {0: outs}))
    system = lac_fds()
    for points in [S5.points, *LAC_COMPONENTS]:
        _assert_models_match_reference(DataSet.from_fds(system, PointSet(2, 4, points)))


@pytest.mark.parametrize(
    "p,n,most", [(2, 4, 9), (3, 2, 6), (3, 3, 8), (5, 2, 10)]
)
def test_enumerate_models_matches_reference(p, n, most):
    # random inputs, with outputs for every coordinate, for some, or none
    rng = random.Random(700 + 10 * p + n)
    for _ in range(12):
        V = random_points(rng, p, n, rng.randint(1, most))
        coordinates = rng.sample(range(n), rng.randint(0, n))
        outputs = {j: [rng.randrange(p) for _ in V.points] for j in coordinates}
        _assert_models_match_reference(DataSet(V, outputs))


def test_min_augmentation_examples():
    staircase = PointSet(3, 2, [(0, 0), (0, 1), (1, 0)])
    k, witness = min_augmentation(staircase, 3)
    assert k == 0 and len(witness) == 0

    toy = PointSet(3, 2, [(0, 0), (1, 0), (2, 1)])
    result = min_augmentation(toy, 4)
    assert result is not None
    k, witness = result
    # independent breadth-first oracle over complement subsets
    complement = toy.complement().points
    oracle = None
    for kk in range(0, 5):
        for extra in itertools.combinations(complement, kk):
            if is_unique_gb(toy.union(extra))[0]:
                oracle = (kk, extra)
                break
        if oracle:
            break
    assert (k, witness.points) == oracle
    assert is_unique_gb(toy.union(witness.points))[0]

    assert min_augmentation(toy, 0) is None
    with pytest.raises(ValueError, match="nonnegative"):
        min_augmentation(toy, -1)

    # the budget counts every subset of up to k_max extra points: 1 + 6 + 15
    assert min_augmentation(toy, 2, max_sets=22) == min_augmentation(toy, 2)
    with pytest.raises(BudgetExceeded):
        min_augmentation(toy, 2, max_sets=21)
    assert min_augmentation(staircase, 3, max_sets=1)[0] == 0


def _brute_force_min_augmentation(points, k_max):
    """The first complement subset, by size then lex order, after which
    exactly one order ideal has an evaluation matrix of full rank.

    Ideals come from filtering every subset of the box, values are plain
    products and ranks are span sizes, so nothing is shared with the lex
    orders or any staircase walk.
    """
    p, n = points.p, points.n
    complement = [v for v in box_points(p, n) if v not in points]

    def unique(pts):
        basic = 0
        for ideal in brute_force_order_ideals(p, n, len(pts)):
            rows = [[math.prod(c**e for c, e in zip(v, u)) % p for u in ideal] for v in pts]
            basic += span_rank(rows, p) == len(pts)
        return basic == 1

    for k in range(k_max + 1):
        for extra in itertools.combinations(complement, k):
            if unique(list(points.points) + list(extra)):
                return k, PointSet(p, n, extra)
    return None


@pytest.mark.parametrize(
    "p,n,sizes,k_maxes",
    [(2, 2, (1, 2, 3), (0, 1, 3)), (2, 3, (2, 3, 4, 5), (0, 2, 4)),
     (2, 4, (3, 4, 5, 6, 7), (0, 2, 4)), (3, 2, (2, 3, 4, 5), (0, 1, 3)),
     (5, 2, (2, 3, 4, 5), (0, 1, 3))],
)
def test_min_augmentation_matches_reference(p, n, sizes, k_maxes):
    # deciding each candidate, a bit mask, by the n lex orders gives the
    # (k, witness) of building each candidate as its own point set and
    # counting its basic staircases; on the smallest boxes, also that of a
    # brute-force scan sharing no code with the lex orders or the walk
    rng = random.Random(1300 + 10 * p + n)
    box = box_points(p, n)
    outcomes = set()
    for m in sizes:
        for _ in range(6):
            V = PointSet(p, n, rng.sample(box, m))
            for k_max in k_maxes:
                got = min_augmentation(V, k_max)
                assert got == min_augmentation_reference(V, k_max), (V, k_max)
                if p**n <= 9 and m + k_max <= 6:
                    assert got == _brute_force_min_augmentation(V, k_max), (V, k_max)
                outcomes.add("exhausted" if got is None else min(got[0], 1))
    assert outcomes == {0, 1, "exhausted"}
    # no variables: the one point is its own unique staircase
    lone = PointSet(p, 0, [()])
    assert min_augmentation(lone, 2) == min_augmentation_reference(lone, 2)
    assert min_augmentation(lone, 2) == (0, PointSet(p, 0, ()))


def test_min_augmentation_walks_no_staircase(monkeypatch):
    # the n lex orders decide the points and every candidate, so no
    # staircase is walked, and the (k, witness) is that of counting each
    # candidate's basic staircases; on S5 the witness is the 1,033rd
    # candidate
    import gbfan.groebner
    import gbfan.points

    def refuse(*args, **kwargs):
        raise AssertionError("a staircase was walked")

    monkeypatch.setattr(gbfan.points, "walk_staircases", refuse)
    monkeypatch.setattr(gbfan.groebner, "walk_staircases", refuse)
    rng = random.Random(1515)
    cases = [(S5, 8)]
    cases += [(PointSet(2, 4, rng.sample(box_points(2, 4), m)), 8)
              for m in (4, 5, 6, 7) for _ in range(3)]
    cases += [(PointSet(3, 2, rng.sample(box_points(3, 2), m)), 4)
              for m in (3, 4, 5) for _ in range(2)]
    for V, k_max in cases:
        got = min_augmentation(V, k_max)
        assert got == min_augmentation_reference(V, k_max), V
        if V == S5:
            assert got[0] == 6 and is_unique_gb(S5.union(got[1].points))[0]


def test_min_augmentation_lists_no_box_before_its_budget(monkeypatch):
    # neither k_max = 0 nor a refused budget lists the complement
    def refuse(self):
        raise AssertionError("the complement was listed")

    line = PointSet(101, 2, [(1, 1), (2, 2), (3, 3)])
    monkeypatch.setattr(PointSet, "complement", refuse)
    assert min_augmentation(line, 0) is None
    with pytest.raises(BudgetExceeded):
        min_augmentation(line, 2)


def test_min_augmentation_holds_no_mask_per_clear_point():
    # three points of Z_101^2 that no single extra point makes unique: all
    # 10,198 candidates are tried, and a mask of p^n bits per clear point
    # would hold about 6.5 MB by itself
    line = PointSet(101, 2, [(0, 0), (1, 1), (2, 2)])
    tracemalloc.start()
    try:
        assert min_augmentation(line, 1) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6, peak


def test_dataset_round_trip_and_validation():
    data = DataSet.from_fds(lac_fds(), S5)
    redone = DataSet.from_json(data.to_json())
    assert redone.inputs == data.inputs and redone.outputs == data.outputs
    assert set(data.to_json()["outputs"]) == {"1", "2", "3", "4"}
    with pytest.raises(DimensionMismatch):
        DataSet(S5, {0: (1, 0)})
    # a key is refused unless it is the canonical spelling of 1..n: "01"
    # would collide with "1", and int() reads other digits than 0-9
    for key in ("0", "5", "x1", "01", "\u0661", "\u00b2"):
        bad = dict(data.to_json(), outputs={key: [0] * len(S5)})
        with pytest.raises(ValueError, match="not a coordinate"):
            DataSet.from_json(bad)
    # the library keys coordinates 0..n-1 and refuses any other key
    for key in (4, 5, -1):
        with pytest.raises(ValueError, match=rf"output coordinate {key} is not in \[0, 4\)"):
            DataSet(S5, {key: [0] * len(S5)})
    with pytest.raises(ValueError, match=r"not in \[0, 1\)"):
        DataSet(PointSet(3, 1, [(0,), (1,)]), {5: [0, 1], -1: [1, 1]})
    # outputs are refused outside [0, p), as coordinates are, not reduced
    for value in (2, 5, -1):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            DataSet(S5, {1: (value, 0, 0, 0, 0)})


def test_fds_json_round_trip():
    system = lac_fds()
    redone = FiniteDynamicalSystem.from_json(system.to_json())
    assert redone == system
    with pytest.raises(ValueError):
        FiniteDynamicalSystem(
            2, 1, [Polynomial(2, 1, {(3,): 1})]
        )  # exponent above cap
