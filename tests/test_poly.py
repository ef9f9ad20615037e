import itertools
import random
from fractions import Fraction

import pytest

from gbfan import (
    DimensionMismatch,
    GrevLexOrder,
    GrLexOrder,
    InconsistentMarking,
    LexOrder,
    MarkedPolynomial,
    Polynomial,
    PolySyntaxError,
    WeightOrder,
    compare,
    evaluate,
    format_polynomial,
    normal_form,
    parse_polynomial,
)
from gbfan.poly import format_monomial


def _panel(n):
    return [
        LexOrder(),
        LexOrder(tuple(reversed(range(n)))),
        GrLexOrder(),
        GrevLexOrder(),
        WeightOrder((1,) * n),
        WeightOrder(tuple(range(1, n + 1))),
    ]


def test_compare_weight_examples():
    w13 = WeightOrder((1, 3))
    assert compare(w13, (0, 1), (2, 0)) == 1  # y above x^2 since 3 > 2
    w11 = WeightOrder((1, 1))
    assert compare(w11, (2, 0), (0, 1)) == 1  # x^2 above y
    for order in _panel(2):
        for u in [(1, 0), (0, 2), (2, 1)]:
            assert order.compare(u, (0, 0)) == 1


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare(GrLexOrder(), (1, 0), (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        WeightOrder((1, 2)).key((1, 0, 0))


def test_weight_order_validation():
    with pytest.raises(ValueError):
        WeightOrder((1, 0))
    with pytest.raises(ValueError):
        WeightOrder((1, -2))
    with pytest.raises(ValueError):
        WeightOrder((1, 1), tie=(0, 0))
    assert WeightOrder(("1/2", 3)).weights[0].denominator == 2


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (3, 1, 2), (Fraction(1, 2), 3, Fraction(5, 3))]
)
def test_weight_key_equals_generic_formula(weights):
    # the identity tie-break keys by the exponent tuple itself; every tie
    # keys as (w.u, the exponents read in tie order)
    for tie in [None, *itertools.permutations(range(3))]:
        order = WeightOrder(weights, tie=tie)
        perm = tie or (0, 1, 2)
        for u in itertools.product(range(4), repeat=3):
            dot = sum(Fraction(w) * e for w, e in zip(weights, u))
            assert order.key(u) == (dot, tuple(u[i] for i in perm)), (tie, u)
            assert order.key(list(u)) == order.key(u)


def test_total_order_exhaustive():
    # strict total order on the monomial box, antisymmetry and transitivity
    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
        box = list(itertools.product(range(p + 1), repeat=n))
        for order in _panel(n):
            keys = {u: order.key(u) for u in box}
            assert len(set(keys.values())) == len(box)  # injective: strict order
            ranked = sorted(box, key=keys.__getitem__)
            position = {u: i for i, u in enumerate(ranked)}
            for u in box:
                for v in box:
                    c = order.compare(u, v)
                    assert c == -order.compare(v, u)
                    assert c == (position[u] > position[v]) - (position[u] < position[v])
            # agreement with a sorted ranking is transitivity


def test_multiplicativity():
    for p, n in [(3, 2), (2, 3)]:
        box = list(itertools.product(range(p + 1), repeat=n))
        inside = set(box)
        for order in _panel(n):
            for u in box:
                for v in box:
                    if u == v:
                        continue
                    base = order.compare(u, v)
                    for t in box:
                        ut = tuple(a + b for a, b in zip(u, t))
                        vt = tuple(a + b for a, b in zip(v, t))
                        if ut in inside and vt in inside:
                            assert order.compare(ut, vt) == base


def test_polynomial_construction_canonical():
    f = Polynomial(3, 2, {(1, 0): 4, (0, 0): 3, (2, 0): 2})
    assert f.terms == {(1, 0): 1, (2, 0): 2}
    g = Polynomial(3, 2, [((1, 0), 1), ((2, 0), 2)])
    assert f == g
    assert hash(f) == hash(g)
    assert not Polynomial.zero(3, 2)
    with pytest.raises(DimensionMismatch):
        Polynomial(3, 2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(4, 2, {(1, 0): 1})


def test_evaluate_examples():
    f = parse_polynomial("x1 + 2*x1^2", 3, 2)
    assert evaluate(f, (2, 1)) == 1
    y = parse_polynomial("x2", 3, 2)
    assert evaluate(y, (1, 0)) == 0
    assert evaluate(Polynomial.zero(3, 2), (2, 2)) == 0
    with pytest.raises(DimensionMismatch):
        evaluate(f, (1, 2, 0))


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        def rand_poly():
            return Polynomial(
                p,
                n,
                {
                    tuple(rng.randint(0, p) for _ in range(n)): rng.randrange(p)
                    for _ in range(rng.randint(0, 4))
                },
            )
        f, g = rand_poly(), rand_poly()
        v = tuple(rng.randrange(p) for _ in range(n))
        assert (f + g).evaluate(v) == (f.evaluate(v) + g.evaluate(v)) % p
        assert (f * g).evaluate(v) == (f.evaluate(v) * g.evaluate(v)) % p
        assert (f - g).evaluate(v) == (f.evaluate(v) - g.evaluate(v)) % p
        assert (-f).evaluate(v) == -f.evaluate(v) % p
        assert (1 - f).evaluate(v) == (1 - f.evaluate(v)) % p


def _toy_gb1():
    order = WeightOrder((1, 1))
    gens = [
        MarkedPolynomial(parse_polynomial("x2^2 + 2*x2", 3, 2), (0, 2)),
        MarkedPolynomial(parse_polynomial("x1*x2 + x2", 3, 2), (1, 1)),
        MarkedPolynomial(parse_polynomial("x1^2 + 2*x1 + x2", 3, 2), (2, 0)),
    ]
    return gens, order


def _toy_gb2():
    order = WeightOrder((1, 3))
    gens = [
        MarkedPolynomial(parse_polynomial("x2 + x1^2 + 2*x1", 3, 2), (0, 1)),
        MarkedPolynomial(parse_polynomial("x1^3 + 2*x1", 3, 2), (3, 0)),
    ]
    return gens, order


def test_normal_form_examples():
    gens, order = _toy_gb1()
    f = parse_polynomial("x1*x2", 3, 2)
    r = normal_form(f, gens, order)
    assert r == parse_polynomial("2*x2", 3, 2)
    # independent check: the remainder agrees with f on the points and is
    # supported on the standard monomials {1, x, y}
    for v in [(0, 0), (1, 0), (2, 1)]:
        assert r.evaluate(v) == f.evaluate(v)
    assert set(r.terms) <= {(0, 0), (1, 0), (0, 1)}

    gens2, order2 = _toy_gb2()
    f2 = parse_polynomial("x1^2", 3, 2)
    assert normal_form(f2, gens2, order2) == f2

    for g in gens:
        assert not normal_form(g.poly, gens, order)


def test_normal_form_idempotent():
    rng = random.Random(23)
    gens, order = _toy_gb1()
    for _ in range(50):
        f = Polynomial(
            3,
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(3)
                for _ in range(rng.randint(0, 5))
            },
        )
        once = normal_form(f, gens, order)
        assert normal_form(once, gens, order) == once


def test_normal_form_marking_checked():
    order = WeightOrder((1, 1))
    bad = MarkedPolynomial(parse_polynomial("x2 + x1^2", 3, 2), (0, 1))
    with pytest.raises(InconsistentMarking):
        normal_form(parse_polynomial("x1", 3, 2), [bad], order)


def test_marked_polynomial_contract():
    f = parse_polynomial("2*x1^2 + x2", 3, 2)
    with pytest.raises(ValueError):
        MarkedPolynomial(f, (2, 0))  # coefficient 2, not monic
    marked = MarkedPolynomial.mark(f, WeightOrder((1, 1)))
    assert marked.leading == (2, 0)
    assert marked.poly.terms[(2, 0)] == 1


def test_parse_examples():
    f = parse_polynomial("x1^2 + 2*x1", 3, 3)
    assert f.terms == {(2, 0, 0): 1, (1, 0, 0): 2}
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x1^5", 3, 2)
    assert parse_polynomial("0", 3, 2) == Polynomial.zero(3, 2)
    assert parse_polynomial("3*x1", 3, 2) == Polynomial.zero(3, 2)
    assert parse_polynomial("x1 + 2 + x1", 3, 2) == parse_polynomial("2*x1 + 2", 3, 2)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x", 1),
        ("x0", 0),
        ("x3", 0),
        ("1++2", 2),
        ("x1*", 3),
        ("x1 x2", 3),
        ("x1^", 3),
        ("y1", 0),
        ("x\u0661", 1),
        ("x\u00b2", 1),
        ("x1 + \u0663*x2", 5),
        ("\u0663", 0),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(PolySyntaxError) as err:
        parse_polynomial(text, 3, 2)
    assert err.value.position == position


def test_format_examples():
    f = parse_polynomial(
        "x2*x3*x4 + x2*x3 + x2*x4 + x3*x4 + x2 + x3", 2, 4
    )
    assert (
        format_polynomial(f, GrLexOrder())
        == "x2*x3*x4 + x2*x3 + x2*x4 + x3*x4 + x2 + x3"
    )
    assert format_polynomial(Polynomial.zero(3, 2)) == "0"
    assert format_polynomial(Polynomial.constant(3, 2, 2)) == "2"
    g = parse_polynomial("2*x1^2 + x2 + 1", 3, 2)
    assert format_polynomial(g, WeightOrder((1, 1))) == "2*x1^2 + x2 + 1"
    assert (
        format_polynomial(g, WeightOrder((1, 1)), names=("x", "y"))
        == "2*x^2 + y + 1"
    )


def test_format_monomial_examples():
    assert format_monomial((0, 0)) == "1"
    assert format_monomial(()) == "1"
    assert format_monomial((1, 0, 3)) == "x1*x3^3"
    assert format_monomial((2, 1), ("a", "b")) == "a^2*b"
    assert format_monomial((0, 1), ("a", "b")) == "b"
    # an empty name is an empty factor, not the constant monomial
    assert format_monomial((1, 0), ("", "b")) == ""
    assert format_polynomial(Polynomial(3, 2, {(1, 0): 2}), names=["", "b"]) == "2*"


def test_parse_format_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        f = Polynomial(
            p,
            n,
            {
                tuple(rng.randint(0, p) for _ in range(n)): rng.randrange(p)
                for _ in range(rng.randint(0, 5))
            },
        )
        for order in _panel(n)[:4]:
            assert parse_polynomial(format_polynomial(f, order), p, n) == f
