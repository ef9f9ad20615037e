import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gbfan import (
    DataSet,
    LexOrder,
    LinearShift,
    MarkedPolynomial,
    MatrixZp,
    ModulusMismatch,
    PointSet,
    Polynomial,
    SingularMatrix,
    apply_shift,
    evaluation_matrix,
    is_prime,
    is_staircase,
    lac_fds,
    rank,
    shift_orbit,
)
from gbfan.field import _MR_BOUND, gf2_row_rank, modp_row_rank, modp_solve_columns
from _oracles import span_rank

P31 = 2**31 - 1
P61 = 2**61 - 1
# the least primes above 2^31 and 2^40
P31_NEXT = 2**31 + 11
P40_NEXT = 2**40 + 15


def test_is_prime_matches_trial_division_below_1e5():
    primes = []
    for n in range(2, 100_000):
        if all(n % q for q in itertools.takewhile(lambda q: q * q <= n, primes)):
            primes.append(n)
    assert len(primes) == 9592
    prime_set = set(primes)
    # the uncached test, so 10^5 results do not stay in the cache
    test = is_prime.__wrapped__
    assert all(test(n) == (n in prime_set) for n in range(-3, 100_000))


def test_is_prime_matches_sympy_below_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(404)
    for _ in range(3000):
        n = rng.randrange(2, 2 ** rng.randint(2, _MR_BOUND.bit_length()))
        n = min(n, _MR_BOUND - 1)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(200):
        bits = rng.randint(3, _MR_BOUND.bit_length() - 1)
        assert is_prime(sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits)))
    for bits in (31, 32, 61, 62, 64, 79):
        q = sympy.prevprime(2**bits)
        assert is_prime(q) and not is_prime(q * 3) and not is_prime(q + 1), bits


def test_is_prime_rejects_pseudoprimes():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    for n in carmichael:
        assert not is_prime(n), n
        assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7) if n % a)
    # a strong pseudoprime to bases 2, 3, 5 and 7
    assert 3215031751 == 151 * 751 * 28351 and not is_prime(3215031751)
    # the least strong pseudoprime to the first 12 prime bases
    assert not is_prime(318665857834031151167461)
    assert is_prime(P31) and is_prime(P61)


def test_is_prime_refuses_numbers_beyond_the_bound():
    for n in (_MR_BOUND, _MR_BOUND + 1, 2**127 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)
    for bad in (2.0, "3", True, None):
        assert not is_prime(bad)


def test_prime_modulus_validation():
    assert MatrixZp(2, [[3]]).p == 2
    # the old 2^31 - 1 cap is gone: any prime the test decides is a modulus
    for p in (P31, P31_NEXT, P61):
        assert MatrixZp(p, [[p + 5]]).to_lists() == [[5]]
    for bad in (0, 1, 4, 9, -7, 2**31, "3", 3.0):
        with pytest.raises(ValueError):
            MatrixZp(bad, [[1]])


def test_mixed_moduli_rejected():
    with pytest.raises(ModulusMismatch):
        Polynomial.constant(2, 1, 1) + Polynomial.constant(3, 1, 1)
    with pytest.raises(ModulusMismatch):
        apply_shift(LinearShift(5, (1,), (1,)), PointSet(7, 1, [(0,)]))


def test_rank_examples():
    assert rank(MatrixZp(3, [[1, 0], [1, 0]])) == 1
    assert rank(MatrixZp(3, [[1, 0], [1, 1]])) == 2
    assert rank(MatrixZp(2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0


def test_rank_transpose_property():
    rng = random.Random(101)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = MatrixZp(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank(m.transpose())


def _toy_matrix(monomials, points, p):
    rows = []
    for v in points:
        rows.append(
            [
                (v[0] ** u[0] * v[1] ** u[1]) % p if u != (0, 0) else 1
                for u in monomials
            ]
        )
    return MatrixZp(p, rows)


def test_solve_model_fit_examples():
    pts = [(0, 0), (1, 0), (2, 1)]
    m1 = _toy_matrix([(0, 0), (1, 0), (0, 1)], pts, 3).to_lists()
    assert modp_solve_columns(m1, [(0, 0, 1)], 3) == [[0, 0, 1]]  # f = y
    m2 = _toy_matrix([(0, 0), (1, 0), (2, 0)], pts, 3).to_lists()
    assert modp_solve_columns(m2, [(0, 0, 1)], 3) == [[0, 1, 2]]  # f = x + 2x^2
    assert modp_solve_columns(m1, [(0, 0, 0), (3, -3, 7)], 3) == [[0, 0, 0], [0, 0, 1]]
    assert modp_solve_columns([], [[], []], 5) == [[], []]


def test_solve_singular_rejected():
    # [[3, 0], [0, 1]] is singular once 3 is reduced mod 3
    singular = ([[1, 0], [1, 0]], [[1, 1], [2, 2]], [[0, 0], [0, 0]], [[3, 0], [0, 1]])
    for rows in singular:
        with pytest.raises(SingularMatrix):
            modp_solve_columns(rows, [(1, 1)], 3)
    with pytest.raises(SingularMatrix):
        modp_solve_columns([[1, 0, 0], [0, 1, 0]], [(1, 1)], 3)
    with pytest.raises(SingularMatrix):
        modp_solve_columns([[1], [0]], [(1, 1)], 3)
    with pytest.raises(ValueError):
        modp_solve_columns([[1, 0], [0, 1]], [(1, 1, 1)], 3)


def test_solve_multiply_back():
    rng = random.Random(202)
    for p in (2, 3, 5, P31, P61):
        for size in range(1, 9):
            for _ in range(6):
                while True:
                    rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
                    m = MatrixZp(p, rows)
                    if rank(m) == size:
                        break
                # entries outside [0, p) are reduced first
                if rng.random() < 0.5:
                    rows = [[x + p * rng.randrange(-2, 3) for x in row] for row in rows]
                rhs = [[rng.randrange(p) for _ in range(size)] for _ in range(3)]
                # the largest entries make the widest slots
                rhs.append([p - 1] * size)
                sols = modp_solve_columns(rows, rhs, p)
                assert [m.matvec(x) for x in sols] == rhs
                assert all(0 <= x < p for sol in sols for x in sol)


def test_matrix_inverse():
    # solving against the identity's columns gives the inverse's columns
    m = MatrixZp(5, [[1, 2], [3, 4]])
    cols = modp_solve_columns(m.to_lists(), [(1, 0), (0, 1)], 5)
    inv = MatrixZp(5, cols).transpose()
    a, b = m.to_lists(), inv.to_lists()
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(2)) % 5 for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(SingularMatrix):
        modp_solve_columns([[1, 1], [2, 2]], [(1, 0), (0, 1)], 3)


def test_row_rank_helpers_agree_with_matrix_rank():
    rng = random.Random(303)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        expected = span_rank(data, p)
        assert rank(MatrixZp(p, data)) == expected
        assert modp_row_rank(data, p) == expected
        if p == 2:
            masks = [sum(bit << j for j, bit in enumerate(row)) for row in data]
            assert gf2_row_rank(masks) == expected


def test_modp_row_rank_on_rectangular_shapes():
    rng = random.Random(505)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 5), (2, 7), (7, 2), (6, 1), (4, 4)]
    for p in (2, 3, 5):
        for nrows, ncols in shapes:
            for _ in range(8):
                # few distinct rows, so that ranks below both sides come up
                pool = [[rng.randrange(p) for _ in range(ncols)] for _ in range(3)]
                data = [
                    [x + p * rng.randrange(-1, 3) for x in rng.choice(pool)]
                    if rng.random() < 0.5
                    else [rng.randrange(p) for _ in range(ncols)]
                    for _ in range(nrows)
                ]
                expected = span_rank([[x % p for x in row] for row in data], p)
                assert modp_row_rank(data, p) == expected, (p, data)
                assert rank(MatrixZp(p, data)) == expected


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixZp(3, [[1, 2], [1]])
    m = MatrixZp(7, [[8, -1]])
    assert m.to_lists() == [[1, 6]]
    assert m.entries == ((1, 6),) and m.p == 7


def test_matrix_refuses_non_integer_entries():
    # a float or a bool is refused, never truncated: [[1.7, True]] is not [[1, 1]]
    for row in ([1.7, 1], [1, True], [1, "2"]):
        with pytest.raises(ValueError, match="entries must be integers"):
            MatrixZp(3, [row])


def test_matvec_refuses_non_integer_values():
    # [2.9] is refused, never read as [2]
    matrix = MatrixZp(3, [[1]])
    for values in ([2.9], [False]):
        with pytest.raises(ValueError, match="values must be integers"):
            matrix.matvec(values)
    assert matrix.matvec([5]) == [2]


_V = PointSet(3, 1, [(0,), (1,)])
_X = Polynomial(3, 1, {(1,): 1})


@pytest.mark.parametrize("build, what", [
    (lambda: Polynomial(3, 1, {(1.5,): 2}), "exponents"),
    (lambda: Polynomial(3, 1, {(1,): 2.7}), "coefficients"),
    (lambda: Polynomial(3, 1, {(1,): True}), "coefficients"),
    (lambda: _X.evaluate((2.9,)), "coordinates"),
    (lambda: MarkedPolynomial(_X, (1.9,)), "exponents"),
    (lambda: LexOrder([1.5, 0.2]), "permutation"),
    (lambda: LinearShift(3, [1.5], [0]), "scales"),
    (lambda: LinearShift(3, [1], [0.9]), "offsets"),
    (lambda: shift_orbit(3, 1, [(1.5,)]), "coordinates"),
    (lambda: is_staircase([(0, 0), (True, 0)]), "exponents"),
    (lambda: is_staircase([(0.5, 0)]), "exponents"),
    (lambda: DataSet(_V, {0: [0.5, 1.9]}), "outputs"),
    (lambda: DataSet(_V, {0.0: [0, 1]}), "output coordinates"),
    (lambda: lac_fds().apply((1.7, 0, 1, 0)), "state coordinates"),
])
def test_library_refuses_non_integers(build, what):
    # each site reads its integers through int_tuple: 1.5 is refused, never
    # truncated to 1, and True is not taken for 1
    with pytest.raises(ValueError, match=f"^{what} must be integers, got "):
        build()


def test_matrix_and_evaluation_above_2_31():
    p = P40_NEXT
    V = PointSet(p, 2, [(0, 0), (p - 1, 1), (2**35, p - 2)])
    ev = evaluation_matrix([(0, 0), (2, 0), (1, 1)], V)
    assert ev.p == p and ev.shape == (3, 3)
    assert ev.to_lists() == [[1, x * x % p, x * y % p] for x, y in V.points]
    assert ev.transpose().transpose() == ev
    assert rank(ev) == 3
    sol = modp_solve_columns(ev.to_lists(), [(5, 6, 7)], p)[0]
    assert ev.matvec(sol) == [5, 6, 7]


def test_matrix_shape_survives_empty_dimensions():
    tall = MatrixZp(5, [[], [], []])
    assert (tall.rows, tall.cols) == (3, 0)
    wide = tall.transpose()
    assert (wide.rows, wide.cols) == (0, 3)
    assert wide.transpose() == tall and wide != MatrixZp(5, [])
    assert hash(wide.transpose()) == hash(tall)


def test_matvec_is_exact_at_the_largest_modulus():
    p = 2**31 - 1
    # three products of (p-1)^2 overflow a 64-bit sum; the answer is 3
    assert MatrixZp(p, [[p - 1] * 3]).matvec([p - 1] * 3) == [3]


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, gbfan.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
