import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gbfan import (
    MatrixZp,
    ModulusMismatch,
    PrimeModulus,
    Scalar,
    SingularMatrix,
    ZeroInverse,
    inverse,
    rank,
    scalar_inverse,
    solve,
)
from gbfan.field import gf2_row_rank, modp_row_rank
from _oracles import span_rank


def test_prime_modulus_validation():
    assert PrimeModulus(2).p == 2
    assert PrimeModulus(2147483647).p == 2147483647  # 2^31 - 1 is prime
    for bad in (0, 1, 4, 9, -7, 2**31):
        with pytest.raises(ValueError):
            PrimeModulus(bad)
    with pytest.raises(ValueError):
        PrimeModulus("3")


def test_scalar_reduction_and_arithmetic():
    mod = PrimeModulus(5)
    a = Scalar(7, mod)
    assert a.value == 2
    assert (a + Scalar(4, mod)).value == 1
    assert (a - 3).value == 4
    assert (a * a).value == 4
    assert (-a).value == 3
    assert (a**0).value == 1


def test_mixed_moduli_rejected():
    with pytest.raises(ModulusMismatch):
        Scalar(1, 2) + Scalar(1, 3)
    with pytest.raises(ModulusMismatch):
        Scalar(2, 5) * Scalar(2, 7)
    with pytest.raises(ModulusMismatch):
        MatrixZp(3, [[Scalar(1, 5)]])


def test_scalar_inverse_examples():
    assert scalar_inverse(Scalar(2, 3)).value == 2
    assert scalar_inverse(Scalar(1, 2)).value == 1
    # exhaustive search over Z_5
    expected = next(b for b in range(1, 5) if (3 * b) % 5 == 1)
    assert expected == 2
    assert scalar_inverse(Scalar(3, 5)).value == expected


def test_scalar_inverse_zero_rejected():
    with pytest.raises(ZeroInverse):
        scalar_inverse(Scalar(0, 3))
    with pytest.raises(ZeroInverse):
        Scalar(0, 3) ** -1


def test_inverse_involution():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            s = Scalar(a, p)
            assert scalar_inverse(scalar_inverse(s)) == s
            assert (s * scalar_inverse(s)).value == 1


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
    m1 = _toy_matrix([(0, 0), (1, 0), (0, 1)], pts, 3)
    sol1 = solve(m1, (0, 0, 1))
    assert [s.value for s in sol1] == [0, 0, 1]  # f = y
    m2 = _toy_matrix([(0, 0), (1, 0), (2, 0)], pts, 3)
    sol2 = solve(m2, (0, 0, 1))
    assert [s.value for s in sol2] == [0, 1, 2]  # f = x + 2x^2
    assert [s.value for s in solve(m1, (0, 0, 0))] == [0, 0, 0]


def test_solve_singular_rejected():
    with pytest.raises(SingularMatrix):
        solve(MatrixZp(3, [[1, 0], [1, 0]]), (1, 1))
    with pytest.raises(SingularMatrix):
        solve(MatrixZp(3, [[1, 0, 0], [0, 1, 0]]), (1, 1))


def test_solve_multiply_back():
    rng = random.Random(202)
    for p in (2, 3, 5):
        for size in range(1, 9):
            for _ in range(6):
                while True:
                    rows = [
                        [rng.randrange(p) for _ in range(size)] for _ in range(size)
                    ]
                    m = MatrixZp(p, rows)
                    if rank(m) == size:
                        break
                rhs = [rng.randrange(p) for _ in range(size)]
                sol = solve(m, rhs)
                assert m.matvec(sol) == rhs


def test_matrix_inverse():
    m = MatrixZp(5, [[1, 2], [3, 4]])
    mi = inverse(m)
    a, b = m.to_lists(), mi.to_lists()
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(2)) % 5 for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(SingularMatrix):
        inverse(MatrixZp(3, [[1, 1], [2, 2]]))


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


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixZp(3, [[1, 2], [1]])
    m = MatrixZp(7, [[8, -1]])
    assert m.to_lists() == [[1, 6]]
    assert m.entry(0, 1) == Scalar(6, 7)


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
