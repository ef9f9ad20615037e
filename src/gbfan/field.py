"""Exact arithmetic and linear algebra over prime fields Z_p."""

from functools import lru_cache

from .errors import ModulusMismatch, SingularMatrix, ZeroInverse


@lru_cache(maxsize=None)
def is_prime(p):
    """Deterministic trial-division primality test."""
    if not isinstance(p, int) or isinstance(p, bool):
        return False
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeModulus:
    """A prime p in [2, 2^31 - 1], the context every field value carries."""

    __slots__ = ("p",)

    def __init__(self, p):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        if p < 2 or p > 2**31 - 1:
            raise ValueError(f"modulus out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime: {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeModulus", self.p))

    def __repr__(self):
        return f"PrimeModulus({self.p})"

    def scalar(self, value):
        return Scalar(value, self)


class Scalar:
    """An element of Z_p, always stored reduced to [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        if isinstance(modulus, int):
            modulus = PrimeModulus(modulus)
        self.modulus = modulus
        self.value = int(value) % modulus.p

    @property
    def p(self):
        return self.modulus.p

    def _value_of(self, other):
        if isinstance(other, Scalar):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"mixed moduli {self.p} and {other.p}"
                )
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._value_of(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._value_of(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._value_of(other)
        if v is None:
            return NotImplemented
        return Scalar(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._value_of(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.value, self.modulus)

    def __pow__(self, exponent):
        if exponent < 0 and self.value == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return Scalar(pow(self.value, exponent, self.p), self.modulus)

    def inverse(self):
        return scalar_inverse(self)

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Scalar({self.value}, mod {self.p})"


def _reduced(x, modulus):
    """An int or Scalar entry as its value in [0, p)."""
    if isinstance(x, Scalar):
        if x.modulus != modulus:
            raise ModulusMismatch(f"entry mod {x.p} against modulus {modulus.p}")
        return x.value
    return int(x) % modulus.p


def scalar_inverse(a):
    """Multiplicative inverse in Z_p; zero has none."""
    if a.value == 0:
        raise ZeroInverse(f"0 has no inverse mod {a.p}")
    return Scalar(pow(a.value, -1, a.p), a.modulus)


class MatrixZp:
    """Dense matrix over Z_p: reduced entries as a tuple of int tuples.

    The shape is stored beside them, so a matrix with no rows or no
    columns still reports both dimensions.
    """

    __slots__ = ("modulus", "entries", "shape")

    def __init__(self, modulus, rows):
        if isinstance(modulus, int):
            modulus = PrimeModulus(modulus)
        data = tuple(tuple(_reduced(x, modulus) for x in row) for row in rows)
        if len({len(row) for row in data}) > 1:
            raise ValueError("rows of unequal length")
        self.modulus = modulus
        self.entries = data
        self.shape = (len(data), len(data[0]) if data else 0)

    @property
    def p(self):
        return self.modulus.p

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def entry(self, i, j):
        return Scalar(self.entries[i][j], self.modulus)

    def transpose(self):
        # built directly, since rows alone cannot give a 0 x k shape
        t = object.__new__(MatrixZp)
        t.modulus = self.modulus
        t.entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        t.shape = (self.cols, self.rows)
        return t

    def to_lists(self):
        return [list(row) for row in self.entries]

    def matvec(self, values):
        vec = [_reduced(v, self.modulus) for v in values]
        if len(vec) != self.cols:
            raise ValueError(f"expected {self.cols} values, got {len(vec)}")
        return [sum(a * b for a, b in zip(row, vec)) % self.p for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixZp)
            and self.modulus == other.modulus
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.entries))

    def __repr__(self):
        return f"MatrixZp(mod {self.p}, {self.to_lists()})"


def rank(matrix):
    """Rank over Z_p."""
    return modp_row_rank(matrix.to_lists(), matrix.p)


def solve(matrix, rhs):
    """Unique solution of M x = rhs for invertible square M over Z_p."""
    p = matrix.p
    m = matrix.rows
    if matrix.cols != m:
        raise SingularMatrix(f"matrix is {matrix.rows}x{matrix.cols}, not square")
    vec = [_reduced(v, matrix.modulus) for v in rhs]
    if len(vec) != m:
        raise ValueError(f"rhs has length {len(vec)}, expected {m}")
    sol = modp_solve_columns(matrix.to_lists(), [vec], p)[0]
    return [Scalar(x, matrix.modulus) for x in sol]


def inverse(matrix):
    """Matrix inverse over Z_p."""
    p = matrix.p
    m = matrix.rows
    if matrix.cols != m:
        raise SingularMatrix(f"matrix is {matrix.rows}x{matrix.cols}, not square")
    cols = [[int(i == j) for i in range(m)] for j in range(m)]
    sols = modp_solve_columns(matrix.to_lists(), cols, p)
    inv_rows = [[sols[j][i] for j in range(m)] for i in range(m)]
    return MatrixZp(matrix.modulus, inv_rows)


def _gauss_jordan(work, ncols, p):
    """Reduce the rows in place over their first ncols columns; return the rank.

    Column by column, the first row at or below the current rank with a
    nonzero entry becomes the pivot: it is swapped up, scaled to 1 and
    cleared from every other row.  The first `rank` rows end in reduced
    row echelon form.
    """
    nrows = len(work)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if work[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        row_r = work[r]
        for i in range(nrows):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], row_r)]
        r += 1
    return r


def modp_solve_columns(rows, columns, p):
    """Solve A x = c over Z_p for each column c at once.

    A is given as a square list of integer rows.  Raises SingularMatrix
    when A has deficient rank.
    """
    m = len(rows)
    aug = [list(rows[i]) + [col[i] % p for col in columns] for i in range(m)]
    if _gauss_jordan(aug, m, p) < m:
        raise SingularMatrix(f"rank below {m}")
    return [[aug[i][m + k] for i in range(m)] for k in range(len(columns))]


def modp_row_rank(rows, p):
    """Rank of a list of integer rows over Z_p."""
    work = [list(r) for r in rows]
    return _gauss_jordan(work, len(work[0]) if work else 0, p)


class ModpRows:
    """Echelon rows over Z_p for vectors of m values, each packed in one int.

    Every entry has a slot of w bits, entry i of the values in slot m + i
    and entry j of a combination of members in slot j, the way Z_2 rows
    keep their values above their combination bits.  A row is 1 at its
    pivot and 0 at the pivots of the rows before it, and is stored negated,
    each slot holding (p - x) % p.  Subtracting c times a row adds c
    times its negation, so every addend is nonnegative and at most
    (p - 1)^2; at most m rows reduce a vector whose slots start below p, so
    with w = ((p - 1) + m*(p - 1)^2).bit_length() no slot carries into the
    next, and a slot is read as `(vec >> s & full) % p`.
    """

    __slots__ = ("p", "m", "width", "full", "rows")

    def __init__(self, p, m):
        self.p = p
        self.m = m
        self.width = ((p - 1) + m * (p - 1) ** 2).bit_length()
        self.full = (1 << self.width) - 1
        self.rows = []

    def pack(self, values):
        """The values in their slots, with a zero combination."""
        w = self.width
        vec = 0
        for x in reversed(values):
            vec = vec << w | x
        return vec << self.m * w

    def reduce(self, vec):
        """Subtract from vec the multiple of each row that clears its pivot."""
        p, full = self.p, self.full
        for s, row in self.rows:
            c = (vec >> s & full) % p
            if c:
                vec += c * row
        return vec

    def insert(self, vec):
        """Add a reduced vector as a row and return its pivot's bit offset,
        or return None when its values are all 0 mod p."""
        p, w, full = self.p, self.width, self.full
        top = 2 * self.m * w
        for piv in range(self.m * w, top, w):
            x = (vec >> piv & full) % p
            if x:
                break
        else:
            return None
        scale = p - pow(x, -1, p)
        row = 0
        for s in range(top - w, -1, -w):
            row = row << w | (vec >> s & full) * scale % p
        self.rows.append((piv, row))
        return piv

    def combination(self, vec, k):
        """The first k combination slots of a vector, each read mod p."""
        p, w, full = self.p, self.width, self.full
        return [(vec >> s & full) % p for s in range(0, k * w, w)]


def gf2_reduce(mask, pivots):
    """Reduce a bit mask against pivot masks keyed by their highest bit.

    The result is 0 when the mask lies in their span over Z_2; otherwise
    no pivot holds its highest bit.
    """
    while mask:
        other = pivots.get(mask.bit_length() - 1)
        if other is None:
            break
        mask ^= other
    return mask


def gf2_row_rank(masks):
    """Rank over Z_2 of rows packed as integer bit masks."""
    pivots = {}
    for mask in masks:
        cur = gf2_reduce(mask, pivots)
        if cur:
            pivots[cur.bit_length() - 1] = cur
    return len(pivots)
