"""Exact linear algebra over prime fields Z_p.

`ModpRows` is the one elimination over Z_p, on packed rows, and
`gf2_reduce` the one over Z_2, on bit masks.  The algorithms of the
package run on them only through `points._echelon`, the interpolation
kernel.  `rank`, `modp_row_rank`, `gf2_row_rank` and `modp_solve_columns`
are the public matrix layer over the same eliminations, and the
references the tests check that kernel against.
"""

from functools import lru_cache

from .errors import SingularMatrix

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(p):
    """Deterministic Miller-Rabin primality test.

    A non-integer is not prime.  An integer at or above the bound where
    the 13 bases are known to suffice raises ValueError.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        return False
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}: {p}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def int_tuple(values, what):
    """The values as a tuple, refused unless each has type int, not bool."""
    out = tuple(values)
    if any(type(x) is not int for x in out):
        raise ValueError(f"{what} must be integers, got {list(out)!r}")
    return out


class MatrixZp:
    """Dense matrix over Z_p: reduced entries as a tuple of int tuples.

    The shape is stored beside them, so a matrix with no rows or no
    columns still reports both dimensions.
    """

    __slots__ = ("p", "entries", "shape")

    def __init__(self, p, rows):
        if not is_prime(p):
            raise ValueError(f"p must be prime: {p!r}")
        data = tuple(tuple(x % p for x in int_tuple(row, "entries")) for row in rows)
        if len({len(row) for row in data}) > 1:
            raise ValueError("rows of unequal length")
        self.p = p
        self.entries = data
        self.shape = (len(data), len(data[0]) if data else 0)

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def transpose(self):
        # built directly, since rows alone cannot give a 0 x k shape
        t = object.__new__(MatrixZp)
        t.p = self.p
        t.entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        t.shape = (self.cols, self.rows)
        return t

    def to_lists(self):
        return [list(row) for row in self.entries]

    def matvec(self, values):
        p = self.p
        vec = [x % p for x in int_tuple(values, "values")]
        if len(vec) != self.cols:
            raise ValueError(f"expected {self.cols} values, got {len(vec)}")
        return [sum(a * b for a, b in zip(row, vec)) % p for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixZp)
            and self.p == other.p
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.entries))

    def __repr__(self):
        return f"MatrixZp(mod {self.p}, {self.to_lists()})"


def rank(matrix):
    """Rank over Z_p."""
    return modp_row_rank(matrix.entries, matrix.p)


def modp_row_rank(rows, p):
    """Rank of a list of integer rows over Z_p: how many of them, reduced
    mod p, insert into `ModpRows` echelon rows."""
    echelon = ModpRows(p, len(rows[0]) if rows else 0)
    for row in rows:
        echelon.insert(echelon.reduce(echelon.pack([x % p for x in row])))
    return len(echelon.rows)


def modp_solve_columns(rows, columns, p):
    """Solve A x = c over Z_p for each column c at once.

    A is given as a square list of integer rows.  Column j of A goes in
    as the vector of unknown j, with a 1 in combination slot j, the way
    the fan walk inserts a member; reducing c against those rows leaves
    minus its solution in the combination slots.  Entries are reduced
    mod p first.  Raises SingularMatrix when A is not square or has
    deficient rank.
    """
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise SingularMatrix(f"matrix is not {m}x{m}")
    if any(len(c) != m for c in columns):
        raise ValueError(f"right-hand sides must have length {m}")
    echelon = ModpRows(p, m)

    def packed(values):
        return echelon.pack([x % p for x in values])

    for j, col in enumerate(zip(*rows)):
        if echelon.insert(echelon.reduce(packed(col) | 1 << j * echelon.width)) is None:
            raise SingularMatrix(f"rank below {m}")
    return [
        [-x % p for x in echelon.combination(echelon.reduce(packed(c)), m)]
        for c in columns
    ]


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
