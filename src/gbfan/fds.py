"""Finite dynamical systems over Z_p and data-driven model selection.

Boolean networks translate to polynomial update functions over Z_2
(OR as x+y+xy, AND as xy, NOT as x+1), a system's state space is the
functional graph on Z_p^n, and a data set of input/output pairs selects
one interpolating model per quotient basis of its input ideal.
"""

import itertools
from dataclasses import dataclass
from math import comb, prod

from .errors import BudgetExceeded, DimensionMismatch, EmptyPointSet, NotBasic
from .groebner import _coherent_staircases, check_fan_budget
from .field import int_tuple
from .points import (
    PointSet,
    _echelon,
    _exponent_list,
    _LexStandardSets,
    _subset_mask,
    _subset_points,
    box_points,
    lex_unique,
    require,
    require_object,
)
from .poly import Polynomial, format_polynomial, parse_polynomial


class BooleanExpression:
    """Formula tree over indexed variables with NOT, AND, OR."""

    def evaluate(self, state):
        raise NotImplementedError


class Var(BooleanExpression):
    __slots__ = ("index",)

    def __init__(self, index):
        if index < 0:
            raise IndexError(f"variable index must be nonnegative: {index}")
        self.index = index

    def evaluate(self, state):
        return int(bool(state[self.index]))

    def __repr__(self):
        return f"Var({self.index})"


class Not(BooleanExpression):
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def evaluate(self, state):
        return 1 - self.expr.evaluate(state)

    def __repr__(self):
        return f"Not({self.expr!r})"


class And(BooleanExpression):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, state):
        return self.left.evaluate(state) & self.right.evaluate(state)

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


class Or(BooleanExpression):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, state):
        return self.left.evaluate(state) | self.right.evaluate(state)

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


def _squarefree(poly):
    # x^k and x agree on {0, 1}, so translated functions stay multilinear
    terms = {}
    for exps, coeff in poly.terms.items():
        key = tuple(min(e, 1) for e in exps)
        terms[key] = (terms.get(key, 0) + coeff) % poly.p
    return Polynomial(poly.p, poly.n, terms)


def boolean_to_poly(expr, n):
    """Translate a Boolean formula into a multilinear polynomial over Z_2."""
    if isinstance(expr, Var):
        if expr.index >= n:
            raise DimensionMismatch(f"variable {expr.index} outside ambient {n}")
        return Polynomial.variable(2, n, expr.index)
    if isinstance(expr, Not):
        return Polynomial.constant(2, n, 1) + boolean_to_poly(expr.expr, n)
    if isinstance(expr, And):
        left = boolean_to_poly(expr.left, n)
        right = boolean_to_poly(expr.right, n)
        return _squarefree(left * right)
    if isinstance(expr, Or):
        left = boolean_to_poly(expr.left, n)
        right = boolean_to_poly(expr.right, n)
        return _squarefree(left + right + left * right)
    raise TypeError(f"not a Boolean expression: {expr!r}")


class FiniteDynamicalSystem:
    """A map Z_p^n -> Z_p^n given by one update polynomial per coordinate."""

    __slots__ = ("p", "n", "components")

    def __init__(self, p, n, components):
        components = tuple(components)
        if len(components) != n:
            raise DimensionMismatch(f"{len(components)} update functions for n={n}")
        for f in components:
            if f.p != p or f.n != n:
                raise DimensionMismatch(
                    f"component over Z_{f.p}^{f.n} inside a system over Z_{p}^{n}"
                )
            for exps in f.terms:
                if any(e > p for e in exps):
                    raise ValueError(f"exponent above the cap {p} in {exps}")
        self.p = p
        self.n = n
        self.components = components

    def apply(self, state):
        v = int_tuple(state, "state coordinates")
        if len(v) != self.n:
            raise DimensionMismatch(f"state {v} has length {len(v)}, expected {self.n}")
        return tuple(f.evaluate(v) for f in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteDynamicalSystem)
            and self.p == other.p
            and self.n == other.n
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.p, self.n, self.components))

    def __repr__(self):
        funcs = ", ".join(format_polynomial(f) for f in self.components)
        return f"FiniteDynamicalSystem(mod {self.p}: {funcs})"

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "functions": [format_polynomial(f) for f in self.components],
        }

    @classmethod
    def from_json(cls, data):
        require_object(data, ("p", "n", "functions"), "a system file")
        p = require(data["p"], int, "p must be an integer")
        n = require(data["n"], int, "n must be an integer")
        texts = require(data["functions"], [str], "functions must be a list of strings")
        return cls(p, n, [parse_polynomial(text, p, n) for text in texts])


def apply_fds(system, state):
    """One synchronous update step."""
    return system.apply(state)


class StateSpaceGraph:
    """Functional graph of a system: every state has exactly one out-edge."""

    __slots__ = ("p", "n", "nodes", "images", "_image_of")

    def __init__(self, p, n, nodes, images):
        self.p = p
        self.n = n
        self.nodes = tuple(nodes)
        self.images = tuple(images)
        self._image_of = dict(zip(self.nodes, self.images))

    def successor(self, state):
        return self._image_of[tuple(state)]

    def edges(self):
        return list(zip(self.nodes, self.images))

    def fixed_points(self):
        return [a for a, b in zip(self.nodes, self.images) if a == b]

    def _label(self, state):
        return "".join(str(c) for c in state)

    def to_dot(self):
        lines = ["digraph state_space {"]
        for a, b in zip(self.nodes, self.images):
            lines.append(f'  "{self._label(a)}" -> "{self._label(b)}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "edges": [[list(a), list(b)] for a, b in zip(self.nodes, self.images)],
        }


def state_space(system, max_states=4096):
    """Evaluate the system at every state, in lexicographic node order."""
    count = system.p**system.n
    if count > max_states:
        raise BudgetExceeded(f"{count} states exceed the budget {max_states}")
    nodes = box_points(system.p, system.n)
    images = [system.apply(v) for v in nodes]
    return StateSpaceGraph(system.p, system.n, nodes, images)


def weak_components(graph):
    """Weakly connected components as canonical point sets."""
    index = {v: i for i, v in enumerate(graph.nodes)}
    parent = list(range(len(graph.nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(graph.nodes, graph.images):
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in graph.nodes:
        groups.setdefault(find(index[v]), []).append(v)
    comps = [PointSet(graph.p, graph.n, members) for members in groups.values()]
    comps.sort(key=lambda c: c.points)
    return comps


class DataSet:
    """Input points with one output sequence per observed coordinate.

    Outputs are aligned with the canonical order of the inputs and must
    lie in [0, p), as coordinates must; the JSON form keys coordinates
    1-based to match the x1..xn naming while the API indexes them 0-based.
    """

    __slots__ = ("p", "n", "inputs", "outputs")

    def __init__(self, inputs, outputs):
        self.p = inputs.p
        self.n = inputs.n
        self.inputs = inputs
        tidy = {}
        for key, values in outputs.items():
            (j,) = int_tuple((key,), "output coordinates")
            if not 0 <= j < self.n:
                raise ValueError(f"output coordinate {j} is not in [0, {self.n})")
            vals = int_tuple(values, "outputs")
            if len(vals) != len(inputs):
                raise DimensionMismatch(
                    f"{len(vals)} outputs for coordinate {j}, expected {len(inputs)}"
                )
            for x in vals:
                if not 0 <= x < self.p:
                    raise ValueError(
                        f"outputs for x{j + 1} must lie in [0, {self.p}), got {x}"
                    )
            tidy[j] = vals
        self.outputs = tidy

    @classmethod
    def from_pairs(cls, p, n, pairs):
        """Build from (input, output) tuples; outputs are full states."""
        pairs = [(tuple(a), tuple(b)) for a, b in pairs]
        inputs = PointSet(p, n, [a for a, _ in pairs])
        by_input = dict(pairs)
        width = len(next(iter(by_input.values()))) if pairs else 0
        outputs = {
            j: [by_input[v][j] for v in inputs.points] for j in range(width)
        }
        return cls(inputs, outputs)

    @classmethod
    def from_fds(cls, system, inputs):
        return cls.from_pairs(
            system.p, system.n, [(v, system.apply(v)) for v in inputs.points]
        )

    def coordinates(self):
        return sorted(self.outputs)

    def to_json(self):
        data = self.inputs.to_json()
        data["outputs"] = {
            str(j + 1): list(vals) for j, vals in sorted(self.outputs.items())
        }
        return data

    @classmethod
    def from_json(cls, data):
        inputs = PointSet.from_json(data)
        require_object(data, ("outputs",), "a data file")
        outputs = {}
        for k, v in require(data["outputs"], dict, "outputs must be an object").items():
            # only the canonical spelling str(j) names coordinate j
            j = int(k) if k.isascii() and k.isdigit() else 0
            if not (1 <= j <= inputs.n and k == str(j)):
                raise ValueError(f"output key {k!r} is not a coordinate 1..{inputs.n}")
            outputs[j - 1] = require(v, [int], f"outputs {k} must be integers")
        return cls(inputs, outputs)


def select_models(dataset, staircase, coordinates):
    """For each coordinate, the unique combination of staircase monomials
    matching its outputs.

    The staircase must be basic for the input points: its monomials push
    the rows of `points._echelon`, and each coordinate's outputs reduce
    against those rows to its interpolant, in the order of `coordinates`.
    """
    for j in coordinates:
        if j not in dataset.outputs:
            raise KeyError(f"no outputs for coordinate {j}")
    mons = _exponent_list(staircase, dataset.n)
    push, _, _, coefficients, pack = _echelon(dataset.inputs)
    if len(mons) != len(dataset.inputs) or not all(push(u) is not None for u in mons):
        raise NotBasic(f"{mons} is not a quotient basis for the inputs")
    p, n = dataset.p, dataset.n
    return [
        Polynomial(p, n, zip(mons, coefficients(pack(dataset.outputs[j]))))
        for j in coordinates
    ]


def model_select(dataset, staircase, coordinate):
    """The unique combination of staircase monomials matching the outputs.

    The staircase must be basic for the input points; the interpolant is
    read off the echelon rows its monomials push.
    """
    return select_models(dataset, staircase, [coordinate])[0]


@dataclass(frozen=True)
class ModelEnumeration:
    """The distinct models per coordinate, in the order of `coordinates()`
    of the data set, each tuple in first-seen fan order; their counts; the
    total, the product of the counts; and the staircases of the fan, as
    sorted member tuples in fan order."""

    models: tuple
    counts: tuple
    total: int
    staircases: tuple

    def to_json(self):
        return {
            "counts": list(self.counts),
            "total": self.total,
            "models": [
                [format_polynomial(f) for f in per_coord] for per_coord in self.models
            ],
        }


def enumerate_models(dataset, max_box=64, max_points=16):
    """All interpolating models across every quotient basis of the inputs.

    The fan walk of `groebner._coherent_staircases`, under the budgets of
    `check_fan_budget`, reduces each coordinate's outputs against the same
    echelon rows it reads the corners' tails off, so every staircase of
    the fan gives its interpolants with no evaluation matrix or solve of
    its own.  Per coordinate the distinct interpolants are kept in fan
    order, the lex order of the staircases' member lists, and a polynomial
    is built only for each distinct one.
    """
    inputs = dataset.inputs
    check_fan_budget(inputs, max_box, max_points)
    coordinates = dataset.coordinates()
    targets = [dataset.outputs[j] for j in coordinates]
    staircases = []
    distinct = [{} for _ in coordinates]
    for members, _, _, fits in _coherent_staircases(inputs, targets):
        staircases.append(members)
        for seen, fit in zip(distinct, fits):
            seen.setdefault(tuple(fit))
    p, n = dataset.p, dataset.n
    models = tuple(
        tuple(Polynomial._from_reduced(p, n, dict(fit)) for fit in seen)
        for seen in distinct
    )
    counts = tuple(map(len, models))
    return ModelEnumeration(
        models=models, counts=counts, total=prod(counts), staircases=tuple(staircases)
    )


def min_augmentation(points, k_max, max_sets=20000, max_box=64):
    """Fewest extra points forcing a unique reduced basis.

    Complement subsets are scanned by size and then lexicographically;
    the first subset whose union with the points has a single reduced
    basis wins.  Returns (k, witness) or None when k_max is exhausted.
    A negative k_max raises ValueError.  Before any test, raises
    BudgetExceeded when [0, min(p, m + k))^n has more than max_box
    members: the standard sets of the points with up to k extra points
    lie in that box.  Unless the points already have a unique basis,
    raises BudgetExceeded before any scan when the subsets of up to k_max
    points number more than max_sets.  The masks of `_LexStandardSets`
    are p^n bits wide whatever the box: for k_max >= 1 it is max_sets
    that bounds them, since every single clear point is a candidate, so
    p^n - m <= max_sets.

    Every set, the points and each candidate, is decided by the n lex
    orders "x_j first" (`points._LexStandardSets.unique`): it is unique
    exactly when they give one standard set.  A candidate is a subset
    mask of the box (`points._subset_mask`): the points' mask and some of
    its clear bits, whose lex order is that of the complement.  Its
    standard sets come from fiber counts on that mask (Cerlienco-Mureddu),
    memoised for this call, so no candidate builds a point set, an
    evaluation matrix or a staircase walk.  With k_max = 0 the box is
    never listed.
    """
    if len(points) == 0:
        raise EmptyPointSet("empty point set")
    if k_max < 0:
        raise ValueError(f"max_k must be nonnegative, got {k_max}")
    p, n, m = points.p, points.n, len(points)
    free = p**n - m
    k_top = min(k_max, free)
    box = min(p, m + k_top) ** n
    if box > max_box:
        raise BudgetExceeded(
            f"box size {box} for up to {k_top} extra points "
            f"exceeds the budget {max_box}"
        )
    if lex_unique(points):
        return 0, PointSet(p, n, ())
    candidates = 0
    for k in range(k_top + 1):
        candidates += comb(free, k)
        if candidates > max_sets:
            raise BudgetExceeded(
                f"{candidates} candidate sets of up to {k} extra points "
                f"exceed the budget {max_sets}"
            )
    if k_max == 0:
        return None
    lex = _LexStandardSets(p, n)
    base = _subset_mask(points.points, p, n)
    # the clear bits, highest first, are the complement in lex order;
    # their indices, not their masks, so no p^n-bit int is held per point
    clear = [i for i in range(p**n - 1, -1, -1) if not base >> i & 1]
    for k in range(1, k_max + 1):
        for extra in itertools.combinations(clear, k):
            mask = base
            for i in extra:
                mask |= 1 << i
            if lex.unique(mask):
                return k, PointSet(p, n, _subset_points(mask ^ base, p, n))
    return None


# Four-variable Boolean model of the lac operon core: mRNA, internal
# lactose, external lactose, external glucose, in that variable order.
LAC_VARIABLES = ("M", "L", "Le", "Ge")

LAC_UPDATE_POLYNOMIALS = (
    "x2*x3*x4 + x2*x3 + x2*x4 + x3*x4 + x2 + x3",
    "x1*x3*x4 + x1*x3",
    "x3",
    "x4",
)


def lac_boolean_model():
    """The reduced four-variable Boolean update rules."""
    m, lac, lac_ext, glc_ext = Var(0), Var(1), Var(2), Var(3)
    return [
        And(Not(glc_ext), Or(lac, lac_ext)),
        And(m, And(lac_ext, Not(glc_ext))),
        lac_ext,
        glc_ext,
    ]


def lac_fds():
    """The lac operon model as a polynomial system over Z_2^4."""
    rules = lac_boolean_model()
    return FiniteDynamicalSystem(2, 4, [boolean_to_poly(e, 4) for e in rules])
