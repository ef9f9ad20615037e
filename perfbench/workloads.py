"""Seeded inputs for the four benchmark workloads.

A workload is a list of CLI ops (one pass) plus one warm-up op per distinct
(p, n, m).  Inputs are written as JSON point files into a work directory;
the program receives only argv and those files.

Seeded point sets for `fan_wide` and `fds_design` are random members of
fixed random shift classes: each base set is drawn once from a fixed
generator, and the run seed applies a random coordinate permutation and a
random linear shift x_j -> a_j x_j + b_j to it.  Fan size, basic staircase
count and augmentation size k are invariant under both maps, so every seed
does the same amount of algebraic work on different points.  Fully random
sets made the per-seed work differ by more than the benchmark's bounds.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("classify_sweep", "fan_wide", "gb_large_p", "fds_design")
DEFAULT_SEED = 0

# The five-point set of the paper's discussion: fan size 13, lac model
# counts (4, 1, 4, 4), minimal augmentation k = 6.
S5_POINTS = ((0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1))
S5_EXPECT = {"gb_count": 13, "counts": [4, 1, 4, 4], "k": 6}

BASE_SEED = 2026
GB_ORDERS = ("grevlex", "grlex", "lex", "weight")
WEIGHTS = (2, 3, 5)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output check needs to know."""

    label: str
    kind: str
    argv: tuple
    p: int = 0
    n: int = 0
    points: tuple = ()
    extra: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    warmups: list


def _box(p, n):
    return list(itertools.product(range(p), repeat=n))


def _write(workdir, name, payload):
    path = Path(workdir) / name
    path.write_text(json.dumps(payload))
    return str(path)


def _point_file(workdir, name, p, n, points):
    return _write(workdir, name, {"p": p, "n": n, "points": [list(v) for v in points]})


def _shifted_member(rng, points, p, n):
    perm = list(range(n))
    rng.shuffle(perm)
    a = [rng.randrange(1, p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    return tuple(
        sorted(tuple((a[j] * v[perm[j]] + b[j]) % p for j in range(n)) for v in points)
    )


def _base_sets(shapes):
    """Fixed random sets, one per (p, n, m) in shapes, independent of the seed."""
    rng = random.Random(BASE_SEED)
    return [(p, n, m, tuple(rng.sample(_box(p, n), m))) for p, n, m in shapes]


# Fixed inputs for the augmentation warm-ups of fds_design, by m.
WARM_AUGMENT = {5: S5_POINTS, 6: S5_POINTS + ((0, 0, 0, 0),)}


def warmups(name, workdir, tiny=False):
    """One warm-up argv per distinct (p, n, m), run as set-up, never timed.

    Each runs the workload's kind of op on a fixed input of that shape, so
    it fills the caches the timed ops use: staircase lists (for every size
    augmentation reaches), monomial boxes and power tables.  Running real
    work also keeps set-up from being mostly the interpreter's import, whose
    time drifts more than computation on a shared machine.
    """
    out = []
    for p, n, m, kind in _shapes(name, tiny):
        if kind == "classify":
            out.append(["classify", "--p", str(p), "--n", str(n), "--m", str(m),
                        "--sample", "100"])
        elif kind == "augment":
            path = _point_file(workdir, f"warm-{p}-{n}-{m}.json", p, n, WARM_AUGMENT[m])
            out.append(["fds", "augment", path, "--max-k", "8"])
        else:
            path = _point_file(workdir, f"warm-{p}-{n}-{m}.json", p, n, _box(p, n)[:m])
            if kind == "gb":
                out.append(["gb", path, "--order", "grevlex"])
            else:
                out.append(["fan", path, "--max-box", str(p**n)])
    return out


def _shapes(name, tiny):
    if name == "classify_sweep":
        return [(2, 3, 3, "fan")] if tiny else [
            (2, 4, 5, "classify"), (2, 4, 6, "classify")]
    if name == "fan_wide":
        return [(2, 3, 4, "fan"), (3, 2, 4, "fan")] if tiny else [
            (2, 6, 12, "fan"), (3, 4, 10, "fan")]
    if name == "gb_large_p":
        return [(7, 2, 4, "gb")] if tiny else [(53, 3, 10, "gb"), (251, 2, 20, "gb")]
    if name == "fds_design":
        return [(2, 4, 5, "fan")] if tiny else [
            (2, 4, 5, "augment"), (2, 4, 6, "augment")]
    raise ValueError(f"unknown workload {name!r}")


def build(name, seed, workdir, tiny=False):
    """The ops of one pass of a workload, with inputs written to workdir."""
    rng = random.Random(seed)
    if name == "classify_sweep":
        ms = (3,) if tiny else (5, 6)
        n = 3 if tiny else 4
        ops = [
            Op(f"classify m={m}", "classify",
               ("classify", "--p", "2", "--n", str(n), "--m", str(m)), p=2, n=n,
               extra={"m": m})
            for m in ms
        ]
    elif name == "fan_wide":
        shapes = [(2, 3, 4), (3, 2, 4)] if tiny else [(2, 6, 12)] * 2 + [(3, 4, 10)] * 5
        ops = []
        for i, (p, n, m, base) in enumerate(_base_sets(shapes)):
            pts = _shifted_member(rng, base, p, n)
            path = _point_file(workdir, f"fan{i}.json", p, n, pts)
            ops.append(Op(f"fan set{i} ({p},{n},{m})", "fan",
                          ("fan", path, "--max-box", str(p**n)), p, n, pts))
    elif name == "gb_large_p":
        shapes = [(7, 2, 4)] if tiny else [(53, 3, 10), (251, 2, 20)]
        ops = []
        for i, (p, n, m) in enumerate(shapes):
            pts = tuple(sorted(rng.sample(_box(p, n), m)))
            path = _point_file(workdir, f"gb{i}.json", p, n, pts)
            for order in GB_ORDERS:
                spec = order
                if order == "weight":
                    spec = "weight:" + ",".join(str(w) for w in WEIGHTS[:n])
                ops.append(Op(f"gb set{i} ({p},{n},{m}) {order}", "gb",
                              ("gb", path, "--order", spec), p, n, pts,
                              extra={"order": spec}))
    elif name == "fds_design":
        ops = _fds_ops(rng, workdir, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(ops, warmups(name, workdir, tiny))


FDS_SETS = 33


def _fds_ops(rng, workdir, tiny):
    from gbfan.fds import DataSet, lac_fds
    from gbfan.points import PointSet

    system = lac_fds()
    shapes = [(2, 4, 5)] if tiny else [(2, 4, 5 + i % 2) for i in range(FDS_SETS)]
    sets = [] if tiny else [("s5", S5_POINTS, S5_EXPECT)]
    for i, (p, n, m, base) in enumerate(_base_sets(shapes)):
        sets.append((f"set{i:02d}", _shifted_member(rng, base, p, n), {}))
    ops = []
    for label, pts, expect in sets:
        data = DataSet.from_fds(system, PointSet(2, 4, pts)).to_json()
        path = _write(workdir, f"fds-{label}.json", data)
        outputs = {int(j) - 1: tuple(v) for j, v in data["outputs"].items()}
        common = dict(p=2, n=4, points=tuple(tuple(v) for v in data["points"]))
        ops.append(Op(f"{label} unique", "unique", ("unique", path),
                      extra={"expect": expect}, **common))
        ops.append(Op(f"{label} models", "models", ("fds", "models", path),
                      extra={"expect": expect, "outputs": outputs}, **common))
        ops.append(Op(f"{label} augment", "augment",
                      ("fds", "augment", path, "--max-k", "8"),
                      extra={"expect": expect}, **common))
    return ops
