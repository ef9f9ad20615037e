"""Output checks for benchmark ops, run outside the timed region.

Each check takes an op, its stdout and a `run_cli(argv) -> (rc, stdout)`
callable for follow-up calls, and returns None when the output is correct
or a one-line reason when it is not.  Polynomial text is parsed and
evaluated here, independently of the library's own parser.
"""

import json
import math
import random
from pathlib import Path

FAN_SAMPLE = 3
SYMPY_ORDERS = {"lex": "lex", "grlex": "grlex", "grevlex": "grevlex"}


def parse_terms(text, n):
    """{exponent tuple: coefficient} of a polynomial printed by gbfan."""
    terms = {}
    if text.strip() == "0":
        return terms
    for term in text.split(" + "):
        coeff = 1
        exps = [0] * n
        for factor in term.split("*"):
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                exps[int(var) - 1] += int(power) if power else 1
            else:
                coeff *= int(factor)
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"repeated term in {text!r}")
        terms[key] = coeff
    return terms


def evaluate(terms, point, p):
    total = 0
    for exps, coeff in terms.items():
        value = coeff
        for v, e in zip(point, exps):
            value = value * pow(v, e, p) % p
        total += value
    return total % p


def _vanishes(texts, points, p, n):
    return all(
        evaluate(parse_terms(t, n), v, p) == 0 for t in texts for v in points
    )


def check_gb(op, out, run_cli):
    from gbfan.cli import parse_order_spec
    from gbfan.groebner import ReducedGroebnerBasis, verify_reduced_gb
    from gbfan.points import OrderIdealSet, PointSet
    from gbfan.poly import MarkedPolynomial, Polynomial

    data = json.loads(out)
    p, n = op.p, op.n
    spec = op.extra["order"]
    order = parse_order_spec(spec, n)
    gens = []
    for text in data["generators"]:
        terms = parse_terms(text, n)
        # terms print in descending order, so the first one is the marking
        gens.append(MarkedPolynomial(Polynomial(p, n, terms), next(iter(terms))))
    sm = [tuple(u) for u in data["standard_monomials"]]
    basis = ReducedGroebnerBasis(order, gens, OrderIdealSet(p, n, sm))
    try:
        verify_reduced_gb(basis, PointSet(p, n, op.points))
    except ValueError as exc:
        return f"verify_reduced_gb: {exc}"
    if spec in SYMPY_ORDERS:
        return _sympy_agrees(data["generators"], p, n, SYMPY_ORDERS[spec])
    return None


def _sympy_agrees(texts, p, n, order):
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")
    ours = {frozenset(parse_terms(t, n).items()) for t in texts}
    polys = [sympy.Poly.from_dict(parse_terms(t, n), *xs, modulus=p) for t in texts]
    reduced = sympy.groebner(polys, *xs, modulus=p, order=order)
    theirs = {
        frozenset((tuple(m), int(c) % p) for m, c in g.terms())
        for g in reduced.polys
    }
    if ours != theirs:
        return f"sympy {order} basis differs from gbfan's"
    return None


def check_fan(op, out, run_cli):
    data = json.loads(out)
    p, n, m = op.p, op.n, len(op.points)
    if data["points"]["points"] != [list(v) for v in op.points]:
        return "fan reports other points than its input"
    entries = data["entries"]
    if not entries:
        return "empty fan"
    staircases = set()
    for entry in entries:
        witness = entry["witness_weight"]
        if len(witness) != n or not all(isinstance(w, int) and w > 0 for w in witness):
            return f"witness {witness} is not a positive integer weight"
        sm = tuple(tuple(u) for u in entry["sm"])
        if len(sm) != m or sm in staircases:
            return f"staircase {sm} has the wrong size or repeats"
        staircases.add(sm)
        if not _vanishes(entry["gb"], op.points, p, n):
            return f"a generator of the entry at {list(sm)} does not vanish"
    rng = random.Random(op.label)
    for entry in rng.sample(entries, min(FAN_SAMPLE, len(entries))):
        spec = "weight:" + ",".join(str(w) for w in entry["witness_weight"])
        rc, text = run_cli(["gb", op.argv[1], "--order", spec])
        if rc != 0:
            return f"gb --order {spec} exited {rc}"
        gb = json.loads(text)
        if gb["standard_monomials"] != entry["sm"] or gb["generators"] != entry["gb"]:
            return f"gb --order {spec} does not reproduce the fan entry"
    return None


def check_classify(op, out, run_cli):
    data = json.loads(out)
    p, n, m = op.p, op.n, op.extra["m"]
    population = math.comb(p**n, m)
    sizes = sum(c["size"] for c in data["classes"])
    unique = sum(c["size"] for c in data["classes"] if c["unique"])
    if data["total"] != population or sizes != population:
        return f"class sizes sum to {sizes}, total {data['total']}, not C({p**n},{m})"
    if any(c["gb_count"] < 1 or c["unique"] != (c["gb_count"] == 1) for c in data["classes"]):
        return "a class has an inconsistent gb_count/unique pair"
    if data["unique_sets"] != unique:
        return f"unique_sets {data['unique_sets']} differs from the class sum {unique}"
    if (p, n, m) == (2, 4, 5) and unique != 592:
        return f"unique_sets is {unique} for m=5, expected 592"
    return None


def check_unique(op, out, run_cli):
    data = json.loads(out)
    count = data["gb_count"]
    if count < 1 or data["unique"] != (count == 1):
        return f"inconsistent unique report {data}"
    expect = op.extra["expect"].get("gb_count")
    if expect is not None and count != expect:
        return f"fan size {count}, expected {expect}"
    return None


def check_models(op, out, run_cli):
    data = json.loads(out)
    counts = data["counts"]
    if math.prod(counts) != data["total"]:
        return f"total {data['total']} is not the product of {counts}"
    outputs = op.extra["outputs"]
    if len(counts) != len(outputs) or len(data["models"]) != len(outputs):
        return f"{len(counts)} model counts for {len(outputs)} coordinates"
    for i, (j, models) in enumerate(zip(sorted(outputs), data["models"])):
        if len(models) != counts[i] or len(set(models)) != len(models):
            return f"coordinate {j + 1} lists {len(models)} models, count {counts[i]}"
        for text in models:
            terms = parse_terms(text, op.n)
            got = tuple(evaluate(terms, v, op.p) for v in op.points)
            if got != outputs[j]:
                return f"model {text!r} does not interpolate coordinate {j + 1}"
    expect = op.extra["expect"].get("counts")
    if expect is not None and counts != expect:
        return f"model counts {counts}, expected {expect}"
    return None


def check_augment(op, out, run_cli):
    data = json.loads(out)
    if "k" not in data:
        return f"augmentation exhausted: {data}"
    witness = [tuple(v) for v in data["witness"]]
    if len(witness) != data["k"] or len(set(witness)) != len(witness):
        return f"witness {witness} does not have k={data['k']} distinct points"
    if set(witness) & set(op.points):
        return "witness repeats an input point"
    expect = op.extra["expect"].get("k")
    if expect is not None and data["k"] != expect:
        return f"augmentation k={data['k']}, expected {expect}"
    union = Path(op.argv[2]).with_name(Path(op.argv[2]).stem + "-union.json")
    union.write_text(json.dumps(
        {"p": op.p, "n": op.n, "points": [list(v) for v in list(op.points) + witness]}
    ))
    rc, text = run_cli(["unique", str(union)])
    if rc != 0 or not json.loads(text)["unique"]:
        return "the augmented set does not have a unique reduced basis"
    return None


CHECKS = {
    "gb": check_gb,
    "fan": check_fan,
    "classify": check_classify,
    "unique": check_unique,
    "models": check_models,
    "augment": check_augment,
}


def check(op, out, run_cli):
    """None when the op's output is correct, else a one-line reason."""
    try:
        return CHECKS[op.kind](op, out, run_cli)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"{type(exc).__name__}: {exc}"
