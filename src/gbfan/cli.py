"""Command-line interface over the library pipelines.

Every command is a thin adapter around one library call, printing JSON by
default (or text / DOT where it makes sense) with deterministic,
byte-for-byte reproducible output for identical inputs and seed.  Exit
codes: 0 success, 1 stdout closed by its reader, 2 malformed input,
3 budget exceeded.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cache
from pathlib import Path

from .errors import BudgetExceeded, GbfanError
from .fds import (
    DataSet,
    FiniteDynamicalSystem,
    enumerate_models,
    lac_fds,
    min_augmentation,
    select_models,
    state_space,
    weak_components,
)
from .groebner import (
    all_reduced_gbs,
    bm_reduced_gb,
    fan_size,
    transport_gb,
)
from .points import PointSet, require, require_object
from .poly import (
    GrevLexOrder,
    GrLexOrder,
    LexOrder,
    WeightOrder,
    format_monomial,
    format_polynomial,
)
from .shifts import classify, detect_shift, find_staircase_shift

DEFAULT_SEED = 0
FORMATS = ("json", "text", "dot")


@dataclass(frozen=True)
class RunConfig:
    """Budgets, naming and output options shared by the commands."""

    p: int | None = None
    n: int | None = None
    max_box: int = 64
    max_points: int = 16
    max_sets: int = 20000
    max_augment: int = 8
    names: tuple | None = None
    format: str = "json"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for attr in ("max_box", "max_points", "max_sets"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be positive")
        if self.max_augment < 0:
            raise ValueError("max_augment must be nonnegative")
        if self.names is not None and len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}")

    @classmethod
    def from_file(cls, path):
        data = require_object(_parse_json(Path(path).read_text()), (), "a config file")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key, value in data.items():
            if key == "names" and value is not None:
                data[key] = tuple(require(value, [str], "names must be strings"))
            elif key != "format" and not (key in ("p", "n") and value is None):
                require(value, int, f"{key} must be an integer")
        return cls(**data)


def _permutation(text, n, what):
    """The 0-based form of a permutation written as 1..n, each once, in
    their canonical spelling, separated by commas."""
    parts = text.split(",")
    if sorted(parts) != sorted(str(j) for j in range(1, n + 1)):
        raise ValueError(f"{what} permutation must list 1..{n} once: {text}")
    return [int(x) - 1 for x in parts]


def parse_order_spec(spec, n):
    """Order grammar: lex:<perm> | grlex | grevlex | weight:<w,..>[:tie=<perm>]."""
    head, sep, rest = spec.partition(":")
    if head in ("grlex", "grevlex") and sep:
        raise ValueError(f"order {head} takes no argument: {spec}")
    if head == "grlex":
        return GrLexOrder()
    if head == "grevlex":
        return GrevLexOrder()
    if head == "lex":
        return LexOrder(_permutation(rest, n, "lex")) if sep else LexOrder()
    if head == "weight":
        if not rest:
            raise ValueError("weight order needs a weight vector")
        parts = rest.split(":")
        if len(parts) > 2:
            raise ValueError(f"unrecognized order suffix: {':'.join(parts[2:])}")
        texts = parts[0].split(",")
        for x in texts:
            if not re.fullmatch(r"[0-9]+(/[0-9]+)?", x):
                raise ValueError(f"weight {x!r} must be a or a/b in the digits 0-9")
        try:
            weights = [Fraction(x) for x in texts]
        except ZeroDivisionError:
            raise ValueError(f"weight with a zero denominator: {parts[0]}") from None
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} variables")
        tie = None
        if len(parts) > 1:
            tie_part = parts[1]
            if not tie_part.startswith("tie="):
                raise ValueError(f"unrecognized order suffix: {tie_part}")
            tie = _permutation(tie_part[4:], n, "tie")
        return WeightOrder(weights, tie=tie)
    raise ValueError(f"unknown order spec: {spec}")


def _parse_json(text):
    """Parsed JSON text: the one reader of JSON input, which refuses
    nesting too deep for the parser as malformed input (ValueError)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def load_point_set(path, p=None, n=None):
    """Point-set file: JSON with p/n/points, or CSV rows with --p/--n."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        points = PointSet.from_json(_parse_json(text))
        for name, given, found in (("p", p, points.p), ("n", n, points.n)):
            if given is not None and given != found:
                raise ValueError(
                    f"{name} = {given} disagrees with the point file's {name} = {found}"
                )
        return points
    if p is None or n is None:
        raise ValueError("CSV point files require --p and --n")
    points = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                points.append([integer(c.strip()) for c in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"line {number}: field {exc}") from None
    return PointSet(p, n, points)


def integer(text):
    """An int written as an optional minus sign and the digits 0-9: the
    one reader of integer options and CSV fields.  `int` alone would also
    read '1_0', '+4', ' 4' and the digits of other scripts.  argparse
    names it in its error: "invalid integer value".
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _json(value, indent="\n"):
    """`json.dumps(value, indent=2)`, byte for byte.

    Lists and dicts are laid out here, and each key and scalar goes through
    the C encoder, which `json.dumps` skips whenever it indents.  A dict
    with a key other than a string is left to `json.dumps`, re-indented.
    """
    if type(value) is int:
        return repr(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [repr(v) if type(v) is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            return json.dumps(value, indent=2).replace("\n", indent)
        items = [json.dumps(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value)


def _emit(payload, config):
    if config.format == "text" and isinstance(payload, str):
        print(payload)
    else:
        print(_json(payload))


def _names(config, n):
    """The configured variable names, refused unless there is one per
    variable and none is empty."""
    if config.names is not None and len(config.names) != n:
        raise ValueError(f"expected {n} variable names, got {len(config.names)}")
    if config.names is not None and "" in config.names:
        raise ValueError("variable names must not be empty")
    return config.names


def _gb_json(basis, names=None):
    return {
        "standard_monomials": [list(u) for u in basis.standard_monomials.points],
        "generators": [
            format_polynomial(g.poly, basis.order, names) for g in basis.generators
        ],
    }


def _gb_text(basis, names=None):
    lines = ["standard monomials: " + ", ".join(
        format_monomial(u, names) for u in basis.standard_monomials.points
    )]
    lines.append("basis:")
    for g in basis.generators:
        lines.append("  " + format_polynomial(g.poly, basis.order, names))
    return "\n".join(lines)


def cmd_gb(args, config):
    points = load_point_set(args.points, config.p, config.n)
    names = _names(config, points.n)
    order = parse_order_spec(args.order, points.n)
    basis = bm_reduced_gb(points, order)
    if config.format == "text":
        _emit(_gb_text(basis, names), config)
    else:
        _emit(_gb_json(basis, names), config)
    return 0


def cmd_fan(args, config):
    points = load_point_set(args.points, config.p, config.n)
    names = _names(config, points.n)
    fan = all_reduced_gbs(points, max_box=config.max_box, max_points=config.max_points)
    if config.format == "text":
        lines = [f"{len(fan)} reduced bases"]
        for entry in fan.entries:
            lines.append("witness weight " + ",".join(str(w) for w in entry.witness_weight))
            lines.append(_gb_text(entry.basis, names))
        _emit("\n".join(lines), config)
    else:
        _emit(fan.to_json(names), config)
    return 0


def cmd_unique(args, config):
    points = load_point_set(args.points, config.p, config.n)
    count = fan_size(points, max_box=config.max_box, max_points=config.max_points)
    _emit({"unique": count == 1, "gb_count": count}, config)
    return 0


def cmd_staircase(args, config):
    points = load_point_set(args.points, config.p, config.n)
    found = find_staircase_shift(points, max_sets=config.max_sets)
    if found is None:
        _emit({"found": False}, config)
    else:
        shift, ideal = found
        _emit(
            {
                "found": True,
                "shift": shift.to_json(),
                "staircase": [list(u) for u in ideal.points],
            },
            config,
        )
    return 0


def cmd_shift(args, config):
    source = load_point_set(args.source, config.p, config.n)
    target = load_point_set(args.target, config.p, config.n)
    shift = detect_shift(source, target)
    if shift is None:
        _emit({"found": False}, config)
    else:
        _emit({"found": True, "shift": shift.to_json()}, config)
    return 0


def cmd_classify(args, config):
    report = classify(
        args.p,
        args.n,
        args.m,
        sample=args.sample,
        seed=config.seed,
        max_sets=config.max_sets,
        fan_budget={"max_box": config.max_box, "max_points": config.max_points},
    )
    _emit(report.to_json(), config)
    return 0


def _load_fds(path):
    return FiniteDynamicalSystem.from_json(_parse_json(Path(path).read_text()))


def cmd_fds_state_space(args, config):
    system = _load_fds(args.fds)
    graph = state_space(system)
    if config.format == "dot":
        print(graph.to_dot())
    elif config.format == "text":
        lines = [
            "".join(str(c) for c in a) + " -> " + "".join(str(c) for c in b)
            for a, b in graph.edges()
        ]
        comps = weak_components(graph)
        lines.append(f"{len(comps)} weakly connected components")
        _emit("\n".join(lines), config)
    else:
        data = graph.to_json()
        data["components"] = [
            [list(v) for v in comp.points] for comp in weak_components(graph)
        ]
        _emit(data, config)
    return 0


def cmd_fds_select(args, config):
    dataset = DataSet.from_json(_parse_json(Path(args.data).read_text()))
    names = _names(config, dataset.n)
    coords = dataset.coordinates()
    if args.coordinate is not None:
        c = args.coordinate
        if not 1 <= c <= dataset.n:
            raise ValueError(f"coordinate {c} is outside 1..{dataset.n}")
        if c - 1 not in dataset.outputs:
            raise ValueError(f"no outputs for coordinate {c}")
        coords = [c - 1]
    order = parse_order_spec(args.order, dataset.n)
    basis = bm_reduced_gb(dataset.inputs, order)
    models = {
        str(j + 1): format_polynomial(model, basis.order, names)
        for j, model in zip(
            coords, select_models(dataset, basis.standard_monomials, coords)
        )
    }
    _emit(
        {
            "standard_monomials": [
                list(u) for u in basis.standard_monomials.points
            ],
            "models": models,
        },
        config,
    )
    return 0


def cmd_fds_models(args, config):
    dataset = DataSet.from_json(_parse_json(Path(args.data).read_text()))
    result = enumerate_models(
        dataset, max_box=config.max_box, max_points=config.max_points
    )
    _emit(result.to_json(), config)
    return 0


def cmd_fds_augment(args, config):
    points = load_point_set(args.points, config.p, config.n)
    k_max = args.max_k if args.max_k is not None else config.max_augment
    found = min_augmentation(
        points, k_max, max_sets=config.max_sets, max_box=config.max_box
    )
    if found is None:
        _emit({"exhausted": True, "max_k": k_max}, config)
    else:
        k, witness = found
        _emit({"k": k, "witness": [list(v) for v in witness.points]}, config)
    return 0


def cmd_lac_demo(args, config):
    system = lac_fds()
    names = _names(config, system.n) or ("M", "L", "Le", "Ge")
    graph = state_space(system)
    components = weak_components(graph)
    bases = []
    shifts = []
    base = all_reduced_gbs(components[0])
    g1 = base.entries[0].basis
    bases.append(g1)
    for comp in components[1:]:
        shift = detect_shift(components[0], comp)
        shifts.append(shift)
        bases.append(transport_gb(g1, shift))
    payload = {
        "model": [format_polynomial(f, names=names) for f in system.components],
        "components": [[list(v) for v in comp.points] for comp in components],
        "bases": {
            f"G{i + 1}": [
                format_polynomial(g.poly, basis.order, names)
                for g in basis.generators
            ]
            for i, basis in enumerate(bases)
        },
        "shifts": {
            f"phi1{i + 2}": shift.to_json() for i, shift in enumerate(shifts)
        },
        "standard_monomials": [
            list(u) for u in g1.standard_monomials.points
        ],
    }
    if config.format == "text":
        lines = ["update functions:"]
        for name, f in zip(names, system.components):
            lines.append(f"  f_{name} = {format_polynomial(f, names=names)}")
        lines.append("components:")
        for i, comp in enumerate(components):
            states = ", ".join("".join(str(c) for c in v) for v in comp.points)
            lines.append(f"  C{i + 1} = {{{states}}}")
        for i, basis in enumerate(bases):
            gens = ", ".join(
                format_polynomial(g.poly, basis.order, names) for g in basis.generators
            )
            lines.append(f"G{i + 1} = {{{gens}}}")
        for i, shift in enumerate(shifts):
            lines.append(f"phi1{i + 2} = {shift!r}")
        _emit("\n".join(lines), config)
    else:
        _emit(payload, config)
    return 0


# options that several commands read; each command registers the ones it reads
_SHARED = {
    "--names": {"help": "comma-separated variable names for output"},
    "--p": {"type": integer, "help": "modulus for CSV input"},
    "--n": {"type": integer, "help": "arity for CSV input"},
    "--max-box": {"type": integer},
    "--max-points": {"type": integer},
    "--max-sets": {"type": integer},
}
_CSV = ("--p", "--n")
_FAN = ("--max-box", "--max-points")
_JSON_TEXT = ("json", "text")


def _command(sub, name, help, func, *flags, formats=()):
    """A subcommand with --config, --format over `formats` when it renders
    more than JSON, and the named shared options, spelled out in full."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.set_defaults(func=func, formats=formats)
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    if formats:
        parser.add_argument("--format", choices=formats, default=None)
    for flag in flags:
        parser.add_argument(flag, **_SHARED[flag])
    return parser


# parsing leaves the parser unchanged, so in-process callers of main() share one
@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbfan",
        description="Groebner bases of vanishing ideals over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "gb", "reduced basis for one monomial order", cmd_gb,
                  "--names", *_CSV, formats=_JSON_TEXT)
    sp.add_argument("points")
    sp.add_argument("--order", required=True)

    _command(sub, "fan", "every reduced basis of the vanishing ideal", cmd_fan,
             "--names", *_CSV, *_FAN, formats=_JSON_TEXT).add_argument("points")

    _command(sub, "unique", "uniqueness of the reduced basis", cmd_unique,
             *_CSV, *_FAN).add_argument("points")

    _command(sub, "staircase", "detect a shifted staircase", cmd_staircase,
             *_CSV, "--max-sets").add_argument("points")

    sp = _command(sub, "shift", "detect a linear shift between two sets", cmd_shift,
                  *_CSV)
    sp.add_argument("source")
    sp.add_argument("target")

    sp = _command(sub, "classify", "shift-equivalence classification sweep",
                  cmd_classify, "--max-sets", *_FAN)
    sp.add_argument("--m", type=integer, required=True)
    sp.add_argument("--sample", type=integer, default=None)
    sp.add_argument("--seed", type=integer, default=None)
    sp.add_argument("--p", type=integer, required=True, help="modulus")
    sp.add_argument("--n", type=integer, required=True, help="arity")

    fds = sub.add_parser("fds", help="finite dynamical system pipelines")
    fds_sub = fds.add_subparsers(dest="fds_command", required=True)

    _command(fds_sub, "state-space", "functional graph of a system",
             cmd_fds_state_space, formats=FORMATS).add_argument("fds")

    sp = _command(fds_sub, "select", "interpolating model for one order",
                  cmd_fds_select, "--names")
    sp.add_argument("data")
    sp.add_argument("--order", required=True)
    sp.add_argument("--coordinate", type=integer, default=None)

    _command(fds_sub, "models", "all interpolating models", cmd_fds_models,
             *_FAN).add_argument("data")

    sp = _command(fds_sub, "augment", "fewest points forcing uniqueness",
                  cmd_fds_augment, *_CSV, "--max-sets", "--max-box")
    sp.add_argument("points")
    sp.add_argument("--max-k", type=integer, default=None)

    _command(sub, "lac-demo", "end-to-end lac operon walkthrough", cmd_lac_demo,
             "--names", formats=_JSON_TEXT)
    return parser


def _build_config(args):
    config = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        key: getattr(args, key)
        for key in ("format", "seed", "p", "n", "max_box", "max_points", "max_sets")
        if getattr(args, key, None) is not None
    }
    if getattr(args, "names", None) is not None:
        overrides["names"] = tuple(args.names.split(","))
    config = replace(config, **overrides) if overrides else config
    # a command without --format does not read the key
    if args.formats and config.format not in args.formats:
        raise ValueError(
            f"format {config.format} is not one this command renders: "
            + ", ".join(args.formats)
        )
    return config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        code = args.func(args, config)
        # output still buffered would meet a closed reader only at exit
        sys.stdout.flush()
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout stopped early, which is no malformed input:
        # no error line, exit 1, and stdout goes to devnull so the flush at
        # exit does not fail again (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GbfanError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
