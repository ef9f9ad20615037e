import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gbfan import (
    DataSet,
    GrevLexOrder,
    LexOrder,
    PointSet,
    WeightOrder,
    all_reduced_gbs,
    bm_reduced_gb,
    format_polynomial,
    is_unique_gb,
    lac_fds,
    parse_polynomial,
)
from gbfan.cli import build_parser, main
from _oracles import random_points

TOY = {"p": 3, "n": 2, "points": [[0, 0], [1, 0], [2, 1]]}
S5 = {
    "p": 2,
    "n": 4,
    "points": [[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_round_trip(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["gb", toy, "--order", "weight:1,1"])
    assert code == 0
    data = json.loads(out)
    direct = bm_reduced_gb(PointSet.from_json(TOY), WeightOrder((1, 1)))
    assert [tuple(u) for u in data["standard_monomials"]] == list(
        direct.standard_monomials.points
    )
    reparsed = {parse_polynomial(text, 3, 2) for text in data["generators"]}
    assert reparsed == {g.poly for g in direct.generators}


def test_main_calls_carry_no_options_over(tmp_path, capsys):
    # main() reuses one parser per process; each call starts from the defaults
    toy = _write(tmp_path, "toy.json", TOY)
    points = PointSet.from_json(TOY)
    code, out, err = _run(capsys, ["fan", toy, "--max-box", "1"])
    assert code == 3 and out == ""
    assert "exceeds the budget 1" in err
    code, out, _ = _run(capsys, ["fan", toy])
    assert code == 0
    assert json.loads(out) == all_reduced_gbs(points).to_json()

    lex = bm_reduced_gb(points, LexOrder([1, 0]))
    grevlex = bm_reduced_gb(points, GrevLexOrder())
    assert lex.standard_monomials != grevlex.standard_monomials
    code, out, _ = _run(
        capsys, ["gb", toy, "--order", "lex:2,1", "--format", "text", "--names", "a,b"]
    )
    assert code == 0
    assert out.startswith("standard monomials: 1, a, a^2\n")
    code, out, _ = _run(capsys, ["gb", toy, "--order", "grevlex"])
    assert code == 0
    assert json.loads(out) == {
        "standard_monomials": [list(u) for u in grevlex.standard_monomials.points],
        "generators": [
            format_polynomial(g.poly, grevlex.order) for g in grevlex.generators
        ],
    }


def test_gb_text_format(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(
        capsys, ["gb", toy, "--order", "weight:1,3", "--format", "text"]
    )
    assert code == 0
    assert out.startswith("standard monomials: 1, x1, x1^2")
    assert "x1^3 + 2*x1" in out


def test_fan_json_with_names(tmp_path, capsys):
    # --names renames the variables of every basis in the JSON, as in gb's,
    # and leaves the rest of each entry as it is
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["fan", toy])
    plain = json.loads(out)
    code, out, err = _run(capsys, ["fan", toy, "--names", "a,b"])
    assert (code, err) == (0, "")
    named = json.loads(out)
    rename = {"x1": "a", "x2": "b"}
    for entry in plain["entries"]:
        entry["gb"] = [re.sub(r"x[12]", lambda m: rename[m[0]], g) for g in entry["gb"]]
    assert named == plain
    assert named["entries"][1]["gb"] == ["b + a^2 + 2*a", "a^3 + 2*a"]
    fan = all_reduced_gbs(PointSet.from_json(TOY))
    assert fan.to_json(("a", "b")) == named and fan.to_json() == fan.to_json(None)


def test_unique_checks_the_budget_before_the_lex_orders(tmp_path, capsys):
    # 0, e1, e2 in Z_2^7 have one basis, which is_unique_gb answers with no
    # budget; gbfan unique still refuses their walk box of 2^7 > 64
    # monomials, and runs under a budget that holds it
    three = {"p": 2, "n": 7, "points": [[0] * 7, [1] + [0] * 6, [0, 1] + [0] * 5]}
    assert is_unique_gb(PointSet.from_json(three)) == (True, 1)
    path = _write(tmp_path, "three.json", three)
    assert _run(capsys, ["unique", path]) == (
        3, "", "error: box size 128 exceeds the budget 64\n"
    )
    code, out, err = _run(capsys, ["unique", path, "--max-box", "128"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"unique": True, "gb_count": 1}


def test_fan_text_format_with_names(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["fan", toy, "--format", "text", "--names", "a,b"])
    assert code == 0
    assert out == (
        "2 reduced bases\n"
        "witness weight 1,1\n"
        "standard monomials: 1, b, a\n"
        "basis:\n"
        "  b^2 + 2*b\n"
        "  a*b + b\n"
        "  a^2 + 2*a + b\n"
        "witness weight 1,3\n"
        "standard monomials: 1, a, a^2\n"
        "basis:\n"
        "  b + a^2 + 2*a\n"
        "  a^3 + 2*a\n"
    )
    # an empty name would print as an empty factor, so it is refused; the
    # library's formatting of one is pinned in test_poly
    argv = ["gb", toy, "--order", "lex:2,1", "--format", "text", "--names", ",b"]
    _one_line_error(*_run(capsys, argv), "variable names must not be empty")


def test_gb_empty_points_exits_2(tmp_path, capsys):
    empty = _write(tmp_path, "empty.json", {"p": 3, "n": 2, "points": []})
    code, _, err = _run(capsys, ["gb", empty, "--order", "grlex"])
    assert code == 2
    assert "empty point set" in err


def test_gb_bad_order_exits_2(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, _, err = _run(capsys, ["gb", toy, "--order", "weird:1"])
    assert code == 2
    assert "unknown order" in err
    code, _, _ = _run(capsys, ["gb", toy, "--order", "weight:1,2,3"])
    assert code == 2
    code, _, err = _run(capsys, ["gb", toy, "--order", "weight:1/0,1"])
    assert code == 2
    assert err.count("\n") == 1 and "zero denominator" in err
    # a weight is [0-9]+(/[0-9]+)?: no other numeral Fraction() reads
    for weight in ("\u0661", "1_0", "0.5", "1e1"):
        got = _run(capsys, ["gb", toy, "--order", f"weight:{weight},1"])
        assert got == (2, "", f"error: weight {weight!r} must be a or a/b in the digits 0-9\n")


@pytest.mark.parametrize(
    "order",
    ["grlex:1", "grevlex:x", "weight:1,1:tie=1,2:extra", "lex:", "lex:1,,2", "weight:1,1:tie="],
)
def test_order_with_trailing_text_exits_2(tmp_path, capsys, order):
    # text past the order grammar is refused, never dropped
    csv = tmp_path / "v.csv"
    csv.write_text("0,0\n1,0\n2,1\n")
    code, out, err = _run(capsys, ["gb", str(csv), "--p", "3", "--n", "2", "--order", order])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # a malformed permutation gets the grammar's line, not int()'s
    assert "invalid literal" not in err


def test_json_points_refuse_a_disagreeing_p_or_n(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    for flags, message in [
        (["--p", "5", "--n", "3"], "p = 5 disagrees with the point file's p = 3"),
        (["--n", "3"], "n = 3 disagrees with the point file's n = 2"),
    ]:
        got = _run(capsys, ["gb", toy, "--order", "lex", *flags])
        assert got == (2, "", f"error: {message}\n")
    # values that agree run as if they were not given
    code, out, _ = _run(capsys, ["gb", toy, "--order", "lex", "--p", "3", "--n", "2"])
    assert (code, out) == _run(capsys, ["gb", toy, "--order", "lex"])[:2]


def test_gb_rational_weights(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["gb", toy, "--order", "weight:1/2,3/2"])
    assert code == 0
    json.loads(out)


def test_unique_s5(tmp_path, capsys):
    s5 = _write(tmp_path, "s5.json", S5)
    code, out, _ = _run(capsys, ["unique", s5])
    assert code == 0
    assert json.loads(out) == {"unique": False, "gb_count": 13}


def test_fan_schema(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["fan", toy])
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 2
    for entry in data["entries"]:
        assert set(entry) == {"sm", "gb", "witness_weight"}


def test_staircase_command(tmp_path, capsys):
    v2 = _write(tmp_path, "v2.json", {"p": 3, "n": 2, "points": [[0, 1], [0, 2], [2, 2]]})
    code, out, _ = _run(capsys, ["staircase", v2])
    assert code == 0
    data = json.loads(out)
    assert data["found"]
    assert data["shift"] == {"a": [2, 2], "b": [0, 2]}
    assert data["staircase"] == [[0, 0], [0, 1], [1, 0]]

    hard = _write(
        tmp_path,
        "hard.json",
        {"p": 2, "n": 3, "points": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]},
    )
    code, out, _ = _run(capsys, ["staircase", hard])
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_shift_command(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"p": 3, "n": 2, "points": [[0, 0], [0, 1]]})
    b = _write(tmp_path, "b.json", {"p": 3, "n": 2, "points": [[1, 1], [1, 2]]})
    c = _write(tmp_path, "c.json", {"p": 3, "n": 2, "points": [[1, 1], [2, 2]]})
    code, out, _ = _run(capsys, ["shift", a, b])
    assert code == 0
    assert json.loads(out) == {"found": True, "shift": {"a": [1, 1], "b": [1, 1]}}
    code, out, _ = _run(capsys, ["shift", a, c])
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_classify_command_and_budget(capsys):
    code, out, _ = _run(capsys, ["classify", "--p", "2", "--n", "3", "--m", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 8 and data["unique_sets"] == 8
    code, _, err = _run(
        capsys, ["classify", "--p", "2", "--n", "4", "--m", "5", "--max-sets", "50"]
    )
    assert code == 3
    assert "budget" in err.lower() or "exceed" in err.lower()


def test_classify_group_budget(capsys):
    # (101 * 100)^3 shifts: refused before any of them is listed
    start = time.perf_counter()
    code, out, err = _run(
        capsys, ["classify", "--p", "101", "--n", "3", "--m", "2", "--sample", "3"]
    )
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "shift group of order 1030301000000 exceeds the budget 20000" in err


def test_classify_deterministic_output(capsys):
    argv = ["classify", "--p", "2", "--n", "2", "--m", "2"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def _classify_report(p, n, m, classes, unique_sets, total):
    return {"p": p, "n": n, "m": m, "total": total, "classes": classes,
            "unique_sets": unique_sets, "unique_fraction": unique_sets / total if total else 0.0}


@pytest.mark.parametrize("argv, code, out, err", [
    (["--m", "0"], 2, None, "error: empty point set\n"),
    (["--m", "0", "--sample", "3"], 2, None, "error: empty point set\n"),
    (["--m", "-1"], 2, None, "error: m must be nonnegative: -1\n"),
    (["--m", "9"], 0, _classify_report(2, 3, 9, [], 0, 0), ""),
    (["--n", "0", "--m", "1"], 0, _classify_report(
        2, 0, 1, [{"rep": [[]], "size": 1, "gb_count": 1, "unique": True}], 1, 1), ""),
    (["--p", "4", "--m", "2"], 2, None, "error: p must be prime: 4\n"),
    (["--m", "3", "--sample", "0"], 2, None, "error: sample size must be positive: 0\n"),
    (["--n", "-1", "--m", "1"], 2, None, "error: n must be nonnegative: -1\n"),
    (["--m", "-1", "--sample", "3"], 2, None, "error: m must be nonnegative: -1\n"),
])
def test_classify_edge_cases(capsys, argv, code, out, err):
    # later options override the defaults p = 2, n = 3
    got = _run(capsys, ["classify", "--p", "2", "--n", "3", *argv])
    assert got == (code, "" if out is None else json.dumps(out, indent=2) + "\n", err)


def test_csv_points(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("0,0\n1,0\n2,1\n")
    code, out, _ = _run(
        capsys, ["gb", str(csv), "--order", "grevlex", "--p", "3", "--n", "2"]
    )
    assert code == 0
    json.loads(out)
    code, _, err = _run(capsys, ["gb", str(csv), "--order", "grevlex"])
    assert code == 2
    assert "--p" in err
    # a field is -?[0-9]+ once stripped of spaces, never a numeral int()
    # would also take; a negative one reaches the range check
    for line, message in [
        ("1_0,2", "line 2: field '1_0' is not an integer"),
        ("\u0661,3", "line 2: field '\u0661' is not an integer"),
        ("+4, 5", "line 2: field '+4' is not an integer"),
        ("1,,2", "line 2: field '' is not an integer"),
        (" 0 , -1", "coordinates of (0, -1) must lie in [0, 11)"),
    ]:
        csv.write_text(f"0,0\n{line}\n")
        got = _run(capsys, ["gb", str(csv), "--order", "lex", "--p", "11", "--n", "2"])
        assert got == (2, "", f"error: {message}\n"), line
    csv.write_text("0,0\n 2 , 1\n")
    code, out, _ = _run(capsys, ["gb", str(csv), "--order", "lex", "--p", "11", "--n", "2"])
    assert code == 0 and json.loads(out)


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "text", "names": ["x", "y"]}))
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["gb", toy, "--order", "weight:1,1", "--config", str(cfg)])
    assert code == 0
    assert "y^2 + 2*y" in out


@pytest.mark.parametrize("names", ["a", "a,b,c", ""])
def test_names_must_match_the_variable_count(tmp_path, capsys, names):
    toy = _write(tmp_path, "toy.json", TOY)
    data = _write(tmp_path, "data.json", DataSet.from_fds(lac_fds(), PointSet.from_json(S5)).to_json())
    count = len(names.split(","))
    for argv, n in [
        (["gb", toy, "--order", "grevlex"], 2),
        (["gb", toy, "--order", "grevlex", "--format", "text"], 2),
        (["fan", toy, "--format", "text"], 2),
        (["fds", "select", data, "--order", "grevlex"], 4),
        (["lac-demo"], 4),
    ]:
        _one_line_error(*_run(capsys, [*argv, "--names", names]),
                        f"expected {n} variable names, got {count}")


def test_config_format_the_command_cannot_render_exits_2(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    dot = _write(tmp_path, "dot.json", {"format": "dot"})
    for argv in (["gb", toy, "--order", "grevlex"], ["fan", toy], ["lac-demo"]):
        _one_line_error(*_run(capsys, [*argv, "--config", dot]),
                        "format dot is not one this command renders: json, text")
    # fds state-space renders DOT; unique has no --format and reads no format key
    lac = _write(tmp_path, "lac.json", lac_fds().to_json())
    code, out, _ = _run(capsys, ["fds", "state-space", lac, "--config", dot])
    assert code == 0 and out.startswith("digraph")
    code, out, _ = _run(capsys, ["unique", toy, "--config", dot])
    assert code == 0 and json.loads(out)["unique"] is False


def test_fds_state_space_dot(tmp_path, capsys):
    lac = _write(tmp_path, "lac.json", lac_fds().to_json())
    code, out, _ = _run(capsys, ["fds", "state-space", lac, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert '"0100" -> "1000";' in out
    code, out, _ = _run(capsys, ["fds", "state-space", lac])
    data = json.loads(out)
    assert len(data["edges"]) == 16
    assert len(data["components"]) == 4
    code, out, _ = _run(capsys, ["fds", "state-space", lac, "--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        "".join(map(str, a)) + " -> " + "".join(map(str, b)) for a, b in data["edges"]
    ] + ["4 weakly connected components"]
    # digits outside 0-9 get the polynomial grammar's positioned line
    for text, message in [
        ("x\u0661 + x2", "expected an integer (at position 1)"),
        ("x1 + \u0663*x2", "expected a coefficient or a variable (at position 5)"),
        ("x\u00b2", "expected an integer (at position 1)"),
    ]:
        model = _write(tmp_path, "model.json", {"p": 5, "n": 2, "functions": [text, "x1"]})
        assert _run(capsys, ["fds", "state-space", model]) == (2, "", f"error: {message}\n")


def test_fds_select_and_models(tmp_path, capsys):
    dataset = DataSet.from_fds(lac_fds(), PointSet.from_json(S5))
    datafile = _write(tmp_path, "data.json", dataset.to_json())
    code, out, _ = _run(
        capsys, ["fds", "select", datafile, "--order", "grevlex", "--coordinate", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["models"]) == {"1"}
    code, out, _ = _run(capsys, ["fds", "models", datafile])
    assert code == 0
    models = json.loads(out)
    assert models["counts"] == [4, 1, 4, 4]
    assert models["total"] == 64


@pytest.mark.parametrize("coordinate, message", [
    ("0", "coordinate 0 is outside 1..2"),
    ("-1", "coordinate -1 is outside 1..2"),
    ("3", "coordinate 3 is outside 1..2"),
    ("2", "no outputs for coordinate 2"),
])
def test_fds_select_refuses_a_coordinate_by_the_number_given(
    tmp_path, capsys, coordinate, message
):
    data = _write(tmp_path, "data.json", {**TOY, "outputs": {"1": [0, 0, 1]}})
    argv = ["fds", "select", data, "--order", "grevlex", "--coordinate", coordinate]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def test_fds_augment(tmp_path, capsys):
    stair = _write(
        tmp_path, "stair.json", {"p": 3, "n": 2, "points": [[0, 0], [0, 1], [1, 0]]}
    )
    code, out, _ = _run(capsys, ["fds", "augment", stair, "--max-k", "2"])
    assert code == 0
    assert json.loads(out) == {"k": 0, "witness": []}
    toy = _write(tmp_path, "toy.json", TOY)
    code, out, _ = _run(capsys, ["fds", "augment", toy, "--max-k", "0"])
    assert code == 0
    assert json.loads(out) == {"exhausted": True, "max_k": 0}


def test_lac_demo(capsys):
    code, out, _ = _run(capsys, ["lac-demo"])
    assert code == 0
    data = json.loads(out)
    assert data["model"][0] == "L*Le*Ge + L*Le + L*Ge + Le*Ge + L + Le"
    assert len(data["components"]) == 4
    assert set(data["bases"]) == {"G1", "G2", "G3", "G4"}
    assert data["bases"]["G2"] == ["Ge + 1", "Le", "L^2 + L", "M^2 + M"]
    assert data["shifts"]["phi12"] == {"a": [1, 1, 1, 1], "b": [0, 0, 0, 1]}
    assert data["standard_monomials"] == [
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
    ]


def test_lac_demo_text(capsys):
    code, out, _ = _run(capsys, ["lac-demo", "--format", "text"])
    assert code == 0
    assert "f_M = L*Le*Ge" in out
    assert "C1 = {0000, 0100, 1000, 1100}" in out


def test_fds_augment_budget(tmp_path, capsys):
    line = _write(
        tmp_path, "line.json", {"p": 101, "n": 2, "points": [[1, 1], [2, 2], [3, 3]]}
    )
    start = time.perf_counter()
    code, _, err = _run(capsys, ["fds", "augment", line, "--max-k", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "budget 20000" in err
    s5 = _write(tmp_path, "s5.json", S5)
    code, out, _ = _run(capsys, ["fds", "augment", s5, "--max-k", "8"])
    assert code == 0
    assert json.loads(out)["k"] == 6
    code, _, err = _run(
        capsys, ["fds", "augment", s5, "--max-k", "8", "--max-sets", "100"]
    )
    assert code == 3
    assert "budget 100" in err


@pytest.mark.parametrize(
    "points_file, config, message",
    [
        ({"p": 3, "n": 2, "points": [[0, 0], [1.7, 0]]}, None, "1.7"),
        ({"p": 3, "n": 2, "points": [[0, 0], [True, 0]]}, None, "True"),
        ({"p": 2.5, "n": 2, "points": [[0, 0]]}, None, "p must be an integer"),
        ({"p": 3, "n": 2, "points": [[0, None]]}, None, "None"),
        ([[0, 0], [1, 0]], None, "JSON object"),
        ({"p": 3, "n": 2}, None, "points"),
        (TOY, {"foo": 1}, "foo"),
        (TOY, {"threads": 4}, "threads"),
    ],
    ids=[
        "float-coordinate",
        "bool-coordinate",
        "float-p",
        "null-coordinate",
        "top-level-array",
        "missing-points",
        "unknown-config-key",
        "threads-config-key",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, points_file, config, message):
    argv = ["gb", _write(tmp_path, "points.json", points_file), "--order", "grevlex"]
    if config is not None:
        argv += ["--config", _write(tmp_path, "config.json", config)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "CSV" not in err


def _one_line_error(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_negative_augmentation_size_exits_2(tmp_path, capsys):
    pair = _write(tmp_path, "pair.json", {"p": 2, "n": 2, "points": [[0, 1], [1, 0]]})
    _one_line_error(
        *_run(capsys, ["fds", "augment", pair, "--max-k", "-3"]), "max_k must be nonnegative"
    )
    cfg = _write(tmp_path, "config.json", {"max_augment": -3})
    _one_line_error(
        *_run(capsys, ["fds", "augment", pair, "--config", cfg]), "max_augment"
    )


def test_config_allows_no_augmentation(tmp_path, capsys):
    pair = _write(tmp_path, "pair.json", {"p": 2, "n": 2, "points": [[0, 1], [1, 0]]})
    cfg = _write(tmp_path, "config.json", {"max_augment": 0})
    code, out, _ = _run(capsys, ["fds", "augment", pair, "--config", cfg])
    assert code == 0
    assert json.loads(out) == {"exhausted": True, "max_k": 0}


def test_unique_builds_the_fan_only_for_several_basic_staircases(
    tmp_path, capsys, monkeypatch
):
    # one basic staircase means one reduced basis, so the fan is neither
    # built nor walked; with several the count comes from the fan; either
    # way the JSON is the fan's
    import gbfan.cli
    import gbfan.groebner

    build_fan = gbfan.cli.all_reduced_gbs
    walk = gbfan.groebner._coherent_staircases

    def refuse(*args, **kwargs):
        raise AssertionError("the fan was built")

    rng = random.Random(41)
    shapes = [(2, 3), (3, 2), (2, 4), (5, 2)]
    sets = [random_points(rng, p, n, rng.randint(1, 6)) for p, n in shapes * 6]
    # counted before anything is patched
    counted = [(all_reduced_gbs(V), is_unique_gb(V)[1] == 1) for V in sets]
    branches = set()
    for i, (V, (fan, single)) in enumerate(zip(sets, counted)):
        branches.add(single)
        monkeypatch.setattr(gbfan.cli, "all_reduced_gbs", refuse if single else build_fan)
        monkeypatch.setattr(gbfan.groebner, "_coherent_staircases", refuse if single else walk)
        path = _write(tmp_path, f"set{i}.json", V.to_json())
        code, out, err = _run(capsys, ["unique", path])
        assert (code, err) == (0, ""), V
        expected = {"unique": len(fan) == 1, "gb_count": len(fan)}
        assert out == json.dumps(expected, indent=2) + "\n"
    assert branches == {True, False}

    # the fan's budgets are checked before the count, with its exit code and
    # message, also for a set with a single basic staircase
    monkeypatch.setattr(gbfan.cli, "all_reduced_gbs", build_fan)
    monkeypatch.setattr(gbfan.groebner, "_coherent_staircases", walk)
    stair = _write(tmp_path, "stair.json", {"p": 3, "n": 2, "points": [[0, 0], [0, 1]]})
    for budget in (["--max-box", "3"], ["--max-points", "1"]):
        results = [_run(capsys, [cmd, stair, *budget]) for cmd in ("fan", "unique")]
        assert results[0] == results[1] and results[0][0] == 3, results
        assert "exceed" in results[0][2]
    empty = _write(tmp_path, "empty.json", {"p": 3, "n": 2, "points": []})
    results = [_run(capsys, [cmd, empty]) for cmd in ("fan", "unique")]
    assert results[0] == results[1] == (2, "", "error: empty point set\n")


def test_fds_augment_box_budget(tmp_path, capsys, monkeypatch):
    # five points in Z_5^7 have standard sets in a box of 5^7 members even
    # with --max-k 0: the box budget refuses them before any mask table of
    # the box is built
    import gbfan.points

    def refuse(*args):
        raise AssertionError("a mask table of the box was built")

    monkeypatch.setattr(gbfan.points, "_digit_masks", refuse)
    wide = [[i] * 7 for i in range(5)]
    path = _write(tmp_path, "wide.json", {"p": 5, "n": 7, "points": wide})
    code, out, err = _run(capsys, ["fds", "augment", path, "--max-k", "0"])
    assert (code, out) == (3, "")
    assert err == "error: box size 78125 for up to 0 extra points exceeds the budget 64\n"
    code, _, err = _run(
        capsys, ["fds", "augment", path, "--max-k", "0", "--max-box", "78124"]
    )
    assert code == 3 and "budget 78124" in err


def test_fan_and_unique_in_no_variables(tmp_path, capsys):
    origin = _write(tmp_path, "origin.json", {"p": 3, "n": 0, "points": [[]]})
    code, out, _ = _run(capsys, ["fan", origin])
    assert code == 0
    assert json.loads(out)["entries"] == [{"sm": [[]], "gb": [], "witness_weight": []}]
    code, out, _ = _run(capsys, ["unique", origin])
    assert code == 0
    assert json.loads(out) == {"unique": True, "gb_count": 1}


def test_outputs_outside_the_field_exit_2(tmp_path, capsys):
    data = {"p": 2, "n": 2, "points": [[0, 0], [1, 0]], "outputs": {"1": [5, 0]}}
    path = _write(tmp_path, "data.json", data)
    _one_line_error(
        *_run(capsys, ["fds", "select", path, "--order", "grevlex"]), "[0, 2)"
    )


def test_fan_budget_sizes_the_searched_box(tmp_path, capsys):
    # staircases of m points lie in [0, min(p, m))^n, here [0, 2)^2, so the
    # default budget of 64 admits two points at any p
    pair = {"p": LARGE_P, "n": 2, "points": [[0, 0], [1, 1]]}
    code, out, _ = _run(capsys, ["fan", _write(tmp_path, "pair.json", pair)])
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["sm"] for e in entries] == [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]
    three = {"p": 3, "n": 4, "points": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]}
    code, _, err = _run(capsys, ["fan", _write(tmp_path, "three.json", three)])
    assert code == 3
    assert "box size 81 exceeds the budget 64" in err


def test_json_writer_matches_json_dumps(tmp_path, monkeypatch):
    import gbfan.cli

    files = {
        "TOY": _write(tmp_path, "toy.json", TOY),
        "S5": _write(tmp_path, "s5.json", S5),
        "STAIR": _write(tmp_path, "stair.json", {"p": 3, "n": 2, "points": [[0, 0], [1, 0]]}),
        "ORIGIN": _write(tmp_path, "origin.json", {"p": 3, "n": 0, "points": [[]]}),
        "LAC": _write(tmp_path, "lac.json", lac_fds().to_json()),
        "DATA": _write(tmp_path, "data.json", DataSet.from_fds(
            lac_fds(), PointSet.from_json(S5)).to_json()),
    }
    payloads = []
    monkeypatch.setattr(gbfan.cli, "_emit", lambda payload, config: payloads.append(payload))
    for argv in [
        ["gb", "TOY", "--order", "grevlex", "--names", "\u00e9,\u263a"],
        ["fan", "TOY"],
        ["fan", "ORIGIN"],
        ["unique", "S5"],
        ["staircase", "STAIR"],
        ["staircase", "S5"],
        ["shift", "STAIR", "STAIR"],
        ["shift", "STAIR", "TOY"],
        ["classify", "--p", "2", "--n", "3", "--m", "3"],
        ["classify", "--p", "3", "--n", "2", "--m", "4", "--sample", "7", "--seed", "2"],
        ["classify", "--p", "2", "--n", "3", "--m", "9"],
        ["fds", "state-space", "LAC"],
        ["fds", "select", "DATA", "--order", "grevlex"],
        ["fds", "models", "DATA"],
        ["fds", "augment", "STAIR"],
        ["fds", "augment", "TOY", "--max-k", "0"],
        ["lac-demo"],
    ]:
        assert main([files.get(arg, arg) for arg in argv]) == 0, argv
    assert len(payloads) == 17
    payloads += [
        [], {}, [[]], {"": [{}]}, "\u00e9\n\"\u2603", {"\u00fc": [-3, 10**30, 0.1, 1e300]},
        [True, False, None, float("inf"), 2.5], (1, (2, ())), {1: [1, {2: "x"}], "k": None},
        {"a": {"b": [{1.5: True}]}},
    ]
    for payload in payloads:
        assert gbfan.cli._json(payload) == json.dumps(payload, indent=2), payload


def test_invalid_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"max_box": -1}))
    toy = _write(tmp_path, "toy.json", TOY)
    code, _, err = _run(capsys, ["gb", toy, "--order", "grlex", "--config", str(cfg)])
    assert code == 2
    assert "max_box" in err


LARGE_P = 1000003


def test_gb_large_p(tmp_path, capsys):
    points = random_points(random.Random(LARGE_P), LARGE_P, 3, 10)
    path = _write(tmp_path, "big.json", points.to_json())
    code, out, _ = _run(capsys, ["gb", path, "--order", "grevlex"])
    assert code == 0
    assert len(json.loads(out)["standard_monomials"]) == 10


def test_gb_at_p_2_61_minus_1(tmp_path, capsys):
    p = 2**61 - 1
    pair = _write(tmp_path, "pair.json", {"p": p, "n": 2, "points": [[0, 0], [1, 2]]})
    code, out, _ = _run(capsys, ["gb", pair, "--order", "grevlex"])
    assert code == 0
    data = json.loads(out)
    basis = [parse_polynomial(text, p, 2) for text in data["generators"]]
    assert all(f.evaluate(v) == 0 for f in basis for v in [(0, 0), (1, 2)])


def test_p_beyond_the_primality_bound_exits_2(tmp_path, capsys):
    big = _write(tmp_path, "big.json", {"p": 2**89 - 1, "n": 1, "points": [[0]]})
    code, out, err = _run(capsys, ["gb", big, "--order", "lex"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "decided only below" in err


def test_fds_select_large_p(tmp_path, capsys):
    rng = random.Random(LARGE_P)
    points = random_points(rng, LARGE_P, 2, 6)
    pairs = [(v, tuple(rng.randrange(LARGE_P) for _ in range(2))) for v in points]
    dataset = DataSet.from_pairs(LARGE_P, 2, pairs)
    datafile = _write(tmp_path, "big_data.json", dataset.to_json())
    code, out, _ = _run(capsys, ["fds", "select", datafile, "--order", "grevlex"])
    assert code == 0
    models = json.loads(out)["models"]
    assert set(models) == {"1", "2"}
    for key, text in models.items():
        f = parse_polynomial(text, LARGE_P, 2)
        outputs = dataset.outputs[int(key) - 1]
        assert [f.evaluate(v) for v in dataset.inputs.points] == list(outputs)


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(tmp_path, argv):
    # the documented entry point, in its own interpreter: exit codes come
    # from entry()'s sys.exit, not from main()'s return value
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "gbfan.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_exit_codes(tmp_path):
    s5 = _write(tmp_path, "s5.json", S5)
    code, out, err = _run_module(tmp_path, ["fds", "augment", s5, "--max-k", "8"])
    assert code == 0 and err == ""
    assert json.loads(out)["k"] == 6
    code, out, err = _run_module(tmp_path, ["fds", "augment", s5, "--max-k", "-3"])
    assert (code, out) == (2, "")
    assert err == "error: max_k must be nonnegative, got -3\n"
    code, out, err = _run_module(
        tmp_path, ["fds", "augment", s5, "--max-k", "8", "--max-sets", "100"]
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget 100" in err


def test_main_leaves_the_standard_streams_in_place(tmp_path, capsys):
    # the benchmark captures each in-process call; a command that rebinds
    # sys.stdout would send later output, its result line too, elsewhere
    toy = _write(tmp_path, "toy.json", TOY)
    for argv in (
        ["classify", "--p", "2", "--n", "3", "--m", "3"],
        ["unique", toy],
        ["fan", toy, "--format", "text"],
        ["fan", toy, "--max-box", "1"],
        ["gb", toy, "--order", "nonsense"],
    ):
        streams = sys.stdout, sys.stderr
        main(argv)
        assert (sys.stdout, sys.stderr) == streams, argv
    capsys.readouterr()


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_traced_benchmark_run_ends_in_a_result_line():
    # the benchmark reads a run's last stdout line as its result, and the
    # tracer leaves out the metrics of a boundary the library no longer
    # defines, so every per-layer metric the benchmark declares must appear
    declared = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in declared["per_layer"]}
    workloads = [workload["name"] for workload in declared["workloads"]]
    assert len(workloads) == 4
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=SRC.parent, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines, (workload, proc.stderr)
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
        assert isinstance(result, dict)
        assert result["correct"] is True and result["failed"] == 0, proc.stderr
        assert set(result["metrics"]) == names, workload
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert type(value) in (int, float) and math.isfinite(value), (name, value)


def test_no_augmentation_never_lists_the_box(tmp_path):
    # p^n is about 10^12: with --max-k 0 no candidate is tried, so the
    # complement is never built
    line = _write(
        tmp_path, "line.json", {"p": 1000003, "n": 2, "points": [[1, 1], [2, 2], [3, 3]]}
    )
    code, out, err = _run_module(tmp_path, ["fds", "augment", line, "--max-k", "0"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"exhausted": True, "max_k": 0}


def test_staircase_box_budget(tmp_path, capsys, monkeypatch):
    # `--max-sets` bounds the shifts `staircase` tries, the product of the
    # surviving scale/offset pairs per coordinate, and no staircase is
    # listed, so diagonal points build no mask table of the box
    import gbfan.points

    def refuse(*args):
        raise AssertionError("a mask table of the box was built")

    monkeypatch.setattr(gbfan.points, "_digit_masks", refuse)
    wide = _write(tmp_path, "wide.json", {"p": 5, "n": 7, "points": [[i] * 7 for i in range(5)]})
    code, out, err = _run(capsys, ["staircase", wide])
    assert (code, out) == (3, "")
    assert err == "error: 1280000000 shifts exceed the budget 20000; raise max_sets\n"
    # in Z_5^2 all 20 pairs of each coordinate survive: 20 x 20 = 400 shifts
    plane = _write(tmp_path, "plane.json", {"p": 5, "n": 2, "points": [[i, i] for i in range(5)]})
    code, out, err = _run(capsys, ["staircase", plane, "--max-sets", "399"])
    assert (code, out) == (3, "")
    assert err == "error: 400 shifts exceed the budget 399; raise max_sets\n"
    code, out, err = _run(capsys, ["staircase", plane, "--max-sets", "400"])
    assert (code, json.loads(out), err) == (0, {"found": False}, "")


def test_staircase_empty_points_exits_2(tmp_path, capsys):
    empty = _write(tmp_path, "empty.json", {"p": 3, "n": 2, "points": []})
    assert _run(capsys, ["staircase", empty]) == (2, "", "error: empty point set\n")


def test_shift_searches_at_a_large_prime_return(tmp_path):
    # a scan over all p(p - 1) scale/offset pairs per coordinate would not
    # finish here; the timeout makes such a scan fail the test, not hang it
    p = 1000003
    two = _write(tmp_path, "two.json", {"p": p, "n": 1, "points": [[0], [1]]})
    moved = _write(tmp_path, "moved.json", {"p": p, "n": 1, "points": [[5], [7]]})
    code, out, err = _run_module(tmp_path, ["staircase", two])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "found": True, "shift": {"a": [1], "b": [0]}, "staircase": [[0], [1]]
    }
    code, out, err = _run_module(tmp_path, ["shift", two, moved])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"found": True, "shift": {"a": [2], "b": [5]}}


def test_fm_pair_budget_exits_3(tmp_path, capsys, monkeypatch):
    # a Fourier-Motzkin step over the pair budget stops every command that
    # builds a fan, with one line on stderr
    import gbfan.groebner

    monkeypatch.setattr(gbfan.groebner, "FM_MAX_PAIRS", 3)
    path = _write(tmp_path, "s5.json", S5)
    dataset = DataSet.from_fds(lac_fds(), PointSet.from_json(S5))
    data = _write(tmp_path, "s5-data.json", dataset.to_json())
    for argv in (["fan", path], ["unique", path], ["fds", "models", data]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert re.fullmatch(
            r"error: Fourier-Motzkin step of \d+ row pairs exceeds the budget 3\n", err
        ), err


ELEVEN = [
    [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 1, 1], [0, 1, 0, 0, 1, 1], [0, 1, 0, 1, 0, 0],
    [1, 0, 0, 1, 0, 1], [1, 1, 0, 0, 0, 1], [1, 1, 0, 0, 1, 0], [1, 1, 0, 1, 1, 0],
    [1, 1, 1, 0, 1, 1], [1, 1, 1, 1, 0, 1], [1, 1, 1, 1, 1, 0],
]


def test_fan_and_unique_on_eleven_points_in_z2_6(tmp_path, capsys):
    # under the default budgets these took over 180 s without pruning
    path = _write(tmp_path, "eleven.json", {"p": 2, "n": 6, "points": ELEVEN})
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["fan", path])
    assert code == 0 and len(json.loads(out)["entries"]) == 232
    code, out, _ = _run(capsys, ["unique", path])
    assert (code, json.loads(out)) == (0, {"unique": False, "gb_count": 232})
    assert time.perf_counter() - start < 20


# each command's options beside --config, and the --format choices of the
# commands with a rendering other than JSON
COMMAND_OPTIONS = {
    "gb": {"--order", "--format", "--names", "--p", "--n"},
    "fan": {"--format", "--names", "--p", "--n", "--max-box", "--max-points"},
    "unique": {"--p", "--n", "--max-box", "--max-points"},
    "staircase": {"--p", "--n", "--max-sets"},
    "shift": {"--p", "--n"},
    "classify": {"--m", "--sample", "--p", "--n", "--seed", "--max-sets", "--max-box",
                 "--max-points"},
    "fds state-space": {"--format"},
    "fds select": {"--order", "--coordinate", "--names"},
    "fds models": {"--max-box", "--max-points"},
    "fds augment": {"--max-k", "--p", "--n", "--max-sets", "--max-box"},
    "lac-demo": {"--format", "--names"},
}
COMMAND_FORMATS = {
    "gb": ("json", "text"),
    "fan": ("json", "text"),
    "fds state-space": ("json", "text", "dot"),
    "lac-demo": ("json", "text"),
}
SHARED_OPTIONS = {"--config", "--format", "--names", "--seed", "--p", "--n", "--max-box",
                  "--max-points", "--max-sets"}


def _commands(parser, prefix=""):
    """Each leaf command of the parser under its full name, e.g. "fds models"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, f"{prefix} {name}".lstrip())
            return
    yield prefix, parser


def _options(parser):
    """The parser's option strings but for --help, and its --format choices."""
    options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    formats = [tuple(a.choices) for a in parser._actions if a.dest == "format"]
    return options, formats[0] if formats else ()


def test_each_command_takes_only_the_options_it_reads():
    found = {name: _options(sp) for name, sp in _commands(build_parser())}
    assert found == {
        name: ({"--config", *options}, COMMAND_FORMATS.get(name, ()))
        for name, options in COMMAND_OPTIONS.items()
    }
    # the nine options once shared by all 11 commands now sit on 46 of the 99 pairs
    assert sum(len(options & SHARED_OPTIONS) for options, _ in found.values()) == 46


@pytest.mark.parametrize("argv", [
    ["gb", "TOY", "--order", "grevlex", "--max-sets", "1"],
    ["gb", "TOY", "--order", "grevlex", "--format", "dot"],
    ["gb", "TOY", "--order", "grevlex", "--nam", "a,b"],
    ["fan", "TOY", "--seed", "7"],
    ["unique", "TOY", "--format", "text"],
    ["staircase", "TOY", "--max-box", "1"],
    ["shift", "TOY", "TOY", "--max-box", "1"],
    ["classify", "--p", "2", "--n", "3", "--m", "3", "--names", "a,b,c"],
    ["fds", "state-space", "LAC", "--p", "2"],
    ["fds", "select", "DATA", "--order", "grevlex", "--n", "3"],
    ["fds", "models", "DATA", "--names", "a"],
    ["fds", "augment", "TOY", "--max-points", "1"],
    ["lac-demo", "--max-box", "1"],
    ["lac-demo", "--n", "3"],
])
def test_an_option_a_command_does_not_read_exits_2(tmp_path, capsys, argv):
    # argparse refuses it before the handler runs, and no option is taken
    # by a prefix: neither --n nor --nam is read as --names
    files = {
        "TOY": _write(tmp_path, "toy.json", TOY),
        "LAC": _write(tmp_path, "lac.json", lac_fds().to_json()),
        "DATA": _write(tmp_path, "data.json", DataSet.from_fds(
            lac_fds(), PointSet.from_json(S5)).to_json()),
    }
    with pytest.raises(SystemExit) as info:
        main([files.get(arg, arg) for arg in argv])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["gb", "CSV", "--p", "1_1", "--n", "2", "--order", "lex"],
    ["gb", "CSV", "--p", "11", "--n", "\u0662", "--order", "lex"],
    ["classify", "--p", "2", "--n", "3", "--m", "3", "--sample", "\uff15"],
    ["classify", "--p", "+2", "--n", "3", "--m", "3"],
    ["classify", "--p", "2", "--n", "3", "--m", " 3"],
    ["classify", "--p", "2", "--n", "3", "--m", "3", "--sample", "5", "--seed", "1_0"],
    ["fan", "TOY", "--max-box", "64 "],
    ["unique", "TOY", "--max-points", "\t16"],
    ["staircase", "TOY", "--max-sets", "1_000"],
    ["fds", "select", "DATA", "--order", "lex", "--coordinate", "+1"],
    ["fds", "augment", "TOY", "--max-k", "\u0668"],
])
def test_integer_options_read_only_ascii_digits(tmp_path, capsys, argv):
    # every integer option is -?[0-9]+, as a CSV field is: an underscore,
    # another script's digits, a plus sign or spaces, which int() reads,
    # exit 2 before the command runs
    csv = tmp_path / "points.csv"
    csv.write_text("0,0\n1,0\n2,1\n")
    files = {
        "CSV": str(csv),
        "TOY": _write(tmp_path, "toy.json", TOY),
        "DATA": _write(tmp_path, "data.json", DataSet.from_fds(
            lac_fds(), PointSet.from_json(S5)).to_json()),
    }
    with pytest.raises(SystemExit) as info:
        main([files.get(arg, arg) for arg in argv])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid integer value" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "2", "--n", "4", "--m", "5"],
    ["gb", "TOY", "--order", "lex"],
])
def test_a_closed_stdout_exits_1_with_no_error_line(tmp_path, argv):
    # the reader of stdout is gone before anything is written: a long
    # output meets it in print, a short one in main's flush, and neither
    # is malformed input
    toy = _write(tmp_path, "toy.json", TOY)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gbfan.cli", *[toy if a == "TOY" else a for a in argv]],
            stdout=write, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_readme_option_table_matches_the_parser():
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for name, cell in re.findall(r"^\| `([a-z -]+)` \|[^|]*\| (.*) \|$", section, re.M):
        options = re.findall(r"`(--[a-z-]+)(?: \{([a-z,]+)\})?`", cell)
        formats = [tuple(choices.split(",")) for _, choices in options if choices]
        table[name] = ({"--config", *(o for o, _ in options)}, formats[0] if formats else ())
    assert table == {name: _options(sp) for name, sp in _commands(build_parser())}


def test_classify_sample_beyond_sys_maxsize(capsys):
    # C(128, 20) subsets are more than range() holds; the draw still runs,
    # and the fan budget refuses the first drawn set
    got = _run(capsys, ["classify", "--p", "2", "--n", "7", "--m", "20", "--sample", "5"])
    assert got == (3, "", "error: box size 128 exceeds the budget 64\n")


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("text", [DEEP, '{"p": 2, "n": 1, "points": ' + DEEP + "}"],
                         ids=["array", "points-value"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, text):
    # each kind of JSON file: points, data, system and config
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    toy = _write(tmp_path, "toy.json", TOY)
    for argv in (
        ["gb", str(deep), "--order", "grevlex"],
        ["fan", str(deep)],
        ["fds", "models", str(deep)],
        ["fds", "select", str(deep), "--order", "grevlex"],
        ["fds", "state-space", str(deep)],
        ["gb", toy, "--order", "grevlex", "--config", str(deep)],
    ):
        _one_line_error(*_run(capsys, argv), "JSON nested too deeply")


@pytest.mark.parametrize("argv", [["fan"], ["unique"], ["fds", "augment", "--max-k", "0"]])
def test_a_box_too_large_for_its_masks_exits_3(tmp_path, capsys, argv):
    # 2^70 members fit the box budget given, but no mask of one bit each
    wide = _write(tmp_path, "wide.json", {"p": 2, "n": 70, "points": [[0] * 70, [1] * 70]})
    code, out, err = _run(capsys, [*argv, wide, "--max-box", "1" + "0" * 30])
    assert (code, out) == (3, "")
    assert err == f"error: box size {2**70} is too large for a mask of one bit per member\n"


def test_empty_variable_names_exit_2(tmp_path, capsys):
    toy = _write(tmp_path, "toy.json", TOY)
    cfg = _write(tmp_path, "config.json", {"names": ["a", ""]})
    for extra in (["--names", "a,"], ["--config", cfg]):
        _one_line_error(*_run(capsys, ["gb", toy, "--order", "grevlex", *extra]),
                        "variable names must not be empty")
