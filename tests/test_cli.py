import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tortken import algebras, cli, freepoly, identcheck
from tortken.algebras import FiniteAlgebra
from tortken.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(__file__).parent / "schemas"
README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(schema: dict, obj) -> None:
    """Minimal structural validator for the checked-in schemas."""
    types = {"object": dict, "string": str, "integer": int, "array": list,
             "boolean": bool, "null": type(None)}
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [
            schema["type"]]
        assert isinstance(obj, tuple(types[k] for k in kinds)), (kinds, obj)
    for key in schema.get("required", ()):
        assert key in obj, f"missing {key}"
    for key, sub in schema.get("properties", {}).items():
        if key in obj:
            check_schema(sub, obj[key])
    if "additionalProperties" in schema:  # a schema, or a bool
        extra = schema["additionalProperties"]
        for key in obj.keys() - schema.get("properties", {}).keys():
            assert extra is not False, f"unknown key {key}"
            if extra is not True:
                check_schema(extra, obj[key])
    if "items" in schema:
        for item in obj:
            check_schema(schema["items"], item)
    if "enum" in schema:
        assert obj in schema["enum"]


def test_check_holds_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--identity", "tortken",
                           "--builtin", "osborn-plus", "--p", "3", "--m", "2",
                           "--alpha", "1", "--beta", "1")
    assert code == 0
    assert "verdict: holds" in out
    assert out.startswith("identity: tortken | algebra: osborn_plus(1,1,3,2)\n")


def test_check_fails_exit_one(capsys):
    code, out, _ = run_cli(capsys, "check", "--identity", "sokolov",
                           "--builtin", "osborn-plus", "--p", "3", "--m", "1",
                           "--alpha", "1", "--beta", "0")
    assert code == 1
    assert "verdict: fails" in out
    assert "value =" in out


def test_check_windowed(capsys):
    code, out, _ = run_cli(capsys, "check", "--identity", "tortken",
                           "--builtin", "integration", "--N", "12",
                           "--range", "0..3")
    assert code == 0
    assert "window-relative" in out


def test_check_inconclusive_exit_three(capsys):
    code, out, _ = run_cli(capsys, "check", "--identity", "tortken",
                           "--builtin", "integration", "--N", "12",
                           "--range", "11..12")
    assert code == 3


def test_check_json_schema(capsys):
    # a holds, a multilinear failure, a failure of a law that is not
    # multilinear, and one on a window read off its component a, where no
    # point of the law evaluates, all meet the strict schema
    schema = json.loads((SCHEMAS / "check.schema.json").read_text())
    for args, code_ in (
            (("--identity", "tortken", "--builtin", "gametic", "--dim", "3",
              "--transform", "plus"), 0),
            (("--identity", "commutativity", "--builtin", "gametic", "--dim",
              "2"), 1),
            (("--identity", "gametic_jordan", "--builtin", "osborn", "--p",
              "5", "--m", "1", "--alpha", "1", "--beta", "0"), 1),
            (("--expr", "a + a*a", "--vars", "a", "--builtin", "integration",
              "--N", "6", "--range", "5..5"), 1)):
        code, out, _ = run_cli(capsys, "check", *args, "--format", "json")
        payload = json.loads(out)
        assert code == code_
        check_schema(schema, payload)
    assert payload["witness_law"] == "a" and payload["witness"] == {"a": "x^5"}
    with pytest.raises(AssertionError, match="unknown key caveat"):
        check_schema(schema, dict(payload, caveat="x"))


def test_algebra_show_gametic(capsys):
    code, out, _ = run_cli(capsys, "algebra", "show", "--builtin", "gametic",
                           "--dim", "3")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("e")]
    assert len(rows) == 3
    assert all(r.split("|")[1:] == rows[0].split("|")[1:] for r in rows)


def test_algebra_validate(capsys):
    code, out, _ = run_cli(capsys, "algebra", "validate", "--builtin", "osborn",
                           "--p", "3", "--m", "1", "--alpha", "1",
                           "--beta", "0")
    assert code == 0
    assert "novikov: OK" in out


_COMM_TORTKEN = "commutative: OK\ntortken: OK\n"


@pytest.mark.parametrize("argv, out", [
    ("divided-power --p 3 --m 1", "assoc-commutative: OK\n"),
    ("derivation-novikov --p 3 --m 1", "novikov: OK\n"),
    ("derivation-symmetric --p 3 --m 1", _COMM_TORTKEN),
    ("osborn --p 3 --m 1 --alpha 1", "novikov: OK\n"),
    ("osborn-plus --p 3 --m 1 --alpha 1 --beta 1", _COMM_TORTKEN),
    ("osborn-laurent --alpha 1 --window=-3..3", _COMM_TORTKEN),
    ("osborn-laurent --alpha 1 --variant novikov --window=-3..3",
     "novikov: OK\n"),
    ("osborn-bar --variant finite_beta --beta 1 --p 3 --m 1",
     "commutative: OK\n"),
    ("osborn-bar --variant laurent_alpha --alpha 1 --window=-3..3",
     "commutative: OK\n"),
    ("osborn-bar --variant laurent_beta --beta 1 --window=-3..3",
     "commutative: OK\n"),
    ("gametic --dim 3", "novikov: OK\n"),
    ("integration --N 4", "leibniz-dual: OK\n"),
    ("square-product --p 3 --k 1 --l 1 --m 1", _COMM_TORTKEN),
    ("square-product --p 2 --k 0 --l 1 --m 2", _COMM_TORTKEN),
    ("square-product --p 3 --k 0 --l 1 --m 1", "commutative: OK\n"),
    ("p2-product --k 1 --m 2", _COMM_TORTKEN),
    ("random-commutative --dim 3 --char 5 --seed 1", "commutative: OK\n"),
])
def test_algebra_validate_every_kind(capsys, argv, out):
    # the laws each builtin kind promises, on both branches of the ones that
    # depend on the parameters (square-product's tortken, the Laurent variant)
    assert run_cli(capsys, "algebra", "validate", "--builtin",
                   *shlex.split(argv)) == (0, out, "")


def test_algebra_validate_catches_failure(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "algebra", "validate", "--builtin",
                           "random-commutative", "--dim", "3", "--char", "5",
                           "--seed", "0", "--transform", "opposite")
    assert code == 0  # opposite of commutative is commutative
    code, out, _ = run_cli(capsys, "algebra", "validate", "--builtin",
                           "gametic", "--dim", "2")
    assert code == 0 and "novikov: OK" in out
    # b0*b1 = b1 and b1*b0 = 0 over F_3: not commutative
    spec = _spec_file(tmp_path, _dim2([[0, 1, 1, 1]], char=3))
    code, out, _ = run_cli(capsys, "algebra", "validate", "--spec", spec)
    assert (code, out) == (1, "commutative: FAIL (commutativity)\n")


def test_spec_file_round_trip(tmp_path, capsys):
    from tortken.algebras import gametic
    spec = tmp_path / "gametic.json"
    spec.write_text(gametic(2).to_json())
    code, out, _ = run_cli(capsys, "check", "--identity", "tortken",
                           "--spec", str(spec), "--transform", "plus")
    assert code == 0 and "verdict: holds" in out


def test_malformed_spec_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "algebra", "show", "--spec", str(bad))
    assert code == 2
    assert str(bad) in err


def test_deeply_nested_spec_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "algebra", "show", "--spec", str(deep))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read algebra spec {deep}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("expr", ["-" * 5000 + "a*a",
                                  "(" * 2000 + "a*a" + ")" * 2000])
def test_deeply_nested_expr_exits_two(capsys, expr):
    code, out, err = run_cli(capsys, "check", f"--expr={expr}", "--vars", "a",
                             "--builtin", "gametic", "--dim", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: bad expression: ") and err.count("\n") == 1


def test_unknown_identity_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "--identity", "nope",
                           "--builtin", "gametic", "--dim", "2")
    assert code == 2


def test_identity_char_restriction_exit_two(capsys):
    # a usage error: the message goes to stderr, so JSON stdout stays empty
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "check", "--identity", "deg5_ii",
                                 "--builtin", "osborn-plus", "--p", "3",
                                 "--m", "1", "--alpha", "0", "--beta", "0",
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("error: identity deg5_ii is not applicable in "
                       "characteristic 3\n")


def test_idspace_reference(capsys):
    code, out, _ = run_cli(capsys, "idspace", "--reference-deg4")
    assert code == 0
    assert "rank: 10" in out
    assert "reference solutions verified: True" in out


@pytest.mark.parametrize("extra, named", [
    (("--degree", "3"), "--degree"),
    (("--builtin", "gametic", "--dim", "3"), "--builtin --dim"),
    (("--range=0..1",), "--range")])
def test_idspace_reference_rejects_other_options(capsys, extra, named):
    code, out, err = run_cli(capsys, "idspace", "--reference-deg4", *extra)
    assert (code, out) == (2, "")
    assert err == (f"error: --reference-deg4 takes no {named}: it is the "
                   "fixed degree-4 reproduction\n")


def test_idspace_balanced_first_needs_degree4(capsys):
    code, out, err = run_cli(capsys, "idspace", "--degree", "3", "--basis",
                             "balanced_first", "--builtin", "gametic",
                             "--dim", "3")
    assert (code, out) == (2, "")
    assert err == "error: --basis balanced_first needs --degree 4, got 3\n"
    code, out, _ = run_cli(capsys, "idspace", "--degree", "4", "--basis",
                           "balanced_first", "--builtin", "gametic", "--dim", "2")
    assert code == 0 and "monomial order: balanced_first" in out


def test_idspace_degree3_laurent(capsys):
    code, out, _ = run_cli(capsys, "idspace", "--degree", "3", "--builtin",
                           "osborn-laurent", "--alpha", "0", "--beta", "0",
                           "--window=-4..8", "--range=-1..3")
    assert code == 0
    assert "rank: 3" in out
    assert "nullspace dimension: 0" in out


@pytest.mark.parametrize("argv", [
    ("check", "--identity", "tortken", "--builtin", "osborn-laurent",
     "--alpha", "1", "--beta", "0"),
    ("idspace", "--degree", "3", "--builtin", "osborn-laurent", "--alpha", "0",
     "--beta", "0")])
def test_negative_window_and_range_parse_in_both_forms(capsys, argv):
    # a value that starts with '-' after --window or --range is that flag's
    # value, as with --window=-4..8
    joined = run_cli(capsys, *argv, "--window=-4..8", "--range=-1..3")
    assert joined[0] == 0
    for window, rng in ((("--window", "-4..8"), ("--range", "-1..3")),
                        (("--window=-4..8",), ("--range", "-1..3")),
                        (("--window", "-4..8"), ("--range=-1..3",))):
        assert run_cli(capsys, *argv, *window, *rng) == joined


def test_range_flag_without_a_value_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["idspace", "--degree", "3", "--builtin", "osborn-laurent",
              "--window", "-4..8", "--range"])
    assert exc.value.code == 2
    assert "--range: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--degree", "3", "--builtin", "gametic", "--dim", "2"),
    ("--degree", "3", "--builtin", "osborn-laurent", "--alpha", "0",
     "--beta", "0", "--window", "-4..8", "--range", "-1..3"),
    ("--reference-deg4",)])
def test_idspace_json_schema(capsys, argv):
    schema = json.loads((SCHEMAS / "idspace.schema.json").read_text())
    code, out, _ = run_cli(capsys, "idspace", *argv, "--format", "json")
    assert code == 0
    report = json.loads(out)
    check_schema(schema, report)
    assert len(report["nullspace"]) == len(report["monomials"]) - report["rank"]


def test_idspace_degree_out_of_range(capsys):
    code, _, err = run_cli(capsys, "idspace", "--degree", "6", "--builtin",
                           "gametic", "--dim", "2")
    assert code == 2


def test_simplicity_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "simplicity", "--builtin", "osborn-plus",
                           "--p", "3", "--m", "1", "--alpha", "1", "--beta", "0")
    assert code == 0 and "verdict: simple" in out
    code, out, _ = run_cli(capsys, "simplicity", "--builtin", "osborn-plus",
                           "--p", "3", "--m", "1", "--alpha", "0", "--beta", "1")
    assert code == 1 and "witness ideal dimension: 2" in out


def test_simplicity_cannot_certify_exits_three(capsys):
    # over Q this algebra has no singular operator of nullity 1 and no
    # proper difference closure, and the zero operator is no Norton
    # candidate over Q: inconclusive, one line
    code, out, err = run_cli(capsys, "simplicity", "--builtin",
                             "random-commutative", "--dim", "4", "--seed", "3")
    assert code == 3 and out == ""
    assert err.startswith("inconclusive: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--builtin", "gametic", "--dim", "1"],
    ["--builtin", "gametic", "--dim", "1", "--char", "5"],
    ["--builtin", "random-commutative", "--dim", "1"],
    ["--spec", "DIM1"],
    ["--spec", "DIM1_F7"],
], ids=["gametic-Q", "gametic-F5", "random-Q", "spec-Q", "spec-F7"])
def test_simplicity_in_dimension_one(tmp_path, capsys, flags):
    # x*x = 3x: A*A = A, and 0 and A are the only subspaces of a line
    specs = {"DIM1": 0, "DIM1_F7": 7}
    if flags[-1] in specs:
        flags = ["--spec", _spec_file(tmp_path, {
            "kind": "structure_constants", "field": {"char": specs[flags[-1]]},
            "dim": 1, "table": [[0, 0, 0, "3"]]})]
    code, out, err = run_cli(capsys, "simplicity", *flags)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "verdict: simple",
        "audit: A*A = A in dimension 1, where 0 and A are the only subspaces"]


def test_simplicity_inconclusive_json(capsys):
    code, out, err = run_cli(capsys, "simplicity", "--builtin",
                             "random-commutative", "--dim", "4", "--seed", "3",
                             "--format", "json")
    payload = json.loads(out)
    assert code == 3 and err == ""
    assert payload["algebra"] == "random_commutative(4,seed=3)"
    assert payload["verdict"] == "inconclusive"
    assert len(payload["audit"]) == 1
    assert "no usable singular operator" in payload["audit"][0]


def test_check_witness_binds_the_law_variables(tmp_path, capsys):
    # a*a vanishes on both basis elements but not on their sum: the witness
    # binds the law's own variable, in text and JSON alike
    spec = _spec_file(tmp_path, _dim2([[0, 1, 0, 1], [1, 0, 0, 1]]))
    code, out, _ = run_cli(capsys, "check", "--expr", "a*a", "--vars", "a",
                           "--spec", spec)
    assert code == 1
    assert out.endswith("(checked 4, skipped 0)\n  a = b0 + b1\n"
                        "  value = 2*b0\n")
    code, out, _ = run_cli(capsys, "check", "--expr", "a*a", "--vars", "a",
                           "--spec", spec, "--format", "json")
    payload = json.loads(out)
    check_schema(json.loads((SCHEMAS / "check.schema.json").read_text()),
                 payload)
    assert payload["witness"] == {"a": "b0 + b1"}


def test_check_names_the_component_where_the_law_never_evaluates(capsys):
    # on x^5 of integration(6) every nonzero a escapes in a*a: the failure
    # is read off the law's degree-1 component, named on a law: line
    code, out, _ = run_cli(capsys, "check", "--expr", "a + a*a", "--vars", "a",
                           "--builtin", "integration", "--N", "6",
                           "--range", "5..5")
    assert code == 1 and out.endswith("verdict: fails (checked 1, skipped 1)\n"
                                      "law: a\n  a = x^5\n  value = x^5\n")


def test_check_small_char_is_sound(tmp_path, capsys):
    # a*a = a holds on F_2 itself, as c^2 = c, although its polarization
    # -t1 would fail: one tuple for each of its two components
    spec = _spec_file(tmp_path, {"kind": "structure_constants",
                                 "field": {"char": 2}, "dim": 1,
                                 "table": [[0, 0, 0, 1]]})
    code, out, _ = run_cli(capsys, "check", "--expr", "a*a - a", "--vars",
                           "a", "--spec", spec)
    assert code == 0 and out.endswith("verdict: holds (checked 2, skipped 0)\n")
    code, out, _ = run_cli(capsys, "check", "--identity", "gametic_jordan",
                           "--builtin", "osborn-plus", "--p", "3", "--m", "2",
                           "--alpha", "1", "--beta", "1")
    assert code == 1 and out.endswith(
        "verdict: fails (checked 6561, skipped 0)\n  x = x^(0)\n  y = x^(0)\n"
        "  value = 2*x^(5) + 2*x^(6)\n")


@pytest.mark.parametrize("argv", [
    ["--identity", "gametic_jordan", "--builtin", "gametic", "--dim", "5",
     "--char", "3"],
    ["--identity", "gametic_jordan", "--builtin", "gametic", "--dim", "9",
     "--char", "3"],
    ["--expr", "(x*x)*y - y*(x*x)", "--vars", "x,y", "--builtin",
     "osborn-plus", "--p", "3", "--m", "2"]])
def test_check_decides_small_char_laws_that_are_not_multilinear(capsys, argv):
    # char 3 <= degree on closed algebras: decided, never inconclusive
    code, out, _ = run_cli(capsys, "check", *argv)
    assert code == 0 and "verdict: holds" in out


def test_check_has_no_trials_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--trials", "5", "--identity", "tortken",
              "--builtin", "gametic", "--dim", "2"])
    assert exc.value.code == 2


def test_algebra_validate_transform(capsys):
    # plus of a Novikov algebra is commutative and tortken (the paper's
    # theorem); the Novikov laws are not checked on it
    for kind in (["osborn", "--p", "3", "--m", "1", "--alpha", "1"],
                 ["gametic", "--dim", "3"],
                 ["osborn-laurent", "--alpha", "1", "--variant", "novikov",
                  "--window=-3..3"]):
        code, out, _ = run_cli(capsys, "algebra", "validate", "--builtin",
                               *kind, "--transform", "plus")
        assert (code, out) == (0, "commutative: OK\ntortken: OK\n"), kind
    for transform in ("minus", "opposite"):
        code, out, err = run_cli(capsys, "algebra", "validate", "--builtin",
                                 "osborn", "--p", "3", "--m", "1", "--alpha",
                                 "1", "--transform", transform)
        assert (code, out) == (2, "")
        assert "osborn" in err and f"--transform {transform}" in err
    code, _, err = run_cli(capsys, "algebra", "validate", "--builtin",
                           "osborn-plus", "--p", "3", "--m", "1", "--alpha",
                           "1", "--transform", "plus")
    assert code == 2 and "osborn-plus" in err


def test_algebra_validate_spec_uses_its_kind(tmp_path, capsys):
    spec = _spec_file(tmp_path, {"kind": "osborn", "params": {
        "alpha": 1, "beta": 0, "p": 3, "m": 1}})
    code, out, _ = run_cli(capsys, "algebra", "validate", "--spec", spec)
    assert (code, out) == (0, "novikov: OK\n")
    spec = _spec_file(tmp_path, {"kind": "square-product", "params": {
        "p": 3, "k": 1, "l": 1, "m": 1}})
    code, out, _ = run_cli(capsys, "algebra", "validate", "--spec", spec)
    assert (code, out) == (0, "commutative: OK\ntortken: OK\n")
    spec = _spec_file(tmp_path, {"kind": "osborn-laurent", "params": {
        "alpha": 1, "lo": -3, "hi": 3, "variant": "novikov"}})
    code, out, _ = run_cli(capsys, "algebra", "validate", "--spec", spec)
    assert (code, out) == (0, "novikov: OK\n")


def test_algebra_validate_reads_its_spec_once(tmp_path, capsys, monkeypatch):
    spec = _spec_file(tmp_path, {"kind": "osborn", "params": {
        "alpha": 1, "beta": 0, "p": 3, "m": 1}})
    reads = []
    read = cli._read_spec
    monkeypatch.setattr(cli, "_read_spec",
                        lambda path: reads.append(path) or read(path))
    code, out, _ = run_cli(capsys, "algebra", "validate", "--spec", spec)
    assert (code, out, reads) == (0, "novikov: OK\n", [spec])


def test_repeated_variable_names_exit_two(tmp_path, capsys):
    # with one name a*a is a square and fails here; a repeated name must not
    # make it look multilinear (it used to report an unsound holds)
    spec = _spec_file(tmp_path, _dim2([[0, 1, 0, 1], [1, 0, 0, 1]]))
    code, out, _ = run_cli(capsys, "check", "--expr", "a*a", "--vars", "a",
                           "--spec", spec)
    assert code == 1 and "verdict: fails" in out
    code, _, err = run_cli(capsys, "check", "--expr", "a*a", "--vars", "a,a",
                           "--spec", spec)
    assert code == 2 and "repeated variable" in err


def test_zero_denominator_exits_two(capsys):
    code, _, err = run_cli(capsys, "check", "--expr", "1/0*a", "--vars", "a",
                           "--builtin", "gametic", "--dim", "2")
    assert code == 2 and "zero denominator" in err


def test_simplicity_json(capsys):
    code, out, _ = run_cli(capsys, "simplicity", "--builtin", "osborn-plus",
                           "--p", "3", "--m", "1", "--alpha", "0", "--beta", "1",
                           "--format", "json")
    payload = json.loads(out)
    assert payload["verdict"] == "not_simple"
    assert payload["witness_ideal"]["dim"] == 2


@pytest.mark.parametrize("target", ["deg4-matrix", "det54", "counterexample",
                                    "tortken-prime", "psi", "simplicity-table"])
def test_reproduce_matches_golden(capsys, target):
    code, out, _ = run_cli(capsys, "reproduce", target)
    assert code == 0
    assert out == (GOLDEN / f"{target}.txt").read_text()


def test_reproduce_deterministic(capsys):
    a = run_cli(capsys, "reproduce", "det54")
    b = run_cli(capsys, "reproduce", "det54")
    assert a == b


def test_console_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "tortken", "check", "--identity", "tortken",
         "--builtin", "gametic", "--dim", "2", "--transform", "plus"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict: holds" in proc.stdout


def test_characteristic_above_the_primality_bound_exits_two(tmp_path, capsys):
    # 2^89 - 1 is prime but above the Miller-Rabin bound: a usage error, not
    # a trial division that never ends
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    char = str(2**89 - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "tortken", "algebra", "show", "--builtin",
         "gametic", "--dim", "2", "--char", char],
        capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    spec = _spec_file(tmp_path, _dim2([[0, 0, 0, 0]], char=2**89 - 1))
    code, out, err = run_cli(capsys, "algebra", "show", "--spec", spec)
    assert (code, out) == (2, "") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "algebra show --builtin gametic --dim 513",
    "algebra show --builtin gametic --dim 100000",
    "algebra show --builtin divided-power --p 521 --m 1",
    "algebra show --builtin divided-power --p 3 --m 12",
    "algebra show --builtin divided-power --p 3 --m 100000000",
    "algebra show --spec SPEC513",
    "algebra show --spec SPEC100000",
    "check --identity tortken --builtin osborn-laurent --window 0..512 "
    "--range 0..3",
    "check --identity tortken --builtin osborn-laurent --window 0..20000 "
    "--range 0..3",
    "simplicity --builtin random-commutative --dim 513",
    "idspace --degree 2 --builtin osborn-bar --variant laurent_alpha "
    "--alpha 1 --window 0..10000000000 --range 0..1",
])
def test_table_budget_exits_two(tmp_path, argv):
    # each table just above (or far above) the budget is refused before it
    # is made: one error line naming the budget, under a 400 MB address
    # space in which the large tables would end in a MemoryError
    for dim in (513, 100000):
        spec = tmp_path / f"spec{dim}.json"
        spec.write_text(json.dumps({"kind": "structure_constants", "dim": dim,
                                    "field": {"char": 0}, "table": []}))
        argv = argv.replace(f"SPEC{dim}", str(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    limit = (400 << 20, 400 << 20)
    proc = subprocess.run(
        [sys.executable, "-m", "tortken", *argv.split()],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "TABLE_BUDGET = 262144" in proc.stderr


@pytest.mark.parametrize("argv", [
    "idspace --degree 5 --builtin gametic --dim 40",
    "idspace --degree 5 --builtin gametic --dim 8",
    "idspace --degree 4 --builtin osborn-laurent --alpha 1 --beta 0 "
    "--window=-20..20 --range=-20..20",
])
def test_substitution_budget_exits_two(argv):
    # dim^degree substitutions are counted before any is built: one error
    # line naming the budget, under a 400 MB address space in which the 40^5
    # tuples would end in a MemoryError; dim 7 at degree 5 stays inside
    assert 7 ** 5 <= identcheck.SUBSTITUTION_BUDGET < 8 ** 5
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    limit = (400 << 20, 400 << 20)
    proc = subprocess.run(
        [sys.executable, "-m", "tortken", *argv.split()],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "SUBSTITUTION_BUDGET = 20000" in proc.stderr


def test_check_output_is_deterministic():
    # two fresh interpreters print the same failing verdict and witness
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "tortken", "check", "--identity", "tortken",
             "--builtin", "square-product", "--p", "2", "--k", "0", "--l", "2",
             "--m", "4"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _spec_file(tmp_path, spec) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _dim2(table, char=0):
    return {"kind": "structure_constants", "field": {"char": char}, "dim": 2,
            "table": table}


@pytest.mark.parametrize("spec", [
    _dim2([[5, 0, 0, "1"]]),              # row index out of range
    _dim2([[0, 5, 0, "1"]]),              # column index out of range
    _dim2([[0, 0, 2, "1"]]),              # product index out of range
    _dim2([[-1, 0, 0, "1"]]),             # negative row index
    _dim2([[0, 0, 0, "1/0"]]),            # zero denominator
    _dim2([[0, 0, 0, "1/3"]], char=3),    # denominator not invertible mod p
    [_dim2([[0, 0, 0, "1"]])],            # top-level list
    _dim2([[0, 0, 0, 0.1]]),              # float coefficient over Q
    _dim2([[0, 0, 0, 0.1]], char=5),      # float coefficient over F_p
    _dim2([[0, 0, 0, "0.1"]]),            # decimal string
    _dim2([[0, 0, "1"]]),                 # short entry
    {"kind": "osborn", "params": [3, 1]},  # builtin params not an object
    {"kind": "osborn", "params": {"p": 3, "m": 1, "alpha": "1/0"}},
    {"kind": "osborn", "params": {"p": 3, "m": 1, "alpha": 0.1}},
    {"kind": "osborn", "params": {"p": 3, "m": 1, "beta": "0.1"}},
    {"kind": "gametic", "params": {"dim": 2, "seed": 1}},
], ids=["row-range", "column-range", "index-range", "negative-row",
        "zero-denominator", "denominator-mod-p", "top-level-list", "float-q",
        "float-fp", "decimal-string", "short-entry", "params-list",
        "builtin-zero-denominator", "builtin-float-alpha",
        "builtin-decimal-beta", "builtin-unknown-parameter"])
def test_bad_spec_exits_two(tmp_path, capsys, spec):
    path = _spec_file(tmp_path, spec)
    code, _, err = run_cli(capsys, "algebra", "show", "--spec", path)
    assert code == 2
    assert path in err


@pytest.mark.parametrize("argv, named", [
    ("check --identity tortken --builtin gametic --dim 3 --p 7 --window 0..9 "
     "--alpha 5", "'p'"),
    ("algebra show --builtin divided-power --p 3 --m 1 --N 4", "N alone"),
    ("algebra show --builtin derivation-novikov --m 2", "N alone"),
    ("algebra show --builtin osborn-bar --variant finite_beta --beta 1 --p 3 "
     "--m 1 --alpha 2", "'alpha'"),
    ("algebra show --builtin osborn-bar --variant laurent_beta --beta 1",
     "'lo'"),
    ("simplicity --builtin random-commutative --dim 2 --variant jordan",
     "'variant'"),
    ("idspace --degree 2 --builtin integration --N 3 --window 0..3 "
     "--range 0..1", "'lo'"),
], ids=["gametic-p", "divided-power-N", "derivation-m", "osborn-bar-alpha",
        "osborn-bar-missing-window", "random-variant", "integration-window"])
def test_builtin_rejects_parameters_it_does_not_take(capsys, argv, named):
    # a parameter the builtin does not take, or one it lacks, is one error
    # line and exit 2, never silently dropped
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_every_builtin_parameter_has_a_cli_flag():
    # every parameter of every builder (the osborn-bar variants included) is
    # a flag, but lo and hi, which --window gives; every flag is one's
    builders = [*(build for build, _ in algebras._BUILTINS.values()),
                *algebras._OSBORN_BAR.values()]
    params = {name for b in builders
              for name, par in inspect.signature(b).parameters.items()
              if par.kind is not par.VAR_KEYWORD} - {"lo", "hi"}
    parser = argparse.ArgumentParser()
    cli._add_algebra_flags(parser)
    flags = {a.dest for a in parser._actions} - {
        "help", "builtin", "spec", "window", "transform"}
    assert params == flags == set(cli._ALGEBRA_PARAMS)


@pytest.mark.parametrize("value, code", [("0.1", 2), ("1e3", 2), ("1/2", 0)])
def test_alpha_flag_takes_only_rational_forms(capsys, value, code):
    # 0.1 must not load as alpha = 1/10; "a/b" strings are the rational form
    got, out, err = run_cli(capsys, "algebra", "show", "--builtin", "osborn",
                            "--p", "3", "--m", "1", "--alpha", value)
    assert got == code
    assert ("bad scalar" in err) == (code == 2)


def test_check_range_on_closed_algebra_exits_two(capsys):
    for command in (("check", "--identity", "commutativity"),
                    ("idspace", "--degree", "2")):
        code, out, err = run_cli(capsys, *command, "--builtin", "gametic",
                                 "--dim", "3", "--range", "0..0")
        assert code == 2 and not out
        assert "--range applies to graded windows" in err


@pytest.mark.parametrize("argv, code, line", [
    ("algebra show --builtin osborn-laurent --alpha 0 --beta 0 --window=-1..1",
     0, "x^-1 * x^0 = -1*x^-2"),
    ("idspace --degree 3 --builtin gametic --dim 2",
     0, "substitutions: 8 (skipped 0)"),
    ("idspace --degree 3 --builtin osborn-laurent --alpha 0 --beta 0 "
     "--window=-4..8", 2, "error: graded identity space needs --range lo..hi"),
    ("algebra show --builtin derivation-novikov --p 3 --m 1",
     0, "algebra: derivation_novikov(divided_power(3,1)) (dim 3, F3)"),
    ("algebra show --builtin derivation-symmetric --p 3 --m 1",
     0, "algebra: derivation_symmetric(divided_power(3,1)) (dim 3, F3)"),
    ("algebra show --builtin osborn-bar --variant finite_beta --beta 1 --p 3 "
     "--m 1", 0, "algebra: osborn_bar(1,3,1) (dim 2, F3)"),
    ("algebra show --builtin p2-product --k 1 --m 2",
     0, "algebra: p2_product(1,2) (dim 4, F2)"),
], ids=["show-window", "idspace-closed", "idspace-window-no-range",
        "derivation-novikov", "derivation-symmetric", "osborn-bar", "p2-product"])
def test_cli_paths(capsys, argv, code, line):
    got, out, err = run_cli(capsys, *shlex.split(argv))
    assert got == code and line in (out + err).splitlines()


@pytest.mark.parametrize("window", [("4", "3..3"), ("12", "20..30")])
def test_nothing_evaluable_is_inconclusive(capsys, window):
    # no substitution evaluates inside the window: no law is claimed
    n, rng = window
    algebra = ("--builtin", "integration", "--N", n, "--range", rng)
    code, _, _ = run_cli(capsys, "check", "--identity", "sokolov", *algebra)
    assert code == 3
    code, out, _ = run_cli(capsys, "idspace", "--degree", "4", *algebra,
                           "--format", "json")
    payload = json.loads(out)
    assert code == 3 and payload["substitutions"] == 0
    assert payload["flags"] and set(payload["flags"].values()) == {None}
    code, out, _ = run_cli(capsys, "idspace", "--degree", "4", *algebra)
    assert "sokolov: n/a" in out and ": yes" not in out


def test_repeated_spec_entries_are_merged(tmp_path, capsys):
    # b0*b1 = 1 + 1 = 2*b0 = b1*b0 over F_3: the two entries are one product
    spec = _dim2([[0, 1, 0, "1"], [0, 1, 0, "1"], [1, 0, 0, "2"]], char=3)
    code, out, _ = run_cli(capsys, "algebra", "show", "--spec",
                           _spec_file(tmp_path, spec))
    assert code == 0 and "commutative: True" in out
    A = FiniteAlgebra.from_spec(spec)
    assert A.is_commutative()
    assert A == FiniteAlgebra.from_spec(
        dict(spec, table=[[0, 1, 0, "2"], [1, 0, 0, "2"]]))


_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=4), st.lists(st.integers(0, 2), max_size=2))
_SMALL = st.integers(-2, 4)
_SCALARS = st.one_of(st.integers(-3, 3),
                     st.sampled_from(["1", "-2", "1/2", "1/0", "0.1", "x", ""]),
                     _JUNK)
_ENTRY = st.one_of(st.lists(st.one_of(_SMALL, _JUNK), min_size=3, max_size=3)
                   .flatmap(lambda ijk: _SCALARS.map(lambda c: ijk + [c])),
                   st.lists(_SMALL, max_size=5), _JUNK)
_STRUCTURE_SPECS = st.fixed_dictionaries(
    {"kind": st.just("structure_constants"),
     "field": st.one_of(st.fixed_dictionaries(
         {"char": st.one_of(st.sampled_from([0, 2, 3, 4, 5]), _JUNK)}), _JUNK),
     "dim": st.one_of(_SMALL, _JUNK),
     "table": st.one_of(st.lists(_ENTRY, max_size=6), _JUNK)},
    optional={"labels": st.one_of(st.lists(st.text(max_size=3), max_size=4),
                                  _JUNK),
              "name": st.one_of(st.text(max_size=5), _JUNK)})
_PARAMS = {"p": st.sampled_from([-1, 0, 1, 2, 3, 4]), "m": st.integers(-1, 1),
           "N": _SMALL, "dim": _SMALL, "char": st.sampled_from([0, 2, 3, 4]),
           "k": st.integers(-1, 2), "l": st.integers(-1, 2),
           "lo": st.integers(-3, 3), "hi": st.integers(-3, 3),
           "alpha": _SCALARS, "beta": _SCALARS, "seed": _SMALL,
           "variant": st.sampled_from(["jordan", "novikov", "laurent_alpha",
                                       "finite_beta", "laurent_beta", "x"])}
_BUILTIN_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["divided-power", "derivation-novikov",
                              "derivation-symmetric", "osborn", "osborn-plus",
                              "osborn-laurent", "osborn-bar", "gametic",
                              "integration", "square-product", "p2-product",
                              "random-commutative", "no-such-kind"])},
    optional={"params": st.one_of(
        st.fixed_dictionaries({}, optional={
            k: st.one_of(v, _JUNK) for k, v in _PARAMS.items()}), _JUNK)})


@settings(max_examples=150, deadline=None)
@given(st.one_of(_STRUCTURE_SPECS, _BUILTIN_SPECS, _JUNK))
def test_spec_loader_fuzz(spec):
    # a malformed spec exits 2 with a message; nothing raises
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["algebra", "show", "--spec", path])
    assert code in (0, 2)
    if code == 2:
        assert path in err.getvalue()


_FUZZ_PRODUCTS = st.recursive(
    st.sampled_from(["a", "b", "c", "2", "1/0"]),
    lambda t: st.builds("({}*{})".format, t, t), max_leaves=4)
_FUZZ_EXPRS = st.one_of(
    st.text(max_size=10),
    st.lists(st.sampled_from(["a", "b", "*", "+", "-", "/", "(", ")", "0",
                              "1", "assoc(", "comm(", ","]),
             max_size=8).map("".join),
    st.lists(_FUZZ_PRODUCTS, min_size=1, max_size=3).map(" - ".join))
_FUZZ_VARS = st.one_of(st.sampled_from(["a,b,c", "a,b", "a", "a,a", "c, b,a"]),
                       st.text(max_size=6))
_FUZZ_RANGES = st.one_of(st.none(), st.text(max_size=6),
                         st.builds("{}..{}".format, st.integers(-3, 3),
                                   st.integers(-3, 3)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([["--builtin", "gametic", "--dim", "2"],
                        ["--builtin", "osborn-laurent", "--alpha", "1"]]),
       _FUZZ_EXPRS, _FUZZ_VARS, _FUZZ_RANGES, _FUZZ_RANGES)
def test_check_text_fuzz(algebra, expr, variables, rng, window):
    # any text for --expr, --vars, --range and --window exits 0..3 and never
    # escapes main with an exception; a decided or inconclusive check prints
    # JSON that meets the schema
    argv = ["check", f"--expr={expr}", f"--vars={variables}", *algebra]
    argv += [f"--range={rng}"] if rng is not None else []
    argv += [f"--window={window}"] if window is not None else []
    schema = json.loads((SCHEMAS / "check.schema.json").read_text())
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + [f"--format={fmt}"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 1, 2, 3)
        if fmt == "json" and code != 2:
            check_schema(schema, json.loads(out.getvalue()))


def _readme_cli_commands() -> list:
    """The `tortken ...` lines of the README's ## CLI code block."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("tortken ")]


_README_EXIT_CODES = {  # documented non-zero exits; every other line exits 0
    "check --identity sokolov": 1,   # sokolov fails on the osborn jordan product
    "simplicity --builtin osborn-plus --p 3 --m 1 --alpha 0": 1,  # not simple
}


def test_readme_cli_examples(capsys):
    commands = _readme_cli_commands()
    assert len(commands) >= 9
    for argv in commands:
        line = " ".join(argv)
        want = next((code for prefix, code in _README_EXIT_CODES.items()
                     if line.startswith(prefix)), 0)
        code, out, err = run_cli(capsys, *argv)
        assert code == want, (line, err)
        assert out


def test_no_assert_in_the_library():
    # python -O strips asserts, so every check in src/tortken raises explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


@pytest.mark.parametrize("builtin", ["osborn", "osborn-plus"])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_osborn_needs_m_at_least_one(capsys, builtin, m):
    code, out, err = run_cli(capsys, "simplicity", "--builtin", builtin,
                             "--p", "3", "--m", m, "--beta", "1")
    assert (code, out, err) == (2, "", "error: need m >= 1\n")


def test_oversized_expansion_exits_two(capsys):
    # degree 10 in one variable: 2^10 basis tuples are expanded and the
    # witness re-evaluates; 3^10 are refused before any product is taken
    expr = "--expr=" + "(" * 9 + "a" + "*a)" * 9
    code, out, err = run_cli(capsys, "check", expr, "--vars", "a", "--builtin",
                             "gametic", "--dim", "2", "--format", "json")
    payload = json.loads(out)
    assert (code, err, payload["checked"]) == (1, "", 2 ** 10)
    G, law = algebras.gametic(2), freepoly.parse(expr[7:], ("a",))
    got = identcheck.check_identity(law, G)
    assert {v: G.fmt_element(e) for v, e in got.witness.items()} == \
        payload["witness"]
    value = identcheck.evaluate(law, G, got.witness)
    assert value and G.fmt_element(value) == payload["value"]
    code, out, err = run_cli(capsys, "check", expr, "--vars", "a", "--builtin",
                             "gametic", "--dim", "3")
    assert code == 2 and not out
    assert err == ("error: expanding the law takes 59049 basis tuples, more "
                   "than SUBSTITUTION_BUDGET = 20000\n")
