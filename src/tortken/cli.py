"""Command-line driver: define/inspect algebras, run identity checks, compute
identity spaces, certify simplicity, and emit the golden reproductions.

Exit codes: 0 success / identity holds / simple; 1 identity fails / not
simple; 2 usage or spec error; 3 inconclusive (window-limited).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from . import algebras, idealtool
from .algebras import Algebra, builtin_algebra, algebra_from_spec
from .exactnum import OutOfRangeError
from .freepoly import DegreeOutOfRangeError, catalog_entry, parse
from .identcheck import (FAILS, HOLDS, INCONCLUSIVE, SUBSTITUTION_BUDGET,
                         check_identity, check_identity_windowed, degree3_system,
                         evaluate, identity_space, reference_deg4_report,
                         tortken_prime_relation, verify_reference_solutions)


class UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected lo..hi") from exc


# what building an algebra raises on parameters it cannot use (ZeroDivisionError
# for "1/0" or a denominator divisible by p is an ArithmeticError)
_BAD_PARAMETERS = (KeyError, ValueError, TypeError, ArithmeticError)

# one flag per builtin parameter but lo and hi, which --window gives
_ALGEBRA_PARAMS = {"p": int, "m": int, "N": int, "alpha": str, "beta": str,
                   "dim": int, "char": int, "k": int, "l": int, "seed": int,
                   "variant": str}


def _read_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read algebra spec {path}: {exc}")


def _build_algebra(args, spec: dict | None = None) -> Algebra:
    """The flags' algebra, from `spec` if the --spec file is already read."""
    if getattr(args, "spec", None):
        try:
            A = algebra_from_spec(_read_spec(args.spec) if spec is None else spec)
        except _BAD_PARAMETERS as exc:
            raise UsageError(f"bad algebra spec {args.spec}: {exc}")
    else:
        if not getattr(args, "builtin", None):
            raise UsageError("need --builtin NAME or --spec FILE")
        params = {key: getattr(args, key) for key in _ALGEBRA_PARAMS
                  if getattr(args, key) is not None}
        if getattr(args, "window", None):
            params["lo"], params["hi"] = _parse_range(args.window)
        try:
            A = builtin_algebra(args.builtin, **params)
        except _BAD_PARAMETERS as exc:  # name the flag that gives lo and hi
            raise UsageError(re.sub(r"argument(:?) 'lo'", r"argument\1 --window",
                                    str(exc)))
    transform = getattr(args, "transform", None)
    if transform:
        A = {"plus": algebras.plus, "minus": algebras.minus,
             "opposite": algebras.opposite}[transform](A)
    return A


def _get_identity(args):
    if getattr(args, "identity", None):
        try:
            entry = catalog_entry(args.identity)
        except KeyError as exc:
            raise UsageError(str(exc))
        return entry.name, entry.poly, entry.excluded_chars
    if getattr(args, "expr", None):
        if not getattr(args, "vars", None):
            raise UsageError("--expr needs --vars a,b,c")
        variables = tuple(v.strip() for v in args.vars.split(","))
        try:
            return "<expr>", parse(args.expr, variables), frozenset()
        except ValueError as exc:
            raise UsageError(f"bad expression: {exc}")
    raise UsageError("need --identity NAME or --expr/--vars")


def _add_algebra_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", help="builtin algebra name")
    p.add_argument("--spec", help="JSON algebra spec file")
    for key, kind in _ALGEBRA_PARAMS.items():
        p.add_argument(f"--{key}", type=kind)
    p.add_argument("--window", type=str, help="graded window lo..hi")
    p.add_argument("--transform", choices=("plus", "minus", "opposite"))


def _range_indices(args, A: Algebra, closed_use: str) -> tuple[tuple, list]:
    """--range lo..hi and the window indices inside it; on a closed algebra a
    usage error that ends with how the algebra is used instead."""
    if A.closed:
        raise UsageError(f"--range applies to graded windows; {A.name} "
                         f"is closed and {closed_use}")
    lo, hi = _parse_range(args.range)
    if lo > hi:
        raise UsageError(f"bad range {args.range!r}, lo exceeds hi")
    return (lo, hi), [i for i in A.indices if lo <= i <= hi]


def _emit(args, text_fn, json_obj) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        print(text_fn())


# -- subcommands ---------------------------------------------------------------

def cmd_algebra(args) -> int:
    spec = _read_spec(args.spec) if args.spec else None
    A = _build_algebra(args, spec)
    if args.action == "show":
        if A.closed:
            preds = A.predicates()
            fmt = lambda e: "-" if e is None else A.fmt_element(e)

            def text():
                lines = [f"algebra: {A.name} (dim {A.dim}, {A.field!r})"]
                if A.dim <= 16:
                    lines.append(A.table_text())
                lines += [f"commutative: {preds['is_commutative']}",
                          f"associative: {preds['is_associative']}",
                          f"left unit: {fmt(preds['left_unit'])}",
                          f"right unit: {fmt(preds['right_unit'])}",
                          f"unit: {fmt(preds['unit'])}"]
                return "\n".join(lines)

            payload = A.to_spec()
            payload["predicates"] = {
                k: (v if isinstance(v, bool) else fmt(v))
                for k, v in preds.items()}
            _emit(args, text, payload)
        else:
            def text():
                lines = [f"algebra: {A.name} (window {A.indices[0]}..{A.indices[-1]},"
                         f" {A.field!r})"]
                if len(A.indices) <= 16:
                    for i in A.indices:
                        for j in A.indices:
                            prod = dict(A.product(i, j))
                            lines.append(f"{A.label(i)} * {A.label(j)} = "
                                         f"{A.fmt_element(prod)}")
                return "\n".join(lines)

            _emit(args, text, {"name": A.name, "field": {"char": A.field.char},
                               "window": [A.indices[0], A.indices[-1]]})
        return 0
    return _validate_algebra(args, A, spec)


def _validate_algebra(args, A: Algebra, spec: dict | None) -> int:
    kind, params = args.builtin, vars(args)
    if spec is not None:  # the laws of the spec's own kind
        kind, params = spec.get("kind"), spec.get("params", {})
    tags = algebras.builtin_laws(kind, params)
    # plus(Novikov) is tortken, the paper's theorem; a commutative A is A^op
    if args.transform == "plus" and tags[0][0] == "novikov":
        tags = algebras.TORTKEN_LAWS
    elif args.transform and (args.transform, tags[0][0]) != ("opposite",
                                                             "commutative"):
        raise UsageError(f"algebra validate has no laws for {kind} under "
                         f"--transform {args.transform}")
    code = 0
    for tag, idents in tags:
        verdicts = {name: check_identity(catalog_entry(name).poly, A).verdict
                    for name in idents}
        failures = [name for name, v in verdicts.items() if v == FAILS]
        undecided = [name for name, v in verdicts.items() if v == INCONCLUSIVE]
        if failures:
            code = 1
            print(f"{tag}: FAIL ({', '.join(failures)})")
        elif undecided:
            code = code or 3  # a FAIL wins
            print(f"{tag}: INCONCLUSIVE ({', '.join(undecided)})")
        else:
            print(f"{tag}: OK")
    return code


def cmd_check(args) -> int:
    name, poly, excluded = _get_identity(args)
    A = _build_algebra(args)
    if A.field.char in excluded:
        raise UsageError(f"identity {name} is not applicable in "
                         f"characteristic {A.field.char}")
    if args.range:
        rng, idx = _range_indices(args, A, "is checked exhaustively")
        out = check_identity_windowed(poly, A, idx)
    else:
        rng = (A.indices[0], A.indices[-1])
        out = check_identity(poly, A)
    scope = ("exhaustive" if A.closed
             else f"range {rng[0]}..{rng[1]} (window-relative)")
    law = (out.witness_poly.format()
           if out.witness_poly not in (None, poly) else None)

    def text():
        lines = [f"identity: {name} | algebra: {A.name}",
                 f"scope: {scope}",
                 f"verdict: {out.verdict} (checked {out.checked}, "
                 f"skipped {out.skipped})"]
        if law:
            lines.append(f"law: {law}")
        if out.witness is not None:
            for v in sorted(out.witness):
                lines.append(f"  {v} = {A.fmt_element(out.witness[v])}")
            lines.append(f"  value = {A.fmt_element(out.value)}")
        return "\n".join(lines)

    payload = {"identity": name, "algebra": A.name, "scope": scope}
    payload.update(out.to_json_dict(A))
    if law:
        payload["witness_law"] = law
    _emit(args, text, payload)
    return {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 3}[out.verdict]


def cmd_idspace(args) -> int:
    if args.reference_deg4:
        if given := [f"--{key}" for key in ("degree", "range", "builtin", "spec",
                     "window", "transform", *_ALGEBRA_PARAMS)
                     if getattr(args, key, None) is not None]:
            raise UsageError(f"--reference-deg4 takes no {' '.join(given)}: it "
                             "is the fixed degree-4 reproduction")
        report, ok, text = _reference_deg4()
        payload = report.to_json_dict()
        payload["reference_verified"] = ok
        _emit(args, lambda: text, payload)
        return 0 if ok else 1
    if args.degree is None:
        raise UsageError("need --degree N or --reference-deg4")
    if not 1 <= args.degree <= 5:
        raise UsageError(f"identity spaces support degree 1..5, got {args.degree}")
    if args.basis == "balanced_first" and args.degree != 4:
        raise UsageError(f"--basis balanced_first needs --degree 4, got {args.degree}")
    A = _build_algebra(args)
    if args.range:
        _, idx = _range_indices(args, A, "uses every substitution")
    elif not A.closed:
        raise UsageError("graded identity space needs --range lo..hi")
    else:
        idx = A.indices
    if (count := len(idx) ** args.degree) > SUBSTITUTION_BUDGET:
        raise UsageError(f"{len(idx)}^{args.degree} = {count} substitutions exceed "
                         f"SUBSTITUTION_BUDGET = {SUBSTITUTION_BUDGET}")
    subs = [tuple(A.basis(i) for i in tup)
            for tup in itertools.product(idx, repeat=args.degree)]
    report = identity_space(args.degree, A, subs, order=args.basis)
    _emit(args, lambda: report.to_text(), report.to_json_dict())
    return 0 if report.substitution_count else 3


def cmd_simplicity(args) -> int:
    A = _build_algebra(args)
    if not A.closed:
        raise UsageError("simplicity certification needs a finite algebra")
    try:
        cert = idealtool.certify_simplicity(A)
    except idealtool.CannotCertifyError as exc:
        if args.format == "json":
            _emit(args, None, {"algebra": A.name, "verdict": INCONCLUSIVE,
                               "audit": [str(exc)]})
        else:
            print(f"inconclusive: {exc}", file=sys.stderr)
        return 3

    def text():
        lines = [f"algebra: {A.name}", f"verdict: {cert.verdict}"]
        if cert.witness is not None:
            lines.append(f"witness ideal dimension: {cert.witness.dim}")
            for e in cert.witness.basis_elements():
                lines.append(f"  {A.fmt_element(e)}")
        lines += [f"audit: {line}" for line in cert.audit]
        return "\n".join(lines)

    _emit(args, text, cert.to_json_dict())
    return 0 if cert.simple else 1


def _reference_deg4():
    """The degree-4 reproduction's report, audit verdict and printed text."""
    report = reference_deg4_report()
    ok = verify_reference_solutions(report)
    return report, ok, report.to_text() + f"\nreference solutions verified: {ok}"


def _reproduce_det54() -> str:
    sys3 = degree3_system()
    lines = ["degree-3 substitution system (rows (i+j+2, j+s+2, s+i+2) for"
             " (i,j,s) = (1,2,3),(2,3,1),(3,1,2)):",
             sys3.matrix.to_text(),
             f"|det| = {sys3.abs_det}",
             "char-3 system ((i,j,s) = (1,1,0),(1,0,1),(0,1,1)):",
             sys3.char3_matrix.to_text(),
             f"nonsingular over F3: {sys3.char3_nonsingular}"]
    return "\n".join(lines)


def _reproduce_counterexample() -> str:
    A = algebras.square_product(3, 0, 1, 2)
    sigma = {"a": A.basis(0), "b": A.basis(1), "c": A.basis(2), "d": A.basis(6)}
    val = evaluate(catalog_entry("tortken").poly, A, sigma)
    lines = [f"algebra: {A.name} (dim {A.dim}, F3)",
             "tortken(x^(0), x^(1), x^(2), x^(6)) = "
             f"{A.fmt_element(val)} = -x^(0) (mod 3)"]
    B = algebras.square_product(2, 0, 2, 4)
    out = check_identity(catalog_entry("tortken").poly, B)
    w = ", ".join(f"{v}={B.fmt_element(out.witness[v])}"
                  for v in sorted(out.witness))
    lines.append(f"algebra: {B.name} (dim {B.dim}, F2)")
    lines.append(f"tortken fails at {w}; value = {B.fmt_element(out.value)}")
    return "\n".join(lines)


def _reproduce_tortken_prime() -> str:
    lines = []
    for m in (1, 2):
        rel = tortken_prime_relation(m)
        lines.append(f"tortken_prime - 2*D^3(abcd) on divided_power(3,{m}): "
                     f"{rel.verdict} (checked {rel.checked})")
    A1, A2 = (algebras.derivation_symmetric(O, algebras.standard_derivation(O))
              for O in (algebras.divided_power(3, m) for m in (1, 2)))
    tp = catalog_entry("tortken_prime").poly
    lines.append(f"tortken_prime alone on (3,1): "
                 f"{check_identity(tp, A1).verdict}")
    out = check_identity(tp, A2)
    w = ", ".join(f"{v}={A2.fmt_element(out.witness[v])}"
                  for v in sorted(out.witness))
    lines.append(f"tortken_prime alone on (3,2): {out.verdict} at {w}; "
                 f"value = {A2.fmt_element(out.value)}")
    return "\n".join(lines)


def _reproduce_simplicity_table() -> str:
    pm = ((3, 1), (5, 1), (3, 2))
    cases = [(f"osborn-plus p={p} m={m} alpha={a} beta={b}",
              algebras.plus(algebras.osborn(a, b, p, m)))
             for p, m in pm for a in (0, 1, 2) for b in (0, 1)]
    cases += [(f"osborn-bar p={p} m={m} beta={b}",
               algebras.osborn_bar_finite(b, p, m)) for p, m in pm for b in (0, 1)]
    rows = []
    for label, A in cases:
        cert = idealtool.certify_simplicity(A)
        extra = (f" witness dim {cert.witness.dim}"
                 if cert.witness is not None else "")
        rows.append(f"{label}: {cert.verdict}{extra}")
    return "\n".join(rows)


def _reproduce_psi() -> str:
    lines = ["cyclic sum psi({x^i,x^j},x^s) + cyc over [-6,6]^3:"]
    bad = sum(idealtool.psi_cyclic_char0(i, j, s) != 2 * (i + j + s == 1)
              for i, j, s in itertools.product(range(-6, 7), repeat=3))
    lines.append(f"  equals 2*[i+j+s=1] everywhere: {bad == 0}")
    lines.append("char-3 values psi(x^(i), x^(9-i)) for m=2:")
    for i in range(1, 9):
        lines.append(f"  psi(x^({i}),x^({9 - i})) = "
                     f"{idealtool.psi_charp(3, 2, i, 9 - i)}")
    return "\n".join(lines)


_REPRODUCE = {
    "deg4-matrix": lambda: _reference_deg4()[2],
    "det54": _reproduce_det54,
    "counterexample": _reproduce_counterexample,
    "tortken-prime": _reproduce_tortken_prime,
    "simplicity-table": _reproduce_simplicity_table,
    "psi": _reproduce_psi,
}


def cmd_reproduce(args) -> int:
    print(_REPRODUCE[args.target]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tortken",
        description="exact computer algebra for tortken / novikov-jordan algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="show or validate an algebra")
    p_alg.add_argument("action", choices=("show", "validate"))
    _add_algebra_flags(p_alg)
    p_alg.add_argument("--format", choices=("text", "json"), default="text")
    p_alg.set_defaults(fn=cmd_algebra)

    p_chk = sub.add_parser("check", help="check an identity on an algebra")
    p_chk.add_argument("--identity", help="catalog identity name")
    p_chk.add_argument("--expr", help="identity expression")
    p_chk.add_argument("--vars", help="comma-separated variables for --expr")
    _add_algebra_flags(p_chk)
    p_chk.add_argument("--range", help="basis index range lo..hi (graded)")
    p_chk.add_argument("--format", choices=("text", "json"), default="text")
    p_chk.set_defaults(fn=cmd_check)

    p_ids = sub.add_parser("idspace", help="multilinear identity space")
    p_ids.add_argument("--reference-deg4", action="store_true",
                       help="emit the stored degree-4 reproduction")
    p_ids.add_argument("--degree", type=int)
    p_ids.add_argument("--basis", choices=("canonical", "balanced_first"),
                       default="canonical")
    _add_algebra_flags(p_ids)
    p_ids.add_argument("--range", help="substitution index range lo..hi")
    p_ids.add_argument("--format", choices=("text", "json"), default="text")
    p_ids.set_defaults(fn=cmd_idspace)

    p_simp = sub.add_parser("simplicity", help="certify simplicity")
    _add_algebra_flags(p_simp)
    p_simp.add_argument("--format", choices=("text", "json"), default="text")
    p_simp.set_defaults(fn=cmd_simplicity)

    p_rep = sub.add_parser("reproduce", help="emit golden reproductions")
    p_rep.add_argument("target", choices=sorted(_REPRODUCE))
    p_rep.set_defaults(fn=cmd_reproduce)
    return ap


def _join_ranges(argv: list) -> list:
    """argv with `--window -4..8` and `--range -1..3` joined into the one
    token `--window=-4..8`: argparse takes a separate value that starts with
    '-' and is no plain number for a flag, so both forms parse the same."""
    out = []
    for arg in argv:
        if (out and out[-1] in ("--window", "--range") and arg[:1] == "-"
                and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_ranges(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (UsageError, DegreeOutOfRangeError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
