import copy
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deg4_reference import (REFERENCE_DEG4_MATRIX, REFERENCE_DEG4_SOLUTIONS,
                            REFERENCE_MU_RELATIONS, frozen_audit)
from dense_rref import dense_mul_vec, dense_nullspace, dense_rref, rref_nullspace
from tortken import freepoly, idealtool, identcheck
from tortken.exactnum import Field, Matrix
from tortken.algebras import (FiniteAlgebra, GradedAlgebra,
                              OutOfWindowError, UnsoundWitnessError,
                              derivation_novikov,
                              derivation_symmetric,
                              divided_power, gametic, integration_product,
                              minus, opposite, osborn, osborn_laurent,
                              osborn_plus_explicit, p2_product, plus,
                              random_commutative, square_product,
                              standard_derivation, twist)
from tortken.freepoly import (FreePoly, catalog, catalog_entry,
                              multilinear_monomials, mu_vector, parse,
                              symmetry_blocks)
from tortken.identcheck import (FAILS, HOLDS, INCONCLUSIVE, check_identity,
                                check_identity_windowed, degree3_system,
                                evaluate, identity_space,
                                reference_deg4_report,
                                tortken_prime_relation,
                                verify_reference_solutions)

F3 = Field.prime(3)
F5 = Field.prime(5)

TORTKEN = catalog_entry("tortken").poly
COMM = catalog_entry("commutativity").poly


def _dsym(p, m):
    O = divided_power(p, m)
    return derivation_symmetric(O, standard_derivation(O))


def test_evaluate_examples():
    G = gametic(2)
    val = evaluate(COMM.rename_variables({"a": "a", "b": "b"}), G,
                   {"a": G.basis(0), "b": G.basis(1)})
    assert val == {1: 1, 0: -1}  # e1 e2 - e2 e1 = e2 - e1
    O = divided_power(3, 1)
    prod = FreePoly.monomial(("t1", "t2"), ("t1", "t2"))
    assert evaluate(prod, O, {"t1": O.basis(1), "t2": O.basis(1)}) == {2: 2}
    A = square_product(3, 0, 1, 2)
    sigma = {"a": A.basis(0), "b": A.basis(1), "c": A.basis(2),
             "d": A.basis(6)}
    assert evaluate(TORTKEN, A, sigma) == {0: 2}  # -x^(0) over F3
    # on a window the first product that escapes, in node order, raises
    W = integration_product(6)
    with pytest.raises(OutOfWindowError, match="leaves the window at 9") as err:
        evaluate(parse("(a*a)*b + b", ("a", "b")), W,
                 {"a": W.basis(4), "b": W.basis(1)})
    assert (err.value.index, err.value.operands) == (9, (4, 4))
    # the escape names the same pair whatever the key order of the operands
    halves = {6: Fraction(-1, 2), 1: -2}, {1: -2, 6: Fraction(-1, 2)}
    for a, b in (halves, halves[::-1]):
        with pytest.raises(OutOfWindowError,
                           match="^product of 1 and 6 leaves the window at 8$"):
            evaluate(parse("a*b", ("a", "b")), W, {"a": a, "b": b})
    # a term with a variable bound to 0 is dropped before any product: x^4
    # x^4 escapes, but its term is multiplied by b = 0
    law = parse("a + 2*((a*a)*b) + 2*((b*b)*a)", ("a", "b"))
    assert evaluate(law, W, {"a": W.basis(4), "b": {}}) == W.basis(4)
    assert evaluate(law, W, {"a": W.basis(4), "b": {5: 0}}) == W.basis(4)


def test_check_identity_verdicts():
    assert check_identity(TORTKEN, plus(osborn(1, 0, 3, 1))).verdict == HOLDS
    out = check_identity(catalog_entry("sokolov").poly, plus(osborn(1, 1, 3, 1)))
    assert out.verdict == FAILS
    # the witness re-evaluates to the stored value
    again = evaluate(out.witness_poly, plus(osborn(1, 1, 3, 1)), out.witness)
    assert again == out.value
    out = check_identity(COMM, gametic(2))
    assert out.verdict == FAILS
    assert out.value == {0: -1, 1: 1}
    # a law with no variables is the zero polynomial: one empty assignment
    out = check_identity(FreePoly([]), gametic(2))
    assert (out.verdict, out.checked, out.skipped) == (HOLDS, 1, 0)


def test_check_identity_windowed():
    I = integration_product(12)
    out = check_identity_windowed(catalog_entry("leibniz_dual_left").poly, I,
                                  range(0, 4))
    assert out.verdict == HOLDS and out.skipped == 0 and out.checked == 64
    L = osborn_laurent("1/2", 0, -8, 8, "jordan")
    out = check_identity_windowed(TORTKEN, L, range(-2, 3))
    assert out.verdict == HOLDS
    out = check_identity_windowed(TORTKEN, I, [11, 12])
    assert out.verdict == INCONCLUSIVE and out.checked == 0 and out.skipped == 16
    with pytest.raises(ValueError):
        check_identity_windowed(TORTKEN, I, [40])


@pytest.mark.parametrize("index_range, repeated", [([0, 0], [0]),
                                                    ([0, 1, 2, 2], [2]),
                                                    ([3, 1, 3, 1], [3, 1])])
def test_check_identity_windowed_rejects_repeated_indices(index_range, repeated):
    # a repeated index would sweep its basis element twice and inflate
    # checked (16 on the 1-dimensional span of [0, 0])
    with pytest.raises(ValueError, match=re.escape(f"indices {repeated} repeated")):
        check_identity_windowed(TORTKEN, integration_product(12), index_range)


def test_check_identity_on_a_window_is_window_relative():
    # a non-multilinear law over Q: its coordinate expansion skips and
    # counts the basis tuples that escape the window
    poly = parse("(a*b)*a - (a*a)*b", ("a", "b"))
    out = check_identity(poly, integration_product(6))
    assert (out.verdict, out.checked, out.skipped) == (HOLDS, 35, 308)


def test_windowed_inconclusive_when_a_polarization_part_is_never_evaluable():
    # on x^1 of the 0..6 window, (a*a)*(a*a) always escapes while the
    # commutator part evaluates once: nothing decides the degree-4 part
    poly = parse("(a*a)*(a*a) + a*b - b*a", ("a", "b"))
    out = check_identity_windowed(poly, integration_product(6), [1])
    assert (out.verdict, out.checked, out.skipped) == (INCONCLUSIVE, 1, 1)


def test_windowed_fails_where_no_point_of_the_law_evaluates():
    # on x^5 of the 0..6 window every nonzero point of a + a*a escapes in
    # a*a, but the class of c^1, its degree-1 component, is decided and
    # nonzero: the witness is that component, a, at a = x^5
    W = integration_product(6)
    out = check_identity_windowed(parse("a + a*a", ("a",)), W, [5])
    assert (out.verdict, out.checked, out.skipped) == (FAILS, 1, 1)
    assert out.witness_poly == parse("a", ("a",))
    assert out.witness == {"a": W.basis(5)} and out.value == W.basis(5)
    # a*(a*a) on x^-1, x^0 of a Laurent window: the one failing class is
    # c_(-1) c_0^2, with the undecided class of c_0^3 on its support, so
    # the witness is its linearization in a and a', at a = x^-1, a' = x^0
    L = osborn_laurent("1/2", 0, -3, 3, "jordan")
    out = check_identity_windowed(parse("a*(a*a)", ("a",)), L, [-1, 0])
    assert out.verdict == FAILS
    assert out.witness_poly == parse("a*(b*b) + b*(a*b) + b*(b*a)",
                                     ("a", "b")).rename_variables({"b": "a'"})
    assert out.witness == {"a": L.basis(-1), "a'": L.basis(0)}
    assert evaluate(out.witness_poly, L, out.witness) == out.value


@pytest.mark.parametrize("law, algebra, index_range", [
    ("a + 2*((a*a)*b) + 2*((b*b)*a)", lambda: integration_product(6), [4, 5]),
    ("a*(a*a) + b", lambda: osborn_laurent("1/2", 0, -3, 3, "jordan"), [-1, 0]),
    ("a*(a*b) - (a*a)*b", lambda: integration_product(4), [0, 1])],
    ids=["integration-zero-variable", "laurent", "integration"])
def test_expansion_witness_is_evaluated_once(monkeypatch, law, algebra,
                                             index_range):
    # the witness is evaluated only by the re-check in _check: the point of
    # the first failing class with no undecided class on its support stays
    # in the window, so _expand evaluates nothing
    calls = []
    monkeypatch.setattr(identcheck, "evaluate",
                        lambda *args: calls.append(args) or evaluate(*args))
    A, poly = algebra(), parse(law, ("a", "b"))
    out = check_identity_windowed(poly, A, index_range)
    assert out.verdict == FAILS and out.witness_poly == poly
    assert calls == [(poly, A, out.witness)]


_WINDOWS = {"integration": lambda: integration_product(6),
            "laurent": lambda: osborn_laurent("1/2", 0, -3, 3, "jordan")}


@pytest.mark.parametrize("window", sorted(_WINDOWS))
@pytest.mark.parametrize("law", [e.name for e in catalog()])
def test_check_identity_agrees_with_windowed_on_a_window(window, law):
    W = _WINDOWS[window]()
    poly = catalog_entry(law).poly
    whole = check_identity(poly, W)
    windowed = check_identity_windowed(poly, W, W.indices)
    assert _outcome_tuple(whole) == _outcome_tuple(windowed)


def test_windowed_rejects_only_escapes():
    I = integration_product(12)
    out = check_identity_windowed(TORTKEN, I, range(0, 4))
    assert out.verdict == HOLDS
    # assignments with total degree sum > 9 escape the window
    escapes = sum(1 for a in range(4) for b in range(4)
                  for c in range(4) for d in range(4) if a + b + c + d > 9)
    assert out.skipped == escapes and out.checked == 256 - escapes


def test_multilinear_reduction_consistency():
    # the exhaustive verdict agrees with dense random sampling
    import random
    for A, expected in ((plus(osborn(1, 0, 3, 1)), True),
                        (random_commutative(3, F5, seed=0), False)):
        exhaustive = check_identity(TORTKEN, A).verdict == HOLDS
        assert exhaustive is expected
        rng = random.Random(7)
        sampled = True
        for _ in range(64):
            sigma = {v: {i: rng.randrange(A.field.char) for i in range(A.dim)}
                     for v in TORTKEN.variables}
            sigma = {v: {i: c for i, c in e.items() if c}
                     for v, e in sigma.items()}
            if evaluate(TORTKEN, A, sigma):
                sampled = False
                break
        assert sampled is expected


def test_gametic_jordan_verdicts():
    # the law itself is the witness law, in char > degree and char <= degree
    gj = catalog_entry("gametic_jordan").poly
    out = check_identity(gj, plus(gametic(3)))
    assert (out.verdict, out.checked) == (HOLDS, 3 ** 4)
    for A in (osborn(1, 0, 5, 1), plus(osborn(0, 0, 3, 1))):
        out = check_identity(gj, A)
        assert out.verdict == FAILS and out.witness_poly == gj
        assert evaluate(gj, A, out.witness) == out.value


# Non-multilinear laws in <= 2 variables, where polarization is exact only
# in char > degree; ((a*a)*a)*(a*a) - a folds its exponents past p twice,
# and (a*a)*b - a*b has two multidegree components in two variables.
SMALL_CHAR_LAWS = [parse(e, v) for e, v in (
    ("a*a - a", ("a",)), ("a*a", ("a",)), ("a*(a*a) - a", ("a",)),
    ("(a*a)*a - a*(a*a)", ("a",)), ("(a*a)*(a*a) - a*a", ("a",)),
    ("(a*a)*b - a*(a*b)", ("a", "b")), ("(a*b)*a - a*(b*a)", ("a", "b")),
    ("a*b - b*a + a*a", ("a", "b")), ("((a*a)*a)*(a*a) - a", ("a",)),
    ("(a*a)*b - a*b", ("a", "b")))] + [catalog_entry("gametic_jordan").poly]


def _every_element(A):
    p = A.field.char
    return [{i: c for i, c in enumerate(cs) if c}
            for cs in itertools.product(range(p), repeat=A.dim)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(((2, 3), (3, 2), (5, 2))), st.data())
def test_check_identity_matches_brute_force_in_small_char(field, data):
    # every decided verdict equals the law on every tuple of elements, and
    # every failing witness re-evaluates to its value
    p, max_dim = field
    dim = data.draw(st.integers(1, max_dim))
    poly = data.draw(st.sampled_from(SMALL_CHAR_LAWS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    A = _random_table(Field.prime(p), dim, rng.random() < 0.5, rng)
    out = check_identity(poly, A)
    holds = all(not _oracle_value(poly, A, dict(zip(poly.variables, els)))
                for els in itertools.product(_every_element(A),
                                             repeat=len(poly.variables)))
    assert out.verdict == (HOLDS if holds else FAILS)
    if out.verdict == FAILS:
        assert out.value
        assert evaluate(out.witness_poly, A, out.witness) == out.value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((Field.rationals(), Field.prime(7))), st.data())
def test_check_identity_matches_polarization_above_the_degree(f, data):
    # in char 0 and char > degree polarization is exact: the expansion's
    # verdict is that of sweeping every polarization part on basis elements
    poly = data.draw(st.sampled_from([law for law in SMALL_CHAR_LAWS
                                      if law.degree() <= 4]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    A = _random_table(f, data.draw(st.integers(1, 3)), rng.random() < 0.5, rng)
    holds = all(identcheck._sweep(part, A, A.indices).verdict == HOLDS
                for part in freepoly.polarize(poly))
    assert check_identity(poly, A).verdict == (HOLDS if holds else FAILS)


def _boolean_algebra(dim):
    # F_2^dim with e_i e_i = e_i: every element is idempotent
    return FiniteAlgebra("boolean", Field.prime(2), dim,
                         [[{i: 1} if i == j else {} for j in range(dim)]
                          for i in range(dim)])


SQUARE = parse("a*a", ("a",))


def _square_algebra():
    # F_2^15 whose one nonzero product is e_0 e_1 = e_0
    table = [[{} for _ in range(15)] for _ in range(15)]
    table[0][1] = {0: 1}
    return FiniteAlgebra("square", Field.prime(2), 15, table)


def test_small_char_routes():
    idem = parse("a*a - a", ("a",))
    # on F_2^15 every element is idempotent: the classes of a*a and a fold
    # together (c^2 = c), 15^2 + 15 tuples
    out = check_identity(idem, _boolean_algebra(15))
    assert (out.verdict, out.checked, out.skipped) == (HOLDS, 15 ** 2 + 15, 0)
    # a*a vanishes on every basis element but not on their sum: the witness
    # is that sum, for the law itself
    out = check_identity(SQUARE, _square_algebra())
    assert out.verdict == FAILS and out.witness_poly == SQUARE
    assert out.witness == {"a": {0: 1, 1: 1}} and out.value == {0: 1}


def test_failing_witness_is_rechecked(monkeypatch):
    assert idealtool.UnsoundWitnessError is UnsoundWitnessError
    sweep = identcheck._sweep

    def wrong_value(*args):
        out = sweep(*args)
        if out.verdict == FAILS:
            out.value = {k: 2 * v for k, v in out.value.items()}
        return out
    monkeypatch.setattr(identcheck, "_sweep", wrong_value)
    with pytest.raises(UnsoundWitnessError):
        check_identity(COMM, gametic(2))


def _doubled(out):
    out.value = {k: 2 * v for k, v in out.value.items()}


def _vanishing(out):  # a zero value at a point where a*a vanishes
    out.witness, out.value = {"a": {0: 1}}, {}


@pytest.mark.parametrize("check, corrupt", [
    (lambda: check_identity(SQUARE, _square_algebra()), _vanishing),
    (lambda: check_identity(parse("a*a - a", ("a",)), gametic(2)), _doubled),
    (lambda: check_identity_windowed(parse("a + a*a", ("a",)),
                                     integration_product(6), [5]), _doubled)],
    ids=["F2-zero", "Q", "window-component"])
def test_expansion_witness_is_rechecked(monkeypatch, check, corrupt):
    # a failure of a law that is not multilinear whose witness does not
    # re-evaluate to its value, or whose value is 0, is refused
    expand = identcheck._expand

    def wrong(*args):
        out = expand(*args)
        assert out.verdict == FAILS
        corrupt(out)
        return out
    monkeypatch.setattr(identcheck, "_expand", wrong)
    with pytest.raises(UnsoundWitnessError):
        check()


def test_identity_space_reference():
    rep = reference_deg4_report()
    assert [[int(x) for x in row] for row in rep.matrix.data] == \
        [list(r) for r in REFERENCE_DEG4_MATRIX]
    assert rep.rank == 10
    assert rep.nullity == 5
    assert verify_reference_solutions(rep)
    assert rep.flags["tortken"] and rep.flags["alt_right_mult"]
    assert not rep.flags["sokolov"]


def test_laurent_identity_space_over_q_matches_dense_reference():
    # the degree-4 space of the benchmark's Laurent job, on the rational
    # kernel, against the plain-Fraction elimination of its own matrix
    L = osborn_laurent(Fraction(1, 2), 0, -6, 6, "jordan")
    subs = [tuple(L.basis(i) for i in t)
            for t in itertools.product(range(-2, 3), repeat=4)]
    rep = identity_space(4, L, subs)
    assert (rep.rank, rep.nullity) == (10, 5)
    assert rep.nullspace == dense_nullspace(L.field, rep.matrix.data,
                                            rep.matrix.cols)
    assert all(type(x) is Fraction for v in rep.nullspace for x in v)
    assert rep.flags == {
        "tortken": True, "tortken_left": True, "tortken_prime": False,
        "assoc_jordan_deg4": False, "alt_right_mult": True,
        "cyclic_assoc_middle": True, "cyclic_assoc_outer": True,
        "sokolov": False, "deg4_basis_1": True, "deg4_basis_2": True,
        "deg4_basis_3": True, "deg4_basis_4": True, "deg4_basis_5": True}


def test_identity_space_row_one_sanity():
    # ((x*x)*x)*1 = 4 under the derivation product: column 4 of row 1
    rep = reference_deg4_report()
    assert rep.matrix.data[0][3] == 4


def test_verify_rejects_perturbation():
    rep = reference_deg4_report()
    rep.matrix.data[0][0] += 1
    assert not verify_reference_solutions(rep)


def _audit_cases(rep):
    """The report, then copies with the matrix perturbed, a nullspace vector
    moved outside the kernel, and a nullspace vector dropped, each with the
    verdict the frozen-table audit gave it."""
    f = rep.matrix.field
    cases = [(rep, True)]
    bumped = copy.deepcopy(rep)
    bumped.matrix.data[0][0] = f.coerce(bumped.matrix.data[0][0] + 1)
    cases.append((bumped, False))
    moved = copy.deepcopy(rep)  # plus e_0, which is no identity
    moved.nullspace[0][0] = f.coerce(moved.nullspace[0][0] + 1)
    cases.append((moved, False))
    dropped = copy.deepcopy(rep)
    dropped.nullspace.pop()
    cases.append((dropped, False))
    return cases


def _osborn_plus_deg4_report(p):
    A = plus(osborn(1, 1, p, 1))
    return identity_space(4, A, [tuple(A.basis(i) for i in t) for t in
                                 itertools.product(A.indices, repeat=4)],
                          "balanced_first")


@pytest.mark.parametrize("make", [reference_deg4_report,
                                  lambda: _osborn_plus_deg4_report(3),
                                  lambda: _osborn_plus_deg4_report(5)],
                         ids=["reference", "osborn_plus_F3", "osborn_plus_F5"])
def test_verify_gives_the_frozen_audit_verdict(make):
    # the audit on the catalog laws answers as the audit on the frozen
    # solutions and coordinate relations did, which now live in the tests;
    # over F_p the law vectors are coerced before they meet the echelon
    for rep, want in _audit_cases(make()):
        assert frozen_audit(rep) is want
        assert verify_reference_solutions(rep) is want


def test_verify_reads_the_laws_in_the_report_order():
    # a canonical-order report of the reference algebra has the same kernel
    # in other coordinates; the frozen tables, in balanced_first coordinates,
    # could not audit it
    A = identcheck.reference_deg4_algebra()
    rep = identity_space(4, A, [tuple(A.basis(i) for i in s) for s in
                                identcheck.REFERENCE_DEG4_SUBSTITUTIONS])
    assert rep.order == "canonical" and rep.nullity == 5
    assert verify_reference_solutions(rep)
    assert not frozen_audit(rep)
    with pytest.raises(identcheck.ReportMismatchError):
        verify_reference_solutions(identity_space(3, A, []))
    # the monomials must be those of the report's order, whose cached law
    # vectors the audit reads
    rep.monomials.reverse()
    with pytest.raises(identcheck.ReportMismatchError, match="of its order"):
        verify_reference_solutions(rep)


def test_frozen_deg4_tables_agree_with_the_catalog_laws():
    # the solutions and the coordinate relations moved into the tests
    # describe the kernel spanned by deg4_basis_1..5, over Q and every F_p
    laws = [mu_vector(catalog_entry(f"deg4_basis_{i}").poly,
                      multilinear_monomials(4, "balanced_first"))
            for i in range(1, 6)]
    sols = [list(v) for v in REFERENCE_DEG4_SOLUTIONS]
    free = (8, 11, 12, 13, 14)
    for f in (Field.rationals(), Field.prime(2), F3, F5):
        assert Matrix(f, laws).rank() == Matrix(f, sols).rank() == 5
        assert Matrix(f, laws + sols).rank() == 5
    # one unimodular block on the free coordinates: independent mod every p
    assert abs(Matrix(Field.rationals(),
                      [[v[c] for c in free] for v in laws]).det()) == 1
    for v in sols + laws:
        for dep, combo in REFERENCE_MU_RELATIONS.items():
            assert v[dep] == sum(sign * v[c] for c, sign in combo)
    assert sorted(set(range(15)) - set(REFERENCE_MU_RELATIONS)) == list(free)


def test_identity_space_nullspace_consistency():
    A = plus(osborn(0, 0, 3, 2))
    subs = [tuple(A.basis(i) for i in t)
            for t in __import__("itertools").product(range(A.dim), repeat=3)]
    rep = identity_space(3, A, subs)
    # degree-3 space of this commutative algebra is only commutativity
    assert rep.rank == 3 and rep.nullity == 0


def test_degree3_system():
    sys3 = degree3_system()
    assert sys3.abs_det == 54
    assert [[int(x) for x in row] for row in sys3.matrix.data] == \
        [[5, 7, 6], [7, 6, 5], [6, 5, 7]]
    assert sys3.char3_nonsingular


def test_tortken_prime():
    assert tortken_prime_relation(1).verdict == HOLDS
    assert tortken_prime_relation(2).verdict == HOLDS
    tp = catalog_entry("tortken_prime").poly
    assert check_identity(tp, _dsym(3, 1)).verdict == HOLDS
    out = check_identity(tp, _dsym(3, 2))
    assert out.verdict == FAILS
    # the witness shows a nonzero third derivative of the fourfold product
    assert evaluate(tp, _dsym(3, 2), out.witness) == out.value


def _relation_sides(O, D, tuples):
    """Per tuple of basis indices, the two sides of the tortken_prime
    relation, each by one `evaluate`: tortken_prime on a*b = D(ab), and
    2 D^3((ab)(cd)) in O, with D^3 the shift x^(k) -> x^(k-3)."""
    A = derivation_symmetric(O, D)
    entry = catalog_entry("tortken_prime")
    v = entry.variables
    quad = FreePoly.monomial(((v[0], v[1]), (v[2], v[3])), v)
    for t in tuples:
        lhs = evaluate(entry.poly, A, {x: A.basis(i) for x, i in zip(v, t)})
        ref = evaluate(quad, O, {x: O.basis(i) for x, i in zip(v, t)})
        yield t, lhs, O.field.canonical({k - 3: 2 * c for k, c in ref.items()
                                         if k >= 3})


def test_tortken_prime_relation_matches_evaluate():
    # every basis tuple at m = 1 and a seeded sample at m = 2, both sides on
    # the one-binding path; the sweep holds on both (test_tortken_prime)
    rng = random.Random(29)
    for m, tuples in ((1, itertools.product(range(3), repeat=4)),
                      (2, [tuple(rng.randrange(9) for _ in range(4))
                           for _ in range(300)])):
        O = divided_power(3, m)
        for t, lhs, rhs in _relation_sides(O, standard_derivation(O), tuples):
            assert lhs == rhs, t


def test_tortken_prime_relation_fails_under_a_doubled_derivation(monkeypatch):
    # 2D is a derivation too, so derivation_symmetric takes it; the relation
    # still holds at m = 1 and fails at m = 2 on the lex-least tuple of a
    # brute-force scan, with `checked` its rank
    def doubled(O):
        D = standard_derivation(O)
        return lambda i: {k: 2 * c for k, c in D(i).items()}

    monkeypatch.setattr(identcheck, "standard_derivation", doubled)
    assert tortken_prime_relation(1).verdict == HOLDS
    out = tortken_prime_relation(2)
    O = divided_power(3, 2)
    x0, x3 = O.basis(0), O.basis(3)
    assert (out.verdict, out.checked, out.skipped) == (FAILS, 4, 0)
    assert out.witness == {"a": x0, "b": x0, "c": x0, "d": x3}
    assert out.value == {0: 2}  # 2 x^(0)
    scan = _relation_sides(O, doubled(O), itertools.product(range(9), repeat=4))
    rank, (t, lhs, rhs) = next((r, s) for r, s in enumerate(scan, 1) if s[1] != s[2])
    assert (rank, t) == (4, (0, 0, 0, 3))
    assert O.field.canonical({k: lhs.get(k, 0) - rhs.get(k, 0)
                              for k in lhs.keys() | rhs.keys()}) == out.value


def _derive(element):
    """D on the free commutative associative algebra with a derivation D: a
    multilinear monomial is the order of D on each letter, as sorted (letter,
    order) pairs, and an element is a dict from monomials to coefficients."""
    out = {}
    for mono, c in element.items():
        for i, (v, k) in enumerate(mono):
            key = mono[:i] + ((v, k + 1),) + mono[i + 1:]
            out[key] = out.get(key, 0) + c
    return out


def _free_value(tree):
    """A product tree's value in that free model under a*b = D(ab)."""
    if isinstance(tree, str):
        return {((tree, 0),): 1}
    left, right = _free_value(tree[0]), _free_value(tree[1])
    return _derive({tuple(sorted(m1 + m2)): c1 * c2
                    for m1, c1 in left.items() for m2, c2 in right.items()})


def _free_law(name):
    total = {}
    for tree, c in catalog_entry(name).poly.terms.items():
        for mono, k in _free_value(tree).items():
            total[mono] = total.get(mono, 0) + c * k
    return {mono: c for mono, c in total.items() if c}


def test_tortken_prime_relation_holds_in_the_free_model():
    # in the free differential algebra, tortken_prime under a*b = D(ab) is
    # 2 D^3((ab)(cd)) exactly over Z, so the relation holds on divided_power(3, m)
    # for every m, not only the swept m = 1, 2
    abcd = {tuple((v, 0) for v in "abcd"): 1}
    want = {mono: 2 * c for mono, c in _derive(_derive(_derive(abcd))).items()}
    assert len(want) == 20 and _free_law("tortken_prime") == want
    # controls: tortken vanishes in the model; tortken_prime alone does not, as
    # 2 D^3 of one letter times the others survives mod 3
    assert _free_law("tortken") == {}
    assert sorted(mono for mono, c in want.items() if c % 3) == sorted(
        tuple((v, 3 * (v == w)) for v in "abcd") for w in "abcd")


@pytest.mark.parametrize("m, checked, tuple_, value", [
    (1, 6, (0, 0, 1, 2), {0: 1}), (2, 4, (0, 0, 0, 3), {0: 2})])
def test_tortken_prime_relation_failure_is_reverified(monkeypatch, m, checked,
                                                      tuple_, value):
    # with another degree-4 law in tortken_prime's place the relation fails:
    # value is the difference of the two sides at the lex-least failing
    # tuple, as evaluate gives them, and no one law is falsified
    monkeypatch.setattr(identcheck, "catalog_entry", lambda name: catalog_entry(
        "assoc_jordan_deg4" if name == "tortken_prime" else name))
    out = tortken_prime_relation(m)
    assert (out.verdict, out.checked, out.skipped, out.orbits) == (
        FAILS, checked, 0, checked)
    O = divided_power(3, m)
    assert out.witness == {x: O.basis(i) for x, i in zip("abcd", tuple_)}
    assert out.witness_poly is None and out.value == value
    law = evaluate(catalog_entry("assoc_jordan_deg4").poly, _dsym(3, m),
                   out.witness)
    (_, _, rhs), = _relation_sides(O, standard_derivation(O), [tuple_])
    assert O.field.canonical({k: law.get(k, 0) - rhs.get(k, 0)
                              for k in law.keys() | rhs.keys()}) == value
    # a re-verification that disagrees with the sweep is refused
    monkeypatch.setattr(identcheck, "evaluate", lambda poly, A, w: {
        k: 2 * c for k, c in evaluate(poly, A, w).items()})
    with pytest.raises(UnsoundWitnessError, match="tortken_prime relation"):
        tortken_prime_relation(m)


def operator_identity_check(A, a1: dict, a2: dict, a3: dict) -> bool:
    """Whether the alternating sum of composed right multiplications
    r_{s(1)} r_{s(2)} r_{s(3)} over Sym_3 vanishes as an operator (an oracle
    for alt_right_mult that multiplies matrices instead of evaluating)."""
    f = A.field
    n = A.dim

    def rmat(a):
        cols = [A.dense(A.mul(A.basis(j), a)) for j in range(n)]
        return [[cols[j][k] for j in range(n)] for k in range(n)]

    def matmul(x, y):
        return [[sum_field(f, (f.mul(x[i][t], y[t][j]) for t in range(n)))
                 for j in range(n)] for i in range(n)]

    mats = [rmat(a1), rmat(a2), rmat(a3)]
    total = [[f.zero] * n for _ in range(n)]
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm)
        # (b) r_x r_y r_z applies r_x first: as a matrix that is M_z M_y M_x
        m = matmul(mats[perm[2]], matmul(mats[perm[1]], mats[perm[0]]))
        for i in range(n):
            for j in range(n):
                term = m[i][j] if sign > 0 else f.neg(m[i][j])
                total[i][j] = f.add(total[i][j], term)
    return all(f.is_zero(total[i][j]) for i in range(n) for j in range(n))


def sum_field(f: Field, items) -> object:
    acc = f.zero
    for x in items:
        acc = f.add(acc, x)
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_operator_identity_check():
    A = osborn(1, 0, 3, 1)
    assert all(operator_identity_check(A, A.basis(i), A.basis(j), A.basis(k))
               for i in range(3) for j in range(3) for k in range(3))
    B = plus(osborn(0, 0, 3, 2))
    triples = [(0, 1, 2), (1, 2, 3), (2, 5, 8), (0, 4, 7)]
    assert all(operator_identity_check(B, B.basis(i), B.basis(j), B.basis(k))
               for i, j, k in triples)
    R = random_commutative(3, F5, seed=1)
    found_nonzero = any(
        not operator_identity_check(R, R.basis(i), R.basis(j), R.basis(k))
        for i in range(3) for j in range(3) for k in range(3))
    assert found_nonzero


def test_twisted_algebra_satisfies_alternating_sum():
    import random
    A = osborn(1, 0, 5, 1)
    alt = catalog_entry("alt_right_mult").poly
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        images = [{i: rng.randrange(5) for i in range(5)} for _ in range(5)]
        images = [{i: c for i, c in e.items() if c} for e in images]
        T = twist(A, images)
        assert check_identity(alt, T).verdict == HOLDS


def test_lie_functor():
    A = derivation_novikov(divided_power(5, 1),
                           standard_derivation(divided_power(5, 1)))
    L = minus(A)
    assert check_identity(catalog_entry("jacobi").poly, L).verdict == HOLDS
    assert check_identity(catalog_entry("anticommutativity").poly, L).verdict \
        == HOLDS


def test_novikov_constructors_satisfy_defining_identities():
    rs = catalog_entry("right_symmetric").poly
    lc = catalog_entry("left_commutative").poly
    for A in (derivation_novikov(divided_power(3, 1),
                                 standard_derivation(divided_power(3, 1))),
              osborn(1, 1, 3, 1), osborn(1, 0, 5, 1), gametic(3)):
        assert check_identity(rs, A).verdict == HOLDS
        assert check_identity(lc, A).verdict == HOLDS


def test_leibniz_dual_implies_tortken_windowed():
    I = integration_product(12)
    for name in ("leibniz_dual_left", "right_commutative", "tortken"):
        assert check_identity_windowed(catalog_entry(name).poly, I,
                                       range(0, 4)).verdict == HOLDS
    out = check_identity_windowed(COMM, I, range(0, 4))
    assert out.verdict == FAILS
    # opposite of a right tortken algebra is left tortken
    out = check_identity_windowed(catalog_entry("tortken_left").poly,
                                  opposite(I), range(0, 4))
    assert out.verdict == HOLDS


def test_unit_theorem_instances():
    # tortken algebras with a unit are associative and commutative
    zoo = [divided_power(3, 1), divided_power(3, 2), divided_power(5, 1)]
    for A in zoo:
        if check_identity(TORTKEN, A).verdict == HOLDS:
            preds = A.predicates()
            if preds["unit"] is not None:
                assert preds["is_associative"] and preds["is_commutative"]
    # right-unit-only tortken algebra satisfies the right unit law
    G = opposite(gametic(3))
    assert check_identity(TORTKEN, G).verdict == HOLDS
    preds = G.predicates()
    assert preds["has_right_unit"] and not preds["has_left_unit"]
    assert check_identity(catalog_entry("right_unit_law").poly, G).verdict \
        == HOLDS
    # gametic itself fails tortken, so the left-unit clause does not apply
    assert check_identity(TORTKEN, gametic(3)).verdict == FAILS
    assert not gametic(3).is_commutative()


DEG5_ALWAYS = ("alt_right_mult", "cyclic_assoc_middle", "cyclic_assoc_outer",
               "deg5_i", "deg5_iii", "deg5_iv")
DEG5_NOT3 = ("deg5_ii", "cyclic_assoc_nested")


@pytest.mark.parametrize("make,char", [
    (lambda: plus(osborn(0, 0, 3, 1)), 3),
    (lambda: plus(osborn(1, 1, 5, 1)), 5),
    (lambda: square_product(5, 0, 0, 1), 5),
    (lambda: p2_product(1, 3), 2),
    (lambda: plus(gametic(3)), 0),
])
def test_deg5_consequences_small(make, char):
    A = make()
    for name in DEG5_ALWAYS:
        assert check_identity(catalog_entry(name).poly, A).verdict == HOLDS, name
    if char not in (2, 3):
        for name in DEG5_NOT3:
            assert check_identity(catalog_entry(name).poly, A).verdict == \
                HOLDS, name


def test_degree5_identity_space_report():
    # degree-5 space of the smallest derivation jordan product: dimensions are
    # engine-derived regression pins; every holding degree-5 catalog identity
    # must lie in the kernel
    import itertools
    A = plus(osborn(0, 0, 3, 1))
    subs = [tuple(A.basis(i) for i in t)
            for t in itertools.product(range(3), repeat=5)]
    rep = identity_space(5, A, subs)
    assert (rep.matrix.cols, rep.rank, rep.nullity) == (105, 26, 79)
    f = A.field
    for entry in catalog():
        if entry.degree != 5 or len(entry.variables) != 5:
            continue
        if check_identity(entry.poly, A).verdict == HOLDS:
            from tortken.freepoly import mu_vector
            vec = [f.coerce(c) for c in mu_vector(entry.poly, rep.monomials)]
            assert all(f.is_zero(x) for x in rep.matrix.mul_vec(vec)), entry.name


def test_degree5_identity_space_matches_dense_elimination():
    # the workload's own shape: all 5^5 basis substitutions of a dim-5 F_5
    # Jordan algebra, 105 columns; the kernel's rank and nullspace must be
    # those of the dense reference elimination of the same matrix (its
    # distinct rows, which span the same row space)
    A = plus(osborn(1, 1, 5, 1))
    subs = list(itertools.product([A.basis(i) for i in A.indices], repeat=5))
    rep = identity_space(5, A, subs)
    rows = list(map(list, dict.fromkeys(map(tuple, rep.matrix.data))))
    assert (rep.matrix.cols, rep.rank, rep.nullity) == (105, 35, 70)
    R, rank, pivots = dense_rref(A.field, rows)
    assert rank == rep.rank
    assert rep.nullspace == rref_nullspace(A.field, R, pivots, 105)


def test_seeded_random_commutative_fails_tortken_with_witness():
    R = random_commutative(3, F5, seed=0)
    out = check_identity(TORTKEN, R)
    assert out.verdict == FAILS
    assert evaluate(TORTKEN, R, out.witness) == out.value


def test_outcome_json():
    out = check_identity(COMM, gametic(2))
    d = out.to_json_dict(gametic(2))
    assert d["verdict"] == FAILS and "witness" in d


# -- the compiled evaluator against a naive one ----------------------------------
#
# The oracle evaluates every term tree recursively on each full assignment, in
# itertools.product order, and counts one skip per assignment that escapes.

def _oracle_value(poly, A, els):
    def ev(tree):
        if isinstance(tree, str):
            return els[tree]
        return A.mul(ev(tree[0]), ev(tree[1]))

    f = A.field
    acc = {}
    for tree, coef in poly.terms.items():
        for k, v in ev(tree).items():
            acc[k] = f.add(acc.get(k, f.zero), f.mul(f.coerce(coef), v))
    return {k: v for k, v in acc.items() if not f.is_zero(v)}


def _oracle_sweep(poly, A, indices):
    checked = skipped = 0
    for assign in itertools.product(indices, repeat=len(poly.variables)):
        els = {v: A.basis(i) for v, i in zip(poly.variables, assign)}
        try:
            val = _oracle_value(poly, A, els)
        except OutOfWindowError:
            skipped += 1
            continue
        checked += 1
        if val:
            return FAILS, checked, skipped, els, val
    return HOLDS if checked else INCONCLUSIVE, checked, skipped, None, None


def _oracle_rows(degree, A, substitutions, order="canonical"):
    f = A.field
    variables = [f"t{i + 1}" for i in range(degree)]
    monos = [FreePoly.monomial(m, variables)
             for m in multilinear_monomials(degree, order)]
    rows, used, skipped = [], 0, 0
    for sub in substitutions:
        els = dict(zip(variables, sub))
        try:
            evals = [_oracle_value(m, A, els) for m in monos]
        except OutOfWindowError:
            skipped += 1
            continue
        used += 1
        support = sorted(set().union(*evals))
        rows += ([[e.get(k, f.zero) for e in evals] for k in support]
                 or [[f.zero] * len(monos)])
    return rows, used, skipped


def _outcome_tuple(out):
    return out.verdict, out.checked, out.skipped, out.witness, out.value


def _random_table(f, dim, commutative, rng, dens=(1, 2)):
    def scalar():
        if f.char:
            return rng.randrange(f.char)
        return Fraction(rng.randint(-3, 3), rng.choice(dens))

    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i if commutative else 0, dim):
            for k in range(dim):
                if rng.random() < 0.4 and (c := scalar()):
                    table[i][j][k] = c
            if commutative:
                table[j][i] = table[i][j]
    return FiniteAlgebra("random", f, dim, table)


SWEEP_LAWS = [e.name for e in catalog()
              if 3 <= e.degree <= 5 and e.poly.is_multilinear()]
SMALL_FIELDS = (Field.prime(2), F3, Field.rationals())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 4), st.booleans(),
       st.sampled_from(SWEEP_LAWS), st.integers(0, 2**32))
def test_sweep_matches_naive_oracle(f, dim, commutative, law, seed):
    A = _random_table(f, dim, commutative, random.Random(seed))
    poly = catalog_entry(law).poly
    out = identcheck._sweep(poly, A, range(dim))
    assert _outcome_tuple(out) == _oracle_sweep(poly, A, range(dim))


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(-4, 2), st.integers(1, 3),
       st.sampled_from(SWEEP_LAWS))
def test_windowed_sweep_matches_naive_oracle(laurent, start, width, law):
    # windows -4..4 and 0..6: most assignments of degree 4 and 5 escape
    if laurent:
        A = osborn_laurent(Fraction(1, 2), 0, -4, 4, "jordan")
    else:
        A = integration_product(6)
        start = abs(start)
    idx = range(start, start + width)
    poly = catalog_entry(law).poly
    out = check_identity_windowed(poly, A, idx)
    assert _outcome_tuple(out) == _oracle_sweep(poly, A, idx)


def _random_window(f, dim, commutative, escapes, rng, dens=(1, 2)):
    """A random table on the indices 10..10+dim-1; with `escapes`, some
    products also name index 99, outside the window."""
    T = _random_table(f, dim, commutative, rng, dens)
    out = {(i, j) for i in range(dim) for j in range(dim)
           if escapes and rng.random() < 0.2}
    if commutative:
        out |= {(j, i) for i, j in out}

    def rule(i, j):
        return ([(k + 10, c) for k, c in T.product(i - 10, j - 10)]
                + ([(99, 1)] if (i - 10, j - 10) in out else []))
    return GradedAlgebra("random", f, range(10, 10 + dim), rule)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 4), st.booleans(),
       st.booleans(), st.sampled_from(SWEEP_LAWS + ["commutativity"]),
       st.integers(0, 2**32))
def test_reduced_sweep_matches_naive_oracle(f, dim, commutative, escapes, law,
                                            seed):
    # The index list is a shuffled subset of 10..: lex order, the orbit
    # representatives and the witness rank all go by list position.  A
    # window with escapes is swept in full; a closed one by orbits.
    rng = random.Random(seed)
    A = _random_window(f, dim, commutative, escapes, rng)
    idx = rng.sample(A.indices, rng.randint(1, dim))
    poly = catalog_entry(law).poly
    out = identcheck._sweep(poly, A, idx)
    assert _outcome_tuple(out) == _oracle_sweep(poly, A, idx)


def test_sweep_visits_one_assignment_per_orbit():
    # tortken on a commutative algebra: blocks {a, c} and {b, d}, so a dim-3
    # sweep evaluates one assignment per pair of 2-multisets, 6 * 6 of 81
    A = plus(osborn(1, 1, 3, 1))
    out = check_identity(TORTKEN, A)
    assert (out.verdict, out.checked, out.skipped) == (HOLDS, 81, 0)
    assert out.orbits == 36


def _quotient_ring(f, coeffs):
    """F_p[x]/(x^d - sum_k coeffs[k] x^k) on the basis 1, x, .., x^(d-1): a
    commutative associative table, where every multilinear law whose
    coefficients sum to 0 holds."""
    d, p = len(coeffs), f.char
    powers = [{i: 1} for i in range(d)]
    for _ in range(d - 1):  # x^d .. x^(2d-2)
        nxt = {}
        for k, c in powers[-1].items():
            for j, cj in ([(k + 1, 1)] if k + 1 < d else enumerate(coeffs)):
                nxt[j] = nxt.get(j, 0) + c * cj
        powers.append({k: v % p for k, v in nxt.items() if v % p})
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    return FiniteAlgebra("quotient", f, d, table)


COMMUTATIVE_ASSOCIATIVE_LAWS = [
    e.name for e in catalog() if e.poly.is_multilinear()
    and 2 <= e.degree <= 5 and sum(e.poly.terms.values()) == 0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((Field.prime(2), F3, F5)), st.integers(1, 4),
       st.sampled_from(COMMUTATIVE_ASSOCIATIVE_LAWS), st.booleans(),
       st.integers(0, 2**32))
def test_orbit_count_is_the_number_of_block_multisets(f, dim, law, windowed,
                                                      seed):
    # closed: one evaluated assignment per multiset of values on each
    # symmetry block; a window is swept in full, so orbits == checked
    rng = random.Random(seed)
    poly = catalog_entry(law).poly
    if windowed:
        A = osborn_laurent(1, 0, -3, 3, "jordan")
        start = rng.randint(-3, 3 - dim + 1)
        out = check_identity_windowed(poly, A, range(start, start + dim))
        assert out.orbits == out.checked
        return
    A = _quotient_ring(f, [rng.randrange(f.char) for _ in range(dim)])
    out = check_identity(poly, A)
    assert out.verdict == HOLDS
    blocks = [b for b in symmetry_blocks(poly, A.is_commutative())
              if len(b) > 1]
    free = len(poly.variables) - sum(map(len, blocks))
    want = dim ** free
    for b in blocks:
        want *= math.comb(dim + len(b) - 1, len(b))
    assert out.orbits == want


def test_each_operand_pair_is_multiplied_once(monkeypatch):
    # one product cache per call: no pair of operand values reaches `mul`
    # twice, an escaping pair included; the Q window multiplies on its
    # integral table, an algebra of its class, so its pairs are traced there
    pairs = []

    def trace(cls):
        mul = cls.mul

        def traced(self, a, b):
            pairs.append((id(self), frozenset(a.items()), frozenset(b.items())))
            return mul(self, a, b)
        monkeypatch.setattr(cls, "mul", traced)

    made = identcheck.derivation_symmetric

    def built(O, D):  # tortken_prime_relation's set-up multiplies too
        A = made(O, D)
        pairs.clear()
        return A

    A = plus(osborn(1, 1, 3, 2))
    B = plus(osborn(1, 1, 5, 1))
    L = osborn_laurent(1, 0, -3, 3, "jordan")
    for cls in (FiniteAlgebra, GradedAlgebra):
        trace(cls)
    monkeypatch.setattr(identcheck, "derivation_symmetric", built)
    calls = [lambda: check_identity(TORTKEN, A),
             lambda: check_identity_windowed(TORTKEN, L, range(-2, 3)),
             lambda: tortken_prime_relation(1),
             lambda: tortken_prime_relation(2)]
    for degree in (4, 5):
        subs = [tuple(B.basis(i) for i in t)
                for t in itertools.product(range(B.dim), repeat=degree)]
        calls.append(lambda d=degree, s=subs: identity_space(d, B, s))
    outs = []
    for call in calls:
        pairs.clear()
        outs.append(call())
        assert pairs and len(set(pairs)) == len(pairs)
    assert outs[1].skipped > 0  # the window's escapes were met


def test_law_whose_terms_cancel():
    # no terms, two variables: nothing is multiplied, every assignment holds
    zero = parse("a*b - a*b", ("a", "b"))
    assert not zero.terms
    out = check_identity(zero, plus(osborn(1, 1, 3, 1)))
    assert (out.verdict, out.checked, out.skipped, out.orbits) == (HOLDS, 9, 0, 6)
    L = osborn_laurent(1, 0, -3, 3, "jordan")
    out = check_identity_windowed(zero, L, range(-2, 3))
    assert (out.verdict, out.checked, out.skipped, out.orbits) == (HOLDS, 25, 0, 25)
    # every substitution escapes: nothing constrains the kernel
    subs = [(L.basis(3),) * 4, (L.basis(-3), L.basis(-3), L.basis(3), L.basis(2))]
    rep = identity_space(4, L, subs)
    assert (rep.substitution_count, rep.skipped, rep.rank) == (0, 2, 0)
    assert rep.nullity == 15
    assert rep.flags and all(v is None for v in rep.flags.values())


# The last variable is swept as a vector over the whole element list, so the
# cases below use lists longer than the dim <= 4 tables above, laws whose
# terms do not all hold the last variable, and windows whose only escapes
# are in products that hold it.

def _oracle_orbits(poly, A, count, checked):
    """How many of the first `checked` assignments (in lex order, of `count`
    list positions) bind every symmetry block in non-decreasing order."""
    blocks = symmetry_blocks(poly, A.is_commutative()) if A.closed else []
    assigns = itertools.product(range(count), repeat=len(poly.variables))
    return sum(all(t[i] <= t[j] for b in blocks for i, j in zip(b, b[1:]))
               for t in itertools.islice(assigns, checked))


LONG_VECTOR_LAWS = [e.name for e in catalog()
                    if e.poly.is_multilinear() and 2 <= e.degree <= 4]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(5, 7), st.booleans(),
       st.sampled_from(LONG_VECTOR_LAWS), st.integers(0, 2**32))
def test_sweep_of_long_lists_matches_naive_oracle(f, dim, associative, law,
                                                  seed):
    # a random table, or over F_p a commutative associative one on which
    # every law whose coefficients sum to 0 holds, so all orbits are swept
    rng = random.Random(seed)
    if associative and f.char:
        A = _quotient_ring(f, [rng.randrange(f.char) for _ in range(dim)])
    else:
        A = _random_table(f, dim, rng.random() < 0.5, rng)
    poly = catalog_entry(law).poly
    out = identcheck._sweep(poly, A, range(dim))
    want = _oracle_sweep(poly, A, range(dim))
    assert _outcome_tuple(out) == want
    assert out.orbits == _oracle_orbits(poly, A, dim, want[1])


PARTIAL_LAWS = [parse(e, v) for e, v in (
    ("a*a - a", ("a",)), ("(a*a)*a", ("a",)), ("a*a + a*b", ("a", "b")),
    ("a*b - b*a + a*a", ("a", "b")), ("(a*a)*b - a*(a*b)", ("a", "b")),
    ("a*a", ("a", "b")))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 3),
       st.sampled_from(PARTIAL_LAWS), st.integers(0, 2**32))
def test_sweep_of_partial_laws_matches_naive_oracle(f, dim, poly, seed):
    # one-variable laws and laws with a term that lacks the last variable
    # (or with no term that has it); over Q their terms' degrees differ
    rng = random.Random(seed)
    A = _random_table(f, dim, rng.random() < 0.5, rng)
    out = identcheck._sweep(poly, A, range(dim))
    want = _oracle_sweep(poly, A, range(dim))
    assert _outcome_tuple(out) == want
    assert out.orbits == _oracle_orbits(poly, A, dim, want[1])


LAST_ONLY_LAWS = [parse(e, ("a", "b", "c")) for e in (
    "a*(b*c) - b*(a*c)", "(a*c)*(b*c)", "c*(a*c) + (b*c)*c")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 4), st.booleans(),
       st.sampled_from(LAST_ONLY_LAWS), st.integers(0, 2**32))
def test_window_with_escapes_only_at_the_last_position(f, dim, commutative,
                                                       poly, seed):
    # every product of these laws holds c, the last variable, so each
    # escape is met in a vector, and a zero entry against an escaped one
    # (at (a*c)*(b*c)) must still skip the assignment; a window that no
    # product leaves is closed and swept by orbits
    rng = random.Random(seed)
    A = _random_window(f, dim, commutative, True, rng)
    idx = rng.sample(A.indices, rng.randint(1, dim))
    out = identcheck._sweep(poly, A, idx)
    want = _oracle_sweep(poly, A, idx)
    assert _outcome_tuple(out) == want
    assert out.orbits == _oracle_orbits(poly, A, len(idx), want[1])


# Over Q the sweep runs on D*A in ints.  The cases below are where a
# fixed-width int would overflow or a scale that ignored the terms' degrees
# would be wrong: a large D, fractional law coefficients and terms of
# several degrees.

def test_integral_table_scale():
    # D clears every product of the table, escaped ones included
    D = lambda A: identcheck._integral(A)[1]
    assert D(integration_product(12)) == 360360
    assert D(integration_product(30)) == math.lcm(*range(1, 32)) > 2 ** 45
    assert D(osborn_laurent(Fraction(1, 2), 0, -6, 8, "novikov")) == 2
    assert D(osborn_laurent(Fraction(-7, 3), Fraction(5, 2), -6, 8, "novikov")) == 6
    for variant in ("jordan", "novikov"):
        assert D(osborn_laurent(1, 0, -6, 8, variant)) == 1
    assert D(osborn_laurent(Fraction(1, 2), 0, -6, 8, "jordan")) == 1  # 2 alpha
    I, _ = identcheck._integral(integration_product(3))
    assert I.mul({0: 6}, {1: 1}) == {2: 6 * 12 // 2}  # D = 12, x^0 x^1 = x^2 / 2
    with pytest.raises(OutOfWindowError):
        I.mul({0: 1, 2: 1}, {1: 1})


SCALED_LAWS = [parse(e, ("a", "b", "c")) for e in (
    "1/2*(a*b)*c - 3/4*a*(b*c)",  # fractional coefficients
    "(a*b)*c - 2*a*b + 1/3*c",    # terms of degree 3, 2 and 1
    "5/6*(a*c)*(b*c) - c*(a*b)",  # degrees 4 and 3, c twice
)]


@pytest.mark.parametrize("A, idx", [
    (integration_product(30), range(5, 9)),  # D^3 > 2^135; sums past 30 escape
    (osborn_laurent(1, 0, -6, 8, "jordan"), range(-2, 2)),  # D = 1
    (osborn_laurent(Fraction(1, 2), 0, -6, 8, "novikov"), range(-2, 2)),
    (osborn_laurent(Fraction(-7, 3), Fraction(5, 2), -6, 8, "novikov"),
     range(-1, 3)),
], ids=["integration30", "laurent-D1", "laurent-D2", "laurent-D6"])
@pytest.mark.parametrize("poly", [catalog_entry(name).poly for name in (
    "tortken", "sokolov", "commutativity", "deg5_i")] + SCALED_LAWS,
    ids=["tortken", "sokolov", "commutativity", "deg5_i", "fractional",
         "degrees-3-2-1", "degrees-4-3"])
def test_q_window_sweep_matches_naive_oracle(A, idx, poly):
    out = identcheck._sweep(poly, A, idx)
    want = _oracle_sweep(poly, A, idx)
    assert _outcome_tuple(out) == want
    assert out.orbits == _oracle_orbits(poly, A, len(idx), want[1])
    if poly.is_multilinear():  # through `_check`, which re-evaluates on Q
        assert _outcome_tuple(check_identity_windowed(poly, A, idx)) == want


def test_q_window_witness_with_a_fractional_value():
    # x^5 x^6 - x^6 x^5 = x^12 / 7 - x^12 / 6 on the integration window
    A = integration_product(30)
    out = check_identity_windowed(COMM, A, range(5, 9))
    assert out.verdict == FAILS
    assert out.value == {12: Fraction(-1, 42)}
    assert evaluate(COMM, A, out.witness) == out.value


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.booleans(),
       st.sampled_from(SCALED_LAWS + [catalog_entry("tortken").poly]),
       st.integers(0, 2**32))
def test_q_sweep_of_scaled_laws_matches_naive_oracle(dim, commutative, escapes,
                                                     poly, seed):
    # tables with denominators up to 7, closed or with escapes
    rng = random.Random(seed)
    A = _random_window(Field.rationals(), dim, commutative, escapes, rng,
                       (1, 2, 3, 5, 7))
    idx = rng.sample(A.indices, rng.randint(1, dim))
    out = identcheck._sweep(poly, A, idx)
    want = _oracle_sweep(poly, A, idx)
    assert _outcome_tuple(out) == want
    assert out.orbits == _oracle_orbits(poly, A, len(idx), want[1])


def test_tortken_sweep_on_dim_27():
    # the paper's identity on the largest benchmark table: 27^4 assignments
    # in 142884 orbits of the blocks {a, c} and {b, d}
    out = check_identity(TORTKEN, osborn_plus_explicit(1, 1, 3, 3))
    assert (out.verdict, out.checked, out.skipped) == (HOLDS, 531441, 0)
    assert out.orbits == 142884


def _orbit_substitutions(rng, draw, degree, count):
    """`count` random substitutions and every permutation of two random
    multisets, shuffled: most share an S_n orbit with another."""
    subs = [tuple(draw() for _ in range(degree)) for _ in range(count)]
    for _ in range(2):
        subs += itertools.permutations([draw() for _ in range(degree)])
    rng.shuffle(subs)
    return subs


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 3), st.booleans(),
       st.integers(3, 4), st.sampled_from((None, 0, 1)), st.booleans(),
       st.integers(0, 2**32))
def test_identity_space_rows_match_naive_oracle(f, dim, commutative, degree,
                                                beta, balanced, seed):
    # a random table, or a Laurent window (with beta = 1, more escapes)
    rng = random.Random(seed)
    order = "balanced_first" if balanced and degree == 4 else "canonical"
    if beta is not None:
        A = osborn_laurent(1, beta, -3, 3, "jordan")
        draw = lambda: A.basis(rng.randrange(-2, 3))
    else:
        A = _random_table(f, dim, commutative, rng)
        draw = lambda: {i: c for i in range(dim)
                        if (c := A.field.coerce(rng.randint(-2, 2)))}
    subs = _orbit_substitutions(rng, draw, degree, 8)
    rep = identity_space(degree, A, subs, order)
    rows, used, skipped = _oracle_rows(degree, A, subs, order)
    assert (rep.substitution_count, rep.skipped) == (used, skipped)
    f = A.field
    M = rows or [[f.zero] * rep.matrix.cols]
    assert rep.matrix.data == M
    R, rank, pivots = dense_rref(f, M)
    assert rep.rank == rank
    assert rep.nullspace == rref_nullspace(f, R, pivots, len(M[0]))
    for name, flag in rep.flags.items():
        try:
            vec = [f.coerce(c) for c in
                   mu_vector(catalog_entry(name).poly, rep.monomials)]
        except ZeroDivisionError:
            assert flag is None
            continue
        # with nothing evaluated, nothing constrains the kernel
        want = (all(f.is_zero(x) for x in dense_mul_vec(f, M, vec))
                if used else None)
        assert flag is want, name


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((Field.prime(2), F3, F5, 0, 1, "integration")),
       st.integers(1, 3), st.booleans(), st.integers(3, 4), st.booleans(),
       st.integers(0, 2**32))
def test_memoized_identity_space_matches_per_substitution_runs(
        f, dim, commutative, degree, balanced, seed):
    # A closed F_p table, or a Q window where some substitutions escape
    # (with beta = 1, more of them).  The element pool holds basis elements,
    # random combinations and, for each, an equal element as a distinct dict
    # (over F_p with coefficients off by p); substitutions draw from it with
    # repetition.
    rng = random.Random(seed)
    order = "balanced_first" if balanced and degree == 4 else "canonical"
    if f in (0, 1):
        A = osborn_laurent(Fraction(1, 2), f, -4, 4, "jordan")
        idx = list(range(-2, 3))
    elif f == "integration":
        A = integration_product(8)
        idx = list(range(3))
    else:
        A = _random_table(f, dim, commutative, rng)
        idx = list(range(dim))
    p = A.field.char

    def scalar():
        return (rng.randint(-3, 3) if p
                else Fraction(rng.randint(-3, 3), rng.choice((1, 2))))

    pool = [A.basis(i) for i in idx]
    pool += [{i: c for i in rng.sample(idx, rng.randint(1, len(idx)))
              if (c := scalar())} for _ in range(3)]
    pool += [{k: c + p for k, c in e.items()} for e in pool]
    subs = _orbit_substitutions(rng, lambda: rng.choice(pool), degree, 12)
    rep = identity_space(degree, A, subs, order)
    # each substitution on its own by the recursive oracle: no memo shared
    rows, used, skipped = _oracle_rows(
        degree, A, [[A.element(e) for e in sub] for sub in subs], order)
    assert (rep.substitution_count, rep.skipped) == (used, skipped)
    f = A.field
    M = rows or [[f.zero] * rep.matrix.cols]
    assert rep.matrix.data == M
    R, rank, pivots = dense_rref(f, M)
    assert rep.rank == rank
    assert rep.nullspace == rref_nullspace(f, R, pivots, len(M[0]))


def _matches_dense_elimination(rep):
    """Rank, nullspace and flags of rep are those of the dense reference
    elimination of its matrix (its distinct rows: the same row space)."""
    f, M = rep.matrix.field, rep.matrix.data
    rows = list(map(list, dict.fromkeys(map(tuple, M))))
    R, rank, pivots = dense_rref(f, rows)
    assert rep.rank == rank
    assert rep.nullspace == rref_nullspace(f, R, pivots, rep.matrix.cols)
    for name, flag in rep.flags.items():
        vec = [f.coerce(c) for c in
               mu_vector(catalog_entry(name).poly, rep.monomials)]
        want = (all(f.is_zero(x) for x in dense_mul_vec(f, rows, vec))
                if rep.substitution_count else None)
        assert flag is want, name


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((Field.prime(2), F3, F5, Field.rationals(), "laurent")),
       st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**32))
def test_spun_orbits_match_dense_elimination(f, dim, degree, seed):
    # complete S_n orbits (every distinct arrangement of a multiset of pool
    # elements) are spun; the same list with random arrangements removed
    # leaves incomplete orbits that are inserted row by row.  On a
    # commutative table, or a commutative Laurent window where products of
    # high degree escape.
    rng = random.Random(seed)
    if f == "laurent":
        A = osborn_laurent(1, 1, -3, 3, "jordan")
        pool = [A.basis(i) for i in range(-2, 3)]
    else:
        A = _random_table(f, dim, True, rng)
        pool = [A.basis(i) for i in range(dim)]
        pool.append({i: c for i in range(dim)
                     if (c := A.field.coerce(rng.randint(-2, 2)))})
    assert A.is_commutative()
    multisets = [sorted(rng.choices(range(len(pool)), k=degree))
                 for _ in range(rng.randint(1, 2))]
    full = [a for m in multisets
            for a in dict.fromkeys(itertools.permutations(m))]
    rng.shuffle(full)
    part = [a for a in full if rng.random() < 0.7]
    for arrangements in (full, part):
        subs = [tuple(pool[i] for i in a) for a in arrangements]
        _matches_dense_elimination(identity_space(degree, A, subs))


def test_a_single_arrangement_is_not_spun():
    # one arrangement of three distinct elements gives one row; its S_3
    # orbit gives three independent rows, so a spin of the incomplete orbit
    # would raise the rank from 1 to 3
    A = plus(osborn(1, 1, 5, 1))
    one = [(A.basis(0), A.basis(1), A.basis(2))]
    rep = identity_space(3, A, one)
    assert rep.rank == 1
    _matches_dense_elimination(rep)
    assert identity_space(3, A, list(itertools.permutations(one[0]))).rank == 3


def _counted_identity_space(monkeypatch, degree, A, indices):
    """The identity space of A on every substitution from the basis indices,
    and the number of `Echelon.insert` calls it made."""
    inserts = 0
    insert = identcheck.Echelon.insert

    def counted(self, v):
        nonlocal inserts
        inserts += 1
        return insert(self, v)

    monkeypatch.setattr(identcheck.Echelon, "insert", counted)
    subs = [tuple(A.basis(i) for i in t)
            for t in itertools.product(indices, repeat=degree)]
    return identity_space(degree, A, subs), inserts


def test_spun_identity_space_insert_counts(monkeypatch):
    # complete orbits enter as the module their representative's rows
    # generate: 279 inserts for the degree-5 rank-35 space on dim 5 (815
    # with one insert per distinct permuted row set), 88 for the Laurent
    # window (464); the non-commutative integration product spins nothing
    A = plus(osborn(1, 1, 5, 1))
    rep, inserts = _counted_identity_space(monkeypatch, 5, A, range(5))
    assert rep.rank == 35 and inserts <= 300
    L = osborn_laurent(1, 0, -6, 6, "jordan")
    rep, inserts = _counted_identity_space(monkeypatch, 4, L, range(-2, 3))
    assert rep.rank == 10 and inserts <= 100
    rep, inserts = _counted_identity_space(
        monkeypatch, 4, integration_product(12), range(5))
    assert rep.rank == 14 and inserts <= 435


def test_identity_space_computes_each_product_once(monkeypatch):
    # every basis substitution on dim 5: a product is computed once per pair
    # of operand values, not once per substitution (20625 and 687500) or per
    # tree shape and leaf elements (1400 and 10775), and only on the
    # C(dim + degree - 1, degree) sorted representatives of the S_n orbits
    A = plus(osborn(1, 1, 5, 1))
    calls, reps = [], []
    mul, runs = type(A).mul, identcheck._Program.runs
    monkeypatch.setattr(type(A), "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    monkeypatch.setattr(identcheck._Program, "runs", lambda self, prod, subs:
                        runs(self, prod, [reps.append(s) or s for s in subs]))
    for degree, want, orbits in ((4, 109, 70), (5, 193, 126)):
        calls.clear()
        reps.clear()
        subs = [tuple(A.basis(i) for i in t)
                for t in itertools.product(range(A.dim), repeat=degree)]
        identity_space(degree, A, subs)
        assert len(calls) == want, degree
        assert len(reps) == orbits == math.comb(A.dim + degree - 1, degree)


def test_identity_space_rejects_a_wrong_length_before_evaluating(monkeypatch):
    A = plus(osborn(1, 1, 3, 1))
    calls = []
    mul = type(A).mul
    monkeypatch.setattr(type(A), "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    subs = [(A.basis(0),) * 4, (A.basis(1),) * 4, (A.basis(2),) * 3]
    with pytest.raises(ValueError, match="substitution needs 4 elements, got 3"):
        identity_space(4, A, subs)
    assert calls == []


def test_identity_space_interns_each_raw_element_once(monkeypatch):
    # equal raw items give equal elements, so `element` runs once per raw
    # dict; {0: 1} and {0: 6} differ as dicts but are one element of F_5,
    # so they share an id and all three substitutions share one orbit
    A = plus(osborn(1, 1, 5, 1))
    calls, reps = [], []
    element, runs = type(A).element, identcheck._Program.runs
    monkeypatch.setattr(type(A), "element",
                        lambda self, e: calls.append(e) or element(self, e))
    monkeypatch.setattr(identcheck._Program, "runs", lambda self, prod, subs:
                        runs(self, prod, [reps.append(s) or s for s in subs]))
    one, six, two = {0: 1}, {0: 6}, {1: 2}
    subs = [(one, two, two, two), (six, two, two, two), (two, two, one, two)]
    rep = identity_space(4, A, subs)
    assert calls == [one, two, six]
    assert len(reps) == 1
    same = identity_space(4, A, [(one, two, two, two)] + subs[::2])
    assert rep.matrix.data == same.matrix.data


def test_identity_space_rejects_a_float_equal_to_an_exact_value():
    # 1.0 == 1 and their hashes agree; a float after the exact value must
    # raise as it does before it
    A = plus(osborn(1, 1, 5, 1))
    for subs in ([({0: 1}, {1: 1}), ({0: 1.0}, {1: 1})],
                 [({0: 1.0}, {1: 1}), ({0: 1}, {1: 1})]):
        with pytest.raises(TypeError, match="floating point"):
            identity_space(2, A, subs)


def test_identity_space_rejects_an_index_outside_the_window_every_call():
    L = osborn_laurent(1, 0, -3, 3, "jordan")
    subs = [(L.basis(0),) * 4, (L.basis(0), L.basis(1), {9: 1}, L.basis(0))]
    for _ in range(2):
        with pytest.raises(ValueError, match="index 9 outside window"):
            identity_space(4, L, subs)


def test_alt_right_mult_agrees_with_operator_oracle():
    alt = catalog_entry("alt_right_mult").poly
    for A in (osborn(1, 0, 3, 1), random_commutative(3, F5, seed=1)):
        vanishes = all(
            operator_identity_check(A, A.basis(i), A.basis(j), A.basis(k))
            for i, j, k in itertools.product(range(A.dim), repeat=3))
        assert check_identity(alt, A).holds is vanishes


def test_evaluate_reports_missing_variables():
    with pytest.raises(ValueError, match="misses"):
        evaluate(TORTKEN, gametic(2), {"a": {0: 1}, "b": {0: 1}})
    # a declared variable that no term uses need not be bound
    unused = FreePoly.monomial(("a", "b"), ("a", "b", "c"))
    G = gametic(2)
    assert evaluate(unused, G, {"a": G.basis(0), "b": G.basis(1)}) == \
        G.mul(G.basis(0), G.basis(1))


@pytest.mark.parametrize("target", sorted(
    path.stem for path in (Path(__file__).parent / "golden").glob("*.txt")))
def test_reproduce_without_asserts_matches_golden(target):
    # python -O strips asserts: the evaluator, elimination and certifier
    # paths must not rely on them
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-m", "tortken", "reproduce",
                           target], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).parent / "golden" / f"{target}.txt"
    assert proc.stdout == golden.read_text()


def _space(degree, A, indices, order="canonical"):
    subs = [tuple(A.basis(i) for i in t)
            for t in itertools.product(indices, repeat=degree)]
    return identity_space(degree, A, subs, order=order)


def test_identity_space_repeats_across_fields():
    # the cached law vectors are exact; each call coerces them into its field
    A = plus(osborn(1, 1, 5, 1))
    L = osborn_laurent(Fraction(1, 2), 0, -6, 6)
    first = _space(4, A, range(5)).to_json_dict()
    window = _space(4, L, range(-2, 3))
    assert (window.nullity, window.to_json_dict()) == (
        5, _space(4, L, range(-2, 3)).to_json_dict())
    assert all(window.flags[f"deg4_basis_{i}"] for i in range(1, 6))
    assert _space(4, A, range(5)).to_json_dict() == first


def test_report_monomials_are_a_fresh_list():
    A = plus(osborn(1, 1, 3, 1))
    report = _space(3, A, range(3))
    want = report.to_json_dict()
    report.monomials.reverse()
    report.monomials.append("t9")
    assert _space(3, A, range(3)).to_json_dict() == want
    assert multilinear_monomials(3) == list(freepoly.commutative_basis(3).monomials)


def test_each_basis_is_built_once(monkeypatch):
    built = []
    init = freepoly.CommutativeBasis.__init__

    def counted(self, n, order):
        built.append((n, order))
        init(self, n, order)

    monkeypatch.setattr(freepoly.CommutativeBasis, "__init__", counted)
    freepoly._commutative_basis.cache_clear()
    A = plus(osborn(1, 1, 3, 1))
    for order in ("canonical", "balanced_first") * 2:
        _space(4, A, range(3), order)
    multilinear_monomials(4, order="balanced_first")
    freepoly.commutative_basis(4)
    assert built == [(4, "canonical"), (4, "balanced_first")]


def _refuse(*args, **kwargs):
    raise AssertionError("identity_space rebuilt part of the basis")


def test_identity_space_reads_the_cached_basis(monkeypatch):
    # once its basis is built, an identity space builds no column index,
    # transposition map or catalog vector of its own
    A = plus(osborn(1, 1, 5, 1))
    first = _space(5, A, range(3)).to_json_dict()
    for name in ("canonical_commutative", "rename_tree", "mu_vector",
                 "catalog", "multilinear_monomials"):
        monkeypatch.setattr(freepoly, name, _refuse)
    assert not hasattr(identcheck, "mu_vector")  # it reads basis.laws only
    assert _space(5, A, range(3)).to_json_dict() == first
