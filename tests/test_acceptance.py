"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single `[acceptance] criterion N: PASS` line on success
(run with `pytest -s tests/test_acceptance.py` to see them); a failing
criterion shows its line with FAIL context in the pytest report.
"""

import itertools
import math
from fractions import Fraction

import pytest

from tortken.exactnum import Field
from tortken.algebras import (FiniteAlgebra, derivation_novikov,
                              derivation_symmetric, divided_power, gametic,
                              integration_product, opposite, osborn,
                              osborn_bar_finite, osborn_laurent, plus,
                              random_commutative, square_product,
                              standard_derivation, tensor_leibniz)
from tortken.freepoly import BALANCED_FIRST_DEG4, catalog, catalog_entry, mu_vector
from tortken.identcheck import (FAILS, HOLDS, check_identity,
                                check_identity_windowed, degree3_system,
                                evaluate, identity_space,
                                reference_deg4_report, tortken_prime_relation,
                                verify_reference_solutions)
from tortken.idealtool import certify_simplicity, is_ideal, psi_charp, psi_cyclic_char0

from deg4_reference import REFERENCE_DEG4_MATRIX, REFERENCE_DEG4_SOLUTIONS

F5 = Field.prime(5)
TORTKEN = catalog_entry("tortken").poly
COMM = catalog_entry("commutativity").poly


def ok(n: int, detail: str = "") -> None:
    print(f"[acceptance] criterion {n}: PASS {detail}".rstrip())


def test_criterion_1_matrix_reproduction():
    rep = reference_deg4_report()
    assert [[int(x) for x in row] for row in rep.matrix.data] == \
        [list(r) for r in REFERENCE_DEG4_MATRIX]
    assert rep.rank == 10
    assert rep.nullity == 5
    f = rep.matrix.field
    for v in REFERENCE_DEG4_SOLUTIONS:
        assert all(f.is_zero(x) for x in rep.matrix.mul_vec(list(v)))
    for i in range(1, 6):
        vec = mu_vector(catalog_entry(f"deg4_basis_{i}").poly, rep.monomials)
        assert all(f.is_zero(x) for x in rep.matrix.mul_vec(vec))
    renamed = TORTKEN.rename_variables({"a": "t1", "b": "t3", "c": "t2",
                                        "d": "t4"})
    assert renamed.terms == catalog_entry("deg4_basis_2").poly.terms
    assert verify_reference_solutions(rep)
    ok(1, "(10x15 matrix entry-for-entry, rank 10, kernel dim 5)")


def test_criterion_2_degree3_determinant():
    sys3 = degree3_system()
    assert sys3.abs_det == 54
    assert sys3.char3_nonsingular
    ok(2, "(|det| = 54; char-3 system nonsingular)")


def test_criterion_3_jordan_products_are_tortken():
    O32 = divided_power(3, 2)
    zoo = [plus(derivation_novikov(O32, standard_derivation(O32)))]
    zoo += [plus(osborn(a, b, 3, 1)) for a in (0, 1) for b in (0, 1)]
    zoo += [plus(osborn(1, 1, 5, 1))]
    zoo += [plus(gametic(n)) for n in (2, 3, 4)]
    for A in zoo:
        assert check_identity(TORTKEN, A).verdict == HOLDS, A.name
        assert check_identity(COMM, A).verdict == HOLDS, A.name
    control = random_commutative(3, F5, seed=0)
    out = check_identity(TORTKEN, control)
    assert out.verdict == FAILS
    witness = {v: control.fmt_element(e) for v, e in out.witness.items()}
    assert evaluate(TORTKEN, control, out.witness) == out.value
    ok(3, f"(9 jordan products tortken+commutative; control witness {witness})")


def test_criterion_4_char_p_square_products():
    for args in ((3, 0, 0, 2), (5, 0, 0, 1), (3, 1, 1, 2), (2, 0, 1, 3)):
        A = square_product(*args)
        assert check_identity(TORTKEN, A).verdict == HOLDS, args
    A = square_product(3, 0, 1, 2)
    sigma = {"a": A.basis(0), "b": A.basis(1), "c": A.basis(2),
             "d": A.basis(6)}
    assert evaluate(TORTKEN, A, sigma) == {0: 2}  # exactly -x^(0) over F3
    B = square_product(2, 0, 2, 4)
    out = check_identity(TORTKEN, B)
    assert out.verdict == FAILS
    assert evaluate(TORTKEN, B, out.witness) == out.value
    ok(4, "(k=l and p=2,l=k+1 hold; k<l value -1; p=2,l-k>1 witness found)")


def test_criterion_5_simplicity_certificates():
    for alpha in (1, 2):
        for beta in (0, 1):
            assert certify_simplicity(plus(osborn(alpha, beta, 3, 1))).simple
    assert certify_simplicity(plus(osborn(1, 0, 5, 1))).simple
    assert certify_simplicity(plus(osborn(1, 1, 3, 2))).simple
    for beta in (0, 1):
        A = plus(osborn(0, beta, 3, 1))
        cert = certify_simplicity(A)
        assert cert.verdict == "not_simple"
        assert cert.witness.dim == 3**1 - 1 == 2
        assert is_ideal(A, cert.witness)
    assert certify_simplicity(osborn_bar_finite(1, 3, 1)).simple
    # char-0 rows are not machine-certified; the proof's window-relative
    # step-1 fact is checked instead: no product reaches x^(-2a-1)
    for alpha in (Fraction(1, 2), 1, Fraction(-1, 2)):
        L = osborn_laurent(alpha, 0, -8, 8, "jordan")
        excluded = int(-2 * alpha - 1)
        for i in L.indices:
            for j in L.indices:
                assert all(k != excluded for k, _ in L.product(i, j))
    ok(5, "(simple/not-simple grid with dim-2 witness; step-1 coefficient fact)")


def test_criterion_5_bar_beta0_as_stated():
    # The acceptance criterion expects the codimension-1 subalgebra to be
    # simple for every beta at (p, m) = (3, 1).  At beta = 0 that is
    # mathematically false: the algebra is span{1, x^(1)} with 1*1 = 0 and
    # 1*x^(1) = 1, so span{1} is a proper ideal.  Kept as an honest failure;
    # the simplicity climb needs a basis exponent >= 2 inside the subalgebra,
    # which exists only for p^m - 1 >= 3.
    cert = certify_simplicity(osborn_bar_finite(0, 3, 1))
    print(f"[acceptance] criterion 5 (beta=0 companion): verdict "
          f"{cert.verdict}, witness dim "
          f"{cert.witness.dim if cert.witness else '-'}")
    assert cert.simple, (
        "osborn_bar_finite(0, 3, 1) is not simple: span{1} is a proper ideal "
        "(1*1 = 0, 1*x^(1) = 1); the stated expectation is unattainable")


DEG5_ALL_CHARS = ("deg5_i", "deg5_iii", "deg5_iv", "cyclic_assoc_middle",
                  "cyclic_assoc_outer", "alt_right_mult")
DEG5_NOT_CHAR3 = ("deg5_ii", "cyclic_assoc_nested")


@pytest.mark.parametrize("make,char", [
    (lambda: plus(osborn(0, 0, 3, 2)), 3),
    (lambda: plus(osborn(1, 1, 5, 1)), 5),
])
def test_criterion_6_degree5_consequences(make, char):
    A = make()
    for name in DEG5_ALL_CHARS:
        assert check_identity(catalog_entry(name).poly, A).verdict == HOLDS, name
    if char == 3:
        ok(6, f"(char {char}: p!=3-only identities skipped by applicability)")
        pytest.skip("deg5_ii and cyclic_assoc_nested require characteristic != 3")
    for name in DEG5_NOT_CHAR3:
        entry = catalog_entry(name)
        assert char not in entry.excluded_chars
        assert check_identity(entry.poly, A).verdict == HOLDS, name
    ok(6, f"(char {char}: all eight degree-4/5 consequences hold)")


def test_criterion_7_tortken_prime():
    assert tortken_prime_relation(1).verdict == HOLDS
    assert tortken_prime_relation(2).verdict == HOLDS
    O1 = divided_power(3, 1)
    A1 = derivation_symmetric(O1, standard_derivation(O1))
    tp = catalog_entry("tortken_prime").poly
    assert check_identity(tp, A1).verdict == HOLDS
    O2 = divided_power(3, 2)
    A2 = derivation_symmetric(O2, standard_derivation(O2))
    out = check_identity(tp, A2)
    assert out.verdict == FAILS
    assert evaluate(tp, A2, out.witness) == out.value
    ok(7, "(holds at m=1; equals 2 D^3(abcd) at m=2; fails alone at m=2)")


def test_criterion_8_leibniz_dual_pipeline():
    I = integration_product(12)
    for name in ("leibniz_dual_left", "right_commutative"):
        out = check_identity_windowed(catalog_entry(name).poly, I, range(0, 4))
        assert out.verdict == HOLDS and out.skipped == 0, name
    out = check_identity_windowed(TORTKEN, I, range(0, 4))
    assert out.verdict == HOLDS
    full = check_identity_windowed(TORTKEN, I, range(0, 3))
    assert full.verdict == HOLDS and full.skipped == 0
    out = check_identity_windowed(COMM, I, range(0, 4))
    assert out.verdict == FAILS
    lie = FiniteAlgebra("lie2", Field.rationals(), 2,
                        [[{}, {0: 1}], [{0: -1}, {}]], ["e", "f"])
    T = tensor_leibniz(lie, integration_product(8))
    idx = [(g, r) for g in range(2) for r in range(0, 3)]
    out = check_identity_windowed(catalog_entry("right_symmetric").poly, T, idx)
    assert out.verdict == HOLDS and out.skipped == 0
    ok(8, "(integration window: dual law, right-commutativity, tortken; tensor)")


def test_criterion_9_psi_form():
    for i in range(-6, 7):
        for j in range(-6, 7):
            for s in range(-6, 7):
                want = Fraction(2 if i + j + s == 1 else 0)
                assert psi_cyclic_char0(i, j, s) == want
    for i in range(1, 9):
        assert psi_charp(3, 2, i, 9 - i) == (math.comb(9, i) // 3) % 3
    ok(9, "(cyclic sum on [-6,6]^3; char-3 values match the integer oracle)")


def _construction_zoo():
    O31, O32, O51 = divided_power(3, 1), divided_power(3, 2), divided_power(5, 1)
    return [
        O31, O32, O51, divided_power(2, 3),
        gametic(2), gametic(3), opposite(gametic(3)),
        plus(gametic(3)),
        derivation_novikov(O31, standard_derivation(O31)),
        derivation_symmetric(O32, standard_derivation(O32)),
        osborn(1, 1, 3, 1), plus(osborn(1, 1, 3, 1)), plus(osborn(0, 0, 3, 2)),
        osborn_bar_finite(1, 3, 1),
        square_product(3, 0, 1, 2), square_product(5, 0, 0, 1),
        random_commutative(3, F5, seed=0),
    ]


def test_criterion_10_unit_theorem_guard():
    right_unit_law = catalog_entry("right_unit_law").poly
    tortken_with_unit = tortken_with_right_unit = 0
    for A in _construction_zoo():
        if check_identity(TORTKEN, A).verdict != HOLDS:
            continue
        preds = A.predicates()
        if preds["unit"] is not None:
            assert preds["is_associative"] and preds["is_commutative"], A.name
            tortken_with_unit += 1
        elif preds["has_right_unit"]:
            assert check_identity(right_unit_law, A).verdict == HOLDS, A.name
            tortken_with_right_unit += 1
    # the guard must not be vacuous
    assert tortken_with_unit >= 3
    assert tortken_with_right_unit >= 1
    # negative control: gametic has left units, is not commutative, and is
    # consistent with the unit theorem because it fails tortken itself
    G = gametic(3)
    assert G.predicates()["has_left_unit"]
    assert not G.is_commutative()
    assert check_identity(TORTKEN, G).verdict == FAILS
    ok(10, f"({tortken_with_unit} unital + {tortken_with_right_unit} "
           "right-unital tortken algebras pass the unit laws)")


def test_criterion_11_cross_pipeline_consistency():
    A = plus(osborn(0, 0, 3, 2))
    f = A.field
    subs = [tuple(A.basis(i) for i in t)
            for t in itertools.product(range(A.dim), repeat=4)]
    rep = identity_space(4, A, subs, order="balanced_first")
    checked = 0
    for entry in catalog():
        if entry.degree != 4 or len(entry.variables) != 4:
            continue
        if not entry.poly.is_multilinear():
            continue
        if check_identity(entry.poly, A).verdict != HOLDS:
            continue
        vec = [f.coerce(c) for c in mu_vector(entry.poly, BALANCED_FIRST_DEG4)]
        assert all(f.is_zero(x) for x in rep.matrix.mul_vec(vec)), entry.name
        checked += 1
    assert checked >= 8  # tortken, alt_right_mult, cyclic pair, deg4 basis
    ok(11, f"({checked} holding degree-4 identities lie in the computed kernel)")
