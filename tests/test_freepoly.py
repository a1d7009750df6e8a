import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tortken.freepoly import (AmbiguousProductError, DegreeOutOfRangeError,
                              FreePoly, ParseError, POLARIZE_BOUND,
                              PolarizationTooLargeError, UnknownVariableError,
                              canonical_commutative, catalog, catalog_entry,
                              commutative_basis, mu_vector,
                              multilinear_monomials, parse, polarize,
                              rename_tree, symmetry_blocks, tree_degree,
                              tree_format, tree_key, tree_leaves,
                              BALANCED_FIRST_DEG4)

ABC = ("a", "b", "c")
ABCD = ("a", "b", "c", "d")


def test_parse_right_symmetric():
    p = parse("assoc(a,b,c) - assoc(a,c,b)", ABC)
    assert len(p.terms) == 4
    assert p == catalog_entry("right_symmetric").poly


def test_parse_cancellation():
    assert parse("a*b - a*b", ABC).is_zero()
    assert parse("0", ABC).is_zero()


def test_parse_tortken_expansion():
    p = parse("(a*b)*(c*d) - (a*d)*(c*b) - assoc(a,b,c)*d + assoc(a,d,c)*b",
              ABCD)
    # the two associator terms double; the two leading products stay: 6 monomials
    assert len(p.terms) == 6
    assert all(c in (1, -1) for c in p.terms.values())
    assert p == catalog_entry("tortken").poly


def test_parse_coefficients():
    p = parse("2*(a*b) - 1/2*(b*a)", ABC)
    assert p.terms[("a", "b")] == 2
    assert p.terms[("b", "a")] == Fraction(-1, 2)
    # unary minus as a factor
    assert parse("a*-b", ("a", "b")).format() == "-a*b"
    assert parse("2*-(a*b)", ("a", "b")).format() == "-2*(a*b)"


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        parse("a*z", ABC)
    with pytest.raises(AmbiguousProductError):
        parse("a*b*c", ABC)
    with pytest.raises(ParseError) as err:
        parse("a + ", ABC)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse("2 + a*b", ABC)  # bare constant term
    with pytest.raises(ParseError):
        parse("(a*b", ABC)
    with pytest.raises(ParseError) as err:
        parse("a*b + 1/0*c", ABC)  # zero denominator
    assert err.value.pos == 8
    with pytest.raises(ValueError, match="repeated variable"):
        parse("a*a", ("a", "a"))
    # declared names that the name rule cannot read, even when unused
    with pytest.raises(ValueError, match=re.escape(
            "variable names ['', '1x', 'a-b', 'jord'] are not names")):
        parse("a*b", ("a", "", "1x", "b", "a-b", "jord", "_c2"))
    with pytest.raises(ParseError,
                       match="assoc takes 3 arguments, got 2") as err:
        parse("assoc(a,b)", ("a", "b"))
    assert err.value.pos == 0


@pytest.mark.parametrize("text, pos", [("2\u00b2*a", 1), ("\u00b2*a", 0),
                                       ("a*a + 1/2\u00b9*a", 9)])
def test_digits_int_rejects_are_parse_errors(text, pos):
    # superscripts are digits to str.isdigit but not to int(): a ParseError
    # with its position, not int()'s bare ValueError
    with pytest.raises(ParseError) as err:
        parse(text, ("a",))
    assert err.value.pos == pos


@pytest.mark.parametrize("text", ["-" * 5000 + "a*a",
                                  "(" * 2000 + "a*a" + ")" * 2000])
def test_deep_nesting_is_a_parse_error(text):
    # deeper than the recursive descent reaches: an error, not a crash
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text, ("a",))
    assert parse("-" * 50 + "a*a", ("a",)) == parse("a*a", ("a",))
    assert parse("(" * 50 + "a*a" + ")" * 50, ("a",)) == parse("a*a", ("a",))


def test_format_round_trip_catalog():
    for entry in catalog():
        again = parse(entry.poly.format(), entry.variables)
        assert again == entry.poly, entry.name


trees = st.deferred(
    lambda: st.sampled_from(ABC)
    | st.tuples(trees, trees).filter(lambda t: tree_degree(t) <= 5))


@settings(max_examples=80)
@given(st.lists(st.tuples(trees, st.integers(-5, 5).filter(bool)),
                min_size=1, max_size=5))
def test_format_round_trip_random(items):
    poly = FreePoly(ABC)
    for t, c in items:
        poly = poly + FreePoly.monomial(t, ABC, c)
    assert parse(poly.format(), ABC) == poly


def _monomial_oracle(n):
    """Every tree shape under every leaf permutation, canonicalized,
    deduplicated and sorted by tree_key."""
    def shapes(k):
        if k == 1:
            return [None]
        return [(l, r) for i in range(1, k)
                for l in shapes(i) for r in shapes(k - i)]

    def label(shape, it):
        if shape is None:
            return next(it)
        return (label(shape[0], it), label(shape[1], it))

    names = [f"t{i}" for i in range(1, n + 1)]
    return sorted({canonical_commutative(label(shape, iter(perm)))
                   for shape in shapes(n)
                   for perm in itertools.permutations(names)}, key=tree_key)


def test_monomial_counts():
    for n in range(1, 7):
        assert multilinear_monomials(n) == _monomial_oracle(n), n
    assert multilinear_monomials(2) == [("t1", "t2")]
    # commutative counts are the double factorials (2n-3)!!
    assert [len(multilinear_monomials(n)) for n in (2, 3, 4, 5, 6)] == \
        [1, 3, 15, 105, 945]
    with pytest.raises(DegreeOutOfRangeError):
        multilinear_monomials(7)
    with pytest.raises(DegreeOutOfRangeError):
        multilinear_monomials(0)


def test_balanced_first_ordering():
    ms = multilinear_monomials(4, order="balanced_first")
    assert len(ms) == 15
    assert tree_format(ms[0]) == "(t1*t2)*(t3*t4)"
    assert tree_format(ms[3]) == "((t1*t2)*t3)*t4"
    assert tree_format(ms[14]) == "((t3*t4)*t2)*t1"
    # same orbit classes as the canonical list
    canon = {canonical_commutative(t) for t in multilinear_monomials(4)}
    assert {canonical_commutative(t) for t in ms} == canon
    with pytest.raises(ValueError):
        multilinear_monomials(3, order="balanced_first")


BASES = [(4, "canonical"), (5, "canonical"), (4, "balanced_first")]


@pytest.mark.parametrize("n,order", BASES)
def test_colmap_is_the_direct_renaming(n, order):
    # for every permutation pos, column c at x_i = r_pos(i) reads the column
    # of monomial c renamed by t_i -> t_pos(i), looked up directly
    B = commutative_basis(n, order)
    column = {canonical_commutative(m): c for c, m in enumerate(B.monomials)}
    perms = list(itertools.permutations(range(n)))
    assert len(perms) == math.factorial(n)
    for pos in perms:
        rename = {f"t{i + 1}": f"t{pos[i] + 1}" for i in range(n)}
        assert list(B.colmap(pos)) == [
            column[canonical_commutative(rename_tree(m, rename))]
            for m in B.monomials], pos


@pytest.mark.parametrize("n,order", BASES + [(1, "canonical"),
                                             (2, "canonical"), (3, "canonical")])
def test_basis_law_vectors_are_mu_vector(n, order):
    B = commutative_basis(n, order)
    want = {e.name: tuple(mu_vector(e.poly, B.monomials)) for e in catalog()
            if e.degree == n == len(e.variables) and e.poly.is_multilinear()}
    assert dict(B.laws) == want
    assert [name for name, _ in B.laws] == list(want)  # catalog order
    if n >= 4:
        assert {"alt_right_mult", "deg4_basis_1", "deg5_i"} & set(want)


def test_commutative_basis_is_one_read_only_object():
    B = commutative_basis(5)
    assert B is commutative_basis(5, "canonical") is commutative_basis(
        n=5, order="canonical")
    assert commutative_basis(4, "balanced_first") is not commutative_basis(4)
    assert all(isinstance(x, tuple)
               for x in (B.monomials, B.swaps, B.laws, *B.swaps))
    ms = multilinear_monomials(5)
    ms.clear()
    assert multilinear_monomials(5) == list(B.monomials) and len(B.monomials) == 105
    with pytest.raises(ValueError):
        commutative_basis(5, "balanced_first")
    with pytest.raises(ValueError):
        commutative_basis(4, "nope")


@settings(max_examples=60)
@given(st.sampled_from(multilinear_monomials(4)), st.data())
def test_canonical_stable_under_swaps(tree, data):
    def shuffle(t):
        if isinstance(t, str):
            return t
        l, r = shuffle(t[0]), shuffle(t[1])
        return (r, l) if data.draw(st.booleans()) else (l, r)

    assert canonical_commutative(shuffle(tree)) == tree


def test_catalog_degrees():
    expected = {
        "tortken": 4, "tortken_left": 4, "tortken_prime": 4,
        "right_symmetric": 3, "left_commutative": 3, "right_commutative": 3,
        "leibniz_dual_left": 3, "leibniz_left": 3, "leibniz_right": 3,
        "commutativity": 2, "assoc_jordan_deg4": 4, "gametic_jordan": 4,
        "right_unit_law": 3, "alt_right_mult": 4, "cyclic_assoc_middle": 4,
        "cyclic_assoc_outer": 4, "cyclic_assoc_nested": 5,
        "deg5_i": 5, "deg5_ii": 5, "deg5_iii": 5, "deg5_iv": 5, "sokolov": 4,
    }
    for name, deg in expected.items():
        assert catalog_entry(name).degree == deg, name
    for i in range(1, 6):
        assert catalog_entry(f"deg4_basis_{i}").degree == 4


def test_catalog_coefficients_are_integers():
    # identity_space coerces them into F_p, which cannot fail on integers
    for entry in catalog():
        assert all(c.denominator == 1 for c in entry.poly.terms.values()), \
            entry.name


def test_deg5_iv_shape():
    entry = catalog_entry("deg5_iv")
    assert len(entry.poly.terms) == 6
    for t in entry.poly.terms:
        # left-combed prefix in x,a,b,c with y outermost
        assert t[1] == "y"
        inner = t[0]
        assert inner[0][0][0] == "x"


def test_deg5_ii_multilinear():
    entry = catalog_entry("deg5_ii")
    assert len(entry.poly.terms) == 6
    assert entry.poly.is_multilinear()
    assert 3 in entry.excluded_chars and 5 not in entry.excluded_chars


def test_is_multilinear():
    assert catalog_entry("tortken").poly.is_multilinear()
    assert not parse("x*x", ("x",)).is_multilinear()
    assert catalog_entry("deg5_ii").poly.is_multilinear()


def test_polarize_multilinear_passthrough():
    t = catalog_entry("tortken").poly
    assert polarize(t) == [t]


def test_polarize_square():
    out = polarize(parse("x*x", ("x",)))
    assert len(out) == 1
    assert out[0] == parse("t1*t2 + t2*t1", ("t1", "t2"))


def test_polarize_outputs_multilinear():
    for expr, variables in [("((x*x)*y)*x - (x*x)*(y*x)", ("x", "y")),
                            ("x*(x*x) + 2*(x*x)*y", ("x", "y"))]:
        for part in polarize(parse(expr, variables)):
            assert part.is_multilinear()


def _substituted_multilinear_parts(poly):
    """Polarization by substitution: for each multidegree, the multilinear
    part of poly with each variable of degree d replaced by the sum of its d
    fresh names, expanded with FreePoly arithmetic."""
    sigs = sorted({tuple(tree_leaves(t).count(v) for v in poly.variables)
                   for t in poly.terms})
    parts = []
    for sig in sigs:
        names = [f"t{i + 1}" for i in range(sum(sig))]
        fresh = iter(names)
        sums = {v: sum((FreePoly.var(next(fresh), names) for _ in range(d)),
                       FreePoly(names)) for v, d in zip(poly.variables, sig)}

        def subst(t):
            return sums[t] if isinstance(t, str) else subst(t[0]) * subst(t[1])

        total = FreePoly(names)
        for t, c in poly.terms.items():
            total = total + subst(t).scale(c)
        part = FreePoly(names, {t: c for t, c in total.terms.items()
                                if sorted(tree_leaves(t)) == sorted(names)})
        if not part.is_zero():
            parts.append(part)
    return parts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(trees, st.integers(-5, 5).filter(bool)),
                min_size=1, max_size=4))
def test_polarize_matches_substitution(items):
    poly = FreePoly(ABC)
    for t, c in items:
        poly = poly + FreePoly.monomial(t, ABC, c)
    want = [poly] if poly.is_multilinear() else _substituted_multilinear_parts(poly)
    assert polarize(poly) == want


def test_polarize_degree_7():
    x = FreePoly.var("x", ("x",))
    parts = polarize(((x * x) * (x * x)) * ((x * x) * x))
    assert len(parts) == 1 and len(parts[0].terms) == 5040


def test_polarize_refuses_degree_10_before_expanding():
    # the 10! namings are counted, not built (building them runs out of
    # memory), and the error names the count
    x = FreePoly.var("x", ("x",))
    law = x
    for _ in range(9):
        law = law * x
    with pytest.raises(PolarizationTooLargeError, match=" 3628800 namings"):
        polarize(law)


def test_every_catalog_law_polarizes_within_the_bound():
    assert POLARIZE_BOUND >= 5040  # a one-variable monomial of degree 7
    for entry in catalog():
        assert polarize(entry.poly)


def test_mu_vector_deg4_basis():
    # the five stored kernel polynomials written on the balanced-first basis
    expected = {
        "deg4_basis_1": (0, 0, 0, -1, 1, 1, -1, -1, 1, 0, 0, 0, 0, 0, 0),
        "deg4_basis_2": (0, 1, -1, 0, 0, 1, 0, -1, 0, -1, 0, 1, 0, 0, 0),
        "deg4_basis_3": (0, 1, -1, -1, 1, 1, 0, -1, 0, 0, -1, 0, 1, 0, 0),
        "deg4_basis_4": (1, 0, -1, 0, 1, 1, -1, -1, 0, -1, 0, 0, 0, 1, 0),
        "deg4_basis_5": (1, 0, -1, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 0, 1),
    }
    for name, vec in expected.items():
        got = mu_vector(catalog_entry(name).poly, BALANCED_FIRST_DEG4)
        assert tuple(got) == vec, name


def test_rename_variables():
    t = catalog_entry("tortken").poly
    renamed = t.rename_variables({"a": "t1", "b": "t3", "c": "t2", "d": "t4"})
    assert renamed.terms == catalog_entry("deg4_basis_2").poly.terms


@pytest.mark.parametrize("name, commutative, blocks", [
    ("tortken", True, [(0, 2), (1, 3)]),         # a<->c and b<->d
    ("tortken", False, [(0,), (1, 3), (2,)]),    # b<->d only
    ("deg5_iv", False, [(0, 1, 2), (3,), (4,)]),  # alternating in a, b, c
    ("deg5_iv", True, [(0, 1, 2), (3,), (4,)]),
    ("cyclic_assoc_nested", True, [(0, 1, 2), (3, 4)]),
    ("cyclic_assoc_nested", False, [(0,), (1,), (2,), (3, 4)]),
    ("alt_right_mult", False, [(0,), (1, 2, 3)]),
    ("alt_right_mult", True, [(0,), (1, 2, 3)]),
])
def test_symmetry_blocks(name, commutative, blocks):
    assert symmetry_blocks(catalog_entry(name).poly, commutative) == blocks


def _reduced_form(poly, commutative):
    out = {}
    for t, c in poly.terms.items():
        key = canonical_commutative(t) if commutative else t
        out[key] = out.get(key, 0) + c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("commutative", [False, True])
def test_symmetry_blocks_are_the_signed_transpositions(commutative):
    # positions share a block exactly when swapping them maps the law to
    # plus or minus itself, on every multilinear catalog law
    for entry in catalog():
        poly = entry.poly
        if not poly.is_multilinear():
            continue
        base = _reduced_form(poly, commutative)
        signed = (base, {t: -c for t, c in base.items()})
        block = {p: b for b in symmetry_blocks(poly, commutative) for p in b}
        assert sorted(block) == list(range(len(poly.variables)))
        for i, j in itertools.combinations(range(len(poly.variables)), 2):
            a, b = poly.variables[i], poly.variables[j]
            swapped = _reduced_form(poly.rename_variables({a: b, b: a}),
                                    commutative)
            assert (swapped in signed) == (block[i] == block[j]), \
                (entry.name, a, b)


def test_symmetry_blocks_of_zero_poly():
    assert symmetry_blocks(FreePoly(ABC)) == [(0, 1, 2)]
