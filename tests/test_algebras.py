import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tortken.exactnum import Field, OutOfRangeError, binomial, combine
from tortken.freepoly import catalog_entry, parse
from tortken.identcheck import _integral, evaluate
from tortken import algebras
from tortken.algebras import (FiniteAlgebra, GradedAlgebra, NotADerivationError,
                              NotClosedError, OutOfWindowError,
                              PrereqIdentityFailsError, algebra_from_spec,
                              builtin_algebra, derivation_novikov,
                              derivation_symmetric, divided_power, gametic,
                              integration_product, minus, opposite,
                              osborn, osborn_bar, osborn_bar_finite,
                              osborn_bar_laurent, osborn_bar_laurent_beta,
                              osborn_laurent, osborn_plus_explicit, p2_product,
                              plus, random_commutative, square_product,
                              standard_derivation, subalgebra_on_basis,
                              tensor_leibniz, twist)

F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rationals()


def test_divided_power_products():
    O = divided_power(3, 1)
    assert O.mul(O.basis(1), O.basis(1)) == {2: 2}
    # unit
    preds = O.predicates()
    assert preds["unit"] == {0: 1}
    assert preds["is_commutative"] and preds["is_associative"]
    # x^(1) x^(2) vanishes for two independent reasons
    assert O.mul(O.basis(1), O.basis(2)) == {}
    assert binomial(3, 1) % 3 == 0


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1), (2, 3)])
def test_divided_power_truncation_is_subalgebra(p, m):
    # every dropped boundary product has binomial coefficient 0 mod p
    dim = p**m
    for i in range(dim):
        for j in range(dim):
            if i + j >= dim:
                assert binomial(i + j, i) % p == 0


def test_divided_power_char0_window():
    O = divided_power(0, 4)
    assert isinstance(O, GradedAlgebra)
    assert O.mul(O.basis(1), O.basis(1)) == {2: 2}
    with pytest.raises(OutOfWindowError):
        O.mul(O.basis(3), O.basis(2))
    with pytest.raises(ValueError):
        divided_power(4, 1)


def test_standard_derivation_validates():
    O = divided_power(3, 1)
    D = standard_derivation(O)
    A = derivation_novikov(O, D)
    assert A.mul(A.basis(1), A.basis(0)) == {0: 1}
    # broken map: D(x^(2)) = x^(2) is not a derivation
    bad = lambda i: {2: 1} if i == 2 else D(i)
    with pytest.raises(NotADerivationError) as err:
        derivation_novikov(O, bad)
    assert err.value.witness in {(i, j) for i in range(3) for j in range(3)}


def test_derivation_novikov_zero_map():
    O = divided_power(3, 1)
    A = derivation_novikov(O, lambda i: {})
    assert all(A.mul(A.basis(i), A.basis(j)) == {}
               for i in range(3) for j in range(3))


def test_derivation_symmetric_equals_plus_of_novikov():
    for (p, m) in ((3, 1), (3, 2), (5, 1)):
        O = divided_power(p, m)
        D = standard_derivation(O)
        assert derivation_symmetric(O, D) == plus(derivation_novikov(O, D))


def test_derivation_symmetric_char0():
    O = divided_power(0, 4)
    A = derivation_symmetric(O, standard_derivation(O))
    assert A.mul(A.basis(1), A.basis(1)) == {1: 2}
    assert A.mul(A.basis(0), A.basis(0)) == {}


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_osborn_plus_matches_explicit(p, m, alpha, beta):
    assert plus(osborn(alpha, beta, p, m)) == osborn_plus_explicit(alpha, beta, p, m)


def test_osborn_reduces_to_derivation_product():
    O = divided_power(3, 2)
    assert osborn(0, 0, 3, 2) == derivation_novikov(O, standard_derivation(O))


def test_osborn_plus_explicit_products():
    p, m = 5, 1
    for alpha in (0, 2):
        for beta in (0, 3):
            A = osborn_plus_explicit(alpha, beta, p, m)
            f = A.field
            top, sub = p**m - 1, p**m - 2
            one = A.basis(0)
            expect = {}
            if beta:
                expect[sub] = f.coerce(2 * beta)
            if alpha:
                expect[top] = f.coerce(2 * alpha)
            assert A.mul(one, one) == expect
            got = A.mul(one, A.basis(1))
            expect = {0: f.one}
            if beta:
                expect[top] = f.coerce(-2 * beta)
            assert got == expect
            for j in range(2, p**m):
                assert A.mul(one, A.basis(j))[j - 1] == f.one


def test_osborn_rejects_small_char():
    with pytest.raises(ValueError):
        osborn(1, 0, 2, 3)


def test_osborn_laurent_products():
    L = osborn_laurent(0, 0, -6, 6, "jordan")
    assert L.mul(L.basis(2), L.basis(3)) == {4: 5}
    # e-basis form e_i = x^(i+1): e_i * e_j = (i+j+2) e_{i+j}
    for i in range(-3, 3):
        for j in range(-3, 3):
            got = L.mul(L.basis(i + 1), L.basis(j + 1))
            want = {i + j + 1: Fraction(i + j + 2)} if i + j + 2 else {}
            assert got == want
    N = osborn_laurent(Fraction(1, 2), 2, -4, 4, "novikov")
    assert N.mul(N.basis(1), N.basis(1)) == {1: Fraction(3, 2), 0: 2}
    with pytest.raises(ValueError):
        osborn_laurent(0, 0, 3, 1)


def test_osborn_laurent_excluded_coefficient_vanishes():
    # with beta = 0 and 2*alpha integral, no product reaches x^(-2a-1)
    for alpha in (Fraction(1, 2), 1, Fraction(-1, 2), 2):
        L = osborn_laurent(alpha, 0, -8, 8, "jordan")
        excluded = int(-2 * alpha - 1)
        for i in L.indices:
            for j in L.indices:
                assert all(k != excluded for k, _ in L.product(i, j))


def test_osborn_bar_laurent():
    A = osborn_bar_laurent(Fraction(1, 2), -6, 6)
    assert -2 not in A.indices
    assert A.mul(A.basis(1), A.basis(2)) == {2: 4}
    with pytest.raises(ValueError):
        osborn_bar_laurent(Fraction(1, 3), -6, 6)


def test_osborn_bar_laurent_checks_closure(monkeypatch):
    # a product that reaches the excluded index -2a-1 must raise, even under
    # `python -O`; fake one by routing every product there
    monkeypatch.setattr(GradedAlgebra, "product",
                        lambda self, i, j: ((-2, Fraction(1)),))
    with pytest.raises(NotClosedError):
        osborn_bar_laurent(Fraction(1, 2), -6, 6)


def test_osborn_bar_finite_dimension():
    B = osborn_bar_finite(1, 3, 1)
    assert B.dim == 3**1 - 1 == 2
    # products computed earlier by hand: u*u = v, u*v = u, v*v = 2v
    assert B.mul(B.basis(0), B.basis(0)) == {1: 1}
    assert B.mul(B.basis(0), B.basis(1)) == {0: 1}
    assert B.mul(B.basis(1), B.basis(1)) == {1: 2}
    assert osborn_bar_finite(0, 3, 2).dim == 8


def test_osborn_bar_laurent_beta_closure():
    A = osborn_bar_laurent_beta(Fraction(1, 1), -10, 6)
    # in-window products never leak onto x^-1
    for i in range(-3, 4):
        if i == -1:
            continue
        for j in range(-3, 4):
            if j == -1:
                continue
            A.product(i, j)
    # y^0 * y^0 = -2b y^-2 + 8b^3 y^-4 at beta=1
    assert A.mul(A.basis(0), A.basis(0)) == {-2: -2, -4: 8}
    # beta = 0 collapses to the plain Laurent span without x^-1
    Z = osborn_bar_laurent_beta(0, -6, 6)
    L = osborn_laurent(0, 0, -6, 6, "jordan")
    for i in Z.indices:
        for j in Z.indices:
            if abs(i + j - 1) <= 5 and i + j - 1 != -1:
                assert dict(Z.product(i, j)) == dict(L.product(i, j))


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(-5, 2), Fraction(0)])
def test_osborn_bar_laurent_beta_solves_in_the_y_basis(beta):
    # each product, expanded back through y^t = x^t + 2b/(t+1) x^(t-1) for
    # t > -1, is the alpha = 0 jordan product of the two expansions
    A = osborn_bar_laurent_beta(beta, -6, 5)
    L = osborn_laurent(0, beta, -20, 20, "jordan")
    in_x = lambda t: L.element({t: 1, t - 1: 2 * beta / (t + 1)} if t > -1
                               else {t: 1})
    for i in A.indices:
        for j in A.indices:
            got = combine(Q, ((c, in_x(t)) for t, c in A.product(i, j)))
            assert got == L.mul(in_x(i), in_x(j)), (i, j)


def test_osborn_bar_laurent_beta_checks_closure(monkeypatch):
    # at alpha = 1 the y basis is not closed, and the solve must say so
    rule = algebras._laurent_rule
    monkeypatch.setattr(algebras, "_laurent_rule",
                        lambda alpha, beta, variant: rule(1, beta, variant))
    with pytest.raises(NotClosedError, match="x\\^-1 leakage"):
        osborn_bar_laurent_beta(1, -3, 3)


def test_osborn_bar_dispatcher():
    assert osborn_bar("finite_beta", beta=1, p=3, m=1).dim == 2
    assert -2 not in osborn_bar("laurent_alpha", alpha=Fraction(1, 2),
                                lo=-4, hi=4).indices
    assert -1 not in osborn_bar("laurent_beta", beta=1, lo=-6, hi=4).indices
    with pytest.raises(ValueError):
        osborn_bar("nope")


def test_gametic():
    G = gametic(3)
    preds = G.predicates()
    assert preds["is_associative"] and not preds["is_commutative"]
    assert preds["has_left_unit"] and not preds["has_right_unit"]
    P = plus(G)
    for i in range(3):
        for j in range(3):
            want = {i: Fraction(2)} if i == j else {i: 1, j: 1}
            assert P.mul(P.basis(i), P.basis(j)) == want


def test_integration_product():
    I = integration_product(6)
    assert I.mul(I.basis(0), I.basis(0)) == {1: 1}
    assert I.mul(I.basis(1), I.basis(1)) == {3: Fraction(1, 2)}
    with pytest.raises(OutOfWindowError):
        I.mul(I.basis(4), I.basis(4))


def test_square_product_reductions():
    O = divided_power(3, 2)
    assert square_product(3, 0, 0, 2) == derivation_symmetric(
        O, standard_derivation(O))
    with pytest.raises(ValueError):
        square_product(3, 2, 1, 2)


def test_p2_product():
    P = p2_product(1, 3)
    assert P.is_commutative()
    assert P == square_product(2, 1, 2, 3)
    with pytest.raises(ValueError):
        p2_product(0, 3)


def test_plus_minus_opposite():
    G = gametic(3)
    assert opposite(opposite(G)) == G
    O = divided_power(3, 1)
    doubled = plus(O)
    for i in range(3):
        for j in range(3):
            assert doubled.mul(doubled.basis(i), doubled.basis(j)) == \
                combine(O.field, [(2, O.mul(O.basis(i), O.basis(j)))])
    zero = minus(O)
    assert all(zero.mul(zero.basis(i), zero.basis(j)) == {}
               for i in range(3) for j in range(3))


def test_twist():
    A = osborn(1, 0, 5, 1)
    ident = [A.basis(i) for i in range(A.dim)]
    assert twist(A, ident) == A
    zero = twist(A, [{} for _ in range(A.dim)])
    assert all(zero.mul(zero.basis(i), zero.basis(j)) == {}
               for i in range(A.dim) for j in range(A.dim))
    with pytest.raises(ValueError):
        twist(A, ident[:2])


def _lie2() -> FiniteAlgebra:
    return FiniteAlgebra("lie2", Q, 2, [[{}, {0: 1}], [{0: -1}, {}]], ["e", "f"])


def test_tensor_leibniz():
    T = tensor_leibniz(_lie2(), integration_product(8))
    assert isinstance(T, GradedAlgebra)
    # [e,f] (x) 1*1 = e (x) x
    got = T.mul(T.basis((0, 0)), T.basis((1, 0)))
    assert got == {(0, 1): 1}
    abelian = FiniteAlgebra("ab", Q, 2, [[{}, {}], [{}, {}]])
    Z = tensor_leibniz(abelian, integration_product(4))
    assert all(Z.mul(Z.basis(i), Z.basis(j)) == {}
               for i in Z.indices for j in Z.indices)


def test_tensor_leibniz_prereq_failure():
    not_leibniz = gametic(2)  # e_i e_j = e_j is not a right Leibniz bracket
    dual = opposite(integration_product(4))
    for g, R, law, failing in ((not_leibniz, integration_product(4),
                                "leibniz_right", not_leibniz),
                               (_lie2(), dual, "leibniz_dual_left", dual)):
        with pytest.raises(PrereqIdentityFailsError) as err:
            tensor_leibniz(g, R)
        assert err.value.identity == law
        # the witness is an assignment that re-evaluates to a nonzero value
        poly = catalog_entry(law).poly
        assert evaluate(poly, failing, err.value.witness)


def test_predicates_osborn_plus():
    A = osborn_plus_explicit(0, 0, 3, 1)
    preds = A.predicates()
    assert preds["is_commutative"]
    assert not preds["has_left_unit"] and not preds["has_right_unit"]
    assert preds["unit"] is None


def test_graded_shift_bound_validation():
    with pytest.raises(ValueError):
        GradedAlgebra("bad", Q, range(0, 4),
                      lambda i, j: ((i + j, 1),), drop_bounds=(1, 1))
    GradedAlgebra("ok", Q, range(0, 4),
                  lambda i, j: ((i + j - 1, 1),), drop_bounds=(1, 1))


def test_finite_algebra_json_round_trip():
    for A in (gametic(3), osborn(1, 1, 3, 1),
              random_commutative(3, F5, seed=2)):
        B = FiniteAlgebra.from_json(A.to_json())
        assert B == A
        assert B.labels == A.labels and B.name == A.name


def test_algebra_from_spec():
    A = algebra_from_spec({"kind": "gametic", "params": {"dim": 2}})
    assert A.dim == 2
    B = algebra_from_spec(gametic(2).to_spec())
    assert B == A
    with pytest.raises(ValueError):
        algebra_from_spec({"kind": "no-such-algebra"})


def test_builtin_registry():
    assert builtin_algebra("osborn-plus", p=3, m=1, alpha=1, beta=0).dim == 3
    assert builtin_algebra("divided-power", p=0, N=4).indices == tuple(range(5))
    assert builtin_algebra("square-product", p=3, k=0, l=1, m=2).dim == 9
    assert builtin_algebra("osborn-laurent", alpha="1/2", beta=0,
                           lo=-4, hi=4).indices[0] == -4
    with pytest.raises(ValueError, match="'p'"):
        builtin_algebra("gametic", dim=2, p=3)
    with pytest.raises(ValueError, match="'m'"):
        builtin_algebra("osborn", p=3)


# both branches of each kind whose promised laws depend on its parameters
_LAW_BRANCHES = {
    "osborn-laurent": ({"variant": None}, {"variant": "novikov"}),
    "square-product": ({"p": 3, "k": 0, "l": 1}, {"p": 2, "k": 0, "l": 1}),
}


def test_every_promised_law_is_in_the_catalog():
    # a misspelt law name fails here, not in a user's `algebra validate`
    promised = [algebras.TORTKEN_LAWS,
                algebras.builtin_laws("structure_constants", {})]
    for kind in algebras._BUILTINS:
        branches = [algebras.builtin_laws(kind, params)
                    for params in _LAW_BRANCHES.get(kind, ({},))]
        assert len(branches) == len({str(laws) for laws in branches}), kind
        promised += branches
    for laws in promised:
        assert laws and all(tag and names for tag, names in laws)
        for _, names in laws:
            for name in names:
                assert catalog_entry(name).name == name


def test_subalgebra_on_basis_not_closed():
    O = divided_power(3, 1)
    with pytest.raises(NotClosedError):
        subalgebra_on_basis(O, [O.basis(1)], "bad")
    with pytest.raises(ValueError):
        subalgebra_on_basis(O, [O.basis(1), O.basis(1)], "dependent")


# -- functors against their definitions -----------------------------------------
#
# A window algebra W built by the same constructor on a wider window holds every
# product of two basis elements of A's window, so ab + ba, ab - ba and ba come
# from W.mul alone; a functor of A must agree with them where they stay in A's
# window and raise OutOfWindowError exactly where they leave it.

FIELDS = (Field.prime(2), F3, Q)


@st.composite
def closed_tables(draw):
    f = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 4))
    coef = st.integers(0, f.char - 1) if f.char else st.integers(-2, 2)
    # cells as pair lists, repeated indices included
    cell = st.lists(st.tuples(st.integers(0, dim - 1), coef), max_size=3)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = FiniteAlgebra("random", f, dim, table)
    return A, A


@st.composite
def windows(draw):
    """(A, W): a window algebra and the same construction on a window that
    holds every product of two basis elements of A."""
    kind = draw(st.sampled_from(["laurent", "integration", "divided"]))
    if kind == "laurent":
        alpha = draw(st.sampled_from([0, Fraction(1, 2), 1]))
        beta = draw(st.sampled_from([0, 1]))
        variant = draw(st.sampled_from(["jordan", "novikov"]))
        lo, hi = draw(st.integers(-3, 0)), draw(st.integers(0, 3))
        return (osborn_laurent(alpha, beta, lo, hi, variant),
                osborn_laurent(alpha, beta, 2 * lo - 2, max(hi, 2 * hi - 1),
                               variant))
    n = draw(st.integers(0, 4))
    if kind == "integration":
        return integration_product(n), integration_product(2 * n + 1)
    return divided_power(0, n), divided_power(0, 2 * n)


def _assert_agrees(B, A, want_fn):
    """B's product of every basis pair of A is want_fn(i, j), or raises
    OutOfWindowError exactly when that leaves A's window."""
    assert type(B) is type(A) and B.indices == A.indices
    for i in A.indices:
        for j in A.indices:
            want = want_fn(i, j)
            if all(k in A.position for k in want):
                assert B.mul(B.basis(i), B.basis(j)) == want, (i, j)
            else:
                with pytest.raises(OutOfWindowError):
                    B.mul(B.basis(i), B.basis(j))


@settings(max_examples=60, deadline=None)
@given(st.one_of(closed_tables(), windows()))
def test_functors_match_their_definitions(pair):
    A, W = pair
    f = A.field
    ab = lambda i, j: W.mul(W.basis(i), W.basis(j))
    _assert_agrees(plus(A), A, lambda i, j: combine(f, [(1, ab(i, j)), (1, ab(j, i))]))
    _assert_agrees(minus(A), A, lambda i, j: combine(f, [(1, ab(i, j)), (-1, ab(j, i))]))
    _assert_agrees(opposite(A), A, lambda i, j: ab(j, i))
    assert plus(A).labels == A.labels
    assert A.closed == all(all(k in A.position for k in ab(i, j))
                           for i in A.indices for j in A.indices)


# -- canonical sparse sums against a dense oracle ------------------------------
#
# Products, sums, scalings and evaluations return canonical elements: no stored
# zero, a `Fraction` over Q and an int in [0, p) over F_p.  The oracle works on
# dense vectors of the raw table, with the `Field` arithmetic alone.

_SUM_POLYS = (catalog_entry("commutativity").poly,
              catalog_entry("associativity").poly,
              parse("2*(a*b)*c - 3*a*(b*c) + b*a - 4*c*c", ("a", "b", "c")))


@st.composite
def raw_sums(draw):
    """(field, raw table, algebra, three elements, a raw scalar): raw values
    out of [0, p) over F_p, and ints and fractions over Q."""
    f = draw(st.sampled_from((Q, Field.prime(2), F3, F5)))
    dim = draw(st.integers(1, 3))
    coef = st.integers(-6, 6)
    if not f.char:
        coef = coef | st.fractions(-3, 3, max_denominator=3)
    cell = st.lists(st.tuples(st.integers(0, dim - 1), coef), max_size=3)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = FiniteAlgebra("random", f, dim, table)
    els = [A.element(draw(st.dictionaries(st.integers(0, dim - 1), coef)))
           for _ in range(3)]
    return f, table, A, els, draw(coef)


def _is_canonical(f, e: dict) -> bool:
    return all((type(v) is int and 0 < v < f.char) if f.char
               else (type(v) is Fraction and v != 0) for v in e.values())


@settings(max_examples=150, deadline=None)
@given(raw_sums())
def test_sparse_sums_are_canonical_and_match_a_dense_oracle(case):
    f, table, A, (x, y, z), c = case
    n = A.dim

    def mul(u, v):  # dense product on the raw table
        out = [f.zero] * n
        for i, j in itertools.product(range(n), repeat=2):
            for k, ck in table[i][j]:
                out[k] = f.add(out[k], f.mul(f.mul(u[i], v[j]), f.coerce(ck)))
        return out

    def value(tree, at):
        return at[tree] if isinstance(tree, str) else mul(
            value(tree[0], at), value(tree[1], at))

    def evaluated(poly, at):
        out = [f.zero] * n
        for tree, coef in poly.terms.items():
            out = [f.add(s, f.mul(f.coerce(coef), t))
                   for s, t in zip(out, value(tree, at))]
        return out

    X, Y, Z = map(A.dense, (x, y, z))
    got = [(A.mul(x, y), mul(X, Y)),
           (combine(f, [(1, x), (1, y)]), [f.add(a, b) for a, b in zip(X, Y)]),
           (combine(f, [(1, x), (-1, y)]), [f.sub(a, b) for a, b in zip(X, Y)]),
           (combine(f, [(c, x)]), [f.mul(f.coerce(c), a) for a in X]),
           (combine(f, ((c, e) for e in (x, y, z))),  # a generator
            [f.mul(f.coerce(c), f.add(f.add(a, b), d)) for a, b, d in zip(X, Y, Z)]),
           (combine(f, []), [f.zero] * n),  # the empty sum, then four that cancel
           (combine(f, [(1, x), (-1, x)]), [f.zero] * n),
           (combine(f, [(1, x), (1, combine(f, [(-1, x)]))]), [f.zero] * n),
           (combine(f, [(0, x)]), [f.zero] * n),
           (evaluate(_SUM_POLYS[0], A, {"a": x, "b": x}), [f.zero] * n)]
    for poly in _SUM_POLYS:
        at = {"a": x, "b": y, "c": z}
        got.append((evaluate(poly, A, at),
                    evaluated(poly, {v: A.dense(at[v]) for v in at})))
    for e, dense in [(x, X), (y, Y), (z, Z)] + got:
        assert _is_canonical(f, e), e
        assert e == {k: v for k, v in enumerate(dense) if not f.is_zero(v)}
    if not f.char:  # over the int scalars of D*A a sum stays in plain ints
        E = math.lcm(*(v.denominator for v in X + Y))
        XI, YI = ([(v * E).numerator for v in V] for V in (X, Y))
        e = combine(_integral(A)[0].field,
                    [(c.numerator, dict(enumerate(XI))), (-2, dict(enumerate(YI)))])
        assert all(type(v) is int for v in e.values()), e
        assert e == {k: v for k, v in enumerate(c.numerator * a - 2 * b
                                                  for a, b in zip(XI, YI)) if v}


def _truncated_integration(n: int) -> FiniteAlgebra:
    """x^i x^j = x^(i+j+1)/(j+1) modulo span{x^k : k >= n}: a finite left
    Leibniz dual algebra."""
    return FiniteAlgebra(f"integration_mod({n})", Q, n, [
        [{i + j + 1: Fraction(1, j + 1)} if i + j + 1 < n else {}
         for j in range(n)] for i in range(n)])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.booleans())
def test_tensor_leibniz_matches_its_definition(n, finite):
    g = _lie2()
    R, W = ((_truncated_integration(n),) * 2 if finite
            else (integration_product(n), integration_product(2 * n + 1)))
    T = tensor_leibniz(g, R)
    assert type(T) is type(R) and T.closed == finite
    for gi, ri in T.indices:
        for gj, rj in T.indices:
            want = {(gk, rk): cb * cr
                    for gk, cb in g.mul(g.basis(gi), g.basis(gj)).items()
                    for rk, cr in W.mul(W.basis(ri), W.basis(rj)).items()}
            a, b = T.basis((gi, ri)), T.basis((gj, rj))
            if all(rk in R.position for _, rk in want):
                assert T.mul(a, b) == want
            else:
                with pytest.raises(OutOfWindowError):
                    T.mul(a, b)


# just above the budget: 513^2 and 521^2 cells exceed 2^18 = 512^2 (521 is
# prime), and each builder refuses before any table is made
@pytest.mark.parametrize("build", [
    lambda: gametic(513),
    lambda: random_commutative(513, Q, 0),
    lambda: divided_power(521, 1),
    lambda: divided_power(3, 10**9),  # no power 3^(10^9) is taken
    lambda: divided_power(0, 512),
    lambda: osborn(1, 1, 521, 1),
    lambda: osborn_plus_explicit(1, 1, 521, 1),
    lambda: osborn_bar_finite(1, 521, 1),
    lambda: square_product(521, 0, 0, 1),
    lambda: osborn_laurent(1, 0, 0, 512),
    lambda: osborn_bar_laurent(1, 0, 513),
    lambda: osborn_bar_laurent_beta(1, 0, 513),
    lambda: integration_product(512),
    lambda: algebra_from_spec({"kind": "structure_constants",
                               "field": {"char": 0}, "dim": 513, "table": []}),
    lambda: builtin_algebra("gametic", dim=10**6),
], ids=["gametic", "random", "divided-power", "divided-power-huge-m",
        "divided-power-Q", "osborn", "osborn-plus", "osborn-bar-finite",
        "square-product", "laurent", "bar-laurent", "bar-laurent-beta",
        "integration", "spec", "builtin"])
def test_table_budget_refuses_every_builder(build):
    with pytest.raises(OutOfRangeError, match="TABLE_BUDGET = 262144"):
        build()


def test_table_budget_admits_its_bound():
    assert algebras.TABLE_BUDGET == 512 ** 2
    assert algebras._budget(512, "dim 512") == 512
    with pytest.raises(OutOfRangeError):
        algebras._budget(513, "dim 513")
