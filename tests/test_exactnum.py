import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dense_rref import dense_mul_vec, dense_nullspace, dense_rref, dense_solve
from tortken.exactnum import (Echelon, Field, Matrix, NotDivisibleError,
                              NotSquareError, OutOfRangeError,
                              binom_p_quotient, binomial, lucas_binomial)

Q = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


def test_scalar_errors():
    with pytest.raises(ZeroDivisionError):
        F3.coerce(Fraction(1, 3))
    # no floating point, not even a float with an exact binary value
    for f in (Q, F5):
        for x in (2.0, 0.1, 1j, float("nan")):
            with pytest.raises(TypeError, match="floating point"):
                f.coerce(x)
    with pytest.raises(TypeError, match="floating point"):
        Matrix(F5, [[0.5, 1], [1, 2]]).det()
    with pytest.raises(TypeError, match="floating point"):
        Echelon(Q, 2).add([Fraction(1, 2), 0.25])


def test_field_construction():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field(4)
    assert Field(7).char == 7


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
residues5 = st.integers(min_value=0, max_value=4)


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    f = Q
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


@given(residues5, residues5, residues5)
def test_field_axioms_f5(a, b, c):
    f = F5
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_binomial_examples():
    assert binomial(2, 1) == 2
    assert binomial(4, 2) == 6
    assert binomial(6, 3) % 3 == 2
    assert binomial(5, -1) == 0
    assert binomial(5, 7) == 0
    with pytest.raises(OutOfRangeError):
        binomial(-1, 0)


def test_pascal_rule():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_property(p):
    for n in range(201):
        for k in range(n + 1):
            assert lucas_binomial(n, k, p) == math.comb(n, k) % p


def test_binom_p_quotient():
    assert binom_p_quotient(3, 1, 1) == 1          # C(3,1)/3 = 1
    assert binom_p_quotient(3, 2, 3) == 1          # C(9,3)/3 = 28 = 1 mod 3
    assert binom_p_quotient(2, 2, 2) == 1          # C(4,2)/2 = 3 = 1 mod 2
    with pytest.raises(OutOfRangeError):
        binom_p_quotient(3, 1, 0)
    with pytest.raises(OutOfRangeError):
        binom_p_quotient(3, 1, 3)


def test_binom_p_quotient_checks_divisibility(monkeypatch):
    # the check is an explicit raise, so it survives `python -O`
    monkeypatch.setattr(math, "comb", lambda n, k: 29)  # C(9, 3) is 84
    with pytest.raises(NotDivisibleError):
        binom_p_quotient(3, 2, 3)


def test_rref_examples():
    ident = Matrix.identity(Q, 3)
    R, rank, pivots = ident.rref()
    assert R == ident and rank == 3 and pivots == (0, 1, 2)
    Z = Matrix.zero(F5, 2, 5)
    assert Z.rref()[1] == 0
    assert Z.nullspace() == [list(r) for r in Matrix.identity(F5, 5).data]


def test_nullspace_examples():
    assert Matrix.identity(Q, 3).nullspace() == []
    m = Matrix(F3, [[1, 1]])
    assert m.nullspace() == [[2, 1]]
    for v in m.nullspace():
        assert all(x == 0 for x in m.mul_vec(v))


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(2, 5), st.data())
def test_rref_idempotent_and_nullspace(rows, cols, data):
    entries = [[data.draw(small_entries) for _ in range(cols)]
               for _ in range(rows)]
    for field in (Q, F5):
        m = Matrix(field, entries)
        R, rank, pivots = m.rref()
        R2, rank2, pivots2 = R.rref()
        assert R2 == R and rank2 == rank and pivots2 == pivots
        basis = m.nullspace()
        assert len(basis) == cols - rank
        for v in basis:
            assert all(field.is_zero(x) for x in m.mul_vec(v))


F2 = Field.prime(2)


# Q entries with unequal denominators, mixed with ints
q_entries = st.one_of(st.fractions(-50, 50, max_denominator=30),
                      st.integers(-4, 4))


@st.composite
def _row_spaces(draw):
    """(field, cols, rows, rhs, probe): rows drawn from a few base rows,
    combinations of two of them (which cancel in elimination), zero rows and
    unit rows, so that zero rows, duplicates, rank 0 and rank `cols` all
    occur; probe is one more vector."""
    f = draw(st.sampled_from((F2, F3, F5, Q)))
    cols = draw(st.integers(1, 5))
    entry = q_entries if f.char == 0 else st.integers(-4, 4)
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         max_size=3))
    if base:
        base += [[a * x + b * y for x, y in zip(u, v)] for u, v, a, b in draw(
            st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base),
                               entry, entry), max_size=2))]
    base += [[0] * cols] + [[int(i == j) for j in range(cols)]
                            for i in range(cols)]
    rows = draw(st.lists(st.sampled_from(base), min_size=1, max_size=7))
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    probe = draw(st.lists(entry, min_size=cols, max_size=cols))
    return f, cols, rows, rhs, probe


@settings(max_examples=200, deadline=None)
@given(_row_spaces())
@example((F3, 3, [[0, 0, 0], [0, 0, 0]], [0, 1], [1, 2, 0]))        # rank 0
@example((F5, 2, [[1, 2], [1, 2], [0, 0], [3, 1]], [1, 1, 0, 2], [1, 2]))
@example((Q, 3, [[1, 2, 3], [2, 4, 6], [0, 0, 0]], [1, 2, 0],      # duplicates
          [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]))
@example((Q, 3, [[Fraction(1, 6), Fraction(-3, 10), 2], [5, Fraction(1, 15), 0],
                 [Fraction(31, 6), Fraction(-7, 30), 2]], [1, 0, 1],
          [Fraction(-1, 30), 7, Fraction(5, 9)]))  # the third row cancels
def test_kernel_matches_dense_reference(case):
    f, cols, rows, rhs, probe = case
    m = Matrix(f, rows)
    R0, rank0, pivots0 = dense_rref(f, rows)
    R, rank, pivots = m.rref()
    assert (R.data, rank, pivots) == (R0, rank0, pivots0)
    assert m.rank() == rank0
    null = m.nullspace()
    assert null == dense_nullspace(f, rows, cols)
    assert m.solve(rhs) == dense_solve(f, rows, rhs, cols)
    consistent = dense_mul_vec(f, rows, rows[0])  # always solvable
    assert m.solve(consistent) == dense_solve(f, rows, consistent, cols)
    # the kernel on its own: any insertion order gives the same echelon rows
    ech = Echelon(f, cols)
    added = [ech.add(row) for row in reversed(rows)]
    assert (ech.rows, ech.dim) == (tuple(map(tuple, R0[:rank0])), rank0)
    # a sparse vector may repeat a column, and its entries add up
    split = Echelon(f, cols)
    inserted = [split.insert([(j, x - 1) for j, x in enumerate(row)]
                             + [(j, 1) for j in reversed(range(cols))])
                for row in rows]
    assert split.rows == ech.rows
    units = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for v in null + [[f.coerce(x) for x in u] for u in units]:
        want = all(f.is_zero(x) for x in dense_mul_vec(f, rows, v))
        assert ech.annihilates(v) is want
    # reduce(v) is v minus a vector of the span, zero on every pivot column,
    # and zero exactly when v lies in the span
    reduced = []
    for v in [probe] + units:
        red = ech.reduce(v)
        reduced += red
        assert all(f.is_zero(red[c]) for c in pivots0)
        diff = [f.sub(f.coerce(x), y) for x, y in zip(v, red)]
        assert dense_rref(f, rows + [diff])[1] == rank0
        inside = dense_rref(f, rows + [v])[1] == rank0
        assert (not any(red)) is inside
    # every value leaving the kernel is canonical: over Q a Fraction in
    # lowest terms, over F_p an int in [0, p); inside it, every row over Q
    # is int numerators over a positive denominator, in lowest terms
    values = [x for r in ech.rows for x in r] + [x for v in null for x in v]
    values += [x for res in added if res is not None for x in res] + reduced
    values += [x for res in inserted if res is not None for _, x in res]
    for x in values:
        if f.char:
            assert type(x) is int and 0 <= x < f.char
        else:
            assert type(x) is Fraction
            assert x.denominator > 0
            assert math.gcd(x.numerator, x.denominator) == 1
    if f.char == 0:
        for nums, d in ech._pivots.values():
            assert d > 0 and math.gcd(d, *nums) == 1


def test_det_examples():
    assert Matrix.identity(Q, 4).det() == 1
    rep = Matrix(Q, [[1, 2], [1, 2]])
    assert rep.det() == 0
    sys3 = Matrix(Q, [[5, 7, 6], [7, 6, 5], [6, 5, 7]])
    assert abs(sys3.det()) == 54
    with pytest.raises(NotSquareError):
        Matrix.zero(Q, 2, 3).det()


@settings(max_examples=40)
@given(st.integers(2, 4), st.data())
def test_det_matches_rank_deficiency(n, data):
    entries = [[data.draw(small_entries) for _ in range(n)] for _ in range(n)]
    m = Matrix(Q, entries)
    singular = m.rref()[1] < n
    assert (m.det() == 0) == singular


def _leibniz(f, rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = f.zero
    for perm in itertools.permutations(range(n)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        total = f.add(total, f.neg(term) if inversions % 2 else term)
    return total


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((Q, F2, F3, F5)), st.integers(1, 5), st.data())
def test_det_matches_leibniz(f, n, data):
    entry = q_entries if f.char == 0 else st.integers(-4, 4)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    m = Matrix(f, rows)
    assert m.det() == _leibniz(f, m.data)


def test_matrix_json_round_trip():
    m = Matrix(Q, [[Fraction(1, 2), 3], [Fraction(-7, 5), 0]])
    assert Matrix.from_json(Q, m.to_json()) == m
    m3 = Matrix(F3, [[1, 2], [0, 1]])
    assert Matrix.from_json(F3, m3.to_json()) == m3


def test_solve():
    m = Matrix(Q, [[1, 1], [0, 1]])
    assert m.solve([3, 2]) == [1, 2]
    assert Matrix(Q, [[1, 0], [1, 0]]).solve([1, 2]) is None
    with pytest.raises(ValueError):  # one right-hand side per row
        Matrix(Q, [[1, 0], [0, 1]]).solve([1])
