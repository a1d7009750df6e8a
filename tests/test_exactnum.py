import itertools
import math
import numbers
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dense_rref import (dense_det, dense_mul_vec, dense_nullspace, dense_rref,
                        dense_solve)
from tortken import exactnum
from tortken.algebras import osborn
from tortken.exactnum import (Echelon, Field, Matrix, NotDivisibleError,
                              NotSquareError, OutOfRangeError,
                              binom_p_quotient, binomial, is_prime,
                              lucas_binomial)

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


def _rational(n, d):
    """A `numbers.Rational` that is no `Fraction`: n over d, and nothing
    more (every abstract method is left out)."""
    names = dict.fromkeys(numbers.Rational.__abstractmethods__)
    return type("Ratio", (numbers.Rational,),
                {**names, "numerator": n, "denominator": d})()


class _Index:
    """An integer type that is no int: it has `__index__` alone."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_coerce_takes_exact_rationals_only():
    from decimal import Decimal
    for f in (Q, F5):
        for x in (Decimal("0.1"), Decimal("1.5"), Decimal(2), object(), [1]):
            with pytest.raises(TypeError, match=type(x).__name__):
                f.coerce(x)
    with pytest.raises(TypeError, match="Decimal"):
        Echelon(F5, 1).add([Decimal(1)])
    # an __index__ integer comes back as a plain int, a bool as 0 or 1
    for x, want in ((_Index(7), 2), (_Index(-3), 2), (True, 1)):
        assert type(F5.coerce(x)) is int and F5.coerce(x) == want
    assert type(Q.coerce(_Index(7))) is Fraction and Q.coerce(_Index(7)) == 7
    assert Matrix(F5, [[_Index(7), 1]]).data == [[2, 1]]
    assert Q.coerce(_rational(_Index(-6), 4)) == Fraction(-3, 2)
    assert F5.coerce(_rational(1, _Index(2))) == 3
    with pytest.raises(ZeroDivisionError):
        F5.coerce(_rational(1, 5))
    # strings and Fractions as before
    assert F5.coerce(Fraction(1, 2)) == 3 and Q.coerce("-3/4") == Fraction(-3, 4)
    assert F5.coerce("3/2") == 4 and type(Q.coerce(3)) is Fraction


def test_coerce_and_parse_take_the_same_strings():
    # the "a/b" form alone: no decimals, spaces or exponents, which
    # `Fraction` would read
    for f in (Q, F5):
        for text in ("1.5", " 1/2 ", "1e3"):
            for read in (f.coerce, f.parse):
                with pytest.raises(ValueError, match="need an int or an 'a/b' string"):
                    read(text)
        assert f.coerce("-3/4") == f.parse("-3/4") == f.coerce(Fraction(-3, 4))
    with pytest.raises(ValueError, match="'0.5'"):
        osborn("0.5", 0, 3, 1)


def test_field_construction():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field(4)
    assert Field(7).char == 7


def test_is_prime_matches_a_sieve_below_200000():
    # the sieve crosses off the multiples that trial division would find
    n = 200000
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [is_prime(k) for k in range(n)] == sieve


def test_is_prime_large_values(monkeypatch):
    # strong pseudoprimes to the first 9, 11 and 13 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**64 + 13)
    # at or above the Miller-Rabin bound only a small factor decides; a
    # lowered bound keeps a search for factors that never ends out of reach
    assert not is_prime(3 * 2**89)
    monkeypatch.setattr(exactnum, "_MR_BOUND", 10**6)
    assert is_prime(999983)
    with pytest.raises(OutOfRangeError, match="1000000"):
        is_prime(1000003)


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


# p = 2 and 3, then primes whose (p-1)^2 needs 62, 122 and 130 bits, so
# that the packed F_p rows of `Echelon` take 1-, 16- and 32-byte slots
WIDE_FIELDS = (F2, F3, Field.prime(2**31 - 1), Field.prime(2**61 - 1),
               Field.prime(2**64 + 13))


@st.composite
def _wide_prime_cases(draw):
    """(field, cols, rows, probe, hot, repeats, square): up to 40 columns,
    sparse rows and their combinations (so elimination cancels), entries
    of either sign far outside [0, p), a sparse vector `hot` to repeat up
    to 300 times (past any slot budget of p = 2, 3 or 2^61 - 1) and a
    square matrix."""
    f = draw(st.sampled_from(WIDE_FIELDS))
    p, cols = f.char, draw(st.integers(1, 40))
    entry = st.one_of(st.integers(-3, 3), st.integers(-4 * p * p, 4 * p * p))
    column = st.integers(0, cols - 1)

    def sparse_row():
        row = [0] * cols
        for j, x in draw(st.dictionaries(column, entry, max_size=cols)).items():
            row[j] = x
        return row
    base = [sparse_row() for _ in range(draw(st.integers(1, 5)))]
    base += [[a * x + b * y for x, y in zip(u, v)] for u, v, a, b in draw(
        st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base),
                           entry, entry), max_size=3))]
    rows = draw(st.lists(st.sampled_from(base), min_size=1, max_size=10))
    hot = draw(st.lists(st.tuples(column, entry), min_size=1, max_size=3))
    n = draw(st.integers(1, 7))
    square = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    return (f, cols, rows, sparse_row(), hot, draw(st.integers(0, 300)),
            square)


def _worst_case(f, cols, repeats):
    """The pivot row (1, p-1, ..., p-1, 0) and x = 1 on its pivot, repeated:
    every hit adds (p-1)^2, the most it can, to every slot but the first
    and the last, so a carry would land in the last slot, a free one."""
    p = f.char
    return (f, cols, [[1] + [p - 1] * (cols - 2) + [0]], [0] * cols,
            [(0, 1)], repeats, [[p - 1] * 2, [1, p - 1]])


@settings(max_examples=120, deadline=None)
@given(_wide_prime_cases())
@example(_worst_case(F2, 40, 300))
@example(_worst_case(F3, 40, 70))
@example(_worst_case(Field.prime(2**61 - 1), 40, 65))
def test_prime_kernel_matches_dense_reference_at_every_slot_width(case):
    f, cols, rows, probe, hot, repeats, square = case
    p = f.char
    R0, rank0, pivots0 = dense_rref(f, rows)
    ech = Echelon(f, cols)
    added = [ech.add(row) for row in rows]
    assert (ech.rows, ech.dim, ech.pivots) == \
        (tuple(map(tuple, R0[:rank0])), rank0, pivots0)
    null = ech.nullspace()
    assert null == dense_nullspace(f, rows, cols) == Matrix(f, rows).nullspace()
    units = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for v in null + units:
        want = all(f.is_zero(x) for x in dense_mul_vec(f, rows, v))
        assert ech.annihilates(v) is want
    reduced = []
    for v in [probe] + units:
        red = ech.reduce(v)
        reduced += red
        assert all(red[c] == 0 for c in pivots0)
        diff = [f.sub(f.coerce(x), y) for x, y in zip(v, red)]
        assert dense_rref(f, rows + [diff])[1] == rank0
        assert (not any(red)) is (dense_rref(f, rows + [v])[1] == rank0)
    # the hot entries repeated, as one sparse vector with repeated columns,
    # against their dense sum
    dense = list(probe)
    for j, x in hot:
        dense[j] += repeats * x
    split, whole = Echelon(f, cols), Echelon(f, cols)
    for row in rows:
        split.add(row)
        whole.add(row)
    pairs = [(j, x) for j, x in enumerate(probe)] + hot * repeats
    inserted = split.insert(pairs)
    assert (inserted is None) is (whole.add(dense) is None)
    assert split.rows == whole.rows == tuple(map(tuple, dense_rref(
        f, rows + [dense])[0][:split.dim]))
    det = Matrix(f, square).det()
    assert det == dense_det(f, square)
    if len(square) <= 4:  # the reference against the signed permutation sum
        assert det == _leibniz(f, Matrix(f, square).data)
    values = [x for r in ech.rows for x in r] + [x for v in null for x in v]
    values += [x for res in added if res is not None for x in res] + reduced
    values += [x for _, x in inserted or ()] + [det]
    for x in values:
        assert type(x) is int and 0 <= x < p


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
