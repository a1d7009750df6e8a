"""Reference elimination for the tests, written apart from `exactnum.Echelon`
(dense rows in, dense RREF out, plain Field calls or ints), so the kernel is
checked against an independent implementation."""

import math
from fractions import Fraction

from tortken.exactnum import Field


def dense_rref(f: Field, data) -> tuple[list, int, tuple]:
    """(R rows, rank, pivot columns) of the matrix with the given rows.

    Gauss–Jordan one row at a time.  The rows found so far are kept reduced
    and sparse, by pivot column, each zero at every other pivot column, so a
    new row is reduced against all of them in one pass: dropped if that
    leaves it zero, else made a reduced row at its first nonzero column and
    cleared from the others there.  Over Q the rows are primitive integer
    rows, fraction-free (one pass scales the new row by the lcm of the pivot
    entries it meets), and only the returned R holds `Fraction`s: each row
    of the RREF is its primitive integer row divided by its pivot entry.
    """
    m = [[f.coerce(x) for x in row] for row in data]
    p, cols = f.char, (len(m[0]) if m else 0)
    if not p:
        m = [_primitive([x.numerator * (d // x.denominator) for x in row])
             for row in m for d in [math.lcm(*(x.denominator for x in row))]]
    reduced: dict = {}  # pivot column -> {column: nonzero entry}
    for row in m:
        hits = [(c, row[c]) for c in reduced if row[c]]
        scale = 1 if p else math.lcm(*(reduced[c][c] for c, _ in hits))
        row = [scale * x for x in row]
        for c, q in hits:  # over F_p the pivot entry is 1
            q = q if p else q * (scale // reduced[c][c])
            for j, y in reduced[c].items():
                row[j] -= q * y
        row = [x % p for x in row] if p else _primitive(row)
        if (c := next((j for j, x in enumerate(row) if x), None)) is None:
            continue
        if p:
            inv = f.inv(row[c])
            row = [inv * x % p for x in row]
        new = {j: x for j, x in enumerate(row) if x}
        for k, old in reduced.items():
            if old.get(c):
                reduced[k] = _clear(old, new, c, p)
        reduced[c] = new
    pivots = tuple(sorted(reduced))
    R = [[Fraction(reduced[c].get(j, 0), reduced[c][c]) if not p
          else reduced[c].get(j, 0) for j in range(cols)] for c in pivots]
    return R + [[f.zero] * cols for _ in m[len(R):]], len(R), pivots


def _clear(old: dict, new: dict, c: int, p: int) -> dict:
    """The reduced row `old` less the multiple of `new` that clears column
    c: over F_p, where new[c] is 1, or over Q as a primitive integer row."""
    v, q = 1, old[c]
    if not p:  # new[c] old - old[c] new, divided by their gcd
        g = math.gcd(v := new[c], q)
        v, q = v // g, q // g
    out = {j: v * old.get(j, 0) - q * new.get(j, 0) for j in old.keys() | new.keys()}
    if p:
        return {j: x % p for j, x in out.items() if x % p}
    g = math.gcd(*out.values())  # out[old's pivot] is not 0
    return {j: x // g for j, x in out.items() if x}


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries (unchanged if zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def dense_nullspace(f: Field, data, cols: int) -> list:
    """Canonical right-kernel basis: one vector per free column of the RREF
    (that free variable one, the others zero), ordered by column index."""
    R, _, pivots = dense_rref(f, data)
    return rref_nullspace(f, R, pivots, cols)


def rref_nullspace(f: Field, R: list, pivots: tuple, cols: int) -> list:
    """`dense_nullspace` read off an RREF and its pivot columns."""
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [f.zero] * cols
        v[free] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R[r][free])
        basis.append(v)
    return basis


def dense_solve(f: Field, data, rhs, cols: int):
    """One solution of M x = rhs with the free variables zero, or None."""
    R, _, pivots = dense_rref(f, [list(row) + [b] for row, b in zip(data, rhs)])
    if cols in pivots:
        return None
    x = [f.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x


def dense_mul_vec(f: Field, data, v) -> list:
    """M v with plain Field calls, over the nonzero entries of v."""
    v = [(j, b) for j, b in enumerate(map(f.coerce, v)) if not f.is_zero(b)]
    out = []
    for row in data:
        acc = f.zero
        for j, b in v:
            acc = f.add(acc, f.mul(f.coerce(row[j]), b))
        out.append(acc)
    return out


def dense_det(f: Field, data):
    """The determinant of a square matrix by dense Gaussian elimination with
    plain Field calls: the product of the pivots, negated once per row swap."""
    m = [[f.coerce(x) for x in row] for row in data]
    d = f.one
    for c in range(len(m)):
        r = next((i for i in range(c, len(m)) if not f.is_zero(m[i][c])), None)
        if r is None:
            return f.zero
        if r != c:
            m[c], m[r] = m[r], m[c]
            d = f.neg(d)
        d = f.mul(d, m[c][c])
        inv = f.inv(m[c][c])
        for i in range(c + 1, len(m)):
            q = f.mul(m[i][c], inv)
            m[i] = [f.sub(x, f.mul(q, y)) for x, y in zip(m[i], m[c])]
    return d
