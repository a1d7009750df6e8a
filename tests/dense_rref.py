"""Reference elimination for the tests: the dense, Field-call RREF that
`Matrix.rref` used before it ran on `exactnum.Echelon`, kept here so the
kernel is checked against an independent implementation."""

import math
from fractions import Fraction

from tortken.exactnum import Field


def dense_rref(f: Field, data) -> tuple[list, int, tuple]:
    """(R rows, rank, pivot columns) of the matrix with the given rows.

    Deterministic: scan columns left to right, pick the topmost nonzero row.
    Over Q the rows are eliminated as primitive integer rows, fraction-free,
    and only the returned R holds `Fraction`s: each row of the RREF is its
    primitive integer row divided by its pivot entry.
    """
    m = [[f.coerce(x) for x in row] for row in data]
    if not f.char:
        m = [_primitive([(x * d).numerator for x in row])
             for row in m for d in [math.lcm(*(x.denominator for x in row))]]
    rows, cols = len(m), (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not f.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if f.char:
            inv = f.inv(m[r][c])
            m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not f.is_zero(m[i][c]):
                q = m[i][c]
                if f.char:
                    m[i] = [f.sub(x, f.mul(q, y)) for x, y in zip(m[i], m[r])]
                else:  # pv m_i - q m_r clears column c; pv, q coprime
                    g = math.gcd(pv := m[r][c], q)
                    pv, q = pv // g, q // g
                    m[i] = _primitive([pv * x - q * y for x, y in zip(m[i], m[r])])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if not f.char:
        m = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)] + [
            [f.zero] * cols for _ in m[len(pivots):]]
    return m, r, tuple(pivots)


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
    """M v with plain Field calls."""
    out = []
    for row in data:
        acc = f.zero
        for a, b in zip(row, v):
            acc = f.add(acc, f.mul(f.coerce(a), f.coerce(b)))
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
