"""Ideal closure, simplicity certification, and the central-extension form.

Ideals of a finite-dimensional algebra are exactly the subspaces invariant
under all left- and right-multiplication operators, so closure is operator
spinning on an incremental echelon basis, and simplicity is module
irreducibility.  A "Simple" verdict is only ever produced by a sound
argument: Norton's irreducibility criterion on a singular operator of the
multiplication envelope, or an exhaustive projective sweep over a finite
field.
"""

from __future__ import annotations

import collections
import itertools
import json
from dataclasses import dataclass, field as _dc_field
from fractions import Fraction
from typing import Sequence

from .exactnum import (Echelon, Field, Matrix, OutOfRangeError,
                       binom_p_quotient, is_prime)
from .algebras import Algebra


class CannotCertifyError(RuntimeError):
    """No sound simplicity argument applies (expected only off the supported
    parameter ranges, e.g. large nullspaces over the rationals)."""


class UnsoundWitnessError(RuntimeError):
    """A not-simple witness failed its explicit re-check as an ideal."""


class Subspace(Echelon):
    """A subspace of a closed algebra: the `exactnum.Echelon` basis of its
    coordinate vectors over `algebra.indices`, tied to the algebra so that
    its RREF rows can be read back as elements.  `add`, `reduce`, `rows` and
    `dim` are the kernel's own."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Algebra, rows: Sequence[Sequence]):
        super().__init__(algebra.field, algebra.dim)
        self.algebra = algebra
        for row in rows:
            self.add(row)

    @classmethod
    def from_elements(cls, algebra: Algebra,
                      elements: Sequence[dict]) -> "Subspace":
        return cls(algebra, [algebra.dense(e) for e in elements])

    def contains(self, element: dict) -> bool:
        return not any(self.reduce(self.algebra.dense(element)))

    def basis_elements(self) -> list[dict]:
        return [{i: c for i, c in zip(self.algebra.indices, row)
                 if not self.algebra.field.is_zero(c)} for row in self.rows]

    def to_json_dict(self) -> dict:
        f = self.algebra.field
        return {"dim": self.dim,
                "basis": [[f.fmt(x) for x in row] for row in self.rows]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.algebra.name!r})"


def _sparse_columns(operators: Sequence) -> list:
    """Column-major dense operators as sparse columns: op[j] becomes the
    tuple of (i, x) with x the nonzero entry in row i of column j."""
    return [[tuple((i, x) for i, x in enumerate(col) if x) for col in op]
            for op in operators]


def _spin(A: Algebra, seeds: Sequence[Sequence],
          operators: Sequence) -> Subspace:
    """Smallest subspace containing `seeds` and invariant under the operators.

    The operators are given as sparse columns (`_sparse_columns`), converted
    once by the caller.  One Subspace is extended in place, breadth first:
    every new basis vector is pushed through every operator, and each nonzero
    image that leaves the span adds its residue.  The spin stops as soon as
    the span is the whole algebra.
    """
    n = A.dim
    space = Subspace(A, [])
    frontier = collections.deque()
    for s in seeds:
        res = space.insert(space.sparse(s))
        if res is not None:
            frontier.append(res)
    while frontier and space.dim < n:
        v = frontier.popleft()
        for op in operators:
            w: dict = {}
            for j, c in v:
                for i, x in op[j]:
                    w[i] = w.get(i, 0) + c * x
            if not w:
                continue
            res = space.insert(w)
            if res is not None:
                if space.dim == n:
                    break
                frontier.append(res)
    return space


def _mult_operators(A: Algebra) -> list:
    """Left and right multiplication operators by basis elements, stored
    column-major: op[j] is the image of basis vector j.  For commutative
    algebras the two coincide and only one family is kept."""
    commutative = A.is_commutative()
    ops = []
    for i in A.indices:
        bi = A.basis(i)
        ops.append([A.dense(A.mul(bi, A.basis(j))) for j in A.indices])
        if not commutative:
            ops.append([A.dense(A.mul(A.basis(j), bi)) for j in A.indices])
    return ops


def ideal_closure(A: Algebra, generators: Sequence[dict]) -> Subspace:
    """Smallest ideal containing the generators: closure under left and right
    multiplication by every basis element, spun on one echelon basis."""
    if not generators:
        raise ValueError("need at least one generator")
    ops = _sparse_columns(_mult_operators(A))
    seeds = [A.dense(A.element(g)) for g in generators]
    return _spin(A, seeds, ops)


def is_ideal(A: Algebra, S: Subspace) -> bool:
    for s in S.basis_elements():
        for i in A.indices:
            if not S.contains(A.mul(A.basis(i), s)):
                return False
            if not S.contains(A.mul(s, A.basis(i))):
                return False
    return True


@dataclass
class SimplicityCertificate:
    algebra_name: str
    verdict: str                      # "simple" | "not_simple" | "degenerate"
    witness: Subspace | None = None   # proper ideal (or A*A for degenerate info)
    audit: list = _dc_field(default_factory=list)

    @property
    def simple(self) -> bool:
        return self.verdict == "simple"

    def to_json_dict(self) -> dict:
        out = {"algebra": self.algebra_name, "verdict": self.verdict,
               "audit": list(self.audit)}
        if self.witness is not None:
            out["witness_ideal"] = self.witness.to_json_dict()
        return out


def _transpose_ops(ops: list) -> list:
    return [list(zip(*op)) for op in ops]


def _projective_points(field: Field, vectors: Sequence[Sequence]):
    """All projective-point representatives of the span of the given
    independent vectors (finite fields only)."""
    p = field.char
    k = len(vectors)
    n = len(vectors[0])
    for coeffs in itertools.product(range(p), repeat=k):
        first = next((c for c in coeffs if c), None)
        if first != 1:  # normalize first nonzero coordinate to 1
            continue
        v = [0] * n
        for c, vec in zip(coeffs, vectors):
            if c:
                v = [a + c * b for a, b in zip(v, vec)]
        yield [a % p for a in v]


def certify_simplicity(A: Algebra) -> SimplicityCertificate:
    """Sound simplicity certificate.

    Order of attack: the product span A*A (always an ideal), single-generator
    closures of basis elements (cheap NotSimple witnesses), then Norton's
    criterion on a singular operator of the multiplication envelope, falling
    back to an exhaustive projective sweep over small prime fields.
    """
    f = A.field
    audit = []
    products = [A.dense(A.mul(A.basis(i), A.basis(j)))
                for i in A.indices for j in A.indices]
    aa = Subspace(A, products)
    if aa.dim == 0:
        return SimplicityCertificate(A.name, "degenerate", None,
                                     ["A*A = 0"])
    if aa.dim < A.dim:
        # the product span is itself an ideal, hence a NotSimple witness
        audit.append(f"A*A is a proper ideal of dimension {aa.dim}")
        return SimplicityCertificate(A.name, "not_simple", aa, audit)

    ops = _mult_operators(A)
    spin_ops = _sparse_columns(ops)
    for g, i in enumerate(A.indices):
        closure = _spin(A, [A.dense(A.basis(i))], spin_ops)
        if closure.dim < A.dim:
            audit.append(f"closure of basis element {A.labels[g]} is proper "
                         f"({closure.dim}-dimensional)")
            return SimplicityCertificate(A.name, "not_simple", closure, audit)
    audit.append(f"all {A.dim} basis closures are full")
    for g, h in itertools.combinations(range(A.dim), 2):
        seed = A.dense({A.indices[g]: f.one, A.indices[h]: f.neg(f.one)})
        closure = _spin(A, [seed], spin_ops)
        if closure.dim < A.dim:
            audit.append(f"closure of {A.labels[g]} - {A.labels[h]} is proper "
                         f"({closure.dim}-dimensional)")
            return SimplicityCertificate(A.name, "not_simple", closure, audit)

    # Norton's criterion: for a singular operator T of the envelope, the
    # module is irreducible iff every kernel point of T spins to the whole
    # space and one kernel point of T^t spins to the whole dual space.
    n = A.dim
    candidates = list(ops)
    for x, y in itertools.combinations(ops, 2):
        candidates.append([[f.add(x[j][i], y[j][i]) for i in range(n)]
                           for j in range(n)])
        candidates.append([[f.sub(x[j][i], y[j][i]) for i in range(n)]
                           for j in range(n)])
        if len(candidates) > 200:
            break
    for x, y in itertools.islice(itertools.product(ops, repeat=2), 100):
        # column j of the composite is y applied to column j of x
        comp = []
        for j in range(n):
            w = [f.zero] * n
            for t, c in enumerate(x[j]):
                if not f.is_zero(c):
                    for i in range(n):
                        w[i] = f.add(w[i], f.mul(c, y[t][i]))
            comp.append(w)
        candidates.append(comp)

    best = None
    for op in candidates:
        null = Matrix(f, list(zip(*op))).nullspace()  # op holds T's columns
        if not null:
            continue
        if f.char == 0 and len(null) > 1:
            continue
        if best is None or len(null) < len(best[1]):
            best = (op, null)
        if len(best[1]) == 1:
            break
    if best is not None:
        op, null = best
        points = ([null[0]] if f.char == 0
                  else list(_projective_points(f, null)))
        audit.append(f"norton: singular operator with nullity {len(null)}, "
                     f"{len(points)} kernel points")
        for v in points:
            sp = _spin(A, [v], spin_ops)
            if sp.dim < A.dim:
                audit.append("kernel point spans a proper ideal")
                return SimplicityCertificate(A.name, "not_simple", sp, audit)
        tops = _sparse_columns(_transpose_ops(ops))
        tnull = Matrix(f, op).nullspace()  # T's columns are the rows of T^t
        u = tnull[0]
        tsp = _spin(A, [u], tops)
        if tsp.dim < A.dim:
            # annihilator of the dual spin is a proper ideal of A
            witness = Subspace(A, tsp.nullspace())
            if not is_ideal(A, witness):
                raise UnsoundWitnessError(
                    f"{A.name}: annihilator of the dual spin is not an ideal")
            audit.append("dual kernel point spans a proper invariant subspace")
            return SimplicityCertificate(A.name, "not_simple", witness, audit)
        audit.append("norton criterion passed")
        return SimplicityCertificate(A.name, "simple", None, audit)

    if f.char and (f.char ** A.dim - 1) // (f.char - 1) <= 20000:
        full = Matrix.identity(f, A.dim).data
        audit.append("no singular envelope operator found; projective sweep")
        for v in _projective_points(f, full):
            sp = _spin(A, [v], spin_ops)
            if sp.dim < A.dim:
                audit.append("projective point spans a proper ideal")
                return SimplicityCertificate(A.name, "not_simple", sp, audit)
        return SimplicityCertificate(A.name, "simple", None, audit)
    raise CannotCertifyError(A.name)


# -- the central-extension bilinear form --------------------------------------

def psi_char0(i: int, j: int) -> Fraction:
    """psi(x^i, x^j) = [i + j = 0] on the char-0 Laurent basis."""
    return Fraction(1 if i + j == 0 else 0)


def psi_cyclic_char0(i: int, j: int, s: int) -> Fraction:
    """Cyclic sum psi({x^i,x^j}, x^s) + psi({x^j,x^s}, x^i) + psi({x^s,x^i}, x^j)
    under the jordan product {x^u, x^v} = (u+v) x^(u+v-1); equals
    2 [i+j+s = 1]."""
    total = Fraction(0)
    for a, b, c in ((i, j, s), (j, s, i), (s, i, j)):
        total += (a + b) * psi_char0(a + b - 1, c)
    return total


def psi_charp(p: int, m: int, i: int, j: int) -> int:
    """psi(x^(i), x^(j)) = (C(p^m, i)/p) [i + j = p^m] over F_p, 0 < i < p^m."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 < i < p**m:
        raise OutOfRangeError(f"need 0 < i < {p**m}")
    if not 0 <= j < p**m:
        raise OutOfRangeError(f"need 0 <= j < {p**m}")
    if i + j != p**m:
        return 0
    return binom_p_quotient(p, m, i)


def psi_form(variant: str, i: int, j: int, p: int = 0, m: int = 0):
    if variant == "char0":
        return psi_char0(i, j)
    if variant == "charp":
        return psi_charp(p, m, i, j)
    raise ValueError(f"unknown psi variant {variant!r}")
