"""Ideal closure, simplicity certification, and the central-extension form.

Ideals of a finite-dimensional algebra are exactly the subspaces invariant
under all left- and right-multiplication operators, so closure is operator
spinning on an incremental echelon basis, and simplicity is module
irreducibility.  A "Simple" verdict is only ever produced by one sound
argument: Norton's irreducibility criterion on a singular operator of the
unital multiplication envelope, over F_p mostly one of the MeatAxe's seeded
random draws (see `_norton_candidates`; the audit names the draw).  Over a
small finite field the zero operator is the last candidate, so that every
projective point is spun.  Once the closure of a basis element e_k is known
to be all of A, any later spin whose span reaches a multiple of e_k stops
there with "whole algebra", as its ideal then contains I(e_k) = A; only
proper spins run to the end.
"""

from __future__ import annotations

import collections
import itertools
import operator
import random
from dataclasses import dataclass, field as _dc_field
from fractions import Fraction
from typing import Collection, Sequence

from .exactnum import Echelon, Field, OutOfRangeError, binom_p_quotient, is_prime
from .algebras import Algebra, NotClosedError, UnsoundWitnessError


class CannotCertifyError(RuntimeError):
    """No sound simplicity argument applies (expected only off the supported
    parameter ranges, e.g. large nullspaces over the rationals)."""


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
        return [{i: c for i, c in zip(self.algebra.indices, row) if c}
                for row in self.rows]

    def to_json_dict(self) -> dict:
        f = self.algebra.field
        return {"dim": self.dim,
                "basis": [[f.fmt(x) for x in row] for row in self.rows]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.algebra.name!r})"


def _operators(A: Algebra) -> list:
    """Left and right multiplication by each basis element, read off the
    product table as sparse columns: op[j] lists the (position, coefficient)
    pairs of the image of basis vector j.  For commutative algebras the two
    coincide and only one family is kept."""
    if not A.closed:
        raise NotClosedError(f"{A.name}: basis products leave the window")
    pos = A.position
    sides = (False,) if A.is_commutative() else (False, True)
    return [[[(pos[k], c) for k, c in (A.product(j, i) if right
                                        else A.product(i, j))]
             for j in A.indices] for i in A.indices for right in sides]


def _transpose(op: Sequence) -> list:
    """The sparse columns of the transpose, i.e. the rows of op."""
    rows = [[] for _ in op]
    for j, col in enumerate(op):
        for i, x in col:
            rows[i].append((j, x))
    return rows


def _dual_operators(ops: list) -> list:
    """The transposed operators, which act on the dual space."""
    return [_transpose(op) for op in ops]


def _images(v, operators):
    """The nonzero images of the sparse v under each operator, as sparse
    items with raw sums."""
    for op in operators:
        w: dict = {}
        for j, c in v:
            for i, x in op[j]:
                w[i] = w.get(i, 0) + c * x
        if w:
            yield w.items()


def _spin(A: Algebra, seeds: Sequence[Sequence], operators: Sequence,
          full: Collection[int] = ()) -> Subspace | None:
    """Smallest subspace containing `seeds` and invariant under the
    operators, or None when that is the whole algebra.

    The operators are lists of sparse columns (`_operators`).  One Subspace
    is extended in place, breadth first: every new basis vector is pushed
    through every operator, and each nonzero image that leaves the span adds
    its residue.  The spin stops as soon as the span is the whole algebra,
    or as soon as it holds x e_k (x != 0) for a basis position k in `full`,
    the positions whose ideal I(e_k) is known to be all of A: an image that
    is itself such a multiple, or an inserted residue that is one.

    The early exit is sound for the multiplication operators of
    `_operators`.  Their spin of a vector v is the ideal I(v) it generates.
    Every image and every residue lies in that span, so x e_k in it puts e_k
    in I(v), and then A = I(e_k) <= I(v).  A proper ideal holds no such e_k,
    so a proper spin still runs to the end and returns its whole basis.
    Without `full` (the dual spin, `ideal_closure`) it never exits early.
    """
    n = A.dim
    space = Subspace(A, [])
    frontier = collections.deque()
    images = map(space.sparse, seeds)
    while True:
        for w in images:
            if len(w) == 1:  # w = x e_k, in the span once inserted
                ((k, x),) = w
                if k in full and A.field.coerce(x):
                    return None
            res = space.insert(w)
            if res is not None:
                if space.dim == n or len(res) == 1 and res[0][0] in full:
                    return None
                frontier.append(res)
        if not frontier:
            return space
        images = _images(frontier.popleft(), operators)


def _kernel(A: Algebra, vectors: Sequence) -> list[list]:
    """Canonical basis of the vectors orthogonal to each sparse vector."""
    ech = Echelon(A.field, A.dim)
    for vec in vectors:
        ech.insert(vec)
    return ech.nullspace()


def ideal_closure(A: Algebra, generators: Sequence[dict]) -> Subspace:
    """Smallest ideal containing the generators: closure under left and right
    multiplication by every basis element, spun on one echelon basis."""
    if not generators:
        raise ValueError("need at least one generator")
    seeds = [A.dense(A.element(g)) for g in generators]
    span = _spin(A, seeds, _operators(A))
    if span is None:
        return Subspace.from_elements(A, [A.basis(i) for i in A.indices])
    return span


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


def _projective_points(field: Field, vectors: Sequence[Sequence]):
    """All projective-point representatives of the span of the given
    independent vectors (finite fields only), generated lazily: the
    combinations whose first nonzero coefficient is 1, in the lex order of
    their coefficient tuples, each vector added once per prefix."""
    p, k = field.char, len(vectors)

    def span(acc, j):  # acc plus each combination of vectors[j:], in lex order
        if j == k:
            yield [a % p for a in acc]
            return
        for c in range(p):
            yield from span([a + c * x for a, x in zip(acc, vectors[j])], j + 1)

    for z in reversed(range(k)):  # the coefficients (0,) * z + (1, ...)
        yield from span(vectors[z], z + 1)


# The seed of the random envelope draws that `_norton_candidates` makes over
# F_p, and their number; and the most lam it walks over all draws, and the
# most projective points that the zero operator spins.
NORTON_SEED, NORTON_DRAWS, NORTON_BOUND = 1, 8, 20000


def _envelope_draws(ops: list, p: int):
    """The draws T = U + U V of `_norton_candidates`, each as dense columns
    mod p: U and V are combinations of the basis operators with every
    coefficient drawn from `random.Random(NORTON_SEED)`."""
    rng = random.Random(NORTON_SEED)
    n = len(ops[0])

    def combination():
        cols = [[0] * n for _ in range(n)]
        for op in ops:
            a = rng.randrange(p)
            for col, image in zip(cols, op):
                for i, x in image:
                    col[i] += a * x
        return cols

    for _ in range(NORTON_DRAWS):
        u, v = combination(), combination()
        rows = list(zip(*u))  # entry i of column j of U V is row i of U . v[j]
        yield [[(x + sum(map(operator.mul, row, vj))) % p
                for x, row in zip(uj, rows)] for uj, vj in zip(u, v)]


def _norton_candidates(ops: list, field: Field):
    """Operators of the unital multiplication envelope to try for Norton's
    criterion, each with the audit line that names it (None but for the
    draws), in a fixed order: the basis operators; over F_p with
    NORTON_DRAWS * p <= NORTON_BOUND, for each of NORTON_DRAWS seeded
    draws T (see `_envelope_draws`), T - lam I for lam = 0, 1, ..., p - 1;
    the sums and differences of pairs of basis operators until there are
    more than 200 operators, then 100 products of pairs; and last, over F_p
    when F_p^n has at most NORTON_BOUND projective points, the zero
    operator, whose kernel points are all of them.  A column may repeat a
    position; its entries add up.

    Every candidate is sound.  A spin of v under the basis operators
    contains v, so the subspaces it finds, the ideals, are the invariant
    subspaces of the unital envelope too, and T - lam I lies in that
    envelope.  Norton's criterion holds for any singular element T of it.
    A proper nonzero ideal W that meets ker T holds a kernel point, whose
    spin stays in W.  If W meets ker T trivially, T maps W onto W, so every
    vector of ker T^t vanishes on W: it lies in W^perp, which the transposed
    operators keep, and one dual spin is proper.  The draws are dense: a
    random element of the envelope often has an eigenvalue of nullity 1
    (the MeatAxe), where the sparse basis operators and their sums rarely
    do.  Over Q an eigenvalue is rarely rational, so no draws are made and
    the sums and products are the candidates that can be singular."""
    for op in ops:
        yield op, None
    p, n = field.char, len(ops[0])
    if p and NORTON_DRAWS * p <= NORTON_BOUND:
        for d, t in enumerate(_envelope_draws(ops, p), 1):
            cols = [[(i, x) for i, x in enumerate(col) if x] for col in t]
            for lam in range(p):
                yield ([[*col, (j, -lam)] for j, col in enumerate(cols)],
                       f"norton: T - {lam}*I for envelope draw {d} "
                       f"of seed {NORTON_SEED}")
    pairs = max(1, (202 - len(ops)) // 2)  # the fewest that pass 200 operators
    for x, y in itertools.islice(itertools.combinations(ops, 2), pairs):
        yield [a + b for a, b in zip(x, y)], None
        yield [a + [(i, -c) for i, c in b] for a, b in zip(x, y)], None
    for x, y in itertools.islice(itertools.product(ops, repeat=2), 100):
        # column j of the composite is y applied to column j of x
        yield [[(i, c * d) for t, c in col for i, d in y[t]] for col in x], None
    if p and (p ** n - 1) // (p - 1) <= NORTON_BOUND:
        yield [[] for _ in range(n)], None


def certify_simplicity(A: Algebra) -> SimplicityCertificate:
    """Sound simplicity certificate.

    Order of attack: the product span A*A (always an ideal), single-generator
    closures of basis elements (cheap NotSimple witnesses), then Norton's
    criterion on the first singular operator of the multiplication envelope
    with nullity 1, else the first of least nullity: over a small prime
    field there is always one, the zero operator (see `_norton_candidates`).
    With no usable operator, the closures of differences of basis elements,
    which can only find an ideal.  Every spin after a full basis closure may
    stop early at that basis element (see `_spin`).
    """
    f = A.field
    n = A.dim
    ops = _operators(A)
    audit = []

    def not_simple(witness: Subspace, line: str) -> SimplicityCertificate:
        audit.append(line)
        return SimplicityCertificate(A.name, "not_simple", witness, audit)

    aa = Subspace(A, [])
    for col in itertools.chain.from_iterable(ops):
        aa.insert(col)
    if aa.dim == 0:
        return SimplicityCertificate(A.name, "degenerate", None, ["A*A = 0"])
    if aa.dim < n:  # the product span is itself an ideal
        return not_simple(aa, f"A*A is a proper ideal of dimension {aa.dim}")
    if n == 1:  # A*A = A, so dimension 1 decides with no operator
        return SimplicityCertificate(A.name, "simple", None, [
            "A*A = A in dimension 1, where 0 and A are the only subspaces"])

    full = set()  # the positions g with I(e_g) = A, for `_spin` to exit early
    for g, i in enumerate(A.indices):
        closure = _spin(A, [A.dense(A.basis(i))], ops, full)
        if closure is not None:
            return not_simple(closure, f"closure of basis element {A.labels[g]} "
                              f"is proper ({closure.dim}-dimensional)")
        full.add(g)
    audit.append(f"all {n} basis closures are full")

    # Norton's criterion: for a singular operator T of the envelope, the
    # module is irreducible iff every kernel point of T spins to the whole
    # space and one kernel point of T^t spins to the whole dual space.
    best = None
    for op, route in _norton_candidates(ops, f):
        null = _kernel(A, _transpose(op))  # the rows of T
        if not null or (f.char == 0 and len(null) > 1):
            continue
        if best is None or len(null) < len(best[1]):
            best = (op, null, route)
            if len(null) == 1:
                break
    if best is not None:
        op, null, route = best
        p, k = f.char, len(null)
        if route is not None:
            audit.append(route)
        points = [null[0]] if p == 0 else _projective_points(f, null)
        audit.append(f"norton: singular operator with nullity {k}, "
                     f"{1 if p == 0 else (p ** k - 1) // (p - 1)} kernel points")
        for v in points:
            sp = _spin(A, [v], ops, full)
            if sp is not None:
                return not_simple(sp, "kernel point spans a proper ideal")
        u = _kernel(A, op)[0]  # T's columns are the rows of T^t
        tsp = _spin(A, [u], _dual_operators(ops))
        if tsp is not None:
            # annihilator of the dual spin is a proper ideal of A
            witness = Subspace(A, tsp.nullspace())
            if not is_ideal(A, witness):
                raise UnsoundWitnessError(
                    f"{A.name}: annihilator of the dual spin is not an ideal")
            return not_simple(
                witness, "dual kernel point spans a proper invariant subspace")
        audit.append("norton criterion passed")
        return SimplicityCertificate(A.name, "simple", None, audit)

    # the closures of basis differences can only find an ideal, not rule one out
    for g, h in itertools.combinations(range(n), 2):
        closure = _spin(A, [A.dense({A.indices[g]: 1, A.indices[h]: -1})],
                        ops, full)
        if closure is not None:
            return not_simple(closure, f"closure of {A.labels[g]} - {A.labels[h]} "
                              f"is proper ({closure.dim}-dimensional)")
    raise CannotCertifyError(
        f"{A.name}: no usable singular operator, no proper difference "
        f"closure, and over {f!r} in dimension {n} the zero operator is no "
        f"Norton candidate (it needs a prime field with at most "
        f"{NORTON_BOUND} projective points)")


# -- the central-extension bilinear form --------------------------------------

def psi_char0(i: int, j: int) -> Fraction:
    """psi(x^i, x^j) = [i + j = 0] on the char-0 Laurent basis."""
    return Fraction(1 if i + j == 0 else 0)


def psi_cyclic_char0(i: int, j: int, s: int) -> Fraction:
    """Cyclic sum psi({x^i,x^j}, x^s) + psi({x^j,x^s}, x^i) + psi({x^s,x^i}, x^j)
    under the jordan product {x^u, x^v} = (u+v) x^(u+v-1); equals
    2 [i+j+s = 1].  Each term is an int, (a+b) [a+b-1+c = 0] by psi_char0,
    so the sum is exact in ints and one `Fraction` is built."""
    return Fraction(sum((a + b) * (a + b - 1 + c == 0)
                        for a, b, c in ((i, j, s), (j, s, i), (s, i, j))))


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
