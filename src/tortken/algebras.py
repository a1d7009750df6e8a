"""Concrete algebras: structure-constant tables and windowed graded products.

Elements are sparse dicts (basis index -> raw field scalar, no stored zeros).
Finite algebras carry a full structure-constant table; graded algebras carry a
product rule on an explicit finite index window, with out-of-window products
detected at evaluation time instead of being silently truncated.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Callable, Sequence

from .exactnum import Field, Matrix, binomial, is_prime


class OutOfWindowError(RuntimeError):
    """A graded product left the materialized index window."""

    def __init__(self, index, left, right):
        super().__init__(f"product of {left} and {right} leaves the window at {index}")
        self.index = index
        self.operands = (left, right)


class NotADerivationError(ValueError):
    def __init__(self, i, j):
        super().__init__(f"Leibniz rule fails on basis pair ({i}, {j})")
        self.witness = (i, j)


class NotClosedError(ValueError):
    """A claimed subspace is not closed under the ambient product."""


class PrereqIdentityFailsError(ValueError):
    def __init__(self, identity: str, witness):
        super().__init__(f"prerequisite identity {identity!r} fails at {witness}")
        self.identity = identity
        self.witness = witness


def el_add(field: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        v = field.add(out.get(k, field.zero), c)
        if field.is_zero(v):
            out.pop(k, None)
        else:
            out[k] = v
    return out

def el_sub(field: Field, a: dict, b: dict) -> dict:
    return el_add(field, a, el_scale(field, field.neg(field.one), b))

def el_scale(field: Field, c, a: dict) -> dict:
    c = field.coerce(c)
    if field.is_zero(c):
        return {}
    return {k: field.mul(c, v) for k, v in a.items()}

class FiniteAlgebra:
    """Finite-dimensional algebra given by structure constants on a basis."""

    __slots__ = ("name", "field", "dim", "labels", "table")

    def __init__(self, name: str, field: Field, dim: int,
                 table: Sequence[Sequence], labels: Sequence[str] | None = None):
        self.name = name
        self.field = field
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        norm = []
        for i in range(dim):
            row = []
            for j in range(dim):
                cell = table[i][j]
                pairs = cell.items() if isinstance(cell, dict) else cell
                ent = []
                for k, c in pairs:
                    if not 0 <= k < dim:
                        raise ValueError(f"structure constant index {k} out of range")
                    c = field.coerce(c)
                    if not field.is_zero(c):
                        ent.append((k, c))
                row.append(tuple(sorted(ent)))
            norm.append(tuple(row))
        self.table = tuple(norm)

    # -- elements ---------------------------------------------------------

    def basis(self, i: int) -> dict:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range")
        return {i: self.field.one}

    def element(self, coords: dict) -> dict:
        out = {}
        for k, c in coords.items():
            c = self.field.coerce(c)
            if not self.field.is_zero(c):
                out[k] = c
        return out

    def mul(self, a: dict, b: dict) -> dict:
        p = self.field.char
        table = self.table
        out: dict = {}
        for i, ca in a.items():
            row = table[i]
            for j, cb in b.items():
                c = ca * cb
                for k, ck in row[j]:
                    out[k] = out.get(k, 0) + c * ck
        if p:
            return {k: v % p for k, v in out.items() if v % p}
        return {k: v for k, v in out.items() if v}

    def fmt_element(self, e: dict) -> str:
        if not e:
            return "0"
        parts = []
        for k in sorted(e):
            c = e[k]
            parts.append(self.labels[k] if c == self.field.one
                         else f"{self.field.fmt(c)}*{self.labels[k]}")
        return " + ".join(parts)

    def dense(self, e: dict) -> list:
        v = [self.field.zero] * self.dim
        for k, c in e.items():
            v[k] = c
        return v

    # -- structure --------------------------------------------------------

    def is_commutative(self) -> bool:
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def is_associative(self) -> bool:
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul(self.basis(i), self.basis(j))
                for k in range(self.dim):
                    left = self.mul(ij, self.basis(k))
                    right = self.mul(self.basis(i),
                                     self.mul(self.basis(j), self.basis(k)))
                    if left != right:
                        return False
        return True

    def _unit_system(self, side: str) -> Matrix | None:
        """Solve e*b_i = b_i (side='left') or b_i*e = b_i (side='right')."""
        f = self.field
        rows, rhs = [], []
        for i in range(self.dim):
            cols = []
            for j in range(self.dim):
                prod = (self.mul(self.basis(j), self.basis(i)) if side == "left"
                        else self.mul(self.basis(i), self.basis(j)))
                cols.append(prod)
            for k in range(self.dim):
                rows.append([cols[j].get(k, f.zero) for j in range(self.dim)])
                rhs.append(f.one if k == i else f.zero)
        sol = Matrix(f, rows).solve(rhs)
        return sol

    def predicates(self) -> dict:
        """Commutativity/associativity flags and exact unit solves."""
        left = self._unit_system("left")
        right = self._unit_system("right")
        unit = None
        if left is not None and right is not None:
            unit = left
        to_el = lambda v: None if v is None else {k: c for k, c in enumerate(v) if c}
        return {
            "is_commutative": self.is_commutative(),
            "is_associative": self.is_associative(),
            "has_left_unit": left is not None,
            "has_right_unit": right is not None,
            "left_unit": to_el(left),
            "right_unit": to_el(right),
            "unit": to_el(unit),
        }

    # -- serialization ----------------------------------------------------

    def to_spec(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self.table[i][j]:
                    entries.append([i, j, k, self.field.fmt(c)])
        return {"kind": "structure_constants", "name": self.name,
                "field": {"char": self.field.char}, "dim": self.dim,
                "labels": list(self.labels), "table": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_spec())

    @classmethod
    def from_spec(cls, spec: dict) -> "FiniteAlgebra":
        if spec.get("kind") != "structure_constants":
            raise ValueError("not a structure_constants spec")
        field = Field(spec["field"]["char"])
        dim = spec["dim"]
        table = [[[] for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in spec["table"]:
            table[i][j].append((k, field.parse(c)))
        return cls(spec.get("name", "custom"), field, dim, table,
                   spec.get("labels"))

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        return cls.from_spec(json.loads(text))

    def table_text(self) -> str:
        cells = [[self.fmt_element(self.mul(self.basis(i), self.basis(j)))
                  for j in range(self.dim)] for i in range(self.dim)]
        head = [""] + list(self.labels)
        rows = [head] + [[self.labels[i]] + cells[i] for i in range(self.dim)]
        widths = [max(len(r[c]) for r in rows) for c in range(self.dim + 1)]
        return "\n".join(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteAlgebra) and self.field == other.field
                and self.dim == other.dim and self.table == other.table)

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.name!r}, dim={self.dim}, {self.field!r})"


class GradedAlgebra:
    """Algebra on an explicit index window with a sparse product rule.

    ``rule(i, j)`` returns (index, coefficient) pairs and may name indices
    outside the window; multiplying elements raises OutOfWindowError if such
    an index carries a nonzero coefficient.  Indices are ints for Laurent-type
    windows and tuples for tensor constructions.
    """

    __slots__ = ("name", "field", "indices", "index_set", "rule", "label_fn",
                 "drop_bounds", "_cache")

    def __init__(self, name: str, field: Field, indices: Sequence,
                 rule: Callable, label_fn: Callable | None = None,
                 drop_bounds: tuple[int, int] | None = None,
                 validate: bool = True):
        self.name = name
        self.field = field
        self.indices = tuple(indices)
        if not self.indices:
            raise ValueError("empty window")
        self.index_set = frozenset(self.indices)
        self.rule = rule
        self.label_fn = label_fn or (lambda i: f"x^{i}")
        self.drop_bounds = drop_bounds
        self._cache: dict = {}
        if validate and drop_bounds is not None:
            lo, hi = drop_bounds
            for i in self.indices:
                for j in self.indices:
                    for k, _ in self.raw(i, j):
                        if not i + j - hi <= k <= i + j - lo:
                            raise ValueError(
                                f"shift bounds {drop_bounds} violated at ({i},{j})->{k}")

    def raw(self, i, j) -> tuple:
        """Normalized rule output; may contain out-of-window indices."""
        key = (i, j)
        ent = self._cache.get(key)
        if ent is None:
            f = self.field
            merged: dict = {}
            for k, c in self.rule(i, j):
                c = f.coerce(c)
                if not f.is_zero(c):
                    merged[k] = f.add(merged.get(k, f.zero), c)
            ent = tuple(sorted((k, c) for k, c in merged.items() if not f.is_zero(c)))
            self._cache[key] = ent
        return ent

    def basis(self, i) -> dict:
        if i not in self.index_set:
            raise ValueError(f"index {i} outside window")
        return {i: self.field.one}

    def element(self, coords: dict) -> dict:
        out = {}
        for k, c in coords.items():
            if k not in self.index_set:
                raise ValueError(f"index {k} outside window")
            c = self.field.coerce(c)
            if not self.field.is_zero(c):
                out[k] = c
        return out

    def mul(self, a: dict, b: dict) -> dict:
        f = self.field
        inside = self.index_set
        out: dict = {}
        for i, ca in a.items():
            for j, cb in b.items():
                c = ca * cb
                for k, ck in self.raw(i, j):
                    if k not in inside:
                        raise OutOfWindowError(k, i, j)
                    out[k] = out.get(k, 0) + c * ck
        if f.char:
            return {k: v % f.char for k, v in out.items() if v % f.char}
        return {k: v for k, v in out.items() if v}

    def fmt_element(self, e: dict) -> str:
        if not e:
            return "0"
        parts = []
        for k in sorted(e):
            c = e[k]
            parts.append(self.label_fn(k) if c == self.field.one
                         else f"{self.field.fmt(c)}*{self.label_fn(k)}")
        return " + ".join(parts)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, GradedAlgebra) and self.field == other.field
                and self.indices == other.indices):
            return False
        return all(self.raw(i, j) == other.raw(i, j)
                   for i in self.indices for j in self.indices)

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.name!r}, window={self.indices[0]}..{self.indices[-1]})"


Algebra = FiniteAlgebra | GradedAlgebra


# -- divided powers and derivations ---------------------------------------

def divided_power(p: int, m: int) -> Algebra:
    """Divided power algebra: x^(i) x^(j) = C(i+j, i) x^(i+j).

    For prime p the table is truncated at dimension p^m; the dropped boundary
    coefficients all vanish mod p (base-p carries), so truncation is a genuine
    subalgebra.  For p = 0, m is a window bound N and the result is graded:
    char-0 truncation is not a quotient, so overflow must surface as an error.
    """
    if p == 0:
        n = m
        if n < 0:
            raise ValueError("window bound must be >= 0")
        return GradedAlgebra(
            f"divided_power(0,{n})", Field.rationals(), range(n + 1),
            lambda i, j: ((i + j, binomial(i + j, i)),),
            label_fn=lambda i: f"x^({i})", drop_bounds=(0, 0))
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("need m >= 1")
    field = Field.prime(p)
    dim = p**m
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i + j < dim:
                c = binomial(i + j, i) % p
                if c:
                    table[i][j] = {i + j: c}
    return FiniteAlgebra(f"divided_power({p},{m})", field, dim, table,
                         [f"x^({i})" for i in range(dim)])


def standard_derivation(A: Algebra):
    """The shift derivation x^(i) -> x^(i-1) on a divided-power basis."""
    if isinstance(A, FiniteAlgebra):
        return [({i - 1: A.field.one} if i > 0 else {}) for i in range(A.dim)]
    one = A.field.one
    return lambda i: ((i - 1, one),) if i - 1 >= 0 else ()


def _apply_derivation_finite(A: FiniteAlgebra, images: Sequence[dict], e: dict) -> dict:
    out: dict = {}
    for k, c in e.items():
        out = el_add(A.field, out, el_scale(A.field, c, images[k]))
    return out


def validate_derivation(A: Algebra, D) -> None:
    """Check D(ab) = D(a)b + aD(b) on all basis pairs (in-window pairs if graded)."""
    if isinstance(A, FiniteAlgebra):
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.mul(A.basis(i), A.basis(j))
                lhs = _apply_derivation_finite(A, D, prod)
                rhs = el_add(A.field,
                             A.mul(_apply_derivation_finite(A, D, A.basis(i)), A.basis(j)),
                             A.mul(A.basis(i), _apply_derivation_finite(A, D, A.basis(j))))
                if lhs != rhs:
                    raise NotADerivationError(i, j)
        return
    f = A.field
    for i in A.indices:
        for j in A.indices:
            try:
                prod = A.mul(A.basis(i), A.basis(j))
                lhs: dict = {}
                for k, c in prod.items():
                    for k2, c2 in D(k):
                        lhs = el_add(f, lhs, {k2: f.mul(c, c2)})
                rhs: dict = {}
                for k, c in D(i):
                    if k not in A.index_set:
                        raise OutOfWindowError(k, i, j)
                    rhs = el_add(f, rhs, el_scale(f, c, A.mul({k: f.one}, A.basis(j))))
                for k, c in D(j):
                    if k not in A.index_set:
                        raise OutOfWindowError(k, i, j)
                    rhs = el_add(f, rhs, el_scale(f, c, A.mul(A.basis(i), {k: f.one})))
            except OutOfWindowError:
                continue
            if lhs != rhs:
                raise NotADerivationError(i, j)


def derivation_novikov(A: Algebra, D) -> Algebra:
    """Novikov product a.b = D(a) b on an associative commutative algebra."""
    validate_derivation(A, D)
    if isinstance(A, FiniteAlgebra):
        table = [[A.mul(_apply_derivation_finite(A, D, A.basis(i)), A.basis(j))
                  for j in range(A.dim)] for i in range(A.dim)]
        return FiniteAlgebra(f"derivation_novikov({A.name})", A.field, A.dim,
                             table, A.labels)

    def rule(i, j):
        out: dict = {}
        for k, c in D(i):
            for k2, c2 in A.raw(k, j):
                out[k2] = A.field.add(out.get(k2, A.field.zero), A.field.mul(c, c2))
        return tuple(out.items())

    return GradedAlgebra(f"derivation_novikov({A.name})", A.field, A.indices,
                         rule, A.label_fn, validate=False)


def derivation_symmetric(A: Algebra, D) -> Algebra:
    """Commutative product a*b = D(ab) on an associative commutative algebra."""
    validate_derivation(A, D)
    if isinstance(A, FiniteAlgebra):
        table = [[_apply_derivation_finite(A, D, A.mul(A.basis(i), A.basis(j)))
                  for j in range(A.dim)] for i in range(A.dim)]
        return FiniteAlgebra(f"derivation_symmetric({A.name})", A.field, A.dim,
                             table, A.labels)

    def rule(i, j):
        out: dict = {}
        for k, c in A.raw(i, j):
            for k2, c2 in D(k):
                out[k2] = A.field.add(out.get(k2, A.field.zero), A.field.mul(c, c2))
        return tuple(out.items())

    return GradedAlgebra(f"derivation_symmetric({A.name})", A.field, A.indices,
                         rule, A.label_fn, validate=False)


# -- the parametric simple families ----------------------------------------

def osborn(alpha, beta, p: int, m: int) -> FiniteAlgebra:
    """Novikov product D(a)b + alpha x^(p^m-1) ab + beta x^(p^m-2) ab on
    the p^m-dimensional divided power algebra; requires p > 2."""
    if p <= 2:
        raise ValueError("osborn needs characteristic p > 2")
    O = divided_power(p, m)
    f = O.field
    alpha = f.coerce(alpha)
    beta = f.coerce(beta)
    D = standard_derivation(O)
    top = O.basis(p**m - 1)
    sub = O.basis(p**m - 2)
    table = []
    for i in range(O.dim):
        row = []
        for j in range(O.dim):
            prod = O.mul(O.basis(i), O.basis(j))
            val = O.mul(_apply_derivation_finite(O, D, O.basis(i)), O.basis(j))
            val = el_add(f, val, el_scale(f, alpha, O.mul(top, prod)))
            val = el_add(f, val, el_scale(f, beta, O.mul(sub, prod)))
            row.append(val)
        table.append(row)
    return FiniteAlgebra(f"osborn({f.fmt(alpha)},{f.fmt(beta)},{p},{m})",
                         f, O.dim, table, O.labels)


def osborn_plus_explicit(alpha, beta, p: int, m: int) -> FiniteAlgebra:
    """The symmetrized osborn product built directly from its closed form:

        x^(i) * x^(j) = C(i+j, j) x^(i+j-1)
                        + 2 beta [i=j=0] x^(p^m-2)
                        + 2 (alpha [i=j=0] - beta [{i,j}={0,1}]) x^(p^m-1)
    """
    if p <= 2:
        raise ValueError("osborn needs characteristic p > 2")
    field = Field.prime(p)
    alpha = field.coerce(alpha)
    beta = field.coerce(beta)
    dim = p**m
    two = field.coerce(2)
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            ent: dict = {}
            k = i + j - 1
            if 0 <= k < dim:
                c = binomial(i + j, j) % p
                if c:
                    ent[k] = c
            if i == 0 and j == 0:
                ent[dim - 2] = field.add(ent.get(dim - 2, 0), field.mul(two, beta))
                ent[dim - 1] = field.add(ent.get(dim - 1, 0), field.mul(two, alpha))
            if (i, j) in ((0, 1), (1, 0)):
                ent[dim - 1] = field.sub(ent.get(dim - 1, 0), field.mul(two, beta))
            table[i][j] = ent
    return FiniteAlgebra(
        f"osborn_plus({field.fmt(alpha)},{field.fmt(beta)},{p},{m})",
        field, dim, table, [f"x^({i})" for i in range(dim)])


def osborn_laurent(alpha, beta, lo: int, hi: int,
                   variant: str = "jordan") -> GradedAlgebra:
    """Char-0 Laurent-window osborn algebra.

    novikov: x^i . x^j = (i + alpha) x^(i+j-1) + beta x^(i+j-2)
    jordan:  x^i * x^j = (i + j + 2 alpha) x^(i+j-1) + 2 beta x^(i+j-2)
    """
    if lo > hi:
        raise ValueError(f"bad window [{lo},{hi}]")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if variant == "novikov":
        rule = lambda i, j: ((i + j - 1, i + alpha), (i + j - 2, beta))
    elif variant == "jordan":
        rule = lambda i, j: ((i + j - 1, i + j + 2 * alpha), (i + j - 2, 2 * beta))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    drops = (1, 2) if beta else (1, 1)
    return GradedAlgebra(
        f"osborn_laurent({alpha},{beta},{variant})", Field.rationals(),
        range(lo, hi + 1), rule, drop_bounds=drops)


def osborn_bar_laurent(alpha, lo: int, hi: int) -> GradedAlgebra:
    """The jordan Laurent algebra at beta = 0 restricted to indices != -2a-1.

    Requires 2 alpha integral; the excluded coefficient vanishes identically
    ((i + j + 2 alpha) is zero exactly when the product would land there), so
    the restriction is closed. Verified over the window at construction.
    """
    alpha = Fraction(alpha)
    if (2 * alpha).denominator != 1:
        raise ValueError("osborn_bar_laurent needs alpha in (1/2)Z")
    excluded = int(-2 * alpha - 1)
    indices = [i for i in range(lo, hi + 1) if i != excluded]
    if not indices:
        raise ValueError(f"bad window [{lo},{hi}]")
    rule = lambda i, j: ((i + j - 1, i + j + 2 * alpha),)
    A = GradedAlgebra(f"osborn_bar_laurent({alpha})", Field.rationals(),
                      indices, rule, validate=False)
    for i in indices:
        for j in indices:
            if any(k == excluded for k, _ in A.raw(i, j)):
                raise NotClosedError(
                    f"x^{i} * x^{j} reaches the excluded index {excluded}")
    return A


def osborn_bar_finite(beta, p: int, m: int) -> FiniteAlgebra:
    """The codimension-1 ideal of the alpha = 0 osborn jordan algebra,
    span{1 - 2 beta x^(p^m-1)} + span{x^(i) : 0 < i < p^m-1}, as an algebra
    in its own basis."""
    A = osborn_plus_explicit(0, beta, p, m)
    f = A.field
    dim = A.dim
    beta = f.coerce(beta)
    gens = [el_add(f, A.basis(0),
                   el_scale(f, f.neg(f.mul(f.coerce(2), beta)), A.basis(dim - 1)))]
    gens += [A.basis(i) for i in range(1, dim - 1)]
    labels = [f"1-2b*x^({dim - 1})" if beta else "x^(0)"] + \
             [f"x^({i})" for i in range(1, dim - 1)]
    return subalgebra_on_basis(A, gens, f"osborn_bar({f.fmt(beta)},{p},{m})", labels)


def osborn_bar_laurent_beta(beta, lo: int, hi: int) -> GradedAlgebra:
    """Char-0 Laurent-polynomial counterexample subalgebra at alpha = 0.

    Basis y^i for i != -1 with y^i = x^i (i < -1) and
    y^i = x^i + 2 beta (i+1)^{-1} x^(i-1) (i > -1), closed under
    a*b = d(ab) + 2 beta x^-2 ab; closure is re-derived per product and any
    leakage onto x^-1 raises NotClosedError.
    """
    if lo > hi:
        raise ValueError(f"bad window [{lo},{hi}]")
    beta = Fraction(beta)
    f = Field.rationals()
    indices = [i for i in range(lo, hi + 1) if i != -1]
    if not indices:
        raise ValueError("window excludes every basis index")

    def in_x(i: int) -> dict:
        if i < -1:
            return {i: Fraction(1)}
        return ({i: Fraction(1), i - 1: 2 * beta / (i + 1)} if beta
                else {i: Fraction(1)})

    def star(u: int, v: int) -> dict:
        out = {u + v - 1: Fraction(u + v)}
        if beta:
            out[u + v - 2] = 2 * beta
        return {k: c for k, c in out.items() if c}

    def rule(i, j):
        prod: dict = {}
        for u, cu in in_x(i).items():
            for v, cv in in_x(j).items():
                for k, c in star(u, v).items():
                    prod[k] = prod.get(k, Fraction(0)) + cu * cv * c
        prod = {k: c for k, c in prod.items() if c}
        if not prod:
            return ()
        # triangular solve from the top: x-coefficient at t is
        # lambda_t + lambda_{t+1} c_{t+1}, with c_k = 2 beta/(k+1) for k > -1
        lam: dict = {}
        for t in range(max(prod), min(prod) - 1, -1):
            if t == -1:
                continue
            up = lam.get(t + 1, Fraction(0))
            c_up = 2 * beta / (t + 2) if t + 1 > -1 else Fraction(0)
            v = prod.get(t, Fraction(0)) - up * c_up
            if v:
                lam[t] = v
        residue = prod.get(-1, Fraction(0)) - lam.get(0, Fraction(0)) * 2 * beta
        if residue:
            raise NotClosedError(f"x^-1 leakage in product ({i},{j})")
        return tuple(lam.items())

    return GradedAlgebra(f"osborn_bar_laurent_beta({beta})", f, indices, rule,
                         label_fn=lambda i: f"y^{i}", validate=False)


def osborn_bar(variant: str, **params) -> Algebra:
    if variant == "laurent_alpha":
        return osborn_bar_laurent(params["alpha"], params["lo"], params["hi"])
    if variant == "finite_beta":
        return osborn_bar_finite(params["beta"], params["p"], params["m"])
    if variant == "laurent_beta":
        return osborn_bar_laurent_beta(params["beta"], params["lo"], params["hi"])
    raise ValueError(f"unknown osborn_bar variant {variant!r}")


# -- other constructions ----------------------------------------------------

def gametic(n: int, field: Field | None = None) -> FiniteAlgebra:
    """Basis e1..en with e_i e_j = e_j (left-commutative and associative)."""
    if n < 1:
        raise ValueError("need dimension >= 1")
    field = field or Field.rationals()
    table = [[{j: field.one} for j in range(n)] for _ in range(n)]
    return FiniteAlgebra(f"gametic({n})", field, n, table,
                         [f"e{i + 1}" for i in range(n)])


def integration_product(n: int) -> GradedAlgebra:
    """x^i * x^j = x^(i+j+1) / (j+1) on the monomial window 0..N (char 0)."""
    if n < 0:
        raise ValueError("window bound must be >= 0")
    return GradedAlgebra(
        f"integration({n})", Field.rationals(), range(n + 1),
        lambda i, j: ((i + j + 1, Fraction(1, j + 1)),),
        drop_bounds=(-1, -1))


def square_product(p: int, k: int, l: int, m: int) -> FiniteAlgebra:
    """Commutative product on divided powers driven by iterated derivations:

        a . b = D(D^(p^k-1)(a) D^(p^l-1)(b) + D^(p^l-1)(a) D^(p^k-1)(b))   (k < l)
        a . b = D(D^(p^k-1)(a) D^(p^k-1)(b))                               (k = l)
    """
    if not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    O = divided_power(p, m)
    f = O.field
    s, t = p**k - 1, p**l - 1

    def shifted(i: int, drop: int) -> dict:
        return O.basis(i - drop) if i - drop >= 0 else {}

    table = []
    for i in range(O.dim):
        row = []
        for j in range(O.dim):
            val = O.mul(shifted(i, s), shifted(j, t))
            if k != l:
                val = el_add(f, val, O.mul(shifted(i, t), shifted(j, s)))
            row.append({kk - 1: c for kk, c in val.items() if kk >= 1})
        table.append(row)
    return FiniteAlgebra(f"square_product({p},{k},{l},{m})", f, O.dim, table,
                         O.labels)


def p2_product(k: int, m: int) -> FiniteAlgebra:
    """Char-2 commutative product D^(2^k+1)(D^(2^k-1)(a) D^(2^k-1)(b))."""
    if k < 1:
        raise ValueError("need k > 0")
    O = divided_power(2, m)
    s = 2**k - 1

    def shifted(i: int, drop: int) -> dict:
        return O.basis(i - drop) if i - drop >= 0 else {}

    table = []
    for i in range(O.dim):
        row = []
        for j in range(O.dim):
            val = O.mul(shifted(i, s), shifted(j, s))
            drop = 2**k + 1
            row.append({kk - drop: c for kk, c in val.items() if kk >= drop})
        table.append(row)
    return FiniteAlgebra(f"p2_product({k},{m})", O.field, O.dim, table, O.labels)


# -- functors ----------------------------------------------------------------

def plus(A: Algebra) -> Algebra:
    """Symmetrized product {a, b} = ab + ba."""
    if isinstance(A, FiniteAlgebra):
        table = [[el_add(A.field, A.mul(A.basis(i), A.basis(j)),
                         A.mul(A.basis(j), A.basis(i)))
                  for j in range(A.dim)] for i in range(A.dim)]
        return FiniteAlgebra(f"plus({A.name})", A.field, A.dim, table, A.labels)
    return GradedAlgebra(f"plus({A.name})", A.field, A.indices,
                         lambda i, j: A.raw(i, j) + A.raw(j, i),
                         A.label_fn, validate=False)


def minus(A: Algebra) -> Algebra:
    """Commutator product [a, b] = ab - ba."""
    neg = A.field.neg
    if isinstance(A, FiniteAlgebra):
        table = [[el_sub(A.field, A.mul(A.basis(i), A.basis(j)),
                         A.mul(A.basis(j), A.basis(i)))
                  for j in range(A.dim)] for i in range(A.dim)]
        return FiniteAlgebra(f"minus({A.name})", A.field, A.dim, table, A.labels)
    return GradedAlgebra(
        f"minus({A.name})", A.field, A.indices,
        lambda i, j: A.raw(i, j) + tuple((k, neg(c)) for k, c in A.raw(j, i)),
        A.label_fn, validate=False)


def opposite(A: Algebra) -> Algebra:
    if isinstance(A, FiniteAlgebra):
        table = [[A.table[j][i] for j in range(A.dim)] for i in range(A.dim)]
        return FiniteAlgebra(f"opposite({A.name})", A.field, A.dim, table, A.labels)
    return GradedAlgebra(f"opposite({A.name})", A.field, A.indices,
                         lambda i, j: A.raw(j, i), A.label_fn, validate=False)


def twist(A: FiniteAlgebra, images: Sequence[dict]) -> FiniteAlgebra:
    """Twisted product a . b = a (f b) for an arbitrary endomorphism f."""
    if len(images) != A.dim:
        raise ValueError(f"endomorphism has {len(images)} images, need {A.dim}")
    imgs = [A.element(e) for e in images]
    table = [[A.mul(A.basis(i), imgs[j]) for j in range(A.dim)]
             for i in range(A.dim)]
    return FiniteAlgebra(f"twist({A.name})", A.field, A.dim, table, A.labels)


def _check_triple_identity(A: Algebra, combo, indices) -> tuple | None:
    """Return a witness basis triple where combo(a,b,c) != 0, skipping
    out-of-window evaluations; None when no witness is found."""
    for i in indices:
        for j in indices:
            for k in indices:
                try:
                    if combo(A.basis(i), A.basis(j), A.basis(k)):
                        return (i, j, k)
                except OutOfWindowError:
                    continue
    return None


def tensor_leibniz(g: FiniteAlgebra, R: Algebra) -> Algebra:
    """Tensor product (x@r)(y@s) = [x,y] @ rs for a bracket algebra g
    satisfying the right Leibniz law and a left Leibniz dual algebra R."""
    if g.field != R.field:
        raise ValueError("mismatched ground fields")
    f = g.field

    def leib_right(a, b, c):
        return el_sub(f, el_add(f, g.mul(a, g.mul(b, c)), g.mul(g.mul(a, c), b)),
                      g.mul(g.mul(a, b), c))

    w = _check_triple_identity(g, leib_right, range(g.dim))
    if w is not None:
        raise PrereqIdentityFailsError("leibniz_right", w)

    def dual_left(a, b, c):
        rhs = el_add(f, R.mul(a, R.mul(b, c)), R.mul(a, R.mul(c, b)))
        return el_sub(f, R.mul(R.mul(a, b), c), rhs)

    r_indices = range(R.dim) if isinstance(R, FiniteAlgebra) else R.indices
    w = _check_triple_identity(R, dual_left, r_indices)
    if w is not None:
        raise PrereqIdentityFailsError("leibniz_dual_left", w)

    if isinstance(R, FiniteAlgebra):
        n = g.dim * R.dim
        flat = lambda gi, ri: gi * R.dim + ri
        table = [[{} for _ in range(n)] for _ in range(n)]
        for gi in range(g.dim):
            for ri in range(R.dim):
                for gj in range(g.dim):
                    for rj in range(R.dim):
                        ent: dict = {}
                        for gk, cb in g.table[gi][gj]:
                            for rk, cr in R.table[ri][rj]:
                                kk = flat(gk, rk)
                                ent[kk] = f.add(ent.get(kk, f.zero), f.mul(cb, cr))
                        table[flat(gi, ri)][flat(gj, rj)] = ent
        labels = [f"{g.labels[gi]}(x){R.labels[ri]}"
                  for gi in range(g.dim) for ri in range(R.dim)]
        return FiniteAlgebra(f"tensor({g.name},{R.name})", f, n, table, labels)

    indices = [(gi, ri) for gi in range(g.dim) for ri in R.indices]

    def rule(a, b):
        (gi, ri), (gj, rj) = a, b
        out = []
        for gk, cb in g.table[gi][gj]:
            for rk, cr in R.raw(ri, rj):
                out.append(((gk, rk), f.mul(cb, cr)))
        return out

    return GradedAlgebra(
        f"tensor({g.name},{R.name})", f, indices, rule,
        label_fn=lambda idx: f"{g.labels[idx[0]]}(x){R.label_fn(idx[1])}",
        validate=False)


def random_commutative(dim: int, field: Field, seed: int) -> FiniteAlgebra:
    """Seeded random symmetric structure constants (identity-check controls)."""
    rng = random.Random(seed)
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            ent = {}
            for k in range(dim):
                c = (rng.randrange(field.char) if field.char
                     else Fraction(rng.randint(-3, 3)))
                if c:
                    ent[k] = c
            table[i][j] = ent
            table[j][i] = ent
    return FiniteAlgebra(f"random_commutative({dim},seed={seed})", field, dim,
                         table)


def subalgebra_on_basis(A: FiniteAlgebra, elements: Sequence[dict], name: str,
                        labels: Sequence[str] | None = None) -> FiniteAlgebra:
    """The span of the given independent elements, with its product re-expressed
    in that basis; raises NotClosedError if some product leaves the span."""
    f = A.field
    rows = [A.dense(e) for e in elements]
    if Matrix(f, rows).rank() != len(rows):
        raise ValueError("basis elements are dependent")
    bt = Matrix(f, rows).transpose()
    k = len(elements)
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            w = A.mul(elements[i], elements[j])
            lam = bt.solve(A.dense(w))
            if lam is None:
                raise NotClosedError(f"product of basis elements {i},{j} "
                                     "leaves the span")
            row.append({t: c for t, c in enumerate(lam) if not f.is_zero(c)})
        table.append(row)
    return FiniteAlgebra(name, f, k, table, labels)


# -- CLI-facing builtin registry ---------------------------------------------

def algebra_from_spec(spec: dict) -> Algebra:
    """Build an algebra from a JSON spec: structure constants or a builtin."""
    kind = spec.get("kind")
    if kind == "structure_constants":
        return FiniteAlgebra.from_spec(spec)
    params = spec.get("params", {})
    return builtin_algebra(kind, **params)


def builtin_algebra(kind: str, **kw) -> Algebra:
    frac = lambda v: Fraction(str(v))
    if kind == "divided-power":
        return divided_power(kw.get("p", 0), kw["m"] if kw.get("p") else kw["N"])
    if kind == "derivation-novikov":
        base = divided_power(kw.get("p", 0), kw["m"] if kw.get("p") else kw["N"])
        return derivation_novikov(base, standard_derivation(base))
    if kind == "derivation-symmetric":
        base = divided_power(kw.get("p", 0), kw["m"] if kw.get("p") else kw["N"])
        return derivation_symmetric(base, standard_derivation(base))
    if kind == "osborn":
        return osborn(frac(kw.get("alpha", 0)), frac(kw.get("beta", 0)),
                      kw["p"], kw["m"])
    if kind == "osborn-plus":
        return osborn_plus_explicit(frac(kw.get("alpha", 0)),
                                    frac(kw.get("beta", 0)), kw["p"], kw["m"])
    if kind == "osborn-laurent":
        return osborn_laurent(frac(kw.get("alpha", 0)), frac(kw.get("beta", 0)),
                              kw["lo"], kw["hi"], kw.get("variant", "jordan"))
    if kind == "osborn-bar":
        return osborn_bar(kw.pop("variant"), **{
            k: (frac(v) if k in ("alpha", "beta") else v) for k, v in kw.items()})
    if kind == "gametic":
        field = Field(kw["char"]) if kw.get("char") else Field.rationals()
        return gametic(kw["dim"], field)
    if kind == "integration":
        return integration_product(kw["N"])
    if kind == "square-product":
        return square_product(kw["p"], kw["k"], kw["l"], kw["m"])
    if kind == "p2-product":
        return p2_product(kw["k"], kw["m"])
    if kind == "random-commutative":
        field = Field(kw["char"]) if kw.get("char") else Field.rationals()
        return random_commutative(kw["dim"], field, kw.get("seed", 0))
    raise ValueError(f"unknown builtin algebra {kind!r}")
