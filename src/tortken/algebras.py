"""Concrete algebras: one model for structure-constant tables and windowed
graded products.

Elements are sparse dicts (basis index -> raw field scalar, no stored zeros).
Every algebra is a tuple of basis indices with a product table built once
from a rule.  A finite algebra's rule never leaves its indices; a graded
algebra is a window on an infinite basis, and its out-of-window products are
detected at evaluation time instead of being silently truncated.
"""

from __future__ import annotations

import inspect
import json
import random
from fractions import Fraction
from typing import Callable, Sequence

from .exactnum import Echelon, Field, Matrix, OutOfRangeError, binomial, combine, is_prime
from .freepoly import catalog_entry


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


class UnsoundWitnessError(RuntimeError):
    """A witness (an ideal, a failing assignment) failed its re-check."""


# The most cells of a product table that any builder makes: dim 512, where
# `gametic` takes about 2.5 s and 140 MB; tests and benchmark reach dim 41.
TABLE_BUDGET = 1 << 18


def _budget(dim: int, what: str) -> int:
    """dim, checked before a table of dim^2 cells is made (OutOfRangeError)."""
    if dim * dim > TABLE_BUDGET:
        raise OutOfRangeError(f"{what}: a table of at least {dim}^2 products "
                              f"exceeds TABLE_BUDGET = {TABLE_BUDGET}")
    return dim


class PrereqIdentityFailsError(ValueError):
    """A prerequisite law fails on A; `witness` maps its variables to
    elements of A."""

    def __init__(self, identity: str, witness: dict, A: "Algebra"):
        at = ", ".join(f"{v} = {A.fmt_element(e)}" for v, e in witness.items())
        super().__init__(f"prerequisite identity {identity!r} fails at {at}")
        self.identity = identity
        self.witness = witness


class Algebra:
    """An algebra on a finite tuple of basis indices, given by its product
    table.

    The table is built once, at construction, from a product rule: ``rule(i,
    j)`` gives (index, coefficient) pairs for the product of basis elements i
    and j, and those pairs are normalized (coefficients made canonical,
    repeated indices merged, zeros dropped, sorted by index).  A rule may name
    indices outside the index set: the algebra is then a window on an
    infinite graded object, and such a product escapes.  `mul` raises
    OutOfWindowError exactly on the basis pairs whose product escapes, instead
    of truncating it; ``closed`` says that no product escapes.  Indices are
    ints, or tuples for tensor constructions; ``label(k)`` names any index
    the table names, escaped ones included.

    `FiniteAlgebra` and `GradedAlgebra` are the two constructors; every
    algebra is built by one of them or is derived from one and keeps its
    class.
    """

    __slots__ = ("name", "field", "indices", "dim", "position", "label",
                 "table", "closed", "_escapes")

    def __init__(self, name: str, field: Field, indices: Sequence,
                 rule: Callable, label: Callable):
        self.name = name
        self.field = field
        self.dim = _budget(len(indices), name)  # before a range is expanded
        self.indices = tuple(indices)
        if not self.indices:
            raise ValueError("empty window")
        self.position = {k: t for t, k in enumerate(self.indices)}
        if len(self.position) != self.dim:
            raise ValueError("repeated basis index")
        self.label = label
        self._escapes: dict = {}  # (i, j) -> full product, for escaping pairs
        self.table: dict = {}  # i -> j -> product pairs, None where it escapes
        for i in self.indices:
            row = self.table[i] = {}
            for j in self.indices:
                ent = _normalize(field, rule(i, j))
                if any(k not in self.position for k, _ in ent):
                    self._escapes[i, j] = ent
                    ent = None
                row[j] = ent
        self.closed = not self._escapes

    # -- elements ---------------------------------------------------------

    def basis(self, i) -> dict:
        if i not in self.position:
            raise ValueError(f"index {i} outside window")
        return {i: self.field.one}

    def element(self, coords: dict) -> dict:
        out = {}
        for k, c in coords.items():
            if k not in self.position:
                raise ValueError(f"index {k} outside window")
            out[k] = self.field.coerce(c)
        return self.field.canonical(out)

    def product(self, i, j) -> tuple:
        """The normalized product of basis elements i and j as sorted
        (index, coefficient) pairs, escaped indices included."""
        ent = self.table[i][j]
        return self._escapes[i, j] if ent is None else ent

    def mul(self, a: dict, b: dict) -> dict:
        table = self.table
        out: dict = {}
        for i, ca in a.items():
            row = table[i]
            for j, cb in b.items():
                ent = row[j]
                if ent is None:
                    k = next(k for k, _ in self._escapes[i, j]
                             if k not in self.position)
                    raise OutOfWindowError(k, i, j)
                c = ca * cb
                for k, ck in ent:
                    out[k] = out.get(k, 0) + c * ck
        return self.field.canonical(out)

    def fmt_element(self, e: dict) -> str:
        if not e:
            return "0"
        parts = []
        for k in sorted(e):
            c = e[k]
            parts.append(self.label(k) if c == self.field.one
                         else f"{self.field.fmt(c)}*{self.label(k)}")
        return " + ".join(parts)

    def dense(self, e: dict) -> list:
        v = [self.field.zero] * self.dim
        for k, c in e.items():
            v[self.position[k]] = c
        return v

    @property
    def labels(self) -> tuple:
        return tuple(self.label(i) for i in self.indices)

    def derived(self, name: str, rule: Callable) -> "Algebra":
        """An algebra of the same class, indices and labels whose product of
        basis elements i and j is rule(i, j)."""
        return _of_class(self, name, self.field, self.indices, rule, self.label)

    # -- structure --------------------------------------------------------

    def is_commutative(self) -> bool:
        ix = self.indices
        return all(self.product(i, j) == self.product(j, i)
                   for t, i in enumerate(ix) for j in ix[t + 1:])

    def is_associative(self) -> bool:
        return _check_law(self, "associativity").holds

    def _unit_system(self, side: str) -> list | None:
        """Solve e*b_i = b_i (side='left') or b_i*e = b_i (side='right')."""
        f = self.field
        rows, rhs = [], []
        for i in self.indices:
            cols = [dict(self.product(j, i) if side == "left"
                         else self.product(i, j)) for j in self.indices]
            for k in self.indices:
                rows.append([col.get(k, f.zero) for col in cols])
                rhs.append(f.one if k == i else f.zero)
        return Matrix(f, rows).solve(rhs)

    def predicates(self) -> dict:
        """Commutativity/associativity flags and exact unit solves."""
        left = self._unit_system("left")
        right = self._unit_system("right")
        unit = None
        if left is not None and right is not None:
            unit = left
        to_el = lambda v: None if v is None else {
            k: c for k, c in zip(self.indices, v) if c}
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
        """Structure constants on the basis positions 0..dim-1."""
        if not self.closed:
            raise ValueError(f"{self.name}: products leave the window")
        pos = self.position
        entries = [[pos[i], pos[j], pos[k], self.field.fmt(c)]
                   for i in self.indices for j in self.indices
                   for k, c in self.product(i, j)]
        return {"kind": "structure_constants", "name": self.name,
                "field": {"char": self.field.char}, "dim": self.dim,
                "labels": list(self.labels), "table": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_spec())

    def table_text(self) -> str:
        labels = self.labels
        cells = [[self.fmt_element(dict(self.product(i, j)))
                  for j in self.indices] for i in self.indices]
        head = [""] + list(labels)
        rows = [head] + [[labels[t]] + cells[t] for t in range(self.dim)]
        widths = [max(len(r[c]) for r in rows) for c in range(self.dim + 1)]
        return "\n".join(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def __eq__(self, other) -> bool:
        try:
            return (self.field, self.indices, self.table, self._escapes) == \
                (other.field, other.indices, other.table, other._escapes)
        except AttributeError:
            return NotImplemented

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"{self.indices[0]}..{self.indices[-1]}, {self.field!r})")


def _normalize(field: Field, pairs) -> tuple:
    merged: dict = {}
    for k, c in pairs:
        merged[k] = merged.get(k, 0) + field.coerce(c)
    return tuple(sorted(field.canonical(merged).items()))


def _of_class(A: Algebra, name: str, field: Field, indices: Sequence,
              rule: Callable, label: Callable) -> Algebra:
    """A new algebra of A's class, built by the model's own initializer."""
    B = object.__new__(type(A))
    Algebra.__init__(B, name, field, indices, rule, label)
    return B


def _spec_index(x, dim: int, what: str) -> int:
    if type(x) is not int or not 0 <= x < dim:
        raise ValueError(f"{what} {x!r} is not an index in 0..{dim - 1}")
    return x


class FiniteAlgebra(Algebra):
    """Structure constants on the basis 0..dim-1: table[i][j] is the product
    of basis elements i and j, a dict or (index, coefficient) pairs."""

    __slots__ = ()

    def __init__(self, name: str, field: Field, dim: int,
                 table: Sequence[Sequence], labels: Sequence[str] | None = None):
        names = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(names) != dim:
            raise ValueError("label count != dim")

        def rule(i, j):
            cell = table[i][j]
            return cell.items() if isinstance(cell, dict) else cell

        super().__init__(name, field, range(dim), rule, names.__getitem__)
        if not self.closed:
            (i, j), ent = next(iter(self._escapes.items()))
            raise ValueError(f"structure constant of ({i}, {j}) names an index "
                             f"outside 0..{dim - 1}: "
                             f"{[k for k, _ in ent if k not in self.position]}")

    @classmethod
    def from_spec(cls, spec: dict) -> "FiniteAlgebra":
        """Load structure constants; entries are [i, j, k, coefficient] with
        the coefficient an int or an "a/b" string, and repeated (i, j, k)
        entries add up."""
        if not isinstance(spec, dict) or spec.get("kind") != "structure_constants":
            raise ValueError("not a structure_constants spec")
        field = spec["field"]
        if not isinstance(field, dict) or type(field.get("char")) is not int:
            raise ValueError("field must be {\"char\": <int>}")
        field = Field(field["char"])
        dim = spec["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim {dim!r} is not a positive int")
        _budget(dim, f"structure constants of dim {dim}")
        labels = spec.get("labels")
        if labels is not None and not (isinstance(labels, list) and
                                       all(isinstance(s, str) for s in labels)):
            raise ValueError("labels must be a list of strings")
        if not isinstance(spec["table"], list):
            raise ValueError("table must be a list of [i, j, k, coefficient]")
        table = [[[] for _ in range(dim)] for _ in range(dim)]
        for entry in spec["table"]:
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ValueError(f"table entry {entry!r} is not [i, j, k, coefficient]")
            i, j, k, c = entry
            table[_spec_index(i, dim, "row")][_spec_index(j, dim, "column")].append(
                (_spec_index(k, dim, "index"), field.parse(c)))
        return cls(spec.get("name", "custom"), field, dim, table, labels)

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        return cls.from_spec(json.loads(text))


class GradedAlgebra(Algebra):
    """A product rule on an explicit window of a graded basis.

    ``rule(i, j)`` may name indices outside the window (see `Algebra`).
    ``drop_bounds=(lo, hi)`` checks that every product of x_i and x_j lies in
    degrees i+j-hi .. i+j-lo.
    """

    __slots__ = ()

    def __init__(self, name: str, field: Field, indices: Sequence,
                 rule: Callable, label_fn: Callable | None = None,
                 drop_bounds: tuple[int, int] | None = None):
        super().__init__(name, field, indices, rule,
                         label_fn or (lambda i: f"x^{i}"))
        if drop_bounds is not None:
            lo, hi = drop_bounds
            for i in self.indices:
                for j in self.indices:
                    for k, _ in self.product(i, j):
                        if not i + j - hi <= k <= i + j - lo:
                            raise ValueError(
                                f"shift bounds {drop_bounds} violated at ({i},{j})->{k}")


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
    # p^m >= 2^m: an m past the budget's bit length fails with no power taken
    dim = _budget(p ** min(m, TABLE_BUDGET.bit_length()), f"divided_power({p},{m})")
    table = [[{i + j: binomial(i + j, i)} if i + j < dim else {}
              for j in range(dim)] for i in range(dim)]  # reduced by the table
    return FiniteAlgebra(f"divided_power({p},{m})", field, dim, table,
                         [f"x^({i})" for i in range(dim)])


def standard_derivation(A: Algebra):
    """The shift derivation x^(i) -> x^(i-1) on a divided-power basis.

    A derivation is a function from a basis index (in the window or not) to
    its image, a sparse element."""
    one = A.field.one
    return lambda i: {i - 1: one} if i > 0 else {}


def _apply(field: Field, D, e: dict) -> dict:
    return combine(field, ((c, D(k)) for k, c in e.items()))


def validate_derivation(A: Algebra, D) -> None:
    """Check D(ab) = D(a)b + aD(b) on all basis pairs, skipping the pairs
    where a product or an image of D leaves the window."""
    f = A.field
    inside = lambda e: all(k in A.position for k in e)
    for i in A.indices:
        for j in A.indices:
            a, b = A.basis(i), A.basis(j)
            da, db = _apply(f, D, a), _apply(f, D, b)
            if not (inside(da) and inside(db)):
                continue
            try:
                lhs = _apply(f, D, A.mul(a, b))
                rhs = combine(f, ((1, A.mul(da, b)), (1, A.mul(a, db))))
            except OutOfWindowError:
                continue
            if lhs != rhs:
                raise NotADerivationError(i, j)


def derivation_novikov(A: Algebra, D) -> Algebra:
    """Novikov product a.b = D(a) b on an associative commutative algebra;
    D must map the window into itself."""
    validate_derivation(A, D)
    images = {i: A.element(D(i)) for i in A.indices}
    return A.derived(f"derivation_novikov({A.name})", lambda i, j: [
        (k2, c * c2) for k, c in images[i].items() for k2, c2 in A.product(k, j)])


def derivation_symmetric(A: Algebra, D) -> Algebra:
    """Commutative product a*b = D(ab) on an associative commutative algebra."""
    validate_derivation(A, D)
    return A.derived(f"derivation_symmetric({A.name})", lambda i, j: [
        (k2, c * c2) for k, c in A.product(i, j) for k2, c2 in D(k).items()])


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
    top, sub = O.dim - 1, O.dim - 2

    def rule(i, j):
        out = list(O.product(i - 1, j)) if i else []  # D(x^(i)) x^(j)
        for k, c in O.product(i, j):
            out += [(t, alpha * c * x) for t, x in O.product(top, k)]
            out += [(t, beta * c * x) for t, x in O.product(sub, k)]
        return out

    return O.derived(f"osborn({f.fmt(alpha)},{f.fmt(beta)},{p},{m})", rule)


def osborn_plus_explicit(alpha, beta, p: int, m: int) -> FiniteAlgebra:
    """The symmetrized osborn product built directly from its closed form:

        x^(i) * x^(j) = C(i+j, j) x^(i+j-1)
                        + 2 beta [i=j=0] x^(p^m-2)
                        + 2 (alpha [i=j=0] - beta [{i,j}={0,1}]) x^(p^m-1)
    """
    if p <= 2:
        raise ValueError("osborn needs characteristic p > 2")
    field = Field.prime(p)
    if m < 1:
        raise ValueError("need m >= 1")
    alpha = field.coerce(alpha)
    beta = field.coerce(beta)
    dim = _budget(p ** min(m, TABLE_BUDGET.bit_length()), f"osborn_plus({p},{m})")
    table = [[[(i + j - 1, binomial(i + j, j))] if 0 < i + j <= dim else []
              for j in range(dim)] for i in range(dim)]  # pairs add up
    table[0][0] += [(dim - 2, 2 * beta), (dim - 1, 2 * alpha)]
    table[0][1].append((dim - 1, -2 * beta))
    table[1][0].append((dim - 1, -2 * beta))
    return FiniteAlgebra(
        f"osborn_plus({field.fmt(alpha)},{field.fmt(beta)},{p},{m})",
        field, dim, table, [f"x^({i})" for i in range(dim)])


def _laurent_rule(alpha, beta, variant: str) -> Callable:
    """The char-0 Laurent osborn product of x^i and x^j as pairs:

    novikov: x^i . x^j = (i + alpha) x^(i+j-1) + beta x^(i+j-2)
    jordan:  x^i * x^j = (i + j + 2 alpha) x^(i+j-1) + 2 beta x^(i+j-2)
    """
    if variant == "novikov":
        return lambda i, j: ((i + j - 1, i + alpha), (i + j - 2, beta))
    if variant == "jordan":
        return lambda i, j: ((i + j - 1, i + j + 2 * alpha), (i + j - 2, 2 * beta))
    raise ValueError(f"unknown variant {variant!r}")


def osborn_laurent(alpha, beta, lo: int, hi: int,
                   variant: str = "jordan") -> GradedAlgebra:
    """Char-0 Laurent-window osborn algebra of the variant's `_laurent_rule`."""
    if lo > hi:
        raise ValueError(f"bad window [{lo},{hi}]")
    alpha, beta = Fraction(alpha), Fraction(beta)
    return GradedAlgebra(
        f"osborn_laurent({alpha},{beta},{variant})", Field.rationals(),
        range(lo, hi + 1), _laurent_rule(alpha, beta, variant),
        drop_bounds=(1, 2) if beta else (1, 1))


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
    _budget(hi - lo, f"osborn_bar_laurent({alpha})")  # dim >= hi - lo
    indices = [i for i in range(lo, hi + 1) if i != excluded]
    if not indices:
        raise ValueError(f"bad window [{lo},{hi}]")
    A = GradedAlgebra(f"osborn_bar_laurent({alpha})", Field.rationals(),
                      indices, _laurent_rule(alpha, 0, "jordan"))
    for i in indices:
        for j in indices:
            if any(k == excluded for k, _ in A.product(i, j)):
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
    gens = [A.element({0: 1, dim - 1: -2 * beta})]
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
    _budget(hi - lo, f"osborn_bar_laurent_beta({beta})")  # dim >= hi - lo
    indices = [i for i in range(lo, hi + 1) if i != -1]
    if not indices:
        raise ValueError("window excludes every basis index")
    star = _laurent_rule(0, beta, "jordan")
    c = lambda t: 2 * beta / (t + 1) if t > -1 else 0  # y^t = x^t + c_t x^(t-1)

    def rule(i, j):
        prod: dict = {}
        for u, cu in ((i, 1), (i - 1, c(i))):
            for v, cv in ((j, 1), (j - 1, c(j))):
                for k, x in star(u, v):
                    prod[k] = prod.get(k, 0) + cu * cv * x
        # the x^t coefficient of sum lambda_s y^s is lambda_t + lambda_t+1 c_t+1;
        # solved from the top down to t = -1, where c_t and so the carry end
        lam, up = {}, 0
        for t in range(max(prod), min(*prod, -1) - 1, -1):
            lam[t] = prod.get(t, 0) - up
            up = lam[t] * c(t)
        if lam.pop(-1, 0):  # there is no y^-1
            raise NotClosedError(f"x^-1 leakage in product ({i},{j})")
        return lam.items()

    return GradedAlgebra(f"osborn_bar_laurent_beta({beta})", f, indices, rule,
                         label_fn=lambda i: f"y^{i}")


_OSBORN_BAR = {"laurent_alpha": osborn_bar_laurent,
               "finite_beta": osborn_bar_finite,
               "laurent_beta": osborn_bar_laurent_beta}


def osborn_bar(variant: str, **params) -> Algebra:
    """The `_OSBORN_BAR` function of the variant on its own parameters."""
    if variant not in _OSBORN_BAR:
        raise ValueError(f"unknown osborn_bar variant {variant!r}")
    _check_params(_OSBORN_BAR[variant], f"osborn_bar {variant!r}", params)
    return _OSBORN_BAR[variant](**params)


# -- other constructions ----------------------------------------------------

def gametic(n: int, field: Field | None = None) -> FiniteAlgebra:
    """Basis e1..en with e_i e_j = e_j (left-commutative and associative)."""
    if n < 1:
        raise ValueError("need dimension >= 1")
    field = field or Field.rationals()
    _budget(n, f"gametic({n})")
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


def _shifted_product(O: Algebra, i: int, j: int, s: int, t: int,
                     drop: int) -> list:
    """D^drop(D^s(x^(i)) D^t(x^(j))) on divided powers, D the shift."""
    if i < s or j < t:
        return []
    return [(k - drop, c) for k, c in O.product(i - s, j - t) if k >= drop]


def square_product(p: int, k: int, l: int, m: int) -> FiniteAlgebra:
    """Commutative product on divided powers driven by iterated derivations:

        a . b = D(D^(p^k-1)(a) D^(p^l-1)(b) + D^(p^l-1)(a) D^(p^k-1)(b))   (k < l)
        a . b = D(D^(p^k-1)(a) D^(p^k-1)(b))                               (k = l)
    """
    if not 0 <= k <= l:
        raise ValueError("need 0 <= k <= l")
    O = divided_power(p, m)
    s, t = p**k - 1, p**l - 1
    return O.derived(f"square_product({p},{k},{l},{m})", lambda i, j: (
        _shifted_product(O, i, j, s, t, 1)
        + (_shifted_product(O, i, j, t, s, 1) if k != l else [])))


def p2_product(k: int, m: int) -> FiniteAlgebra:
    """Char-2 commutative product D^(2^k+1)(D^(2^k-1)(a) D^(2^k-1)(b))."""
    if k < 1:
        raise ValueError("need k > 0")
    O = divided_power(2, m)
    s = 2**k - 1
    return O.derived(f"p2_product({k},{m})",
                     lambda i, j: _shifted_product(O, i, j, s, s, 2**k + 1))


# -- functors ----------------------------------------------------------------

def plus(A: Algebra) -> Algebra:
    """Symmetrized product {a, b} = ab + ba."""
    return A.derived(f"plus({A.name})",
                     lambda i, j: A.product(i, j) + A.product(j, i))


def minus(A: Algebra) -> Algebra:
    """Commutator product [a, b] = ab - ba."""
    return A.derived(f"minus({A.name})", lambda i, j: A.product(i, j) + tuple(
        (k, -c) for k, c in A.product(j, i)))


def opposite(A: Algebra) -> Algebra:
    return A.derived(f"opposite({A.name})", lambda i, j: A.product(j, i))


def twist(A: Algebra, images: Sequence[dict]) -> Algebra:
    """Twisted product a . b = a (f b) for an arbitrary endomorphism f, given
    by the images of the basis elements in index order."""
    if len(images) != A.dim:
        raise ValueError(f"endomorphism has {len(images)} images, need {A.dim}")
    imgs = dict(zip(A.indices, (A.element(e) for e in images)))
    return A.derived(f"twist({A.name})",
                     lambda i, j: A.mul(A.basis(i), imgs[j]).items())


def _check_law(A: Algebra, name: str):
    """check_identity on the catalog law `name` (identcheck imports this
    module, so it is imported on first use)."""
    from .identcheck import check_identity
    return check_identity(catalog_entry(name).poly, A)


def tensor_leibniz(g: Algebra, R: Algebra) -> Algebra:
    """Tensor product (x@r)(y@s) = [x,y] @ rs for a bracket algebra g
    satisfying the right Leibniz law and a left Leibniz dual algebra R, on
    the basis indices (g index, R index); it has the class of R."""
    if g.field != R.field:
        raise ValueError("mismatched ground fields")
    f = g.field
    for alg, law in ((g, "leibniz_right"), (R, "leibniz_dual_left")):
        out = _check_law(alg, law)
        if out.witness is not None:
            raise PrereqIdentityFailsError(law, out.witness, alg)

    def rule(a, b):
        (gi, ri), (gj, rj) = a, b
        return [((gk, rk), cb * cr) for gk, cb in g.product(gi, gj)
                for rk, cr in R.product(ri, rj)]

    return _of_class(R, f"tensor({g.name},{R.name})", f,
                     [(gi, ri) for gi in g.indices for ri in R.indices], rule,
                     lambda idx: f"{g.label(idx[0])}(x){R.label(idx[1])}")


def random_commutative(dim: int, field: Field, seed: int) -> FiniteAlgebra:
    """Seeded random symmetric structure constants (identity-check controls)."""
    rng = random.Random(seed)
    _budget(dim, f"random_commutative({dim})")
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


def subalgebra_on_basis(A: Algebra, elements: Sequence[dict], name: str,
                        labels: Sequence[str] | None = None) -> FiniteAlgebra:
    """The span of the given independent elements, with its product re-expressed
    in that basis; raises NotClosedError if some product leaves the span.

    One echelon holds the rows [e_i | unit vector i] in dim + k columns, so
    that a vector [w | 0] reduces to [w - sum c_i e_i | -c]: to [0 | -c]
    exactly when w = sum c_i e_i lies in the span."""
    f, n, k = A.field, A.dim, len(elements)
    ech = Echelon(f, n + k)
    for t, e in enumerate(elements):
        ech.add(A.dense(e) + [1 if s == t else 0 for s in range(k)])
    if any(c >= n for c in ech.pivots):
        raise ValueError("basis elements are dependent")
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            r = ech.reduce(A.dense(A.mul(elements[i], elements[j])) + [0] * k)
            if any(r[:n]):
                raise NotClosedError(f"product of basis elements {i},{j} "
                                     "leaves the span")
            table[i][j] = [(t, f.neg(x)) for t, x in enumerate(r[n:])]
    return FiniteAlgebra(name, f, k, table, labels)  # the table drops the zeros


# -- CLI-facing builtin registry ---------------------------------------------

def algebra_from_spec(spec: dict) -> Algebra:
    """Build an algebra from a JSON spec: structure constants or a builtin."""
    if not isinstance(spec, dict):
        raise ValueError("a spec is a JSON object")
    kind = spec.get("kind")
    if kind == "structure_constants":
        return FiniteAlgebra.from_spec(spec)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    return builtin_algebra(kind, **params)


def _check_params(fn: Callable, what: str, kw: dict) -> None:
    """ValueError naming a parameter that fn needs and kw lacks, or one in kw
    that fn does not take."""
    try:
        inspect.signature(fn).bind(**kw)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _divided_kind(product: Callable | None = None) -> Callable:
    """A divided-power kind's constructor: divided powers over F_p (a prime
    p and m) or over Q on the window 0..N (N alone), under product if any."""
    def build(p: int = 0, m: int | None = None, N: int | None = None):
        if (m is None) == bool(p) or (N is None) != bool(p):
            raise ValueError("divided powers take p and m (p prime), or N alone")
        base = divided_power(p, m if p else N)
        return product(base, standard_derivation(base)) if product else base
    return build


_COMMUTATIVE = ("commutative", ("commutativity",))
# the laws of plus(A) for every Novikov A, the paper's theorem
TORTKEN_LAWS = [_COMMUTATIVE, ("tortken", ("tortken",))]
_NOVIKOV = [("novikov", ("right_symmetric", "left_commutative"))]

# kind -> (constructor, laws); a constructor's keyword parameters are the
# kind's parameters, and laws, or laws(**params), are the (tag, catalog law
# names) pairs its algebras satisfy
_BUILTINS = {
    "divided-power": (_divided_kind(), [
        ("assoc-commutative", ("commutativity", "associativity"))]),
    "derivation-novikov": (_divided_kind(derivation_novikov), _NOVIKOV),
    "derivation-symmetric": (_divided_kind(derivation_symmetric), TORTKEN_LAWS),
    "osborn": (lambda p, m, alpha=0, beta=0: osborn(alpha, beta, p, m),
               _NOVIKOV),
    "osborn-plus": (lambda p, m, alpha=0, beta=0: osborn_plus_explicit(
        alpha, beta, p, m), TORTKEN_LAWS),
    "osborn-laurent": (lambda lo, hi, alpha=0, beta=0, variant="jordan":
                       osborn_laurent(alpha, beta, lo, hi, variant),
                       lambda variant=None, **_:
                       _NOVIKOV if variant == "novikov" else TORTKEN_LAWS),
    "osborn-bar": (osborn_bar, [_COMMUTATIVE]),
    "gametic": (lambda dim, char=0: gametic(dim, Field(char or 0)),
                [("novikov", ("left_commutative", "associativity"))]),
    "integration": (lambda N: integration_product(N), [
        ("leibniz-dual", ("leibniz_dual_left", "right_commutative"))]),
    # tortken if k = l, or p = 2 and l = k + 1 (`reproduce counterexample`)
    "square-product": (square_product, lambda p, k, l, **_: TORTKEN_LAWS
                       if k == l or (p == 2 and l == k + 1) else [_COMMUTATIVE]),
    "p2-product": (p2_product, TORTKEN_LAWS),
    "random-commutative": (lambda dim, char=0, seed=0: random_commutative(
        dim, Field(char or 0), seed), [_COMMUTATIVE]),
}


def builtin_laws(kind: str, params: dict) -> list:
    """The (tag, catalog law names) pairs that the kind's algebra on params
    satisfies; commutativity for a structure-constants spec."""
    laws = _BUILTINS[kind][1] if kind in _BUILTINS else [_COMMUTATIVE]
    return laws(**params) if callable(laws) else laws


def builtin_algebra(kind: str, **kw) -> Algebra:
    """The `_BUILTINS` algebra of the kind on exactly its parameters, alpha
    and beta given as an int or an "a/b" string."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown builtin algebra {kind!r}")
    build = _BUILTINS[kind][0]
    _check_params(build, f"builtin {kind!r}", kw)
    frac = Field.rationals().parse  # no floats
    return build(**{k: frac(v) if k in ("alpha", "beta") else v
                    for k, v in kw.items()})
