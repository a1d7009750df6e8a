"""Identity checking: evaluation, exhaustive sweeps, identity spaces.

Every polynomial law is decided by `check_identity` (or, on part of a window,
`check_identity_windowed`): a multilinear law by one sweep of basis tuples,
any other, in every characteristic, by its coordinate expansion (`_expand`).
Every failing witness is re-evaluated, its only evaluation.  Verdicts on
graded windows are always window-relative; as `evaluate` takes no product
in a term with a variable bound to 0, an expansion witness that is a point
of the law evaluates inside the window (`_expand`).
Every evaluation runs one compiled form, `_Program`, on the ids of a
per-call cache of values and products (`_Products`): on given bindings
(`_Program.runs`), or binding all but the last variable one basis element at
a time and the last at every basis element at once (`_sweep`).
The degree-4 reproduction keeps no frozen data: its report is audited
against the catalog laws deg4_basis_1..5, the one copy of the kernel.

Over Q a sweep runs on D*A (`_integral`): A's table times D, the least
common denominator of its products, in plain ints, which are exact: no
`Fraction`, modulus or height bound.  Sound: a term of tree degree d has
d - 1 products, so on D*A, at basis elements, it takes D^(d-1) times its
value in A.  With term t's coefficient scaled by L D^(top - d_t), L clearing
the law's denominators and top its largest term degree, the law takes
L D^(top-1) times its value in A.  That factor is nonzero and Z has no zero
divisors, so every support, escape and vanishing is as in A: checked,
skipped, orbits and the lex-least witness are unchanged, and a failing value
is divided back into A.  Identity spaces stay on Q: their report matrix
holds Q entries.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field as _dc_field
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import Echelon, Field, Matrix, OutOfRangeError, combine
from .algebras import (Algebra, OutOfWindowError, UnsoundWitnessError, _of_class,
                       divided_power, derivation_symmetric, standard_derivation)
from .freepoly import (FreePoly, catalog_entry, commutative_basis,
                       multidegree_components, mu_vector, relabel_leaves,
                       symmetry_blocks, tree_degree, tree_format, tree_leaves)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class ReportMismatchError(ValueError):
    """An identity-space report has the wrong shape for this verification."""


@dataclass
class CheckOutcome:
    """Verdict of an identity check, with a re-evaluatable witness on failure."""
    verdict: str
    checked: int = 0
    skipped: int = 0
    witness: dict | None = None          # variable name -> element
    value: dict | None = None            # the nonzero evaluation
    witness_poly: FreePoly | None = None  # what the witness falsifies
    orbits: int = 0  # assignments evaluated; `checked` counts whole orbits

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json_dict(self, A: Algebra | None = None) -> dict:
        fmt = A.fmt_element if A is not None else (lambda e: repr(e))
        out = {"verdict": self.verdict, "checked": self.checked,
               "skipped": self.skipped}
        if self.witness is not None:
            out["witness"] = {v: fmt(e) for v, e in self.witness.items()}
            out["value"] = fmt(self.value)
        return out


class _Program:
    """Polynomials over one variable list, compiled into one product DAG.

    Nodes 0..n-1 are the variable positions; every distinct product subtree,
    shared across terms and polynomials, is one later node after its children.
    `products` lists them as (node, left child, right child), ordered by last
    leaf, the greatest position below them, so `products[first[k]:]` are the
    nodes that depend on position k or a later one.  `terms[q]` lists (field
    coefficient, node) of polynomial q."""

    __slots__ = ("n", "products", "terms", "first")

    def __init__(self, polys: Sequence[FreePoly], field: Field):
        variables = polys[0].variables
        self.n = len(variables)
        self.products: list[tuple[int, int, int]] = []
        pos = {v: i for i, v in enumerate(variables)}
        ids: dict = {}
        self.terms = [[(field.coerce(c), self._node(t, pos, ids))
                       for t, c in poly.sorted_terms()] for poly in polys]
        last = list(range(self.n))
        for _, l, r in self.products:
            last.append(max(last[l], last[r]))
        self.products.sort(key=lambda node: last[node[0]])  # stays topological
        self.first = [sum(last[i] < k for i, _, _ in self.products)
                      for k in range(self.n + 1)]

    def _node(self, tree, pos: dict, ids: dict) -> int:
        if isinstance(tree, str):
            return pos[tree]
        got = ids.get(tree)
        if got is None:
            l, r = (self._node(t, pos, ids) for t in tree)
            got = ids[tree] = self.n + len(self.products)
            self.products.append((got, l, r))
        return got

    def runs(self, products: _Products, substitutions: Iterable[Sequence]):
        """Per substitution (ids of `products`, one per position), the ids of
        all node values, or None when a product escapes the window.  A
        position may hold a vector id (`_Products.vector`), on a closed
        algebra: the nodes above it are then vectors, or 0 on a zero operand.
        Only the nodes whose last leaf is at or after the first position
        changed since the previous substitution are computed again, in one
        list yielded each time: read it before the next."""
        n = self.n
        tails = [self.products[k:] for k in self.first]
        val = [0] * (n + len(self.products))
        good = 0  # val holds every node whose last leaf is below it
        for sub in substitutions:
            k = 0
            while k < good and val[k] == sub[k]:
                k += 1
            val[k:n] = sub[k:]
            good = n if products.fill(val, tails[k]) else k
            yield val if good == n else None


_ESCAPED = object()  # the cached product of a pair that leaves the window


class _Products(dict):
    """One call's products in A on elements interned by canonical value.

    `intern(e)` is e's id, 0 for the zero element, and `els[id]` the element.
    A pair of ids maps to the id of their product, from `A.mul` on its first
    lookup only, or to `_ESCAPED` if it leaves the window.  A zero operand
    gives 0 with no lookup: `A.mul` returns {} on it and never raises.
    `vector(v)` interns a tuple of ids, one per basis element of a sweep, as
    id ~i of `vecs[i]`; a pair with a vector id maps to the elementwise
    product's, where an escape beats a zero and so reaches every node above."""

    __slots__ = ("A", "ids", "els", "vecs")

    def __init__(self, A: Algebra):
        self.A, self.ids, self.els, self.vecs = A, {frozenset(): 0}, [{}], []

    def intern(self, e: dict) -> int:
        got = self.ids.setdefault(frozenset(e.items()), len(self.els))
        if got == len(self.els):
            self.els.append(e)
        return got

    def vector(self, v: tuple) -> int:
        got = self.ids.setdefault(v, ~len(self.vecs))
        if got == ~len(self.vecs):
            self.vecs.append(v)
        return got

    def column(self, a: int) -> tuple:
        """The vector of id a, an element id repeated when a is one."""
        return self.vecs[~a] if a < 0 else (a,) * len(self.vecs[0])

    def fill(self, val: list, nodes: Iterable) -> bool:
        """Set val[i] to the product id of val[l] and val[r] for each node
        (i, l, r) in turn; False at the first that escapes."""
        for i, l, r in nodes:
            a, b = val[l], val[r]
            if (got := self[a, b] if a and b else 0) is _ESCAPED:
                return False
            val[i] = got
        return True

    def __missing__(self, pair: tuple[int, int]):
        if min(pair) < 0:
            got = self.vector(tuple([
                _ESCAPED if a is _ESCAPED or b is _ESCAPED
                else self[a, b] if a and b else 0
                for a, b in zip(*map(self.column, pair))]))
        else:
            try:
                got = self.intern(self.A.mul(*map(self.els.__getitem__, pair)))
            except OutOfWindowError:
                got = _ESCAPED
        self[pair] = got
        return got


class _Integers:
    """The scalars of D*A: plain ints, canonical once the zeros are dropped."""

    @staticmethod
    def coerce(c: int) -> int:
        return c

    @staticmethod
    def canonical(sums: dict) -> dict:
        return {k: v for k, v in sums.items() if v}


def _integral(A: Algebra) -> tuple[Algebra, int]:
    """D*A for an algebra A over Q (see the module docstring) and D, the least
    common denominator of A's products, escaped ones included: an algebra of
    A's class over `_Integers`, whose `mul` raises OutOfWindowError on exactly
    the basis pairs where A's does."""
    D = math.lcm(*(c.denominator for i in A.indices for j in A.indices
                   for _, c in A.product(i, j)))
    rule = lambda i, j: [(k, c.numerator * (D // c.denominator))  # c * D
                         for k, c in A.product(i, j)]
    return _of_class(A, f"{D}*{A.name}", _Integers, A.indices, rule, A.label), D


def _scaled(poly: FreePoly, terms: list, D: int) -> tuple:
    """poly's compiled terms on D*A, in ints, and the factor by which poly's
    value there on basis elements exceeds its value in A."""
    L = math.lcm(*(c.denominator for c, _ in terms))
    top = poly.degree()
    terms = [((c * L).numerator * D ** (top - tree_degree(t)), i)
             for (c, i), (t, _) in zip(terms, poly.sorted_terms())]
    return terms, L * D ** max(top - 1, 0)


def evaluate(poly: FreePoly, A: Algebra, assignment: dict) -> dict:
    """Exact evaluation of poly under variable -> element substitution,
    taking no product in a term with a variable bound to 0."""
    missing = [v for v in poly.variables if v not in assignment
               and any(v in tree_leaves(t) for t in poly.terms)]
    if missing:
        raise ValueError(f"assignment misses variables {missing}")
    els = {v: A.element(e) for v, e in assignment.items()}
    if zero := {v for v in poly.variables if not els.get(v)}:
        poly = FreePoly(poly.variables, {t: c for t, c in poly.terms.items()
                                         if zero.isdisjoint(tree_leaves(t))})
    prog, prod = _Program([poly], A.field), _Products(A)
    sub = [prod.intern(els.get(v, {})) for v in poly.variables]
    val = next(prog.runs(prod, [sub]))
    if val is None:  # raise on the first escaped pair, its keys sorted
        pair = next(k for k, got in prod.items() if got is _ESCAPED)
        A.mul(*(dict(sorted(prod.els[i].items())) for i in pair))
    return combine(A.field, ((c, prod.els[val[i]]) for c, i in prog.terms[0]))


def _sweep(poly: FreePoly, A: Algebra, indices: Sequence) -> CheckOutcome:
    """Exhaustive check over all assignments of basis elements to variables.

    Variables are bound depth first in the order of `indices`, the first
    outermost: that is lexicographic order, so the first failure met ends
    the sweep with the least failing assignment.  A product node is computed
    once its last leaf is bound, as an id of one `_Products` cache; one that
    escapes the window before the last level skips and counts every
    completion of the prefix, as the node lies in some term.  The last level
    is computed once per prefix, as vectors over the basis; then the
    prefix depends only on its term nodes' ids: a tuple of them that
    vanished before from the same start adds the same counts, and a new one
    is walked x by x, an x with an escaped term skipped and counted.

    On a closed algebra, permuting the values within a `symmetry_blocks`
    block changes the value at most by its sign, so each block is bound in
    non-decreasing index-list order: one assignment per orbit, the
    lex-least, and the least failing assignment is still met first.
    `orbits` counts the assignments evaluated; `checked` is the number up to
    where the sweep ends in lex order (dim^n, or the failing one's 1-based
    rank) less `skipped`, which is 0 on a closed algebra, where nothing
    escapes; a window has no symmetry, so there it equals `orbits`.

    Over Q it runs on D*A in ints, built here once, and divides a failing
    value back into A (module docstring).
    """
    prog = _Program([poly], A.field)
    n = prog.n
    if n == 0:  # only the zero polynomial has no variables
        return CheckOutcome(HOLDS, 1, 0, orbits=1)
    dim, f = len(indices), A.field
    terms = prog.terms[0]  # a law that cancels has none
    B, D = (A, 1) if f.char else _integral(A)
    terms, scale = (terms, 1) if f.char else _scaled(poly, terms, D)
    prod = _Products(B)
    ids = [prod.intern({i: 1}) for i in indices]  # the basis, on B too
    after: list = [None] * n  # each position's predecessor in its block
    if A.closed:
        for block in symmetry_blocks(poly, A.is_commutative()):
            for prev, pos in zip(block, block[1:]):
                after[pos] = prev
    levels = [prog.products[a:b] for a, b in zip(prog.first, prog.first[1:])]
    coefs, nodes = [c for c, _ in terms], [i for _, i in terms]
    vanishing: set = set()  # tuples of term value ids at which the law is 0
    known: dict = {}  # start -> {term ids of a vanishing prefix: counts}
    val: list = [0] * (n + len(prog.products))
    val[n - 1] = prod.vector(tuple(ids))
    assign = [0] * n
    skipped = orbits = 0
    # walked here depth first, not through `_Program.runs`: on it the
    # benchmark's `sweep` workload measured 18% more wall time
    todo = [iter((0,))]  # the empty prefix, then one iterator per position
    while todo:
        if (x := next(todo[-1], None)) is None:
            todo.pop()
            continue
        k = len(todo) - 2  # the position x binds, -1 for the empty prefix
        if k >= 0:
            assign[k], val[k] = x, ids[x]
            if not prod.fill(val, levels[k]):
                skipped += dim ** (n - 1 - k)
                continue
        start = 0 if after[k + 1] is None else assign[after[k + 1]]
        if k < n - 2:
            todo.append(iter(range(start, dim)))
            continue
        for i, l, r in levels[-1]:
            val[i] = prod[val[l], val[r]]
        seen = known.setdefault(start, {})
        if (got := seen.get(at := tuple(map(val.__getitem__, nodes)))) is not None:
            orbits, skipped = orbits + got[0], skipped + got[1]
            continue
        before = orbits, skipped
        rows = list(zip(*map(prod.column, at))) or [()] * dim
        for x in range(start, dim):
            if _ESCAPED in (ts := rows[x]):
                skipped += 1
                continue
            orbits += 1
            if ts in vanishing:
                continue
            value = combine(B.field, zip(coefs, map(prod.els.__getitem__, ts)))
            if value:
                if not f.char:
                    value = {k: Fraction(v, scale) for k, v in value.items()}
                assign[n - 1] = x
                witness = {v: A.basis(indices[a])
                           for v, a in zip(poly.variables, assign)}
                rank = 1 + sum(a * dim ** (n - 1 - t) for t, a in enumerate(assign))
                return CheckOutcome(FAILS, rank - skipped, skipped, witness, value,
                                    poly, orbits=orbits)
            vanishing.add(ts)
        seen[at] = (orbits - before[0], skipped - before[1])
    checked = dim ** n - skipped
    return CheckOutcome(HOLDS if checked else INCONCLUSIVE, checked, skipped,
                        orbits=orbits)


def _nonzero_point(classes: dict, f: Field, tries: int) -> tuple[dict, dict]:
    """A point where sum c^m classes[m] is nonzero, and the sum there; a
    monomial m is a frozenset of (coordinate, exponent) pairs.  Each
    coordinate in turn takes the least t in range(tries) that keeps the sum
    nonzero, which exists when tries exceeds every exponent, or is p over
    F_p with every exponent below p (Alon, Lemma 2.1)."""
    point: dict = {}
    for at in sorted({c for m in classes for c, _ in m}):
        for t in range(tries):
            rest = defaultdict(list)  # the sum with c_at = t, by monomial
            for m, value in classes.items():
                e = dict(m).get(at, 0)
                rest[m - {(at, e)}].append((t ** e, value))
            summed = {m: combine(f, pairs) for m, pairs in rest.items()}
            rest = {m: value for m, value in summed.items() if value}
            if rest:
                break
        point[at], classes = t, rest
    return point, classes.get(frozenset(), {})


def _expand(poly: FreePoly, A: Algebra, indices: Sequence) -> CheckOutcome:
    """Decide a law that is not multilinear by its coordinate expansion.

    Put x_v = sum_i c_(v,i) e_i.  A multidegree component with the k-th leaf
    of each v renamed to a position of its own is multilinear, and the
    component is the sum over basis tuples s of c^s times its value at e_s.
    So each monomial in the c, a class keyed per variable by (basis id,
    exponent) pairs, has a sum of tuple values as coefficient.  Over F_p the
    exponents fold, c^k = c^((k - 1) mod (p - 1) + 1), and a polynomial of
    degree < p in each variable that is 0 on F_p^N is 0 (Alon, Lemma 2.1):
    the law holds exactly when every class sums to 0.  On a window a class
    with an escaped tuple is undecided; the law fails when a decided class
    is nonzero, and holds when none is and each component has one.

    The witness is a point of the law: the `_nonzero_point` of the classes
    on the support of the first failing class, fewest pairs first, then
    least key, that holds no undecided class.  `evaluate` drops the terms
    with a zero variable, so each product it takes there sums tuple
    products on the support: none escapes, or a class there is undecided.
    Else the witness is the least failing class: the part of the law with
    x_v = v + v' + ..., one name per basis element of v in the class, of
    the class's degree in each name, at those elements, whose value is the
    class sum.  Over Q it runs on D*A, each component scaled by `_scaled`."""
    f, p = A.field, A.field.char
    parts = sorted(multidegree_components(poly).items())
    count = sum(len(indices) ** sum(sig) for sig, _ in parts)
    if count > SUBSTITUTION_BUDGET:
        raise OutOfRangeError(f"expanding the law takes {count} basis tuples, more "
                              f"than SUBSTITUTION_BUDGET = {SUBSTITUTION_BUDGET}")
    B, D = (A, 1) if p else _integral(A)
    prod = _Products(B)
    ids = [prod.intern({i: 1}) for i in indices]  # the basis, on B too

    def exponents(ids: tuple) -> tuple:
        """One variable's (basis id, exponent) pairs over its positions' ids,
        an exponent k folded to (k - 1) mod (p - 1) + 1 over F_p."""
        pairs = sorted(Counter(ids).items())
        return tuple((i, (k - 1) % (p - 1) + 1 if p else k) for i, k in pairs)

    coefs, scales = [], []  # per component, on B, and B's value over A's
    sums: dict = {}  # class -> {(component, term ids) or None: tuples}
    for q, (sig, terms) in enumerate(parts):
        ends = list(itertools.accumulate(sig, initial=0))
        spans = list(zip(ends, ends[1:]))
        names = {v: [f"t{k + 1}" for k in range(a, b)]
                 for v, (a, b) in zip(poly.variables, spans)}
        part = FreePoly([f"t{k + 1}" for k in range(ends[-1])], {
            relabel_leaves(t, {v: iter(ns) for v, ns in names.items()}): c
            for t, c in terms.items()})
        prog = _Program([part], f)
        cs, scale = (prog.terms[0], 1) if p else _scaled(part, prog.terms[0], D)
        coefs.append([c for c, _ in cs])
        scales.append(scale)
        nodes = [i for _, i in prog.terms[0]]
        per_variable = [[exponents(s) for s in itertools.product(ids, repeat=b - a)]
                        for a, b in spans]
        keys = itertools.product(*per_variable)  # in the order of subs
        subs = itertools.product(ids, repeat=prog.n)
        for key, val in zip(keys, prog.runs(prod, subs)):
            got = sums.setdefault(key, {})
            at = None if val is None else (q, tuple(map(val.__getitem__, nodes)))
            got[at] = got.get(at, 0) + 1

    values = {}  # each decided class's sum, in A
    for key, got in sums.items():
        if None in got:
            continue
        pairs = []
        for (q, ys), n in got.items():
            pairs += [(n * c, prod.els[y]) for c, y in zip(coefs[q], ys)]
        value = combine(B.field, pairs)
        # over Q the exponents are not folded: a class lies in one component
        values[key] = value if p else {
            i: Fraction(x, scales[q]) for i, x in value.items()}

    def monomial(key) -> frozenset:  # of ((variable, basis id), exponent)
        return frozenset(((v, i), e) for v, pairs in enumerate(key) for i, e in pairs)

    def support(key) -> set:
        return {c for c, _ in monomial(key)}

    skipped = sum(got.get(None, 0) for got in sums.values())
    checked = count - skipped
    undecided = [support(key) for key, got in sums.items() if None in got]
    failing = sorted((key for key, value in values.items() if value),
                     key=lambda key: (sum(map(len, key)), key))
    basis = {x: A.basis(i) for x, i in zip(ids, indices)}
    for supp in map(support, failing):
        if any(u <= supp for u in undecided):
            continue
        point, value = _nonzero_point({
            monomial(key): v for key, v in values.items() if support(key) <= supp},
            f, p or poly.degree() + 1)
        witness = {x: combine(f, [(t, basis[i]) for (v, i), t in point.items()
                                  if v == w])
                   for w, x in enumerate(poly.variables)}
        return CheckOutcome(FAILS, checked, skipped, witness, value, poly,
                            orbits=checked)
    if failing:  # each holds an undecided class: the least one's linearization
        least = failing[0]
        fresh = {(w, i): x + "'" * n for w, x in enumerate(poly.variables)
                 for n, (i, _) in enumerate(least[w])}
        linear: Counter = Counter()
        for sig, component in parts:
            arrangements = [  # per variable, the orders of its ids in the class
                [s for s in itertools.product([i for i, _ in least[w]], repeat=d)
                 if exponents(s) == least[w]] for w, d in enumerate(sig)]
            for s in itertools.product(*arrangements):
                for t, c in component.items():
                    leaves = {x: iter([fresh[w, i] for i in s[w]])
                              for w, x in enumerate(poly.variables)}
                    linear[relabel_leaves(t, leaves)] += c
        witness = {fresh[c]: basis[c[1]] for c in support(least)}
        return CheckOutcome(FAILS, checked, skipped, witness, values[least],
                            FreePoly(sorted(fresh.values()), linear),
                            orbits=checked)
    decided = {q for key in values for q, _ in sums[key]}
    verdict = HOLDS if len(decided) == len(parts) else INCONCLUSIVE
    return CheckOutcome(verdict, checked, skipped, orbits=checked)


def _check(poly: FreePoly, A: Algebra, indices: Sequence) -> CheckOutcome:
    """Decide poly over span(indices), window-relatively on a window: a
    multilinear law by `_sweep`, any other by `_expand`, both counting basis
    tuples.  A failing witness is re-evaluated."""
    out = (_sweep if poly.is_multilinear() else _expand)(poly, A, indices)
    if out.verdict == FAILS and (not out.value or evaluate(
            out.witness_poly, A, out.witness) != out.value):
        raise UnsoundWitnessError(f"{A.name}: witness of "
                                  f"{out.witness_poly.format()} is unsound")
    return out


def check_identity(poly: FreePoly, A: Algebra) -> CheckOutcome:
    """Decide whether poly vanishes identically on A by one deterministic
    sweep, window-relatively when A is a graded window (see `_check`)."""
    return _check(poly, A, A.indices)


def check_identity_windowed(poly: FreePoly, A: Algebra,
                            index_range: Iterable) -> CheckOutcome:
    """`check_identity` over the span of the window indices in index_range,
    each named once: escaping assignments are skipped and counted, and the
    verdict is Inconclusive when nothing was evaluable."""
    idx = list(index_range)
    if bad := [i for i in idx if i not in A.position]:
        raise ValueError(f"indices {bad} outside the window")
    if twice := [i for i, k in Counter(idx).items() if k > 1]:
        raise ValueError(f"indices {twice} repeated in the window range")
    return _check(poly, A, idx)


# -- identity spaces ----------------------------------------------------------

# The most tuples of basis elements that `tortken idspace` substitutes, or a
# law's coordinate expansion walks: dim 6 at degree 5 (7776) takes about 5 s
# of `idspace`, dim 7 (16807) still fits, and dim 40 would need 10^8 tuples.
SUBSTITUTION_BUDGET = 20000


@dataclass
class IdentitySpaceReport:
    """Substitution matrix of a multilinear degree together with its kernel."""
    degree: int
    order: str
    monomials: list
    algebra_name: str
    substitution_count: int
    skipped: int
    matrix: Matrix
    rank: int
    nullspace: list
    flags: dict = _dc_field(default_factory=dict)

    @property
    def nullity(self) -> int:
        return self.matrix.cols - self.rank

    def to_text(self) -> str:
        lines = [f"identity space: degree {self.degree} on {self.algebra_name}",
                 f"monomial order: {self.order}",
                 f"substitutions: {self.substitution_count} (skipped {self.skipped})",
                 f"matrix {self.matrix.rows}x{self.matrix.cols}:",
                 self.matrix.to_text(),
                 f"rank: {self.rank}",
                 f"nullspace dimension: {self.nullity}"]
        f = self.matrix.field
        for v in self.nullspace:
            lines.append("  (" + ", ".join(f.fmt(x) for x in v) + ")")
        if self.flags:
            lines.append("catalog identities in nullspace:")
            for name, ok in self.flags.items():
                mark = "yes" if ok else ("no" if ok is not None else "n/a")
                lines.append(f"  {name}: {mark}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        f = self.matrix.field
        return {
            "degree": self.degree,
            "order": self.order,
            "monomials": [tree_format(t) for t in self.monomials],
            "algebra": self.algebra_name,
            "substitutions": self.substitution_count,
            "skipped": self.skipped,
            "matrix": [[f.fmt(x) for x in row] for row in self.matrix.data],
            "rank": self.rank,
            "nullspace": [[f.fmt(x) for x in v] for v in self.nullspace],
            "flags": self.flags,
        }


def identity_space(degree: int, A: Algebra, substitutions: Sequence[Sequence[dict]],
                   order: str = "canonical") -> IdentitySpaceReport:
    """Build the substitution matrix over the commutative monomial basis.

    Row r, column c holds the coefficient of the (single) supported basis
    element of monomial c under substitution r; a substitution whose monomial
    evaluations are supported on several basis elements contributes one row
    per support index.  Substitutions that escape a graded window are skipped
    and counted.  Rank, kernel and the catalog flags come from one echelon
    basis of the rows (M v = 0 exactly when R v = 0 for the RREF R of M);
    with no substitution evaluated every flag is None.

    One substitution per orbit is evaluated, on one `_Products` cache.  On a
    commutative A the orbit of x is its S_n orbit, represented by r, the ids
    of x sorted, x_i = r_pos(i); else x is its own orbit.  Sound: a symmetric
    table makes a product's value independent of its factors' order, so
    monomial m takes at x the value that column c', the canonical form of m
    renamed by t_i -> t_pos(i), takes at r; and it stores escaped cells
    symmetrically, so an orbit escapes as a whole.  Row x is row r with each
    column c read from c', by `CommutativeBasis.colmap`.

    A complete orbit, whose substitutions hold all n!/prod(mult!) distinct
    arrangements of r, enters the echelon as a spin: r's rows are inserted,
    then each residue that `Echelon.insert` returns is pushed through the n-1
    adjacent transpositions' maps, until nothing new enters.  Sound: the
    column maps compose as an action of S_n on rows (the map of a product of
    transpositions is the composite of their maps, as `colmap` builds it),
    and the adjacent transpositions generate S_n.  So the span of the rows
    of all arrangements, the S_n-module that r's rows generate, is the
    smallest subspace that contains r's rows and is closed under the n-1
    maps.  Each residue lies in that span and the residues span what
    entered, so closing them under the maps closes the span and adds nothing
    outside the module.  A symmetric table makes an orbit escape as a whole,
    so a complete orbit is evaluated or skipped whole.  Complete orbits spin
    before any other row enters, so every residue stays in a sum of modules.
    Incomplete orbits then insert each distinct row set of their
    arrangements, known by its tuple of monomial value ids, once.  A
    non-commutative A has one-element orbits and spins nothing.  The RREF is
    unique, so the order of insertion changes neither rank, kernel nor flags.
    """
    monomials = (basis := commutative_basis(degree, order)).monomials
    f, n, zero = A.field, degree, A.field.zero
    variables = [f"t{i + 1}" for i in range(n)]
    prog = _Program([FreePoly.monomial(m, variables) for m in monomials], f)
    roots = [node for ((_, node),) in prog.terms]  # one term, coefficient 1
    prod = _Products(A)
    commutative = A.is_commutative()
    raw: dict = {}  # a raw element's typed items -> id; 1.0 == 1 but no hit

    def element_id(e: dict) -> int:
        key = tuple([(k, v, type(v)) for k, v in e.items()])
        if (got := raw.get(key)) is None:
            got = raw[key] = prod.intern(A.element(e))
        return got

    def orbit(sub):
        if len(sub) != n:
            raise ValueError(f"substitution needs {n} elements, got {len(sub)}")
        x = [element_id(e) for e in sub]
        at = sorted(range(n), key=x.__getitem__) if commutative else range(n)
        pos = tuple(sorted(range(n), key=at.__getitem__))  # x_i = r_pos(i)
        if (got := reps.get(r := tuple(x[i] for i in at))) is None:
            got = reps[r] = (r, set())
        got[1].add(pos)
        return got[0], basis.colmap(pos)

    reps: dict = {}  # representative -> (itself, its arrangements' pos)
    orbits = [orbit(sub) for sub in substitutions]
    todo = sorted(reps)  # lex order shares the most prefixes
    known = {}  # representative -> (monomial value ids, rows) unless escaped
    for r, val in zip(todo, prog.runs(prod, todo)):
        if val is not None:
            evals = [prod.els[val[i]] for i in roots]
            # one row per supported basis index; a zero row when there is none
            known[r] = (tuple(val[i] for i in roots),
                        [[e.get(k, zero) for e in evals]
                         for k in sorted(set().union(*evals))]
                        or [[zero] * len(monomials)])
    echelon = Echelon(f, len(monomials))
    spun = {r for r in known if commutative and len(reps[r][1])  # complete
            == math.factorial(n) // math.prod(
                map(math.factorial, Counter(r).values()))}
    spin = [[(c, x) for c, x in enumerate(row) if x]
            for r in sorted(spun) for row in known[r][1]]
    for v in spin:  # spin grows while it is read, breadth first
        if (new := echelon.insert(v)) is not None:
            # a transposition's map is its own inverse: entry c moves to s[c]
            spin += [[(s[c], x) for c, x in new] for s in basis.swaps]
    rows, inserted = [], set()
    for r, cmap in orbits:
        if r in known:
            vals, got = known[r]
            got = [[row[c] for c in cmap] for row in got]
            rows += got
            if r not in spun and (
                    vals := tuple([vals[c] for c in cmap])) not in inserted:
                inserted.add(vals)
                for row in got:
                    echelon.insert([(c, x) for c, x in enumerate(row) if x])
    used = sum(r in known for r, _ in orbits)
    matrix = Matrix.of_canonical(f, rows or [[zero] * len(monomials)])  # canonical
    flags = {name: echelon.annihilates([f.coerce(c) for c in vec]) if used
             else None for name, vec in basis.laws}
    return IdentitySpaceReport(degree, order, list(monomials), getattr(A, "name", "?"),
                               used, len(orbits) - used, matrix, echelon.dim,
                               echelon.nullspace(), flags)


# -- reference degree-4 data --------------------------------------------------

REFERENCE_DEG4_SUBSTITUTIONS = (
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    (0, 0, 1, 2), (0, 0, 2, 1), (0, 2, 1, 0), (1, 0, 0, 2),
    (2, 0, 0, 1), (0, 0, 0, 3),
)


def reference_deg4_algebra() -> Algebra:
    """Char-0 divided powers (window 5) under the derivation product D(ab)."""
    base = divided_power(0, 5)
    return derivation_symmetric(base, standard_derivation(base))


def reference_deg4_report() -> IdentitySpaceReport:
    A = reference_deg4_algebra()
    subs = [tuple(A.basis(i) for i in s) for s in REFERENCE_DEG4_SUBSTITUTIONS]
    return identity_space(4, A, subs, order="balanced_first")


def verify_reference_solutions(report: IdentitySpaceReport) -> bool:
    """Audit a degree-4 report against the catalog laws deg4_basis_1..5, read
    in its monomial order: its matrix must annihilate the five, which are
    independent, and its 5-dimensional kernel must be their span; and
    deg4_basis_2 must be tortken in the variable order t1, t3, t2, t4."""
    if report.degree != 4 or report.matrix.cols != 15:
        raise ReportMismatchError("need a degree-4 report on the 15-monomial basis")
    f, M = report.matrix.field, report.matrix
    laws = [mu_vector(catalog_entry(f"deg4_basis_{i}").poly, report.monomials)
            for i in range(1, 6)]
    tort = catalog_entry("tortken").poly.rename_variables(
        {"a": "t1", "b": "t3", "c": "t2", "d": "t4"})
    return (not any(x for v in laws for x in M.mul_vec(v))
            and report.nullity == 5 == len(report.nullspace)
            and Matrix(f, laws).rank() == 5
            and Matrix(f, laws + report.nullspace).rank() == 5
            and tort.terms == catalog_entry("deg4_basis_2").poly.terms)


# -- small reproductions -------------------------------------------------------


@dataclass
class Degree3System:
    """The two 3x3 substitution systems showing that degree-3 multilinear
    identities of the graded jordan product reduce to commutativity."""
    matrix: Matrix
    abs_det: Fraction
    char3_matrix: Matrix
    char3_nonsingular: bool


def degree3_system() -> Degree3System:
    row = lambda i, j, s: (i + j + 2, j + s + 2, s + i + 2)
    m = Matrix(Field.rationals(), [row(1, 2, 3), row(2, 3, 1), row(3, 1, 2)])
    f3 = Field.prime(3)
    m3 = Matrix(f3, [row(1, 1, 0), row(1, 0, 1), row(0, 1, 1)])
    return Degree3System(m, abs(m.det()), m3, not f3.is_zero(m3.det()))


def tortken_prime_relation(m: int) -> CheckOutcome:
    """Exhaustively compare the extra degree-4 polynomial against twice the
    third derivative of the fourfold associative product, over char-3 divided
    powers of exponent m with the product a*b = D(ab).

    Per prefix (a, b, c) of basis indices in lex order, with d bound to every
    basis element as one vector on a `_Products` cache per side: a prefix
    whose vector ids (tortken_prime's terms on A, (ab)(cd) on O) held before
    holds again, and a new one is walked d by d, each distinct pair of ids
    combined once, so the first failure met is the lex-least.  It is
    re-verified by `evaluate` on both sides; `value` is the difference there,
    and `witness_poly` is None, as the relation is no law of one algebra."""
    O = divided_power(3, m)
    A = derivation_symmetric(O, standard_derivation(O))
    tp = catalog_entry("tortken_prime").poly
    v = tp.variables  # the reference side (v0 v1)(v2 v3) is taken in O
    quad = FreePoly.monomial(((v[0], v[1]), (v[2], v[3])), v)
    prefixes = list(itertools.product(range(dim := O.dim), repeat=3))

    def values(poly: FreePoly, B: Algebra):  # terms, cache, node ids per prefix
        prog, prod = _Program([poly], B.field), _Products(B)
        ids = [prod.intern(B.basis(i)) for i in B.indices]
        every = prod.vector(tuple(ids))
        return prog.terms[0], prod, prog.runs(
            prod, ([ids[a], ids[b], ids[c], every] for a, b, c in prefixes))

    terms, pa, lhs = values(tp, A)
    ((_, root),), po, rhs = values(quad, O)
    coefs, nodes = [c for c, _ in terms] + [-2], [i for _, i in terms]  # -2 D^3
    d3 = lambda e: {t - 3: x for t, x in e.items() if t >= 3}  # D^3 on O
    held, vanishing = set(), set()  # keys and pairs at which the sides agree
    for n, (la, lo) in enumerate(zip(lhs, rhs)):
        if (key := (tuple([la[i] for i in nodes]), lo[root])) in held:
            continue
        for d, pair in enumerate(zip(zip(*map(pa.column, key[0])), po.column(key[1]))):
            if pair in vanishing:
                continue
            els = [*map(pa.els.__getitem__, pair[0]), d3(po.els[pair[1]])]
            if diff := combine(A.field, zip(coefs, els)):
                witness = {x: A.basis(i) for x, i in zip(v, (*prefixes[n], d))}
                # O and A share the basis elements
                if diff != combine(A.field, [(1, evaluate(tp, A, witness)),
                                             (-2, d3(evaluate(quad, O, witness)))]):
                    raise UnsoundWitnessError(f"{A.name}: witness of the "
                                              "tortken_prime relation is unsound")
                rank = n * dim + d + 1
                return CheckOutcome(FAILS, rank, 0, witness, diff, orbits=rank)
            vanishing.add(pair)
        held.add(key)
    return CheckOutcome(HOLDS, dim ** 4, 0, orbits=dim ** 4)
