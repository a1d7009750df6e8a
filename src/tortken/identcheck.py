"""Identity checking: evaluation, exhaustive sweeps, identity spaces.

Multilinear identities are decided exhaustively on basis tuples (sufficient by
multilinearity); non-multilinear ones go through full polarization plus seeded
random dense trials.  Windowed (graded) verdicts are always window-relative.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from dataclasses import dataclass, field as _dc_field
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import Field, Matrix
from .algebras import (Algebra, FiniteAlgebra, GradedAlgebra, OutOfWindowError,
                       divided_power, derivation_symmetric, standard_derivation,
                       el_add, el_scale, el_sub)
from .freepoly import (FreePoly, catalog, catalog_entry, multilinear_monomials,
                       mu_vector, polarize, tree_format)

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
    caveat: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json_dict(self, A: Algebra | None = None) -> dict:
        fmt = A.fmt_element if A is not None else (lambda e: repr(e))
        out = {"verdict": self.verdict, "checked": self.checked,
               "skipped": self.skipped}
        if self.caveat:
            out["caveat"] = self.caveat
        if self.witness is not None:
            out["witness"] = {v: fmt(e) for v, e in self.witness.items()}
            out["value"] = fmt(self.value)
        return out


def sweep_threads() -> int:
    """Sweep parallelism cap from TORTKEN_THREADS (default 1)."""
    raw = os.environ.get("TORTKEN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"TORTKEN_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


def evaluate(poly: FreePoly, A: Algebra, assignment: dict) -> dict:
    """Exact evaluation of poly under variable -> element substitution."""
    missing = [v for v in poly.variables if v not in assignment
               and any(v in _tree_vars(t) for t in poly.terms)]
    if missing:
        raise ValueError(f"assignment misses variables {missing}")
    f = A.field
    els = {v: A.element(e) for v, e in assignment.items()}

    def ev(tree):
        if isinstance(tree, str):
            return els[tree]
        return A.mul(ev(tree[0]), ev(tree[1]))

    acc: dict = {}
    for tree, coef in poly.terms.items():
        acc = el_add(f, acc, el_scale(f, f.coerce(coef), ev(tree)))
    return acc


def _tree_vars(t) -> set:
    if isinstance(t, str):
        return {t}
    return _tree_vars(t[0]) | _tree_vars(t[1])


def _positional(tree, posmap: dict):
    if isinstance(tree, str):
        return posmap[tree]
    return (_positional(tree[0], posmap), _positional(tree[1], posmap))


def _substitute(tp, assign):
    if isinstance(tp, int):
        return assign[tp]
    return (_substitute(tp[0], assign), _substitute(tp[1], assign))


def _compile(poly: FreePoly, field: Field) -> list:
    posmap = {v: i for i, v in enumerate(poly.variables)}
    return [(field.coerce(coef), _positional(tree, posmap))
            for tree, coef in poly.sorted_terms()]


def _sweep(poly: FreePoly, A: Algebra, indices: Sequence,
           first_slice: Sequence[int] | None = None) -> CheckOutcome:
    """Exhaustive multilinear check over all basis assignments from `indices`.

    Iteration is lexicographic in the given index order, so the returned
    witness is the least failing assignment.  Out-of-window evaluations are
    skipped and counted.  `first_slice` restricts the first variable to the
    given index-list positions (parallel chunking hook).
    """
    f = A.field
    p = f.char
    idx = list(indices)
    n = len(poly.variables)
    compiled = _compile(poly, f)
    basis_el = [A.basis(i) for i in idx]
    one = f.one
    mul = A.mul
    memo: dict = {}

    def ev(sub):
        if isinstance(sub, int):
            return basis_el[sub]
        got = memo.get(sub)
        if got is None:
            got = mul(ev(sub[0]), ev(sub[1]))
            memo[sub] = got
        return got

    checked = skipped = 0
    first = range(len(idx)) if first_slice is None else first_slice
    spaces = ([first] + [range(len(idx))] * (n - 1)) if n else [first]
    for assign in itertools.product(*spaces):
        try:
            acc: dict = {}
            for c, tp in compiled:
                sub = _substitute(tp, assign)
                if isinstance(sub, tuple):
                    val = mul(ev(sub[0]), ev(sub[1]))
                else:
                    val = basis_el[sub]
                for k, cv in val.items():
                    acc[k] = acc.get(k, 0) + c * cv
        except OutOfWindowError:
            skipped += 1
            continue
        checked += 1
        if p:
            nz = {k: v % p for k, v in acc.items() if v % p}
        else:
            nz = {k: v for k, v in acc.items() if v}
        if nz:
            witness = {v: basis_el[assign[i]]
                       for i, v in enumerate(poly.variables)}
            return CheckOutcome(FAILS, checked, skipped, witness, nz, poly)
    if checked == 0:
        return CheckOutcome(INCONCLUSIVE, 0, skipped)
    return CheckOutcome(HOLDS, checked, skipped)


_FORK_STATE: dict = {}


def _fork_init(poly, A, indices):
    _FORK_STATE["args"] = (poly, A, indices)


def _fork_run(chunk):
    poly, A, indices = _FORK_STATE["args"]
    return _sweep(poly, A, indices, first_slice=chunk)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_parallel(poly: FreePoly, A: FiniteAlgebra, indices: Sequence,
                    threads: int) -> CheckOutcome:
    """Chunk the first variable across processes; merge = first failing chunk,
    which preserves the lexicographically-least-witness contract.

    The pool has at most one worker per usable CPU.  Where that leaves one
    worker, or the platform cannot fork, the sweep runs sequentially."""
    idx = list(indices)
    threads = min(threads, _usable_cpus())
    if threads < 2:
        return _sweep(poly, A, idx)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # the platform cannot fork
        return _sweep(poly, A, idx)
    # contiguous chunks keep chunk order aligned with lexicographic order
    per = (len(idx) + threads - 1) // threads
    chunks = [list(range(i, min(i + per, len(idx))))
              for i in range(0, len(idx), per)]
    with ctx.Pool(len(chunks), initializer=_fork_init,
                  initargs=(poly, A, idx)) as pool:
        results = pool.map(_fork_run, chunks)
    for r in results:
        if r.verdict == FAILS:
            # report the sequential counters: the witness is the lex-least
            # failure, so `checked` is its 1-based rank in the enumeration
            pos = [next(iter(r.witness[v])) for v in poly.variables]
            rank = 0
            for x in pos:
                rank = rank * len(idx) + idx.index(x)
            return CheckOutcome(FAILS, rank + 1, 0, r.witness, r.value,
                                r.witness_poly)
    checked = sum(r.checked for r in results)
    if checked == 0:
        return CheckOutcome(INCONCLUSIVE, 0, 0)
    return CheckOutcome(HOLDS, checked, 0)


def _random_element(A: FiniteAlgebra, rng: random.Random) -> dict:
    f = A.field
    if f.char:
        e = {i: rng.randrange(f.char) for i in range(A.dim)}
    else:
        e = {i: Fraction(rng.randint(-9, 9)) for i in range(A.dim)}
    return {k: v for k, v in e.items() if v}


def check_identity(poly: FreePoly, A: FiniteAlgebra, seed: int = 0,
                   trials: int = 64) -> CheckOutcome:
    """Decide whether poly vanishes identically on A.

    Multilinear polynomials are decided by the exhaustive basis sweep.
    Otherwise every full polarization is swept and the original polynomial is
    additionally evaluated on `trials` seeded dense elements; a characteristic
    caveat is recorded when char <= degree (polarization can be lossy there).
    """
    if poly.is_multilinear():
        threads = sweep_threads()
        n = len(poly.variables)
        if (threads > 1 and isinstance(A, FiniteAlgebra)
                and A.dim ** n >= 4096 and A.dim >= threads):
            return _sweep_parallel(poly, A, range(A.dim), threads)
        return _sweep(poly, A, range(A.dim))
    caveat = None
    if 0 < A.field.char <= poly.degree():
        caveat = (f"char {A.field.char} <= degree {poly.degree()}: "
                  "polarization may not capture the original identity")
    checked = skipped = 0
    for part in polarize(poly):
        out = _sweep(part, A, range(A.dim))
        checked += out.checked
        skipped += out.skipped
        if out.verdict == FAILS:
            out.checked, out.skipped, out.caveat = checked, skipped, caveat
            return out
    rng = random.Random(seed)
    for _ in range(trials):
        assignment = {v: _random_element(A, rng) for v in poly.variables}
        val = evaluate(poly, A, assignment)
        checked += 1
        if val:
            return CheckOutcome(FAILS, checked, skipped, assignment, val, poly,
                                caveat)
    return CheckOutcome(HOLDS, checked, skipped, caveat=caveat)


def check_identity_windowed(poly: FreePoly, A: GradedAlgebra,
                            index_range: Iterable) -> CheckOutcome:
    """Window-relative exhaustive check over basis assignments from index_range.

    Assignments whose evaluation escapes the window are skipped and counted;
    the verdict is Inconclusive when nothing was evaluable.
    """
    idx = list(index_range)
    bad = [i for i in idx if i not in A.index_set]
    if bad:
        raise ValueError(f"indices {bad} outside the window")
    if poly.is_multilinear():
        return _sweep(poly, A, idx)
    checked = skipped = 0
    for part in polarize(poly):
        out = _sweep(part, A, idx)
        checked += out.checked
        skipped += out.skipped
        if out.verdict == FAILS:
            out.checked, out.skipped = checked, skipped
            return out
    if checked == 0:
        return CheckOutcome(INCONCLUSIVE, 0, skipped)
    return CheckOutcome(HOLDS, checked, skipped)


# -- identity spaces ----------------------------------------------------------


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
    and counted.
    """
    monomials = multilinear_monomials(degree, True, order)
    f = A.field
    variables = [f"t{i + 1}" for i in range(degree)]
    polys = [FreePoly.monomial(m, variables) for m in monomials]
    rows = []
    skipped = 0
    used = 0
    for sub in substitutions:
        if len(sub) != degree:
            raise ValueError(f"substitution needs {degree} elements, got {len(sub)}")
        assignment = dict(zip(variables, sub))
        try:
            evals = [evaluate(poly, A, assignment) for poly in polys]
        except OutOfWindowError:
            skipped += 1
            continue
        used += 1
        support = sorted(set().union(*[set(e) for e in evals]))
        if not support:
            rows.append([f.zero] * len(monomials))
            continue
        for k in support:
            rows.append([e.get(k, f.zero) for e in evals])
    matrix = Matrix(f, rows) if rows else Matrix(f, [[f.zero] * len(monomials)])
    _, rank, _ = matrix.rref()
    nullspace = matrix.nullspace()
    flags = {}
    for entry in catalog():
        if entry.degree != degree or len(entry.variables) != degree:
            continue
        if not entry.poly.is_multilinear():
            continue
        try:
            vec = [f.coerce(c) for c in mu_vector(entry.poly, monomials)]
        except ZeroDivisionError:
            flags[entry.name] = None
            continue
        flags[entry.name] = all(f.is_zero(x) for x in matrix.mul_vec(vec))
    return IdentitySpaceReport(degree, order, monomials, getattr(A, "name", "?"),
                               used, skipped, matrix, rank, nullspace, flags)


# -- reference degree-4 data --------------------------------------------------

REFERENCE_DEG4_MATRIX = (
    (2, 2, 2, 4, 2, 4, 2, 1, 1, 4, 2, 1, 1, 1, 1),
    (2, 2, 2, 2, 4, 1, 1, 4, 2, 1, 1, 4, 2, 1, 1),
    (2, 2, 2, 1, 1, 2, 4, 2, 4, 1, 1, 1, 1, 4, 2),
    (2, 2, 2, 1, 1, 1, 1, 1, 1, 2, 4, 2, 4, 2, 4),
    (0, 1, 1, 0, 0, 0, 1, 1, 2, 0, 1, 1, 2, 3, 3),
    (0, 1, 1, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 3, 3),
    (1, 1, 0, 2, 1, 1, 0, 0, 0, 3, 3, 1, 2, 0, 1),
    (1, 1, 0, 0, 1, 0, 1, 3, 3, 0, 0, 2, 1, 2, 1),
    (1, 1, 0, 1, 2, 1, 2, 3, 3, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1),
)

REFERENCE_DEG4_SOLUTIONS = (
    (1, 0, -1, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 0, 1),
    (1, 0, -1, 0, 1, 1, -1, -1, 0, -1, 0, 0, 0, 1, 0),
    (0, 1, -1, -1, 1, 1, 0, -1, 0, 0, -1, 0, 1, 0, 0),
    (0, 1, -1, 0, 0, 1, 0, -1, 0, -1, 0, 1, 0, 0, 0),
    (0, 0, 0, -1, 1, 1, -1, -1, 1, 0, 0, 0, 0, 0, 0),
)

# dependent coordinate -> linear combination of the free coordinates
# (free coordinates are positions 8, 11, 12, 13, 14)
REFERENCE_MU_RELATIONS = {
    0: ((13, 1), (14, 1)),
    1: ((11, 1), (12, 1)),
    2: ((11, -1), (12, -1), (13, -1), (14, -1)),
    3: ((12, -1), (8, -1)),
    4: ((12, 1), (13, 1), (14, 1), (8, 1)),
    5: ((11, 1), (12, 1), (13, 1), (8, 1)),
    6: ((13, -1), (8, -1)),
    7: ((11, -1), (12, -1), (13, -1), (14, -1), (8, -1)),
    9: ((11, -1), (13, -1)),
    10: ((12, -1), (14, -1)),
}

REFERENCE_DEG4_SUBSTITUTIONS = (
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    (0, 0, 1, 2), (0, 0, 2, 1), (0, 2, 1, 0), (1, 0, 0, 2),
    (2, 0, 0, 1), (0, 0, 0, 3),
)


def reference_deg4_algebra() -> GradedAlgebra:
    """Char-0 divided powers (window 5) under the derivation product D(ab)."""
    base = divided_power(0, 5)
    return derivation_symmetric(base, standard_derivation(base))


def reference_deg4_report() -> IdentitySpaceReport:
    A = reference_deg4_algebra()
    subs = [tuple(A.basis(i) for i in s) for s in REFERENCE_DEG4_SUBSTITUTIONS]
    return identity_space(4, A, subs, order="balanced_first")


def verify_reference_solutions(report: IdentitySpaceReport) -> bool:
    """Audit a degree-4 report against the frozen reference kernel data:
    the five recorded solutions and the deg4_basis_* polynomials must lie in
    the kernel, the kernel must be 5-dimensional, every kernel basis vector
    must satisfy the recorded coordinate relations, and deg4_basis_2 must be
    the tortken polynomial in the variable order t1, t3, t2, t4."""
    if report.degree != 4 or report.matrix.cols != 15:
        raise ReportMismatchError("need a degree-4 report on the 15-monomial basis")
    f = report.matrix.field
    M = report.matrix
    for v in REFERENCE_DEG4_SOLUTIONS:
        if any(not f.is_zero(x) for x in M.mul_vec([f.coerce(c) for c in v])):
            return False
    if report.nullity != 5 or len(report.nullspace) != 5:
        return False
    for v in report.nullspace:
        for dep, combo in REFERENCE_MU_RELATIONS.items():
            want = f.zero
            for free, sign in combo:
                want = f.add(want, f.mul(f.coerce(sign), v[free]))
            if v[dep] != want:
                return False
    for i in range(1, 6):
        entry = catalog_entry(f"deg4_basis_{i}")
        vec = [f.coerce(c) for c in mu_vector(entry.poly, report.monomials)]
        if any(not f.is_zero(x) for x in M.mul_vec(vec)):
            return False
    tort = catalog_entry("tortken").poly.rename_variables(
        {"a": "t1", "b": "t3", "c": "t2", "d": "t4"})
    if tort.terms != catalog_entry("deg4_basis_2").poly.terms:
        return False
    return True


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
    m = Matrix(Field.rationals(),
               [row(1, 2, 3), row(2, 3, 1), row(3, 1, 2)])
    d = m.det()
    f3 = Field.prime(3)
    m3 = Matrix(f3, [row(1, 1, 0), row(1, 0, 1), row(0, 1, 1)])
    return Degree3System(m, abs(d), m3, not f3.is_zero(m3.det()))


def tortken_prime_relation(m: int) -> CheckOutcome:
    """Exhaustively compare the extra degree-4 polynomial against twice the
    third derivative of the fourfold associative product, over char-3 divided
    powers of exponent m with the product a*b = D(ab)."""
    O = divided_power(3, m)
    A = derivation_symmetric(O, standard_derivation(O))
    f = A.field
    entry = catalog_entry("tortken_prime")
    compiled = _compile(entry.poly, f)
    dim = O.dim
    checked = 0
    for assign in itertools.product(range(dim), repeat=4):
        basis_map = {i: A.basis(ix) for i, ix in enumerate(assign)}

        def ev(tree):
            if isinstance(tree, int):
                return basis_map[tree]
            return A.mul(ev(tree[0]), ev(tree[1]))

        acc: dict = {}
        for c, tp in compiled:
            val = ev(tp)
            for k, cv in val.items():
                acc[k] = acc.get(k, 0) + c * cv
        acc = {k: v % 3 for k, v in acc.items() if v % 3}
        i, j, k, l = assign
        quad = O.mul(O.mul(O.basis(i), O.basis(j)), O.mul(O.basis(k), O.basis(l)))
        d3 = {t - 3: c for t, c in quad.items() if t >= 3}
        rhs = el_scale(f, 2, d3)
        diff = el_sub(f, acc, rhs)
        checked += 1
        if diff:
            witness = {v: A.basis(ix)
                       for v, ix in zip(entry.variables, assign)}
            return CheckOutcome(FAILS, checked, 0, witness, diff, entry.poly)
    return CheckOutcome(HOLDS, checked, 0)


def operator_identity_check(A: FiniteAlgebra, a1: dict, a2: dict, a3: dict) -> bool:
    """Whether the alternating sum of composed right multiplications
    r_{s(1)} r_{s(2)} r_{s(3)} over Sym_3 vanishes as an operator."""
    f = A.field
    n = A.dim

    def rmat(a):
        cols = [A.dense(A.mul(A.basis(j), a)) for j in range(n)]
        return [[cols[j][k] for j in range(n)] for k in range(n)]

    def matmul(x, y):
        return [[sum_field(f, (f.mul(x[i][t], y[t][j]) for t in range(n)))
                 for j in range(n)] for i in range(n)]

    mats = [rmat(a1), rmat(a2), rmat(a3)]
    total = [[f.zero] * n for _ in range(n)]
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm)
        # (b) r_x r_y r_z applies r_x first: as a matrix that is M_z M_y M_x
        m = matmul(mats[perm[2]], matmul(mats[perm[1]], mats[perm[0]]))
        for i in range(n):
            for j in range(n):
                term = m[i][j] if sign > 0 else f.neg(m[i][j])
                total[i][j] = f.add(total[i][j], term)
    return all(f.is_zero(total[i][j]) for i in range(n) for j in range(n))


def sum_field(f: Field, items) -> object:
    acc = f.zero
    for x in items:
        acc = f.add(acc, x)
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
