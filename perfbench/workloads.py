"""The three benchmark workloads as lists of jobs with expected outputs.

A workload is a fixed list of job families.  Each family has a small grid of
parameter sets; a seed picks one grid point per family, and every grid point
had its expected outputs confirmed at the commit that defined the benchmark
(``test_bench.py::test_every_grid_point_is_correct`` re-runs that check).
The library only ever receives the algebras, polynomials and substitution
lists built here.

Job callables look library functions up through their modules at call time
(``identcheck.check_identity``, not a name bound at import), so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tortken import algebras, cli, freepoly, idealtool, identcheck

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

WORKLOADS = ("sweep", "idspace", "certify")

# Catalog laws known to lie in the kernel of Novikov-Jordan identity spaces.
DEG4_KERNEL_LAWS = frozenset({
    "tortken", "tortken_left", "alt_right_mult", "cyclic_assoc_middle",
    "cyclic_assoc_outer", "deg4_basis_1", "deg4_basis_2", "deg4_basis_3",
    "deg4_basis_4", "deg4_basis_5"})
DEG5_KERNEL_LAWS = frozenset({
    "cyclic_assoc_nested", "deg5_i", "deg5_ii", "deg5_iii", "deg5_iv"})
DEG4_LAWS = ("tortken", "tortken_left", "alt_right_mult",
             "cyclic_assoc_middle", "cyclic_assoc_outer")
EARLY_FAILS = ("sokolov", "right_unit_law", "assoc_jordan_deg4")
POOL_JOB = "tortken dim27"    # also timed under the fork pool in traced runs


@dataclass
class Job:
    """One unit of work: `run` calls the library, `check` returns None when
    the output is correct and a reason string otherwise."""
    name: str
    light: bool
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Family:
    """Jobs built on one seeded parameter set (or on none)."""
    name: str
    grid: tuple
    make: Callable[[tuple], list]


# -- expected-output checks ----------------------------------------------------

def _poly(name: str):
    return freepoly.catalog_entry(name).poly


def _holds_exhaustively(A, poly) -> Callable:
    total = A.dim ** len(poly.variables)

    def check(out):
        if out.verdict != identcheck.HOLDS:
            return f"verdict {out.verdict}, expected holds"
        if (out.checked, out.skipped) != (total, 0):
            return f"checked {out.checked} skipped {out.skipped}, expected {total} 0"
        return None
    return check


def _holds_in_window(index_count: int, degree: int) -> Callable:
    total = index_count ** degree

    def check(out):
        if out.verdict != identcheck.HOLDS:
            return f"verdict {out.verdict}, expected holds"
        if out.checked <= 0 or out.checked + out.skipped != total:
            return f"checked {out.checked} + skipped {out.skipped} != {total}"
        return None
    return check


def _holds(out):
    if out.verdict != identcheck.HOLDS:
        return f"verdict {out.verdict}, expected holds"
    return None


def _fails_with_witness(A) -> Callable:
    def check(out):
        if out.verdict != identcheck.FAILS:
            return f"verdict {out.verdict}, expected fails"
        value = identcheck.evaluate(out.witness_poly, A, out.witness)
        if not value or value != out.value:
            return f"witness re-evaluates to {value!r}, reported {out.value!r}"
        return None
    return check


def _identity_space(nullity: int, kernel_laws: frozenset) -> Callable:
    def check(rep):
        if rep.nullity != nullity or len(rep.nullspace) != nullity:
            return f"nullity {rep.nullity}, expected {nullity}"
        if rep.rank + rep.nullity != rep.matrix.cols:
            return f"rank {rep.rank} + nullity {rep.nullity} != {rep.matrix.cols}"
        in_kernel = frozenset(n for n, ok in rep.flags.items() if ok)
        if in_kernel != kernel_laws:
            return f"kernel laws {sorted(in_kernel)}, expected {sorted(kernel_laws)}"
        return None
    return check


def _certified(A, verdict: str) -> Callable:
    def check(cert):
        if cert.verdict != verdict:
            return f"verdict {cert.verdict}, expected {verdict}"
        if verdict == "not_simple":
            w = cert.witness
            if w is None or not 0 < w.dim < A.dim:
                return f"witness dimension {w.dim if w else None} not proper"
            if not idealtool.is_ideal(A, w):
                return "witness is not an ideal"
        return None
    return check


def _reproduce(target: str, light: bool = True) -> Job:
    golden = (GOLDEN_DIR / f"{target}.txt").read_text()

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["reproduce", target])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if text != golden:
            return "output differs from tests/golden"
        return None
    return Job(f"reproduce {target}", light, run, check)


def _check_job(name: str, A, poly, check, light: bool) -> Job:
    return Job(name, light, lambda: identcheck.check_identity(poly, A), check)


# -- families ------------------------------------------------------------------

def _sweep27(params) -> list:
    a, b = params
    A = algebras.osborn_plus_explicit(a, b, 3, 3)
    poly = _poly("tortken")
    return [_check_job(POOL_JOB, A, poly, _holds_exhaustively(A, poly),
                       False)]


def _sweep9(params) -> list:
    a, b = params
    A = algebras.plus(algebras.osborn(a, b, 3, 2))
    jobs = []
    poly = _poly("deg5_iv")
    jobs.append(_check_job("deg5_iv dim9", A, poly,
                           _holds_exhaustively(A, poly), False))
    for law in DEG4_LAWS:
        poly = _poly(law)
        jobs.append(_check_job(f"{law} dim9", A, poly,
                               _holds_exhaustively(A, poly), True))
    for law in EARLY_FAILS:
        jobs.append(_check_job(f"{law} dim9", A, _poly(law),
                               _fails_with_witness(A), True))
    return jobs


def _sweep7(params) -> list:
    a, b = params
    A = algebras.plus(algebras.osborn(a, b, 7, 1))
    jobs = []
    for law in ("cyclic_assoc_nested", "deg5_ii"):
        poly = _poly(law)
        jobs.append(_check_job(f"{law} dim7", A, poly,
                               _holds_exhaustively(A, poly), False))
    for law in DEG4_LAWS:
        poly = _poly(law)
        jobs.append(_check_job(f"{law} dim7", A, poly,
                               _holds_exhaustively(A, poly), True))
    return jobs


def _sweep_fixed(_params) -> list:
    G = algebras.plus(algebras.gametic(4))
    return [_check_job("gametic_jordan polarized", G, _poly("gametic_jordan"),
                       _holds, True),
            _reproduce("counterexample"),
            _reproduce("tortken-prime")]


def _substitutions(A, indices, degree: int) -> list:
    return [tuple(A.basis(i) for i in t)
            for t in itertools.product(indices, repeat=degree)]


def _idspace5(params) -> list:
    a, b = params
    A = algebras.plus(algebras.osborn(a, b, 5, 1))
    subs = _substitutions(A, range(A.dim), 5)
    return [Job("identity_space deg5 dim5", False,
                lambda: identcheck.identity_space(5, A, subs),
                _identity_space(70, DEG5_KERNEL_LAWS))]


LAURENT_WINDOW = (-6, 6)
LAURENT_RANGE = range(-2, 3)


def _laurent(params) -> list:
    a, b = params
    L = algebras.osborn_laurent(a, b, *LAURENT_WINDOW, "jordan")
    subs = _substitutions(L, LAURENT_RANGE, 4)
    poly = _poly("tortken")
    idx = list(LAURENT_RANGE)
    return [Job("identity_space deg4 laurent", False,
                lambda: identcheck.identity_space(4, L, subs),
                _identity_space(5, DEG4_KERNEL_LAWS)),
            Job("tortken laurent window", True,
                lambda: identcheck.check_identity_windowed(poly, L, idx),
                _holds_in_window(len(idx), 4))]


INTEGRATION_N = 12
INTEGRATION_RANGE = range(0, 5)
# Expected at the defining commit: the integration product is not commutative,
# so its rows over the commutative monomial basis leave a 1-dimensional kernel
# that contains none of the catalog laws.
INTEGRATION_NULLITY = 1


def _idspace_fixed(_params) -> list:
    I = algebras.integration_product(INTEGRATION_N)
    subs = _substitutions(I, INTEGRATION_RANGE, 4)
    poly = _poly("tortken")
    idx = list(INTEGRATION_RANGE)
    return [Job("identity_space deg4 integration", False,
                lambda: identcheck.identity_space(4, I, subs),
                _identity_space(INTEGRATION_NULLITY, frozenset())),
            Job("tortken integration window", True,
                lambda: identcheck.check_identity_windowed(poly, I, idx),
                _holds_in_window(len(idx), 4)),
            _reproduce("deg4-matrix"),
            _reproduce("det54"),
            _reproduce("psi")]


def _certify_job(name, A, verdict, light) -> Job:
    return Job(name, light, lambda: idealtool.certify_simplicity(A),
               _certified(A, verdict))


def _certify_p(p: int):
    def make(params) -> list:
        a, b = params
        A = algebras.plus(algebras.osborn(a, b, p, 1))
        twin = algebras.plus(algebras.osborn(0, b, p, 1))
        return [_certify_job(f"certify osborn_plus p={p}", A, "simple", p < 13),
                _certify_job(f"certify osborn_plus p={p} alpha=0", twin,
                             "not_simple", True)]
    return make


def _certify_bar(p: int):
    def make(params) -> list:
        (b,) = params
        B = algebras.osborn_bar_finite(b, p, 1)
        return [_certify_job(f"certify osborn_bar p={p}", B, "simple", p < 13)]
    return make


def _certify9(params) -> list:
    a, b = params
    A = algebras.plus(algebras.osborn(a, b, 3, 2))
    return [_certify_job("certify osborn_plus dim9", A, "simple", True)]


def _certify_fixed(_params) -> list:
    return [_reproduce("simplicity-table", light=False)]


def _grid(alphas, betas) -> tuple:
    return tuple(itertools.product(alphas, betas))


def _edge_grid(p: int) -> tuple:
    edges = (1, 2, p - 1)
    return _grid(edges, (0, 1, p - 1))


FAMILIES = {
    "sweep": (
        Family("osborn_plus(3,3)", _grid((1, 2), (0, 1, 2)), _sweep27),
        Family("plus(osborn(3,2))", _grid((1, 2), (0, 1, 2)), _sweep9),
        Family("plus(osborn(7,1))", _grid(range(1, 7), range(7)), _sweep7),
        Family("fixed", ((),), _sweep_fixed),
    ),
    "idspace": (
        Family("plus(osborn(5,1))", _grid(range(1, 5), range(5)), _idspace5),
        # beta = 0 throughout: beta != 0 adds a second term to every product
        # and triples the rows, so seeds would no longer do comparable work.
        Family("osborn_laurent", _grid((Fraction(1, 2), 1, Fraction(3, 2), 2),
                                       (0,)), _laurent),
        Family("fixed", ((),), _idspace_fixed),
    ),
    "certify": (
        Family("plus(osborn(11,1))", _edge_grid(11), _certify_p(11)),
        Family("plus(osborn(13,1))", _edge_grid(13), _certify_p(13)),
        Family("plus(osborn(17,1))", _edge_grid(17), _certify_p(17)),
        Family("plus(osborn(19,1))", _edge_grid(19), _certify_p(19)),
        Family("osborn_bar(11,1)", tuple((b,) for b in (0, 1, 10)),
               _certify_bar(11)),
        Family("osborn_bar(13,1)", tuple((b,) for b in (0, 1, 12)),
               _certify_bar(13)),
        Family("plus(osborn(3,2))", _grid((1, 2), (0, 1, 2)), _certify9),
        Family("fixed", ((),), _certify_fixed),
    ),
}


def draw_params(workload: str, seed: int) -> list:
    """One grid point per family of the workload, as the seed picks them."""
    rng = random.Random(seed)
    return [rng.choice(fam.grid) for fam in FAMILIES[workload]]


def build(workload: str, seed: int) -> list[Job]:
    """All jobs of the workload for this seed, expected outputs included."""
    jobs = []
    for fam, params in zip(FAMILIES[workload], draw_params(workload, seed)):
        jobs += fam.make(params)
    return jobs
