import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dense_rref import dense_rref
from tortken import idealtool
from tortken.exactnum import Echelon, Field, OutOfRangeError
from tortken.algebras import (FiniteAlgebra, GradedAlgebra, NotClosedError,
                              divided_power, gametic, osborn, osborn_bar_finite,
                              plus, random_commutative, subalgebra_on_basis)
from tortken.idealtool import (CannotCertifyError, Subspace,
                               UnsoundWitnessError, certify_simplicity,
                               ideal_closure, is_ideal, psi_char0, psi_charp,
                               psi_cyclic_char0)

F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rationals()
# K x K on the basis u = (1,1), v = (1,-1), and F_25 = F_5[w]/(w^2 - 2)
KXK = FiniteAlgebra("kxk", F5, 2, [[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]])
F25 = FiniteAlgebra("f25", F5, 2, [[{0: 1}, {1: 1}], [{1: 1}, {0: 2}]],
                    ["1", "w"])


def test_closure_of_unit_is_everything():
    O = divided_power(3, 2)
    assert ideal_closure(O, [O.basis(0)]).dim == O.dim


def test_closure_of_zero():
    O = divided_power(3, 1)
    assert ideal_closure(O, [{}]).dim == 0


def test_closure_finds_the_stored_ideal():
    A = plus(osborn(0, 1, 3, 1))
    cl = ideal_closure(A, [A.basis(1)])
    assert cl.dim == 2
    assert is_ideal(A, cl)
    # same span as the codimension-1 subalgebra construction:
    # {1 - 2 b x^(2), x^(1)} = {1 + x^(2), x^(1)} over F3
    expected = Subspace.from_elements(A, [{0: 1, 2: 1}, {1: 1}])
    assert cl == expected


def test_closure_monotone_idempotent():
    A = plus(osborn(0, 1, 3, 1))
    gens = [A.basis(1), {0: 1, 2: 2}]
    cl = ideal_closure(A, gens)
    for g in gens:
        assert cl.contains(g)
    again = ideal_closure(A, cl.basis_elements())
    assert again == cl


def test_is_ideal_basics():
    A = plus(osborn(0, 1, 3, 1))
    whole = Subspace.from_elements(A, [A.basis(i) for i in range(A.dim)])
    assert is_ideal(A, whole)
    assert not is_ideal(A, Subspace.from_elements(A, [A.basis(0)]))
    # e_i e_j = e_j: span{e_0} is closed under left multiplication only
    G = gametic(2)
    assert not is_ideal(G, Subspace.from_elements(G, [G.basis(0)]))


def test_random_line_in_simple_algebra_is_not_ideal():
    A = plus(osborn(1, 0, 3, 1))
    assert certify_simplicity(A).simple
    for coords in ({0: 1}, {1: 1, 2: 2}, {0: 1, 1: 1, 2: 1}):
        assert not is_ideal(A, Subspace.from_elements(A, [coords]))


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("beta", [0, 1])
def test_simple_family_char3(alpha, beta):
    assert certify_simplicity(plus(osborn(alpha, beta, 3, 1))).simple


def test_simple_larger_instances():
    assert certify_simplicity(plus(osborn(1, 0, 5, 1))).simple
    assert certify_simplicity(plus(osborn(1, 1, 3, 2))).simple


def test_not_simple_alpha_zero():
    for beta in (0, 1):
        cert = certify_simplicity(plus(osborn(0, beta, 3, 1)))
        assert cert.verdict == "not_simple"
        assert cert.witness.dim == 2
        assert is_ideal(plus(osborn(0, beta, 3, 1)), cert.witness)


def test_bar_algebra_simplicity():
    assert certify_simplicity(osborn_bar_finite(1, 3, 1)).simple
    assert certify_simplicity(osborn_bar_finite(0, 3, 2)).simple
    assert certify_simplicity(osborn_bar_finite(1, 3, 2)).simple
    assert certify_simplicity(osborn_bar_finite(0, 5, 1)).simple
    # the 2-dimensional beta = 0 instance genuinely is NOT simple:
    # span{1} is an ideal since 1*1 = 0 and 1*x^(1) = 1
    cert = certify_simplicity(osborn_bar_finite(0, 3, 1))
    assert cert.verdict == "not_simple"
    assert cert.witness.dim == 1
    assert is_ideal(osborn_bar_finite(0, 3, 1), cert.witness)


def test_certifier_soundness_rotated_basis():
    # K x K written on the basis u = (1,1), v = (1,-1): every single-basis
    # closure is full, yet the algebra has the ideal K(u+v)
    A = KXK
    for g in range(2):
        assert ideal_closure(A, [A.basis(g)]).dim == 2
    cert = certify_simplicity(A)
    assert cert.verdict == "not_simple"
    assert cert.witness.dim == 1 and is_ideal(A, cert.witness)


def test_certifier_degenerate_and_field_extension():
    zero = FiniteAlgebra("zero", F5, 2, [[{}, {}], [{}, {}]])
    assert certify_simplicity(zero).verdict == "degenerate"
    # F_25 = F_5[w]/(w^2 - 2): simple, but the envelope is a field, so the
    # certificate must come from the zero operator, every projective point
    cert = certify_simplicity(F25)
    assert cert.simple


def test_not_simple_witness_is_proper():
    cert = certify_simplicity(plus(osborn(0, 1, 3, 1)))
    assert 0 < cert.witness.dim < 3


def test_gametic_ideal_structure():
    # one difference e_1 - e_2 already spans an ideal: right products fix it,
    # left products kill it ((e_1 - e_2) e_j = e_j - e_j = 0)
    G = gametic(3)
    cl = ideal_closure(G, [{0: 1, 1: -1}])
    assert cl.dim == 1
    assert is_ideal(G, cl)
    both = ideal_closure(G, [{0: 1, 1: -1}, {1: 1, 2: -1}])
    assert both.dim == 2 and is_ideal(G, both)
    assert certify_simplicity(G).verdict == "not_simple"


@pytest.mark.parametrize("A", [plus(osborn(1, 0, 3, 1)), plus(osborn(0, 1, 3, 1)),
                               gametic(3, F3)], ids=lambda A: A.name)
def test_certificate_on_other_indices(A):
    # a closed algebra on indices other than 0..dim-1 certifies like its copy
    B = GradedAlgebra("shifted", A.field, [i + 10 for i in A.indices],
                      lambda i, j: [(k + 10, c) for k, c in A.product(i - 10, j - 10)],
                      lambda i: A.label(i - 10))
    assert B.closed
    want, got = certify_simplicity(A), certify_simplicity(B)
    assert (got.verdict, got.audit) == (want.verdict, want.audit)
    if want.witness is not None:
        assert got.witness.rows == want.witness.rows
        assert is_ideal(B, got.witness)
        assert all(k in B.position for e in got.witness.basis_elements() for k in e)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2),
                                  (7, 2)])
def test_projective_points_in_lex_order_of_the_filtered_tuples(p, k):
    # the representatives come out as the filtered product gave them: every
    # tuple whose first nonzero coefficient is 1, in lex order
    f, rng = Field.prime(p), random.Random(p * 10 + k)
    vectors = [[rng.randrange(p) for _ in range(k + 2)] for _ in range(k)]
    want = [[sum(c * x for c, x in zip(coeffs, col)) % p
             for col in zip(*vectors)]
            for coeffs in itertools.product(range(p), repeat=k)
            if next((c for c in coeffs if c), None) == 1]
    got = idealtool._projective_points(f, vectors)
    assert not isinstance(got, list)  # generated lazily
    assert list(got) == want and len(want) == (p ** k - 1) // (p - 1)


def test_kernel_point_count_matches_the_benchmark_pattern():
    # perfbench/spans.py sums the counts that this pattern finds in audits
    spans = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parent.parent
        / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spans)
    spans.loader.exec_module(module)
    cert = certify_simplicity(plus(osborn(1, 1, 3, 2)))
    found = [int(n) for line in cert.audit
             for n in module._KERNEL_POINTS.findall(line)]
    assert found == [1]  # one line counted, the draw's line not
    cert = certify_simplicity(F25)
    found = [int(n) for line in cert.audit
             for n in module._KERNEL_POINTS.findall(line)]
    assert found == [(5 ** 2 - 1) // (5 - 1)]


NORTON_1 = "norton: singular operator with nullity 1, 1 kernel points"
DIM1 = "A*A = A in dimension 1, where 0 and A are the only subspaces"


def draw(lam, d):
    return f"norton: T - {lam}*I for envelope draw {d} of seed 1"


@pytest.mark.parametrize("A, verdict, audit, rows", [
    (osborn_bar_finite(0, 3, 1), "not_simple",
     ["closure of basis element x^(0) is proper (1-dimensional)"], ((1, 0),)),
    # no basis operator has nullity 1, and the second draw has an eigenvalue
    # of nullity 1
    (plus(osborn(1, 1, 3, 2)), "simple",
     ["all 9 basis closures are full", draw(1, 2), NORTON_1,
      "norton criterion passed"], None),
    (KXK, "not_simple", ["all 2 basis closures are full", draw(0, 1),
                         NORTON_1, "kernel point spans a proper ideal"],
     ((1, 1),)),  # K x K has the two ideals K x 0 and 0 x K
    (gametic(3, F3), "not_simple",
     ["all 3 basis closures are full", draw(0, 2), NORTON_1,
      "dual kernel point spans a proper invariant subspace"],
     ((1, 0, 2), (0, 1, 2))),
    # the envelope is the field F_25: the singular operators are 0 only, and
    # the third draw is the scalar 4, so T - 4I is the zero operator, ahead
    # of the last candidate
    (F25, "simple", ["all 2 basis closures are full", draw(4, 3),
                     "norton: singular operator with nullity 2, 6 kernel points",
                     "norton criterion passed"], None),
    # over Q with no candidate of nullity 1 the basis differences decide
    (plus(gametic(3)), "not_simple",
     ["all 3 basis closures are full",
      "closure of e1 - e2 is proper (1-dimensional)"], ((1, -1, 0),)),
    # in dimension 1, A*A = A leaves no subspace between 0 and A, over every
    # field (over Q there is no Norton candidate)
    (gametic(1), "simple", [DIM1], None),
    (gametic(1, F5), "simple", [DIM1], None),
    (random_commutative(1, Q, 0), "simple", [DIM1], None),
    (FiniteAlgebra("zero", Q, 1, [[{}]]), "degenerate", ["A*A = 0"], None),
], ids=["bar-0-3-1", "plus-osborn-1-1-3-2", "kxk", "gametic3-F3", "f25",
        "plus-gametic3-Q", "dim1-Q", "dim1-F5", "dim1-random-Q", "dim1-zero"])
def test_certificate_routes(A, verdict, audit, rows):
    cert = certify_simplicity(A)
    assert (cert.verdict, cert.audit) == (verdict, audit)
    if rows is None:
        assert cert.witness is None
    else:
        assert cert.witness.rows == rows and is_ideal(A, cert.witness)


def test_uncertifiable_and_windowed_algebras_raise():
    with pytest.raises(CannotCertifyError):
        certify_simplicity(random_commutative(4, Q, 3))
    W = GradedAlgebra("window", Q, range(3), lambda i, j: [(i + j, 1)], str)
    assert not W.closed
    for run in (certify_simplicity, lambda A: ideal_closure(A, [A.basis(0)])):
        with pytest.raises(NotClosedError):
            run(W)


def test_certificate_json():
    cert = certify_simplicity(plus(osborn(0, 1, 3, 1)))
    payload = json.loads(json.dumps(cert.to_json_dict()))
    assert payload["verdict"] == "not_simple"
    assert payload["witness_ideal"]["dim"] == 2
    assert len(payload["witness_ideal"]["basis"]) == 2


def test_dual_spin_witness_is_rechecked(monkeypatch):
    # a wrong dual spin (zero transposed operators leave every dual vector
    # invariant) yields an annihilator that is not an ideal; the explicit
    # check must refuse it, also under `python -O`
    A = plus(osborn(1, 1, 3, 1))
    monkeypatch.setattr(idealtool, "_dual_operators",
                        lambda ops: [[[] for _ in op] for op in ops])
    with pytest.raises(UnsoundWitnessError):
        certify_simplicity(A)


def test_subspace_add_returns_residue():
    A = plus(osborn(0, 1, 3, 1))
    S = Subspace(A, [])
    assert S.add([0, 2, 1]) == (0, 1, 2)
    assert S.add([0, 1, 2]) is None
    assert S.add([1, 1, 1]) == (1, 0, 2)
    assert S.rows == ((1, 0, 2), (0, 1, 2))
    assert S.reduce([1, 1, 0]) == [0, 0, 2]
    with pytest.raises(ValueError):
        S.add([1, 0])


# -- the incremental kernel against the rebuild-per-vector spin ----------------

def _rref_rows(A, rows):
    R, rank, _ = dense_rref(A.field, rows)
    return tuple(tuple(R[i]) for i in range(rank))


def _oracle_reduce(f, rows, vec):
    v = [f.coerce(x) for x in vec]
    for row in rows:
        lead = next(i for i, x in enumerate(row) if not f.is_zero(x))
        if not f.is_zero(v[lead]):
            c = v[lead]
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return v


def _oracle_closure(A, seeds):
    """Ideal closure by breadth-first spinning that rebuilds and re-RREFs the
    whole basis for every new vector."""
    f = A.field
    n = A.dim
    prod = [[A.dense(A.mul(A.basis(i), A.basis(j))) for j in range(n)]
            for i in range(n)]
    rows = _rref_rows(A, seeds)
    frontier = list(rows)
    while frontier and len(rows) < n:
        batch = []
        for v in frontier:
            for i in range(n):
                left = [f.zero] * n    # e_i * v
                right = [f.zero] * n   # v * e_i
                for j, c in enumerate(v):
                    for k in range(n):
                        left[k] = f.add(left[k], f.mul(c, prod[i][j][k]))
                        right[k] = f.add(right[k], f.mul(c, prod[j][i][k]))
                batch += [left, right]
        frontier = []
        for w in batch:
            res = _oracle_reduce(f, rows, w)
            if any(not f.is_zero(x) for x in res):
                rows = _rref_rows(A, list(rows) + [res])
                frontier.append(res)
    return rows


def _random_scalar(f, rng):
    if f.char:
        return rng.randrange(f.char)
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def _random_algebra(f, dim, commutative, rng):
    if commutative:
        return random_commutative(dim, f, rng.randrange(10**6))
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c = _random_scalar(f, rng)
                if c and rng.random() < 0.4:
                    table[i][j][k] = c
    return FiniteAlgebra("random", f, dim, table)


FIELDS = (Field.prime(2), F3, Q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.booleans(),
       st.integers(1, 3), st.integers(0, 2**32))
def test_closure_matches_rebuild_oracle(f, dim, commutative, ngens, seed):
    rng = random.Random(seed)
    A = _random_algebra(f, dim, commutative, rng)
    gens = [{i: c for i in range(dim) if (c := _random_scalar(f, rng))}
            for _ in range(ngens)]
    dense = [A.dense(A.element(g)) for g in gens]
    assert ideal_closure(A, gens).rows == _oracle_closure(A, dense)
    # the kernel on its own: any insertion order gives the same RREF rows
    S = Subspace(A, dense[::-1])
    assert S.rows == _rref_rows(A, dense)
    probe = [_random_scalar(f, rng) for _ in range(dim)]
    assert S.reduce(probe) == _oracle_reduce(f, _rref_rows(A, dense), probe)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32))
def test_early_exit_spin_matches_oracle(f, dim, commutative, seed):
    # the positions whose closure is full let `_spin` stop early; it may say
    # "whole algebra" (None) only when the closure is full, and a proper span
    # must be the oracle's
    rng = random.Random(seed)
    A = _random_algebra(f, dim, commutative, rng)
    full = {g for g, i in enumerate(A.indices)
            if ideal_closure(A, [A.basis(i)]).dim == dim}
    ops = idealtool._operators(A)
    for _ in range(3):
        v = [_random_scalar(f, rng) if rng.random() < 0.5 else 0
             for _ in range(dim)]
        span = idealtool._spin(A, [v], ops, full)
        want = _oracle_closure(A, [v])
        if span is None:
            assert len(want) == dim
            assert ideal_closure(A, [A.element(dict(enumerate(v)))]).dim == dim
        else:
            assert span.dim < dim and span.rows == want


def _counted_certificate(monkeypatch, A):
    """The certificate of A and the number of `Echelon.insert` calls."""
    inserts = 0
    insert = Echelon.insert

    def counted(self, v):
        nonlocal inserts
        inserts += 1
        return insert(self, v)

    monkeypatch.setattr(Echelon, "insert", counted)
    return certify_simplicity(A), inserts


def test_dim25_certificate_and_its_work(monkeypatch):
    # the fourth envelope draw has an eigenvalue of nullity 1, so one kernel
    # point is spun, not the 781 of the best nullity-5 operator of the fixed
    # list: 1795 inserts, against 11938 for those with early-exit spins and
    # 140627 for spins run to full dimension
    cert, inserts = _counted_certificate(monkeypatch, plus(osborn(1, 0, 5, 2)))
    assert (cert.verdict, cert.audit) == ("simple", [
        "all 25 basis closures are full", draw(1, 4), NORTON_1,
        "norton criterion passed"])
    assert inserts < 2500


def test_dim27_certificate_and_its_work(monkeypatch):
    # the best operator of the fixed list has nullity 9 and 9841 kernel
    # points; the third draw has an eigenvalue of nullity 1 (2011 inserts)
    A = plus(osborn(1, 1, 3, 3))
    start = time.perf_counter()
    cert = certify_simplicity(A)
    assert time.perf_counter() - start < 1
    assert (cert.verdict, cert.audit) == ("simple", [
        "all 27 basis closures are full", draw(1, 3), NORTON_1,
        "norton criterion passed"])
    assert _counted_certificate(monkeypatch, A)[1] < 2500


def _sweep_verdict(A):
    """Simplicity from the oracle closure of every projective point."""
    if not any(A.mul(A.basis(i), A.basis(j))
               for i in range(A.dim) for j in range(A.dim)):
        return "degenerate"
    for coeffs in itertools.product(range(A.field.char), repeat=A.dim):
        if next((c for c in coeffs if c), None) != 1:
            continue
        if len(_oracle_closure(A, [list(coeffs)])) < A.dim:
            return "not_simple"
    return "simple"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS[:2]), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32))
def test_certificate_matches_exhaustive_sweep(f, dim, commutative, seed):
    A = _random_algebra(f, dim, commutative, random.Random(seed))
    cert = certify_simplicity(A)
    assert cert.verdict == _sweep_verdict(A)
    if cert.verdict == "not_simple":
        assert 0 < cert.witness.dim < A.dim and is_ideal(A, cert.witness)


def _rotated_dim5(f, commutative, rng):
    """A random algebra on F_p^5 with the ideal span{e_k, ..., e_4} for a
    random k (no ideal is built in for k = 5), rewritten on a random basis,
    so that its basis operators are dense."""
    p, n = f.char, 5
    k = rng.randrange(1, n + 1)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i if commutative else 0, n):
            lo = k if max(i, j) >= k else 0
            table[i][j] = {c: x for c in range(lo, n) if (x := rng.randrange(p))}
            if commutative:
                table[j][i] = table[i][j]
    A = FiniteAlgebra("random", f, n, table)
    while True:
        basis = [{j: x for j in range(n) if (x := rng.randrange(p))}
                 for _ in range(n)]
        try:
            return subalgebra_on_basis(A, basis, "rotated")
        except ValueError:  # a dependent basis: draw again
            pass


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS[:2]), st.booleans(), st.integers(0, 2**32))
def test_draw_route_matches_exhaustive_sweep(f, commutative, seed):
    # the certificate as it is, and with the basis operators dropped from
    # the candidates, so that the envelope draws decide every Norton step
    A = _rotated_dim5(f, commutative, random.Random(seed))
    candidates = idealtool._norton_candidates
    want = _sweep_verdict(A)
    for skip in (0, len(idealtool._operators(A))):
        with mock.patch.object(
                idealtool, "_norton_candidates", lambda ops, field:
                itertools.islice(candidates(ops, field), skip, None)):
            cert = certify_simplicity(A)
        assert cert.verdict == want
        if cert.verdict == "not_simple":
            assert 0 < cert.witness.dim < A.dim and is_ideal(A, cert.witness)


def test_q_norton_step_decided_by_a_difference_of_basis_operators():
    # a commutative Q algebra with the ideal span{e0 - e1 + e2}, on no basis
    # element: every basis closure is full, and over Q no draws are made.
    # L0 and L2 are singular of nullity 2 and L1 is regular, so the first
    # operator of nullity 1 is L0 - L1, from the sums and differences; its
    # kernel point spins to A, and the dual spin finds the ideal
    t = {(0, 0): {2: 1}, (0, 1): {2: 1}, (1, 1): {0: -1}, (1, 2): {1: -1},
         (2, 2): {1: -1}}
    A = FiniteAlgebra("dense-ideal", Q, 3, [[t.get((min(i, j), max(i, j)), {})
                                             for j in range(3)] for i in range(3)])
    cert = certify_simplicity(A)
    assert cert.verdict == "not_simple"
    assert cert.audit == [
        "all 3 basis closures are full",
        "norton: singular operator with nullity 1, 1 kernel points",
        "dual kernel point spans a proper invariant subspace"]
    assert cert.witness.rows == ((1, -1, 1),) and is_ideal(A, cert.witness)


def test_draws_stop_at_large_characteristic():
    # NORTON_DRAWS * p above NORTON_BOUND: walking every lam would take
    # too long, so no draw is made; p = 2011 is still walked
    for p, drawn in ((2011, True), (2503, False), (2**61 - 1, False)):
        ops = idealtool._operators(random_commutative(3, Field.prime(p), 0))
        routes = [route for _, route in idealtool._norton_candidates(
            ops, Field.prime(p)) if route is not None]
        assert len(routes) == (idealtool.NORTON_DRAWS * p if drawn else 0)


def test_psi_char0():
    assert psi_char0(3, -3) == 1
    assert psi_char0(3, -2) == 0
    for i in range(-6, 7):
        for j in range(-6, 7):
            for s in range(-6, 7):
                want = Fraction(2 if i + j + s == 1 else 0)
                assert psi_cyclic_char0(i, j, s) == want


def test_psi_charp_oracle():
    for i in range(1, 9):
        assert psi_charp(3, 2, i, 9 - i) == (math.comb(9, i) // 3) % 3
        assert psi_charp(3, 2, i, (9 - i) % 9 if i != 0 else 0) in (0, 1, 2)
    assert psi_charp(3, 2, 3, 6) == 1
    assert psi_charp(2, 2, 2, 2) == 1
    assert psi_charp(3, 1, 1, 1) == 0  # i + j != 3
    with pytest.raises(OutOfRangeError):
        psi_charp(3, 1, 0, 3)
    with pytest.raises(OutOfRangeError):
        psi_charp(3, 1, 3, 0)
