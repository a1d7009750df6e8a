"""Frozen degree-4 reference data for the tests: the substitution matrix of
`reference_deg4_report`, five kernel solutions and the coordinate relations
of the kernel, all on the balanced_first monomial order.  The library keeps
none of it: `verify_reference_solutions` audits against the catalog laws
deg4_basis_1..5.  `frozen_audit` is the audit written against these tables,
kept as an independent cross-check of that one."""

from tortken.freepoly import catalog_entry, mu_vector
from tortken.identcheck import ReportMismatchError

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


def frozen_audit(report) -> bool:
    """The audit against the frozen tables: the five solutions and the
    deg4_basis_* polynomials lie in the kernel, the kernel is 5-dimensional,
    every kernel basis vector satisfies the coordinate relations, and
    deg4_basis_2 is tortken in the variable order t1, t3, t2, t4."""
    if report.degree != 4 or report.matrix.cols != 15:
        raise ReportMismatchError("need a degree-4 report on the 15-monomial basis")
    f, M = report.matrix.field, report.matrix
    kernel = list(REFERENCE_DEG4_SOLUTIONS) + [
        mu_vector(catalog_entry(f"deg4_basis_{i}").poly, report.monomials)
        for i in range(1, 6)]
    tort = catalog_entry("tortken").poly.rename_variables(
        {"a": "t1", "b": "t3", "c": "t2", "d": "t4"})
    return (not any(x for v in kernel for x in M.mul_vec(v))
            and report.nullity == 5 == len(report.nullspace)
            and all(v[dep] == f.coerce(sum(sign * v[free] for free, sign in combo))
                    for v in report.nullspace
                    for dep, combo in REFERENCE_MU_RELATIONS.items())
            and tort.terms == catalog_entry("deg4_basis_2").poly.terms)
