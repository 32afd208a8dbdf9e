"""Exact-arithmetic computation of the codimension-two Brill-Noether class
on the moduli space of stable curves: enumerative counts, test-surface
linear system, exact rational solve, and cross-checks."""

from bn2.basis import (
    ClassExpression,
    ClassLabel,
    basis_dimension,
    canonicalize,
    enumerate_basis,
)
from bn2.enumerative import (
    SchubertIndex,
    castelnuovo_N,
    count_ell,
    count_m,
    count_n,
    rho,
    sum_D,
    sum_S16,
    sum_T,
)
from bn2.relations import (
    RelationSystem,
    build_matrix,
    build_relations,
    build_rhs_vector,
    build_T,
    evaluate_rhs,
    solve_class,
    system_matrix,
    triangularity_report,
)
from bn2.solver import RationalMatrix, rank
from bn2.verify import closed_form_class, pullback_image, pullback_matrix, known_trigonal_class

__version__ = "0.1.0"
