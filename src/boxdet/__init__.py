"""Exact determinants of box products of paths, four independent ways.

The package computes det(A(P_n box P_m)) over the integers with no floating
point anywhere: direct fraction-free elimination, a block reduction through
the path characteristic polynomial, a resultant form of the root product,
and the closed-form gcd rule.  A divisibility-based identity suite verifies
the algebra that makes the four agree.
"""
from .det_methods import (
    DEFAULT_BLOCK_CEILING,
    DEFAULT_DIRECT_CEILING,
    DetReport,
    IdentityReport,
    SizeLimitError,
    check_annihilation,
    check_power,
    check_product_n_plus_1,
    check_shift,
    check_splitting,
    check_symmetry,
    det_block,
    det_closed_form,
    det_direct,
    det_resultant,
    identity_suite,
    verify_all,
)
from .exact_linalg import (
    IntMatrix,
    bareiss_det,
    cofactor_det,
    sylvester_matrix,
)
from .graphs import Graph, adjacency_matrix, box_product, path
from .polynomials import IntPoly, Parity, parity, path_charpoly, pseudo_rem, resultant

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_BLOCK_CEILING",
    "DEFAULT_DIRECT_CEILING",
    "DetReport",
    "Graph",
    "IdentityReport",
    "IntMatrix",
    "IntPoly",
    "Parity",
    "SizeLimitError",
    "__version__",
    "adjacency_matrix",
    "bareiss_det",
    "box_product",
    "check_annihilation",
    "check_power",
    "check_product_n_plus_1",
    "check_shift",
    "check_splitting",
    "check_symmetry",
    "cofactor_det",
    "det_block",
    "det_closed_form",
    "det_direct",
    "det_resultant",
    "identity_suite",
    "parity",
    "path",
    "path_charpoly",
    "pseudo_rem",
    "resultant",
    "sylvester_matrix",
    "verify_all",
]
