"""Exact determinants of box products of paths, four independent ways.

The package computes det(A(P_n box P_m)) over the integers with no floating
point anywhere: direct integer elimination over unit pivots, a block
reduction through the path characteristic polynomial, a resultant form of
the root product, and the closed-form gcd rule.  A divisibility-based
identity suite verifies the algebra that makes the four agree.
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
from .graphs import Graph, box_product, path
from .polynomials import IntPoly, path_charpoly, pseudo_rem, resultant

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_BLOCK_CEILING",
    "DEFAULT_DIRECT_CEILING",
    "DetReport",
    "Graph",
    "IdentityReport",
    "IntPoly",
    "SizeLimitError",
    "__version__",
    "box_product",
    "check_annihilation",
    "check_power",
    "check_product_n_plus_1",
    "check_shift",
    "check_splitting",
    "check_symmetry",
    "det_block",
    "det_closed_form",
    "det_direct",
    "det_resultant",
    "identity_suite",
    "path",
    "path_charpoly",
    "pseudo_rem",
    "resultant",
    "verify_all",
]
