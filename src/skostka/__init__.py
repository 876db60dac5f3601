"""Signed p-Kostka numbers over odd primes.

Two independent engines compute the Krull-Schmidt multiplicities of
signed Young modules inside signed Young permutation modules: a
combinatorial reduction to smaller plain and projective multiplicities
(reduction), and Fitting splitting of explicit modules over GF(p)
(modrep). Tableaux counts and character vectors (tabx) give a third,
filtration-level view. The consistency checks (checks) run as the
`verify` suites of the command line (cli), which also caches results.
"""

from . import combinat, gfp, modrep, reduction, tabx
from .combinat import (
    enumerate_p2,
    enumerate_p2p,
    mullineux,
    p_adic_expansion,
    sign_twist_label,
    total_key,
)
from .modrep import (
    DimensionCapError,
    DirectEngine,
    IntegrityError,
    assemble_matrix,
    build_module,
    modules_isomorphic,
)
from .reduction import (
    enumerate_lambda,
    enumerate_lambda_supp,
    product_formula,
    rowcut_lower_bound,
    signed_kostka,
)
from .tabx import char_vector, count_signed_ssyt, iso_equivalent, pieri_expand

__version__ = "0.1.0"

__all__ = [
    "DimensionCapError",
    "DirectEngine",
    "IntegrityError",
    "assemble_matrix",
    "build_module",
    "char_vector",
    "combinat",
    "count_signed_ssyt",
    "enumerate_lambda",
    "enumerate_lambda_supp",
    "enumerate_p2",
    "enumerate_p2p",
    "gfp",
    "iso_equivalent",
    "modrep",
    "modules_isomorphic",
    "mullineux",
    "p_adic_expansion",
    "pieri_expand",
    "product_formula",
    "reduction",
    "rowcut_lower_bound",
    "sign_twist_label",
    "signed_kostka",
    "tabx",
    "total_key",
]
