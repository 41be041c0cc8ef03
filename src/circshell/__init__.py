"""Exact combinatorics for circulant graphs and lexicographical products:
independence complexes, well-coveredness, shellability, vertex
decomposability, and Cohen-Macaulayness with verifiable certificates.
"""

from .checkers import (
    CheckOutcome,
    NotPureError,
    ShellingCertificate,
    certificate_from_json,
    certificate_to_json,
    shelling,
    verify_shed_tree,
    verify_shelling,
    vertex_decomposition,
)
from .complexes import Complex, alpha, independence_complex
from .graphs import (
    CirculantSpec,
    Graph,
    circulant,
    circulant_lex_connection,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    expansion,
    lex_product,
)
from .homology import (
    HomologyProfile,
    boundary_matrices,
    is_cohen_macaulay,
    reduced_homology,
)
from .suites import RunConfig, SuiteReport, explore_family, run_suite

__version__ = "0.1.0"

__all__ = [
    "CheckOutcome",
    "CirculantSpec",
    "Complex",
    "Graph",
    "HomologyProfile",
    "NotPureError",
    "RunConfig",
    "ShellingCertificate",
    "SuiteReport",
    "alpha",
    "boundary_matrices",
    "certificate_from_json",
    "certificate_to_json",
    "circulant",
    "circulant_lex_connection",
    "complete",
    "cycle",
    "disjoint_union",
    "edgeless",
    "expansion",
    "explore_family",
    "independence_complex",
    "is_cohen_macaulay",
    "lex_product",
    "reduced_homology",
    "run_suite",
    "shelling",
    "verify_shed_tree",
    "verify_shelling",
    "vertex_decomposition",
    "__version__",
]
