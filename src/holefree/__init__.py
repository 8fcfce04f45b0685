"""Exact maximum weight independent set solving via minimal separators
and potential maximal cliques, with recognition tools for long-hole-free
and k-prism-free graphs."""

__version__ = "0.1.0"

from .graph import Graph, emit_graph, format_weight, parse_graph, parse_weight
from .recognition import (
    ChordalityResult,
    PrismWitness,
    TreeDecomposition,
    clique_atoms,
    clique_tree,
    find_k_prism,
    find_long_hole,
    is_chordal,
    largest_prism,
    minimal_triangulation,
)
from .separators import Separator, analyze_separator, enumerate_minimal_separators
from .pmc import (
    DominationResult,
    block_family,
    dominate_pmc,
    enumerate_pmcs,
    find_covering_component,
    find_separator_cover_pair,
    is_pmc,
)
from .engine import (
    SolveConfig,
    SolveResult,
    RootTable,
    SolveStats,
    brute_force_mwis,
    index_caps,
    solve_bt,
    solve_mwis,
)
from .solvers import (
    BalancedSeparatorResult,
    balanced_separator,
    build_tree_decomposition,
    solve,
    solve_kprism_alg,
    solve_mwc_complement,
    solve_subexp1,
    solve_subexp2,
    solve_treewidth_dp,
)

__all__ = [
    "Graph",
    "parse_graph",
    "emit_graph",
    "parse_weight",
    "format_weight",
    "ChordalityResult",
    "PrismWitness",
    "find_long_hole",
    "find_k_prism",
    "largest_prism",
    "is_chordal",
    "minimal_triangulation",
    "clique_atoms",
    "clique_tree",
    "Separator",
    "analyze_separator",
    "enumerate_minimal_separators",
    "DominationResult",
    "is_pmc",
    "enumerate_pmcs",
    "block_family",
    "find_covering_component",
    "find_separator_cover_pair",
    "dominate_pmc",
    "SolveConfig",
    "SolveResult",
    "SolveStats",
    "RootTable",
    "index_caps",
    "solve_bt",
    "solve_mwis",
    "brute_force_mwis",
    "TreeDecomposition",
    "BalancedSeparatorResult",
    "balanced_separator",
    "build_tree_decomposition",
    "solve_treewidth_dp",
    "solve_kprism_alg",
    "solve_subexp1",
    "solve_subexp2",
    "solve_mwc_complement",
    "solve",
]
