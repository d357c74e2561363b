"""Approximation pipeline for minimum 2-edge-connected spanning subgraphs.

Public surface: the multigraph core, exact oracles, the cover/credit/glue
phases, the recursive reduction, and the end-to-end pipeline used by the CLI.
"""

from .errors import (BudgetExceeded, Infeasible, NotCanonical,
                     NotTwoEdgeConnected, ParseError, PatchNotFound,
                     RejectionLimit, Stuck, StructuredViolation, TwoECError,
                     Untypeable)
from .graph import (EdgeSubset, MultiGraph, contract, contract_many,
                    decompose, find_vertex_cut, induced_subgraph,
                    is_two_edge_connected, iterate_vertex_cuts,
                    max_matching_across)
from .oracle import exact_min_2ecss, exact_min_tf_cover, verify_2ecss
from .cover import (TwoEdgeCover, canonicalize, check_canonical,
                    min_triangle_free_cover)
from .credits import assert_cost_bound, cost, cover_bridges, init_credits
from .glue import glue_all
from .reduction import ReductionConfig, reduce
from .generate import generate
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "BudgetExceeded", "Infeasible", "NotCanonical", "NotTwoEdgeConnected",
    "ParseError", "PatchNotFound", "RejectionLimit", "Stuck",
    "StructuredViolation", "TwoECError", "Untypeable",
    "EdgeSubset", "MultiGraph", "contract", "contract_many", "decompose",
    "find_vertex_cut", "induced_subgraph", "is_two_edge_connected",
    "iterate_vertex_cuts", "max_matching_across",
    "exact_min_2ecss", "exact_min_tf_cover", "verify_2ecss",
    "TwoEdgeCover", "canonicalize", "check_canonical",
    "min_triangle_free_cover",
    "assert_cost_bound", "cost", "cover_bridges", "init_credits",
    "glue_all", "ReductionConfig", "reduce", "generate",
    "PipelineConfig", "run_pipeline",
]

__version__ = "0.1.0"
