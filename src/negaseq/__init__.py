"""Toolkit for negative orientable sequences over alphabets of size k > 2.

Submodules:

* tuples  -- words over Z_k, symmetry maps, structural predicates, counts
* graph   -- the reduced de Bruijn graph and per-sequence subgraphs
* verify  -- window-sequence / NOS / OS verdicts with failure witnesses
* bounds  -- period upper bounds and reference-table regression
* search  -- exhaustive symmetry-reduced search for maximum-period NOS
* cli     -- command-line front end
"""

from .tuples import TupleClass, Word, count_class, enumerate_class
from .verify import PeriodicSequence, Verdict, is_nos, is_os, is_window_sequence, minimal_period
from .graph import (
    BoundBreakdown,
    ReducedGraph,
    SequenceSubgraph,
    edge_count_formula,
    excluded_edge_budget,
    export_dot,
    sequence_subgraph,
    vertex_profile,
)
from .bounds import BoundValue, bound_table, load_reference_table, nos_bound
from .search import SearchConfig, SearchResult, canonicalize, certify, max_nos_search

__version__ = "0.1.0"

__all__ = [
    "TupleClass", "Word", "count_class", "enumerate_class",
    "PeriodicSequence", "Verdict", "is_nos", "is_os", "is_window_sequence",
    "minimal_period",
    "BoundBreakdown", "ReducedGraph", "SequenceSubgraph",
    "edge_count_formula", "excluded_edge_budget", "export_dot",
    "sequence_subgraph", "vertex_profile",
    "BoundValue", "bound_table", "load_reference_table", "nos_bound",
    "SearchConfig", "SearchResult", "canonicalize", "certify", "max_nos_search",
]
