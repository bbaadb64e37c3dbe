"""Toolkit for negative orientable sequences over alphabets of size k > 2.

Submodules:

* tuples  -- words over Z_k, symmetry maps, structural predicates, counts
* graph   -- the reduced de Bruijn graph and per-sequence subgraphs
* verify  -- window-sequence / NOS / OS verdicts with failure witnesses
* bounds  -- period upper bounds and reference-table regression
* search  -- exhaustive search for maximum-period NOS
* flow    -- the parity flow bound F // 2, where the search stops
* cli     -- command-line front end

The names in `__all__` are loaded from their submodule on first access
(PEP 562), so importing the package, or one submodule, compiles nothing
else: each CLI command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "tuples": ("TupleClass", "Word", "count_class", "enumerate_class"),
    "verify": ("PeriodicSequence", "Verdict", "is_nos", "is_os",
               "is_window_sequence", "minimal_period"),
    "graph": ("BoundBreakdown", "ReducedGraph", "SequenceSubgraph",
              "edge_count_formula", "excluded_edge_budget", "export_dot",
              "sequence_subgraph", "vertex_profile"),
    "bounds": ("BoundValue", "bound_table", "load_reference_table", "nos_bound"),
    "search": ("SearchConfig", "SearchResult", "canonicalize", "certify",
               "max_nos_search"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
