import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negaseq

# The public names and the submodule each one comes from.
PUBLIC = {
    "tuples": ["TupleClass", "Word", "count_class", "enumerate_class"],
    "verify": ["PeriodicSequence", "Verdict", "is_nos", "is_os",
               "is_window_sequence", "minimal_period"],
    "graph": ["BoundBreakdown", "ReducedGraph", "SequenceSubgraph",
              "edge_count_formula", "excluded_edge_budget", "export_dot",
              "sequence_subgraph", "vertex_profile"],
    "bounds": ["BoundValue", "bound_table", "load_reference_table", "nos_bound"],
    "search": ["SearchConfig", "SearchResult", "canonicalize", "certify",
               "max_nos_search"],
}


def test_all_lists_the_public_names():
    assert sorted(negaseq.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert set(negaseq.__all__) <= set(dir(negaseq))
    assert negaseq.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items() for name in names])
def test_name_resolves_to_submodule_object(module, name):
    namespace = {}
    exec(f"from negaseq import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"negaseq.{module}"), name)
    assert getattr(negaseq, name) is namespace[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        negaseq.no_such_name
    with pytest.raises(ImportError):
        exec("from negaseq import no_such_name", {})


def test_package_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, negaseq; print(*sorted(m for m in sys.modules if 'negaseq' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["negaseq"]
