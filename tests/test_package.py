import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import negaseq
from negaseq.bounds import (BoundValue, ReferenceEntry, TableCell, bound_table,
                            nos_bound)
from negaseq.graph import (BoundBreakdown, ReducedGraph, SequenceSubgraph,
                           VertexProfile, excluded_edge_budget, sequence_subgraph,
                           vertex_profile)
from negaseq.search import SearchConfig, SearchResult, max_nos_search
from negaseq.tuples import Word
from negaseq.verify import PeriodicSequence, Verdict, Witness, is_nos

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


def test_library_import_loads_no_dataclasses():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, negaseq.graph, negaseq.bounds, negaseq.verify, negaseq.search; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# -- value records ----------------------------------------------------------
#
# One builder per record type: called twice, it gives two equal records that
# are not the same object.  The flag says whether every field is hashable (a
# dict or Counter field is not).

_RESULT = max_nos_search(SearchConfig(n=2, k=5))

RECORDS = {
    Word: (lambda: Word((0, 1, 2), 3), True),
    PeriodicSequence: (lambda: PeriodicSequence((0, 1, 1), 3), True),
    SearchConfig: (lambda: SearchConfig(n=3, k=4, node_budget=7, time_budget=1.5),
                   True),
    Witness: (lambda: Witness(0, 2, "duplicate-window"), True),
    Verdict: (lambda: is_nos(PeriodicSequence((0, 0, 1, 1), 3), 3), True),
    VertexProfile: (lambda: vertex_profile(ReducedGraph(3, 4), Word((1, 3), 4)),
                    False),
    SequenceSubgraph: (lambda: sequence_subgraph(PeriodicSequence((0, 1, 1), 3), 2),
                       False),
    BoundBreakdown: (lambda: excluded_edge_budget(6, 4), True),
    BoundValue: (lambda: nos_bound(5, 3), True),
    ReferenceEntry: (lambda: ReferenceEntry(5, 3, 99, 98, None, None), True),
    TableCell: (lambda: bound_table(range(3, 4), range(5, 6), {})[0], True),
    SearchResult: (lambda: _RESULT._replace(), True),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    build, hashable = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert type(pickle.loads(pickle.dumps(a))) is cls
    text = repr(a)
    assert text.startswith(f"{cls.__name__}(")
    for field in cls._fields:
        assert f"{field}={getattr(a, field)!r}" in text


def test_records_compare_by_value_and_class():
    assert Word((0, 1), 3) != Word((0, 2), 3)
    assert Word((0, 1), 3) != Word((0, 1), 4)
    assert SearchConfig(2, 3) != SearchConfig(2, 3, time_budget=1.0)
    assert SearchConfig(2, 3) == SearchConfig(n=2, k=3, node_budget=10**9)
    assert Witness(0, 1, "x") != Witness(0, 2, "x")
    assert Verdict(True, "os", 4) == Verdict(True, "os", 4, None, False)
    # The validating records equal only their own class.
    assert Word((0, 1), 3) != PeriodicSequence((0, 1), 3)
    assert PeriodicSequence((0, 1), 3) != Word((0, 1), 3)
    assert Word((0, 1), 3) != ((0, 1), 3)
    # The others are NamedTuples: they equal a plain tuple of their values.
    assert Witness(0, 1, "x") == (0, 1, "x")


@pytest.mark.parametrize("record, field", [
    (Word((0, 1), 3), "symbols"), (Word((0, 1), 3), "k"),
    (PeriodicSequence((0, 1), 3), "symbols"), (PeriodicSequence((0, 1), 3), "k"),
    (SearchConfig(2, 3), "node_budget"), (SearchConfig(2, 3), "time_budget"),
], ids=repr)
def test_validating_records_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) == before


# The construction errors, recorded before these types stopped being
# generated dataclasses.
@pytest.mark.parametrize("cls, args, message", [
    (Word, ((0, 1), 2), "alphabet size must be at least 3, got k=2 "
                        "(negating a symbol is the identity for k=2)"),
    (Word, ((), 3), "word must be nonempty"),
    (Word, ((0, 3), 3), "symbols (0, 3) out of range for k=3"),
    (Word, ((-1, 0), 3), "symbols (-1, 0) out of range for k=3"),
    (PeriodicSequence, ((0, 1), 2), "alphabet size must be at least 3, got k=2"),
    (PeriodicSequence, ((), 3), "sequence must be nonempty"),
    (PeriodicSequence, ((0, 5), 3), "symbols (0, 5) out of range for k=3"),
    (SearchConfig, (1, 3), "need n >= 2 and k >= 3, got n=1, k=3"),
    (SearchConfig, (2, 2), "need n >= 2 and k >= 3, got n=2, k=2"),
    (SearchConfig, (2, 3, 0), "node budget must be positive"),
    (SearchConfig, (2, 3, 10, 0.0), "time budget must be positive"),
    (SearchConfig, (2, 3, 10, -1), "time budget must be positive"),
])
def test_validating_record_errors(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message
