"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with `pytest -s` or in the failure summary).
"""

import random
from contextlib import contextmanager

import pytest

from conftest import counted_degrees, edge_count, nega_reverse_code, vertex_words
from negaseq.bounds import load_reference_table, nos_bound
from negaseq.graph import (
    ReducedGraph,
    edge_count_formula,
    excluded_edge_budget,
    sequence_subgraph,
    vertex_profile,
)
from negaseq.search import SearchConfig, max_nos_search
from negaseq.tuples import TupleClass, count_class, enumerate_class
from negaseq.verify import PeriodicSequence, is_nos, is_nos_naive


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


# Classes that require n >= 3: their closed forms subtract alternating
# (n-1)-tuple counts, and alternating is undefined at length 1.
_MIN_N = {cls: 2 for cls in TupleClass}
_MIN_N[TupleClass.NEGASYMMETRIC] = 1
_MIN_N[TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS] = 3
_MIN_N[TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS] = 3


def test_criterion_1_counting_oracle():
    with criterion(1, "counting formulas vs enumeration"):
        for k in (3, 4, 5, 6):
            for n in range(1, 7):
                # each class tallied by the brute-force enumeration
                tallies = {cls: sum(1 for _ in enumerate_class(cls, n, k))
                           for cls in TupleClass if n >= _MIN_N[cls]}
                for cls, observed in tallies.items():
                    assert count_class(cls, n, k) == observed, (cls, n, k)
                # below the minimum length the closed forms are undefined
                # and must be rejected, not evaluated
                for cls in TupleClass:
                    if n < _MIN_N[cls]:
                        with pytest.raises(ValueError):
                            count_class(cls, n, k)


def test_criterion_2_edges_and_degrees():
    with criterion(2, "edge counts and degree rule"):
        for k in (3, 4, 5, 6):
            for n in (2, 3, 4, 5):
                g = ReducedGraph(n, k)
                assert edge_count(g) == edge_count_formula(n, k), (n, k)
                # the profile's degrees against a count over the non-edge codes
                for v, (word, degrees) in enumerate(zip(vertex_words(n, k),
                                                        counted_degrees(n, k))):
                    p = vertex_profile(g, word)
                    assert (p.in_degree, p.out_degree) == degrees, (n, k, v)


def test_criterion_3_reference_table_regression():
    with criterion(3, "bound table regression"):
        table = load_reference_table()
        assert len(table) == 56
        for (n, k), entry in table.items():
            assert nos_bound(n, k).value == entry.new_bound, (n, k)
        assert nos_bound(9, 9).value == 193693860


def test_criterion_4_breakdown_consistency():
    with criterion(4, "edge-budget breakdown consistency"):
        for n in range(2, 10):
            for k in range(3, 10):
                b = excluded_edge_budget(n, k)
                assert b.resulting_period_bound == nos_bound(n, k).value, (n, k)


def test_criterion_5_dominance():
    with criterion(5, "dominance against reference values"):
        for (n, k), entry in load_reference_table().items():
            if entry.best_known is not None:
                assert entry.best_known <= entry.new_bound, (n, k)
            if n > 2:
                assert entry.new_bound <= entry.old_bound, (n, k)


@pytest.fixture(scope="module")
def order_two_results():
    return {k: max_nos_search(SearchConfig(n=2, k=k)) for k in range(3, 9)}


@pytest.fixture(scope="module")
def order_three_exhaustive():
    return max_nos_search(SearchConfig(n=3, k=3))


@pytest.fixture(scope="module")
def budgeted_results():
    budget = 200_000
    return {(n, k): max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
            for n, k in [(3, 3), (3, 4), (4, 3)]}


def test_criterion_6_maximal_order_two_row(order_two_results):
    with criterion(6, "exhaustive maxima at n=2"):
        expected = {3: 3, 4: 5, 5: 10, 6: 14, 7: 21, 8: 27}
        for k, period in expected.items():
            result = order_two_results[k]
            assert result.period == period, k
            assert result.optimal, k
            v = is_nos(result.best_sequence, 2)
            assert v.valid and v.period == period, k


def test_criterion_7_open_case_resolution(order_three_exhaustive):
    with criterion(7, "exhaustive resolution of n=3, k=3"):
        result = order_three_exhaustive
        assert result.optimal
        assert 10 <= result.period <= 11
        v = is_nos(result.best_sequence, 3)
        assert v.valid and v.period == result.period


def test_criterion_8_lower_bound_recovery(budgeted_results):
    with criterion(8, "budgeted search reaches known periods"):
        targets = {(3, 3): 10, (3, 4): 22, (4, 3): 31}
        for (n, k), target in targets.items():
            result = budgeted_results[(n, k)]
            assert result.best_sequence is not None, (n, k)
            assert result.period >= target, (n, k, result.period)
            v = is_nos(result.best_sequence, n)
            assert v.valid and v.period == result.period, (n, k)


def test_criterion_9_subgraph_invariants(order_two_results,
                                         order_three_exhaustive,
                                         budgeted_results):
    with criterion(9, "sequence-subgraph invariants"):
        accepted = [(r.best_sequence, 2) for r in order_two_results.values()]
        accepted.append((order_three_exhaustive.best_sequence, 3))
        accepted += [(r.best_sequence, n)
                     for (n, _), r in budgeted_results.items()]
        for seq, n in accepted:
            sub = sequence_subgraph(seq, n)
            m = len(seq.normalized())
            assert sub.edge_count() == 2 * m, (seq, n)
            assert sub.is_balanced(), (seq, n)
            k, codes = seq.k, sub.edge_origin
            assert all(nega_reverse_code(c, n, k) != c for c in codes), (seq, n)
            assert all(nega_reverse_code(c, n, k) in codes for c in codes), (seq, n)


def test_criterion_10_verifier_oracle_equivalence():
    with criterion(10, "indexed verifier vs quadratic oracle"):
        rng = random.Random(1405)
        for _ in range(1000):
            k = rng.choice([3, 4, 5, 6])
            m = rng.randint(2, 200)
            n = rng.randint(2, 6)
            s = PeriodicSequence(tuple(rng.randrange(k) for _ in range(m)), k)
            a = is_nos(s, n)
            b = is_nos_naive(s, n)
            assert a.valid == b.valid, (s, n)
            if not a.valid:
                assert a.witness == b.witness, (s, n)
                assert a.witness.kind == b.witness.kind
