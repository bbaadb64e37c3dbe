import time

import pytest

from negaseq import flow as flow_mod
from negaseq.bounds import nos_bound
from negaseq.errors import InternalConsistencyError
from negaseq.flow import flow_bound
from negaseq.search import SearchConfig, certify, max_nos_search
from negaseq.tuples import decode, encode, nega_reverse_symbols


def _cells(limit):
    """Every (n, k) with n >= 2, k >= 3 and k^n <= limit."""
    return [(n, k) for n in range(2, limit.bit_length())
            for k in range(3, limit) if k**n <= limit]


def oracle_flow(n, k):
    """F by Bellman-Ford cycle cancelling on an explicit arc list: the
    largest circulation of the reduced graph, with each negasymmetric
    vertex split by an arc of capacity its in-degree rounded down to even.

    Edges and fixed vertices come from the symbols, not from code tables.
    Arcs are [tail, head, capacity, cost, flow]; an edge costs -1 per unit
    and a split arc 0.  From the zero circulation, any cycle in the
    Bellman-Ford predecessor graph is a negative residual cycle; cancelling
    them until a pass relaxes nothing leaves a min-cost circulation."""
    V = k ** (n - 1)
    is_fixed = [nega_reverse_symbols(decode(v, n - 1, k), k) == decode(v, n - 1, k)
                for v in range(V)]
    fixed = [v for v in range(V) if is_fixed[v]]
    out_node = {v: V + i for i, v in enumerate(fixed)}
    arcs = []
    indeg = [0] * V
    for e in range(k**n):
        w = decode(e, n, k)
        if nega_reverse_symbols(w, k) != w:
            tail, head = encode(w[:-1], k), encode(w[1:], k)
            arcs.append([out_node.get(tail, tail), head, 1, -1, 0])
            indeg[head] += 1
    arcs += [[v, out_node[v], indeg[v] // 2 * 2, 0, 0] for v in fixed]
    nodes = V + len(fixed)
    while True:
        dist = [0] * nodes
        pred = [None] * nodes  # (arc, direction)
        cycle = None
        for _ in range(nodes + 1):
            changed = False
            for arc in arcs:
                u, w, cap, cost, f = arc
                for a, b, c, ok, sign in ((u, w, cost, f < cap, 1),
                                          (w, u, -cost, f > 0, -1)):
                    if ok and dist[a] + c < dist[b]:
                        dist[b], pred[b], changed = dist[a] + c, (arc, sign), True
            if not changed:
                break
            cycle = _pred_cycle(pred, nodes)
            if cycle:
                break
        if not changed:
            return sum(arc[4] for arc in arcs if arc[3] == -1)
        assert cycle, "a pass over the graph's size kept relaxing"
        assert sum(arc[3] * sign for arc, sign in cycle) < 0
        for arc, sign in cycle:
            arc[4] += sign


def _pred_cycle(pred, nodes):
    """A cycle of the predecessor graph, as (arc, direction) pairs, or None."""
    seen = [0] * nodes
    for start in range(nodes):
        x = start
        while x is not None and not seen[x]:
            seen[x] = start + 1
            x = None if pred[x] is None else _tail(pred[x])
        if x is not None and seen[x] == start + 1:
            cycle, y = [], x
            while True:
                cycle.append(pred[y])
                y = _tail(pred[y])
                if y == x:
                    return cycle
    return None


def _tail(step):
    arc, sign = step
    return arc[0] if sign == 1 else arc[1]


@pytest.mark.parametrize("n,k", _cells(500))
def test_matches_cycle_cancelling_oracle(n, k):
    assert flow_bound(n, k) == oracle_flow(n, k)


def test_never_above_nos_bound():
    for n, k in _cells(10**4):
        assert flow_bound(n, k) // 2 <= nos_bound(n, k).value, (n, k)


@pytest.mark.parametrize("n,k", [(2, k) for k in range(3, 12)] + [(3, 3)])
def test_equals_dfs_certified_maximum(dfs_only, n, k):
    """The exhaustive DFS, run without the flow bound stop, certifies the
    same maximum."""
    dfs = max_nos_search(SearchConfig(n=n, k=k))
    assert dfs.optimal and dfs.flow_bound is None
    assert flow_bound(n, k) // 2 == dfs.period


@pytest.mark.parametrize("n,k,half", [
    (3, 3, 10), (3, 4, 24), (4, 3, 31), (3, 5, 56), (4, 4, 110),
    (5, 5, 1506), (8, 3, 3087), (7, 3, 1011), (6, 4, 1950)])
def test_pinned(n, k, half):
    assert flow_bound(n, k) == 2 * half


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 1), (0, 3)])
def test_refuses_outside_the_domain(n, k):
    with pytest.raises(ValueError, match=f"need n >= 2 and k >= 3, got n={n}, k={k}"):
        flow_bound(n, k)


class TestSearchStop:
    @pytest.mark.parametrize("n,k,period,expansions", [
        (3, 3, 10, 27), (3, 4, 24, 171), (4, 3, 31, 670)])
    def test_certified_at_the_flow_bound(self, n, k, period, expansions):
        r = max_nos_search(SearchConfig(n=n, k=k))
        assert (r.period, r.optimal, r.expansions) == (period, True, expansions)
        assert (r.flow_bound, r.bound) == (period, nos_bound(n, k).value)
        lines = certify(r).splitlines()
        i = lines.index(f"period_upper_bound={r.bound}")
        assert lines[i + 1] == f"flow_bound={period}"

    def test_short_search_never_computes_it(self):
        """A search that ends before k^n expansions has no flow bound, and
        its certificate no flow_bound line."""
        for r in (max_nos_search(SearchConfig(n=2, k=7)),
                  max_nos_search(SearchConfig(n=3, k=4, node_budget=63))):
            assert r.flow_bound is None
            assert "flow_bound" not in certify(r)

    def test_passed_deadline(self):
        """A passed deadline gives no bound, and the search, whose incumbent
        at (3, 3) already meets F // 2, stops uncertified."""
        assert flow_bound(3, 4, deadline=time.monotonic() - 1) is None
        r = max_nos_search(SearchConfig(n=3, k=3, time_budget=1e-9))
        assert (r.period, r.optimal, r.flow_bound, r.expansions) == (
            10, False, None, 27)

    @pytest.mark.parametrize("F, match", [(52, "above nos_bound 25"),
                                          (40, "below a walk of length 22")])
    def test_inconsistent_bound_raises(self, monkeypatch, F, match):
        """F // 2 above nos_bound, or below a walk already recorded (22 at
        (3, 4) by its 64th expansion), stops the search."""
        monkeypatch.setattr(flow_mod, "flow_bound", lambda n, k, deadline: F)
        with pytest.raises(InternalConsistencyError, match=match):
            max_nos_search(SearchConfig(n=3, k=4))
