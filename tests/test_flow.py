import itertools
import random
import time
from collections import Counter

import pytest

from negaseq import flow as flow_mod
from negaseq.bounds import load_reference_table, nos_bound
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


def dual_value(n, k, p_in, p_out):
    """D(p), the weak dual of the flow bound's LP, from the symbols: every
    potential p gives D(p) >= F.

        D(p) = sum over edges e of max(0, 1 + p(t(e)) - p(h(e)))
             + sum over fixed v of (indeg(v) & ~1) * max(0, p(v_in) - p(v_out))

    t(e) is the node that sends the out-edges of e's tail (v_out for a fixed
    tail) and h(e) the node that takes the in-edges of e's head.  p_in maps
    each vertex word to its potential, v_in's for a fixed vertex; p_out maps
    each fixed vertex word to v_out's."""
    words = list(itertools.product(range(k), repeat=n - 1))
    fixed = {v for v in words if nega_reverse_symbols(v, k) == v}
    indeg, total = Counter(), 0
    for u in words:
        tail = p_out[u] if u in fixed else p_in[u]
        for x in range(k):
            w = u + (x,)
            if nega_reverse_symbols(w, k) != w:
                indeg[w[1:]] += 1
                total += max(0, 1 + tail - p_in[w[1:]])
    return total + sum((indeg[v] & ~1) * max(0, p_in[v] - p_out[v]) for v in fixed)


def written_out_potential(v, k):
    """The potential of vertex v (v_in for a fixed v) that makes D(p) = F at
    n = 3 for every k and at n = 4 for odd k; every v_out gets 0."""
    if len(v) == 2:
        a, b = v
        if k % 2:
            return (a != 0) * ((b == 0) + (b == -a % k))
        half = (0, k // 2)
        return (b in half) + (a == b in half)
    a, b, c = v
    if b == 0:
        return 2 * (a != 0 and c in (0, -a % k))
    return int(c in (0, -b % k) and not a == c == -b % k)


@pytest.mark.parametrize("n,k", _cells(500))
def test_dual_of_random_potentials_bounds_the_flow(n, k):
    """Weak duality: D(p) >= F for potentials drawn at random, v_in and
    v_out independently."""
    F, rng = flow_bound(n, k), random.Random(n * 1000 + k)
    words = list(itertools.product(range(k), repeat=n - 1))
    for _ in range(50):
        p_in = {v: rng.randint(-2, 2) for v in words}
        p_out = {v: rng.randint(-2, 2) for v in words}
        assert dual_value(n, k, p_in, p_out) >= F


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


@pytest.mark.parametrize("n,k", [(3, k) for k in range(3, 41)]
                         + [(4, k) for k in range(3, 14, 2)])
def test_closed_form_where_the_gap_is_known(n, k):
    """F in closed form at n = 3 and at n = 4 with odd k, and its gain over
    `nos_bound`: (k-1)/2 when k is odd, k-3 at n = 3 with k even.  D at the
    written-out potentials meets F, a second route that shows F optimal."""
    if k % 2:
        F = k**3 - 3 * k + 2 if n == 3 else k**4 - 2 * k**2 - k + 2
        gain = (k - 1) // 2
    else:
        F, gain = k**3 - 4 * k, k - 3
    assert flow_bound(n, k) == F
    assert nos_bound(n, k).value - F // 2 == gain
    words = itertools.product(range(k), repeat=n - 1)
    p_in = {v: written_out_potential(v, k) for v in words}
    assert dual_value(n, k, p_in, dict.fromkeys(p_in, 0)) == F


def test_split_arc_raise_at_8_4():
    """(8, 4) is the one cell with k^n <= 120000 whose augmenting paths
    raise a split arc (twice); F lies between twice the longest known NOS
    and twice the bound."""
    F = flow_bound(8, 4)
    assert F == 64532
    assert 2 * load_reference_table()[8, 4].best_known <= F <= 2 * nos_bound(8, 4).value


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
        """A passed deadline gives no bound, and the search goes on with
        nos_bound as its target until its own clock check at the 4096th
        expansion: (3, 3) is exhausted first, so its maximum is certified by
        the DFS alone."""
        assert flow_bound(3, 4, deadline=time.monotonic() - 1) is None
        r = max_nos_search(SearchConfig(n=3, k=3, time_budget=1e-9))
        assert (r.period, r.optimal, r.flow_bound, r.expansions) == (
            10, True, None, 911)

    def test_passed_deadline_stops_at_the_clock_check(self):
        """(3, 4) is not exhausted by its 4096th expansion, where the DFS
        reads the clock, finds the budget spent and stops uncertified."""
        r = max_nos_search(SearchConfig(n=3, k=4, time_budget=1e-9))
        assert (r.period, r.optimal, r.flow_bound, r.expansions) == (
            24, False, None, 4096)

    def test_bound_gets_half_the_time_left(self, monkeypatch):
        """The flow bound's deadline is halfway between the k^n-th expansion
        and the search's deadline; when it gives up, the DFS still runs to
        the end."""
        deadlines = []

        def gives_up(n, k, deadline):
            deadlines.append(deadline)

        monkeypatch.setattr(flow_mod, "flow_bound", gives_up)
        before = time.monotonic()
        r = max_nos_search(SearchConfig(n=3, k=3, time_budget=60))
        after = time.monotonic()
        assert len(deadlines) == 1 and before + 30 <= deadlines[0] <= after + 30
        assert (r.period, r.optimal, r.flow_bound, r.expansions) == (
            10, True, None, 911)

    @pytest.mark.parametrize("F, match", [(52, "above nos_bound 25"),
                                          (40, "below a walk of length 22")])
    def test_inconsistent_bound_raises(self, monkeypatch, F, match):
        """F // 2 above nos_bound, or below a walk already recorded (22 at
        (3, 4) by its 64th expansion), stops the search."""
        monkeypatch.setattr(flow_mod, "flow_bound", lambda n, k, deadline: F)
        with pytest.raises(InternalConsistencyError, match=match):
            max_nos_search(SearchConfig(n=3, k=4))
