"""The parity flow bound F // 2 on the period of an NOS (docs/flow_bound.md).

F is the largest 0/1 circulation of the reduced graph in which each fixed
vertex v = -v^R is split into v_in, which takes its in-edges, and v_out,
which sends its out-edges, joined by an arc of capacity indeg(v) rounded
down to even.  It is found by successive shortest paths (Ahuja, Magnanti
and Orlin, Network Flows, 1993, ch. 9) from the flow that keeps every edge
and fills every split arc.  Each unit of excess (in-flow minus out-flow)
goes to a deficit node along a shortest residual path: walking a kept edge
backwards deletes it (cost 1), walking a deleted one forwards re-adds it
(cost -1), and a split arc is lowered or raised at cost 0.  Every starting
cost is >= 0, so Dijkstra with node potentials finds each path; it stops
at the first deficit node it pops.

Node v < V = k^(n-1) is vertex v (v_in if v is fixed), and node V + i is
the i-th fixed vertex's v_out.  Adjacency is the code arithmetic: the
out-edges of v are v*k + x and its in-edges y*V + v.
"""

from __future__ import annotations

import time
from array import array
from heapq import heappop, heappush
from typing import Optional

from .errors import InternalConsistencyError
from .tuples import check_graph_params, negasymmetric_codes, partner_halves


def flow_bound(n: int, k: int, deadline: Optional[float] = None) -> Optional[int]:
    """F, or None once time.monotonic() has passed deadline (tested before
    each augmentation)."""
    check_graph_params(n, k)
    V = k ** (n - 1)
    num_codes = V * k
    state = bytearray(b"\x01") * num_codes  # 1 kept edge, 0 deleted, 2 non-edge
    excess = array("l", [0]) * V  # in-degree minus out-degree
    for e in negasymmetric_codes(*partner_halves(n, k)):
        state[e] = 2
        excess[e % V] -= 1
        excess[e // k] += 1
    fixed = array("l", negasymmetric_codes(*partner_halves(n - 1, k)))
    out_node = array("l", range(V))  # the node that sends v's out-edges
    cap = array("l")
    for i, v in enumerate(fixed):
        indeg = sum(state[e] == 1 for e in range(v, num_codes, V))
        out_node[v] = V + i
        cap.append(indeg & ~1)
        excess.append(excess[v] - (indeg & 1))  # v_out: cap minus the out-degree
        excess[v] = indeg & 1  # v_in: the in-degree minus cap
    split = array("l", cap)  # flow on each split arc
    potential = array("l", [0]) * len(excess)
    # pred[w]: the arc into w: 2e re-adds e, 2e + 1 deletes e, -1 raises a
    # split arc and -2 lowers one
    dist, pred, heap = {}, {}, []

    def relax(w: int, nd: int, arc: int) -> None:
        if nd < dist.get(w, nd + 1):
            dist[w], pred[w] = nd, arc
            heappush(heap, (nd, w))

    for s in range(len(excess)):
        while excess[s] > 0:
            if deadline is not None and time.monotonic() > deadline:
                return None
            dist.clear()
            dist[s] = 0
            heap[:] = [(0, s)]
            while heap:
                d, x = heappop(heap)
                if d > dist[x]:
                    continue
                if excess[x] < 0:
                    break
                v = x if x < V else fixed[x - V]
                base = d + potential[x]
                if out_node[v] == x:  # x sends v's out-edges: re-add a deleted one
                    for e in range(v * k, v * k + k):
                        if state[e] == 0:
                            relax(e % V, base - 1 - potential[e % V], 2 * e)
                if x >= V:  # v_out: lower the split arc
                    if split[x - V]:
                        relax(v, base - potential[v], -2)
                else:  # x takes v's in-edges: delete a kept one
                    for e in range(v, num_codes, V):
                        if state[e] == 1:
                            w = out_node[e // k]
                            relax(w, base + 1 - potential[w], 2 * e + 1)
                    w = out_node[v]
                    if w != x and split[w - V] < cap[w - V]:  # v_in: raise it
                        relax(w, base - potential[w], -1)
            else:
                raise InternalConsistencyError(
                    f"flow bound at n={n}, k={k}: excess with no path to a deficit")
            excess[s] -= 1
            excess[x] += 1
            while x != s:
                arc = pred[x]
                if arc >= 0:
                    e = arc >> 1
                    state[e] = arc & 1 ^ 1
                    x = e % V if arc & 1 else out_node[e // k]
                elif arc == -1:
                    split[x - V] += 1
                    x = fixed[x - V]
                else:
                    split[out_node[x] - V] -= 1
                    x = out_node[x]
            for y, dy in dist.items():  # keeps every residual cost >= 0
                if dy < d:
                    potential[y] += dy - d
    return state.count(1)
