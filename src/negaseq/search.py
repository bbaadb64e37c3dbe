"""Exhaustive search for maximum-period negative orientable sequences.

The search space is the set of closed walks in the reduced de Bruijn
graph that use at most one edge from each pair {e, -e^R}; every such
closed walk of length m reads off an NOS of period m, and conversely.
The walk is explored depth-first over an explicit used-edge bitmap.

Every closed walk is generated only from the rotation that starts at its
smallest edge code: each unused code in turn is a first edge, and later
edges must exceed it.  The only per-code table is the used-edge bitmap,
one byte per code; it starts with the negasymmetric codes (the
non-edges, built from their definition by `negasymmetric_codes`) set,
and they stay set.  The partners -e^R of the walk's edges are a stack
beside it.  An edge e taken after f has the partner
(-e mod k)*k^(n-1) + (-f^R div k), since -(w.x)^R = (-x).(-w^R); the
stack is seeded with -s^R * k for the start vertex s, so the first edge
takes the same step.  A release pops the partner, and the scan goes on
from the next code in the block of k out-edges of the edge's tail vertex.

A branch is cut when the walk can never close: it has left its start
vertex and every in-edge of that vertex is used or blocked by a used
partner.  A count of those unused in-edges is kept as edges are taken
and released.  The whole search stops once the incumbent meets its
target, a proven period upper bound (no longer walk can exist), or once a
budget runs out: the expansion count is tested inline after every
expansion and the wall clock after every 4096th.  It stops where it is,
without unwinding the walk.  The target is `nos_bound` until the k^n-th
expansion, where the parity flow bound F // 2 (`flow`, docs/flow_bound.md)
is computed, once, and becomes the target.  Under a time budget the bound
gets half the time left; if it gives up, the target stays `nos_bound` and
the DFS goes on with the other half.

A walk is recorded, and verified with `is_nos`, when it closes at least
as long as the incumbent, and it replaces the incumbent only if it is
longer.  The result is therefore the first walk of its length that the
DFS met, and that walk is already canonical: the lexicographically least
form of its orbit under rotation, nega-reverse and unit scaling
(`canonicalize`).  The DFS visits closed walks in the lexicographic order
of their edge codes, which is the order of their sequences (the cut
removes no prefix of a closed walk).  The canonical form c of a recorded
walk w is an NOS of the same period whose rotation at its least window
is c itself, so the DFS generates c, and c <= w.  If c < w, c was
visited first, at the same length, and w was not the first walk of that
length.  This holds in runs that stop early too, at a budget or at a
bound, since a stop only ends that order early.  The result is checked
by `is_nos` again before it is returned.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from typing import NamedTuple, Optional

try:  # SHA-256 without hashlib, which loads OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

from .errors import InternalConsistencyError
from .bounds import nos_bound
from .graph import ReducedGraph
from .tuples import (check_graph_params, codes_within, decode, encode, nega_reverse_symbols,
                     negasymmetric_codes)
from .verify import PeriodicSequence, is_nos

DEFAULT_NODE_BUDGET = 10**9
MAX_CODES = 2**24


class SearchConfig(namedtuple("SearchConfig", "n k node_budget time_budget")):
    __slots__ = ()

    def __new__(cls, n: int, k: int, node_budget: int = DEFAULT_NODE_BUDGET,
                time_budget: Optional[float] = None):  # seconds of wall clock
        check_graph_params(n, k)
        if node_budget <= 0:
            raise ValueError("node budget must be positive")
        if time_budget is not None and not time_budget > 0:  # NaN too
            raise ValueError("time budget must be positive")
        return super().__new__(cls, n, k, node_budget, time_budget)

    @classmethod
    def _make(cls, iterable):  # so that `_replace` is checked too
        return cls(*iterable)


class SearchResult(NamedTuple):
    config: SearchConfig
    best_sequence: Optional[PeriodicSequence]
    period: int
    optimal: bool
    expansions: int
    elapsed: float
    bound: int  # nos_bound
    flow_bound: Optional[int] = None  # F // 2, if the search computed it


def units(k: int) -> list[int]:
    return [u for u in range(1, k) if math.gcd(u, k) == 1]


def canonicalize(seq: PeriodicSequence) -> PeriodicSequence:
    """Lexicographically least word in the orbit of seq under rotations,
    the nega-reverse map and unit symbol multiplication.

    All three maps preserve the NOS property, so the orbit is a symmetry
    class.  Since u*(-S^R) = (-u)*S^R and -u is a unit, the unit images of
    S^R cover those of -S^R.  A least rotation starts at a least symbol.
    """
    k, m = seq.k, len(seq.symbols)
    best = (k,)  # above every image, whose symbols are below k
    for u in units(k):
        for variant in (seq.symbols, seq.symbols[::-1]):
            image = tuple([u * s % k for s in variant])
            low = min(image)
            if low <= best[0]:
                doubled = image * 2
                for r in range(m):
                    if image[r] == low and doubled[r:r + m] < best:
                        best = doubled[r:r + m]
    return PeriodicSequence(best, k)


def _walk_to_sequence(walk: list[int], n: int, k: int) -> PeriodicSequence:
    shift = k ** (n - 1)
    return PeriodicSequence(tuple([e // shift for e in walk]), k)


def max_nos_search(cfg: SearchConfig) -> SearchResult:
    """Depth-first search over pair-disjoint closed walks in B_k^-(n-1)."""
    n, k = cfg.n, cfg.k
    num_codes = codes_within(n, k, MAX_CODES, "search bitmap")

    started = time.monotonic()
    bound = nos_bound(n, k).value

    # Negasymmetric codes are no edges: they start used and stay used.
    used = bytearray(num_codes)
    for e in negasymmetric_codes(n, k):
        used[e] = 1
    num_vertices = k ** (n - 1)

    best_len = 0
    best_seq: Optional[PeriodicSequence] = None
    expansions = 0
    aborted = False
    node_budget = cfg.node_budget
    deadline = None if cfg.time_budget is None else started + cfg.time_budget
    target, flow = bound, None

    def check(seq: PeriodicSequence, m: int) -> None:
        verdict = is_nos(seq, n)
        if not verdict.valid or verdict.period != m:
            raise InternalConsistencyError(
                f"search produced a non-NOS walk of length {m}: {seq}")

    def record(walk: list[int]) -> None:
        # Only walks at least as long as the incumbent are recorded.
        nonlocal best_len, best_seq
        m = len(walk)
        seq = _walk_to_sequence(walk, n, k)
        check(seq, m)
        if m > target:
            raise InternalConsistencyError(
                f"walk of length {m} exceeds the proven bound {target} "
                f"at n={n}, k={k}")
        if m > best_len:  # no tie is canonically below the first walk (see above)
            best_len, best_seq = m, seq

    for e0 in range(num_codes):
        if best_len >= target or aborted:
            break
        if used[e0]:
            continue
        start = e0 // k
        # Unused in-edges of start: once none is left, the walk cannot close.
        start_in = sum(not used[y * num_vertices + start] for y in range(k))
        walk: list[int] = []
        partners = [encode(nega_reverse_symbols(decode(start, n - 1, k), k), k) * k]
        e = e0
        while True:
            if e >= 0:  # take e and its partner; try its head's out-edges
                walk.append(e)
                p = -e % k * num_vertices + partners[-1] // k
                partners.append(p)
                used[e] = used[p] = 1
                v = e % num_vertices
                start_in -= (v == start) + (p % num_vertices == start)
                if v == start and len(walk) >= best_len:
                    record(walk)
                    if best_len >= target:
                        break  # no longer walk exists
                lo = v * k
                hi = lo + k if v == start or start_in else lo  # empty: cut
            else:  # release the last edge and its partner; try its next sibling
                e, p = walk.pop(), partners.pop()
                used[e] = used[p] = 0
                start_in += (e % num_vertices == start) + (p % num_vertices == start)
                if not walk:
                    break
                lo = e + 1
                hi = e // k * k + k
            e = used.find(0, lo if lo > e0 else e0 + 1, hi)
            if e >= 0:
                expansions += 1
                if expansions == num_codes:
                    from .flow import flow_bound

                    F = flow_bound(n, k, None if deadline is None
                                   else (time.monotonic() + deadline) / 2)
                    if F is not None:
                        flow = target = F // 2
                        if not best_len <= flow <= bound:
                            raise InternalConsistencyError(
                                f"flow bound {flow} is above nos_bound {bound} or below "
                                f"a walk of length {best_len} at n={n}, k={k}")
                        if best_len >= target:
                            break
                if expansions >= node_budget or (
                        deadline is not None and expansions % 4096 == 0
                        and time.monotonic() > deadline):
                    aborted = True
                    break

    if best_seq is not None:
        check(best_seq, best_len)
    elapsed = time.monotonic() - started
    optimal = (not aborted) or best_len >= target
    return SearchResult(config=cfg, best_sequence=best_seq, period=best_len,
                        optimal=optimal, expansions=expansions,
                        elapsed=elapsed, bound=bound, flow_bound=flow)


def graph_content_hash(n: int, k: int) -> str:
    """SHA-256 of the packed edge bitmap; pins the searched graph in certificates."""
    return sha256(ReducedGraph(n, k).edge_bitmap()).hexdigest()


def certify(result: SearchResult) -> str:
    """Replayable plain-text certificate for a search result."""
    cfg = result.config
    lines = [
        "negative-orientable-sequence search certificate",
        f"n={cfg.n}",
        f"k={cfg.k}",
        f"period={result.period}",
        f"optimal={'true' if result.optimal else 'false'}",
        f"period_upper_bound={result.bound}",
    ]
    if result.flow_bound is not None:
        lines.append(f"flow_bound={result.flow_bound}")
    if result.best_sequence is not None:
        verdict = is_nos(result.best_sequence, cfg.n)
        status = "valid" if verdict.valid else "invalid"
        lines.append(f"sequence={result.best_sequence}")
        lines.append(f"verifier={status} nos period={verdict.period}")
    else:
        lines.append("sequence=")
        lines.append("verifier=no sequence found")
    lines += [
        f"expansions={result.expansions}",
        f"node_budget={cfg.node_budget}",
        f"time_budget={cfg.time_budget if cfg.time_budget is not None else 'none'}",
        f"graph_edges_sha256={graph_content_hash(cfg.n, cfg.k)}",
    ]
    return "\n".join(lines) + "\n"
