"""Exhaustive search for maximum-period negative orientable sequences.

The search space is the set of closed walks in the reduced de Bruijn
graph that use at most one edge from each pair {e, -e^R}; every such
closed walk of length m reads off an NOS of period m, and conversely.
The walk is explored depth-first over an explicit used-edge bitmap.

Every closed walk is generated only from the rotation that starts at its
smallest edge code: each unused code in turn is a first edge, and later
edges must exceed it.  The only per-code table set-up builds is the
partner map e -> -e^R, one numpy pass read in place.  The used-edge
bitmap starts with the negasymmetric codes (the non-edges) set, and they
stay set.

A branch is cut when the walk can never close: it has left its start
vertex and every in-edge of that vertex is used or blocked by a used
partner.  A count of those unused in-edges is kept as edges are taken
and released.  The whole search stops once the incumbent meets the
proven period upper bound (no longer walk can exist), or once a budget
runs out: the expansion count is tested inline after every expansion and
the wall clock after every 4096th.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import GraphSizeError, InternalConsistencyError
from .bounds import nos_bound
from .graph import ReducedGraph
from .tuples import partner_codes
from .verify import PeriodicSequence, is_nos

DEFAULT_NODE_BUDGET = 10**9
MAX_CODES = 2**24


@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: int
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: Optional[float] = None  # seconds of wall clock

    def __post_init__(self):
        if self.n < 2 or self.k < 3:
            raise ValueError(f"need n >= 2 and k >= 3, got n={self.n}, k={self.k}")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@dataclass
class SearchResult:
    config: SearchConfig
    best_sequence: Optional[PeriodicSequence]
    period: int
    optimal: bool
    expansions: int
    elapsed: float
    bound: int


def units(k: int) -> list[int]:
    return [u for u in range(1, k) if math.gcd(u, k) == 1]


def canonicalize(seq: PeriodicSequence) -> PeriodicSequence:
    """Lexicographically least word in the orbit of seq under rotations,
    the nega-reverse map and unit symbol multiplication.

    All three generators preserve the NOS property, so the orbit is a
    legitimate symmetry class for deduplication.  The unit images of -S^R
    are those of the plain reverse S^R, since u*(-S^R) = (-u)*S^R and -u
    is a unit, so S and S^R are mapped through one table per unit.

    The least rotation of a variant starts at its smallest symbol, so only
    those rotations are compared, and a variant whose smallest symbol is
    above the incumbent's first cannot win at all.
    """
    best: Optional[tuple[int, ...]] = None
    k = seq.k
    m = len(seq.symbols)
    scales = [[u * s % k for s in range(k)].__getitem__ for u in units(k)]
    for variant in (seq.symbols, seq.symbols[::-1]):
        for scale in scales:
            mapped = tuple(map(scale, variant))
            low = min(mapped)
            if best is not None and low > best[0]:
                continue
            doubled = mapped + mapped
            r = doubled.index(low)
            while r < m:
                rotated = doubled[r:r + m]
                if best is None or rotated < best:
                    best = rotated
                r = doubled.index(low, r + 1)
    assert best is not None
    return PeriodicSequence(best, k)


def _walk_to_sequence(walk: list[int], n: int, k: int) -> PeriodicSequence:
    shift = k ** (n - 1)
    return PeriodicSequence(tuple([e // shift for e in walk]), k)


def max_nos_search(cfg: SearchConfig) -> SearchResult:
    """Depth-first search over pair-disjoint closed walks in B_k^-(n-1)."""
    import numpy as np

    n, k = cfg.n, cfg.k
    num_codes = k**n
    if num_codes > MAX_CODES:
        raise GraphSizeError(
            f"k^n = {num_codes} exceeds the search bitmap budget of {MAX_CODES}")

    started = time.monotonic()
    bound = nos_bound(n, k).value

    partner_arr = partner_codes(n, k)
    is_edge = np.arange(num_codes, dtype=np.int64) != partner_arr
    partner = memoryview(partner_arr)  # zero-copy; items are Python ints
    # Negasymmetric codes are no edges: they start used and stay used.
    used = bytearray((~is_edge).tobytes())
    num_vertices = k ** (n - 1)

    best_len = 0
    best_seq: Optional[PeriodicSequence] = None
    expansions = 0
    aborted = False
    node_budget, time_budget = cfg.node_budget, cfg.time_budget

    def record(walk: list[int]) -> None:
        nonlocal best_len, best_seq
        m = len(walk)
        seq = canonicalize(_walk_to_sequence(walk, n, k))
        verdict = is_nos(seq, n)
        if not verdict.valid or verdict.period != m:
            raise InternalConsistencyError(
                f"search produced a non-NOS walk of length {m}: {seq}")
        if m > bound:
            raise InternalConsistencyError(
                f"walk of length {m} exceeds the proven bound {bound} "
                f"at n={n}, k={k}")
        if m > best_len or (m == best_len and best_seq is not None
                            and seq.symbols < best_seq.symbols):
            best_len, best_seq = m, seq

    for e0 in range(num_codes):
        if best_len >= bound or aborted:
            break
        if used[e0]:
            continue
        start = e0 // k
        # Unused in-edges of start: once none is left, the walk cannot close.
        start_in = sum(not used[y * num_vertices + start] for y in range(k))
        walk: list[int] = []
        ptr: list[int] = []  # next out-edge offset to try at each depth
        e = e0
        while True:
            if e >= 0:  # take e and its partner
                walk.append(e)
                ptr.append(0)
                p = partner[e]
                used[e] = used[p] = 1
                start_in -= (e % num_vertices == start) + (p % num_vertices == start)
            else:  # release the last edge and its partner
                e = walk.pop()
                ptr.pop()
                p = partner[e]
                used[e] = used[p] = 0
                start_in += (e % num_vertices == start) + (p % num_vertices == start)
                if not walk:
                    break
            depth = len(walk)
            d = depth - 1
            v = walk[d] % num_vertices
            x = ptr[d]
            if x == 0:  # first visit of this node
                if v == start and depth >= best_len:
                    record(walk)
                    if best_len >= bound:
                        ptr[:] = [k] * depth  # unwind the whole walk
                        x = k
                if x == 0 and v != start and start_in == 0:
                    x = k  # the walk can never close again
            base = v * k
            e = -1
            while x < k:
                cand = base + x
                x += 1
                if cand > e0 and not used[cand]:
                    e = cand
                    break
            if e >= 0:
                ptr[d] = x
                expansions += 1
                if expansions >= node_budget or (
                        time_budget is not None and expansions % 4096 == 0
                        and time.monotonic() - started > time_budget):
                    aborted = True
                    ptr[:] = [k] * depth  # unwind the whole walk
                    e = -1

    elapsed = time.monotonic() - started
    optimal = (not aborted) or best_len >= bound
    return SearchResult(config=cfg, best_sequence=best_seq, period=best_len,
                        optimal=optimal, expansions=expansions,
                        elapsed=elapsed, bound=bound)


def graph_content_hash(n: int, k: int) -> str:
    """SHA-256 of the packed edge bitmap; pins the searched graph in certificates."""
    import numpy as np

    bitmap = ReducedGraph(n, k).edge_bitmap()
    return hashlib.sha256(np.packbits(bitmap).tobytes()).hexdigest()


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
