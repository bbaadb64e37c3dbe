"""Exhaustive search for maximum-period negative orientable sequences.

The search space is the set of closed walks in the reduced de Bruijn
graph that use at most one edge from each pair {e, -e^R}; every such
closed walk of length m reads off an NOS of period m, and conversely.
The walk is explored depth-first over an explicit used-edge bitmap.

Every closed walk is generated only from the rotation that starts at its
smallest edge code: each unused code in turn is a first edge, and later
edges must exceed it.  The only per-code table is the used-edge bitmap,
one byte per code; it starts with the negasymmetric codes (the
non-edges) set, and they stay set.  The walk is the only stack.  The
partner -e^R of an edge is read from the two half tables of
`partner_halves` (built once; their fixed points are the non-edges)
when the edge is taken and again when it is released;
after a release the scan goes on from the next code in the block of k
out-edges of the edge's tail vertex.

A branch is cut when the walk can never close: it has left its start
vertex and every in-edge of that vertex is used or blocked by a used
partner.  A count of those unused in-edges is kept as edges are taken
and released.  The whole search stops once the incumbent meets the
proven period upper bound (no longer walk can exist), or once a budget
runs out: the expansion count is tested inline after every expansion and
the wall clock after every 4096th.  It stops where it is, without
unwinding the walk.

The returned sequence is the lexicographically least form, under
rotation, nega-reverse and unit scaling (`canonicalize`), among the
longest walks recorded.  Each recorded walk is verified with `is_nos` as
the search found it.  A walk that ties the incumbent's length is tested
with `canonicalize(walk, incumbent)`, the incumbent canonicalized once
beforehand, which builds a form only if it is below the incumbent.  The
result, canonicalized if need be, is checked by `is_nos` again before it
is returned.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

from .errors import GraphSizeError, InternalConsistencyError
from .bounds import nos_bound
from .graph import ReducedGraph
from .tuples import Record, check_graph_params, negasymmetric_codes, partner_halves
from .verify import PeriodicSequence, is_nos

DEFAULT_NODE_BUDGET = 10**9
MAX_CODES = 2**24


class SearchConfig(Record):
    __slots__ = _fields = ("n", "k", "node_budget", "time_budget")

    def __init__(self, n: int, k: int, node_budget: int = DEFAULT_NODE_BUDGET,
                 time_budget: Optional[float] = None):  # seconds of wall clock
        check_graph_params(n, k)
        if node_budget <= 0:
            raise ValueError("node budget must be positive")
        if time_budget is not None and time_budget <= 0:
            raise ValueError("time budget must be positive")
        super().__init__(n, k, node_budget, time_budget)


class SearchResult(NamedTuple):
    config: SearchConfig
    best_sequence: Optional[PeriodicSequence]
    period: int
    optimal: bool
    expansions: int
    elapsed: float
    bound: int


def units(k: int) -> list[int]:
    return [u for u in range(1, k) if math.gcd(u, k) == 1]


def canonicalize(seq: PeriodicSequence, below: Optional[PeriodicSequence] = None
                 ) -> Optional[PeriodicSequence]:
    """Lexicographically least word in the orbit of seq under rotations,
    the nega-reverse map and unit symbol multiplication.  Given `below`, a
    word of seq's length, that word if it is less than `below`, else None.

    All three generators preserve the NOS property, so the orbit is a
    legitimate symmetry class for deduplication.  The unit images of -S^R
    are those of the plain reverse S^R, since u*(-S^R) = (-u)*S^R and -u
    is a unit, so S and S^R are mapped through one table per unit.

    Images are strings of equal-width symbol codes that compare like the
    symbols.  The least rotation of an image starts at a longest run of its
    least symbol, so an image is skipped when that symbol is above the
    incumbent's first or no run of it is as long as the incumbent's leading
    run, and only rotations that start with such a run are compared.
    """
    k, symbols = seq.k, seq.symbols
    variants = (symbols, symbols[::-1])
    if k <= 0x110000:  # a symbol is the code point of its value
        code, word = chr, "".join(map(chr, symbols))
        images = (word.translate, word[::-1].translate)
    else:  # a marker that no byte equals, then the value's bytes, big-endian
        size = ((k - 1).bit_length() + 7) // 8
        code = lambda x: "\u0100" + x.to_bytes(size, "big").decode("latin-1")
        images = [lambda t, v=v: "".join(map(t.__getitem__, v)) for v in variants]
    w = len(code(0))
    end = len(symbols) * w
    best = None if below is None else "".join(map(code, below.symbols))
    found = None
    present = set(symbols)
    for u in units(k):
        table = {s: code(u * s % k) for s in present}
        low = run = min(table.values())
        if best is not None and low > best[:w]:
            continue
        while best and best.startswith(run + low):  # the leading run of the best
            run += low
        for variant, image in zip(variants, images):
            doubled = image(table) * 2
            if run not in doubled:
                break  # S^R has the runs of S
            r = doubled.find(run)
            while 0 <= r < end:
                if best is None or doubled[r:r + end] < best:
                    best, found = doubled[r:r + end], (u, variant, r // w)
                r = doubled.find(run, r + 1)
    if found is None:
        return None
    u, variant, r = found
    return PeriodicSequence(tuple([u * s % k for s in variant[r:] + variant[:r]]), k)


def _walk_to_sequence(walk: list[int], n: int, k: int) -> PeriodicSequence:
    shift = k ** (n - 1)
    return PeriodicSequence(tuple([e // shift for e in walk]), k)


def max_nos_search(cfg: SearchConfig) -> SearchResult:
    """Depth-first search over pair-disjoint closed walks in B_k^-(n-1)."""
    n, k = cfg.n, cfg.k
    num_codes = k**n
    if num_codes > MAX_CODES:
        raise GraphSizeError(
            f"k^n = {num_codes} exceeds the search bitmap budget of {MAX_CODES}")

    started = time.monotonic()
    bound = nos_bound(n, k).value

    K, low, high = partner_halves(n, k)
    # Negasymmetric codes are no edges: they start used and stay used.
    used = bytearray(num_codes)
    for e in negasymmetric_codes(K, low, high):
        used[e] = 1
    num_vertices = k ** (n - 1)

    best_len = 0
    best_seq: Optional[PeriodicSequence] = None
    best_canonical = False  # is best_seq already in canonical form?
    expansions = 0
    aborted = False
    node_budget, time_budget = cfg.node_budget, cfg.time_budget

    def check(seq: PeriodicSequence, m: int) -> None:
        verdict = is_nos(seq, n)
        if not verdict.valid or verdict.period != m:
            raise InternalConsistencyError(
                f"search produced a non-NOS walk of length {m}: {seq}")

    def record(walk: list[int]) -> None:
        # Only walks at least as long as the incumbent are recorded.
        nonlocal best_len, best_seq, best_canonical
        m = len(walk)
        seq = _walk_to_sequence(walk, n, k)
        check(seq, m)
        if m > bound:
            raise InternalConsistencyError(
                f"walk of length {m} exceeds the proven bound {bound} "
                f"at n={n}, k={k}")
        if m > best_len:
            best_len, best_seq, best_canonical = m, seq, False
            return
        if not best_canonical:
            best_seq, best_canonical = canonicalize(best_seq), True
        better = canonicalize(seq, best_seq)
        if better is not None:
            best_seq = better

    for e0 in range(num_codes):
        if best_len >= bound or aborted:
            break
        if used[e0]:
            continue
        start = e0 // k
        # Unused in-edges of start: once none is left, the walk cannot close.
        start_in = sum(not used[y * num_vertices + start] for y in range(k))
        walk: list[int] = []
        e = e0
        while True:
            if e >= 0:  # take e and its partner; try its head's out-edges
                walk.append(e)
                p = low[e % K] + high[e // K]
                used[e] = used[p] = 1
                v = e % num_vertices
                start_in -= (v == start) + (p % num_vertices == start)
                if v == start and len(walk) >= best_len:
                    record(walk)
                    if best_len >= bound:
                        break  # no longer walk exists
                lo = v * k
                hi = lo + k if v == start or start_in else lo  # empty: cut
            else:  # release the last edge and its partner; try its next sibling
                e = walk.pop()
                p = low[e % K] + high[e // K]
                used[e] = used[p] = 0
                start_in += (e % num_vertices == start) + (p % num_vertices == start)
                if not walk:
                    break
                lo = e + 1
                hi = e // k * k + k
            e = used.find(0, lo if lo > e0 else e0 + 1, hi)
            if e >= 0:
                expansions += 1
                if expansions >= node_budget or (
                        time_budget is not None and expansions % 4096 == 0
                        and time.monotonic() - started > time_budget):
                    aborted = True
                    break

    if best_seq is not None:
        if not best_canonical:
            best_seq = canonicalize(best_seq)
        check(best_seq, best_len)
    elapsed = time.monotonic() - started
    optimal = (not aborted) or best_len >= bound
    return SearchResult(config=cfg, best_sequence=best_seq, period=best_len,
                        optimal=optimal, expansions=expansions,
                        elapsed=elapsed, bound=bound)


def graph_content_hash(n: int, k: int) -> str:
    """SHA-256 of the packed edge bitmap; pins the searched graph in certificates."""
    import hashlib  # loads OpenSSL: only certificates pay for it

    return hashlib.sha256(ReducedGraph(n, k).edge_bitmap()).hexdigest()


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
