"""`search` workload: max_nos_search + certify over a fixed cell list.

Expansion budgets, not time caps, bound the mid and large cells, so every
round does the same work and returns the same result.  The seed only
orders the cells.
"""

from __future__ import annotations

import random
from types import SimpleNamespace as State

import reference
from common import Op, timed

SMALL = [(2, k) for k in range(3, 12)] + [(3, 3)]
MID = [(3, 4), (4, 3)]
LARGE = [(8, 5)]
MID_BUDGET = 20_000
LARGE_BUDGET = 100
UNBOUNDED = 10**9
MIN_ROUNDS = 8  # 104 cells, enough for a p90 tail
# Names the end-to-end metrics carry on this workload in the docs.
ALIASES = {"round_cpu_s": "search.wall_s"}


def known_maximum(n: int, k: int):
    """Exact maxima the DFS certifies: the n = 2 bound is attained, and
    (3, 3) has maximum 10 (one below its bound)."""
    if n == 2:
        return (k * k - k) // 2 if k % 2 else (k * k - k - 2) // 2
    if (n, k) == (3, 3):
        return 10
    return None


def setup(seed: int) -> State:
    from negaseq import bounds, search, verify

    st = State()
    st.search = search
    st.gate_is_nos = verify.is_nos
    st.gate_bound = bounds.nos_bound
    cells = ([(n, k, UNBOUNDED, "small") for n, k in SMALL]
             + [(n, k, MID_BUDGET, "mid") for n, k in MID]
             + [(n, k, LARGE_BUDGET, "large") for n, k in LARGE])
    random.Random(seed).shuffle(cells)
    st.cells = cells
    st.first = {}
    # Warm-up: one small cell end to end.
    search.certify(search.max_nos_search(search.SearchConfig(n=2, k=5)))
    return st


def run_round(st: State, tracer=None) -> list[Op]:
    S = st.search
    ops = []
    for n, k, budget, cls in st.cells:
        if tracer is not None:
            tracer.begin_op(cls)
        op = Op(f"search({n},{k})", cls, 0.0)
        ops.append(op)
        try:
            with timed(op):
                result = S.max_nos_search(S.SearchConfig(n=n, k=k, node_budget=budget))
                cert = S.certify(result)
        except Exception as exc:  # counted as a failed operation
            op.fail(f"{type(exc).__name__}: {exc}")
            continue
        op.result = (result.expansions, result.optimal, result.bound - result.period)
        _gate(st, op, n, k, result, cert)
    return ops


trace_round = run_round




def _gate(st, op, n, k, r, cert) -> None:
    bound = st.gate_bound(n, k).value
    if r.bound != bound or r.period > bound:
        op.fail(f"period {r.period} / reported bound {r.bound} vs nos_bound {bound}", True)
    if r.best_sequence is None:
        if r.period != 0:
            op.fail("period without a sequence", True)
    else:
        symbols = r.best_sequence.symbols
        valid, period, _ = reference.verdict(symbols, n, k, "nos")
        lib = st.gate_is_nos(r.best_sequence, n)
        if not (valid and lib.valid and period == lib.period == r.period):
            op.fail(f"returned sequence is not an NOS of period {r.period}", True)
    if f"\nperiod={r.period}\n" not in cert or \
            f"\noptimal={'true' if r.optimal else 'false'}\n" not in cert:
        op.fail("certificate disagrees with the result", True)
    best = known_maximum(n, k)
    if best is not None and not (r.optimal and r.period == best):
        op.fail(f"expected certified maximum {best}, got {r.period} "
                f"(optimal={r.optimal})", True)
    key = (r.period, r.expansions, r.optimal, r.best_sequence)
    if st.first.setdefault((n, k), key) != key:
        op.fail("result differs from the first round", True)


def summary_lines(ops: list[Op], rounds: int) -> list[str]:
    """Job metrics of the search workload, per round (exact counts)."""
    done = [o for o in ops if o.result]
    expansions = sum(o.result[0] for o in done) // rounds
    certified = sum(1 for o in done if o.result[1]) // rounds
    gap = sum(o.result[2] for o in done) // rounds
    return [f"search.cells_certified = {certified} count (of {len(SMALL + MID + LARGE)} cells)",
            f"search.bound_gap = {gap} count",
            f"search.expansions = {expansions} count"]
