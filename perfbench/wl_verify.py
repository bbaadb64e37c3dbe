"""`verify` workload: is_window_sequence, is_nos, is_os and
graph.sequence_subgraph on long and short seeded sequences.

The long set has LONG_M-window sequences at large n over an odd and an
even k: two seeded random draws that are valid NOS, and three with one
planted violation each (a duplicate window, a nega-reverse collision and
a negasymmetric window) at a known index pair.  The short set has
SHORT_COUNT random sequences of period 20..200 at n = 6, k = 5, a natural
mix of valid and invalid.  No search and no import cost is timed here.
"""

from __future__ import annotations

import random
from types import SimpleNamespace as State

import reference
from common import Op, timed

LONG_M = 20_000
# (k, n, planted witness kind or None for a valid draw)
LONG_SPECS = [
    (5, 16, None),
    (4, 18, None),
    (5, 16, reference.DUPLICATE),
    (4, 18, reference.NEGA_REVERSE),
    (5, 16, reference.NEGASYMMETRIC),
]
SHORT_COUNT = 2000
SHORT_N, SHORT_K = 6, 5
SHORT_PERIODS = (20, 200)
NAIVE_SAMPLE = 20
PROPS = ("window", "nos", "os")
MIN_ROUNDS = 1
ALIASES: dict = {}


def _long_sequence(rng: random.Random, k: int, n: int, kind):
    """A valid draw, or one whose smallest NOS violation is the planted one."""
    while True:
        symbols = rng.choices(range(k), k=LONG_M)
        if kind is None:
            if reference.verdict(symbols, n, k, "nos")[0]:
                return symbols, None
            continue
        i = rng.randrange(n, LONG_M // 4)
        j = i if kind == reference.NEGASYMMETRIC else rng.randrange(LONG_M // 2, 3 * LONG_M // 4)
        reference.plant(symbols, n, k, kind, i, j)
        witness = (i, j, kind)
        if reference.verdict(symbols, n, k, "nos")[2] == witness:
            return symbols, witness


def setup(seed: int) -> State:
    from negaseq import graph, verify
    from negaseq.errors import NotAnNosError

    st = State()
    st.verify, st.graph = verify, graph
    st.gate_naive = verify.is_nos_naive
    st.not_an_nos = NotAnNosError
    rng = random.Random(seed)
    st.inputs = []  # (op class, label, PeriodicSequence, n, k, planted witness)
    for k, n, kind in LONG_SPECS:
        symbols, witness = _long_sequence(rng, k, n, kind)
        label = f"long:{kind or 'valid'}:k{k}"
        st.inputs.append(("long", label, verify.PeriodicSequence(tuple(symbols), k),
                          n, k, witness))
    for _ in range(SHORT_COUNT):
        m = rng.randint(*SHORT_PERIODS)
        symbols = tuple(rng.choices(range(SHORT_K), k=m))
        st.inputs.append(("short", "short", verify.PeriodicSequence(symbols, SHORT_K),
                          SHORT_N, SHORT_K, None))
    rng.shuffle(st.inputs)
    short_idx = [i for i, x in enumerate(st.inputs) if x[0] == "short"]
    st.naive_sample = set(rng.sample(short_idx, NAIVE_SAMPLE))
    st.expected = {}
    st.rounds = 0
    # Warm-up: every timed function once on a maximum-period NOS at (3, 3).
    warm = verify.PeriodicSequence((0, 0, 1, 0, 1, 1, 1, 2, 1, 1), 3)
    for fn in (verify.is_window_sequence, verify.is_nos, verify.is_os,
               graph.sequence_subgraph):
        fn(warm, 3)
    return st


def run_round(st: State, tracer=None) -> list[Op]:
    V, G = st.verify, st.graph
    ops = []
    for idx, (cls, label, seq, n, k, planted) in enumerate(st.inputs):
        if tracer is not None:
            tracer.begin_op(cls)
        op = Op(f"verify:{label}", cls, 0.0)
        ops.append(op)
        sub = None
        try:
            with timed(op):
                verdicts = {"window": V.is_window_sequence(seq, n),
                            "nos": V.is_nos(seq, n),
                            "os": V.is_os(seq, n)}
                if verdicts["nos"].valid:
                    sub = G.sequence_subgraph(seq, n)
        except st.not_an_nos as exc:
            op.fail(f"sequence_subgraph rejects a valid NOS: {exc}", True)
            continue
        except Exception as exc:  # counted as a failed operation
            op.fail(f"{type(exc).__name__}: {exc}")
            continue
        op.result = (len(seq),)
        _gate(st, op, idx, seq, n, k, planted, verdicts, sub)
    st.rounds += 1
    return ops


trace_round = run_round




def _as_tuple(v):
    w = v.witness
    return v.valid, v.period, None if w is None else (w.i, w.j, w.kind)


def _gate(st, op, idx, seq, n, k, planted, verdicts, sub) -> None:
    symbols = seq.symbols
    if idx not in st.expected:
        st.expected[idx] = {p: reference.verdict(symbols, n, k, p) for p in PROPS}
    for prop in PROPS:
        got, want = _as_tuple(verdicts[prop]), st.expected[idx][prop]
        if got != want:
            op.fail(f"{prop}: got {got}, expected {want}", True)
        elif got[2] is not None and not reference.witness_holds(symbols, n, k, *got[2]):
            op.fail(f"{prop}: witness {got[2]} does not hold", True)
    if planted is not None and _as_tuple(verdicts["nos"])[2] != planted:
        op.fail(f"planted witness {planted} not reported", True)
    if sub is not None and not (sub.edge_count() == 2 * len(seq) and sub.is_balanced()):
        op.fail(f"subgraph has {sub.edge_count()} edges, expected {2 * len(seq)}", True)
    if st.rounds == 0 and idx in st.naive_sample:
        naive = _as_tuple(st.gate_naive(seq, n))
        if naive != _as_tuple(verdicts["nos"]):
            op.fail(f"is_nos disagrees with is_nos_naive: {naive}", True)


def summary_lines(ops: list[Op], rounds: int) -> list[str]:
    long_ops = [o for o in ops if o.op_class == "long" and o.result]
    short_ops = [o for o in ops if o.op_class == "short" and o.result]
    windows = sum(o.result[0] for o in long_ops)
    long_s = sum(o.seconds for o in long_ops)
    short_s = sum(o.seconds for o in short_ops)
    return [f"verify.long_windows_per_s = {windows / long_s:.1f} 1/s "
            f"({windows} windows in {long_s:.3f} s)",
            f"verify.short_seqs_per_s = {len(short_ops) / short_s:.1f} 1/s "
            f"({len(short_ops)} sequences in {short_s:.3f} s)"]
