"""The reduced de Bruijn graph and the per-sequence subgraph.

Vertices are the k^(n-1) words of length n-1; each n-tuple is an edge from
its length-(n-1) prefix to its length-(n-1) suffix.  The reduced graph
drops every negasymmetric n-tuple: a code e is an edge iff e != -e^R.
`vertex_profile` reads that rule off a vertex's sns flags: y.v is a non-edge
for one y iff v is left-sns, v.x for one x iff v is right-sns.  The other
route builds the non-edges from their definition, as s.w.(-s) around a
shorter negasymmetric w (`negasymmetric_codes`); every code it does not list
is an edge.  It is behind `ReducedGraph.edge_bitmap` (the search's graph
hash), `ReducedGraph.edges` and the DOT export.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .errors import BudgetError, NotAnNosError
from .tuples import (
    TupleClass,
    Word,
    check_graph_params,
    count_class,
    decode,
    nega_reverse_symbols,
    negasymmetric_codes,
    printable_power,
    structural_flags,
    window_codes,
)

if TYPE_CHECKING:
    from .verify import PeriodicSequence

DOT_BUDGET = 10**5


def edge_count_formula(n: int, k: int) -> int:
    """Number of non-negasymmetric n-tuples: k^n minus the negasymmetric count."""
    check_graph_params(n, k)
    return k**n - count_class(TupleClass.NEGASYMMETRIC, n, k)


class ReducedGraph:
    """B_k^-(n-1): the de Bruijn graph minus negasymmetric edges.

    Stores only (n, k); edges are listed on demand.  Immutable after
    construction; safe to share between readers.
    """

    def __init__(self, n: int, k: int):
        check_graph_params(n, k)
        self.n = n
        self.k = k

    def edge_bitmap(self) -> bytes:
        """One bit per code, MSB first, set iff the code is an edge; the last
        byte is zero-padded.  Built anew on each call."""
        num_codes = self.k**self.n
        pad = -num_codes % 8
        bits = bytearray(b"\xff" * ((num_codes + pad) // 8))
        bits[-1] = 0xFF << pad & 0xFF
        for e in negasymmetric_codes(self.n, self.k):
            bits[e >> 3] ^= 0x80 >> (e & 7)
        return bytes(bits)

    def edges(self) -> Iterator[int]:
        """Edge codes in increasing order: those `negasymmetric_codes` skips."""
        start = 0
        for e in negasymmetric_codes(self.n, self.k):
            yield from range(start, e)
            start = e + 1
        yield from range(start, self.k**self.n)


class VertexProfile(NamedTuple):
    in_degree: int
    out_degree: int
    flags: dict[str, bool]  # structural_flags of the vertex's word


def vertex_profile(g: ReducedGraph, v: Word) -> VertexProfile:
    """The classification flags, and the degrees read off them, in time
    linear in n.

    An n-tuple is negasymmetric only if its first symbol is minus its last,
    so y.v (y = -v[-1]) is the only in-edge of v that can be missing, and it
    is missing iff v's first n-2 symbols are negasymmetric: in = k-1 iff v is
    left-sns, else k.  Likewise v.x (x = -v[0]): out = k-1 iff right-sns.
    """
    if len(v) != g.n - 1 or v.k != g.k:
        raise ValueError(
            f"vertex label must have length {g.n - 1} over Z_{g.k}, got {v}")
    flags = structural_flags(v)
    return VertexProfile(g.k - flags["left_sns"], g.k - flags["right_sns"], flags)


class SequenceSubgraph(NamedTuple):
    """B^-(S, n): the edges contributed by S and by -S^R.

    For a period-m NOS this has exactly 2m distinct edges, is closed under
    the nega-reverse map, contains no negasymmetric edge, and balances
    in-degree against out-degree at every vertex.
    """

    n: int
    k: int
    # edge code -> (stream, window index), stream in {"S", "-S^R"}
    edge_origin: dict[int, tuple[str, int]]

    def edge_count(self) -> int:
        return len(self.edge_origin)

    def is_balanced(self) -> bool:
        """Each vertex heads (code % k^(n-1)) as many edges as it tails (code // k)."""
        num_vertices = self.k ** (self.n - 1)
        heads = Counter([c % num_vertices for c in self.edge_origin])
        return heads == Counter([c // self.k for c in self.edge_origin])


def sequence_subgraph(seq: PeriodicSequence, n: int) -> SequenceSubgraph:
    """Build B^-(S, n) in one O(m) scan of S at its minimal period m.

    The rolling window codes of S, then those of -S^R, are recorded with
    their origins; the first code already recorded raises NotAnNosError
    naming both windows, as a duplicate certifies that S is not an NOS of
    order n.  -S^R is coded only once S's m codes are known distinct.
    """
    check_graph_params(n, seq.k)
    seq = seq.normalized()
    k, origin = seq.k, {}
    for name in ("S", "-S^R"):
        symbols = seq.symbols if name == "S" else nega_reverse_symbols(seq.symbols, k)
        for i, code in enumerate(window_codes(symbols, n, k)):
            if code in origin:
                raise NotAnNosError(
                    f"window {name}[{i}] duplicates "
                    f"{origin[code][0]}[{origin[code][1]}]: not an order-{n} NOS",
                    first=origin[code], second=(name, i))
            origin[code] = (name, i)
    return SequenceSubgraph(n=n, k=k, edge_origin=origin)


# -- DOT export -----------------------------------------------------------
#
# Deterministic output: statements sorted lexicographically by code, LF
# line endings, vertex names are the concatenated symbols.  Fill colors
# encode the classification: negasymmetric -> grey, both-sns -> gold,
# left-sns only -> lightblue, right-sns only -> lightgreen.

def _vertex_attrs(flags: dict[str, bool]) -> str:
    if flags["negasymmetric"]:
        color = "grey"
    elif flags["left_sns"] and flags["right_sns"]:
        color = "gold"
    elif flags["left_sns"]:
        color = "lightblue"
    elif flags["right_sns"]:
        color = "lightgreen"
    else:
        color = "white"
    return f'style=filled fillcolor="{color}"'


def check_dot_budget(n: int, k: int, edges: Optional[int] = 0) -> None:
    """Refuse, in O(1) at any n, edges (None: about k^n) and then k^(n-1)
    vertices over `DOT_BUDGET`; a count too long to print is named by its power."""
    for count, what, huge in ((edges, "edges", f"about {k}^{n}"),
                              (printable_power(k, n - 1), "vertices", f"{k}^{n - 1}")):
        if count is None or count > DOT_BUDGET:
            raise BudgetError(f"{huge if count is None else count} {what} "
                              f"exceed the DOT export budget of {DOT_BUDGET}")


def export_dot(g: ReducedGraph, seq: Optional[PeriodicSequence] = None) -> str:
    """DOT text of the reduced graph (digraph `reduced_debruijn`) or, given a
    sequence S over its alphabet, of B^-(S, n) (`nega_sequence_subgraph`).
    `check_dot_budget` runs before any code is enumerated: on the closed-form
    edge count for the full graph; for S, on the k^(n-1) vertices before S
    is scanned, then on the subgraph's edges, since its few edges still come
    with a statement for every vertex."""
    n, k = g.n, g.k
    if seq is None:
        check_dot_budget(n, k, printable_power(k, n) and edge_count_formula(n, k))
        name, edge_codes = "reduced_debruijn", g.edges()
    elif seq.k != k:
        raise ValueError(f"sequence must be over Z_{k}, got one over Z_{seq.k}")
    else:
        check_dot_budget(n, k)  # before any window of order n is coded
        name = "nega_sequence_subgraph"
        edge_codes = sorted(sequence_subgraph(seq, n).edge_origin)
        check_dot_budget(n, k, len(edge_codes))
    num_vertices = k ** (n - 1)
    sep = "" if k <= 10 else "_"
    lines = [f"digraph {name} {{"]
    names = []  # each vertex name decoded once; edges index into it
    for vcode in range(num_vertices):
        word = Word(decode(vcode, n - 1, k), k)
        names.append(sep.join(map(str, word.symbols)))
        lines.append(f'  "{names[-1]}" [{_vertex_attrs(structural_flags(word))}];')
    for ecode in edge_codes:
        tail = names[ecode // k]  # an edge's label is its tail plus one symbol
        lines.append(f'  "{tail}" -> "{names[ecode % num_vertices]}" '
                     f'[label="{tail}{sep}{ecode % k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- excluded-edge budget -------------------------------------------------

class BoundBreakdown(NamedTuple):
    """The edge budget behind the period bound for one (n, k).

    u_out/u_in count outgoing/incoming exclusions at semi-negasymmetric
    vertices with unequal degrees; p_out/p_in count exclusions at vertices
    whose full degree is odd but whose degree in the sequence subgraph must
    be even.  The ix_* fields are the maximum possible overlaps between
    those sets (budget constants per regime, not per-instance measurements).
    The edge cap is N less every exclusion plus every overlap, and the
    period bound is half the cap; both are derived, never stored.
    """

    N: int
    u_out: int = 0
    u_in: int = 0
    p_out: int = 0
    p_in: int = 0
    ix_up: int = 0  # overlap of outgoing-u with incoming-p exclusions
    ix_pu: int = 0  # overlap of outgoing-p with incoming-u exclusions
    ix_uu: int = 0
    ix_pp: int = 0

    @property
    def resulting_edge_cap(self) -> int:
        return (self.N - self.u_out - self.u_in - self.p_out - self.p_in
                + self.ix_up + self.ix_pu + self.ix_uu + self.ix_pp)

    @property
    def resulting_period_bound(self) -> int:
        return self.resulting_edge_cap // 2


def excluded_edge_budget(n: int, k: int) -> BoundBreakdown:
    """Fill the excluded-edge bookkeeping for the applicable (n, k) regime.

    The n=2, n=3, n=4 and four n>4 parity regimes each form a dedicated
    branch; the set sizes come from the tuple-class counting formulas at
    length n-1 and the overlap maxima are fixed per regime.
    """
    check_graph_params(n, k)
    N = edge_count_formula(n, k)
    k_odd = k % 2 == 1

    def negasym_non_uniform(length: int) -> int:
        return (count_class(TupleClass.NEGASYMMETRIC, length, k)
                - count_class(TupleClass.UNIFORM_NEGASYMMETRIC, length, k))

    if n == 2:
        p_out = 0 if k_odd else 2
        return BoundBreakdown(N, p_out=p_out)

    if n == 3:
        if k_odd:
            p = negasym_non_uniform(2)  # k - 1
            ix_pp = k - 1
        else:
            # Uniform or alternating 2-tuples with entries in {0, k/2}.
            p = 4
            ix_pp = 2
        return BoundBreakdown(N, p_out=p, p_in=p, ix_pp=ix_pp)

    if n == 4:
        u_out = count_class(TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS, 3, k)
        if k_odd:
            p_out = negasym_non_uniform(3)  # k - 1
        else:
            p_out = count_class(TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC, 3, k)
        return BoundBreakdown(N, u_out=u_out, p_out=p_out)

    n_odd = n % 2 == 1
    if n_odd and k_odd:
        u = count_class(TupleClass.NON_UNIFORM_LEFT_SNS, n - 1, k)
        p = negasym_non_uniform(n - 1)
        ix_up = ix_pu = k - 1
        ix_uu = k - 1
        ix_pp = k - 1
    elif n_odd:
        u = count_class(TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS, n - 1, k)
        p = (count_class(TupleClass.UNIFORM_NEGASYMMETRIC, n - 1, k)
             + count_class(TupleClass.ALTERNATING_NEGASYMMETRIC, n - 1, k))  # k
        ix_up = ix_pu = 0
        ix_uu = 4 * k - 4
        ix_pp = k - 2
    elif k_odd:
        u = count_class(TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS, n - 1, k)
        p = negasym_non_uniform(n - 1)
        ix_up = ix_pu = k - 1
        ix_uu = k * (k - 1)
        ix_pp = 0
    else:
        u = count_class(TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS, n - 1, k)
        p = count_class(TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC, n - 1, k)  # 2
        ix_up = ix_pu = 0
        ix_uu = k * (k - 1)
        ix_pp = 2
    return BoundBreakdown(N, u_out=u, u_in=u, p_out=p, p_in=p,
                          ix_up=ix_up, ix_pu=ix_pu, ix_uu=ix_uu, ix_pp=ix_pp)
