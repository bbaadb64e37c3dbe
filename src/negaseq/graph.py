"""The reduced de Bruijn graph and the per-sequence subgraph.

Vertices are the k^(n-1) words of length n-1; each n-tuple is an edge from
its length-(n-1) prefix to its length-(n-1) suffix.  The reduced graph
drops every negasymmetric n-tuple: a code e is an edge iff e != -e^R.
`ReducedGraph.has_edge_code` applies that rule to one code.  The other
route, every code that `negasymmetric_codes` does not list, is behind
`ReducedGraph.edge_bitmap` (the edge count and the search's graph hash),
`ReducedGraph.edges` and the DOT export.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Union

from .errors import GraphSizeError, NotAnNosError
from .tuples import (
    TupleClass,
    Word,
    check_graph_params,
    count_class,
    decode,
    nega_reverse_code,
    nega_reverse_symbols,
    negasymmetric_codes,
    partner_halves,
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

    Stores only (n, k); edges are tested, and k^(n-1) vertices counted, on
    demand.  Immutable after construction; safe to share between readers.
    """

    def __init__(self, n: int, k: int):
        check_graph_params(n, k)
        self.n = n
        self.k = k

    @cached_property
    def num_vertices(self) -> int:
        return self.k ** (self.n - 1)

    def edge_bitmap(self) -> bytes:
        """One bit per code, MSB first, set iff the code is an edge; the last
        byte is zero-padded.  Built anew on each call."""
        num_codes = self.k**self.n
        pad = -num_codes % 8
        bits = bytearray(b"\xff" * ((num_codes + pad) // 8))
        bits[-1] = 0xFF << pad & 0xFF
        for e in negasymmetric_codes(*partner_halves(self.n, self.k)):
            bits[e >> 3] ^= 0x80 >> (e & 7)
        return bytes(bits)

    def has_edge_code(self, code: int) -> bool:
        return nega_reverse_code(code, self.n, self.k) != code

    def edge_count(self) -> int:
        """Count edges from the bitmap (independent of the formula)."""
        return int.from_bytes(self.edge_bitmap(), "big").bit_count()

    def edges(self) -> Iterator[int]:
        """Edge codes in increasing order: those `negasymmetric_codes` skips."""
        start = 0
        for e in negasymmetric_codes(*partner_halves(self.n, self.k)):
            yield from range(start, e)
            start = e + 1
        yield from range(start, self.k**self.n)

    def vertex_word(self, vertex_code: int) -> Word:
        return Word(decode(vertex_code, self.n - 1, self.k), self.k)


class VertexProfile(NamedTuple):
    label: Word
    in_degree: int
    out_degree: int
    flags: dict[str, bool]  # structural_flags(label)


def vertex_profile(g: ReducedGraph, v: Word) -> VertexProfile:
    """Degrees by probing the one candidate non-edge in each direction,
    plus the classification flags.

    An n-tuple is negasymmetric only if its first symbol is minus its last,
    so y.v is the only in-edge of v that can be missing (y = -v[-1]), and
    v.x the only out-edge (x = -v[0]).  The degrees always satisfy: in =
    k-1 iff left-sns else k, and out = k-1 iff right-sns else k.
    """
    if len(v) != g.n - 1 or v.k != g.k:
        raise ValueError(
            f"vertex label must have length {g.n - 1} over Z_{g.k}, got {v}")
    code, k = v.code(), g.k
    in_degree = k - (not g.has_edge_code(-v[-1] % k * g.num_vertices + code))
    out_degree = k - (not g.has_edge_code(code * k + -v[0] % k))
    return VertexProfile(label=v, in_degree=in_degree, out_degree=out_degree,
                         flags=structural_flags(v))


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

    @property
    def edge_codes(self):
        """The edge codes, as a set-like view of `edge_origin`'s keys."""
        return self.edge_origin.keys()

    def edge_count(self) -> int:
        return len(self.edge_origin)

    def is_balanced(self) -> bool:
        """Each vertex heads (code % k^(n-1)) as many edges as it tails (code // k)."""
        num_vertices = self.k ** (self.n - 1)
        heads = Counter([c % num_vertices for c in self.edge_codes])
        return heads == Counter([c // self.k for c in self.edge_codes])

    def has_negasymmetric_edge(self) -> bool:
        return any(nega_reverse_code(c, self.n, self.k) == c for c in self.edge_codes)

    def closed_under_nega_reverse(self) -> bool:
        return all(nega_reverse_code(c, self.n, self.k) in self.edge_codes
                   for c in self.edge_codes)


def sequence_subgraph(seq: PeriodicSequence, n: int) -> SequenceSubgraph:
    """Build B^-(S, n) in one O(m) scan of S at its minimal period m.

    The rolling window codes of S, then those of -S^R, are recorded with
    their origins; the first code already recorded raises NotAnNosError
    naming both windows, as a duplicate certifies that S is not an NOS of
    order n.  -S^R is coded only once S's m codes are known distinct.
    """
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
            raise GraphSizeError(f"{huge if count is None else count} {what} "
                                 f"exceed the DOT export budget of {DOT_BUDGET}")


def export_dot(graph: Union[ReducedGraph, SequenceSubgraph]) -> str:
    """DOT text of the graph: digraph `reduced_debruijn` for the full graph,
    `nega_sequence_subgraph` for B^-(S, n).  `check_dot_budget` runs on the
    edge count (closed form for the full graph) before any code is
    enumerated: a subgraph's few edges still come with a statement for
    every one of the k^(n-1) vertices."""
    if isinstance(graph, ReducedGraph):
        g, name = graph, "reduced_debruijn"
        size = printable_power(g.k, g.n) and edge_count_formula(g.n, g.k)
    else:
        g, size = ReducedGraph(graph.n, graph.k), graph.edge_count()
        name = "nega_sequence_subgraph"
    k, n = g.k, g.n
    check_dot_budget(n, k, size)
    sep = "" if k <= 10 else "_"
    lines = [f"digraph {name} {{"]
    names = []  # each vertex name decoded once; edges index into it
    for vcode in range(g.num_vertices):
        word = g.vertex_word(vcode)
        names.append(sep.join(map(str, word.symbols)))
        lines.append(f'  "{names[-1]}" [{_vertex_attrs(structural_flags(word))}];')
    edge_codes = g.edges() if graph is g else sorted(graph.edge_codes)
    for ecode in edge_codes:
        tail = names[ecode // k]  # an edge's label is its tail plus one symbol
        lines.append(f'  "{tail}" -> "{names[ecode % g.num_vertices]}" '
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

    n: int
    k: int
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
        return BoundBreakdown(n, k, N, p_out=p_out)

    if n == 3:
        if k_odd:
            p = negasym_non_uniform(2)  # k - 1
            ix_pp = k - 1
        else:
            # Uniform or alternating 2-tuples with entries in {0, k/2}.
            p = 4
            ix_pp = 2
        return BoundBreakdown(n, k, N, p_out=p, p_in=p, ix_pp=ix_pp)

    if n == 4:
        u_out = count_class(TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS, 3, k)
        if k_odd:
            p_out = negasym_non_uniform(3)  # k - 1
        else:
            p_out = count_class(TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC, 3, k)
        return BoundBreakdown(n, k, N, u_out=u_out, p_out=p_out)

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
    return BoundBreakdown(n, k, N, u_out=u, u_in=u, p_out=p, p_in=p,
                          ix_up=ix_up, ix_pu=ix_pu, ix_uu=ix_uu, ix_pp=ix_pp)
