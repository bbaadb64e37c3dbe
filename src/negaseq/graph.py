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
from itertools import count, repeat
from typing import TYPE_CHECKING, Iterator, NamedTuple, Union

from .errors import GraphSizeError, NotAnNosError
from .tuples import (
    TupleClass,
    Word,
    check_graph_params,
    count_class,
    decode,
    is_negasymmetric_code,
    nega_reverse_code,
    nega_reverse_symbols,
    negasymmetric_codes,
    partner_halves,
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

    Stores only (n, k); edges are tested on demand.  Immutable after
    construction; safe to share between readers.
    """

    def __init__(self, n: int, k: int):
        check_graph_params(n, k)
        self.n = n
        self.k = k
        self.num_vertices = k ** (n - 1)
        self.num_codes = k**n

    def edge_bitmap(self) -> bytes:
        """One bit per code, MSB first, set iff the code is an edge; the last
        byte is zero-padded.  Built anew on each call."""
        pad = -self.num_codes % 8
        bits = bytearray(b"\xff" * ((self.num_codes + pad) // 8))
        bits[-1] = 0xFF << pad & 0xFF
        for e in negasymmetric_codes(*partner_halves(self.n, self.k)):
            bits[e >> 3] ^= 0x80 >> (e & 7)
        return bytes(bits)

    def has_edge_code(self, code: int) -> bool:
        return not is_negasymmetric_code(code, self.n, self.k)

    def edge_count(self) -> int:
        """Count edges from the bitmap (independent of the formula)."""
        return int.from_bytes(self.edge_bitmap(), "big").bit_count()

    def edges(self) -> Iterator[int]:
        """Edge codes in increasing order: those `negasymmetric_codes` skips."""
        start = 0
        for e in negasymmetric_codes(*partner_halves(self.n, self.k)):
            yield from range(start, e)
            start = e + 1
        yield from range(start, self.num_codes)

    def out_edges(self, vertex_code: int) -> Iterator[int]:
        base = vertex_code * self.k
        for x in range(self.k):
            if self.has_edge_code(base + x):
                yield base + x

    def in_edges(self, vertex_code: int) -> Iterator[int]:
        for y in range(self.k):
            code = y * self.num_vertices + vertex_code
            if self.has_edge_code(code):
                yield code

    def vertex_word(self, vertex_code: int) -> Word:
        return Word(decode(vertex_code, self.n - 1, self.k), self.k)


class VertexProfile(NamedTuple):
    label: Word
    in_degree: int
    out_degree: int
    flags: dict[str, bool]  # structural_flags(label)


def vertex_profile(g: ReducedGraph, v: Word) -> VertexProfile:
    """Degrees by direct edge probing plus the classification flags.

    The degrees always satisfy: in = k-1 iff left-sns else k, and
    out = k-1 iff right-sns else k.
    """
    if len(v) != g.n - 1 or v.k != g.k:
        raise ValueError(
            f"vertex label must have length {g.n - 1} over Z_{g.k}, got {v}")
    code = v.code()
    in_degree = sum(1 for _ in g.in_edges(code))
    out_degree = sum(1 for _ in g.out_edges(code))
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
    in_degree: Counter
    out_degree: Counter
    # edge code -> (stream, window index), stream in {"S", "-S^R"}
    edge_origin: dict[int, tuple[str, int]]

    @property
    def edge_codes(self):
        """The edge codes, as a set-like view of `edge_origin`'s keys."""
        return self.edge_origin.keys()

    def edge_count(self) -> int:
        return len(self.edge_origin)

    def is_balanced(self) -> bool:
        vertices = set(self.in_degree) | set(self.out_degree)
        return all(self.in_degree[v] == self.out_degree[v] for v in vertices)

    def has_negasymmetric_edge(self) -> bool:
        return any(is_negasymmetric_code(c, self.n, self.k) for c in self.edge_codes)

    def closed_under_nega_reverse(self) -> bool:
        return all(nega_reverse_code(c, self.n, self.k) in self.edge_codes
                   for c in self.edge_codes)


def sequence_subgraph(seq: PeriodicSequence, n: int) -> SequenceSubgraph:
    """Build B^-(S, n) from one period of S.

    O(m) expected: the edge codes of S and -S^R are rolling window codes,
    mapped to their origins by one dict; those of -S^R are computed only
    once S's m codes are known to be distinct.  Fewer keys than windows
    means a repeated edge; a scan in order then raises NotAnNosError on the
    first one, S before -S^R, naming the colliding windows: a duplicate
    certifies that S is not an NOS of order n.  S is normalized only when
    its stored word repeats a window, as a proper power w^r does.
    """
    codes_s = window_codes(seq.symbols, n, seq.k)
    origin = dict(zip(codes_s, zip(repeat("S"), count())))
    norm = seq if len(origin) == len(codes_s) else seq.normalized()
    k, m = norm.k, len(norm)
    if m < len(codes_s):  # window i < p of w^r is window i of w
        del codes_s[m:]
        origin = dict(zip(codes_s, zip(repeat("S"), range(m))))
    streams = [("S", codes_s)]
    if len(origin) == m:
        codes_r = window_codes(nega_reverse_symbols(norm.symbols, k), n, k)
        origin.update(zip(codes_r, zip(repeat("-S^R"), range(m))))
        streams.append(("-S^R", codes_r))
    if len(origin) < 2 * m:  # a repeated edge: name the first one
        origin = {}
        for name, codes in streams:
            for i, code in enumerate(codes):
                if code in origin:
                    raise NotAnNosError(
                        f"window {name}[{i}] duplicates "
                        f"{origin[code][0]}[{origin[code][1]}]: "
                        f"not an order-{n} NOS",
                        first=origin[code], second=(name, i))
                origin[code] = (name, i)
    num_vertices = k ** (n - 1)
    return SequenceSubgraph(
        n=n, k=k,
        in_degree=Counter([c % num_vertices for c in origin]),
        out_degree=Counter([c // k for c in origin]),
        edge_origin=origin)


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


def export_dot(graph: Union[ReducedGraph, SequenceSubgraph]) -> str:
    """DOT text of the graph: digraph `reduced_debruijn` for the full graph,
    `nega_sequence_subgraph` for B^-(S, n).  The edge count (closed form for
    the full graph) and the vertex count are each checked against
    `DOT_BUDGET` before any code is enumerated: a subgraph's few edges still
    come with a statement for every one of the k^(n-1) vertices."""
    if isinstance(graph, ReducedGraph):
        g, size = graph, edge_count_formula(graph.n, graph.k)
        name = "reduced_debruijn"
    else:
        g, size = ReducedGraph(graph.n, graph.k), graph.edge_count()
        name = "nega_sequence_subgraph"
    for count, what in ((size, "edges"), (g.num_vertices, "vertices")):
        if count > DOT_BUDGET:
            raise GraphSizeError(
                f"{count} {what} exceed the DOT export budget of {DOT_BUDGET}")
    k = g.k
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
