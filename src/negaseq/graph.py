"""The reduced de Bruijn graph and the per-sequence subgraph.

Vertices are the k^(n-1) words of length n-1; each n-tuple is an edge from
its length-(n-1) prefix to its length-(n-1) suffix.  The reduced graph
drops every negasymmetric n-tuple: a code e is an edge iff e != -e^R.
Membership is that one rule on single codes; `ReducedGraph.edge_bitmap`
evaluates it for all codes at once through the shared partner table, a
second route that backs the edge count and the search's graph hash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, Union

from .errors import GraphSizeError, NotAnNosError
from .tuples import (
    TupleClass,
    Word,
    count_class,
    decode,
    is_negasymmetric_code,
    nega_reverse_code,
    partner_codes,
    structural_flags,
    window_codes,
)

if TYPE_CHECKING:
    import numpy as np

    from .verify import PeriodicSequence

DEFAULT_DOT_EDGE_BUDGET = 10**5


def edge_count_formula(n: int, k: int) -> int:
    """Number of non-negasymmetric n-tuples: k^n minus the negasymmetric count."""
    if n < 2 or k < 3:
        raise ValueError(f"need n >= 2 and k >= 3, got n={n}, k={k}")
    return k**n - count_class(TupleClass.NEGASYMMETRIC, n, k)


class ReducedGraph:
    """B_k^-(n-1): the de Bruijn graph minus negasymmetric edges.

    Stores only (n, k); edges are tested on demand.  Immutable after
    construction; safe to share between readers.
    """

    def __init__(self, n: int, k: int):
        if n < 2 or k < 3:
            raise ValueError(f"need n >= 2 and k >= 3, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.num_vertices = k ** (n - 1)
        self.num_codes = k**n

    def edge_bitmap(self) -> np.ndarray:
        """Boolean array over all k^n edge codes, built anew on each call."""
        import numpy as np

        return np.arange(self.num_codes, dtype=np.int64) != partner_codes(self.n, self.k)

    def has_edge_code(self, code: int) -> bool:
        return not is_negasymmetric_code(code, self.n, self.k)

    def edge_count(self) -> int:
        """Count edges from the bitmap (independent of the formula)."""
        import numpy as np

        return int(np.count_nonzero(self.edge_bitmap()))

    def edges(self) -> Iterator[int]:
        """Edge codes in increasing (lexicographic) order."""
        for code in range(self.num_codes):
            if self.has_edge_code(code):
                yield code

    def edge_head(self, code: int) -> int:
        """Vertex code of the suffix of the edge's n-tuple."""
        return code % self.num_vertices

    def edge_tail(self, code: int) -> int:
        """Vertex code of the prefix of the edge's n-tuple."""
        return code // self.k

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


@dataclass(frozen=True)
class VertexProfile:
    label: Word
    in_degree: int
    out_degree: int
    left_sns: bool
    right_sns: bool
    negasymmetric: bool
    uniform: bool
    alternating: bool
    uniform_alternating: bool
    in_parity: str  # "even" | "odd"
    out_parity: str


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
    return VertexProfile(
        label=v, in_degree=in_degree, out_degree=out_degree,
        **structural_flags(v),
        in_parity="even" if in_degree % 2 == 0 else "odd",
        out_parity="even" if out_degree % 2 == 0 else "odd",
    )


@dataclass
class SequenceSubgraph:
    """B^-(S, n): the edges contributed by S and by -S^R.

    For a period-m NOS this has exactly 2m distinct edges, is closed under
    the nega-reverse map, contains no negasymmetric edge, and balances
    in-degree against out-degree at every vertex.
    """

    n: int
    k: int
    edge_codes: set[int] = field(default_factory=set)
    in_degree: Counter = field(default_factory=Counter)
    out_degree: Counter = field(default_factory=Counter)
    # edge code -> (stream, window index), stream in {"S", "-S^R"}
    edge_origin: dict[int, tuple[str, int]] = field(default_factory=dict)

    def edge_count(self) -> int:
        return len(self.edge_codes)

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
    certifies that S is not an NOS of order n.
    """
    norm = seq.normalized()
    k, m = norm.k, len(norm)
    codes_s = window_codes(norm.symbols, n, k)
    origin = dict(zip(codes_s, zip(repeat("S"), range(m))))
    streams = [("S", codes_s)]
    if len(origin) == m:
        codes_r = window_codes(norm.nega_reverse().symbols, n, k)
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
        n=n, k=k, edge_codes=set(origin),
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


def export_dot(graph: Union[ReducedGraph, SequenceSubgraph],
               name: str = "reduced_debruijn",
               edge_budget: int = DEFAULT_DOT_EDGE_BUDGET) -> str:
    """DOT text of the graph.  The edge count (closed form for the full
    graph) and the vertex count are each checked against the budget before
    any code is enumerated: a subgraph's few edges still come with a
    statement for every one of the k^(n-1) vertices."""
    if isinstance(graph, ReducedGraph):
        g, size = graph, edge_count_formula(graph.n, graph.k)
    else:
        g, size = ReducedGraph(graph.n, graph.k), len(graph.edge_codes)
    for count, what in ((size, "edges"), (g.num_vertices, "vertices")):
        if count > edge_budget:
            raise GraphSizeError(
                f"{count} {what} exceed the DOT export budget of {edge_budget}")
    k = g.k
    sep = "" if k <= 10 else "_"
    lines = [f"digraph {name} {{"]
    names = []  # each vertex name decoded once; edges index into it
    skip = []  # code of v.x with v right-sns and x = -v_0 (negasymmetric), else v*k+k
    for vcode in range(g.num_vertices):
        word = g.vertex_word(vcode)
        flags = structural_flags(word)
        names.append(sep.join(map(str, word.symbols)))
        lines.append(f'  "{names[-1]}" [{_vertex_attrs(flags)}];')
        skip.append(vcode * k + (-word.symbols[0] % k if flags["right_sns"] else k))
    edge_codes = sorted(graph.edge_codes) if graph is not g else (
        e for v, bad in enumerate(skip) for e in range(v * k, v * k + k) if e != bad)
    for ecode in edge_codes:
        tail = names[ecode // k]  # an edge's label is its tail plus one symbol
        lines.append(f'  "{tail}" -> "{names[ecode % g.num_vertices]}" '
                     f'[label="{tail}{sep}{ecode % k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- excluded-edge budget -------------------------------------------------

@dataclass(frozen=True)
class BoundBreakdown:
    """The edge budget behind the period bound for one (n, k).

    u_out/u_in count outgoing/incoming exclusions at semi-negasymmetric
    vertices with unequal degrees; p_out/p_in count exclusions at vertices
    whose full degree is odd but whose degree in the sequence subgraph must
    be even.  The ix_* fields are the maximum possible overlaps between
    those sets (budget constants per regime, not per-instance measurements).
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
    resulting_edge_cap: int = 0
    resulting_period_bound: int = 0


def excluded_edge_budget(n: int, k: int) -> BoundBreakdown:
    """Fill the excluded-edge bookkeeping for the applicable (n, k) regime.

    The n=2, n=3, n=4 and four n>4 parity regimes each form a dedicated
    branch; the set sizes come from the tuple-class counting formulas at
    length n-1 and the overlap maxima are fixed per regime.
    """
    if n < 2 or k < 3:
        raise ValueError(f"need n >= 2 and k >= 3, got n={n}, k={k}")
    N = edge_count_formula(n, k)
    k_odd = k % 2 == 1

    def negasym_non_uniform(length: int) -> int:
        return (count_class(TupleClass.NEGASYMMETRIC, length, k)
                - count_class(TupleClass.UNIFORM_NEGASYMMETRIC, length, k))

    if n == 2:
        p_out = 0 if k_odd else 2
        cap = N - p_out
        return BoundBreakdown(n, k, N, p_out=p_out,
                              resulting_edge_cap=cap,
                              resulting_period_bound=cap // 2)

    if n == 3:
        if k_odd:
            p = negasym_non_uniform(2)  # k - 1
            ix_pp = k - 1
        else:
            # Uniform or alternating 2-tuples with entries in {0, k/2}.
            p = 4
            ix_pp = 2
        cap = N - 2 * p + ix_pp
        return BoundBreakdown(n, k, N, p_out=p, p_in=p, ix_pp=ix_pp,
                              resulting_edge_cap=cap,
                              resulting_period_bound=cap // 2)

    if n == 4:
        u_out = count_class(TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS, 3, k)
        if k_odd:
            p_out = negasym_non_uniform(3)  # k - 1
        else:
            p_out = count_class(TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC, 3, k)
        cap = N - u_out - p_out
        return BoundBreakdown(n, k, N, u_out=u_out, p_out=p_out,
                              resulting_edge_cap=cap,
                              resulting_period_bound=cap // 2)

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
    cap = N - 2 * u - 2 * p + ix_up + ix_pu + ix_uu + ix_pp
    return BoundBreakdown(n, k, N, u_out=u, u_in=u, p_out=p, p_in=p,
                          ix_up=ix_up, ix_pu=ix_pu, ix_uu=ix_uu, ix_pp=ix_pp,
                          resulting_edge_cap=cap,
                          resulting_period_bound=cap // 2)
