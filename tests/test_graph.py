import hashlib
import random
import re
import time

import pytest

from conftest import counted_degrees, edge_count, nega_reverse_code, vertex_words
from negaseq import graph as graph_mod
from negaseq.errors import BudgetError, NotAnNosError
from negaseq.graph import (
    ReducedGraph,
    SequenceSubgraph,
    edge_count_formula,
    excluded_edge_budget,
    export_dot,
    sequence_subgraph,
    vertex_profile,
)
from negaseq.tuples import (Word, decode, encode, left_sns, nega_reverse_symbols, negasymmetric,
                            right_sns, window_codes)
from negaseq.verify import PeriodicSequence

SMALL = [(n, k) for n in (2, 3, 4, 5) for k in (3, 4, 5, 6)]


class TestEdgeCounts:
    def test_formula_examples(self):
        assert edge_count_formula(2, 3) == 6
        assert edge_count_formula(3, 3) == 24
        assert edge_count_formula(5, 3) == 234
        assert edge_count_formula(2, 4) == 12
        assert edge_count_formula(3, 4) == 56
        assert edge_count_formula(4, 4) == 240

    def test_formula_matches_bitmap(self):
        for n, k in SMALL:
            g = ReducedGraph(n, k)
            assert edge_count(g) == edge_count_formula(n, k), (n, k)

    def test_implicit_and_explicit_agree(self):
        # the per-code rule e != -e^R against edge_bitmap and edges()
        # (negasymmetric codes)
        for n, k in [(2, 3), (3, 4), (4, 3)]:
            g = ReducedGraph(n, k)
            bitmap = g.edge_bitmap()
            assert len(bitmap) == -(-k**n // 8)
            for code in range(k**n):
                bit = bitmap[code >> 3] >> (7 - code % 8) & 1
                assert (nega_reverse_code(code, n, k) != code) == bool(bit)
            assert bitmap[-1] % (1 << -k**n % 8) == 0  # zero padding
            assert list(g.edges()) == [c for c in range(k**n)
                                       if nega_reverse_code(c, n, k) != c]


class TestDegrees:
    def test_degree_rule(self):
        # The degrees read off the sns flags against a count of the edges in
        # and out of each vertex over the non-edge codes.
        for n, k in SMALL:
            g = ReducedGraph(n, k)
            for v, (word, degrees) in enumerate(zip(vertex_words(n, k),
                                                    counted_degrees(n, k))):
                p = vertex_profile(g, word)
                assert (p.in_degree, p.out_degree) == degrees, (n, k, v)

    def test_degree_sums_equal_edge_count(self):
        for n, k in SMALL:
            g = ReducedGraph(n, k)
            total_in = total_out = 0
            for word in vertex_words(n, k):
                p = vertex_profile(g, word)
                total_in += p.in_degree
                total_out += p.out_degree
            assert total_in == total_out == edge_count_formula(n, k)

    def test_profile_rejects_wrong_length(self):
        g = ReducedGraph(3, 3)
        with pytest.raises(ValueError):
            vertex_profile(g, Word((0, 1, 2), 3))
        # The graph works out k^(n-1) only when asked: n = 10^8 is refused at once.
        with pytest.raises(ValueError, match="^vertex label must have length "
                           "99999999 over Z_9, got 0$"):
            vertex_profile(ReducedGraph(10**8, 9), Word((0,), 9))

    @pytest.mark.parametrize("n,symbols,degrees", [
        (100_001, (1,) * 100_000, (9, 9)),
        # left-sns, so the in-edge y.v with y = -v[-1] is a non-edge
        (100_000, (1, 8) * 49_999 + (3,), (8, 9)),
    ], ids=["ones", "left_sns"])
    def test_profile_is_linear_in_n(self, n, symbols, degrees):
        # Non-zero symbols: arithmetic on the vertex's code, a number of
        # about n digits, would make the profile quadratic in n.
        start = time.process_time()
        p = vertex_profile(ReducedGraph(n, 9), Word(symbols, 9))
        elapsed = time.process_time() - start
        assert (p.in_degree, p.out_degree) == degrees
        assert elapsed < 1.0, elapsed


class TestStructure:
    def test_both_sns_vertices(self):
        # n-1 odd, k odd: only the all-zero label; n-1 odd, k even: labels
        # over {0, k/2}; n-1 even: exactly the k uniform-alternating labels.
        for n in (4, 5, 6):
            for k in (3, 4, 5):
                got = {v.symbols for v in vertex_words(n, k)
                       if left_sns(v.symbols, k) and right_sns(v.symbols, k)}
                m = n - 1
                if m % 2 == 0 and k % 2 == 1:
                    expect = {tuple([0] * m)}
                elif m % 2 == 0:
                    h = k // 2
                    expect = {tuple(a if i % 2 == 0 else b for i in range(m))
                              for a in (0, h) for b in (0, h)}
                else:
                    expect = {tuple(c if i % 2 == 0 else (-c) % k
                                    for i in range(m)) for c in range(k)}
                assert got == expect, (n, k)

    def test_left_sns_to_right_sns_edges_have_period_4(self):
        for n in (5, 6):
            for k in (3, 4):
                g = ReducedGraph(n, k)
                hits = 0
                for e in g.edges():
                    t = decode(e, n, k)
                    if left_sns(t[:-1], k) and right_sns(t[1:], k):
                        hits += 1
                        assert all(t[i] == t[i + 4] for i in range(n - 4)), t
                assert hits > 0, (n, k)

    def test_no_negasymmetric_edges(self):
        for n, k in [(2, 3), (3, 3), (3, 4), (4, 3)]:
            g = ReducedGraph(n, k)
            for e in g.edges():
                assert not negasymmetric(decode(e, n, k), k)

    def test_edge_endpoints(self):
        # an edge runs from its code // k (the prefix) to its code mod
        # k^(n-1) (the suffix), as the subgraph degrees and the DOT export read it
        e, words = encode((0, 1, 2), 3), vertex_words(3, 3)
        assert words[e // 3].symbols == (0, 1)
        assert words[e % len(words)].symbols == (1, 2)


class TestSequenceSubgraph:
    def test_invariants_for_valid_nos(self):
        sub = sequence_subgraph(PeriodicSequence((0, 1, 1), 3), 2)
        assert sub.edge_count() == 6  # 2m distinct edges
        assert sub.is_balanced()
        codes = sub.edge_origin
        assert all(nega_reverse_code(c, 2, 3) != c for c in codes)  # none negasymmetric
        assert all(nega_reverse_code(c, 2, 3) in codes for c in codes)  # closed under -e^R

    @pytest.mark.parametrize("codes, balanced", [
        ({1, 2}, False),  # 0->1 and 0->2: vertex 0 only sends
        ({1, 3}, True),  # 0->1->0, a 2-cycle
        (set(), True),
    ], ids=["unequal", "two-cycle", "empty"])
    def test_is_balanced_compares_degrees(self, codes, balanced):
        sub = SequenceSubgraph(n=2, k=3, edge_origin=dict.fromkeys(codes, ("S", 0)))
        assert sub.is_balanced() is balanced

    @pytest.mark.parametrize("n", [0, 1])
    def test_order_below_two_is_refused(self, n):
        with pytest.raises(ValueError, match=f"^need n >= 2 and k >= 3, got n={n}, k=3$"):
            sequence_subgraph(PeriodicSequence((0, 1, 1), 3), n)

    def test_duplicate_raises(self):
        with pytest.raises(NotAnNosError) as err:
            sequence_subgraph(PeriodicSequence((0, 0, 1), 3), 2)
        assert err.value.first is not None
        assert err.value.second is not None

    def test_first_duplicate_scans_s_before_nega_reverse(self):
        for symbols, first, second in [((0, 0, 1), ("S", 0), ("-S^R", 1)),
                                       ((0, 1, 2, 0, 1, 1), ("S", 0), ("S", 3))]:
            with pytest.raises(NotAnNosError) as err:
                sequence_subgraph(PeriodicSequence(symbols, 3), 2)
            assert (err.value.first, err.value.second) == (first, second)
            assert str(err.value) == (f"window {second[0]}[{second[1]}] duplicates "
                                      f"{first[0]}[{first[1]}]: not an order-2 NOS")

    @pytest.mark.parametrize("symbols,k,n,first,second", [
        # a duplicate within S
        ((0, 1, 3, 2, 0, 1), 4, 2, ("S", 0), ("S", 4)),
        ((1, 0, 2, 2, 0, 1, 1, 2, 2, 0, 1, 3, 3), 4, 3, ("S", 2), ("S", 7)),
        # across the streams: a window equal to its own nega-reverse
        ((0, 0, 1, 0, 2, 1, 1, 2), 3, 3, ("S", 2), ("-S^R", 3)),
        ((0, 0, 1, 1, 2, 0, 2, 1) * 3, 3, 2, ("S", 6), ("-S^R", 0)),
        # across the streams: the nega-reverse of another window
        ((0, 1, 2, 3, 4, 0, 4, 3), 5, 3, ("S", 0), ("-S^R", 2)),
    ])
    def test_first_duplicate_pinned(self, symbols, k, n, first, second):
        """Recorded from the ordered one-window-at-a-time scan."""
        with pytest.raises(NotAnNosError) as err:
            sequence_subgraph(PeriodicSequence(symbols, k), n)
        assert (err.value.first, err.value.second) == (first, second)
        assert str(err.value) == (f"window {second[0]}[{second[1]}] duplicates "
                                  f"{first[0]}[{first[1]}]: not an order-{n} NOS")

    def test_repeat_in_s_stops_before_nega_reverse(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return window_codes(*args)

        monkeypatch.setattr(graph_mod, "window_codes", counted)
        with pytest.raises(NotAnNosError) as err:
            sequence_subgraph(PeriodicSequence((0, 0, 0, 1, 2, 0, 0, 0), 3), 3)
        assert len(calls) == 1
        assert (err.value.first, err.value.second) == (("S", 0), ("S", 5))
        assert str(err.value) == "window S[5] duplicates S[0]: not an order-3 NOS"

    def test_no_duplicate_within_nega_reverse_alone(self):
        # Window t of -S^R is the nega-reverse of a window of S, a
        # bijection, so -S^R repeats a window only when S does and the
        # first duplicate is never a pair inside -S^R.
        rng = random.Random(3)
        for _ in range(300):
            k, n = rng.choice([3, 4, 5]), rng.choice([2, 3, 4])
            s = PeriodicSequence(tuple(rng.choices(range(k), k=rng.randint(1, 20))), k)
            s = s.normalized()
            codes = window_codes(s.symbols, n, k)
            image = window_codes(nega_reverse_symbols(s.symbols, k), n, k)
            assert (len(set(image)) == len(image)) == (len(set(codes)) == len(codes))

    def test_normalizes_first(self):
        sub = sequence_subgraph(PeriodicSequence((0, 1, 1, 0, 1, 1), 3), 2)
        assert sub.edge_count() == 6

    def test_edges_are_extracted_windows(self):
        # maximum NOS at (3, 3) and (2, 5), and a stored length twice the period
        for symbols, k, n in [((0, 0, 1, 0, 1, 1, 1, 2, 1, 1), 3, 3),
                              ((0, 1, 0, 2, 1, 1, 2, 2, 4, 2), 5, 2),
                              ((0, 1, 1) * 2, 3, 2)]:
            sub = sequence_subgraph(PeriodicSequence(symbols, k), n)
            s = PeriodicSequence(symbols, k).normalized()
            r = PeriodicSequence(nega_reverse_symbols(s.symbols, k), k)
            expected = {encode(stream.window(i, n).symbols, k)
                        for stream in (s, r) for i in range(len(s))}
            assert sub.edge_origin.keys() == expected
            assert sub.edge_origin[encode(s.window(1, n).symbols, k)] == ("S", 1)
            assert sub.edge_origin[encode(r.window(2, n).symbols, k)] == ("-S^R", 2)
            assert sub.is_balanced()


class TestDotExport:
    def test_deterministic(self):
        a = export_dot(ReducedGraph(2, 3))
        b = export_dot(ReducedGraph(2, 3))
        assert a == b
        assert a.startswith("digraph reduced_debruijn {")
        assert a.endswith("}\n")
        assert "\r" not in a

    def test_edge_and_vertex_statements(self):
        text = export_dot(ReducedGraph(2, 3))
        lines = text.splitlines()
        edges = [ln for ln in lines if "->" in ln]
        assert len(edges) == 6
        assert any('fillcolor="gold"' in ln for ln in lines)

    @pytest.mark.parametrize("n,k", [(n, k) for n, k in SMALL if k**n <= 10**4])
    def test_full_graph_edges_follow_scalar_rule(self, n, k):
        g = ReducedGraph(n, k)
        labels = re.findall(r'\[label="(\d+)"\]', export_dot(g))
        assert [encode(tuple(map(int, label)), k) for label in labels] == \
            [c for c in range(k**n) if nega_reverse_code(c, n, k) != c]

    def test_subgraph_export(self):
        text = export_dot(ReducedGraph(2, 3), PeriodicSequence((0, 1, 1), 3))
        assert text.count("->") == 6
        assert "digraph nega_sequence_subgraph" in text

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "DOT_BUDGET", 5)
        with pytest.raises(BudgetError, match="24 edges exceed the DOT export budget of 5"):
            export_dot(ReducedGraph(3, 3))

    def test_budget_checked_before_enumeration(self, monkeypatch):
        def no_flags(*args):
            raise AssertionError("vertices enumerated before the budget check")

        monkeypatch.setattr(graph_mod, "structural_flags", no_flags)
        with pytest.raises(BudgetError, match="exceed the DOT export budget"):
            export_dot(ReducedGraph(12, 4))


    @pytest.mark.parametrize("make, count", [
        (lambda: (ReducedGraph(5000, 9),), "about 9^5000 edges"),
        (lambda: (ReducedGraph(10**8, 9),), "about 9^100000000 edges"),
        (lambda: (ReducedGraph(5000, 9), PeriodicSequence((0, 1, 1), 9)),
         "9^4999 vertices"),
    ], ids=["graph-5000", "graph-1e8", "subgraph-5000"])
    def test_budget_names_a_huge_count_by_its_power(self, make, count):
        # Past the interpreter's digit limit the counts are not worked out.
        with pytest.raises(BudgetError) as err:
            export_dot(*make())
        assert str(err.value) == f"{count} exceed the DOT export budget of 100000"

    def test_subgraph_vertex_count_is_budgeted(self, monkeypatch):
        g, seq = ReducedGraph(3, 3), PeriodicSequence((0, 1, 1), 3)
        assert sequence_subgraph(seq, 3).edge_count() == 6
        monkeypatch.setattr(graph_mod, "DOT_BUDGET", 8)
        with pytest.raises(BudgetError, match="9 vertices exceed"):
            export_dot(g, seq)
        monkeypatch.setattr(graph_mod, "DOT_BUDGET", 9)
        assert export_dot(g, seq).count("->") == 6

    def test_subgraph_vertex_budget_checked_first(self, monkeypatch):
        def no_profiles(*args):
            raise AssertionError("vertices enumerated before the budget check")

        def no_scan(*args):
            raise AssertionError("sequence scanned before the vertex budget check")

        monkeypatch.setattr(graph_mod, "vertex_profile", no_profiles)
        monkeypatch.setattr(graph_mod, "structural_flags", no_profiles)
        monkeypatch.setattr(graph_mod, "sequence_subgraph", no_scan)
        with pytest.raises(BudgetError) as err:
            export_dot(ReducedGraph(12, 3), PeriodicSequence((0, 1, 1), 3))
        assert str(err.value) == "177147 vertices exceed the DOT export budget of 100000"

    def test_subgraph_alphabet_must_match(self):
        with pytest.raises(ValueError, match="^sequence must be over Z_4, got one over Z_3$"):
            export_dot(ReducedGraph(2, 4), PeriodicSequence((0, 1, 1), 3))

    # SHA-256 of the DOT text, recorded from the export that decoded both
    # endpoint names of every edge and built a full vertex profile per vertex.
    @pytest.mark.parametrize("make,name,digest", [
        (lambda: (ReducedGraph(3, 3),), "reduced_debruijn",
         "565483b51f5b27dac6a114eb3bc909ba8538864f3243405ce1910a4bece7029d"),
        (lambda: (ReducedGraph(4, 4),), "reduced_debruijn",
         "3029324b7897d62fb62dadcc52f53cedfbe857e6d0b24c5cc8f1bfd22871800b"),
        (lambda: (ReducedGraph(2, 11),), "reduced_debruijn",
         "a78e2bdd12df75c29fa472aaab0de2fd7092a13abb3f8775e34b5ba510d7fedf"),
        (lambda: (ReducedGraph(3, 4), PeriodicSequence(
            (0, 0, 1, 0, 1, 1, 0, 2, 1, 1, 1, 2, 0, 1, 3, 1, 1, 3, 2, 2, 3, 2, 3, 1),
            4)), "nega_sequence_subgraph",
         "afa1697886d517ab46a5fc64f18ea970e1a604fa3dce20d553b325ca570851e7"),
        (lambda: (ReducedGraph(2, 12), PeriodicSequence((0, 1, 3), 12)),
         "nega_sequence_subgraph",
         "f6fd5e51d284a7597f6f87a9c24512b9ba7e895b88db8c881dacfeb4d7b20095"),
    ], ids=["full-3-3", "full-4-4", "full-2-11", "subgraph-3-4", "subgraph-2-12"])
    def test_text_pinned(self, make, name, digest):
        text = export_dot(*make())
        assert text.startswith(f"digraph {name} {{\n")
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestExcludedEdgeBudget:
    def test_examples(self):
        b = excluded_edge_budget(5, 3)
        assert (b.N, b.u_out, b.p_out, b.ix_pp) == (234, 8, 8, 2)
        assert b.resulting_edge_cap == 210
        assert b.resulting_period_bound == 105

        b = excluded_edge_budget(2, 4)
        assert (b.N, b.p_out, b.resulting_edge_cap, b.resulting_period_bound) == \
            (12, 2, 10, 5)

        b = excluded_edge_budget(3, 3)
        assert (b.N, b.resulting_edge_cap, b.resulting_period_bound) == (24, 22, 11)

    def test_cap_is_even(self):
        for n in range(2, 10):
            for k in range(3, 10):
                b = excluded_edge_budget(n, k)
                assert b.resulting_edge_cap % 2 == 0, (n, k)
                assert b.resulting_period_bound == b.resulting_edge_cap // 2
