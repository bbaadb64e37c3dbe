import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from negaseq import search as search_mod, tuples as tuples_mod
from negaseq.errors import GraphSizeError, InternalConsistencyError
from negaseq.search import (
    SearchConfig,
    canonicalize,
    certify,
    graph_content_hash,
    max_nos_search,
    units,
)
from negaseq.verify import PeriodicSequence, is_nos


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=1, k=3)
        with pytest.raises(ValueError):
            SearchConfig(n=2, k=2)
        with pytest.raises(ValueError):
            SearchConfig(n=2, k=3, node_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(n=2, k=3, time_budget=-1.0)

    def test_graph_size_refusal(self):
        with pytest.raises(GraphSizeError):
            max_nos_search(SearchConfig(n=10, k=9))


def oracle_canonicalize(seq):
    """The body `canonicalize` had before its tie test: the least rotation
    of every unit image of S and S^R, found by comparing the rotations at
    every occurrence of each image's least symbol.  Each unit is applied
    per symbol, not through a table over all of Z_k, which for k above
    0x10FFFF would need k entries per unit."""
    best = None
    k = seq.k
    m = len(seq.symbols)
    scales = [lambda s, u=u: u * s % k for u in units(k)]
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


# Above 0x10FFFF, the largest code point, with few units for its size:
# 2^2 * 3 * 5 * 7 * 11 * 13 * 19 has 207360.
HUGE_K = 1141140


@st.composite
def words(draw, k, m):
    """A word of length m over Z_k: any word, one symbol repeated, a word
    without 0, or a proper power of a shorter word."""
    kind = draw(st.sampled_from(("any", "one-symbol", "no-zero", "power")))
    size = m
    if kind == "one-symbol":
        size = 1
    elif kind == "power" and m > 1:
        size = draw(st.sampled_from([d for d in range(1, m) if m % d == 0]))
    low = 1 if kind == "no-zero" else 0
    base = draw(st.lists(st.integers(low, k - 1), min_size=size, max_size=size))
    return tuple(base * (m // size))


@st.composite
def word_pairs(draw):
    """(s, t) of one length and alphabet; t is s itself now and then."""
    k = draw(st.integers(3, 13))
    m = draw(st.integers(1, 40))
    s = draw(words(k, m))
    t = s if draw(st.booleans()) and draw(st.booleans()) else draw(words(k, m))
    return PeriodicSequence(s, k), PeriodicSequence(t, k)


class TestUnits:
    def test_values(self):
        assert units(3) == [1, 2]
        assert units(4) == [1, 3]
        assert units(6) == [1, 5]
        assert units(7) == [1, 2, 3, 4, 5, 6]


class TestCanonicalize:
    def test_idempotent(self):
        s = PeriodicSequence((2, 0, 1, 1), 3)
        c = canonicalize(s)
        assert canonicalize(c) == c

    def test_orbit_collapse(self):
        s = PeriodicSequence((0, 1, 1), 3)
        # rotations, the nega-reverse image and unit rescalings all map to
        # the same representative
        variants = [
            PeriodicSequence((1, 1, 0), 3),
            s.nega_reverse(),
            PeriodicSequence(tuple((2 * x) % 3 for x in s.symbols), 3),
        ]
        rep = canonicalize(s)
        for v in variants:
            assert canonicalize(v) == rep

    def test_is_lexicographically_least_rotation(self):
        rep = canonicalize(PeriodicSequence((1, 1, 0), 3))
        doubled = rep.symbols + rep.symbols
        m = len(rep.symbols)
        assert all(rep.symbols <= doubled[r:r + m] for r in range(m))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 9).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=30))))
    def test_equals_minimum_over_all_rotations(self, case):
        k, symbols = case
        seq = PeriodicSequence(tuple(symbols), k)
        # Every rotation of every unit image of S and -S^R, 2*|U|*m words.
        best = None
        for variant in (seq.symbols, seq.nega_reverse().symbols):
            for u in units(k):
                mapped = tuple((u * s) % k for s in variant)
                m = len(mapped)
                doubled = mapped + mapped
                for r in range(m):
                    rotated = doubled[r:r + m]
                    if best is None or rotated < best:
                        best = rotated
        assert canonicalize(seq) == PeriodicSequence(best, k)

    @settings(max_examples=500, deadline=None)
    @given(word_pairs())
    @example((PeriodicSequence((HUGE_K - 1, 5) * 2, HUGE_K),
              PeriodicSequence((1, 1, 2, 1), HUGE_K)))
    def test_matches_oracle_and_tie_test_is_exact(self, pair):
        """canonicalize(s) is the oracle's form, and canonicalize(s, b) for
        a canonical b returns that form exactly when it is below b."""
        s, t = pair
        rep, below = oracle_canonicalize(s), oracle_canonicalize(t)
        assert canonicalize(s) == rep
        expected = rep if rep.symbols < below.symbols else None
        assert canonicalize(s, below) == expected


class TestExhaustiveSearch:
    def test_order_two_row(self):
        expected = {3: 3, 4: 5, 5: 10, 6: 14, 7: 21, 8: 27}
        for k, period in expected.items():
            result = max_nos_search(SearchConfig(n=2, k=k))
            assert result.period == period, k
            assert result.optimal
            v = is_nos(result.best_sequence, 2)
            assert v.valid and v.period == period

    def test_result_respects_bound(self):
        result = max_nos_search(SearchConfig(n=3, k=3))
        assert result.period <= result.bound
        assert result.period == 10
        assert result.optimal

    @staticmethod
    def _assert_symmetry_images_are_nos(seq, n, k):
        """Each unit image of S and of -S^R is an NOS of S's period with S's
        canonical form: the symmetry that lets one search path stand for
        the whole orbit, as the deleted first-edge restriction assumed."""
        rep = canonicalize(seq)
        for variant in (seq, seq.nega_reverse()):
            for u in units(k):
                image = PeriodicSequence(
                    tuple(u * s % k for s in variant.symbols), k)
                v = is_nos(image, n)
                assert v.valid and v.period == len(seq), (u, image)
                assert canonicalize(image) == rep, (u, image)

    def test_symmetry_toggles_preserve_period(self):
        for k in (3, 4, 5):
            result = max_nos_search(SearchConfig(n=2, k=k))
            assert result.optimal, k
            self._assert_symmetry_images_are_nos(result.best_sequence, 2, k)

    def test_symmetry_toggle_order_three(self):
        result = max_nos_search(SearchConfig(n=3, k=3))
        assert (result.period, result.optimal) == (10, True)
        self._assert_symmetry_images_are_nos(result.best_sequence, 3, 3)

    def test_order_three_optimum_against_brute_force(self):
        """(3,3): the search's 10 is the maximum.  The bound is 11, and no
        word of length 11 is an NOS.  Symbol 0 occurs in any such word,
        since {1,2} has only 8 distinct 3-windows, so a rotation starts
        with it; 11 is prime, so a valid word has period 11."""
        result = max_nos_search(SearchConfig(n=3, k=3))
        assert (result.period, result.optimal, result.bound) == (10, True, 11)
        for rest in itertools.product(range(3), repeat=10):
            assert not is_nos(PeriodicSequence((0,) + rest, 3), 3).valid, rest

    def test_deterministic(self):
        a = max_nos_search(SearchConfig(n=3, k=3))
        b = max_nos_search(SearchConfig(n=3, k=3))
        assert a.best_sequence == b.best_sequence
        assert a.expansions == b.expansions


class TestPinnedOutcomes:
    """Periods, expansion counts and sequences of the pruned search.

    The cut at walks that can no longer return to their start vertex
    decides which subtrees are explored, so any drift in its count of the
    start vertex's unused in-edges changes these numbers.
    """

    @pytest.mark.parametrize("n,k,period,expansions",
                             [(3, 3, 10, 911), (2, 11, 55, 63), (2, 16, 119, 160),
                              (2, 20, 189, 246), (2, 24, 275, 350)])
    def test_exhaustive_cells(self, n, k, period, expansions):
        result = max_nos_search(SearchConfig(n=n, k=k))
        assert result.optimal
        assert (result.period, result.expansions) == (period, expansions)

    @pytest.mark.parametrize("n,k,budget,sequence", [
        (3, 4, 20_000, "0,0,1,0,1,1,0,2,1,1,1,2,0,1,3,1,1,3,2,2,3,2,3,1"),
        (4, 3, 20_000, "0,0,0,1,0,0,1,1,0,1,0,1,1,1,0,2,1,1,1,1,2,0,1,1,2,1,"
                       "0,1,2,1,1"),
        (8, 5, 100, "0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,2,0,0,0,0,0,0,1,1,0,0,"
                    "0,0,0,0,1,2,0,0,0,0,0,0,2,1,0,0,0,0,0,0,2,2"),
        (5, 3, 5_000, "0,0,0,0,1,0,0,0,1,1,0,0,1,0,1,0,0,1,1,1,0,0,2,0,1,1,"
                      "0,1,0,1,1,0,2,0,0,1,1,2,0,0,2,1,0,1,0,2,1,1,0,1,1,1,"
                      "1,0,1,2,0,1,0,1,2,1,0,1,1,2,1,0,2,2,1,1,1,1,1,2,0,2,"
                      "1,1,2,1,1,1,2,1,2,1,1,2,2,2,0,1,2,1,1"),
    ])
    def test_budgeted_cells(self, n, k, budget, sequence):
        result = max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
        assert not result.optimal
        assert result.period == sequence.count(",") + 1
        assert str(result.best_sequence) == sequence

    def test_toggles_reach_optimum_order_three(self):
        """The node budget is the search's one remaining knob: any budget
        above the exhaustive run's expansion count reaches the same
        certified optimum, and a budget spent on the last expansion keeps
        the sequence but not the certificate."""
        full = max_nos_search(SearchConfig(n=3, k=3))
        assert (full.period, full.optimal) == (10, True)
        for budget in (full.expansions + 1, 2 * full.expansions, 10**9):
            result = max_nos_search(SearchConfig(n=3, k=3, node_budget=budget))
            assert (result.period, result.optimal, result.expansions) == (
                10, True, full.expansions), budget
            assert result.best_sequence == full.best_sequence, budget
        spent = max_nos_search(
            SearchConfig(n=3, k=3, node_budget=full.expansions))
        assert (spent.period, spent.optimal) == (10, False)
        assert spent.best_sequence == full.best_sequence


class TestOutcomeDigest:
    """One SHA-256 over the outcomes and certificates of 26 searches: the
    n = 2 cells for k = 3..13, (3, 3) and 14 budgeted cells.

    Recorded from the search that first took every unused code as a first
    edge; periods, flags and sequences equal those of the search before it,
    which restricted first edges to unit-symmetry orbit minima.
    """

    CELLS = [(2, k, None) for k in range(3, 14)] + [(3, 3, None)] + [
        (3, 4, 3000), (4, 3, 3000), (8, 5, 100), (5, 3, 2000), (3, 5, 2000),
        (3, 6, 1000), (4, 4, 1000), (5, 4, 500), (6, 3, 1000), (4, 5, 500),
        (3, 7, 500), (7, 3, 500), (6, 4, 200), (5, 5, 200)]

    def test_outcomes_pinned(self):
        parts = []
        for n, k, budget in self.CELLS:
            b = budget or 10**9
            r = max_nos_search(SearchConfig(n=n, k=k, node_budget=b))
            parts.append(f"{n} {k} {b} {r.period} {r.expansions} {r.optimal} "
                         f"{r.best_sequence}\n")
            parts.append(certify(r))
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == ("3a25de4fdf4933c361451ea8ce797dd5"
                          "27b8c6ee537e63aebfd00a8dbd1420c4")


class TestBudgetSweepDigest:
    """One SHA-256 over the outcome of (3, 4) and (4, 3) at every 500th node
    budget up to 20 000: 80 incumbents, each the least canonical form
    among the longest walks recorded before the budget ran out.

    Recorded from the search that canonicalized every tie in full and
    compared the two forms.
    """

    def test_outcomes_pinned(self):
        parts = []
        for n, k in ((3, 4), (4, 3)):
            for budget in range(500, 20_001, 500):
                r = max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
                parts.append(f"{n} {k} {budget} {r.period} {r.expansions} "
                             f"{r.optimal} {r.best_sequence}\n")
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == ("0a2192d959ced24b7d2842f3a3f493dd"
                          "e7f7c81aa29f85163499aa978da5f920")


class TestEveryAbortPoint:
    """One SHA-256 over the outcome of (3, 3) at every node budget from 1
    to 911, the expansion count of its exhaustive run: the search is
    stopped once after each expansion, the last one included.

    Recorded from the search that kept per-depth stacks of partners and
    next out-edge offsets beside the walk and unwound them on a stop.
    """

    def test_outcomes_pinned(self):
        parts = []
        for budget in range(1, 912):
            r = max_nos_search(SearchConfig(n=3, k=3, node_budget=budget))
            parts.append(f"{budget} {r.period} {r.expansions} {r.optimal} "
                         f"{r.best_sequence}\n")
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == ("835227db4469b495ece7cab0e2e0d230"
                          "948b5c1a36bf9dc174b0e45f530b1d8b")


def _count_calls(monkeypatch, names):
    """Count calls to search-module attributes, through the module globals
    that tracing hooks."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _inner=getattr(search_mod, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(search_mod, name, counted)
    return calls


class TestRecordChecks:
    CANONICALIZED = {(3, 3): 32, (3, 4): 549, (4, 3): 284}

    @pytest.mark.parametrize("n,k,budget,recorded", [
        (3, 3, 10**9, 36), (3, 4, 20_000, 557), (4, 3, 20_000, 289)])
    def test_each_recorded_walk_is_canonicalized_and_verified(
            self, monkeypatch, n, k, budget, recorded):
        """One is_nos call per recorded walk, on the walk as found, and one
        more on the returned sequence.  canonicalize runs only on ties at
        the incumbent's length (the tying walk, and the incumbent once) and
        on the result.  Walk counts recorded from the search whose record
        step built a nega-reverse per walk, (3, 3) again once every unused
        code became a first edge; canonicalize counts from the search that
        first canonicalized lazily.  (4, 3) was added, both counts recorded
        from the search that canonicalized each tie in full."""
        calls = _count_calls(monkeypatch, ("canonicalize", "is_nos"))
        max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
        assert calls == {"canonicalize": self.CANONICALIZED[n, k],
                         "is_nos": recorded + 1}

    @pytest.mark.parametrize("k", range(3, 14))
    def test_one_canonicalize_per_order_two_search(self, monkeypatch, k):
        """Each n = 2 search records only strictly longer walks until it
        meets the bound, so its one canonical form is the result's."""
        calls = _count_calls(monkeypatch, ("canonicalize",))
        result = max_nos_search(SearchConfig(n=2, k=k))
        assert (result.optimal, result.period) == (True, result.bound)
        assert calls == {"canonicalize": 1}

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 3), (5, 4)])
    def test_partner_halves_built_once_per_search(self, monkeypatch, n, k):
        """The search's partner tables also give its non-edges."""
        calls = []

        def counted(*args, _inner=tuples_mod.partner_halves):
            calls.append(args)
            return _inner(*args)

        for module in (tuples_mod, search_mod):
            monkeypatch.setattr(module, "partner_halves", counted)
        max_nos_search(SearchConfig(n=n, k=k, node_budget=100))
        assert calls == [(n, k)]

    @pytest.mark.parametrize("n,k,budget,seconds,exit_path", [
        (3, 3, 10**9, None, "exhaustive"),
        (2, 9, 10**9, None, "bound-met"),
        (3, 4, 2000, None, "node-budget"),
        (4, 3, 10**9, 0.001, "time-budget"),
    ])
    def test_result_is_canonical_and_verified(self, n, k, budget, seconds,
                                              exit_path):
        result = max_nos_search(SearchConfig(n=n, k=k, node_budget=budget,
                                             time_budget=seconds))
        reached = {
            "exhaustive": result.optimal and result.period < result.bound,
            "bound-met": result.optimal and result.period == result.bound,
            "node-budget": not result.optimal and result.expansions == budget,
            "time-budget": not result.optimal and result.expansions < budget,
        }
        assert reached[exit_path], result
        seq = result.best_sequence
        assert canonicalize(seq) == seq
        v = is_nos(seq, n)
        assert v.valid and v.period == result.period == len(seq)

    def test_failing_walk_raises(self, monkeypatch):
        """A recorded walk that fails is_nos stops the search."""
        real = search_mod.is_nos
        monkeypatch.setattr(search_mod, "is_nos", lambda seq, n:
                            real(seq, n)._replace(valid=False))
        with pytest.raises(InternalConsistencyError, match="non-NOS walk"):
            max_nos_search(SearchConfig(n=2, k=5))

    def test_failing_result_raises(self, monkeypatch):
        """The returned sequence is verified after its last canonicalize:
        a canonical form that is not an NOS of the period stops the search."""
        monkeypatch.setattr(search_mod, "canonicalize",
                            lambda seq: PeriodicSequence((0,) * len(seq), seq.k))
        with pytest.raises(InternalConsistencyError, match="length 10: 0,0,0"):
            max_nos_search(SearchConfig(n=2, k=5))


class TestBudgets:
    def test_node_budget_marks_non_optimal(self):
        result = max_nos_search(SearchConfig(n=3, k=4, node_budget=2000))
        assert not result.optimal
        assert result.expansions <= 2000 + 1
        if result.best_sequence is not None:
            assert is_nos(result.best_sequence, 3).valid

    def test_budgeted_result_still_verified(self):
        result = max_nos_search(SearchConfig(n=4, k=3, node_budget=50_000))
        assert result.best_sequence is not None
        v = is_nos(result.best_sequence, 4)
        assert v.valid and v.period == result.period


class TestCertificates:
    def test_fields_present(self):
        result = max_nos_search(SearchConfig(n=2, k=4))
        text = certify(result)
        fields = dict(line.split("=", 1) for line in text.splitlines()[1:])
        assert fields["n"] == "2" and fields["k"] == "4"
        assert fields["period"] == "5"
        assert fields["optimal"] == "true"
        assert fields["period_upper_bound"] == "5"
        assert fields["verifier"].startswith("valid")
        assert len(fields["graph_edges_sha256"]) == 64

    def test_certificate_sequence_replays(self):
        result = max_nos_search(SearchConfig(n=2, k=5))
        text = certify(result)
        fields = dict(line.split("=", 1) for line in text.splitlines()[1:])
        symbols = tuple(int(x) for x in fields["sequence"].split(","))
        v = is_nos(PeriodicSequence(symbols, 5), 2)
        assert v.valid and v.period == int(fields["period"])

    def test_graph_hash_stable(self):
        assert graph_content_hash(2, 3) == graph_content_hash(2, 3)
        assert graph_content_hash(2, 3) != graph_content_hash(3, 3)

    @pytest.mark.parametrize("n,k,digest", [
        (2, 3, "3199f2c565ed95595bf5cb187dea172fceda432bcac7dc372f51e615a673efe5"),
        (3, 3, "20368f81d1a6ee4d84708b6b12ae0cdd09bf0f21d3f0af5e937117db72a6ec93"),
        (8, 5, "ff9c5c66f16c67c01529fc38d71dd4ae8e10a2292a6fbbe9e7ef1b19b0251c87"),
        (4, 4, "dbe0eae30d42524fed93c9781b2e0d228afcee4d310dfe613ea3bf0f7588c280"),
        (10, 5, "216a8daf70c6ca317869cde07aba4a267b463c80fba11005116389be6977cf56"),
        (12, 4, "63004da44c6d8a372cf0199867929629eebe482c51d0f1b0662d0da1b546d8ca"),
    ])
    def test_graph_hash_pinned(self, n, k, digest):
        assert graph_content_hash(n, k) == digest
