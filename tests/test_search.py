import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from negaseq import search as search_mod
from negaseq.errors import BudgetError, InternalConsistencyError
from negaseq.search import (
    SearchConfig,
    canonicalize,
    certify,
    graph_content_hash,
    max_nos_search,
    units,
)
from negaseq.tuples import nega_reverse_symbols
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

    def test_replace_is_checked(self):
        with pytest.raises(ValueError) as err:
            SearchConfig(3, 4)._replace(k=2)
        assert str(err.value) == "need n >= 2 and k >= 3, got n=3, k=2"

    def test_nan_time_budget_is_refused(self):
        # NaN compares false with everything, so `<= 0` would let it through.
        with pytest.raises(ValueError, match="time budget must be positive"):
            SearchConfig(n=2, k=3, time_budget=float("nan"))

    def test_graph_size_refusal(self):
        with pytest.raises(BudgetError):
            max_nos_search(SearchConfig(n=10, k=9))

    @pytest.mark.parametrize("n", [5000, 10**8])
    def test_graph_size_refusal_names_a_huge_power(self, n):
        # k^n past the interpreter's digit limit is not worked out.
        with pytest.raises(BudgetError) as err:
            max_nos_search(SearchConfig(n=n, k=9))
        assert str(err.value) == (f"k^n = 9^{n} exceeds the search bitmap "
                                  "budget of 16777216")


# A wide alphabet with few units for its size, so the rotation scan covers
# large k: 2^2 * 3 * 5 * 7 * 11 * 13 * 19 has 207360.
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
def sequences(draw):
    k = draw(st.integers(3, 13))
    return PeriodicSequence(draw(words(k, draw(st.integers(1, 40)))), k)


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
            PeriodicSequence(nega_reverse_symbols(s.symbols, 3), 3),
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

    @settings(max_examples=500, deadline=None)
    @given(sequences())
    @example(PeriodicSequence((HUGE_K - 1, 5) * 2, HUGE_K))
    def test_equals_minimum_over_all_rotations(self, seq):
        # Every rotation of every unit image of S and -S^R, 2*|U|*m words.
        k = seq.k
        best = None
        for variant in (seq.symbols, nega_reverse_symbols(seq.symbols, k)):
            for u in units(k):
                mapped = tuple((u * s) % k for s in variant)
                m = len(mapped)
                doubled = mapped + mapped
                for r in range(m):
                    rotated = doubled[r:r + m]
                    if best is None or rotated < best:
                        best = rotated
        assert canonicalize(seq) == PeriodicSequence(best, k)


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
        for variant in (seq.symbols, nega_reverse_symbols(seq.symbols, k)):
            for u in units(k):
                image = PeriodicSequence(tuple(u * s % k for s in variant), k)
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


@pytest.mark.usefixtures("dfs_only")
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


@pytest.mark.usefixtures("dfs_only")
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


@pytest.mark.usefixtures("dfs_only")
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


@pytest.mark.usefixtures("dfs_only")
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


class TestFlowBoundStop:
    """The search that stops at the flow bound against the DFS it cuts
    short, on every cell and budget pinned above: the same period and
    sequence in no more expansions, and `optimal` differs only where the
    period meets the flow bound."""

    RUNS = ([(n, k, budget or 10**9) for n, k, budget in TestOutcomeDigest.CELLS]
            + [(n, k, budget) for n, k in ((3, 4), (4, 3))
               for budget in range(500, 20_001, 500)]
            + [(3, 3, budget) for budget in range(1, 912)]
            + [(2, k, 10**9) for k in (16, 20, 24)]
            + [(3, 4, 20_000), (4, 3, 20_000), (5, 3, 5_000)])

    def test_same_outcome_in_fewer_expansions(self, request):
        real = [max_nos_search(SearchConfig(n=n, k=k, node_budget=b))
                for n, k, b in self.RUNS]
        request.getfixturevalue("dfs_only")
        certified = 0
        for (n, k, b), r in zip(self.RUNS, real):
            dfs = max_nos_search(SearchConfig(n=n, k=k, node_budget=b))
            assert dfs.flow_bound is None
            assert (r.period, r.best_sequence) == (
                dfs.period, dfs.best_sequence), (n, k, b)
            assert r.expansions <= dfs.expansions, (n, k, b)
            if r.optimal != dfs.optimal:
                assert r.optimal and r.period == r.flow_bound, (n, k, b)
                certified += 1
        # (3, 3) at the 885 budgets from 27 on, (3, 4) at all 40 sweep
        # budgets, (4, 3) at the 39 from 1000 on, and both at 3000 and at
        # 20 000 in the other lists
        assert certified == 885 + 40 + 39 + 4

    def test_exhaustive_dfs_confirms_the_flow_bound(self, request):
        """Two routes to the maximum of (3, 3): the flow bound certifies
        period 10 after 27 expansions, and the DFS without it exhausts the
        graph in 911, every take and release through the partner step, and
        finds the same sequence."""
        flow = max_nos_search(SearchConfig(3, 3))
        request.getfixturevalue("dfs_only")
        dfs = max_nos_search(SearchConfig(3, 3))
        assert (flow.period, flow.optimal, flow.expansions, flow.flow_bound) == (
            10, True, 27, 10)
        assert (dfs.period, dfs.optimal, dfs.expansions, dfs.flow_bound) == (
            10, True, 911, None)
        assert dfs.best_sequence == flow.best_sequence


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
    @pytest.mark.usefixtures("dfs_only")
    @pytest.mark.parametrize("n,k,budget,recorded", [
        (3, 3, 10**9, 36), (3, 4, 20_000, 557), (4, 3, 20_000, 289)])
    def test_each_recorded_walk_is_canonicalized_and_verified(
            self, monkeypatch, n, k, budget, recorded):
        """One is_nos call per recorded walk, on the walk as found, and one
        more on the returned sequence; no canonicalize call, since the first
        walk of the result's length is already canonical.  Walk counts
        recorded from the search whose record step built a nega-reverse per
        walk, (3, 3) again once every unused code became a first edge, and
        (4, 3) from the search that canonicalized each tie in full."""
        calls = _count_calls(monkeypatch, ("canonicalize", "is_nos"))
        max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
        assert calls == {"canonicalize": 0, "is_nos": recorded + 1}

    @pytest.mark.parametrize("k", range(3, 14))
    def test_one_canonicalize_per_order_two_search(self, monkeypatch, k):
        """Each n = 2 search meets the bound and canonicalizes nothing,
        not even its result."""
        calls = _count_calls(monkeypatch, ("canonicalize",))
        result = max_nos_search(SearchConfig(n=2, k=k))
        assert (result.optimal, result.period) == (True, result.bound)
        assert calls == {"canonicalize": 0}

    @pytest.mark.parametrize("n,k,budget,seconds,exit_path", [
        (3, 3, 10**9, None, "exhaustive"),
        (3, 3, 10**9, None, "flow-bound-met"),
        (2, 9, 10**9, None, "bound-met"),
        (3, 5, 2000, None, "node-budget"),
        (5, 3, 10**9, 0.001, "time-budget"),
    ])
    def test_result_is_canonical_and_verified(self, request, n, k, budget,
                                              seconds, exit_path):
        if exit_path == "exhaustive":  # no cheap cell ends so with the flow bound
            request.getfixturevalue("dfs_only")
        result = max_nos_search(SearchConfig(n=n, k=k, node_budget=budget,
                                             time_budget=seconds))
        reached = {
            "exhaustive": result.optimal and result.period < result.bound
            and result.flow_bound is None,
            "flow-bound-met": result.optimal
            and result.period == result.flow_bound < result.bound,
            "bound-met": result.optimal and result.period == result.bound,
            "node-budget": not result.optimal and result.expansions == budget,
            "time-budget": not result.optimal and result.expansions < budget,
        }
        assert reached[exit_path], result
        seq = result.best_sequence
        assert canonicalize(seq) == seq
        v = is_nos(seq, n)
        assert v.valid and v.period == result.period == len(seq)

    @pytest.mark.parametrize("n,k", [(2, 20), (3, 5), (5, 3), (6, 3), (3, 7)])
    def test_result_is_canonical_at_every_budget(self, n, k):
        """The first walk of the result's length, which the search returns
        unchanged, is its own canonical form however early a budget stops."""
        for budget in (10**2, 10**3, 10**4, 10**5):
            r = max_nos_search(SearchConfig(n=n, k=k, node_budget=budget))
            assert canonicalize(r.best_sequence) == r.best_sequence, budget

    def test_failing_walk_raises(self, monkeypatch):
        """A recorded walk that fails is_nos stops the search."""
        real = search_mod.is_nos
        monkeypatch.setattr(search_mod, "is_nos", lambda seq, n:
                            real(seq, n)._replace(valid=False))
        with pytest.raises(InternalConsistencyError, match="non-NOS walk"):
            max_nos_search(SearchConfig(n=2, k=5))

    def test_failing_result_raises(self, monkeypatch):
        """The returned sequence is verified once more: a result that fails
        that last is_nos call stops the search.  (2, 5) records 5 walks, so
        the sixth call is the last."""
        real, calls = search_mod.is_nos, []

        def last_fails(seq, n):
            calls.append(seq)
            verdict = real(seq, n)
            return verdict._replace(valid=False) if len(calls) == 6 else verdict

        monkeypatch.setattr(search_mod, "is_nos", last_fails)
        with pytest.raises(InternalConsistencyError,
                           match="length 10: 0,1,0,2,1,1,2,2,4,2$"):
            max_nos_search(SearchConfig(n=2, k=5))
        assert len(calls) == 6

    def test_walk_above_the_bound_raises(self, monkeypatch):
        """A closed walk longer than the proven bound stops the search."""
        real = search_mod.nos_bound
        monkeypatch.setattr(search_mod, "nos_bound",
                            lambda n, k: real(n, k)._replace(value=1))
        with pytest.raises(InternalConsistencyError) as err:
            max_nos_search(SearchConfig(n=3, k=3))
        assert str(err.value) == ("walk of length 3 exceeds the proven bound 1 "
                                  "at n=3, k=3")


class TestBudgets:
    def test_node_budget_marks_non_optimal(self):
        result = max_nos_search(SearchConfig(n=3, k=5, node_budget=2000))
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
