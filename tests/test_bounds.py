import pytest

from negaseq import bounds
from negaseq.bounds import (
    bound_table,
    format_table,
    load_reference_table,
    nos_bound,
)
from negaseq.errors import InternalConsistencyError
from negaseq.graph import ReducedGraph, edge_count_formula, excluded_edge_budget
from negaseq.search import SearchConfig


class TestNosBound:
    def test_examples(self):
        assert nos_bound(2, 3).value == 3
        assert nos_bound(2, 4).value == 5
        assert nos_bound(3, 3).value == 11
        assert nos_bound(5, 3).value == 105
        assert nos_bound(4, 4).value == 113

    def test_regimes(self):
        assert nos_bound(2, 3).regime == "n2-odd"
        assert nos_bound(3, 4).regime == "n3-even"
        assert nos_bound(4, 5).regime == "n4-odd"
        assert nos_bound(5, 5).regime == "odd-odd"
        assert nos_bound(5, 4).regime == "odd-even"
        assert nos_bound(6, 5).regime == "even-odd"
        assert nos_bound(6, 4).regime == "even-even"

    def test_rejects_bad_parameters(self):
        # every (n, k) entry point refuses with the one domain message
        for n, k in [(1, 3), (2, 2)]:
            for entry in (nos_bound, edge_count_formula, excluded_edge_budget,
                          ReducedGraph, SearchConfig):
                with pytest.raises(ValueError, match=(
                        f"^need n >= 2 and k >= 3, got n={n}, k={k}$")):
                    entry(n, k)

    def test_breakdown_reproduces_value(self):
        # The closed-form numerator and the excluded-edge bookkeeping are
        # independent derivations of the same quantity.
        for n in range(2, 12):
            for k in range(3, 12):
                b = nos_bound(n, k)
                assert b.breakdown.resulting_period_bound == b.value, (n, k)

    @pytest.mark.parametrize("shift, message", [
        (2, "case formula gives 12 but the excluded-edge budget gives 11 "
            "at n=3, k=3"),
        (1, "odd bound numerator 23 at n=3, k=3"),
    ], ids=["routes-disagree", "odd-numerator"])
    def test_inconsistent_numerator_raises(self, monkeypatch, shift, message):
        formula = bounds._CASE_FORMULAS["n3-odd"]
        monkeypatch.setitem(bounds._CASE_FORMULAS, "n3-odd",
                            lambda n, k: formula(n, k) + shift)
        with pytest.raises(InternalConsistencyError) as err:
            nos_bound(3, 3)
        assert str(err.value) == message

    def test_regime_labels_key_the_case_formulas(self):
        # Every label `_regime` returns has a formula, and every formula a label.
        labels = {bounds._regime(n, k) for n in range(2, 8) for k in range(3, 7)}
        assert labels == set(bounds._CASE_FORMULAS)

    def test_monotone_in_k(self):
        for n in range(2, 10):
            values = [nos_bound(n, k).value for k in range(3, 12)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)


class TestReferenceTable:
    def test_loads_full_grid(self):
        table = load_reference_table()
        assert set(table) == {(n, k) for n in range(2, 10) for k in range(3, 10)}

    def test_all_cells_match(self):
        for (n, k), entry in load_reference_table().items():
            assert nos_bound(n, k).value == entry.new_bound, (n, k)

    def test_new_bound_dominates_old(self):
        for (n, k), entry in load_reference_table().items():
            assert entry.new_bound <= entry.old_bound, (n, k)

    def test_best_known_within_bound(self):
        for (n, k), entry in load_reference_table().items():
            if entry.best_known is not None:
                assert entry.best_known <= entry.new_bound, (n, k)

    def test_maximal_rows_meet_bound(self):
        for (n, k), entry in load_reference_table().items():
            if entry.maximal:
                assert entry.best_known == entry.new_bound, (n, k)


class TestTableRendering:
    def test_bound_table_cells(self):
        cells = bound_table(range(2, 4), range(3, 5))
        assert len(cells) == 4
        assert all(c.matches_reference for c in cells)

    def test_bound_table_rejects_bad_ranges(self):
        for n_range, k_range in [(range(1, 3), range(3, 5)), (range(1, 3), range(3, 4)),
                                 (range(2, 4), range(0, 1))]:
            with pytest.raises(ValueError, match="ranges must satisfy n >= 2 and k >= 3"):
                bound_table(n_range, k_range)

    def test_format_table(self):
        cells = bound_table(range(2, 4), range(3, 5))
        text = format_table(cells)
        lines = text.splitlines()
        assert lines[0].startswith("n")
        assert "k=3" in lines[0] and "k=4" in lines[0]
        assert len(lines) == 3

    def test_format_flags_mismatches(self):
        cells = bound_table(range(2, 3), range(3, 4))
        fake = [c.__class__(n=c.n, k=c.k, bound=c.bound + 1, regime=c.regime,
                            reference=c.reference, matches_reference=False)
                for c in cells]
        assert "!" in format_table(fake, flag_mismatches=True)
