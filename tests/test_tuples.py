import pytest
from hypothesis import given, strategies as st

from negaseq.errors import EnumerationBudgetError
from negaseq.tuples import (
    TupleClass,
    Word,
    class_predicate,
    count_class,
    decode,
    encode,
    enumerate_class,
    nega_reverse_code,
    negasymmetric_codes,
    partner_halves,
)


def w(symbols, k):
    return Word(tuple(symbols), k)


class TestSymmetryMaps:
    def test_reverse(self):
        assert w([0, 1, 2], 3).reverse().symbols == (2, 1, 0)
        assert w([5, 5, 5], 7).reverse().symbols == (5, 5, 5)
        assert w([1, 0, 2, 2], 3).reverse().symbols == (2, 2, 0, 1)

    def test_negate(self):
        assert w([0, 1, 2], 3).negate().symbols == (0, 2, 1)
        assert w([0, 0, 0], 5).negate().symbols == (0, 0, 0)
        assert w([2, 2], 4).negate().symbols == (2, 2)

    def test_nega_reverse(self):
        assert w([0, 1], 3).nega_reverse().symbols == (2, 0)
        assert w([1, 0, 2], 3).nega_reverse().symbols == (1, 0, 2)
        assert w([1, 1], 4).nega_reverse().symbols == (3, 3)


words = st.integers(min_value=3, max_value=9).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=12),
        st.just(k)))


class TestInvolutions:
    @given(words)
    def test_reverse_involution(self, wk):
        symbols, k = wk
        t = w(symbols, k)
        assert t.reverse().reverse() == t

    @given(words)
    def test_negate_involution(self, wk):
        symbols, k = wk
        t = w(symbols, k)
        assert t.negate().negate() == t

    @given(words)
    def test_nega_reverse_involution(self, wk):
        symbols, k = wk
        t = w(symbols, k)
        assert t.nega_reverse().nega_reverse() == t
        assert t.nega_reverse() == t.reverse().negate()

    @given(words)
    def test_negasymmetric_iff_nega_reverse_fixed_point(self, wk):
        symbols, k = wk
        t = w(symbols, k)
        assert t.is_negasymmetric() == (t.nega_reverse() == t)

    @given(words)
    def test_code_roundtrip(self, wk):
        symbols, k = wk
        code = encode(tuple(symbols), k)
        assert decode(code, len(symbols), k) == tuple(symbols)
        assert nega_reverse_code(code, len(symbols), k) == \
            encode(w(symbols, k).nega_reverse().symbols, k)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4), (4, 5), (3, 10), (2, 12)])
    def test_partner_codes_match_scalar_map(self, n, k):
        K, low, high = partner_halves(n, k)
        assert (len(low), len(high)) == (k ** (n // 2), k ** (n - n // 2))
        assert [low[code % K] + high[code // K] for code in range(k**n)] == \
            [nega_reverse_code(code, n, k) for code in range(k**n)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4, 5, 6)
                                     for k in (3, 4, 5, 6)])
    def test_negasymmetric_codes_match_scan(self, n, k):
        codes = negasymmetric_codes(n, k)
        assert codes == [e for e in range(k**n) if nega_reverse_code(e, n, k) == e]
        assert len(codes) == count_class(TupleClass.NEGASYMMETRIC, n, k)


class TestPredicates:
    def test_negasymmetric(self):
        assert w([1, 0, 2], 3).is_negasymmetric()
        assert not w([0, 1], 3).is_negasymmetric()
        assert w([2, 2], 4).is_negasymmetric()

    def test_uniform(self):
        assert w([3, 3, 3], 5).is_uniform()
        assert not w([0, 1, 0], 3).is_uniform()
        assert w([0], 3).is_uniform()

    def test_alternating(self):
        assert w([0, 2, 0, 2], 3).is_alternating()
        assert not w([1, 1, 1], 3).is_alternating()
        assert w([0, 2, 0], 4).is_alternating()

    def test_uniform_alternating(self):
        assert w([1, 2, 1], 3).is_uniform_alternating()
        assert w([0, 0, 0], 3).is_uniform_alternating()
        assert not w([1, 2, 1], 4).is_uniform_alternating()

    def test_sns(self):
        assert w([1, 0, 2, 1], 3).is_left_sns()
        assert not w([1, 0, 2, 1], 3).is_right_sns()
        assert w([0, 0], 3).is_left_sns()
        assert w([0, 0], 3).is_right_sns()

    def test_alternating_rejects_length_1(self):
        with pytest.raises(ValueError):
            w([1], 3).is_alternating()
        with pytest.raises(ValueError):
            w([1], 3).is_uniform_alternating()

    def test_alternating_implies_non_uniform(self):
        for k in (3, 4, 5):
            for t in enumerate_class(TupleClass.ALTERNATING, 4, k):
                assert not t.is_uniform()

    def test_sns_and_negasymmetric_implies_uniform(self):
        # Exhaustive check of the combination that forces uniformity.
        for k in (3, 4, 5):
            for n in range(2, 7):
                for t in enumerate_class(TupleClass.NEGASYMMETRIC, n, k):
                    if t.is_left_sns() or t.is_right_sns():
                        assert t.is_uniform(), t


class TestCounts:
    def test_spec_values(self):
        assert count_class(TupleClass.NEGASYMMETRIC, 3, 3) == 3
        assert count_class(TupleClass.NEGASYMMETRIC, 4, 4) == 16
        assert count_class(TupleClass.UNIFORM_ALTERNATING, 5, 6) == 6
        assert count_class(TupleClass.ALTERNATING_NEGASYMMETRIC, 4, 3) == 2
        # k^((n+1)/2) - k at n=5, k=3
        assert count_class(
            TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS, 5, 3) == 24

    def test_left_right_mirror(self):
        pairs = [
            (TupleClass.LEFT_SNS, TupleClass.RIGHT_SNS),
            (TupleClass.NON_UNIFORM_LEFT_SNS, TupleClass.NON_UNIFORM_RIGHT_SNS),
            (TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS,
             TupleClass.NON_UNIFORM_ALTERNATING_RIGHT_SNS),
            (TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS,
             TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS),
        ]
        for left, right in pairs:
            for k in (3, 4):
                for n in (3, 4, 5):
                    assert count_class(left, n, k) == count_class(right, n, k)
                    lefts = list(enumerate_class(left, n, k))
                    rights = {t.symbols for t in enumerate_class(right, n, k)}
                    assert {t.reverse().symbols for t in lefts} == rights

    def test_minimum_n_rejected(self):
        with pytest.raises(ValueError):
            count_class(TupleClass.UNIFORM, 1, 3)
        with pytest.raises(ValueError):
            count_class(TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS, 2, 3)
        with pytest.raises(ValueError):
            count_class(TupleClass.NEGASYMMETRIC, 3, 2)

    def test_enumeration_order_and_budget(self):
        got = [t.symbols for t in enumerate_class(TupleClass.NEGASYMMETRIC, 2, 3)]
        assert got == [(0, 0), (1, 2), (2, 1)]
        assert got == sorted(got)
        with pytest.raises(EnumerationBudgetError):
            list(enumerate_class(TupleClass.UNIFORM, 30, 9, budget=100))

    def test_uniform_enumeration(self):
        got = [t.symbols for t in enumerate_class(TupleClass.UNIFORM, 3, 3)]
        assert got == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]

    def test_negasymmetric_count_n3_k4(self):
        assert count_class(TupleClass.NEGASYMMETRIC, 3, 4) == 8
        assert sum(1 for _ in enumerate_class(TupleClass.NEGASYMMETRIC, 3, 4)) == 8


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((), 3)
    with pytest.raises(ValueError):
        Word((3,), 3)


def test_class_predicate_covers_all_classes():
    t = w([0, 1, 2, 0], 3)
    for cls in TupleClass:
        assert class_predicate(cls, t) in (True, False)
