import itertools

import pytest
from hypothesis import given, strategies as st

from negaseq import tuples as tuples_mod
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
    parse_symbols,
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
        codes = negasymmetric_codes(*partner_halves(n, k))
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

    # The smallest n of each class, recorded with the messages from the
    # per-class minimum table that preceded the class table.
    MIN_N = dict.fromkeys(TupleClass, 2) | {
        TupleClass.NEGASYMMETRIC: 1,
        TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS: 3,
        TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS: 3,
    }

    def test_minimum_n_rejected(self):
        for cls, min_n in self.MIN_N.items():
            message = f"{cls.value} requires n >= {min_n}, got n={min_n - 1}"
            for call in (count_class, lambda *a: next(enumerate_class(*a))):
                with pytest.raises(ValueError) as err:
                    call(cls, min_n - 1, 3)
                assert str(err.value) == message
            assert count_class(cls, min_n, 3) == \
                sum(1 for _ in enumerate_class(cls, min_n, 3))
        with pytest.raises(ValueError):
            count_class(TupleClass.NEGASYMMETRIC, 3, 2)

    def test_enumeration_order_and_budget(self, monkeypatch):
        got = [t.symbols for t in enumerate_class(TupleClass.NEGASYMMETRIC, 2, 3)]
        assert got == [(0, 0), (1, 2), (2, 1)]
        assert got == sorted(got)
        with pytest.raises(EnumerationBudgetError):
            list(enumerate_class(TupleClass.UNIFORM, 30, 9))
        monkeypatch.setattr(tuples_mod, "ENUMERATION_BUDGET", 26)
        with pytest.raises(EnumerationBudgetError, match="^k\\^n = 27 exceeds "
                           "the enumeration budget of 26$"):
            list(enumerate_class(TupleClass.UNIFORM, 3, 3))
        monkeypatch.setattr(tuples_mod, "ENUMERATION_BUDGET", 27)
        assert len(list(enumerate_class(TupleClass.UNIFORM, 3, 3))) == 3

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


@pytest.mark.parametrize("text, symbols", [
    ("0,1,2", (0, 1, 2)), (" 0, 12 ,3\t", (0, 12, 3)), ("007", (7,)),
    ("-1,0", (-1, 0)),  # parsed; the word's range check refuses it
])
def test_parse_symbols(text, symbols):
    assert parse_symbols(text) == symbols


@pytest.mark.parametrize("text, bad", [
    ("1_0,2", "1_0"), ("0,\uff12", "\uff12"), ("0,\u0662", "\u0662"),
    ("+1,2", "+1"), ("0x1", "0x1"), ("1,,2", ""), ("", ""), ("0,1,2,", ""),
    ("-", "-"), ("--1", "--1"), ("1 2", "1 2"), ("1.0", "1.0"),
])
def test_parse_symbols_refuses_all_but_ascii_digits(text, bad):
    with pytest.raises(ValueError) as info:
        parse_symbols(text)
    assert str(info.value) == f"symbol {bad!r} is not a decimal number"


def oracle_predicate(cls, t):
    """The per-class branch chain that preceded the class table."""
    if cls is TupleClass.NEGASYMMETRIC:
        return t.is_negasymmetric()
    if cls is TupleClass.UNIFORM:
        return t.is_uniform()
    if cls is TupleClass.ALTERNATING:
        return t.is_alternating()
    if cls is TupleClass.UNIFORM_ALTERNATING:
        return t.is_uniform_alternating()
    if cls is TupleClass.UNIFORM_AND_UNIFORM_ALTERNATING:
        return t.is_uniform() and t.is_uniform_alternating()
    if cls is TupleClass.UNIFORM_NEGASYMMETRIC:
        return t.is_uniform() and t.is_negasymmetric()
    if cls is TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC:
        return t.is_uniform_alternating() and t.is_negasymmetric()
    if cls is TupleClass.ALTERNATING_NEGASYMMETRIC:
        return t.is_alternating() and t.is_negasymmetric()
    if cls is TupleClass.LEFT_SNS:
        return t.is_left_sns()
    if cls is TupleClass.RIGHT_SNS:
        return t.is_right_sns()
    if cls is TupleClass.NON_UNIFORM_LEFT_SNS:
        return t.is_left_sns() and not t.is_uniform()
    if cls is TupleClass.NON_UNIFORM_RIGHT_SNS:
        return t.is_right_sns() and not t.is_uniform()
    if cls is TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS:
        return t.is_left_sns() and not t.is_uniform_alternating()
    if cls is TupleClass.NON_UNIFORM_ALTERNATING_RIGHT_SNS:
        return t.is_right_sns() and not t.is_uniform_alternating()
    if cls is TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS:
        return t.is_left_sns() and not t.is_uniform() and not t.is_alternating()
    if cls is TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS:
        return t.is_right_sns() and not t.is_uniform() and not t.is_alternating()
    raise ValueError(f"unknown class {cls}")


def outcome(predicate, cls, t):
    """The predicate's value, or the type of the exception it raises."""
    try:
        return predicate(cls, t)
    except Exception as exc:
        return type(exc)


def test_class_predicate_covers_all_classes():
    # Every class on every word with n = 1..5, k = 3..6; at n = 1 the
    # alternating predicates raise, and the outcome is the exception type.
    for n in range(1, 6):
        for k in range(3, 7):
            for symbols in itertools.product(range(k), repeat=n):
                t = Word(symbols, k)
                for cls in TupleClass:
                    assert outcome(class_predicate, cls, t) == \
                        outcome(oracle_predicate, cls, t), (cls, t)


@pytest.mark.parametrize("cls", ["uniform", None, 3])
def test_class_predicate_rejects_non_class(cls):
    with pytest.raises(ValueError, match=f"^unknown class {cls}$"):
        class_predicate(cls, w([0, 1], 3))
    with pytest.raises(ValueError, match=f"^unknown class {cls}$"):
        count_class(cls, 3, 3)
    with pytest.raises(ValueError, match=f"^unknown class {cls}$"):
        list(enumerate_class(cls, 3, 3))
