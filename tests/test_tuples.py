import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import nega_reverse_code
from negaseq import tuples as tuples_mod
from negaseq.errors import BudgetError
from negaseq.tuples import (
    TupleClass,
    Word,
    alternating,
    count_class,
    decode,
    encode,
    enumerate_class,
    left_sns,
    nega_reverse_symbols,
    negasymmetric,
    negasymmetric_codes,
    count_grows,
    parse_symbols,
    printable_power,
    right_sns,
    structural_flags,
    uniform,
    uniform_alternating,
)


class TestSymmetryMaps:
    def test_nega_reverse(self):
        assert nega_reverse_symbols((0, 1), 3) == (2, 0)
        assert nega_reverse_symbols((1, 0, 2), 3) == (1, 0, 2)
        assert nega_reverse_symbols((1, 1), 4) == (3, 3)


words = st.integers(min_value=3, max_value=9).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=12),
        st.just(k)))


class TestInvolutions:
    @given(words)
    def test_nega_reverse_involution(self, wk):
        symbols, k = wk
        t = tuple(symbols)
        assert nega_reverse_symbols(nega_reverse_symbols(t, k), k) == t
        assert nega_reverse_symbols(t, k) == tuple(-s % k for s in reversed(symbols))

    @given(words)
    def test_negasymmetric_iff_nega_reverse_fixed_point(self, wk):
        symbols, k = wk
        assert negasymmetric(tuple(symbols), k) == \
            (tuple(symbols) == tuple(-s % k for s in reversed(symbols)))

    @given(words)
    def test_code_roundtrip(self, wk):
        symbols, k = wk
        code = encode(tuple(symbols), k)
        assert decode(code, len(symbols), k) == tuple(symbols)
        assert nega_reverse_code(code, len(symbols), k) == \
            encode(nega_reverse_symbols(tuple(symbols), k), k)

    CELLS = [(n, k) for n in range(1, 9) for k in range(3, 8) if k**n <= 10**5] \
        + [(3, 10), (2, 12)]

    @pytest.mark.parametrize("n,k", CELLS)
    def test_partner_step_matches_oracle(self, n, k):
        """The search's partner step: after any of its k parents
        f = y.(e div k), an edge e has the partner
        (-e mod k)*k^(n-1) + partner[f] div k, and after its start vertex
        s = e div k, whose seed is -s^R * k, the same with -s^R for
        partner[f] div k."""
        partner = [nega_reverse_code(e, n, k) for e in range(k**n)]
        shift = k ** (n - 1)
        for e in range(k**n):
            lead = -e % k * shift
            assert [lead + partner[y * shift + e // k] // k for y in range(k)] == \
                [partner[e]] * k, e
            sigma = encode(nega_reverse_symbols(decode(e // k, n - 1, k), k), k)
            assert lead + sigma == partner[e], e

    @pytest.mark.parametrize("n,k", CELLS)
    def test_negasymmetric_codes_match_scan(self, n, k):
        """The non-edges built from their definition are those of the
        per-code scan, as many as the closed form counts."""
        codes = negasymmetric_codes(n, k)
        assert codes == [e for e in range(k**n) if nega_reverse_code(e, n, k) == e]
        assert len(codes) == count_class(TupleClass.NEGASYMMETRIC, n, k)


class TestPredicates:
    def test_negasymmetric(self):
        assert negasymmetric((1, 0, 2), 3)
        assert not negasymmetric((0, 1), 3)
        assert negasymmetric((2, 2), 4)

    def test_uniform(self):
        assert uniform((3, 3, 3), 5)
        assert not uniform((0, 1, 0), 3)
        assert uniform((0,), 3)

    def test_alternating(self):
        assert alternating((0, 2, 0, 2), 3)
        assert not alternating((1, 1, 1), 3)
        assert alternating((0, 2, 0), 4)

    def test_uniform_alternating(self):
        assert uniform_alternating((1, 2, 1), 3)
        assert uniform_alternating((0, 0, 0), 3)
        assert not uniform_alternating((1, 2, 1), 4)

    def test_sns(self):
        assert left_sns((1, 0, 2, 1), 3)
        assert not right_sns((1, 0, 2, 1), 3)
        assert left_sns((0, 0), 3)
        assert right_sns((0, 0), 3)

    def test_alternating_is_false_at_length_1(self):
        assert alternating((1,), 3) is False
        assert uniform_alternating((1,), 3) is False

    def test_alternating_implies_non_uniform(self):
        for k in (3, 4, 5):
            for t in enumerate_class(TupleClass.ALTERNATING, 4, k):
                assert not uniform(t.symbols, t.k)

    def test_sns_and_negasymmetric_implies_uniform(self):
        # Exhaustive check of the combination that forces uniformity.
        for k in (3, 4, 5):
            for n in range(2, 7):
                for t in enumerate_class(TupleClass.NEGASYMMETRIC, n, k):
                    s = t.symbols
                    if left_sns(s, k) or right_sns(s, k):
                        assert uniform(s, k), t


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
                    assert {t.symbols[::-1] for t in lefts} == rights

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

    def test_enumeration_budget_names_a_huge_power(self):
        # k^n is tested without being worked out: n = 10^8 is refused at once.
        for n, shown in ((5000, "9^5000"), (10**8, "9^100000000")):
            with pytest.raises(BudgetError) as err:
                next(enumerate_class(TupleClass.LEFT_SNS, n, 9))
            assert str(err.value) == (f"k^n = {shown} exceeds the enumeration "
                                      "budget of 10000000")

    def test_enumeration_order_and_budget(self, monkeypatch):
        got = [t.symbols for t in enumerate_class(TupleClass.NEGASYMMETRIC, 2, 3)]
        assert got == [(0, 0), (1, 2), (2, 1)]
        assert got == sorted(got)
        with pytest.raises(BudgetError):
            list(enumerate_class(TupleClass.UNIFORM, 30, 9))
        monkeypatch.setattr(tuples_mod, "ENUMERATION_BUDGET", 26)
        with pytest.raises(BudgetError, match="^k\\^n = 27 exceeds "
                           "the enumeration budget of 26$"):
            list(enumerate_class(TupleClass.UNIFORM, 3, 3))
        monkeypatch.setattr(tuples_mod, "ENUMERATION_BUDGET", 27)
        assert len(list(enumerate_class(TupleClass.UNIFORM, 3, 3))) == 3

    def test_errors_raise_at_the_call(self):
        # Each error comes from the call itself; no item is requested.
        with pytest.raises(BudgetError, match=f"^k\\^n = {9**30} exceeds the enumeration "
                           "budget of 10000000$"):
            enumerate_class(TupleClass.UNIFORM, 30, 9)
        with pytest.raises(ValueError, match="^uniform requires n >= 2, got n=1$"):
            enumerate_class(TupleClass.UNIFORM, 1, 3)
        with pytest.raises(ValueError, match="^unknown class uniform$"):
            enumerate_class("uniform", 3, 3)

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
    s, k = t.symbols, t.k
    if cls is TupleClass.NEGASYMMETRIC:
        return negasymmetric(s, k)
    if cls is TupleClass.UNIFORM:
        return uniform(s, k)
    if cls is TupleClass.ALTERNATING:
        return alternating(s, k)
    if cls is TupleClass.UNIFORM_ALTERNATING:
        return uniform_alternating(s, k)
    if cls is TupleClass.UNIFORM_AND_UNIFORM_ALTERNATING:
        return uniform(s, k) and uniform_alternating(s, k)
    if cls is TupleClass.UNIFORM_NEGASYMMETRIC:
        return uniform(s, k) and negasymmetric(s, k)
    if cls is TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC:
        return uniform_alternating(s, k) and negasymmetric(s, k)
    if cls is TupleClass.ALTERNATING_NEGASYMMETRIC:
        return alternating(s, k) and negasymmetric(s, k)
    if cls is TupleClass.LEFT_SNS:
        return left_sns(s, k)
    if cls is TupleClass.RIGHT_SNS:
        return right_sns(s, k)
    if cls is TupleClass.NON_UNIFORM_LEFT_SNS:
        return left_sns(s, k) and not uniform(s, k)
    if cls is TupleClass.NON_UNIFORM_RIGHT_SNS:
        return right_sns(s, k) and not uniform(s, k)
    if cls is TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS:
        return left_sns(s, k) and not uniform_alternating(s, k)
    if cls is TupleClass.NON_UNIFORM_ALTERNATING_RIGHT_SNS:
        return right_sns(s, k) and not uniform_alternating(s, k)
    if cls is TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS:
        return left_sns(s, k) and not uniform(s, k) and not alternating(s, k)
    if cls is TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS:
        return right_sns(s, k) and not uniform(s, k) and not alternating(s, k)
    raise ValueError(f"unknown class {cls}")


def definitions(s, k):
    """The six flags from their definitions, written apart from the package."""
    def nega(u):
        return u == tuple(-x % k for x in reversed(u))

    return {"negasymmetric": nega(s), "uniform": len(set(s)) == 1,
            "alternating": len(s) > 1 and s[0] != s[1]
            and len(set(s[::2])) == len(set(s[1::2])) == 1,
            "uniform_alternating": len(s) > 1
            and all((a + b) % k == 0 for a, b in zip(s, s[1:])),
            "left_sns": nega(s[:-1]), "right_sns": nega(s[1:])}


def test_predicates_match_their_definitions():
    # Every word with n = 1..5, k = 3..6, through the flags and the predicates.
    for n in range(1, 6):
        for k in range(3, 7):
            for s in itertools.product(range(k), repeat=n):
                t, flags = Word(s, k), definitions(s, k)
                assert structural_flags(t) == flags, t
                assert {name: getattr(tuples_mod, name)(t.symbols, t.k)
                        for name in flags} == flags, t


def test_enumeration_matches_the_word_methods():
    # The class rows against the six predicates through the branch chain that
    # preceded them: every class, n from its minimum to 5 and k = 3..6, order
    # included.
    for cls in TupleClass:
        for n in range(TestCounts.MIN_N[cls], 6):
            for k in range(3, 7):
                words = (Word(t, k) for t in itertools.product(range(k), repeat=n))
                assert list(enumerate_class(cls, n, k)) == \
                    [t for t in words if oracle_predicate(cls, t)], (cls, n, k)


@pytest.mark.parametrize("cls", ["uniform", None, 3])
def test_class_predicate_rejects_non_class(cls):
    with pytest.raises(ValueError, match=f"^unknown class {cls}$"):
        count_class(cls, 3, 3)
    with pytest.raises(ValueError, match=f"^unknown class {cls}$"):
        list(enumerate_class(cls, 3, 3))


def oracle_count(cls, n, k):
    """The per-class parity-branch chain that preceded the count column of
    the class table, with the argument checks it ran first."""
    if k < 3:
        raise ValueError(f"alphabet size must be at least 3, got k={k}")
    if n < TestCounts.MIN_N[cls]:
        raise ValueError(f"{cls.value} requires n >= {TestCounts.MIN_N[cls]}, got n={n}")
    n_odd, k_odd = n % 2 == 1, k % 2 == 1
    if cls is TupleClass.NEGASYMMETRIC:
        if n_odd and k_odd:
            return k ** ((n - 1) // 2)
        if n_odd:
            return 2 * k ** ((n - 1) // 2)
        return k ** (n // 2)
    if cls is TupleClass.UNIFORM:
        return k
    if cls is TupleClass.ALTERNATING:
        return k * (k - 1)
    if cls is TupleClass.UNIFORM_ALTERNATING:
        return k
    if cls is TupleClass.UNIFORM_AND_UNIFORM_ALTERNATING:
        return 1 if k_odd else 2
    if cls is TupleClass.UNIFORM_NEGASYMMETRIC:
        return 1 if k_odd else 2
    if cls is TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC:
        if n_odd:
            return 1 if k_odd else 2
        return k
    if cls is TupleClass.ALTERNATING_NEGASYMMETRIC:
        if n_odd:
            return 0 if k_odd else 2
        return (k - 1) if k_odd else (k - 2)
    if cls in (TupleClass.LEFT_SNS, TupleClass.RIGHT_SNS):
        if n_odd:
            return k ** ((n + 1) // 2)
        if k_odd:
            return k ** (n // 2)
        return 2 * k ** (n // 2)
    if cls in (TupleClass.NON_UNIFORM_LEFT_SNS, TupleClass.NON_UNIFORM_RIGHT_SNS):
        if n_odd and k_odd:
            return k ** ((n + 1) // 2) - 1
        if n_odd:
            return k ** ((n + 1) // 2) - 2
        if k_odd:
            return k ** (n // 2) - 1
        return 2 * k ** (n // 2) - 2
    if cls in (TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS,
               TupleClass.NON_UNIFORM_ALTERNATING_RIGHT_SNS):
        if n_odd:
            return k ** ((n + 1) // 2) - k
        if k_odd:
            return k ** (n // 2) - 1
        return 2 * k ** (n // 2) - 2
    if cls in (TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS,
               TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS):
        if n_odd:
            return k ** ((n + 1) // 2) - k
        if k_odd:
            return k ** (n // 2) - 1
        return 2 * k ** (n // 2) - 4
    raise ValueError(f"unknown class {cls}")


def count_outcome(count, cls, n, k):
    """The count, or the text of the ValueError it raises."""
    try:
        return count(cls, n, k)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("cls", list(TupleClass), ids=lambda cls: cls.value)
def test_count_class_matches_oracle(cls):
    # n = 1 is below every class's smallest n but negasymmetric's.
    for n in range(1, 41):
        for k in range(3, 61):
            assert count_outcome(count_class, cls, n, k) == \
                count_outcome(oracle_count, cls, n, k), (cls, n, k)


@pytest.mark.parametrize("cls", list(TupleClass), ids=lambda cls: cls.value)
def test_count_grows_tells_the_growing_counts(cls):
    # A count that does not grow is at most k^2 at every n; one that grows
    # is at least about k^(n//2), which the CLI's print guard relies on.
    for k in (3, 4, 9, 10):
        counts = [count_class(cls, n, k) for n in range(3, 41)]
        if count_grows(cls):
            assert all(c >= k ** (n // 2) - k for n, c in enumerate(counts, start=3))
        else:
            assert max(counts) <= k * k
    if not count_grows(cls):  # at once, at any n
        assert count_class(cls, 10**9, 9) <= 81


def test_printable_power_stops_at_the_digit_limit(monkeypatch):
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
    assert printable_power(10, limit - 1) == 10 ** (limit - 1)  # limit digits
    assert printable_power(10, limit) is None
    assert printable_power(9, 10**12) is None  # decided without the power
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    assert printable_power(10, 4299) == 10**4299
    assert printable_power(10, 4300) is None
