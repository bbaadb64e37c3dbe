import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from negaseq import verify as verify_mod
from negaseq.errors import NotAnNosError
from negaseq.graph import sequence_subgraph
from negaseq.tuples import Word, encode, nega_reverse_symbols, parse_symbols, window_codes
from negaseq.verify import (
    DUPLICATE_WINDOW,
    NEGA_REVERSE_COLLISION,
    NEGASYMMETRIC_WINDOW,
    REVERSE_COLLISION,
    PeriodicSequence,
    Verdict,
    Witness,
    is_nos,
    is_nos_naive,
    is_os,
    is_window_sequence,
    minimal_period,
    read_sequences,
)


def seq(symbols, k):
    return PeriodicSequence(tuple(symbols), k)


def random_words(rng, count, max_m=40, max_n=5):
    """Seeded (sequence, n) pairs, among them stored lengths 2-3x the
    minimal period and window orders above the period."""
    for i in range(count):
        k = rng.choice([3, 4, 5, 6])
        symbols = [rng.randrange(k) for _ in range(rng.randint(1, max_m))]
        n = rng.randint(2, max_n)
        if i % 4 == 1:
            symbols *= rng.randint(2, 3)
        elif i % 4 == 2:
            n = max(2, len(symbols) + rng.randint(0, 4))
        yield seq(symbols, k), n


def power_words(rng, count):
    """Seeded (sequence, n) pairs: a random word w stored as w^r, r = 1..4,
    at orders up to 3 past |w|."""
    for _ in range(count):
        k = rng.choice([3, 4, 5, 6])
        w = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
        n = rng.randint(2, len(w) + 3)
        yield seq(w * rng.randint(1, 4), k), n


def subgraph_oracle(s, n):
    """`sequence_subgraph`'s outcome by direct window extraction, S before
    -S^R: the edge origins, or (first, second, message) for the first
    window that repeats an earlier one."""
    norm = s.normalized()
    image = seq(nega_reverse_symbols(norm.symbols, s.k), s.k)
    origin = {}
    for name, stream in (("S", norm), ("-S^R", image)):
        for i in range(len(norm)):
            code = encode(stream.window(i, n).symbols, s.k)
            if code in origin:
                first = origin[code]
                return first, (name, i), (f"window {name}[{i}] duplicates "
                                          f"{first[0]}[{first[1]}]: not an order-{n} NOS")
            origin[code] = (name, i)
    return origin


def minimal_period_loop(s):
    """The O(m) loop over every p < m that `minimal_period` replaced."""
    symbols = s.symbols
    m = len(symbols)
    for p in range(1, m):
        if m % p == 0 and symbols[p:] == symbols[:m - p]:
            return p
    return m


def window_oracle(s, n, prop):
    """O(m^2) verdict by direct window extraction, for the window and OS
    properties: smallest duplicate pair first, then for OS the smallest
    (i, j) with window i equal to the reverse of window j."""
    norm = s.normalized()
    m = len(norm)
    windows = [norm.window(i, n).symbols for i in range(m)]
    flag = n > m
    for i in range(m):
        for j in range(i + 1, m):
            if windows[i] == windows[j]:
                return Verdict(False, prop, m, Witness(i, j, DUPLICATE_WINDOW), flag)
    if prop == "os":
        for i in range(m):
            for j in range(m):
                if windows[i] == windows[j][::-1]:
                    return Verdict(False, prop, m, Witness(i, j, REVERSE_COLLISION), flag)
    return Verdict(True, prop, m, order_exceeds_period=flag)


class TestPeriodicSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSequence((0, 1), 2)
        with pytest.raises(ValueError):
            PeriodicSequence((), 3)
        with pytest.raises(ValueError):
            PeriodicSequence((0, 3), 3)

    @pytest.mark.parametrize("cls", [PeriodicSequence, Word])
    @pytest.mark.parametrize("symbols", [(0, -1, 2), (0, 3, 1), (3,), (-1,)])
    def test_out_of_range_message(self, cls, symbols):
        with pytest.raises(ValueError) as info:
            cls(symbols, 3)
        assert str(info.value) == f"symbols {symbols} out of range for k=3"

    @pytest.mark.parametrize("cls", [PeriodicSequence, Word])
    def test_single_symbol_in_range(self, cls):
        assert cls((0,), 3).symbols == (0,) and cls((2,), 3).symbols == (2,)

    def test_window_wraps(self):
        s = seq([0, 1, 2], 3)
        assert s.window(2, 2).symbols == (2, 0)
        assert s.window(1, 4).symbols == (1, 2, 0, 1)

    def test_minimal_period(self):
        assert minimal_period(seq([0, 1, 0, 1], 3)) == 2
        assert minimal_period(seq([0, 1, 1], 3)) == 3
        assert minimal_period(seq([2, 2, 2, 2], 3)) == 1
        assert minimal_period(seq([0, 1, 2, 0, 1], 3)) == 5

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_minimal_period_matches_loop_over_all_periods(self, data):
        """Prime-factor descent against the loop over every p < m that it
        replaced, on prime, prime-power and highly composite lengths and on
        words repeated 2-8 times, some with one symbol changed."""
        k = data.draw(st.integers(3, 5))
        length = data.draw(st.sampled_from(
            [1, 2, 3, 5, 7, 11, 13, 31, 97, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81,
             125, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360]))
        base = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                  max_size=length))
        symbols = (base * (-(-length // len(base))))[:length]
        symbols *= data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(symbols) - 1))
            symbols[i] = data.draw(st.integers(0, k - 1))
        s = seq(symbols, k)
        assert minimal_period(s) == minimal_period_loop(s), symbols

    def test_normalized(self):
        assert seq([0, 1, 0, 1], 3).normalized() == seq([0, 1], 3)
        s = seq([0, 1, 2], 3)
        assert s.normalized() is s


class TestWindowSequence:
    def test_valid(self):
        assert is_window_sequence(seq([0, 1, 1], 3), 2).valid

    def test_duplicate(self):
        # windows of 0,1,0,1,2: (0,1) recurs at indices 0 and 2
        v = is_window_sequence(seq([0, 1, 0, 1, 2], 3), 2)
        assert not v.valid
        assert v.witness.kind == DUPLICATE_WINDOW
        assert (v.witness.i, v.witness.j) == (0, 2)

    def test_normalizes_before_checking(self):
        # (0,1,0,1) stores two copies of period-2 content; the cyclic object
        # has windows (0,1) and (1,0) only, so it is a valid window sequence.
        v = is_window_sequence(seq([0, 1, 0, 1], 3), 2)
        assert v.valid
        assert v.period == 2

    def test_order_exceeds_period_flag(self):
        v = is_window_sequence(seq([0, 1, 1], 3), 5)
        assert v.order_exceeds_period
        assert not is_window_sequence(seq([0, 1, 1], 3), 3).order_exceeds_period

    @pytest.mark.parametrize("check", [is_window_sequence, is_nos, is_os, is_nos_naive],
                             ids=lambda check: check.__name__)
    def test_rejects_order_below_two(self, check):
        with pytest.raises(ValueError, match="^window order must be at least 2, got n=1$"):
            check(seq([0, 1], 3), 1)


class TestNos:
    def test_valid_example(self):
        v = is_nos(seq([0, 1, 1], 3), 2)
        assert v.valid and v.period == 3

    def test_negasymmetric_window(self):
        # window (0,0) at index 0 equals its own negated reverse
        v = is_nos(seq([0, 0, 1], 3), 2)
        assert not v.valid
        assert (v.witness.i, v.witness.j, v.witness.kind) == (0, 0, NEGASYMMETRIC_WINDOW)

    def test_nega_reverse_collision(self):
        # windows of 0,1,2: (0,1), (1,2), (2,0); (0,1) = -(2,0)^R
        v = is_nos(seq([0, 1, 2], 3), 2)
        assert not v.valid
        assert v.witness.kind in (NEGA_REVERSE_COLLISION, NEGASYMMETRIC_WINDOW)
        assert (v.witness.i, v.witness.j) == (0, 2)

    def test_duplicate_dominates(self):
        v = is_nos(seq([0, 1, 0, 1, 2], 3), 2)
        assert not v.valid
        assert v.witness.kind == DUPLICATE_WINDOW

    def test_duality(self):
        for symbols, k in [((0, 1, 1), 3), ((0, 1, 2, 2), 5),
                           ((0, 0, 1, 2), 4), ((0, 2, 1, 1, 2), 5)]:
            s = seq(symbols, k)
            a = is_nos(s, 2)
            b = is_nos(seq(nega_reverse_symbols(symbols, k), k), 2)
            assert a.valid == b.valid
            assert a.period == b.period

    def test_monotone_in_order(self):
        # distinct-and-collision-free n-windows imply the same at order n+1
        rng = random.Random(7)
        for _ in range(200):
            k = rng.choice([3, 4, 5])
            m = rng.randint(2, 12)
            s = seq([rng.randrange(k) for _ in range(m)], k)
            for n in (2, 3, 4):
                if is_nos(s, n).valid:
                    assert is_nos(s, n + 1).valid, (s, n)


class TestNaiveOracle:
    def test_agreement_on_random_words(self):
        rng = random.Random(20260823)
        for _ in range(400):
            k = rng.choice([3, 4, 5, 6])
            m = rng.randint(2, 40)
            n = rng.randint(2, 5)
            s = seq([rng.randrange(k) for _ in range(m)], k)
            a = is_nos(s, n)
            b = is_nos_naive(s, n)
            assert a == b, (s, n)

    def test_agreement_on_repeated_periods_and_long_orders(self):
        # The digest pins all three verifiers' verdicts (every witness kind,
        # with and without n > m), recorded from the per-property bodies
        # that the shared one replaced.
        rng = random.Random(20261017)
        digest = hashlib.sha256()
        for s, n in random_words(rng, 400):
            verdicts = [check(s, n) for check in (is_window_sequence, is_nos, is_os)]
            assert verdicts[1] == is_nos_naive(s, n), (s, n)
            digest.update("".join(map(repr, verdicts)).encode())
        assert digest.hexdigest() == \
            "63ec9131a0779076092f6ac6a1c970d76106cd1609b0a3b3f05d73e077eaf2ea"

    def test_powers_and_long_orders_pinned(self):
        """Verdicts of all three verifiers and the outcome of
        `sequence_subgraph` (its edge origins, or the NotAnNosError) on
        stored powers w^r and orders above the period.  Both digests were
        recorded from the code that normalized every word before computing
        its window codes."""
        rng = random.Random(20261018)
        verdicts, subgraphs = hashlib.sha256(), hashlib.sha256()
        for s, n in power_words(rng, 1000):
            found = [check(s, n) for check in (is_window_sequence, is_nos, is_os)]
            assert found[1] == is_nos_naive(s, n), (s, n)
            verdicts.update("".join(map(repr, found)).encode())
            try:
                got = sequence_subgraph(s, n).edge_origin
                outcome = repr(sorted(got.items()))
            except NotAnNosError as err:
                got = err.first, err.second, str(err)
                outcome = f"{err} {err.first} {err.second}"
            assert got == subgraph_oracle(s, n), (s, n)
            subgraphs.update(outcome.encode())
        assert verdicts.hexdigest() == \
            "adc7b2c3d4a34ba82ac6fc7d7f85649254afb9f0fbfd4a9a4092423878af1f61"
        assert subgraphs.hexdigest() == \
            "eb84841ee0b8ec3d646632ffbce5433d0a60ca0a8eeb8896949d15120daae0db"

    def test_window_and_os_agree_with_extraction(self):
        rng = random.Random(9)
        for s, n in random_words(rng, 400):
            assert is_window_sequence(s, n) == window_oracle(s, n, "window"), (s, n)
            assert is_os(s, n) == window_oracle(s, n, "os"), (s, n)

    def test_window_codes_match_extracted_windows(self):
        rng = random.Random(5)
        for s, n in random_words(rng, 200, max_n=9):
            assert window_codes(s.symbols, n, s.k) == \
                [encode(s.window(i, n).symbols, s.k) for i in range(len(s))], (s, n)

    def test_agreement_on_structured_words(self):
        for symbols, k, n in [((0, 1, 0, 1), 3, 2), ((0, 0, 0), 3, 2),
                              ((0, 1, 2, 1), 3, 3), ((1, 3, 1, 3), 4, 2)]:
            s = seq(symbols, k)
            assert is_nos(s, n) == is_nos_naive(s, n)


class TestHugeOrder:
    """A window longer than the stored word repeats it, so the verifiers
    code windows of at most the stored length, and any n answers at once."""

    WORDS = [((0, 1, 1), 9), ((0, 1, 1) * 2, 9), ((0, 0, 1), 3), ((1, 2), 3),
             ((0, 1, 0, 2), 3), ((0,), 4)]

    def test_windows_never_longer_than_stored_word(self, monkeypatch):
        calls = []

        def spy(symbols, n, k):  # refuses before coding, so a regression fails fast
            assert n <= stored, f"order {n} coded on a stored word of {stored}"
            calls.append(n)
            return window_codes(symbols, n, k)

        monkeypatch.setattr(verify_mod, "window_codes", spy)
        for symbols, k in self.WORDS:
            stored = len(symbols)
            for check in (is_window_sequence, is_nos, is_os):
                check(seq(symbols, k), 2_000_000)
        assert len(calls) >= 3 * len(self.WORDS)

    def test_verdicts_match_extraction(self):
        assert is_nos(seq((0, 1, 1) * 2, 9), 2_000_000) == \
            Verdict(True, "nos", 3, order_exceeds_period=True)
        for symbols, k in self.WORDS:  # two n, as a witness's j depends on n mod m
            for n in (200_000, 200_001):
                s = seq(symbols, k)
                assert is_nos(s, n) == is_nos_naive(s, n), (symbols, n)
                for prop, check in (("window", is_window_sequence), ("os", is_os)):
                    assert check(s, n) == window_oracle(s, n, prop), (symbols, n, prop)


class TestOs:
    def test_palindrome_window_rejected(self):
        # window (1,0,1) of 1,0,1,2 is a palindrome
        v = is_os(seq([1, 0, 1, 2], 3), 3)
        assert not v.valid
        assert v.witness.kind == "reverse-collision"

    def test_reverse_collision(self):
        v = is_os(seq([0, 0, 1, 1], 3), 2)
        assert not v.valid

    def test_nos_need_not_be_os(self):
        s = seq([0, 1, 1], 3)
        assert is_nos(s, 2).valid
        assert not is_os(s, 2).valid  # (1,1) is its own reverse


class TestTextFormat:
    def test_parse_line(self):
        assert PeriodicSequence(parse_symbols("0,1,2"), 3).symbols == (0, 1, 2)

    def test_read_skips_comments_and_blanks(self):
        lines = ["# header", "", "0,1,1", "  ", "0,2,2"]
        got = [s.symbols for s in read_sequences(lines, 3)]
        assert got == [(0, 1, 1), (0, 2, 2)]

    def test_bad_symbol_raises(self):
        with pytest.raises(ValueError):
            PeriodicSequence(parse_symbols("0,9"), 3)

    def test_bad_line_names_its_number(self):
        with pytest.raises(ValueError, match="line 3"):
            list(read_sequences(["# header", "0,1,1", "0,1,2,"], 3))
