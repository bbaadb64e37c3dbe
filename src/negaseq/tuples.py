"""Words over Z_k, their symmetry maps, structural predicates and counts.

A "word" here is a fixed-length tuple of residues mod k with the alphabet
size carried alongside.  Each structural predicate (negasymmetric, uniform,
alternating, uniform-alternating, left/right semi-negasymmetric) is written
once, over a symbol tuple and k: `Word`'s methods, `structural_flags`, the
class rows and the enumeration oracle all call it.  Each `TupleClass` member
carries its row: its smallest n, its closed-form count and the predicates
that must hold and must fail.  The counts share two facts, each written
once: the number e(k) of self-negating residues, and the sns count
k * negasymmetric(n-1).  Every closed count has a brute-force enumeration
oracle (`enumerate_class`), so each row is independently checkable.
"""

from __future__ import annotations

import itertools
import math
import sys
from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import BudgetError

ENUMERATION_BUDGET = 10**7


class Symbols:
    """A nonempty tuple of residues mod k >= 3: the shared part of `Word` and
    `verify.PeriodicSequence`.  Each subclass names itself in the errors.  An
    immutable value, equal and hashed by its two fields only against its own
    class, and shown as a constructor call with keywords.  Copies and pickles
    are rebuilt through `__init__`, so they are checked again."""

    __slots__ = _fields = ("symbols", "k")
    _noun = _k_note = ""

    def __init__(self, symbols: Sequence[int], k: int):
        symbols = tuple(symbols)  # from any sequence; a tuple is not copied
        if k < 3:
            raise ValueError(f"alphabet size must be at least 3, got k={k}{self._k_note}")
        if not symbols:
            raise ValueError(f"{self._noun} must be nonempty")
        if min(symbols) < 0 or max(symbols) >= k:
            raise ValueError(f"symbols {symbols} out of range for k={k}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "k", k)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbols == other.symbols and self.k == other.k
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols, self.k))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(symbols={self.symbols!r}, k={self.k!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.symbols, self.k)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols)


def negasymmetric(s: tuple[int, ...], k: int) -> bool:
    """s[i] == -s[n-1-i] mod k for every i, the end pair tested first; true of ()."""
    return not s or (s[0] + s[-1]) % k == 0 and s == nega_reverse_symbols(s, k)


def uniform(s: tuple[int, ...], k: int) -> bool:
    return s.count(s[0]) == len(s)


def alternating(s: tuple[int, ...], k: int) -> bool:
    """Even positions carry one value, odd positions another, distinct;
    False for a 1-tuple, which has no odd position."""
    return len(s) > 1 and s[0] != s[1] and s[2:] == s[:-2]


def uniform_alternating(s: tuple[int, ...], k: int) -> bool:
    """Each symbol is the mod-k negation of the one before; False for a 1-tuple."""
    return len(s) > 1 and s[1] == -s[0] % k and s[2:] == s[:-2]


def left_sns(s: tuple[int, ...], k: int) -> bool:
    """The prefix of length n-1 is negasymmetric, the empty one of a 1-tuple too."""
    return negasymmetric(s[:-1], k)


def right_sns(s: tuple[int, ...], k: int) -> bool:
    return negasymmetric(s[1:], k)


_FLAGS = (negasymmetric, uniform, alternating, uniform_alternating, left_sns, right_sns)


def _method(predicate):
    return lambda self: predicate(self.symbols, self.k)


class Word(Symbols):
    """An n-tuple over Z_k.  Immutable; its methods are the structural predicates."""

    __slots__ = ()
    _noun, _k_note = "word", " (negating a symbol is the identity for k=2)"
    is_negasymmetric = _method(negasymmetric)
    is_uniform = _method(uniform)
    is_alternating = _method(alternating)
    is_uniform_alternating = _method(uniform_alternating)
    is_left_sns = _method(left_sns)
    is_right_sns = _method(right_sns)


def check_graph_params(n: int, k: int) -> None:
    """The (n, k) domain of the graph, the bounds and the search."""
    if n < 2 or k < 3:
        raise ValueError(f"need n >= 2 and k >= 3, got n={n}, k={k}")


def parse_symbols(text: str) -> tuple[int, ...]:
    """Comma-separated symbols: ASCII digits after an optional '-', spaces around."""
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        if not (part.isascii() and part.removeprefix("-").isdigit()):
            raise ValueError(f"symbol {part!r} is not a decimal number")
    return tuple(map(int, parts))


def structural_flags(w: Word) -> dict[str, bool]:
    """The six structural flags of w, by predicate name."""
    return {p.__name__: p(w.symbols, w.k) for p in _FLAGS}


# -- integer codes --------------------------------------------------------
#
# Codes fix the enumeration order (lexicographic, leftmost symbol most
# significant) used by bitmaps, DOT export and the search.

def encode(symbols: tuple[int, ...], k: int) -> int:
    code = 0
    for s in symbols:
        code = code * k + s
    return code


def decode(code: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        code, r = divmod(code, k)
        out.append(r)
    return tuple(reversed(out))


def window_codes(symbols: tuple[int, ...], n: int, k: int) -> list[int]:
    """Codes of the m cyclic n-windows of one period, in window order.

    Each code follows from the previous one by dropping the leading symbol
    and appending the next: O(m) work instead of O(m*n).  n may exceed m;
    the period then wraps more than once inside a window.
    """
    m = len(symbols)
    ext = symbols * -(-(m + n - 1) // m)  # long enough for the last window
    code = encode(ext[:n - 1], k)  # below high: the first step keeps it whole
    high = k ** (n - 1)
    return [code := code % high * k + s for s in ext[n - 1:m + n - 1]]


def nega_reverse_symbols(symbols: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The symbols of -u^R: u reversed, each symbol negated mod k."""
    return tuple([-s % k for s in symbols[::-1]])


def negasymmetric_codes(n: int, k: int) -> list[int]:
    """The codes e == -e^R of length n (the reduced graph's non-edges): those
    of length L + 2 are s.w.(-s), code s*k^(L+1) + w*k + (-s mod k), for each
    symbol s (it leads, so they ascend) and each one w of length L, from the
    empty word at even n and the e(k) self-negating symbols at odd n."""
    codes = [0, k // 2][:_self_negating(k)] if n % 2 else [0]
    for lead in [k**length for length in range(n % 2 + 1, n, 2)]:
        codes = [b + w * k for b in [s * lead + -s % k for s in range(k)] for w in codes]
    return codes


# -- tuple classes and counting ------------------------------------------

def _self_negating(k: int) -> int:
    """e(k): the residues c with 2c == 0 mod k, 0 alone or 0 and k/2."""
    return 2 - k % 2


def _negasymmetric_count(n: int, k: int, e: int) -> int:
    """A free first half, its nega-reverse, and for odd n a self-negating middle."""
    return (e if n % 2 else 1) * k ** (n // 2)


def _sns(n: int, k: int, e: int) -> int:
    """A negasymmetric prefix of length n-1, then a free last symbol."""
    return k * _negasymmetric_count(n - 1, k, e)


class TupleClass(Enum):
    """A tuple class: its name, then its row, the smallest n its closed form
    covers, whether the count grows with n, the closed form in (n, k, e) with
    e = e(k) above, the predicates that must hold and those that must fail.
    "Non-uniform-alternating" means "not uniform-alternating".  The non-
    alternating closed forms count alternating (n-1)-tuples, which only exist
    for n >= 3."""

    def __new__(cls, value: str, *row):
        member = object.__new__(cls)
        member._value_, member.row = value, row
        return member

    NEGASYMMETRIC = "negasymmetric", 1, True, _negasymmetric_count, (negasymmetric,), ()
    UNIFORM = "uniform", 2, False, lambda n, k, e: k, (uniform,), ()
    ALTERNATING = "alternating", 2, False, lambda n, k, e: k * (k - 1), (alternating,), ()
    UNIFORM_ALTERNATING = ("uniform-alternating", 2, False, lambda n, k, e: k,
                           (uniform_alternating,), ())
    UNIFORM_AND_UNIFORM_ALTERNATING = (
        "uniform-and-uniform-alternating", 2, False, lambda n, k, e: e,
        (uniform, uniform_alternating), ())
    UNIFORM_NEGASYMMETRIC = ("uniform-negasymmetric", 2, False, lambda n, k, e: e,
                             (uniform, negasymmetric), ())
    UNIFORM_ALTERNATING_NEGASYMMETRIC = (
        "uniform-alternating-negasymmetric", 2, False, lambda n, k, e: e if n % 2 else k,
        (uniform_alternating, negasymmetric), ())
    ALTERNATING_NEGASYMMETRIC = (
        "alternating-negasymmetric", 2, False, lambda n, k, e: 2 * e - 2 if n % 2 else k - e,
        (alternating, negasymmetric), ())
    LEFT_SNS = "left-sns", 2, True, _sns, (left_sns,), ()
    RIGHT_SNS = "right-sns", 2, True, _sns, (right_sns,), ()
    NON_UNIFORM_LEFT_SNS = ("non-uniform-left-sns", 2, True, lambda n, k, e: _sns(n, k, e) - e,
                            (left_sns,), (uniform,))
    NON_UNIFORM_RIGHT_SNS = ("non-uniform-right-sns", 2, True, lambda n, k, e: _sns(n, k, e) - e,
                             (right_sns,), (uniform,))
    NON_UNIFORM_ALTERNATING_LEFT_SNS = (
        "non-uniform-alternating-left-sns", 2, True,
        lambda n, k, e: _sns(n, k, e) - (k if n % 2 else e),
        (left_sns,), (uniform_alternating,))
    NON_UNIFORM_ALTERNATING_RIGHT_SNS = (
        "non-uniform-alternating-right-sns", 2, True,
        lambda n, k, e: _sns(n, k, e) - (k if n % 2 else e),
        (right_sns,), (uniform_alternating,))
    NON_UNIFORM_NON_ALTERNATING_LEFT_SNS = (
        "non-uniform-non-alternating-left-sns", 3, True,
        lambda n, k, e: _sns(n, k, e) - (k if n % 2 else e * e),
        (left_sns,), (uniform, alternating))
    NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS = (
        "non-uniform-non-alternating-right-sns", 3, True,
        lambda n, k, e: _sns(n, k, e) - (k if n % 2 else e * e),
        (right_sns,), (uniform, alternating))


def _row(cls: TupleClass) -> tuple:
    if not isinstance(cls, TupleClass):
        raise ValueError(f"unknown class {cls}")
    return cls.row


def class_predicate(cls: TupleClass, w: Word) -> bool:
    """True iff w is in cls: the class's row, evaluated in order."""
    *_, holds, fails = _row(cls)
    return all(p(w.symbols, w.k) for p in holds) and not any(p(w.symbols, w.k) for p in fails)


def count_grows(cls: TupleClass) -> bool:
    """Whether the class's count grows with n, as about k^(n/2), or is at most k^2."""
    return _row(cls)[1]


def _check_count_args(cls: TupleClass, n: int, k: int) -> None:
    if k < 3:
        raise ValueError(f"alphabet size must be at least 3, got k={k}")
    min_n = _row(cls)[0]
    if n < min_n:
        raise ValueError(f"{cls.value} requires n >= {min_n}, got n={n}")


def count_class(cls: TupleClass, n: int, k: int) -> int:
    """Closed-form count of the class among all k-ary n-tuples: the formula
    in the class's row, pinned against the enumeration oracle row by row."""
    _check_count_args(cls, n, k)
    return cls.row[2](n, k, _self_negating(k))


def printable_power(k: int, n: int) -> Optional[int]:
    """k^n, or, without working it out, None if it has more digits than the
    interpreter prints (4300, its default, when the limit is off)."""
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
    return k**n if n * math.log10(k) < limit else None


def codes_within(n: int, k: int, budget: int, what: str) -> int:
    """k^n, or BudgetError naming it (by its power when too long to print)
    when it exceeds the budget."""
    size = printable_power(k, n)
    if size is None or size > budget:
        raise BudgetError(f"k^n = {size or f'{k}^{n}'} exceeds the {what} budget of {budget}")
    return size


def enumerate_class(cls: TupleClass, n: int, k: int) -> Iterator[Word]:
    """Brute-force oracle: the n-tuples in cls, in lexicographic order.  All
    k^n tuples are tested, through one filter per predicate that must hold
    and one filterfalse per predicate that must fail; only the survivors
    become Words.  A bad class, too small an n or k^n above
    `ENUMERATION_BUDGET` raises at the call, before any tuple is tested."""
    _check_count_args(cls, n, k)
    codes_within(n, k, ENUMERATION_BUDGET, "enumeration")
    *_, holds, fails = cls.row
    tuples = itertools.product(range(k), repeat=n)
    for p in holds:
        tuples = filter(lambda s, p=p: p(s, k), tuples)
    for p in fails:
        tuples = itertools.filterfalse(lambda s, p=p: p(s, k), tuples)
    return map(Word, tuples, itertools.repeat(k))
