"""Words over Z_k, their symmetry maps, structural predicates and counts.

A "word" here is a fixed-length tuple of residues mod k with the alphabet
size carried alongside.  The structural predicates (negasymmetric, uniform,
alternating, uniform-alternating, left/right semi-negasymmetric) drive both
the reduced de Bruijn graph and the period-bound bookkeeping.  Each tuple
class is one row of a table (`_CLASSES`): its smallest n and the predicates
that must hold and must fail.  Every closed count has a brute-force
enumeration oracle (`enumerate_class`) so each formula branch is
independently checkable.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterator

from .errors import EnumerationBudgetError

ENUMERATION_BUDGET = 10**7


class Record:
    """An immutable value with the slots named in `_fields`: equal and hashed
    by their values, only against its own class, and shown as a constructor
    call with keywords.  Copies and pickles are rebuilt through `__init__`."""

    __slots__ = _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class Symbols(Record):
    """A nonempty tuple of residues mod k >= 3: the shared part of `Word` and
    `verify.PeriodicSequence`.  Each subclass names itself in the errors."""

    __slots__ = _fields = ("symbols", "k")
    _noun = _k_note = ""

    def __init__(self, symbols: tuple[int, ...], k: int):
        if k < 3:
            raise ValueError(f"alphabet size must be at least 3, got k={k}{self._k_note}")
        if not symbols:
            raise ValueError(f"{self._noun} must be nonempty")
        if min(symbols) < 0 or max(symbols) >= k:
            raise ValueError(f"symbols {symbols} out of range for k={k}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "k", k)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols)


class Word(Symbols):
    """An n-tuple over Z_k.  Immutable; all operations return new words."""

    __slots__ = ()
    _noun, _k_note = "word", " (negating a symbol is the identity for k=2)"

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def reverse(self) -> "Word":
        return Word(self.symbols[::-1], self.k)

    def negate(self) -> "Word":
        return Word(tuple((-s) % self.k for s in self.symbols), self.k)

    def nega_reverse(self) -> "Word":
        """negate(reverse(self)); an involution."""
        return Word(nega_reverse_symbols(self.symbols, self.k), self.k)

    # -- structural predicates -------------------------------------------

    def is_negasymmetric(self) -> bool:
        """True iff symbols[i] == -symbols[n-1-i] mod k for every i."""
        n, k, s = len(self.symbols), self.k, self.symbols
        return all(s[i] == (-s[n - 1 - i]) % k for i in range((n + 1) // 2))

    def is_uniform(self) -> bool:
        return len(set(self.symbols)) == 1

    def is_alternating(self) -> bool:
        """Even positions carry one value, odd positions another, distinct."""
        self._require_length(2, "alternating")
        s = self.symbols
        c0, c1 = s[0], s[1]
        if c0 == c1:
            return False
        return all(s[i] == (c0 if i % 2 == 0 else c1) for i in range(2, len(s)))

    def is_uniform_alternating(self) -> bool:
        """Each symbol is the mod-k negation of its predecessor."""
        self._require_length(2, "uniform-alternating")
        s, k = self.symbols, self.k
        return all(s[i + 1] == (-s[i]) % k for i in range(len(s) - 1))

    def is_left_sns(self) -> bool:
        """Prefix of length n-1 is negasymmetric (semi-negasymmetric on the left).

        Defined for n >= 1; a 1-tuple is vacuously left-sns (empty prefix).
        """
        n, k, s = len(self.symbols), self.k, self.symbols
        return all(s[i] == (-s[n - i - 2]) % k for i in range(n - 1))

    def is_right_sns(self) -> bool:
        """Suffix of length n-1 is negasymmetric."""
        n, k, s = len(self.symbols), self.k, self.symbols
        return all(s[i] == (-s[n - i]) % k for i in range(1, n))

    def _require_length(self, minimum: int, what: str) -> None:
        if len(self.symbols) < minimum:
            raise ValueError(f"{what} is only defined for length >= {minimum}")

    def code(self) -> int:
        """Base-k integer code, leftmost symbol most significant."""
        return encode(self.symbols, self.k)


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
    """The six structural flags of w.  The alternating predicates need
    length >= 2; a shorter word is neither alternating nor uniform-alternating."""
    long_enough = len(w) >= 2
    return {
        "negasymmetric": w.is_negasymmetric(),
        "uniform": w.is_uniform(),
        "alternating": long_enough and w.is_alternating(),
        "uniform_alternating": long_enough and w.is_uniform_alternating(),
        "left_sns": w.is_left_sns(),
        "right_sns": w.is_right_sns(),
    }


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


def nega_reverse_code(code: int, n: int, k: int) -> int:
    """Code of -u^R given the code of u."""
    out = 0
    for _ in range(n):
        code, r = divmod(code, k)
        out = out * k + ((-r) % k)
    return out


def is_negasymmetric_code(code: int, n: int, k: int) -> bool:
    return code == nega_reverse_code(code, n, k)


def partner_halves(n: int, k: int) -> tuple[int, list[int], list[int]]:
    """(K, low, high) with K = k^(n//2) and -e^R == low[e % K] + high[e // K]
    for every code e of length n.

    The partner map e -> -e^R of all k^n codes in two tables of k^(n//2)
    and k^ceil(n/2) entries: -(hi*K + lo)^R = (-lo^R)*k^ceil(n/2) + -hi^R.
    e is an edge of the reduced graph iff its partner differs from it.
    """
    half = n // 2
    shift = k ** (n - half)
    low = [nega_reverse_code(lo, half, k) * shift for lo in range(k**half)]
    high = [nega_reverse_code(hi, n - half, k) for hi in range(shift)]
    return k**half, low, high


def negasymmetric_codes(K: int, low: list[int], high: list[int]) -> list[int]:
    """The codes e == -e^R (the non-edges of the reduced graph), ascending,
    from the tables (K, low, high) of `partner_halves`.

    The low half of a fixed point is the low half of its partner, so each
    high half hi has one candidate, lo = high[hi] % K.
    """
    return [e for hi, p in enumerate(high)
            if low[p % K] + p == (e := hi * K + p % K)]


# -- tuple classes and counting ------------------------------------------

class TupleClass(Enum):
    NEGASYMMETRIC = "negasymmetric"
    UNIFORM = "uniform"
    ALTERNATING = "alternating"
    UNIFORM_ALTERNATING = "uniform-alternating"
    UNIFORM_AND_UNIFORM_ALTERNATING = "uniform-and-uniform-alternating"
    UNIFORM_NEGASYMMETRIC = "uniform-negasymmetric"
    UNIFORM_ALTERNATING_NEGASYMMETRIC = "uniform-alternating-negasymmetric"
    ALTERNATING_NEGASYMMETRIC = "alternating-negasymmetric"
    LEFT_SNS = "left-sns"
    RIGHT_SNS = "right-sns"
    NON_UNIFORM_LEFT_SNS = "non-uniform-left-sns"
    NON_UNIFORM_RIGHT_SNS = "non-uniform-right-sns"
    NON_UNIFORM_ALTERNATING_LEFT_SNS = "non-uniform-alternating-left-sns"
    NON_UNIFORM_ALTERNATING_RIGHT_SNS = "non-uniform-alternating-right-sns"
    NON_UNIFORM_NON_ALTERNATING_LEFT_SNS = "non-uniform-non-alternating-left-sns"
    NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS = "non-uniform-non-alternating-right-sns"


# One row per class: (smallest n its closed form covers, predicates that must
# hold, predicates that must fail).  "Non-uniform-alternating" means "not
# uniform-alternating".  The non-alternating closed forms count alternating
# (n-1)-tuples, which only exist for n >= 3.
_CLASSES = {
    TupleClass.NEGASYMMETRIC: (1, (Word.is_negasymmetric,), ()),
    TupleClass.UNIFORM: (2, (Word.is_uniform,), ()),
    TupleClass.ALTERNATING: (2, (Word.is_alternating,), ()),
    TupleClass.UNIFORM_ALTERNATING: (2, (Word.is_uniform_alternating,), ()),
    TupleClass.UNIFORM_AND_UNIFORM_ALTERNATING:
        (2, (Word.is_uniform, Word.is_uniform_alternating), ()),
    TupleClass.UNIFORM_NEGASYMMETRIC:
        (2, (Word.is_uniform, Word.is_negasymmetric), ()),
    TupleClass.UNIFORM_ALTERNATING_NEGASYMMETRIC:
        (2, (Word.is_uniform_alternating, Word.is_negasymmetric), ()),
    TupleClass.ALTERNATING_NEGASYMMETRIC:
        (2, (Word.is_alternating, Word.is_negasymmetric), ()),
    TupleClass.LEFT_SNS: (2, (Word.is_left_sns,), ()),
    TupleClass.RIGHT_SNS: (2, (Word.is_right_sns,), ()),
    TupleClass.NON_UNIFORM_LEFT_SNS: (2, (Word.is_left_sns,), (Word.is_uniform,)),
    TupleClass.NON_UNIFORM_RIGHT_SNS: (2, (Word.is_right_sns,), (Word.is_uniform,)),
    TupleClass.NON_UNIFORM_ALTERNATING_LEFT_SNS:
        (2, (Word.is_left_sns,), (Word.is_uniform_alternating,)),
    TupleClass.NON_UNIFORM_ALTERNATING_RIGHT_SNS:
        (2, (Word.is_right_sns,), (Word.is_uniform_alternating,)),
    TupleClass.NON_UNIFORM_NON_ALTERNATING_LEFT_SNS:
        (3, (Word.is_left_sns,), (Word.is_uniform, Word.is_alternating)),
    TupleClass.NON_UNIFORM_NON_ALTERNATING_RIGHT_SNS:
        (3, (Word.is_right_sns,), (Word.is_uniform, Word.is_alternating)),
}


def _row(cls: TupleClass) -> tuple:
    if not isinstance(cls, TupleClass):
        raise ValueError(f"unknown class {cls}")
    return _CLASSES[cls]


def class_predicate(cls: TupleClass, w: Word) -> bool:
    """True iff w is in cls: the class's row, evaluated in order."""
    _, holds, fails = _row(cls)
    return all(p(w) for p in holds) and not any(p(w) for p in fails)


def _check_count_args(cls: TupleClass, n: int, k: int) -> None:
    if k < 3:
        raise ValueError(f"alphabet size must be at least 3, got k={k}")
    min_n = _row(cls)[0]
    if n < min_n:
        raise ValueError(f"{cls.value} requires n >= {min_n}, got n={n}")


def count_class(cls: TupleClass, n: int, k: int) -> int:
    """Closed-form count of the class among all k-ary n-tuples.

    Each parity branch is written out separately so it can be pinned
    against the enumeration oracle on its own.
    """
    _check_count_args(cls, n, k)
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


def enumerate_class(cls: TupleClass, n: int, k: int) -> Iterator[Word]:
    """Brute-force oracle: yield, in lexicographic order, the n-tuples in cls.
    Refuses k^n above `ENUMERATION_BUDGET` before it yields a word."""
    _check_count_args(cls, n, k)
    if k ** n > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"k^n = {k**n} exceeds the enumeration "
                                     f"budget of {ENUMERATION_BUDGET}")
    for symbols in itertools.product(range(k), repeat=n):
        w = Word(symbols, k)
        if class_predicate(cls, w):
            yield w
