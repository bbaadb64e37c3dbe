"""Verdicts for periodic words: window sequence, NOS, OS.

A candidate is one period of a k-ary sequence read cyclically.  Stored
words longer than their minimal period are normalized before checking,
and the verdict reports the minimal period.  Invalid verdicts carry the
lexicographically smallest witnessing index pair, reproducible by direct
window extraction.  One verdict on a stored length m costs O(m)
(expected) for the window codes of the word and its image and one hash
set of them; only a word with a repeated window pays O(sqrt(m)) plus
O(m) per prime factor step for its minimal period, and a witness is
searched for only after a hit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .tuples import Symbols, Word, nega_reverse_symbols, parse_symbols, window_codes

DUPLICATE_WINDOW = "duplicate-window"
NEGA_REVERSE_COLLISION = "nega-reverse-collision"
REVERSE_COLLISION = "reverse-collision"
NEGASYMMETRIC_WINDOW = "negasymmetric-window"


class PeriodicSequence(Symbols):
    """One period of a k-ary sequence, interpreted cyclically."""

    __slots__ = ()
    _noun = "sequence"

    def window(self, i: int, n: int) -> Word:
        """The cyclic n-window starting at index i."""
        m = len(self.symbols)
        return Word(tuple(self.symbols[(i + j) % m] for j in range(n)), self.k)

    def nega_reverse(self) -> "PeriodicSequence":
        """-S^R: reverse the period and negate every symbol."""
        return PeriodicSequence(nega_reverse_symbols(self.symbols, self.k), self.k)

    def normalized(self) -> "PeriodicSequence":
        """The same cyclic sequence stored at its minimal period."""
        p = minimal_period(self)
        if p == len(self.symbols):
            return self
        return PeriodicSequence(self.symbols[:p], self.k)


class Witness(NamedTuple):
    i: int
    j: int
    kind: str


class Verdict(NamedTuple):
    valid: bool
    property: str  # "window" | "nos" | "os"
    period: int
    witness: Optional[Witness] = None
    # The definitions formally allow the window order n to exceed the
    # period m; such cases are accepted but flagged here.
    order_exceeds_period: bool = False


def minimal_period(seq: PeriodicSequence) -> int:
    """Smallest p dividing the stored length m with symbols[i] == symbols[i mod p].

    The periods dividing m are the multiples of the minimal one, so p = m
    is divided by each prime factor q of m while the word still equals
    itself shifted by p/q.  O(sqrt(m)) trial division plus one O(m) slice
    compare per step: at most log2(m) steps plus one per distinct prime.
    """
    s = seq.symbols
    m = p = len(s)
    rest, q = m, 2
    while rest > 1:
        if q * q > rest:
            q = rest  # no factor up to sqrt(rest): rest is prime
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while p % q == 0 and s[p // q:] == s[:m - p // q]:
                p //= q
        q += 1
    return p


def _duplicate_witness(codes: list[int]) -> Witness:
    """The smallest pair i < j of equal windows (codes must repeat): i is
    the first window whose code occurs again, j that next occurrence."""
    last = dict(zip(codes, range(len(codes))))
    i = next(i for i, c in enumerate(codes) if last[c] != i)
    return Witness(i, codes.index(codes[i], i + 1), DUPLICATE_WINDOW)


def _verdict(seq: PeriodicSequence, n: int, prop: str,
             image: Optional[Callable[[PeriodicSequence], tuple[int, ...]]] = None,
             kinds: Optional[tuple[str, str]] = None) -> Verdict:
    """The one verifier body: O(m) expected, plus `minimal_period` when a
    window repeats, as a proper period p repeats window i at i + p.

    Builds one hash set of the stored word's rolling window codes, the
    first m of them the period's.  Fewer than m members is a duplicate.
    Otherwise the window codes of `image` (the period of -S^R for NOS, of
    S^R for OS) are tested against that set, and only a hit is located:
    window t of the image is the image of window (m - n - t) mod m.
    `kinds` names the witness when a window hits its own image and when
    another's.
    """
    if n < 2:
        raise ValueError(f"window order must be at least 2, got n={n}")
    codes = window_codes(seq.symbols, n, seq.k)
    seen = set(codes)
    norm = seq if len(seen) == len(codes) else seq.normalized()
    m = len(norm)
    del codes[m:]  # window i < p of w^r is window i of w
    witness = None
    if len(seen) < m:
        witness = _duplicate_witness(codes)
    elif image is not None:
        image_codes = window_codes(image(norm), n, norm.k)
        if not seen.isdisjoint(image_codes):
            hits = seen.intersection(image_codes)
            i = next(i for i, c in enumerate(codes) if c in hits)
            j = (m - n - image_codes.index(codes[i])) % m
            witness = Witness(i, j, kinds[i != j])
    return Verdict(witness is None, prop, m, witness, order_exceeds_period=n > m)


def is_window_sequence(seq: PeriodicSequence, n: int) -> Verdict:
    """Valid iff all m cyclic n-windows of the minimal period are distinct."""
    return _verdict(seq, n, "window")


def is_nos(seq: PeriodicSequence, n: int) -> Verdict:
    """Valid iff windows are distinct and no window equals the negated
    reverse of any window (including itself, which rules out negasymmetric
    windows).

    Window t of -S^R is the nega-reverse of window (m - n - t) mod m of S.
    The naive quadratic loop is kept as `is_nos_naive` for oracle testing.
    """
    return _verdict(seq, n, "nos", lambda s: nega_reverse_symbols(s.symbols, s.k),
                    (NEGASYMMETRIC_WINDOW, NEGA_REVERSE_COLLISION))


def is_nos_naive(seq: PeriodicSequence, n: int) -> Verdict:
    """O(m^2) double-loop oracle for is_nos; must agree on every input.

    Same witness rule as the indexed implementation: a duplicate-window
    violation (smallest pair) dominates, otherwise the smallest (i, j)
    with window(i) == nega_reverse(window(j)).
    """
    if n < 2:
        raise ValueError(f"window order must be at least 2, got n={n}")
    norm = seq.normalized()
    m = len(norm)
    windows = [norm.window(i, n) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if windows[i].symbols == windows[j].symbols:
                return Verdict(False, "nos", m, Witness(i, j, DUPLICATE_WINDOW),
                               order_exceeds_period=n > m)
    for i in range(m):
        for j in range(m):
            if windows[i].symbols == windows[j].nega_reverse().symbols:
                kind = NEGASYMMETRIC_WINDOW if i == j else NEGA_REVERSE_COLLISION
                return Verdict(False, "nos", m, Witness(i, j, kind),
                               order_exceeds_period=n > m)
    return Verdict(True, "nos", m, order_exceeds_period=n > m)


def is_os(seq: PeriodicSequence, n: int) -> Verdict:
    """Orientable-sequence check (plumbing): windows distinct, no window is
    the reverse of another, and no window is a palindrome.  Like `is_nos`,
    with S^R in place of -S^R.
    """
    return _verdict(seq, n, "os", lambda s: s.symbols[::-1],
                    (REVERSE_COLLISION, REVERSE_COLLISION))


# -- sequence text format -------------------------------------------------
#
# One sequence per line, decimal symbols separated by commas.  Blank lines
# and lines starting with '#' are ignored.

def parse_sequence_line(line: str, k: int) -> PeriodicSequence:
    return PeriodicSequence(parse_symbols(line), k)


def read_sequences(lines: Iterable[str], k: int) -> Iterator[PeriodicSequence]:
    """Parse sequence lines; a bad line raises ValueError naming its number."""
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            seq = parse_sequence_line(line, k)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        yield seq
