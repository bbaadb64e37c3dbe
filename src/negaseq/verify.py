"""Verdicts for periodic words: window sequence, NOS, OS.

A candidate is one period of a k-ary sequence read cyclically.  Stored
words longer than their minimal period are normalized before checking,
and the verdict reports the minimal period.  Invalid verdicts carry the
lexicographically smallest witnessing index pair, reproducible by direct
window extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .tuples import Word, window_codes

DUPLICATE_WINDOW = "duplicate-window"
NEGA_REVERSE_COLLISION = "nega-reverse-collision"
REVERSE_COLLISION = "reverse-collision"
NEGASYMMETRIC_WINDOW = "negasymmetric-window"


@dataclass(frozen=True)
class PeriodicSequence:
    """One period of a k-ary sequence, interpreted cyclically."""

    symbols: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"alphabet size must be at least 3, got k={self.k}")
        if not self.symbols:
            raise ValueError("sequence must be nonempty")
        if min(self.symbols) < 0 or max(self.symbols) >= self.k:
            raise ValueError(f"symbols {self.symbols} out of range for k={self.k}")

    def __len__(self) -> int:
        return len(self.symbols)

    def window(self, i: int, n: int) -> Word:
        """The cyclic n-window starting at index i."""
        m = len(self.symbols)
        return Word(tuple(self.symbols[(i + j) % m] for j in range(n)), self.k)

    def nega_reverse(self) -> "PeriodicSequence":
        """-S^R: reverse the period and negate every symbol."""
        return PeriodicSequence(
            tuple((-s) % self.k for s in reversed(self.symbols)), self.k)

    def normalized(self) -> "PeriodicSequence":
        """The same cyclic sequence stored at its minimal period."""
        p = minimal_period(self)
        if p == len(self.symbols):
            return self
        return PeriodicSequence(self.symbols[:p], self.k)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols)


@dataclass(frozen=True)
class Witness:
    i: int
    j: int
    kind: str


@dataclass(frozen=True)
class Verdict:
    valid: bool
    property: str  # "window" | "nos" | "os"
    period: int
    witness: Optional[Witness] = None
    # The definitions formally allow the window order n to exceed the
    # period m; such cases are accepted but flagged here.
    order_exceeds_period: bool = False


def minimal_period(seq: PeriodicSequence) -> int:
    """Smallest p dividing the stored length with symbols[i] == symbols[i mod p].

    That holds iff the word equals itself shifted by p, one slice compare.
    """
    s = seq.symbols
    m = len(s)
    for p in range(1, m):
        if m % p == 0 and s[p:] == s[:m - p]:
            return p
    return m


def _duplicate_witness(codes: list[int]) -> Optional[Witness]:
    if len(set(codes)) == len(codes):
        return None
    seen: dict[int, int] = {}
    best: Optional[tuple[int, int]] = None
    for j, c in enumerate(codes):
        if c in seen:
            pair = (seen[c], j)
            if best is None or pair < best:
                best = pair
        else:
            seen[c] = j
    return Witness(best[0], best[1], DUPLICATE_WINDOW)


def _smallest_image_hit(codes: list[int], image_codes: list[int],
                        n: int) -> Optional[tuple[int, int]]:
    """Smallest (i, j) with window i equal to the image of window j.

    image_codes are the window codes of the reversed period, negated for
    NOS: window t of -S^R (or S^R) is the nega-reverse (or reverse) of
    window (m - n - t) mod m of S.
    """
    hits = set(codes).intersection(image_codes)
    if not hits:
        return None
    m = len(codes)
    index_of = {c: i for i, c in enumerate(codes)}
    return min((index_of[c], (m - n - t) % m)
               for t, c in enumerate(image_codes) if c in hits)


def _verdict(seq: PeriodicSequence, n: int, prop: str,
             image: Optional[Callable[[PeriodicSequence], tuple[int, ...]]] = None,
             kinds: Optional[tuple[str, str]] = None) -> Verdict:
    """The one verifier body, O(m) expected.

    Normalizes once, takes the rolling window codes of the period and
    reports the smallest duplicate pair.  With no duplicate and an `image`
    (the period of -S^R for NOS, of S^R for OS), one hash intersection
    finds the smallest window equal to the image of a window; `kinds`
    names that witness when it hits its own image and when another's.
    """
    if n < 2:
        raise ValueError(f"window order must be at least 2, got n={n}")
    norm = seq.normalized()
    m = len(norm)
    codes = window_codes(norm.symbols, n, norm.k)
    witness = _duplicate_witness(codes)
    if witness is None and image is not None:
        best = _smallest_image_hit(codes, window_codes(image(norm), n, norm.k), n)
        if best is not None:
            witness = Witness(best[0], best[1], kinds[best[0] != best[1]])
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
    return _verdict(seq, n, "nos", lambda s: s.nega_reverse().symbols,
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
    symbols = tuple(int(part) for part in line.split(","))
    return PeriodicSequence(symbols, k)


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
