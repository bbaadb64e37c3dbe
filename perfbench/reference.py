"""Independent window checks, used only by the correctness gates.

Nothing here imports negaseq.  Windows are plain tuples of the cyclic
sequence, and each property is decided with one dictionary, so the gates
do not share code with the verifiers they check.  Witness rules follow
the package's contract: a duplicate window dominates, and the reported
pair is the lexicographically smallest (i, j).
"""

from __future__ import annotations

DUPLICATE = "duplicate-window"
NEGA_REVERSE = "nega-reverse-collision"
REVERSE = "reverse-collision"
NEGASYMMETRIC = "negasymmetric-window"


def minimal_period(symbols: tuple[int, ...]) -> tuple[int, ...]:
    m = len(symbols)
    for p in range(1, m + 1):
        if m % p == 0 and symbols[:p] * (m // p) == symbols:
            return symbols[:p]
    return symbols


def windows(symbols: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    m = len(symbols)
    doubled = symbols * (n // m + 2)
    return [doubled[i:i + n] for i in range(m)]


def nega_reverse(w: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple((-s) % k for s in reversed(w))


def _smallest_duplicate(ws):
    first: dict = {}
    best = None
    for j, w in enumerate(ws):
        if w in first:
            pair = (first[w], j)
            if best is None or pair < best:
                best = pair
        else:
            first[w] = j
    return best


def _smallest_image_hit(ws, image):
    """Smallest (i, j) with ws[i] == image(ws[j]); windows are distinct."""
    index = {w: i for i, w in enumerate(ws)}
    best = None
    for j, w in enumerate(ws):
        i = index.get(image(w))
        if i is not None and (best is None or (i, j) < best):
            best = (i, j)
    return best


def verdict(symbols, n: int, k: int, prop: str):
    """(valid, period, witness) for prop in {"window", "nos", "os"};
    witness is (i, j, kind) or None."""
    norm = minimal_period(tuple(symbols))
    ws = windows(norm, n)
    dup = _smallest_duplicate(ws)
    if dup is not None:
        return False, len(norm), (dup[0], dup[1], DUPLICATE)
    if prop == "window":
        return True, len(norm), None
    if prop == "nos":
        hit = _smallest_image_hit(ws, lambda w: nega_reverse(w, k))
        kind = NEGASYMMETRIC if hit and hit[0] == hit[1] else NEGA_REVERSE
    else:
        hit = _smallest_image_hit(ws, lambda w: w[::-1])
        kind = REVERSE
    if hit is None:
        return True, len(norm), None
    return False, len(norm), (hit[0], hit[1], kind)


def witness_holds(symbols, n: int, k: int, i: int, j: int, kind: str) -> bool:
    """Re-extract windows i and j directly and test the claimed relation."""
    m = len(symbols)
    wi = tuple(symbols[(i + t) % m] for t in range(n))
    wj = tuple(symbols[(j + t) % m] for t in range(n))
    if kind == DUPLICATE:
        return i < j and wi == wj
    if kind in (NEGA_REVERSE, NEGASYMMETRIC):
        return (i == j) == (kind == NEGASYMMETRIC) and wi == nega_reverse(wj, k)
    if kind == REVERSE:
        return wi == wj[::-1]
    return False


def plant(symbols: list[int], n: int, k: int, kind: str, i: int, j: int) -> None:
    """Overwrite symbols in place so that the planted witness holds at (i, j)."""
    if kind == DUPLICATE:
        for t in range(n):
            symbols[j + t] = symbols[i + t]
    elif kind == NEGA_REVERSE:
        for t in range(n):
            symbols[j + t] = (-symbols[i + n - 1 - t]) % k
    elif kind == NEGASYMMETRIC:
        for t in range(n // 2):
            symbols[i + n - 1 - t] = (-symbols[i + t]) % k
        if n % 2 == 1:
            symbols[i + n // 2] = 0
    else:
        raise ValueError(f"cannot plant {kind}")
