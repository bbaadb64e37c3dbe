"""Period upper bounds for negative orientable sequences.

`nos_bound` evaluates the closed-form case formulas directly; the
excluded-edge bookkeeping in `graph.excluded_edge_budget` rebuilds the
same values from the tuple-class counts.  `nos_bound` computes both
routes on every call and raises `InternalConsistencyError` if they
disagree.  Reference values (including the opaque older bounds and the
best known periods) live in a CSV shipped with the package.
"""

from __future__ import annotations

import csv
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import BudgetError, InternalConsistencyError
from .graph import BoundBreakdown, excluded_edge_budget
from .tuples import check_graph_params

TABLE_BUDGET = 10**5


def _regime(n: int, k: int) -> str:
    k_tag = "odd" if k % 2 == 1 else "even"
    if n in (2, 3, 4):
        return f"n{n}-{k_tag}"
    n_tag = "odd" if n % 2 == 1 else "even"
    return f"{n_tag}-{k_tag}"


_CASE_FORMULAS = {  # twice the bound for each `_regime` label, in exact integers
    "n2-odd": lambda n, k: k**2 - k,
    "n2-even": lambda n, k: k**2 - k - 2,
    "n3-odd": lambda n, k: k**3 - 2 * k + 1,
    "n3-even": lambda n, k: k**3 - 2 * k - 6,
    "n4-odd": lambda n, k: k**4 - 2 * k**2 + 1,
    "n4-even": lambda n, k: k**4 - 2 * k**2 + k - 2,
    "odd-odd": lambda n, k: k**n - 5 * k ** ((n - 1) // 2) + 4 * k,
    "odd-even": lambda n, k: k**n - 6 * k ** ((n - 1) // 2) + 3 * k + 2,
    "even-odd": lambda n, k: k**n - 3 * k ** (n // 2) - 2 * k ** ((n - 2) // 2) + k**2 + 3 * k,
    "even-even": lambda n, k: k**n - 3 * k ** (n // 2) + k**2 + k - 2,
}


class BoundValue(NamedTuple):
    value: int
    regime: str
    breakdown: BoundBreakdown


def nos_bound(n: int, k: int) -> BoundValue:
    """Upper bound on the period of a k-ary order-n negative orientable sequence."""
    check_graph_params(n, k)
    regime = _regime(n, k)
    numerator = _CASE_FORMULAS[regime](n, k)
    if numerator % 2 != 0:
        raise InternalConsistencyError(
            f"odd bound numerator {numerator} at n={n}, k={k}")
    breakdown = excluded_edge_budget(n, k)
    if breakdown.resulting_period_bound != numerator // 2:
        raise InternalConsistencyError(
            f"case formula gives {numerator // 2} but the excluded-edge budget "
            f"gives {breakdown.resulting_period_bound} at n={n}, k={k}")
    return BoundValue(numerator // 2, regime, breakdown)


# -- reference tables -----------------------------------------------------

class ReferenceEntry(NamedTuple):
    n: int
    k: int
    new_bound: int
    old_bound: int
    best_known: Optional[int]
    maximal: Optional[bool]


def _int_cell(row: dict, column: str, line: int, optional: bool = False) -> Optional[int]:
    value = row.get(column)
    if value is None:
        raise ValueError(f"line {line}: no value in column {column!r}")
    if optional and not value:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"line {line}: column {column!r} is not an integer: "
                         f"{value!r}") from None


def load_reference_table(path: Optional[str] = None) -> dict[tuple[int, int], ReferenceEntry]:
    """Parse the reference CSV (the packaged one unless a path is given).

    An unreadable or undecodable file, a missing or repeated column, an extra,
    oversized or non-integer field, a `maximal` not 0 or 1 or a repeated (n, k)
    cell raises ValueError naming the path and line; a leading BOM is skipped.
    """
    try:
        source = (resources.files("negaseq") / "data" / "reference_bounds.csv"
                  if path is None else Path(path))
        text = source.read_text(encoding="utf-8-sig")
        numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
                    if ln and not ln.startswith("#")]
        reader = csv.DictReader(ln for _, ln in numbered)
        header = reader.fieldnames or []
        for column in header:  # DictReader would keep a repeated column's last value
            if header.count(column) > 1:
                raise ValueError(f"line {numbered[0][0]}: column {column!r} "
                                 f"repeats in the header")
        entries: dict[tuple[int, int], ReferenceEntry] = {}
        first_line: dict[tuple[int, int], int] = {}
        for row in reader:
            line = numbered[reader.line_num - 1][0]
            if None in row:  # DictReader files the fields past the header under None
                raise ValueError(f"line {line}: more fields than the header's "
                                 f"{len(reader.fieldnames)} columns")
            n, k, new, old = (_int_cell(row, column, line)
                              for column in ("n", "k", "new_bound", "old_bound"))
            best, maximal = (_int_cell(row, column, line, optional=True)
                             for column in ("best_known", "maximal"))
            if maximal not in (None, 0, 1):
                raise ValueError(f"line {line}: column 'maximal' is not 0 or 1: {maximal}")
            if first_line.setdefault((n, k), line) != line:
                raise ValueError(f"line {line}: n={n}, k={k} repeats line "
                                 f"{first_line[n, k]}")
            entries[n, k] = ReferenceEntry(n, k, new, old, best,
                                           None if maximal is None else bool(maximal))
        for column in ReferenceEntry._fields:  # also a header with no row under it
            if column not in header:
                raise ValueError(f"line {numbered[0][0] if numbered else 1}: "
                                 f"no column {column!r}")
        return entries
    except (OSError, ValueError, csv.Error) as exc:  # OSError: a directory, or unreadable
        source = path if path is not None else "packaged reference_bounds.csv"
        if isinstance(exc, csv.Error):  # a field over its size limit, on the line last read
            exc = f"line {numbered[reader.reader.line_num - 1][0]}: {exc}"
        raise ValueError(f"{source}: {getattr(exc, 'strerror', None) or exc}") from None


class TableCell(NamedTuple):
    n: int
    k: int
    bound: int
    regime: str
    reference: Optional[int]  # reference new_bound if recorded
    matches_reference: Optional[bool]  # `reference_mismatches` found none, if recorded


def reference_mismatches(bound: int, entry: ReferenceEntry) -> list[str]:
    """How a reference row disagrees with the computed bound: another
    new_bound, or a best_known period above it."""
    found = []
    if entry.new_bound != bound:
        found.append(f"computed {bound}, reference {entry.new_bound}")
    if entry.best_known is not None and entry.best_known > bound:
        found.append(f"best_known {entry.best_known} exceeds the computed bound {bound}")
    return found


def bound_table(n_range: range, k_range: range,
                reference: Optional[dict[tuple[int, int], ReferenceEntry]] = None
                ) -> list[TableCell]:
    """Compute nos_bound on a grid of step-1 ranges, attaching reference
    values where known.  Refuses more than `TABLE_BUDGET` cells, counted from
    the ranges' ends (len() overflows), before it computes one."""
    if n_range.start < 2 or k_range.start < 3:
        raise ValueError("ranges must satisfy n >= 2 and k >= 3")
    size = max(0, n_range.stop - n_range.start) * max(0, k_range.stop - k_range.start)
    if size > TABLE_BUDGET:
        raise BudgetError(f"{size} cells exceed the table budget of {TABLE_BUDGET}")
    if reference is None:
        reference = load_reference_table()
    cells = []
    for n in n_range:
        for k in k_range:
            b = nos_bound(n, k)
            entry = reference.get((n, k))
            cells.append(TableCell(
                n=n, k=k, bound=b.value, regime=b.regime,
                reference=entry.new_bound if entry else None,
                matches_reference=not reference_mismatches(b.value, entry) if entry else None))
    return cells


def format_table(cells: list[TableCell], flag_mismatches: bool = False) -> str:
    """Aligned plain-text table, rows indexed by n, columns by k."""
    ns = sorted({c.n for c in cells})
    ks = sorted({c.k for c in cells})
    by_pos = {(c.n, c.k): c for c in cells}

    def render(c: TableCell) -> str:
        text = str(c.bound)
        if flag_mismatches and c.matches_reference is False:
            text += "!"
        return text

    widths = {k: max(len(f"k={k}"), *(len(render(by_pos[(n, k)])) for n in ns))
              for k in ks}
    header = "n  " + "  ".join(f"k={k}".rjust(widths[k]) for k in ks)
    lines = [header]
    for n in ns:
        row = f"{n}  " + "  ".join(render(by_pos[(n, k)]).rjust(widths[k]) for k in ks)
        lines.append(row)
    return "\n".join(lines) + "\n"
