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
from typing import NamedTuple, Optional

from .errors import InternalConsistencyError
from .graph import BoundBreakdown, excluded_edge_budget
from .tuples import check_graph_params


def _regime(n: int, k: int) -> str:
    k_tag = "odd" if k % 2 == 1 else "even"
    if n in (2, 3, 4):
        return f"n{n}-{k_tag}"
    n_tag = "odd" if n % 2 == 1 else "even"
    return f"{n_tag}-{k_tag}"


class BoundValue(NamedTuple):
    n: int
    k: int
    value: int
    regime: str
    breakdown: BoundBreakdown


def _numerator(n: int, k: int) -> int:
    """The case formula's numerator (twice the bound).  Exact integers only."""
    k_odd = k % 2 == 1
    if n == 2:
        return k**2 - k if k_odd else k**2 - k - 2
    if n == 3:
        return k**3 - 2 * k + 1 if k_odd else k**3 - 2 * k - 6
    if n == 4:
        return k**4 - 2 * k**2 + 1 if k_odd else k**4 - 2 * k**2 + k - 2
    if n % 2 == 1 and k_odd:
        return k**n - 5 * k ** ((n - 1) // 2) + 4 * k
    if n % 2 == 1:
        return k**n - 6 * k ** ((n - 1) // 2) + 3 * k + 2
    if k_odd:
        return k**n - 3 * k ** (n // 2) - 2 * k ** ((n - 2) // 2) + k**2 + 3 * k
    return k**n - 3 * k ** (n // 2) + k**2 + k - 2


def nos_bound(n: int, k: int) -> BoundValue:
    """Upper bound on the period of a k-ary order-n negative orientable sequence."""
    check_graph_params(n, k)
    numerator = _numerator(n, k)
    if numerator % 2 != 0:
        raise InternalConsistencyError(
            f"odd bound numerator {numerator} at n={n}, k={k}")
    breakdown = excluded_edge_budget(n, k)
    if breakdown.resulting_period_bound != numerator // 2:
        raise InternalConsistencyError(
            f"case formula gives {numerator // 2} but the excluded-edge budget "
            f"gives {breakdown.resulting_period_bound} at n={n}, k={k}")
    return BoundValue(n=n, k=k, value=numerator // 2, regime=_regime(n, k),
                      breakdown=breakdown)


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

    A file that cannot be read or decoded, a missing column or a non-integer
    field raises ValueError that starts with the path and names the file
    line and the column.
    """
    try:
        if path is None:
            text = (resources.files("negaseq") / "data" / "reference_bounds.csv").read_text()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
                    if ln and not ln.startswith("#")]
        reader = csv.DictReader(ln for _, ln in numbered)
        entries: dict[tuple[int, int], ReferenceEntry] = {}
        for row in reader:
            line = numbered[reader.line_num - 1][0]
            n, k, new, old = (_int_cell(row, column, line)
                              for column in ("n", "k", "new_bound", "old_bound"))
            best, maximal = (_int_cell(row, column, line, optional=True)
                             for column in ("best_known", "maximal"))
            entries[(n, k)] = ReferenceEntry(
                n=n, k=k, new_bound=new, old_bound=old, best_known=best,
                maximal=None if maximal is None else bool(maximal))
        return entries
    except (OSError, ValueError) as exc:  # OSError: a directory, or unreadable
        source = path if path is not None else "packaged reference_bounds.csv"
        raise ValueError(f"{source}: {getattr(exc, 'strerror', None) or exc}") from None


class TableCell(NamedTuple):
    n: int
    k: int
    bound: int
    regime: str
    reference: Optional[int]  # reference new_bound if recorded
    matches_reference: Optional[bool]


def bound_table(n_range: range, k_range: range,
                reference: Optional[dict[tuple[int, int], ReferenceEntry]] = None
                ) -> list[TableCell]:
    """Compute nos_bound on a grid, attaching reference values where known."""
    if n_range.start < 2 or k_range.start < 3:
        raise ValueError("ranges must satisfy n >= 2 and k >= 3")
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
                matches_reference=(entry.new_bound == b.value) if entry else None))
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
