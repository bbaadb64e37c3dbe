"""Command-line front end.

Results go to stdout; diagnostics and timing go to stderr so identical
invocations produce byte-identical result output.  Exit codes: 0 success
or verified, 1 verification failed / nothing found, 2 usage error or a
failed write, 3 budget exceeded.  `Command.invoke` maps library errors
to these codes for every subcommand.

Each command imports the modules it runs inside its body, so a cold start
compiles only those (`classify` and `count` need nothing past `tuples`).
The records are NamedTuples or `Symbols` slot classes; none is a dataclass.
"""

from __future__ import annotations

import errno
import math
import os
import sys
from contextlib import contextmanager

import click

from . import tuples as tuples_mod
from .errors import BudgetError, NotAnNosError

EXIT_INVALID = 1
EXIT_BUDGET = 3

FORMATS = click.Choice(["text", "json"])
# Opened when the options are parsed, so a bad path is a usage error
# before any work runs.
OUT_FILE = click.File("w", lazy=False)


def _parse_range(text: str) -> range:
    """Inclusive 'a..b' range, or a single value 'a'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"bad range {text!r}; expected a..b")
    if hi < lo:
        raise click.UsageError(f"empty range {text!r}; expected a..b with a <= b")
    return range(lo, hi + 1)


def _too_long(n: int, k: int, limit: int, power: int) -> ValueError:
    return ValueError(f"--n {n} with --k {k} gives a value of about "
                      f"{int(power * math.log10(k))} digits, over this "
                      f"interpreter's limit of {limit} digits for printing "
                      "an integer")


def _require_printable(n: int, k: int, power: int) -> None:
    """Refuse, before any arithmetic, an (n, k) whose value, at least about
    k^power (an edge count or a bound is at least k^n/4), has more digits
    than the interpreter prints."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and power * math.log10(k) >= limit + 2:
        raise _too_long(n, k, limit, power)


@contextmanager
def _printing(n: int, k: int, power: int):
    """Word the interpreter's refusal to print a too-long integer (the band
    the estimate above lets through) like `_require_printable`.  Wrap only
    the printing: any ValueError raised there is that refusal."""
    try:
        yield
    except ValueError:
        raise _too_long(n, k, sys.get_int_max_str_digits(), power) from None


class KParam(click.IntRange):
    def __init__(self):
        super().__init__(min=3)

    def convert(self, value, param, ctx):
        if click.INT.convert(value, param, ctx) < self.min:  # parses, or fails
            raise click.UsageError(
                f"k must be at least 3 (got {value}): negating a symbol "
                "is the identity map when k=2, so nothing here is defined")
        return super().convert(value, param, ctx)


K_OPTION = click.option("--k", type=KParam(), required=True,
                        help="Alphabet size (k >= 3).")
N_OPTION = click.option("--n", type=click.IntRange(min=2), required=True,
                        help="Window order (n >= 2).")
FORMAT_OPTION = click.option("--format", "fmt", type=FORMATS, default="text",
                             show_default=True, help="Output format.")


class BudgetOption(click.Option):
    """`search --budget`: its default, `search.DEFAULT_NODE_BUDGET`, is read
    only when it is used or shown in --help, so other commands never load
    `search`."""

    def get_default(self, ctx, call=True):
        from . import search as search_mod

        return search_mod.DEFAULT_NODE_BUDGET


def _emit(payload, fmt: str, text: str, output=None, option="--output") -> None:
    """Write the text, or the payload as one JSON line, to output or stdout."""
    if fmt == "json":
        import json

        text = json.dumps(payload, sort_keys=True) + "\n"
    try:
        if output is None and sys.stdout is None:  # fd 1 closed: echo would drop it
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        click.echo(text, nl=False, file=output)  # flushes: a failed write raises here
    except OSError as exc:  # exit 2, like a path that cannot be opened
        if output is None or output.name == "<stdout>":  # `--output -` too
            option = "stdout"  # devnull takes the bytes the flush at exit retries
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        click.echo(f"Error: cannot write {option}: {exc.strerror}", err=True)
        sys.exit(2)


class Command(click.Command):
    """A subcommand whose library errors exit by the contract: ValueError
    is a usage error (2), a budget error exits 3 and a non-NOS input 1.
    InternalConsistencyError stays unmapped: its traceback reports a bug."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None
        except BudgetError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_BUDGET)
        except NotAnNosError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_INVALID)


@click.group()
def main():
    """Analyze negative orientable sequences (NOS) over Z_k, k > 2."""
    if sys.stdin is None:  # fd 0 closed: read it as empty, like </dev/null
        sys.stdin = open(os.devnull)


main.command_class = Command  # so each subcommand below maps library errors


@main.command()
@K_OPTION
@click.option("--tuple", "tuple_text", required=True,
              help="Comma-separated symbols, e.g. 0,1,2.")
@FORMAT_OPTION
def classify(k, tuple_text, fmt):
    """Classification flags for one tuple."""
    w = tuples_mod.Word(tuples_mod.parse_symbols(tuple_text), k)
    flags = tuples_mod.structural_flags(w)
    payload = {"tuple": str(w), "k": k, "flags": flags}
    text = f"tuple {w} over Z_{k}\n" + "".join(
        f"  {name}: {value}\n" for name, value in flags.items())
    _emit(payload, fmt, text)


@main.command()
@click.option("--class", "class_name", required=True,
              type=click.Choice([c.value for c in tuples_mod.TupleClass]),
              help="Tuple class to count.")
@N_OPTION
@K_OPTION
@click.option("--enumerate", "do_enumerate", is_flag=True,
              help="Cross-check the closed form against brute-force enumeration.")
@FORMAT_OPTION
def count(class_name, n, k, do_enumerate, fmt):
    """Closed-form count of a tuple class."""
    cls = tuples_mod.TupleClass(class_name)
    power = n // 2 if tuples_mod.count_grows(cls) else 1
    _require_printable(n, k, power)
    value = tuples_mod.count_class(cls, n, k)
    payload = {"class": class_name, "n": n, "k": k, "count": value}
    if do_enumerate:
        enumerated = sum(1 for _ in tuples_mod.enumerate_class(cls, n, k))
        payload["enumerated"] = enumerated
        payload["matches"] = enumerated == value
    with _printing(n, k, power):
        _emit(payload, fmt, f"{value}\n")
    if do_enumerate and not payload["matches"]:
        click.echo(f"enumeration found {enumerated} words, the closed form gives {value}",
                   err=True)
        sys.exit(EXIT_INVALID)


@main.command()
@N_OPTION
@K_OPTION
@FORMAT_OPTION
def edges(n, k, fmt):
    """Edge count of the reduced de Bruijn graph."""
    from . import graph as graph_mod

    _require_printable(n, k, n)
    value = graph_mod.edge_count_formula(n, k)
    payload = {"n": n, "k": k, "edges": value,
               "vertices": k ** (n - 1)}
    with _printing(n, k, n):
        _emit(payload, fmt, f"{value}\n")


@main.command()
@N_OPTION
@K_OPTION
@click.option("--vertex", required=True,
              help="Vertex label: comma-separated symbols of length n-1.")
@FORMAT_OPTION
def profile(n, k, vertex, fmt):
    """Degree and classification profile of one vertex."""
    from . import graph as graph_mod

    g = graph_mod.ReducedGraph(n, k)
    w = tuples_mod.Word(tuples_mod.parse_symbols(vertex), k)
    p = graph_mod.vertex_profile(g, w)
    in_parity, out_parity = ("odd" if d % 2 else "even"
                             for d in (p.in_degree, p.out_degree))
    payload = {**p._asdict(), "label": str(w), "n": n, "k": k,
               "in_parity": in_parity, "out_parity": out_parity}
    text = (f"vertex {w}: in={p.in_degree} ({in_parity}), "
            f"out={p.out_degree} ({out_parity})\n  " + " ".join(
                f"{name}={value}" for name, value in p.flags.items()) + "\n")
    _emit(payload, fmt, text)


@main.command()
@N_OPTION
@K_OPTION
@FORMAT_OPTION
def bound(n, k, fmt):
    """New period upper bound for an order-n NOS over Z_k."""
    from . import bounds as bounds_mod

    _require_printable(n, k, n)
    b = bounds_mod.nos_bound(n, k)
    breakdown = b.breakdown._asdict()
    breakdown["edge_cap"] = b.breakdown.resulting_edge_cap
    payload = {"n": n, "k": k, "bound": b.value, "regime": b.regime,
               "breakdown": breakdown}
    with _printing(n, k, n):
        _emit(payload, fmt, f"{b.value}\n")


@main.command()
@click.option("--n", "n_text", required=True, help="Row range, e.g. 2..9.")
@click.option("--k", "k_text", required=True, help="Column range, e.g. 3..9.")
@click.option("--check-reference", is_flag=True,
              help="Compare cells against the shipped reference table.")
@click.option("--reference-csv", type=click.Path(exists=True), default=None,
              help="Override the packaged reference CSV.")
@FORMAT_OPTION
def table(n_text, k_text, check_reference, reference_csv, fmt):
    """Grid of period bounds (rows n, columns k)."""
    from . import bounds as bounds_mod

    n_range, k_range = _parse_range(n_text), _parse_range(k_text)
    if n_range.start < 2 or k_range.start < 3:
        raise click.UsageError("ranges must satisfy n >= 2 and k >= 3")
    _require_printable(n_range[-1], k_range[-1], n_range[-1])
    reference = bounds_mod.load_reference_table(reference_csv)
    cells = bounds_mod.bound_table(n_range, k_range, reference)
    payload = [c._asdict() for c in cells]
    with _printing(n_range[-1], k_range[-1], n_range[-1]):
        text = bounds_mod.format_table(cells, flag_mismatches=check_reference)
        _emit(payload, fmt, text)
    if check_reference:
        mismatched = [c for c in cells if c.matches_reference is False]
        if mismatched:
            for c in mismatched:
                for found in bounds_mod.reference_mismatches(c.bound, reference[c.n, c.k]):
                    click.echo(f"mismatch at n={c.n}, k={c.k}: {found}", err=True)
            sys.exit(EXIT_INVALID)


@main.command()
@N_OPTION
@K_OPTION
@click.option("--seed-file", type=click.File("r", errors="surrogateescape"), default="-",
              help="Sequences to verify, one per line; default stdin.")
@click.option("--property", "prop", type=click.Choice(["window", "nos", "os"]),
              default="nos", show_default=True)
@FORMAT_OPTION
def verify(n, k, seed_file, prop, fmt):
    """Verify sequences read from a file or stdin."""
    from . import verify as verify_mod

    check = {"window": verify_mod.is_window_sequence,
             "nos": verify_mod.is_nos,
             "os": verify_mod.is_os}[prop]
    sequences = list(verify_mod.read_sequences(seed_file, k))
    any_invalid = False
    for seq in sequences:
        verdict = check(seq, n)
        payload = {"sequence": str(seq), "n": n, "k": k, **verdict._asdict(),
                   "witness": verdict.witness and verdict.witness._asdict()}
        if verdict.valid:
            text = f"valid {prop.upper() if prop != 'window' else 'window sequence'}, period {verdict.period}\n"
        else:
            w = verdict.witness
            text = (f"invalid {prop}: {w.kind} at windows ({w.i},{w.j}), "
                    f"period {verdict.period}\n")
            any_invalid = True
        _emit(payload, fmt, text)
    if any_invalid:
        sys.exit(EXIT_INVALID)


@main.command()
@N_OPTION
@K_OPTION
@click.option("--budget", cls=BudgetOption, type=click.IntRange(min=1),
              show_default=True, help="Maximum search-tree expansions.")
@click.option("--time-budget", type=click.FloatRange(min=0, min_open=True),
              default=None, help="Wall-clock cap in seconds.")
@click.option("--certificate", "certificate_path", type=OUT_FILE,
              default=None, help="Write a replayable certificate here.")
@click.option("--output", type=OUT_FILE, default=None,
              help="Write the result record here instead of stdout.")
@FORMAT_OPTION
def search(n, k, budget, time_budget, certificate_path, output, fmt):
    """Exhaustive (or budgeted) search for a maximum-period NOS."""
    from . import search as search_mod

    if (output is not None and certificate_path is not None
            and "<stdout>" not in (output.name, certificate_path.name)
            and os.path.samefile(output.name, certificate_path.name)):
        raise click.UsageError("--output and --certificate name the same file")
    cfg = search_mod.SearchConfig(n=n, k=k, node_budget=budget,
                                  time_budget=time_budget)
    result = search_mod.max_nos_search(cfg)
    payload = {
        "n": n, "k": k, "period": result.period,
        "optimal": result.optimal,
        "sequence": str(result.best_sequence) if result.best_sequence else None,
        "expansions": result.expansions,
        "bound": result.bound, "flow_bound": result.flow_bound,
    }
    found = result.best_sequence is not None
    text = (f"period {result.period} "
            f"({'optimal' if result.optimal else 'budget exhausted'}), "
            f"bound {result.bound}\n"
            + (f"sequence {result.best_sequence}\n" if found
               else "no sequence found\n"))
    _emit(payload, fmt, text, output)
    click.echo(f"elapsed {result.elapsed:.3f}s, "
               f"{result.expansions} expansions", err=True)
    if certificate_path is not None:
        _emit(None, "text", search_mod.certify(result), certificate_path,
              "--certificate")
    if not found:
        sys.exit(EXIT_INVALID)
    if not result.optimal:
        sys.exit(EXIT_BUDGET)


@main.command("export-dot")
@N_OPTION
@K_OPTION
@click.option("--sequence", "sequence_text", default=None,
              help="Export B^-(S,n) for this sequence instead of the full graph.")
@click.option("--output", type=OUT_FILE, default=None,
              help="Write DOT here instead of stdout.")
def export_dot(n, k, sequence_text, output):
    """DOT export of the reduced graph or one sequence subgraph."""
    from . import graph as graph_mod

    seq = None
    if sequence_text is not None:
        from . import verify as verify_mod

        seq = verify_mod.PeriodicSequence(tuples_mod.parse_symbols(sequence_text), k)
    _emit(None, "text", graph_mod.export_dot(graph_mod.ReducedGraph(n, k), seq), output)


if __name__ == "__main__":
    main()
