"""Command-line front end, on the standard library's argparse.

Results go to stdout; diagnostics and timing go to stderr so identical
invocations produce byte-identical result output.  Exit codes: 0 success
or verified, 1 verification failed / nothing found, 2 usage error or a
failed write, 3 budget exceeded.  `main` maps library errors to these
codes for every subcommand.

`main` builds the parser of the invoked command alone, and each command
imports the modules it runs inside its body, so a cold start compiles only
those (`classify` and `count` need nothing past `tuples`).  The records are
NamedTuples or `Symbols` slot classes; none is a dataclass.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import re
import sys

from . import tuples as tuples_mod
from .errors import BudgetError, NotAnNosError

EXIT_INVALID = 1
EXIT_BUDGET = 3
COMMANDS = {}  # name -> (function, its options as (flag, `add_argument` keywords))


def _command(*options):
    def register(run):
        COMMANDS[run.__name__.replace("_", "-")] = run, options
        return run
    return register


def _integer(minimum, too_small="{} is not in the range x>={}."):
    """An argparse type: an integer at least minimum, by the symbol rule of
    `parse_symbols` (ASCII digits after an optional '-'; no '1_0')."""
    def convert(text):
        try:
            (value,) = tuples_mod.parse_symbols(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer.") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(too_small.format(value, minimum))
        return value
    return convert


class _Parser(argparse.ArgumentParser):
    """Its errors are ValueErrors in click's words.  Its types "r" and "w" open a path
    ('-': stdin or stdout) as it is read, so a bad path fails before any work runs."""

    def __init__(self, **kwargs):  # help is 78 columns wide on any terminal
        super().__init__(allow_abbrev=False, **kwargs, formatter_class=lambda prog:
                         argparse.RawDescriptionHelpFormatter(prog, width=78))
        self.files = contextlib.ExitStack()
        for mode in "rw":
            self.register("type", mode, lambda path, mode=mode: self._open(path, mode))

    def _open(self, path, mode):
        if path == "-" and mode == "r":  # read as a file is read
            sys.stdin.reconfigure(errors="surrogateescape")
        if path == "-":
            return sys.stdin if mode == "r" else sys.stdout
        try:
            return self.files.enter_context(open(path, mode, errors="surrogateescape"))
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"{path!r}: {exc.strerror}") from None

    def error(self, message):
        raise ValueError(re.sub(r"^argument (\S+): ", r"Invalid value for '\1': ", message)
                         .replace("unrecognized arguments", "No such option"))


def _parser(name):
    """Command name's parser, or else the top-level one, listing the commands."""
    if name not in COMMANDS:
        parser = _Parser(prog="negaseq", description=main.__doc__, epilog="commands:\n"
                         + "".join(f"  {c:<12}{run.__doc__}\n" for c, (run, _) in COMMANDS.items()))
        parser.add_argument("command", metavar="COMMAND", choices=COMMANDS,
                            help="One of the commands below.")
        return parser
    run, options = COMMANDS[name]
    parser = _Parser(prog=f"negaseq {name}", description=run.__doc__)
    for flag, kwargs in options:
        if callable(kwargs.get("default")):  # looked up only for this command
            kwargs = dict(kwargs, default=kwargs["default"]())
        parser.add_argument(flag, **kwargs)
    return parser


def _attach_values(args, options):
    """`--opt value` as `--opt=value`, so that, as in click, an option's
    value is the next argument even when it starts with '-' (`--k -5..-3`)."""
    valued = {flag for flag, kwargs in options if "action" not in kwargs}
    rest = iter(args)
    return [f"{arg}={next(rest, '')}" if arg in valued else arg for arg in rest]


def _parse_range(text: str) -> range:
    """Inclusive 'a..b' range, or a single value 'a'."""
    lo, dots, hi = text.partition("..")
    try:
        (lo,), (hi,) = tuples_mod.parse_symbols(lo), tuples_mod.parse_symbols(hi if dots else lo)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected a..b") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}; expected a..b with a <= b")
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


@contextlib.contextmanager
def _printing(n: int, k: int, power: int):
    """Word the interpreter's refusal to print a too-long integer (the band
    the estimate above lets through) like `_require_printable`.  Wrap only
    the printing: any ValueError raised there is that refusal."""
    try:
        yield
    except ValueError:
        raise _too_long(n, k, sys.get_int_max_str_digits(), power) from None


def _default_budget():
    from .search import DEFAULT_NODE_BUDGET
    return DEFAULT_NODE_BUDGET


K_OPTION = "--k", dict(required=True, help="Alphabet size (k >= 3).", type=_integer(
    3, "k must be at least 3 (got {}): negating a symbol is the identity map "
    "when k=2, so nothing here is defined"))
N_OPTION = "--n", dict(type=_integer(2), required=True, help="Window order (n >= 2).")
FORMAT_OPTION = "--format", dict(dest="fmt", choices=["text", "json"], default="text",
                                 help="Output format (default: %(default)s).")


def _echo_err(message: str) -> None:
    if sys.stderr is not None:  # fd 2 closed: drop the line, never send it to stdout
        print(message, file=sys.stderr)


def _emit(payload, fmt: str, text: str, output=None, option="--output") -> None:
    """Write the text, or the payload as one JSON line, to output or stdout."""
    if fmt == "json":
        import json

        text = json.dumps(payload, sort_keys=True) + "\n"
    output = output or sys.stdout
    try:
        if output is None:  # fd 1 closed: Python's sys.stdout is None
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        output.write(text)
        output.flush()  # a failed write raises here, not at exit
    except OSError as exc:  # exit 2, like a path that cannot be opened
        option = "stdout" if output in (None, sys.stdout) else option  # `--output -` too
        # devnull takes the bytes that the flush at close or at exit retries
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1 if output is None else output.fileno())
        _echo_err(f"Error: cannot write {option}: {exc.strerror}")
        sys.exit(2)


def main(args=None, standalone_mode=True):
    """Analyze negative orientable sequences (NOS) over Z_k, k > 2."""
    args = sys.argv[1:] if args is None else list(args)
    if sys.stdin is None:  # fd 0 closed: read it as empty, like </dev/null
        sys.stdin = open(os.devnull)
    name = args[0] if args else None
    parser = _parser(name)
    try:  # an InternalConsistencyError stays unmapped: its traceback reports a bug
        with parser.files:
            if name not in COMMANDS:
                parser.parse_args(args)  # prints the help, or raises
                parser.error(f"No such command {name!r}.")
            run, options = COMMANDS[name]
            run(**vars(parser.parse_args(_attach_values(args[1:], options))))
        code = 0
    except ValueError as exc:
        _echo_err(parser.format_usage().replace("usage:", "Usage:", 1)
                  + f"Try '{parser.prog} --help' for help.\n\nError: {exc}")
        code = 2
    except (BudgetError, NotAnNosError) as exc:
        _echo_err(str(exc))
        code = EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_INVALID
    if standalone_mode:
        sys.exit(code)
    return code


@_command(K_OPTION, ("--tuple", dict(dest="tuple_text", required=True,
                                     help="Comma-separated symbols, e.g. 0,1,2.")),
          FORMAT_OPTION)
def classify(k, tuple_text, fmt):
    """Classification flags for one tuple."""
    w = tuples_mod.Word(tuples_mod.parse_symbols(tuple_text), k)
    flags = tuples_mod.structural_flags(w)
    payload = {"tuple": str(w), "k": k, "flags": flags}
    text = f"tuple {w} over Z_{k}\n" + "".join(
        f"  {name}: {value}\n" for name, value in flags.items())
    _emit(payload, fmt, text)


@_command(("--class", dict(dest="class_name", required=True, metavar="CLASS",
                           choices=[c.value for c in tuples_mod.TupleClass],
                           help="Tuple class to count: %(choices)s.")),
          N_OPTION, K_OPTION,
          ("--enumerate", dict(dest="do_enumerate", action="store_true", help=(
              "Cross-check the closed form against brute-force enumeration."))),
          FORMAT_OPTION)
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
        _echo_err(f"enumeration found {enumerated} words, the closed form gives {value}")
        sys.exit(EXIT_INVALID)


@_command(N_OPTION, K_OPTION, FORMAT_OPTION)
def edges(n, k, fmt):
    """Edge count of the reduced de Bruijn graph."""
    from . import graph as graph_mod

    _require_printable(n, k, n)
    value = graph_mod.edge_count_formula(n, k)
    payload = {"n": n, "k": k, "edges": value,
               "vertices": k ** (n - 1)}
    with _printing(n, k, n):
        _emit(payload, fmt, f"{value}\n")


@_command(N_OPTION, K_OPTION,
          ("--vertex", dict(required=True, help=(
              "Vertex label: comma-separated symbols of length n-1."))),
          FORMAT_OPTION)
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


@_command(N_OPTION, K_OPTION, FORMAT_OPTION)
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


@_command(("--n", dict(dest="n_text", metavar="A..B", required=True,
                       help="Row range, e.g. 2..9.")),
          ("--k", dict(dest="k_text", metavar="A..B", required=True,
                       help="Column range, e.g. 3..9.")),
          ("--check-reference", dict(action="store_true", help=(
              "Compare cells against the shipped reference table."))),
          ("--reference-csv", dict(help="Override the packaged reference CSV.")),
          FORMAT_OPTION)
def table(n_text, k_text, check_reference, reference_csv, fmt):
    """Grid of period bounds (rows n, columns k)."""
    from . import bounds as bounds_mod

    n_range, k_range = _parse_range(n_text), _parse_range(k_text)
    if n_range.start < 2 or k_range.start < 3:
        raise ValueError("ranges must satisfy n >= 2 and k >= 3")
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
                    _echo_err(f"mismatch at n={c.n}, k={c.k}: {found}")
            sys.exit(EXIT_INVALID)


@_command(N_OPTION, K_OPTION,
          ("--seed-file", dict(type="r", default="-", help=(
              "Sequences to verify, one per line; default stdin."))),
          ("--property", dict(dest="prop", choices=["window", "nos", "os"], default="nos",
                              help="Property to check (default: %(default)s).")),
          FORMAT_OPTION)
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


@_command(N_OPTION, K_OPTION,
          ("--budget", dict(type=_integer(1), default=_default_budget, help=(
              "Maximum search-tree expansions (default: %(default)s)."))),
          ("--time-budget", dict(type=float, help="Wall-clock cap in seconds (> 0).")),
          ("--certificate", dict(type="w", help="Write a replayable certificate here.")),
          ("--output", dict(type="w", help=(
              "Write the result record here instead of stdout."))),
          FORMAT_OPTION)
def search(n, k, budget, time_budget, certificate, output, fmt):
    """Exhaustive (or budgeted) search for a maximum-period NOS."""
    from . import search as search_mod

    if (output is not None and certificate is not None
            and sys.stdout not in (output, certificate)
            and os.path.samefile(output.name, certificate.name)):
        raise ValueError("--output and --certificate name the same file")
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
    _echo_err(f"elapsed {result.elapsed:.3f}s, {result.expansions} expansions")
    if certificate is not None:
        _emit(None, "text", search_mod.certify(result), certificate, "--certificate")
    if not found:
        sys.exit(EXIT_INVALID)
    if not result.optimal:
        sys.exit(EXIT_BUDGET)


@_command(N_OPTION, K_OPTION,
          ("--sequence", dict(dest="sequence_text", help=(
              "Export B^-(S,n) for this sequence instead of the full graph."))),
          ("--output", dict(type="w", help="Write DOT here instead of stdout.")))
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
