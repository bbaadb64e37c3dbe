import contextlib
import io
import os
import signal
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from negaseq import flow as flow_mod
from negaseq.tuples import Word, decode, negasymmetric_codes

# Seconds each phase of a test (setup, call, teardown) may run.  The slowest
# test takes about 6 s; a search whose cut stops firing never finishes, and
# must fail instead of hanging.  The limit wraps the setup phase too, because
# module-scoped fixtures in test_acceptance.py run unbudgeted searches there.
TEST_TIME_LIMIT = 60


@contextlib.contextmanager
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on this platform
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test phase ran past its {TEST_TIME_LIMIT} s limit",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _time_limit():
        return (yield)


def nega_reverse_code(code: int, n: int, k: int) -> int:
    """Code of -u^R given the code of u, one symbol at a time: the per-code
    oracle for the search's partner step and for the graph's non-edges."""
    out = 0
    for _ in range(n):
        code, r = divmod(code, k)
        out = out * k + ((-r) % k)
    return out


def edge_count(g) -> int:
    """Edges of a `ReducedGraph`, counted from its bitmap: the oracle for
    the closed form `edge_count_formula`."""
    return int.from_bytes(g.edge_bitmap(), "big").bit_count()


def vertex_words(n: int, k: int) -> list[Word]:
    """The k^(n-1) vertices of the order-n graph as words, in code order."""
    return [Word(decode(v, n - 1, k), k) for v in range(k ** (n - 1))]


def counted_degrees(n: int, k: int) -> list[tuple[int, int]]:
    """(in, out) of each vertex of the order-n graph, in code order: its
    in-edges y.v and out-edges v.x counted over the codes that
    `negasymmetric_codes` does not list.  The oracle for the degrees that
    `vertex_profile` reads off the sns flags."""
    non_edges, num_vertices = set(negasymmetric_codes(n, k)), k ** (n - 1)
    return [(sum(y * num_vertices + v not in non_edges for y in range(k)),
             sum(v * k + x not in non_edges for x in range(k)))
            for v in range(num_vertices)]


def src_env():
    """Environment for a child interpreter that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run_cli(args, input=None) -> CliResult:
    """Run `negaseq.cli.main` on args in this process, with input (a str) as
    its stdin.  An exception other than SystemExit propagates."""
    from negaseq.cli import main

    stdin = io.TextIOWrapper(io.BytesIO((input or "").encode()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, out, err
    try:
        code = main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture
def dfs_only(monkeypatch):
    """The search without its stop at the flow bound: the DFS traversal that
    the search pins in test_search.py were recorded from.  The flow bound
    gives up (returns None), as it does past its deadline, so the target
    stays `nos_bound`."""
    monkeypatch.setattr(flow_mod, "flow_bound", lambda n, k, deadline: None)
