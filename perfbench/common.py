"""Shared pieces: where the checkout is, how children are started, and the
record of one benchmark operation."""

from __future__ import annotations

import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


PYTHON = sys.executable


def children_cpu_s() -> float:
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Op:
    """One timed operation of a round.

    `seconds` is CPU time of the process that did the work, `wall` its
    wall-clock time (see README.md for why the metrics use CPU time).
    `failed` marks an operation the program did not complete as its
    contract says (an exception, a wrong exit code, a traceback); `wrong`
    marks a result that a gate found incorrect.  A wrong result is also a
    failed operation."""

    name: str
    op_class: str
    seconds: float
    failed: bool = False
    wrong: bool = False
    why: str = ""
    result: tuple = ()
    wall: float = 0.0

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.why = f"{self.why}; {why}" if self.why else why


@contextmanager
def timed(op: Op, clock=time.process_time):
    """Time the block into op.seconds (by `clock`) and op.wall."""
    c0, w0 = clock(), time.perf_counter()
    try:
        yield
    finally:
        op.seconds = clock() - c0
        op.wall = time.perf_counter() - w0
