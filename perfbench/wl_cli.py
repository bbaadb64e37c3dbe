"""`cli` workload: a fixed session of cold `python -m negaseq.cli` runs.

Every user of the command line pays interpreter start-up plus imports on
every call, so this workload measures cold starts, weighted toward the
light subcommands people run most.  Each round also runs the heavier
commands once and three usage errors that must exit 2.  The invocations
run strictly one after another.  The seed picks the parameters of the
light commands and the order of the session; the heavy commands have
fixed sizes.

A traced run replays the same session in-process through
`negaseq.cli.main(args, standalone_mode=False)`, so that spans can be
recorded around the library calls each command makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import traceback
from dataclasses import dataclass
from types import SimpleNamespace as State

import reference
import wl_search
from common import PYTHON, ROOT, WORK, Op, child_env, children_cpu_s, timed

TRACEBACK = "Traceback (most recent call last)"
EXIT_CODES = (0, 1, 2, 3)
# Class names from the README's CLI contract; all are defined for n >= 3.
CLASSES = ["negasymmetric", "uniform", "alternating", "uniform-alternating",
           "left-sns", "right-sns", "non-uniform-left-sns"]
LIGHT_REPEATS = 3
TABLE_REPEATS = 2
MIN_ROUNDS = 2  # identical invocations are compared across rounds
ALIASES = {"op_cpu_p50_s": "cli.invocation_p50_s", "op_cpu_tail_s": "cli.invocation_tail_s"}


@dataclass
class Command:
    label: str
    op_class: str
    args: list
    expected_exit: int
    outputs: tuple = ()  # files the command writes, compared across rounds
    stdout_prefix: str = ""
    valid_lines: int = -1  # for `verify`: lines that must report "valid"


def _sequence_file(rng, path, n=5, k=4, count=40):
    """Seeded sequences for `verify --seed-file`; returns the expected exit."""
    lines = ["# seeded sequences", ""]
    valid = 0
    for _ in range(count):
        symbols = rng.choices(range(k), k=rng.randint(30, 120))
        valid += reference.verdict(symbols, n, k, "nos")[0]
        lines.append(",".join(map(str, symbols)))
    path.write_text("\n".join(lines) + "\n")
    return (0 if valid == count else 1), valid


def session(rng: random.Random, work) -> list[Command]:
    cmds = []
    for _ in range(LIGHT_REPEATS):
        k = rng.randint(3, 9)
        word = ",".join(str(rng.randrange(k)) for _ in range(rng.randint(2, 6)))
        cmds.append(Command("classify", "light", ["classify", "--k", k, "--tuple", word], 0))
        cmds.append(Command("count", "light", [
            "count", "--class", rng.choice(CLASSES), "--n", rng.randint(3, 8),
            "--k", rng.randint(3, 9)], 0))
        cmds.append(Command("edges", "light", [
            "edges", "--n", rng.randint(2, 9), "--k", rng.randint(3, 9)], 0))
        n, k = rng.randint(3, 6), rng.randint(3, 6)
        vertex = ",".join(str(rng.randrange(k)) for _ in range(n - 1))
        cmds.append(Command("profile", "light", [
            "profile", "--n", n, "--k", k, "--vertex", vertex, "--format",
            rng.choice(["text", "json"])], 0))
        cmds.append(Command("bound", "light", [
            "bound", "--n", rng.randint(2, 12), "--k", rng.randint(3, 12)], 0))
    for _ in range(TABLE_REPEATS):
        cmds.append(Command("table", "light", [
            "table", "--n", "2..9", "--k", "3..9", "--check-reference"], 0))

    cmds.append(Command("count-enumerate", "heavy", [
        "count", "--class", rng.choice(CLASSES), "--n", 7, "--k", 5, "--enumerate"], 0))
    seqs = work / "sequences.txt"
    verify_exit, valid = _sequence_file(rng, seqs)
    cmds.append(Command("verify-seed-file", "heavy", [
        "verify", "--n", 5, "--k", 4, "--seed-file", seqs], verify_exit,
        valid_lines=valid))
    n, k = rng.choice([(2, k) for k in range(5, 12)] + [(3, 3)])
    cert = work / "certificate.txt"
    cmds.append(Command("search-certificate", "heavy", [
        "search", "--n", n, "--k", k, "--certificate", cert], 0, (cert,),
        stdout_prefix=f"period {wl_search.known_maximum(n, k)} (optimal)"))
    dot = work / "graph.dot"
    cmds.append(Command("export-dot", "heavy", [
        "export-dot", "--n", 6, "--k", 4, "--output", dot], 0, (dot,)))

    bad = work / "malformed.txt"
    bad.write_text("0,1,2,\n")
    cmds.append(Command("error:k2", "error", [
        "bound", "--n", rng.randint(2, 6), "--k", 2], 2))
    cmds.append(Command("error:verify-malformed-line", "error", [
        "verify", "--n", 3, "--k", 3, "--seed-file", bad], 2))
    cmds.append(Command("error:search-budget-0", "error", [
        "search", "--n", 3, "--k", 3, "--budget", 0], 2))
    rng.shuffle(cmds)
    for c in cmds:
        c.args = [str(a) for a in c.args]
    return cmds


def setup(seed: int) -> State:
    st = State()
    st.work = WORK / f"cli-{seed}-{os.getpid()}"
    shutil.rmtree(st.work, ignore_errors=True)
    st.work.mkdir(parents=True)
    st.session = session(random.Random(seed), st.work)
    st.env = child_env()
    st.first = {}
    # Warm-up: one cold start writes the byte-code cache and warms the
    # file cache for the imports.
    subprocess.run([PYTHON, "-m", "negaseq.cli", "--help"], env=st.env, cwd=ROOT,
                   capture_output=True, check=True)
    return st


def cleanup(st: State) -> None:
    shutil.rmtree(st.work, ignore_errors=True)


def _gate(st, op, cmd, code, stdout, stderr, key) -> None:
    if code not in EXIT_CODES or code != cmd.expected_exit:
        op.fail(f"exit {code}, expected {cmd.expected_exit}")
    if TRACEBACK in stderr:
        op.fail("traceback on stderr: " + stderr.strip().splitlines()[-1])
    valid = sum(line.startswith("valid") for line in stdout.splitlines())
    if cmd.valid_lines >= 0 and valid != cmd.valid_lines:
        op.fail(f"{valid} sequences reported valid, expected {cmd.valid_lines}", True)
    if not stdout.startswith(cmd.stdout_prefix):
        op.fail(f"stdout {stdout[:40]!r} lacks {cmd.stdout_prefix!r}", True)
    outputs = (stdout,) + tuple(p.read_bytes() if p.exists() else b""
                                for p in cmd.outputs)
    if st.first.setdefault(key, outputs) != outputs:
        op.fail("output differs from an identical earlier invocation", True)


def run_round(st: State, tracer=None) -> list[Op]:
    ops = []
    for i, cmd in enumerate(st.session):
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        op = Op(f"cli:{cmd.label}", cmd.op_class, 0.0)
        with timed(op, children_cpu_s):
            proc = subprocess.run([PYTHON, "-m", "negaseq.cli", *cmd.args], env=st.env,
                                  cwd=ROOT, capture_output=True, text=True)
        _gate(st, op, cmd, proc.returncode, proc.stdout, proc.stderr, i)
        ops.append(op)
    return ops




def _replay(main, args):
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    import click

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # Outside standalone mode, click returns the code of ctx.exit().
            rv = main(args, standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.Abort:
            code = 1
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print, then exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def trace_round(st: State, tracer=None) -> list[Op]:
    from negaseq import cli

    ops = []
    for i, cmd in enumerate(st.session):
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        op = Op(f"cli:{cmd.label}", cmd.op_class, 0.0)
        if tracer is not None:
            tracer.begin_op(cmd.op_class)
        with timed(op), tracer.span("cli.main") if tracer else contextlib.nullcontext():
            code, stdout, stderr = _replay(cli.main, cmd.args)
        _gate(st, op, cmd, code, stdout, stderr, i)
        ops.append(op)
    return ops


def summary_lines(ops: list[Op], rounds: int) -> list[str]:
    return []
