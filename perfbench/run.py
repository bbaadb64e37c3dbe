"""negaseq benchmark: one command, three workloads, one traced mode.

    python3 perfbench/run.py --workload {search,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
Each run sets the workload up, repeats its fixed operation list in rounds
until S seconds have passed (and at least MIN_ROUNDS rounds ran), checks
every output, and prints the metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  All load comes from this one process,
a closed loop with one caller; child processes run one at a time.
See perfbench/README.md for what each metric means and predicts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from functools import partial

import spans as spans_mod
import wl_cli
import wl_search
import wl_verify
from common import PYTHON, ROOT, SRC, WORK, child_env, children_cpu_s

SETUP_PROBES = 4
LAYER_PROBES = 5
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_cpu_s": "s",
                    "op_cpu_p50_s": "s", "op_cpu_tail_s": "s"}


WORKLOADS = {"search": wl_search, "verify": wl_verify, "cli": wl_cli}


def timed_setup(wl, seed: int):
    """Set the workload up; returns the state and the CPU seconds it took,
    this process's and its children's (the cli warm-up runs in a child)."""
    c0 = time.process_time() + children_cpu_s()
    state = wl.setup(seed)
    return state, time.process_time() + children_cpu_s() - c0


def measure(round_fn, state, seconds: float, min_rounds: int):
    """Repeat round_fn until `seconds` passed and min_rounds ran.
    Returns all ops and the per-round sum of op times."""
    ops, round_times = [], []
    start = time.perf_counter()
    while len(round_times) < min_rounds or time.perf_counter() - start < seconds:
        batch = round_fn(state)
        ops += batch
        round_times.append(sum(op.seconds for op in batch))
    return ops, round_times


def tail(samples: list[float], guaranteed: int):
    """(percentile, value) by nearest rank, at the highest grid percentile
    with at least ten samples beyond it.  The percentile is chosen from
    the sample count every run reaches (MIN_ROUNDS rounds), so that it is
    the same percentile on every run."""
    ordered = sorted(samples)
    p = next((p for p in TAIL_GRID if guaranteed * (100.0 - p) / 100.0 >= 10), 100.0)
    return p, ordered[max(0, math.ceil(p * len(ordered) / 100.0) - 1)]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def setup_probe(workload: str, seed: int) -> float:
    """Set-up CPU time in a fresh interpreter, as the child measures it."""
    out = subprocess.run([PYTHON, __file__, "--workload", workload, "--seed", str(seed),
                          "--setup-only"], cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- per-layer probes ---------------------------------------------------------
#
# Like the operations, probes report CPU seconds of the process doing the
# work, so that they add up against the session's CPU time.

def python_floor_s() -> float:
    """CPU time of `python -c pass` in a child."""
    times = []
    for _ in range(LAYER_PROBES):
        c0 = children_cpu_s()
        subprocess.run([PYTHON, "-c", "pass"], check=True)
        times.append(children_cpu_s() - c0)
    return statistics.median(times)


def cli_import_s() -> float:
    """CPU time of `import negaseq.cli` in a fresh interpreter, as it measures it."""
    code = ("import time; t = time.process_time(); import negaseq.cli; "
            "print(time.process_time() - t)")
    return statistics.median(
        float(subprocess.run([PYTHON, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(LAYER_PROBES))


def cli_import_numpy_share() -> float:
    """numpy's cumulative import time over all of negaseq's, from -X importtime."""
    shares = []
    for _ in range(3):
        err = subprocess.run([PYTHON, "-X", "importtime", "-c", "import negaseq.cli"],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             check=True).stderr
        numpy_us = total_us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
            if not m:
                continue
            cumulative, nested, name = int(m[1]), bool(m[2]), m[3]
            if name == "numpy" and not numpy_us:
                numpy_us = cumulative
            if not nested and name.startswith("negaseq"):
                total_us += cumulative
        shares.append(numpy_us / total_us if total_us else 0.0)
    return statistics.median(shares)


def search_setup_large_s() -> float:
    """A one-expansion search on the large cell: the DFS set-up cost alone."""
    from negaseq import search

    (n, k), = wl_search.LARGE
    times = []
    for _ in range(3):
        c0 = time.process_time()
        search.max_nos_search(search.SearchConfig(n=n, k=k, node_budget=1))
        times.append(time.process_time() - c0)
    return statistics.median(times)


# -- metric assembly ---------------------------------------------------------

def end_to_end(workload, seed, wl, state, setup_s0, seconds):
    samples = [setup_s0] + [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    ops, round_times = measure(wl.run_round, state, seconds, wl.MIN_ROUNDS)
    per_round = len(ops) // len(round_times)
    p, tail_s = tail([op.seconds for op in ops], wl.MIN_ROUNDS * per_round)
    values = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
        "round_cpu_s": statistics.median(round_times),
        "op_cpu_p50_s": statistics.median(op.seconds for op in ops),
        "op_cpu_tail_s": tail_s,
    }
    walls = [op.wall for op in ops]
    wall_tail = tail(walls, wl.MIN_ROUNDS * per_round)[1]
    notes = {
        "setup_s": f"CPU, median of {len(samples)} set-ups in fresh interpreters",
        "round_cpu_s": f"median of {len(round_times)} rounds of {per_round} ops; "
                       f"wall {sum(walls) / len(round_times):.4g} s per round",
        "op_cpu_p50_s": f"of {len(ops)} ops; wall p50 {statistics.median(walls):.4g} s",
        "op_cpu_tail_s": f"p{p:g} of {len(ops)} ops; wall p{p:g} {wall_tail:.4g} s",
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
               for name, v in values.items()}
    lines = []
    for name, entry in metrics.items():
        alias = wl.ALIASES.get(name)
        label = f"{alias} [{name}]" if alias else name
        lines.append(f"{label} = {entry['value']:.6g} {entry['unit']}"
                     + (f" ({notes[name]})" if name in notes else ""))
    lines += wl.summary_lines(ops, len(round_times))
    return metrics, ops, lines


def layer_metrics(spans, rounds: int, setup_large: float):
    """Per-layer metrics from the spans of `rounds` traced rounds, and the
    self time of each layer."""
    s = spans_mod.summarize(spans)

    def total(name, cls=None):
        return s["by_class"].get((name, cls), 0.0) if cls else s["by_name"].get(name, 0.0)

    counts = s["counts"]  # (span name, op class) -> per-call counts

    def search_counts(cls=None):
        return [c for (name, c_cls), cs in counts.items()
                if name == "search.max_nos_search" and cls in (None, c_cls) for c in cs]

    def expansions(cls=None):
        return sum(c[0] for c in search_counts(cls))

    mid_exp = expansions("mid")
    large_calls = len(search_counts("large"))
    large_exp = expansions("large") - large_calls
    large_s = total("search.max_nos_search", "large")
    m = {
        "search.expansions": (expansions() / rounds, "count"),
        "search.cells_certified": (sum(c[1] for c in search_counts()) / rounds, "count"),
        "search.bound_gap": (sum(c[2] for c in search_counts()) / rounds, "count"),
        "search.s_per_expansion.mid": (
            total("search.max_nos_search", "mid") / mid_exp if mid_exp else 0.0, "s"),
        # Set-up excluded: the one-expansion probe measures it.
        "search.s_per_expansion.large": (
            (large_s - large_calls * setup_large) / large_exp if large_exp > 0 else 0.0, "s"),
        "search.setup_s.large": (setup_large, "s"),
        "search.certify_s": (total("search.certify") / rounds, "s"),
    }
    for fn in ("is_window_sequence", "is_nos", "is_os"):
        for cls in ("long", "short"):
            m[f"verify.{fn}_s.{cls}"] = (total(f"verify.{fn}", cls) / rounds, "s")
    for name in ("graph.sequence_subgraph", "graph.reduced_graph", "graph.vertex_profile",
                 "graph.export_dot", "tuples.enumerate_class", "tuples.count_class",
                 "bounds.nos_bound", "bounds.bound_table", "bounds.load_reference_table"):
        m[f"{name}_s"] = (total(name) / rounds, "s")
    enum_s = total("tuples.enumerate_class")
    words = sum(c for (name, _), cs in counts.items()
                if name == "tuples.enumerate_class" for c in cs)
    m["tuples.words_per_s"] = (words / enum_s if enum_s else 0.0, "1/s")
    for layer, own in s["layer_self"].items():
        m[f"{layer}.self_s"] = (own / rounds, "s")
    return m, s["layer_self"]


def per_layer(workload, wl, state, seconds):
    """Half the time untraced, half traced, then the layer probes."""
    ops, plain = measure(wl.trace_round, state, seconds / 2, 1)
    tracer = spans_mod.Tracer()
    with tracer.instrument():
        traced_ops, traced = measure(partial(wl.trace_round, tracer=tracer), state,
                                     seconds / 2, 1)
    ops += traced_ops
    metrics, layer_self = layer_metrics(tracer.spans, len(traced), search_setup_large_s())
    floor, imp = python_floor_s(), cli_import_s()
    metrics["cli.import_s"] = (imp, "s")
    metrics["cli.import_numpy_share"] = (cli_import_numpy_share(), "ratio")
    metrics["cli.python_floor_s"] = (floor, "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")

    traced_total = sum(traced)
    outside = max(0.0, traced_total - sum(layer_self.values()))
    shares = dict(layer_self, **{"outside spans": outside})
    lines = [f"self time by layer, share of {len(traced)} traced rounds "
             f"({traced_total:.4g} s, {len(tracer.spans)} spans): "
             + ", ".join(f"{layer} {own / traced_total:.1%}"
                         for layer, own in sorted(shares.items(), key=lambda kv: -kv[1]))]
    if wl.trace_round is not wl.run_round:
        # The replay runs in-process; one cold session shows what start-up adds.
        session = wl.run_round(state)
        ops += session
        cpu = sum(op.seconds for op in session)
        startup = len(session) * (floor + imp)
        lines.append(f"cold session: {cpu:.4g} s CPU for {len(session)} invocations; "
                     f"(cli.python_floor_s + cli.import_s) x {len(session)} = "
                     f"{startup:.4g} s = {startup / cpu:.1%} of it")
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{workload}-{os.getpid()}.jsonl"
    tracer.write(span_file)
    lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    return ({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            ops, lines)


def env_record(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": version("numpy"), "click": version("click"),
            "nproc": os.cpu_count(), "commit": git_commit(),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in SRC.rglob("*.py"))}


def git_commit() -> str:
    """HEAD read from the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh interpreter and print it")
    args = parser.parse_args(argv)

    if not (SRC / "negaseq" / "__init__.py").is_file():
        print(f"no negaseq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    state, setup_s0 = timed_setup(wl, args.seed)
    try:
        if args.setup_only:
            print(repr(setup_s0))
            return 0
        if args.trace:
            metrics, ops, lines = per_layer(args.workload, wl, state, args.seconds)
        else:
            metrics, ops, lines = end_to_end(args.workload, args.seed, wl, state,
                                             setup_s0, args.seconds)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(state)

    failed = [op for op in ops if op.failed]
    names = sorted({f"{op.name} ({op.why})" for op in failed})
    lines.append(f"failed_ratio = {len(failed)}/{len(ops)} = "
                 f"{len(failed) / len(ops):.4f} ratio"
                 + (f"; failing: {'; '.join(names)}" if names else ""))
    for line in lines:
        print(line)
    print(json.dumps({"env": env_record(args.workload, args.seed)}))
    print(json.dumps({"correct": not any(op.wrong for op in ops),
                      "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
