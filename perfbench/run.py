"""Benchmark runner for qgrass: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload table|crosscheck|sweep --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  It starts one worker
process at a time (see worker.py), each a fresh interpreter that measures one
cold pass and the warm passes, until ``--seconds`` are spent, then one more
worker that checks the README examples.  It reports medians over workers
and percentiles over the operations of all workers.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced workers and prints the per-layer metrics and
the tracing overhead.  Human-readable lines and the run record go first; the
last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The run record is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("table", "crosscheck", "sweep")
# A run must end within 180 s; workers are stopped at this many seconds.
DEADLINE_S = 170


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
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
    return "unknown"


def spawn(workload: str, seed: int, worker: int, trace: bool, deadline: float) -> dict:
    """Run one worker to completion and return its result object.

    A worker still running at ``deadline`` (a ``time.monotonic()`` value) is
    killed and reaped by subprocess.run, and TimeoutExpired is raised.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, str(seed),
            str(worker), "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(argv + [repr(spawned)], capture_output=True, text=True,
                          env=env, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[list, list]:
    """Workers until the time is spent: (untraced results, traced results).

    Untraced mode runs untraced workers only.  Traced mode alternates an
    untraced and a traced worker on the same inputs, so the difference of
    their wall times is the tracing overhead.
    """
    start = time.monotonic()
    plain, traced = [], []
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = bool(traced) if trace else len(plain) >= 3
        if enough and elapsed + last > seconds:
            break
        if plain and start + elapsed + last > deadline - 10:
            break
        t0 = time.monotonic()
        plain.append(spawn(workload, seed, len(plain), False, deadline))
        if trace:
            traced.append(spawn(workload, seed, len(traced), True, deadline))
        last = time.monotonic() - t0
    return plain, traced


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """Medians over workers; a latency percentile is taken in each worker first.

    Taking percentiles per worker keeps one worker that ran in a slow phase
    of the machine from taking over the pooled tail.
    """
    def over_workers(value) -> float:
        return statistics.median([value(r) for r in plain])

    metrics = {
        "setup_s": (over_workers(lambda r: r["setup_s"]), "s"),
        "cold_s": (over_workers(lambda r: r["cold_s"]), "s"),
        "warm_s": (over_workers(lambda r: r["warm_s"]), "s"),
        "op_p50_ms": (over_workers(lambda r: nearest_rank(r["op_ms"], 0.50)), "ms"),
        "op_p99_ms": (over_workers(lambda r: nearest_rank(r["op_ms"], 0.99)), "ms"),
        "peak_rss_mb": (over_workers(lambda r: r["peak_rss_mb"]), "MB"),
    }
    ops = min(len(r["op_ms"]) for r in plain)
    samples = {"workers": len(plain), "ops_per_worker": ops,
               "ops_beyond_p99_per_worker": ops - math.ceil(0.99 * ops)}
    return metrics, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Metrics of the median traced worker, and the tracing overhead."""
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    metrics = {name: tuple(v) for name, v in chosen["trace"]["metrics"].items()}
    untraced_s = statistics.median([r["wall_s"] for r in plain])
    overhead = statistics.median([r["wall_s"] for r in traced]) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / untraced_s, "ratio")
    return metrics, chosen["trace"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qgrass" / "__init__.py").is_file():
        print(f"error: no qgrass package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        pins = spawn("pins", args.seed, 0, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = plain + traced + [pins]
    attempted = sum(r["ops"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    errors = [e for r in workers for e in r["errors"]][:10]
    if args.trace:
        metrics, trace = per_layer(plain, traced)
        samples = {"workers_traced": len(traced), "workers_untraced": len(plain)}
    else:
        metrics, samples = end_to_end(plain)
        trace = None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": len(plain) + len(traced),
        "samples": samples,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": errors,
        "elapsed_s": time.monotonic() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_worker": {key: [r[key] for r in plain] for key in ("setup_s", "cold_s", "warm_s",
                                                                "wall_s", "peak_rss_mb")},
    }
    if trace is not None:
        record["absent"] = trace["absent"]
        record["layers_self_s"] = trace["layers_self_s"]
        record["layer_entries"] = trace["layer_entries"]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace["spans"]) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if record.get("absent"):
        print(f"absent boundaries: {', '.join(record['absent'])}")
    for error in errors:
        print(f"FAILED: {error}")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "git_sha", "python", "nproc",
                                             "workers", "samples", "fail_ratio", "elapsed_s")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
