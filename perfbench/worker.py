"""One measurement in a fresh interpreter: set up, run one workload's passes, check.

Usage (started by run.py, one worker at a time):

    python3 perfbench/worker.py <src dir> <workload|pins> <seed> <worker> <trace 0|1> <spawn time>

The package keeps its caches in module globals and has no way to clear
them, so every cold measurement needs its own interpreter.  ``spawn time``
is the parent's ``time.monotonic()`` just before it started this process;
set-up time runs from there until the workload's inputs are built.  The last
line of standard output is one JSON object for the parent.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, workload, seed, worker = argv[0], argv[1], int(argv[2]), int(argv[3])
    trace, spawned = argv[4] == "1", float(argv[5])
    sys.path.insert(0, src)
    import qgrass

    where = os.path.realpath(qgrass.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"qgrass was imported from {where}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    res = workloads.Result()
    if workload == "pins":
        workloads.run_pins(res)
        print(json.dumps(vars(res)))
        return 0

    job = workloads.WORKLOADS[workload](seed, worker)
    setup_s = time.monotonic() - spawned
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.start()
    started = time.perf_counter()
    job.run(res, tracer.mark if tracer else None)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job.check(res, workloads.load_reference())
    out = vars(res) | {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["trace"] = tracer.summary(wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
