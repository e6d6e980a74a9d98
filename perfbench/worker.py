#!/usr/bin/env python3
"""One iteration of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --spawned MONOTONIC_TIME [--reference DIR]

`run.py` starts one of these per iteration, so no cache of the package
(`assemble_bp`'s `lru_cache`, the `CobarComplex` caches) outlives an
iteration.  The process caps its own address space, imports hopfalg from
the checkout's `src/`, sets up the workload's inputs, runs the timed part
and checks every answer against the frozen reference.  Its last stdout
line is one JSON object: the times, peak memory, operations attempted and
failed, and with `--trace 1` the per-layer metrics.  A set-up that raises,
say a `MemoryError` under the cap, fails every operation of the iteration;
the process still reports.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from workloads import mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
ADDRESS_SPACE_BYTES = 3 << 30  # a runaway workload fails with MemoryError


def cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, hard))


def import_checkout_package():
    """Import hopfalg from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hopfalg

    if not os.path.abspath(hopfalg.__file__).startswith(src + os.sep):
        raise ImportError(f"hopfalg imported from {hopfalg.__file__}, "
                          f"not from {src}")


def iteration(workload, seed, expected, spawned):
    """Set up and run one iteration and check its answers; returns the
    times and the failed operations."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        try:
            inputs = workload.setup(seed, workdir)
            setup_error = None
        except Exception as exc:  # counted as failed operations, never raised
            setup_error = {"error": f"set-up: {type(exc).__name__}: {exc}"}
        ready = time.monotonic()
        cpu0 = time.process_time()
        if setup_error is None:
            answers = workload.run(inputs)
        else:
            answers = dict.fromkeys(workload.operations, setup_error)
        failures = mismatches(workload.operations, answers, expected)
        wall = time.monotonic() - ready
        cpu = time.process_time() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": ready - spawned,
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(workload.operations),
        "failed": len(failures),
        "failures": {name: repr(answers.get(name))[:300] for name in failures},
    }


def main(argv=None):
    cap_address_space()
    from workloads import WORKLOADS, load_expected

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference"))
    args = ap.parse_args(argv)

    import_checkout_package()
    workload = WORKLOADS[args.workload]
    expected = load_expected(workload, args.reference)
    run_id = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    result = iteration(workload, args.seed, expected, args.spawned)

    import numpy

    result.update(
        run=run_id,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=numpy.__version__,
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["gaps"] = tracer.gaps
        spans_dir = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, run_id + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
