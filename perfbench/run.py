#!/usr/bin/env python3
"""hopfalg benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload change_of_rings --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a checkout.  Each iteration is a fresh, single-
threaded `worker.py` process (see there), started one after another, so a
closed loop of one client.  Iterations repeat until the next one would
end after `--seconds`, with at least `MIN_ITERATIONS`.

With `--trace 0` the metrics are the end-to-end ones: the medians over
iterations of `wall_s`, `cpu_s`, `setup_s` and `peak_rss_mb`, and
`ok_frac`, the share of operations whose answer matched the reference.
With `--trace 1` the same untraced iterations run first, then one traced
iteration whose per-layer metrics are reported, together with
`trace.wall_s` and `trace.overhead_s` (traced `wall_s` minus the
untraced median).

The second-to-last stdout line is the run's record (environment stamp,
every sample, quartiles, failures); it is also written under
`.perfbench/results/`.  The last line is the result object.  The exit
code is 0 when a result is printed, even if answers mismatched; it is
non-zero, with no result, when the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ITERATIONS = 2
RUN_DEADLINE_S = 175  # every process started here has ended by then
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}  # plus ok_frac
TRACE_METRICS = ["trace.wall_s", "trace.overhead_s"]  # plus the tracer's
CHILD_ENV = {
    "PYTHONHASHSEED": "0",  # same iteration order, so counts repeat
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_frac", "_density")):
        return "ratio"
    return "count"


def run_worker(args, deadline, trace=0):
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--spawned", repr(spawned)]
    if args.reference:
        cmd += ["--reference", args.reference]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
            capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"iteration killed after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    raise BenchmarkError(f"worker exited with code {proc.returncode}:\n"
                         + proc.stderr[-2000:])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def git_sha():
    """HEAD of the repository at ROOT, or None when ROOT is none; git is
    kept from searching the directories above ROOT."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(args):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    samples = []
    while True:
        samples.append(run_worker(args, deadline))
        elapsed = time.monotonic() - start
        n = len(samples)
        if n >= MIN_ITERATIONS and elapsed * (n + 1) / n > args.seconds:
            break
    traced = run_worker(args, deadline, trace=1) if args.trace else None
    return samples, traced


def summarize(args, samples, traced, env):
    runs = samples + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    stats = {}
    for metric in END_TO_END:
        values = [r[metric] for r in samples]
        stats[metric] = {"median": statistics.median(values),
                         "quartiles": quartiles(values), "n": len(values)}
    if traced is None:
        metrics = {m: {"value": stats[m]["median"], "unit": unit}
                   for m, unit in END_TO_END.items()}
        metrics["ok_frac"] = {"value": 1 - failed / attempted,
                              "unit": "ratio"}
    else:
        layers = dict(traced["layers"])
        layers[TRACE_METRICS[0]] = traced["wall_s"]
        layers[TRACE_METRICS[1]] = (traced["wall_s"]
                                    - stats["wall_s"]["median"])
        metrics = {m: {"value": v, "unit": unit_of(m)}
                   for m, v in layers.items()}
    record = {
        "benchmark": "hopfalg",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failed_frac": failed / attempted,
        "failures": [r["failures"] for r in runs if r["failures"]],
        "gaps": traced["gaps"] if traced else None,
        "stats": stats,
        "samples": samples,
        "traced": traced,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=None,
                    help="directory of reference answers "
                         "(default: perfbench/reference)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfalg",
                                       "__init__.py")):
        print(f"perfbench: no hopfalg sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(),
           "python": platform.python_version(),
           "git_sha": git_sha(),
           "loadavg_1m_start": os.getloadavg()[0]}
    try:
        samples, traced = measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = samples[0]["numpy"]
    env["loadavg_1m_end"] = os.getloadavg()[0]
    record, result = summarize(args, samples, traced, env)

    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(out_dir, name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
