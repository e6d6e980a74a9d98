"""Tests of the benchmark itself: the answer gate and the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, TRACE_METRICS, unit_of  # noqa: E402
from tracing import Tracer, layer_metric_names  # noqa: E402
from worker import import_checkout_package, iteration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import_checkout_package()


def test_flipped_dimension_fails_the_run_without_crashing(tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(os.path.join(HERE, "reference"), reference)
    table = reference / "plain_ext_p2.csv"
    header, first, *rest = table.read_text().splitlines()
    s, t, dim = first.split(",")
    table.write_text("\n".join(
        [header, f"{s},{t},{int(dim) + 1}"] + rest) + "\n")

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "plain_ext_p2", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--reference", str(reference)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0
    assert json.loads(record_line)["failed_frac"] > 0


def test_a_setup_that_raises_fails_every_operation_without_crashing():
    class BrokenSetup:
        operations = ("first", "second")

        def setup(self, seed, workdir):
            raise MemoryError("address space exhausted")

        def run(self, inputs):
            raise AssertionError("run after a failed set-up")

    result = iteration(BrokenSetup(), 1, {"first": 1, "second": 2},
                       time.monotonic())
    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert "set-up: MemoryError" in result["failures"]["first"]


def test_the_seed_orders_the_descent_modules_but_not_their_work():
    workload = WORKLOADS["structure_oracles"]

    def modules(seed):
        return [(name, M.dim) for name, _, M in workload.setup(seed, None)]

    assert modules(1) == modules(1)
    assert modules(1) != modules(2)
    assert sorted(d for _, d in modules(1)) == sorted(
        d for _, d in modules(2))


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer("unit")
    tracer.spans = [
        ["outer", 0.0, 10.0, None],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_install_counts_at_the_boundary_and_uninstall_restores():
    from hopfalg import cobar, linalg

    original = linalg.rank_fp
    tracer = Tracer("unit")
    assert tracer.install() == []
    try:
        assert cobar.linalg.rank_fp is not original
        rows = [[1, 2], [2, 4]]
        assert cobar.linalg.rank_fp(rows, 5) == 1
        assert cobar.linalg.rank_fp(rows, 5) == 1
    finally:
        tracer.uninstall()
    assert linalg.rank_fp is original
    metrics = tracer.metrics()
    assert metrics["linalg.rank_calls"] == 2
    assert metrics["linalg.elim_cells"] == 8
    assert metrics["linalg.rank_repeat_frac"] == 0.5
    assert [s[0] for s in tracer.spans].count("linalg.rank_fp") == 2


def test_a_reference_no_wrapper_replaces_is_reported_as_a_gap():
    from hopfalg import linalg

    holder = {"kernel": linalg.kernel_basis_fp}
    tracer = Tracer("unit")
    try:
        gaps = tracer.install()
    finally:
        tracer.uninstall()
    assert gaps == ["hopfalg.linalg.kernel_basis_fp: held by a dict"]
    assert holder["kernel"] is linalg.kernel_basis_fp


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == (
        list(END_TO_END) + ["ok_frac"])
    assert [m["name"] for m in spec["per_layer"]] == (
        layer_metric_names() + TRACE_METRICS)
    for m in spec["per_layer"]:
        assert m["unit"] == unit_of(m["name"]), m
