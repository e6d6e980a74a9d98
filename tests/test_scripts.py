"""Smoke runs of the scripts in scripts/, each as a subprocess."""
import re

from conftest import run_script


def test_bench_assembly_runs():
    proc = run_script("bench_assembly.py", "--primes", 2, "--degrees", 16)
    assert proc.returncode == 0, proc.stderr


def test_run_change_of_rings_agrees():
    proc = run_script(
        "run_change_of_rings.py", "--prime", 3, "--degree", 24,
        "--max-gens", 2, "--smax", 1, "--tmin", -8, "--tmax", 8,
        "--inner", 16,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# agreement" in proc.stdout
    for label in ("source", "induced"):
        assert re.search(rf"^# {label} table: \d+\.\d\ds$", proc.stdout, re.M)
