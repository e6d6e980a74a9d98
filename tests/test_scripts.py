"""Smoke runs of the scripts in scripts/, each as a subprocess."""
import re

from conftest import run_script


def test_bench_assembly_runs():
    proc = run_script("bench_assembly.py", "--primes", 2, "--degrees", 16)
    assert proc.returncode == 0, proc.stderr


def test_bench_assembly_caps_the_generators():
    """`--gens N` reaches `assemble_bp(max_gens=N)`: the gens column reads
    N where the degree cap alone allows more."""
    rows = {}
    for gens in ((), ("--gens", 1)):
        proc = run_script("bench_assembly.py", "--primes", 3, "--degrees", 16,
                          *gens)
        assert proc.returncode == 0, proc.stderr
        p, D, n = proc.stdout.splitlines()[1].split()[:3]
        rows[gens] = (p, D, n)
    assert rows[()] == ("3", "16", "2")
    assert rows[("--gens", 1)] == ("3", "16", "1")


def test_run_change_of_rings_agrees():
    proc = run_script(
        "run_change_of_rings.py", "--prime", 3, "--degree", 24,
        "--max-gens", 2, "--smax", 1, "--tmin", -8, "--tmax", 8,
        "--inner", 16,
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        "# agreement: tables identical on the whole window; caps D=24, "
        "t1..t2, inner 16; first generator missing from the tower: t3 in "
        "degree 52; the window is not certified\n"
    ) in proc.stdout
    for label in ("source", "induced"):
        assert re.search(rf"^# {label} table: \d+\.\d\ds$", proc.stdout, re.M)
