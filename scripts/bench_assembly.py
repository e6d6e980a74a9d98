#!/usr/bin/env python3
"""Timing sweep for tower assembly and the axiom suite.

Prints one line per (prime, degree cap): generator count, assembly time,
axiom-suite time.  Useful for picking degree caps before a long cobar run.
`--gens N` keeps at most N generators (`assemble_bp(max_gens=N)`), as the
p=3, D=52 tower of three generators does.

    python scripts/bench_assembly.py --primes 2 3 --degrees 16 24 32 40
    python scripts/bench_assembly.py --primes 3 --degrees 52 --gens 3
"""
import argparse
import sys
import time

from hopfalg.fgl import assemble_bp
from hopfalg.hopf import check_hopf_axioms


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--degrees", type=int, nargs="+",
                    default=[16, 24, 32, 40])
    ap.add_argument("--gens", type=int, default=None,
                    help="at most this many generators (default: all)")
    ap.add_argument("--skip-axioms", action="store_true")
    args = ap.parse_args(argv)

    print(f"{'p':>3} {'D':>4} {'gens':>5} {'assemble':>9} {'axioms':>8}")
    for p in args.primes:
        for D in args.degrees:
            t0 = time.monotonic()
            bp = assemble_bp(p, D, max_gens=args.gens)
            t1 = time.monotonic()
            if args.skip_axioms:
                ax = "-"
            else:
                v = check_hopf_axioms(bp.H, D)
                if not v.ok:
                    print(f"AXIOM FAILURE at p={p} D={D}: {v.failures[:1]}")
                    return 1
                ax = f"{time.monotonic() - t1:.2f}s"
            print(f"{p:>3} {D:>4} {bp.N:>5} {t1 - t0:>8.2f}s {ax:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
