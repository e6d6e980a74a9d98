#!/usr/bin/env python3
"""Compare cobar cohomology across the induced-algebroid construction.

Builds the height-n quotient-localized pair from the p-typical tower, the
pair induced along the base quotient that keeps m generators, computes
stable-range Ext tables for both, and prints the tables plus their diff.
An empty diff reproduces the change-of-rings agreement; any corruption of
the induced structure shows up as a listed bidegree.

An agreement line also prints the caps D, t_1..t_N and inner, and the
degree 2(p^(N+1) - 1) of the first generator missing from the tower: no
certificate of the window exists yet, so equal tables may both be wrong.

Typical run (about 0.04 s for the two tables on a 2-core Intel Xeon; it
prints the time of each table and the total):

    python scripts/run_change_of_rings.py --degree 48 --inner 36
"""
import argparse
import sys
import time

from hopfalg.cli import emit_chart
from hopfalg.cobar import CobarComplex, compare_ext, ext_dims
from hopfalg.fgl import (
    assemble_bp,
    gen_degree,
    johnson_wilson,
    quotient_localize,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--prime", type=int, default=3)
    ap.add_argument("--degree", type=int, default=48,
                    help="internal-degree cap for the assembled tower")
    ap.add_argument("--max-gens", type=int, default=2,
                    help="number of polynomial generators to keep")
    ap.add_argument("--height", type=int, default=1,
                    help="height n of the quotient localization")
    ap.add_argument("--kept", type=int, default=1,
                    help="m: generators surviving into the induced base")
    ap.add_argument("--smax", type=int, default=3)
    ap.add_argument("--tmin", type=int, default=-32)
    ap.add_argument("--tmax", type=int, default=32)
    ap.add_argument("--inner", type=int, default=36,
                    help="inner weight cap for the stable-range dimensions")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    bp = assemble_bp(args.prime, args.degree, max_gens=args.max_gens)
    H1 = quotient_localize(bp, args.height)
    H2, f = johnson_wilson(bp, args.kept + args.height - 1, args.height)
    print(f"# source pair : {H1.name}")
    print(f"# induced pair: {H2.name} (map {f.name})")

    def table(H):
        C = CobarComplex(
            H, s_max=args.smax, t_min=args.tmin, t_max=args.tmax
        )
        return ext_dims(C, inner=args.inner)

    def timed_table(H, label):
        start = time.monotonic()
        T = table(H)
        print(f"# {label} table: {time.monotonic() - start:.2f}s")
        return T

    T1 = timed_table(H1, "source")
    print(f"\n## {H1.name}\n{emit_chart(T1)}")
    T2 = timed_table(H2, "induced")
    print(f"## {H2.name}\n{emit_chart(T2)}")

    diffs = compare_ext(T1, T2)
    print(f"# elapsed: {time.monotonic() - t0:.1f}s")
    if not diffs:
        # no certificate yet: the caps' known limits go with the verdict
        print(
            "# agreement: tables identical on the whole window; "
            f"caps D={bp.D}, t1..t{bp.N}, inner {args.inner}; "
            f"first generator missing from the tower: t{bp.N + 1} in degree "
            f"{gen_degree(args.prime, bp.N + 1)}; the window is not certified"
        )
        return 0
    print("# DISAGREEMENT at (s, t, source dim, induced dim):")
    for d in diffs:
        print(f"#   {d}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
