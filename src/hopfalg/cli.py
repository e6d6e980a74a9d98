"""Batch front door.

Subcommands: `ring check`, `hopf axioms`, `hopf bp`, `morita check`,
`comodule check`, `ext`, `oracle groupoid`, `descent`.  All state lives
in files; outputs are deterministic (sorted JSON, fixed table layouts):
two runs on the same files print the same bytes.

Exit codes: 0 = all verified properties pass, 1 = a property failed,
2 = input error, 3 = search budget exceeded / infinite basis, 4 =
internal error (an invariant of the computation broke, such as d^2 != 0
or a cobar differential leaving its enumerated basis: a bug, not bad
input).  Input validation raises ParseError or InputError; any other
ValueError is an internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    HopfAlgError,
    InfiniteBasis,
    InputError,
    NotACover,
    ParseError,
    SearchBudgetExceeded,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_algebroid(path):
    from . import files

    if os.path.isdir(path):
        path = os.path.join(path, "algebroid.ini")
    return files.parse_algebroid(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ring_check(args):
    from . import files

    P = files.parse_presentation(args.file)
    bound = args.degree if args.degree is not None else min(P.truncation, 24)
    sizes = {}
    for t in range(-bound, bound + 1):
        sizes[t] = len(P.degree_basis(t))
    _emit(
        {
            "schema": 1,
            "file": os.path.basename(args.file),
            "generators": len(P.gens),
            "relations": len(P.rules),
            "inverted": sorted(P.names[i] for i in P.inverted),
            "truncation": P.truncation,
            "basis_sizes": {str(t): n for t, n in sizes.items() if n},
            "verdict": "pass",
        }
    )
    return EXIT_OK


def cmd_hopf_axioms(args):
    from .hopf import check_hopf_axioms

    H = _load_algebroid(args.path)
    bound = args.bound if args.bound is not None else H.Gamma.truncation
    v = check_hopf_axioms(H, bound)
    _emit(
        {
            "schema": 1,
            "algebroid": H.name or os.path.basename(args.path),
            "bound": bound,
            "ok": v.ok,
            "failures": v.failures,
        }
    )
    return EXIT_OK if v.ok else EXIT_FAIL


def cmd_hopf_bp(args):
    from . import files
    from .fgl import assemble_bp

    bp = assemble_bp(args.prime, args.degree, max_gens=args.max_gens)
    alg_path, base_path = files.write_algebroid(bp.H, args.out)
    print(alg_path)
    print(base_path)
    return EXIT_OK


def _load_witness(f, path):
    from . import files
    from .morita import identity_witness

    cp = files.read_config(path)
    if not cp.has_section("witness"):
        raise ParseError("witness file needs a [witness] section")
    kind = cp.get("witness", "kind", fallback="")
    if kind != "identity":
        raise ParseError(f"unsupported witness kind {kind!r}")
    return identity_witness(f)


def cmd_morita_check(args):
    from . import files
    from .morita import theoremD_verdict

    f = files.parse_map(args.mapfile)
    witness = None
    if args.flat_witness:
        witness = _load_witness(f, args.flat_witness)
    cert = theoremD_verdict(
        f, witness=witness, assume_flat=args.assume_flat, bound=args.degree
    )
    _emit(cert.to_dict())
    if cert.status == "no" or cert.inconsistent:
        return EXIT_FAIL
    return EXIT_OK


def cmd_comodule_check(args):
    from . import files
    from .comodule import check_comodule

    H = _load_algebroid(args.algebroid) if args.algebroid else None
    M = files.parse_comodule(args.file, H=H)
    v = check_comodule(M, bound=args.bound)
    _emit(
        {
            "schema": 1,
            "comodule": M.name,
            "generators": len(M.gens),
            "ok": v.ok,
            "failures": v.failures,
        }
    )
    return EXIT_OK if v.ok else EXIT_FAIL


def emit_chart(T):
    """ASCII grid: column n = t - s, row s, cell = dim (blank when 0)."""
    n_min = T.t_min - T.s_max
    n_max = T.t_max
    width = max(4, len(str(n_min)) + 1)
    lines = []
    header = "s\\n".rjust(4) + "".join(
        str(n).rjust(width) for n in range(n_min, n_max + 1)
    )
    lines.append(header)
    for s in range(T.s_max, -1, -1):
        row = str(s).rjust(4)
        for n in range(n_min, n_max + 1):
            t = n + s
            d = T.dims.get((s, t), 0) if T.t_min <= t <= T.t_max else 0
            row += (str(d) if d else "").rjust(width)
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def cmd_ext(args):
    from . import files
    from .cobar import CobarComplex, ext_dims

    H = _load_algebroid(args.algebroid)
    M = None
    if args.comodule:
        M = files.parse_comodule(args.comodule, H=H)
    C = CobarComplex(
        H, M=M, s_max=args.smax, t_min=args.tmin, t_max=args.tmax
    )
    T = ext_dims(C, inner=args.inner)
    if args.format == "csv":
        sys.stdout.write(T.to_csv())
    elif args.format == "json":
        _emit(T.to_dict())
    else:
        sys.stdout.write(emit_chart(T))
    return EXIT_OK


def cmd_oracle_groupoid(args):
    from . import files
    from .groupoid import (
        DEFAULT_BUDGET,
        analyze_map,
        catalog_rings,
        evaluate_groupoid,
    )

    budget = args.budget or DEFAULT_BUDGET
    rings = catalog_rings()
    if args.rings:
        wanted = set(args.rings.split(","))
        rings = [R for R in rings if R.name in wanted]
        if not rings:
            raise ParseError(f"no catalog ring matches {args.rings!r}")
    is_map = False
    try:
        cp = files.read_config(args.path)
        is_map = cp.has_section("map")
    except (OSError, ParseError):
        pass
    reports = []
    if is_map:
        f = files.parse_map(args.path)
        for R in rings:
            reports.append(analyze_map(f, R, budget=budget).to_dict())
    else:
        H = _load_algebroid(args.path)
        for R in rings:
            G = evaluate_groupoid(H, R, budget=budget)
            reports.append(
                {
                    "ring": R.name,
                    "objects": len(G.objects),
                    "morphisms": len(G.morphisms),
                    "groupoid_laws": "corroborated",
                }
            )
    _emit({"schema": 1, "source": os.path.basename(args.path), "reports": reports})
    return EXIT_OK


def cmd_descent(args):
    import random

    from .groupoid import (
        check_descent,
        field_extension_cover,
        free_module,
        projection_noncover,
        random_module,
    )

    rng = random.Random(args.seed)
    results = []
    code = EXIT_OK
    if args.planted_noncover:
        R, algs = projection_noncover()
        M = free_module(R, 1)
        try:
            check_descent(algs, M)
        except NotACover as exc:
            results.append({"cover": "planted non-cover", "refuted": str(exc)})
        else:
            results.append(
                {"cover": "planted non-cover", "error": "was not refuted"}
            )
            code = EXIT_FAIL
    else:
        for p, q in ((2, 4), (3, 9)):
            R, algs = field_extension_cover(p, q)
            for k in range(args.modules):
                M = random_module(R, rng, max_dim=args.max_dim)
                probe = algs[0] if args.purity else None
                v = check_descent(algs, M, purity_probe=probe)
                results.append(
                    {
                        "cover": f"F_{p} -> F_{q}",
                        "module_dim": M.dim,
                        "ok": v.ok,
                        "failures": v.failures,
                    }
                )
                if not v.ok:
                    code = EXIT_FAIL
    _emit({"schema": 1, "seed": args.seed, "results": results})
    return code


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopfalg",
        description="exact computer algebra for graded Hopf algebroids",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring").add_subparsers(dest="sub", required=True)
    rc = ring.add_parser("check")
    rc.add_argument("file")
    rc.add_argument("--degree", type=int, default=None)
    rc.set_defaults(func=cmd_ring_check)

    hopf = sub.add_parser("hopf").add_subparsers(dest="sub", required=True)
    ha = hopf.add_parser("axioms")
    ha.add_argument("path")
    ha.add_argument("--bound", type=int, default=None)
    ha.set_defaults(func=cmd_hopf_axioms)
    hb = hopf.add_parser("bp")
    hb.add_argument("--prime", type=int, required=True)
    hb.add_argument("--degree", type=int, required=True)
    hb.add_argument("--max-gens", type=int, default=None)
    hb.add_argument("--out", required=True)
    hb.set_defaults(func=cmd_hopf_bp)

    morita = sub.add_parser("morita").add_subparsers(dest="sub", required=True)
    mc = morita.add_parser("check")
    mc.add_argument("mapfile")
    mc.add_argument("--degree", type=int, default=None)
    mc.add_argument("--flat-witness", default=None)
    mc.add_argument("--assume-flat", action="store_true")
    mc.set_defaults(func=cmd_morita_check)

    com = sub.add_parser("comodule").add_subparsers(dest="sub", required=True)
    cc = com.add_parser("check")
    cc.add_argument("file")
    cc.add_argument("--algebroid", default=None)
    cc.add_argument("--bound", type=int, default=None)
    cc.set_defaults(func=cmd_comodule_check)

    ext = sub.add_parser("ext")
    ext.add_argument("algebroid")
    ext.add_argument("--comodule", default=None)
    ext.add_argument("--smax", type=int, required=True)
    ext.add_argument("--tmin", type=int, required=True)
    ext.add_argument("--tmax", type=int, required=True)
    ext.add_argument("--format", choices=("csv", "json", "chart"), default="csv")
    ext.add_argument("--parallel", type=int, choices=(1,), default=1,
                     help="kept for existing scripts; the table is computed "
                     "serially, so only 1 is accepted")
    ext.add_argument("--inner", type=int, default=None)
    ext.set_defaults(func=cmd_ext)

    oracle = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    og = oracle.add_parser("groupoid")
    og.add_argument("path")
    og.add_argument("--rings", default=None)
    og.add_argument("--budget", type=int, default=None)
    og.set_defaults(func=cmd_oracle_groupoid)

    de = sub.add_parser("descent")
    de.add_argument("--modules", type=int, default=5)
    de.add_argument("--max-dim", type=int, default=3)
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--purity", action="store_true")
    de.add_argument("--planted-noncover", action="store_true")
    de.set_defaults(func=cmd_descent)

    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfiniteBasis, SearchBudgetExceeded) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except HopfAlgError as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (AssertionError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
