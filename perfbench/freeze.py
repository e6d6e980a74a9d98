#!/usr/bin/env python3
"""Write the reference answers of every workload from the current sources.

    python3 perfbench/freeze.py

The files under `perfbench/reference/` were written this way at the
commit that introduced the benchmark; every benchmark run compares its
answers with them.  Rewrite them only when an answer is meant to change.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, HERE)
    from worker import OUT_DIR, import_checkout_package
    from workloads import WORKLOADS

    out = os.path.join(HERE, "reference")
    import_checkout_package()
    for workload in WORKLOADS.values():
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="freeze-", dir=OUT_DIR)
        try:
            answers = workload.run(workload.setup(0, workdir))
        finally:
            shutil.rmtree(workdir)
        if set(answers) != set(workload.operations) or any(
                isinstance(a, dict) and "error" in a
                for a in answers.values()):
            print(f"{workload.name}: not frozen, answers {answers}",
                  file=sys.stderr)
            return 1
        path = os.path.join(out, workload.reference_file)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workload.freeze(answers))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
