"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload mc-small --seed 0 --seconds 25 --trace 0

Pins the BLAS thread count before numpy is imported, puts the repository's
``src`` on the import path (pddopt need not be installed) and refuses to run
when that source tree is missing. See ``perfbench/README.md``.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "pddopt" / "__init__.py").is_file():
        print(f"error: pddopt source tree not found at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
