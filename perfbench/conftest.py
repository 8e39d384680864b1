"""Test set-up for the benchmark's own tests:

    python3 -m pytest perfbench -q

Pins BLAS to one thread (as ``run.py`` does) and puts ``src`` and this
directory on the import path before any test module imports numpy.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
