"""One timed benchmark set-up in a fresh process: import pddopt, then generate
and build the run's instances and write their files. The time runs from just
before the import of pddopt (and numpy with it) to the end of the set-up, so
interpreter start-up is not in it. Prints ``{"setup_s": ...}``;
``harness.probe_setup`` starts this process and reads the figure. The
environment (BLAS threads, PYTHONPATH) is inherited from the runner."""

import argparse
import json
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    # the workloads module imports pddopt; its own imports are stdlib only
    from workloads import WORKLOADS, case_seeds
    workload = WORKLOADS[args.workload]
    workload.setup(case_seeds(workload, args.seed), Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
