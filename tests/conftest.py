import time

import pytest

from pddopt.verify import run_suites


@pytest.fixture(scope="session")
def property_run():
    """Every catalogue property run once, at seed 0, and the wall time of that run."""
    t0 = time.perf_counter()
    records = run_suites("all")
    return records, time.perf_counter() - t0
