"""The property catalogue of ``pddopt.verify``, one test per property.

The properties run once per session (the ``property_run`` fixture); a new
invariant goes into the catalogue, not into a second hand-written test.
"""

import pytest

from pddopt.verify import CATALOGUE, run_suites


@pytest.mark.parametrize("key", [f"{p.suite}/{n}" for p in CATALOGUE for n in p.names])
def test_property(key, property_run):
    records, _ = property_run
    [rec] = [r for r in records if f"{r.suite}/{r.name}" == key]
    assert rec.passed, f"{key}: {rec.detail}"


def test_per_property_seeding():
    # an entry's draws depend on (seed, "suite/name") only, not on what ran before
    [entry] = [p for p in CATALOGUE if p.names == ("fd-gradient-consistency",)]
    alone = entry.run(seed=3)
    assert entry.run(seed=3) == alone
    assert [r for r in run_suites("pdd-core", seed=3) if r.name in entry.names] == alone
    assert entry.run(seed=4)[0].detail != alone[0].detail
