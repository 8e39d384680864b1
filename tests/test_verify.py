"""The property catalogue of ``pddopt.verify``, one test per property.

The properties run once per session (the ``property_run`` fixture); a new
invariant goes into the catalogue, not into a second hand-written test.
"""

import pytest

from pddopt.cli import main
from pddopt.verify import CATALOGUE, Property, run_suites


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


def test_raising_entry_fails_its_names_and_the_rest_still_run(monkeypatch, capsys):
    catalogue = list(CATALOGUE)
    i, entry = next((i, p) for i, p in enumerate(catalogue) if len(p.names) > 1)
    catalogue[i] = Property(entry.suite, entry.names, lambda rng: 1 / 0)   # a check that raises
    monkeypatch.setattr("pddopt.verify.CATALOGUE", catalogue)
    assert main(["verify", entry.suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    detail = "raised ZeroDivisionError: division by zero"
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {entry.suite}/{name}  [{detail}]" for name in entry.names]
    n = sum(len(p.names) for p in CATALOGUE if p.suite == entry.suite)
    assert lines[-1] == f"{n - len(entry.names)}/{n} properties passed"
