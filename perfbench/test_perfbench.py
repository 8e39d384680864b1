"""Tests of the benchmark itself (not collected by the repository's tier-1
run, whose ``testpaths`` is ``tests``)."""

import pytest

import harness
import tracing
from workloads import Multicast, RelayCli


class TinyMulticast(Multicast):
    n_groups, users_per_group = 1, 1


def _small_multicast(name="mc-tiny"):
    return TinyMulticast(name, n_t=4, n_instances=1)


def test_same_seed_gives_identical_counts_and_quality(tmp_path):
    workload = RelayCli(n_instances=2)
    runs = [harness.run(workload, seed=3, seconds=0, trace=0, work_dir=tmp_path / f"r{k}")[0]
            for k in range(2)]
    # how often the reference is repeated depends on timing, so compare per case
    a, b = ({s.case: (s.sweeps, s.inner_solves, s.check.signature()) for s in r.solves}
            for r in runs)
    assert a == b and len(a) == 3   # two seeded cases and the reference
    assert runs[0].metrics["sum_rate_nats.mean"][0] == runs[1].metrics["sum_rate_nats.mean"][0]
    assert all(r.correct and r.failed == 0 for r in runs)


def test_rescaled_beamformer_counts_as_failed(tmp_path):
    class Rescaled(TinyMulticast):
        def solve(self, case):
            w_scaled, t, trace = super().solve(case)
            return 1.01 * w_scaled, t, trace

    good = harness.run(_small_multicast(), 0, 0, 0, tmp_path / "good")[0]
    assert good.correct and good.failed == 0

    bad = harness.run(Rescaled("mc-bad", n_t=4, n_instances=1), 0, 0, 0, tmp_path / "bad")[0]
    # one seeded solve, then the reference solved MIN_REF_SOLVES times
    assert bad.attempted == 1 + harness.MIN_REF_SOLVES == bad.failed
    assert not bad.correct
    assert "power" in bad.solves[0].check.invariant_errors[0]


def test_traced_run_restores_every_wrapper_and_matches_untraced(tmp_path):
    before = tracing.snapshot_bindings()
    result, recorder = harness.run(_small_multicast(), 0, 0, 1, tmp_path)
    assert tracing.changed_bindings(before) == []
    assert result.correct and result.failed == 0
    untraced, traced = result.solves
    assert untraced.check.signature() == traced.check.signature()
    assert untraced.sweeps == traced.sweeps > 0
    names = set(recorder.names)
    assert {"bench.solve", "multicast.solve", "core.pdd_run", "core.rbsum_run",
            "multicast.step_t", "multicast.step_w", "numerics.min_eigvec_sym"} <= names


def test_wrappers_restored_after_exception():
    before = tracing.snapshot_bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.SpanRecorder()):
            assert tracing.changed_bindings(before)
            raise RuntimeError("boom")
    assert tracing.changed_bindings(before) == []


def test_self_times_partition_the_root_span():
    rec = tracing.SpanRecorder()
    with rec.span("bench.solve"):
        with rec.span("core.pdd_run"):
            with rec.span("core.rbsum_run"):
                sum(range(10_000))
            sum(range(10_000))
        with rec.span("numerics.thin_svd"):
            sum(range(10_000))
    totals = rec.totals()
    root = totals["bench.solve"][1]
    assert sum(v[2] for v in totals.values()) == pytest.approx(root, rel=1e-12)
    assert totals["core.pdd_run"][2] == pytest.approx(
        totals["core.pdd_run"][1] - totals["core.rbsum_run"][1], rel=1e-12)
