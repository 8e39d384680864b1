from dataclasses import asdict, fields

import numpy as np
import pytest

from pddopt.core import (
    BlockProblem,
    PddConfig,
    pdd_run,
    rbsum_run,
    stationarity_residuals,
)
from pddopt.errors import (
    InvalidInputError,
    NumericalFailureError,
    UnsupportedOperationError,
)
from pddopt.verify import Quad3, ToyEquality


class ScriptedConstraint(BlockProblem):
    """step() walks through a preset list of scalar iterates (for branch tests)."""

    n_blocks = 1

    def __init__(self, values):
        self.values = list(values)
        self.pos = -1

    def constraint(self, z):
        return np.array([z])

    def al_value(self, z, lam, rho):
        return 0.0

    def step(self, i, z, lam, rho):
        self.pos += 1
        return self.values[self.pos]


@pytest.fixture
def quad3():
    return Quad3.random(np.random.default_rng(0))


class TestPddConfig:
    def test_defaults_valid(self):
        PddConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(mode="foo"), dict(rho0=0.0), dict(rho0=-1.0), dict(c=0.0),
        dict(c=1.0), dict(tau=1.5), dict(eps0=0.0), dict(tau=0.0),
        dict(max_outer=0), dict(max_inner=0), dict(inner_stop="bogus"),
        dict(inner_stop="iteration-cap"), dict(eps_outer=-1.0), dict(eps_min=-1e-3),
        dict(seed=-1),
        dict(max_outer="abc"), dict(rho0=None), dict(c=[0.5]), dict(tau="0.9"),
        dict(max_inner=2.5), dict(max_outer=3.0), dict(max_inner=True),
        dict(rho0=True), dict(seed=1.0), dict(eps_outer=float("nan")),
    ])
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(InvalidInputError, match=f"^{name} must"):
            PddConfig(**kwargs)

    def test_fields(self):
        assert [f.name for f in fields(PddConfig)] == [
            "mode", "rho0", "c", "tau", "eps0", "max_outer", "max_inner",
            "eps_outer", "inner_stop", "seed", "eps_min"]

    def test_integers_accepted_for_float_fields(self):
        cfg = PddConfig(rho0=2, eps0=1, eps_outer=0, eps_min=0)
        assert (cfg.rho0, cfg.eps0, cfg.eps_outer, cfg.eps_min) == (2, 1, 0, 0)
        PddConfig(max_outer=np.int64(3), rho0=np.float64(0.5))


class TestAppDefaultConfigs:
    """Each app's ``default_config`` on one fixed instance, field by field."""

    def test_multicast(self):
        from pddopt import multicast as mc

        inst = mc.gen_instance(8, 4, 2, 10.0, seed=0)
        assert asdict(mc.default_config(inst, seed=3)) == dict(
            mode="pdd", rho0=4.0, c=0.6, tau=0.9, eps0=1e-3, max_outer=50,
            max_inner=100, eps_outer=1e-4, inner_stop="residual", seed=3,
            eps_min=1e-5)

    def test_relay(self):
        from pddopt import relay as rl

        inst = rl.gen_instance(4, 4, 4, 10.0, seed=0)
        assert asdict(rl.default_config(inst, seed=3)) == dict(
            mode="pdd", rho0=31.25, c=0.6, tau=0.99, eps0=1e-3, max_outer=30,
            max_inner=100, eps_outer=1e-3, inner_stop="objective-progress", seed=3,
            eps_min=1e-5)

    def test_volmin(self):
        from pddopt import volmin as vm

        inst, _ = vm.gen_data(10, 3, 200, 0.8, None, seed=0)
        assert asdict(vm.default_config(inst, seed=3)) == dict(
            mode="pdd", rho0=2.0, c=0.6, tau=0.9, eps0=1e-3, max_outer=30,
            max_inner=100, eps_outer=1e-4, inner_stop="objective-progress", seed=3,
            eps_min=0.0)


class TestBranchLogic:
    def test_dual_and_penalty_branches_exact(self):
        # h values chosen to force dual (<= eta), then penalty, then dual
        h_script = [0.5, 2.0, 0.1]
        prob = ScriptedConstraint(h_script)
        cfg = PddConfig(mode="pdd", rho0=2.0, c=0.5, tau=0.9, eps0=1e-3,
                        max_outer=3, max_inner=1, eps_outer=0.0)
        z, lam, trace = pdd_run(prob, 0.0, np.zeros(1), cfg)
        recs = trace.records
        # eta_1 = max(1, |h(z0)|) = 1 at z0 = 0
        assert recs[0].eta == 1.0
        # k=1: h=0.5 <= eta=1.0 -> dual branch: lam jumps by h/rho, rho kept
        assert recs[0].branch == "dual-update"
        lam1 = 0.0 + 0.5 / 2.0
        # k=2: eta = 0.9*min(1.0, 0.5) = 0.45; h=2.0 > eta -> penalty branch
        assert recs[1].branch == "penalty-decrease"
        assert recs[1].eta == pytest.approx(0.9 * 0.5)
        assert recs[1].rho == 2.0
        # k=3: rho halved, eta = 0.9*min(0.45, 2.0) = 0.405, h=0.1 -> dual
        assert recs[2].branch == "dual-update"
        assert recs[2].rho == 1.0
        assert lam[0] == lam1 + 0.1 / 1.0  # float-exact dual update identity

    def test_rho_monotone_and_floor(self):
        # h = 10 > eta every time: 30 penalty steps; 2 * 0.5**27 is the first
        # below the 1e-8 * rho0 floor, so steps 27..30 are clamped
        prob = ScriptedConstraint([10.0] * 30)
        cfg = PddConfig(mode="pdd", rho0=2.0, c=0.5, eps0=1e-3, max_outer=30,
                        max_inner=1, eps_outer=0.0)
        _, _, trace = pdd_run(prob, 0.0, np.zeros(1), cfg)
        rhos = trace.column("rho")
        assert all(r2 <= r1 for r1, r2 in zip(rhos, rhos[1:]))
        assert rhos[:27] == [2.0 * 0.5**k for k in range(27)]
        assert rhos[27:] == [1e-8 * 2.0] * 3
        assert trace.rho_floor_hits == 4

    def test_ipdd_updates_both_every_iteration(self):
        prob = ScriptedConstraint([1.0, 1.0, 1.0])
        cfg = PddConfig(mode="ipdd", rho0=1.0, c=0.5, eps0=1e-3, max_outer=3,
                        max_inner=1, eps_outer=0.0)
        _, lam, trace = pdd_run(prob, 0.0, np.zeros(1), cfg)
        assert [r.branch for r in trace.records] == ["dual+penalty"] * 3
        assert trace.column("rho") == [1.0, 0.5, 0.25]
        # lam accumulates h/rho_k every iteration
        assert lam[0] == pytest.approx(1.0 / 1.0 + 1.0 / 0.5 + 1.0 / 0.25)


class TestRbsum:
    def test_single_block_al_constant_after_first(self):
        prob = ToyEquality()
        lam, rho = np.array([0.2]), 0.7
        z = np.array([4.0, 1.0])
        vals = []
        for _ in range(5):
            z, _, _ = rbsum_run(prob, z, lam, rho, max_inner=1)
            vals.append(prob.al_value(z, lam, rho))
        assert vals[1:] == [vals[0]] * 4

    def test_descent_check_flags_ascent(self):
        class Ascending(BlockProblem):
            n_blocks = 1

            def constraint(self, z):
                return np.zeros(0)

            def al_value(self, z, lam, rho):
                return float(z)

            def step(self, i, z, lam, rho):
                return z + 1.0

        with pytest.raises(NumericalFailureError):
            rbsum_run(Ascending(), 0.0, np.zeros(0), 1.0, max_inner=3)

    def test_nan_al_raises(self):
        class NanProblem(ToyEquality):
            def al_value(self, z, lam, rho):
                return float("nan")

        with pytest.raises(NumericalFailureError):
            rbsum_run(NanProblem(), np.array([1.0]), np.zeros(1), 1.0)


class TestStationarityResiduals:
    def test_unconstrained_equals_minus_gradient(self, quad3):
        z = np.array([1.0, -2.0, 0.5])
        r = stationarity_residuals(quad3, z, np.zeros(0), 1.0)
        np.testing.assert_allclose(r, -(quad3.Q @ z - quad3.b), atol=1e-12)

    def test_projected_block_interior_zero_gradient(self):
        class BoxBlock(Quad3):
            def block_prox(self, i):
                return lambda v: np.clip(v, -10.0, 10.0)

        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3))
        prob = BoxBlock(M @ M.T + np.eye(3), np.zeros(3))
        r = stationarity_residuals(prob, np.zeros(3), np.zeros(0), 1.0)
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_prox_block_is_prox_gradient_step(self):
        class ClipBlock(ToyEquality):
            def block_prox(self, i):
                return lambda v: np.clip(v, -0.5, 0.5)

        prob = ClipBlock()
        z = np.array([2.0, 0.25])
        duals = np.array([0.1])
        g = prob.al_block_gradient(0, z, duals, 1.0)
        r = stationarity_residuals(prob, z, duals, 1.0)
        np.testing.assert_array_equal(r, z - np.clip(z - g, -0.5, 0.5))
        assert np.abs(r).max() < np.abs(g).max()  # the set absorbs part of the gradient

    def test_unsupported_without_gradients(self):
        with pytest.raises(UnsupportedOperationError):
            stationarity_residuals(ScriptedConstraint([0.0]), 0.0, np.zeros(1), 1.0)


class TestPddRunSchedules:
    def test_eta_and_eps_schedules(self):
        prob = ScriptedConstraint(list(np.linspace(2.0, 0.1, 10)))
        cfg = PddConfig(mode="pdd", rho0=1.0, c=0.7, tau=0.9, eps0=1e-2,
                        max_outer=10, max_inner=1, eps_outer=0.0)
        _, _, trace = pdd_run(prob, 0.0, np.zeros(1), cfg)
        etas = trace.column("eta")
        hs = trace.column("h_inf")
        for k in range(1, len(etas)):
            assert etas[k] == pytest.approx(0.9 * min(etas[k - 1], hs[k - 1]))
            assert etas[k] <= 0.9 * etas[k - 1] + 1e-15

    def test_eps_floor(self, monkeypatch):
        from pddopt import core

        eps = []

        def recording(*args, **kwargs):
            eps.append(kwargs["eps_inner"])
            return rbsum_run(*args, **kwargs)

        monkeypatch.setattr(core, "rbsum_run", recording)
        prob = ScriptedConstraint([1.0] * 6)
        cfg = PddConfig(rho0=1.0, c=0.5, eps0=1e-2, eps_min=4e-3, max_outer=6,
                        max_inner=1, eps_outer=0.0)
        pdd_run(prob, 0.0, np.zeros(1), cfg)
        # eps shrinks by c: 1e-2, 5e-3, then the 4e-3 floor
        assert eps == [1e-2, 5e-3, 4e-3, 4e-3, 4e-3, 4e-3]

    def test_dual_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            pdd_run(ToyEquality(), np.array([1.0, 0.0]), np.zeros(3), PddConfig())

    def test_termination_needs_inner_accuracy(self):
        # feasible from the start, but eps_k must fall below eps_outer first
        cfg = PddConfig(mode="pdd", rho0=1.0, c=0.5, eps0=1.0, eps_outer=1e-1,
                        max_outer=20, max_inner=3)
        _, _, trace = pdd_run(ToyEquality(), np.array([1.0, 0.0, 0.0]),
                              np.array([-2.0]), cfg)
        assert trace.converged
        assert len(trace.records) >= 4  # eps: 1.0, .5, .25, .125, .0625 <= 0.1


class RecordingToy(ToyEquality):
    """ToyEquality whose duals are a fresh tuple per ``unpack_duals`` call; logs
    each unpack and the duals and rho of every AL call, in order."""

    def __init__(self):
        self.log = []

    def unpack_duals(self, lam, rho):
        duals = (lam.copy(),)
        self.log.append(("unpack", duals, rho, lam.copy()))
        return duals

    def al_value(self, z, duals, rho):
        self.log.append(("al_value", duals, rho, z))
        return super().al_value(z, duals[0], rho)

    def step(self, i, z, duals, rho):
        z = super().step(i, z, duals[0], rho)
        self.log.append(("step", duals, rho, z))
        return z

    def al_block_gradient(self, i, z, duals, rho):
        self.log.append(("al_block_gradient", duals, rho, z))
        return super().al_block_gradient(i, z, duals[0], rho)


class TestDualsContract:
    @pytest.mark.parametrize("mode", ["pdd", "ipdd"])
    def test_unpacked_once_per_outer_iteration(self, mode):
        prob = RecordingToy()
        # a weak initial penalty leaves |h| above eta_k after the first dual
        # step, so PDD takes both branches
        cfg = PddConfig(mode=mode, rho0=100.0, c=0.5, eps0=1e-2, max_outer=8,
                        inner_stop="residual", max_inner=3, eps_outer=0.0)
        lam0 = np.array([0.3])
        _, lam_final, trace = pdd_run(prob, np.array([4.0, 1.0]), lam0, cfg)
        starts = [j for j, entry in enumerate(prob.log) if entry[0] == "unpack"]
        assert len(starts) == len(trace.records)
        lam = lam0
        for rec, a, b in zip(trace.records, starts, starts[1:] + [len(prob.log)]):
            _, duals, rho, unpacked = prob.log[a]
            assert rho == rec.rho and np.array_equal(unpacked, lam)
            calls = prob.log[a + 1:b]
            assert {name for name, *_ in calls} == {"al_value", "step", "al_block_gradient"}
            assert all(d is duals and r == rho for _, d, r, _ in calls)
            if rec.branch != "penalty-decrease":
                z_last = [z for name, _, _, z in calls if name == "step"][-1]
                lam = lam + prob.constraint(z_last) / rho
        assert np.array_equal(lam, lam_final)
        branches = {rec.branch for rec in trace.records}
        assert branches == ({"dual+penalty"} if mode == "ipdd"
                            else {"dual-update", "penalty-decrease"})


class TestTrace:
    def test_h_inf_non_increasing_on_dual_subsequence(self):
        # toy run with dual updates every iteration: the recorded h_inf
        # must be non-increasing along the dual-branch subsequence
        cfg = PddConfig(mode="ipdd", rho0=1.0, c=0.8, eps0=1e-3, max_outer=20,
                        max_inner=1, eps_outer=0.0)
        _, _, trace = pdd_run(ToyEquality(), np.array([4.0, 2.0]), np.zeros(1), cfg)
        hs = [h for h, branch in zip(trace.column("h_inf"), trace.column("branch"))
              if "dual" in branch]
        assert len(hs) == 20
        assert all(h2 <= h1 + 1e-15 for h1, h2 in zip(hs, hs[1:]))


class InfeasiblePair(BlockProblem):
    """min x^2 s.t. x = a and x = b, a != b: no point is feasible, and
    ||h||^2 >= (a - b)^2 / 2 everywhere. One block with exact AL minimization;
    ``floor`` is what :meth:`constraint_floor` reports."""

    n_blocks = 1

    def __init__(self, a, b, floor):
        self.a, self.b, self.floor = a, b, floor

    def constraint(self, z):
        return np.array([z - self.a, z - self.b])

    def objective(self, z):
        return z * z

    def al_value(self, z, lam, rho):
        h = self.constraint(z)
        return float(z * z + lam @ h + h @ h / (2.0 * rho))

    def step(self, i, z, lam, rho):
        return ((self.a + self.b) / rho - lam.sum()) / (2.0 + 2.0 / rho)

    def constraint_floor(self):
        return self.floor, 2


class FlooredScript(ScriptedConstraint):
    """ScriptedConstraint over 2-vectors ``(data part, copy part)``, with a
    floor on the square of the data part."""

    def __init__(self, values, floor):
        super().__init__(values)
        self.floor = floor

    def constraint(self, z):
        return np.asarray(z, dtype=float)

    def constraint_floor(self):
        return self.floor, 1


def _records_without_time(trace):
    return [{**asdict(r), "time_s": None} for r in trace.records]


class TestInfeasibleFloorStop:
    CFG = PddConfig(rho0=1.0, c=0.5, eps0=1e-3, max_outer=40, max_inner=20)

    def test_stops_at_the_floor(self):
        _, _, trace = pdd_run(InfeasiblePair(1.0, 3.0, 2.0), 0.0, np.zeros(2), self.CFG)
        assert trace.stop_reason == "infeasible-floor"
        assert not trace.converged
        assert len(trace.records) < self.CFG.max_outer
        hs = trace.column("h_inf")
        assert abs(hs[-1] - hs[-4]) <= 0.01 * hs[-4]

    def test_floor_zero_runs_to_max_outer(self):
        floored = pdd_run(InfeasiblePair(1.0, 3.0, 2.0), 0.0, np.zeros(2), self.CFG)[2]
        off = pdd_run(InfeasiblePair(1.0, 3.0, 0.0), 0.0, np.zeros(2), self.CFG)[2]
        assert (off.stop_reason, off.converged) == ("max_outer", False)
        assert len(off.records) == self.CFG.max_outer
        # the stop only adds an exit: the floored run is a prefix of the plain one
        n = len(floored.records)
        assert _records_without_time(floored) == _records_without_time(off)[:n]
        # the plain run's values, as the loop made them before the floor stop
        assert off.column("h_inf")[:5] == [2.0, 1.5, 1.25, 1.125, 1.0625]
        assert off.column("branch") == ["dual-update"] * 4 + ["penalty-decrease"] * 36
        assert off.records[11].al_value == 139.999878875969
        assert off.rho_floor_hits == 10
        assert n == 12

    def _stop_k(self, values, floor=1.0):
        prob = FlooredScript(values, floor)
        cfg = PddConfig(rho0=1.0, c=0.5, eps0=1e-3, max_outer=len(values),
                        max_inner=1, eps_outer=1e-4)
        _, _, trace = pdd_run(prob, np.zeros(2), np.zeros(2), cfg)
        return len(trace.records), trace.stop_reason

    def test_waits_for_the_copy_part(self):
        # data part at the floor and h_inf flat from k = 1, but the copy part
        # stays above 10 * eps_outer = 1e-3 until k = 7
        values = [(1.0, 2e-3)] * 6 + [(1.0, 5e-4)] * 4
        assert self._stop_k(values) == (7, "infeasible-floor")
        assert self._stop_k([(1.0, 2e-3)] * 10) == (10, "max_outer")

    def test_waits_for_h_inf_to_settle(self):
        # within the (1 + 0.1) floor band throughout; h_inf moves by more than
        # 1% over 3 iterations until k = 8 (1.005 -> 1.0)
        values = [(h, 0.0) for h in (1.045, 1.035, 1.025, 1.015, 1.005, 1.0, 1.0, 1.0, 1.0)]
        assert self._stop_k(values) == (8, "infeasible-floor")

    def test_waits_for_the_floor_band(self):
        # flat h_inf, copy part 0, but ||h[:1]||^2 = 1.1025 > 1.1 * floor
        assert self._stop_k([(1.05, 0.0)] * 8) == (8, "max_outer")
        assert self._stop_k([(1.04, 0.0)] * 8) == (4, "infeasible-floor")


class TestStopReason:
    @pytest.mark.parametrize("max_outer", [2, 20])
    def test_converged_or_max_outer(self, max_outer):
        cfg = PddConfig(rho0=1.0, c=0.5, eps0=1.0, eps_outer=1e-1,
                        max_outer=max_outer, max_inner=3)
        _, _, trace = pdd_run(ToyEquality(), np.array([1.0, 0.0, 0.0]),
                              np.array([-2.0]), cfg)
        assert trace.converged == (max_outer == 20)
        assert trace.stop_reason == ("converged" if trace.converged else "max_outer")


class TestInnerConverged:
    def _run(self, monkeypatch, max_inner):
        from pddopt import core

        flags = []

        def recording(*args, **kwargs):
            out = rbsum_run(*args, **kwargs)
            flags.append(out[2])
            return out

        monkeypatch.setattr(core, "rbsum_run", recording)
        cfg = PddConfig(mode="pdd", rho0=1.0, c=0.5, eps0=1e-6, max_outer=4,
                        inner_stop="objective-progress", max_inner=max_inner,
                        eps_outer=0.0)
        _, _, trace = pdd_run(ToyEquality(), np.array([3.0, 1.0]), np.zeros(1), cfg)
        return trace, flags

    def test_records_the_inner_stop_reason(self, monkeypatch):
        # the exact single-block step repeats the AL on its second sweep
        capped, flags = self._run(monkeypatch, max_inner=1)
        assert capped.column("inner_converged") == flags == [False] * 4
        stopped, flags = self._run(monkeypatch, max_inner=5)
        assert stopped.column("inner_converged") == flags == [True] * 4
        assert stopped.column("inner_iters") == [2] * 4

    def test_csv_column(self, monkeypatch):
        trace, _ = self._run(monkeypatch, max_inner=1)
        col = trace.CSV_COLUMNS.index("inner_converged")
        assert [trace.csv_row(r)[col] for r in trace.records] == [0] * 4
