"""The four benchmark workloads: instance generation, one solve, output check.

Instance ``i`` of a run with workload seed ``s`` is generated from seed
``1000 * s + i``, so runs with different seeds share no instance. Every run
also sets up the workload's fixed reference instance (seed ``REF_SEED``),
whose time to solution does not depend on the workload seed. The solver
seed follows ``tests/test_acceptance.py``: the instance seed for multicast and
relay, ``1000 *`` the instance seed for volmin. The library receives only the
generated instances (relay-cli: instance files written during set-up).

Each check returns a :class:`Check`. A *shortfall* (CLI exit code 2, or a
feasibility gap or KKT residual above the per-instance acceptance tolerance)
means the solver did not deliver; an *invariant* miss (an output that is
malformed, off its power budget or off the simplex, or that differs between
repeated solves of one instance) means the output is wrong. Both count as
failed solves; only invariant misses make a run incorrect.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pddopt import cli
from pddopt import ioformats
from pddopt import multicast as mc
from pddopt import relay as rl
from pddopt import volmin as vm

# per-instance tolerances, from tests/test_acceptance.py where one exists
MC_H_TOL = 1e-4
MC_KKT_TOL = 1e-2
RELAY_H_TOL = 1e-3
BUDGET_RTOL = 1e-9
SIMPLEX_TOL = 1e-9
INSTANCE_SEED_STRIDE = 1000
REF_SEED = 0   # the acceptance tests' first seed


def case_seeds(workload, seed):
    """Instance seeds of one run: the seeded set, then the fixed reference."""
    return [INSTANCE_SEED_STRIDE * seed + i
            for i in range(workload.n_instances)] + [REF_SEED]


@dataclass
class Case:
    """One generated instance and what its solve and check need."""

    index: int
    seed: int
    instance: object
    truth: object = None
    path: Path = None
    out_dir: Path = None


@dataclass
class Check:
    """Outcome of checking one solve's output."""

    quality: float = math.nan
    converged: bool = False
    outer_iters: int = 0
    h_final: float = math.nan
    invariant_errors: list = field(default_factory=list)
    shortfalls: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.invariant_errors and not self.shortfalls

    def signature(self):
        """Values that must repeat bit for bit when the same case is re-solved."""
        return (self.quality, self.converged, self.outer_iters, self.h_final)


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


class Multicast:
    """``multicast.solve`` on (n_t, 4 groups, 2 users per group) at P = 10."""

    quality_name, quality_unit, quality_stat = "min_rate_bits.mean", "bit/s/Hz", "mean"
    n_groups, users_per_group, p_bs = 4, 2, 10.0

    def __init__(self, name, n_t, n_instances):
        self.name, self.n_t, self.n_instances = name, n_t, n_instances

    def setup(self, seeds, work_dir):
        return [Case(i, s, mc.gen_instance(self.n_t, self.n_groups, self.users_per_group,
                                           self.p_bs, s))
                for i, s in enumerate(seeds)]

    def warm_up(self, case):
        mc.solve(case.instance, mc.default_config(case.instance, seed=case.seed, max_outer=1))

    def solve(self, case):
        return mc.solve(case.instance, mc.default_config(case.instance, seed=case.seed))

    def check(self, case, output):
        inst = case.instance
        w_scaled, t, trace = output
        res = Check(converged=bool(trace.converged), outer_iters=len(trace.records),
                    h_final=float(trace.records[-1].h_inf))
        if not _finite(w_scaled, t):
            res.invariant_errors.append("non-finite beamformer or levels")
            return res
        power = float(np.linalg.norm(w_scaled) ** 2)
        if abs(power - inst.p_bs) > BUDGET_RTOL * inst.p_bs:
            res.invariant_errors.append(f"beamformer power {power:.12g} != P {inst.p_bs}")
        res.quality = mc.min_rate(w_scaled, inst)
        if not (math.isfinite(res.quality) and res.quality > 0):
            res.invariant_errors.append(f"min rate {res.quality} not finite and positive")
        # recomputed from the outputs; the last entry is ||w||^2 - 1 at unit w
        h_inf = float(np.abs(mc.constraint_h(w_scaled / np.sqrt(inst.p_bs), t, inst)).max())
        if not h_inf <= MC_H_TOL:
            res.shortfalls.append(f"||h||inf {h_inf:.3e} > {MC_H_TOL}")
        kkt = mc.kkt_residual(w_scaled, inst)
        if not kkt <= MC_KKT_TOL:
            res.shortfalls.append(f"kkt {kkt:.3e} > {MC_KKT_TOL}")
        return res

    def instance_bytes(self, cases):
        return sum(a.nbytes for c in cases for a in vars(c.instance).values()
                   if isinstance(a, np.ndarray))


class RelayCli:
    """``pddopt solve --app relay`` in process, on (4,4,4) instance files at 10 dB."""

    name = "relay-cli"
    quality_name, quality_unit, quality_stat = "sum_rate_nats.mean", "nat/s/Hz", "mean"
    n_s, n_r, n_users, snr_db = 4, 4, 4, 10.0

    def __init__(self, n_instances):
        self.n_instances = n_instances

    def setup(self, seeds, work_dir):
        inst_dir = Path(work_dir) / "instances"
        inst_dir.mkdir(parents=True, exist_ok=True)
        cases = []
        for i, s in enumerate(seeds):
            inst = rl.gen_instance(self.n_s, self.n_r, self.n_users, self.snr_db, s)
            path = inst_dir / f"relay-{s}.json"
            with open(path, "w") as fh:
                json.dump(rl.instance_to_dict(inst), fh)
            cases.append(Case(i, s, inst, path=path, out_dir=Path(work_dir) / f"solve-{s}"))
        return cases

    def _argv(self, case, out_dir, *extra):
        return ["solve", "--app", "relay", "--instance", str(case.path),
                "--seed", str(case.seed), "--out", str(out_dir), *extra]

    def warm_up(self, case):
        cli.main(self._argv(case, case.out_dir.with_name("warm-up"), "--max-outer", "1"))

    def solve(self, case):
        return cli.main(self._argv(case, case.out_dir))

    def check(self, case, output):
        inst = case.instance
        res = Check()
        if output not in (0, 1):
            res.shortfalls.append(f"CLI exit code {output}")
            return res
        res.converged = output == 0
        with open(case.out_dir / "results.json") as fh:
            results = json.load(fh)
        res.outer_iters = int(results["iterations"])
        res.h_final = float(results["feasibility_gap"])
        V = ioformats.pairs_to_complex(results["V"])
        F = ioformats.pairs_to_complex(results["F"])
        if not _finite(V, F):
            res.invariant_errors.append("non-finite precoders")
            return res
        p_src = float(np.linalg.norm(V) ** 2)
        p_relay = float(np.linalg.norm(F @ inst.H @ V) ** 2
                        + inst.sigma_r2 * np.linalg.norm(F) ** 2)
        if p_src > inst.p_s * (1 + BUDGET_RTOL):
            res.invariant_errors.append(f"source power {p_src:.12g} > {inst.p_s}")
        if p_relay > inst.p_r * (1 + BUDGET_RTOL):
            res.invariant_errors.append(f"relay power {p_relay:.12g} > {inst.p_r}")
        rate = rl.sum_rate(V, F, inst)
        res.quality = float(results["sum_rate_nats"])
        if not (math.isfinite(rate) and rate > 0):
            res.invariant_errors.append(f"sum rate {rate} not finite and positive")
        elif not math.isclose(rate, res.quality, rel_tol=1e-9):
            res.invariant_errors.append(f"reported rate {res.quality} != {rate}")
        if not res.h_final <= RELAY_H_TOL:
            res.shortfalls.append(f"||h||inf {res.h_final:.3e} > {RELAY_H_TOL}")
        return res

    def instance_bytes(self, cases):
        return 0


class Volmin:
    """``volmin.solve_restarts(restarts=3)`` on (50,3,1000) data at 40 dB."""

    name = "volmin"
    quality_name, quality_unit, quality_stat = "mse_db.median", "dB", "median"
    N, K, L, gamma, snr_db, restarts = 50, 3, 1000, 0.8, 40.0, 3

    def __init__(self, n_instances):
        self.n_instances = n_instances

    def setup(self, seeds, work_dir):
        cases = []
        for i, s in enumerate(seeds):
            inst, truth = vm.gen_data(self.N, self.K, self.L, self.gamma, self.snr_db, s)
            cases.append(Case(i, s, inst, truth=truth))
        return cases

    def _config(self, case, **overrides):
        return vm.default_config(case.instance, seed=1000 * case.seed, **overrides)

    def warm_up(self, case):
        vm.solve(case.instance, self._config(case, max_outer=1))

    def solve(self, case):
        return vm.solve_restarts(case.instance, self._config(case), restarts=self.restarts)

    def check(self, case, output):
        X, S, trace = output
        res = Check(converged=bool(trace.converged), outer_iters=len(trace.records),
                    h_final=float(trace.records[-1].h_inf))
        if not _finite(X, S):
            res.invariant_errors.append("non-finite factors")
            return res
        if S.min() < -SIMPLEX_TOL or np.abs(S.sum(axis=0) - 1.0).max() > SIMPLEX_TOL:
            res.invariant_errors.append("S columns off the unit simplex")
        res.quality = vm.mse_metric(X, case.truth.X)
        recon = vm.reconstruction_error(X, S, case.instance)
        if not (math.isfinite(res.quality) and math.isfinite(recon)):
            res.invariant_errors.append(f"MSE {res.quality} / reconstruction {recon} not finite")
        return res

    def instance_bytes(self, cases):
        return 0


# Instance counts fill about half of a 25 s run on a 2-core x86_64 box with
# one BLAS thread; solves of the reference instance fill the other half.
WORKLOADS = {
    # Python overhead in multicast and core: K=8 per-user loops over 64x64
    # forms and the residual stop rule every sweep.
    "mc-small": Multicast("mc-small", n_t=8, n_instances=2),
    # Same loop count, 4x larger forms: dense assembly and the 128x128 eigh
    # dominate; the large side of any size-based kernel choice.
    "mc-large": Multicast("mc-large", n_t=16, n_instances=1),
    # Short solves on 4x4 blocks: core loop and relay per-step overhead plus
    # the cli/ioformats file round trip; no eigh or SVD.
    "relay-cli": RelayCli(n_instances=14),
    # Never converges under noise: all 30 outer iterations per restart, so
    # per-sweep cost over 50k-entry duals, simplex projection and SVDs.
    "volmin": Volmin(n_instances=1),
}
