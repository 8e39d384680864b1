"""Acceptance suite.

Each test runs one acceptance criterion end to end at its stated tolerance
and prints a single PASS/FAIL line (run pytest with ``-s`` to see them all).
"""

import time

import numpy as np
import pytest
import scipy.linalg

from pddopt import multicast as mc
from pddopt import relay as rl
from pddopt import volmin as vm
from pddopt.verify import dense_forms


def _report(name, passed, detail):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_multicast_single_group_oracle():
    """20 seeded (4,1,1) instances: min-rate within 1% of the generalized-
    eigenvalue optimum, KKT residual <= 1e-3, <= 2 s per seed."""
    worst_ratio, worst_kkt, worst_time = np.inf, 0.0, 0.0
    for seed in range(20):
        inst = mc.gen_instance(4, 1, 1, 10.0, seed)
        t0 = time.perf_counter()
        w_scaled, _, _ = mc.solve(inst, mc.default_config(inst, seed=seed))
        worst_time = max(worst_time, time.perf_counter() - t0)
        A, B = dense_forms(inst)
        lam_max = np.max(np.real(
            scipy.linalg.eigvals(scipy.linalg.solve(B[0], A[0]))))
        ratio = mc.min_rate(w_scaled, inst) / np.log2(1.0 + lam_max)
        worst_ratio = min(worst_ratio, ratio)
        worst_kkt = max(worst_kkt, mc.kkt_residual(w_scaled, inst))
    ok = worst_ratio >= 0.99 and worst_kkt <= 1e-3 and worst_time <= 2.0
    _report("1 multicast single-group oracle", ok,
            f"worst ratio {worst_ratio:.5f} (>=0.99), worst kkt {worst_kkt:.2e} "
            f"(<=1e-3), worst time {worst_time:.2f}s (<=2s)")


def test_criterion_2_multicast_8_4_2():
    """(8,4,2) at 10 dB, 20 seeds: ||h||inf <= 1e-4 within 50 outer iterations
    on >= 90% of seeds, KKT <= 1e-2 on those, <= 10 s per seed."""
    n_ok, worst_time, worst_kkt = 0, 0.0, 0.0
    for seed in range(20):
        inst = mc.gen_instance(8, 4, 2, 10.0, seed)
        t0 = time.perf_counter()
        w_scaled, _, trace = mc.solve(inst, mc.default_config(inst, seed=seed))
        worst_time = max(worst_time, time.perf_counter() - t0)
        h = trace.records[-1].h_inf
        if h <= 1e-4 and len(trace.records) <= 50:
            kkt = mc.kkt_residual(w_scaled, inst)
            if kkt <= 1e-2:
                n_ok += 1
                worst_kkt = max(worst_kkt, kkt)
    ok = n_ok >= 18 and worst_time <= 10.0
    _report("2 multicast (8,4,2)", ok,
            f"{n_ok}/20 seeds feasible+kkt (need >=18), worst kkt on passing "
            f"{worst_kkt:.2e}, worst time {worst_time:.2f}s (<=10s)")


def test_criterion_3_relay_4_4_4():
    """(4,4,4) at SNR 10 dB, 20 seeds: ||h||inf <= 1e-3 within 30 outer
    iterations on >= 90% of seeds; zero inner AL-descent violations; the
    repaired sum-rate beats zero and 50 random feasible pairs on every
    seed; <= 20 s per seed."""
    n_ok, worst_time, dominated = 0, 0.0, True
    for seed in range(20):
        inst = rl.gen_instance(4, 4, 4, 10.0, seed)
        t0 = time.perf_counter()
        # rbsum_run raises on any AL increase beyond 1e-9 relative
        res = rl.solve(inst, rl.default_config(inst, seed=seed))
        worst_time = max(worst_time, time.perf_counter() - t0)
        trace = res["trace"]
        if trace.records[-1].h_inf <= 1e-3 and len(trace.records) <= 30:
            n_ok += 1
        rng = np.random.default_rng(1000 + seed)
        best_rand = max(rl.sum_rate(*rl.random_feasible_pair(inst, rng), inst)
                        for _ in range(50))
        dominated &= res["sum_rate_nats"] > max(0.0, best_rand)
    ok = n_ok >= 18 and dominated and worst_time <= 20.0
    _report("3 relay (4,4,4)", ok,
            f"{n_ok}/20 seeds feasible (need >=18), dominance {dominated}, "
            f"0 descent violations, worst time {worst_time:.2f}s (<=20s)")


def test_criterion_4_relay_scalar_oracle():
    """10 seeded (1,1,1) instances at P = 10: sum-rate within 2% of the 2-D
    magnitude-grid optimum (step 1e-3), <= 5 s per seed."""
    worst_ratio, worst_time = np.inf, 0.0
    for seed in range(10):
        inst = rl.gen_instance(1, 1, 1, 10.0, seed)
        t0 = time.perf_counter()
        res = rl.solve(inst, rl.default_config(inst, seed=seed))
        worst_time = max(worst_time, time.perf_counter() - t0)
        h2 = abs(inst.H[0, 0]) ** 2
        g2 = abs(inst.g[0, 0]) ** 2
        best = 0.0
        for v in np.arange(0.0, np.sqrt(inst.p_s) + 1e-3, 1e-3):
            fmax = np.sqrt(inst.p_r / (h2 * v * v + inst.sigma_r2))
            fs = np.arange(0.0, fmax + 1e-3, 1e-3)
            gam = (g2 * fs**2 * h2 * v * v) / (inst.sigma_r2 * g2 * fs**2
                                               + inst.sigma2[0])
            best = max(best, float(np.log(1.0 + gam).max()))
        worst_ratio = min(worst_ratio, res["sum_rate_nats"] / best)
    ok = worst_ratio >= 0.98 and worst_time <= 5.0
    _report("4 relay scalar oracle", ok,
            f"worst ratio {worst_ratio:.4f} (>=0.98), worst time "
            f"{worst_time:.2f}s (<=5s)")


def test_criterion_5_volmin_noiseless():
    """(10,3,200) noiseless, gamma 0.8, 10 seeds x 3 restarts: median MSE
    <= -30 dB within 30 outer iterations, reconstruction error <= 1e-2,
    <= 30 s per seed."""
    mses, worst_recon, worst_time, worst_iters = [], 0.0, 0.0, 0
    for seed in range(10):
        inst, truth = vm.gen_data(10, 3, 200, 0.8, None, seed)
        t0 = time.perf_counter()
        X, S, trace = vm.solve_restarts(inst, vm.default_config(inst, seed=1000 * seed),
                                        restarts=3)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_iters = max(worst_iters, len(trace.records))
        mses.append(vm.mse_metric(X, truth.X))
        worst_recon = max(worst_recon, vm.reconstruction_error(X, S, inst))
    median_mse = float(np.median(mses))
    ok = (median_mse <= -30.0 and worst_recon <= 1e-2 and worst_iters <= 30
          and worst_time <= 30.0)
    _report("5 volmin noiseless (10,3,200)", ok,
            f"median MSE {median_mse:.1f} dB (<=-30), worst recon "
            f"{worst_recon:.2e} (<=1e-2), worst iters {worst_iters} (<=30), "
            f"worst time {worst_time:.1f}s (<=30s)")


def test_criterion_6_volmin_noisy():
    """(50,3,1000) at SNR 40 dB, 10 seeds: median MSE <= -20 dB."""
    mses = []
    for seed in range(10):
        inst, truth = vm.gen_data(50, 3, 1000, 0.8, 40.0, seed)
        X, _, _ = vm.solve_restarts(inst, vm.default_config(inst, seed=1000 * seed),
                                    restarts=3)
        mses.append(vm.mse_metric(X, truth.X))
    median_mse = float(np.median(mses))
    ok = median_mse <= -20.0
    _report("6 volmin noisy (50,3,1000) @ 40 dB", ok,
            f"median MSE {median_mse:.1f} dB (<=-20)")


def test_criterion_7_property_suites(property_run):
    """`verify all` passes with zero failures in <= 5 minutes (the session's
    one catalogue run, shared with ``tests/test_verify.py``)."""
    results, elapsed = property_run
    fails = [r for r in results if not r.passed]
    ok = not fails and elapsed <= 300.0
    detail = (f"{len(results) - len(fails)}/{len(results)} properties, "
              f"{elapsed:.0f}s (<=300s)")
    if fails:
        detail += "; failed: " + ", ".join(f"{r.suite}/{r.name}" for r in fails)
    _report("7 property suites (verify all)", ok, detail)
