import re

import numpy as np
import pytest

from pddopt import relay as rl
from pddopt.errors import InvalidInputError
from pddopt.verify import rand_relay_iterate


@pytest.fixture(scope="module")
def inst222():
    return rl.gen_instance(2, 2, 2, 10.0, seed=0)


class TestInstance:
    def test_rejects_zero_relay_noise(self):
        with pytest.raises(InvalidInputError):
            rl.build_instance(np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                              0.0, 1.0, 1.0, 1.0)

    def test_rejects_bad_budgets(self):
        with pytest.raises(InvalidInputError):
            rl.build_instance(np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                              1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("field", ["H", "g", "sigma_R2", "sigma2", "P_S", "P_R", "alpha"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_field(self, inst222, field, bad):
        data = rl.instance_to_dict(inst222)
        if field in ("H", "g"):
            data[field][1][0][1] = bad
        elif field in ("sigma2", "alpha"):
            data[field][0] = bad
        else:
            data[field] = bad
        with pytest.raises(InvalidInputError, match=f"^{field} has a non-finite entry"):
            rl.instance_from_dict(data)

    @pytest.mark.parametrize("field", ["sigma2", "alpha"])
    @pytest.mark.parametrize("value", [[1.0, 1.0, 1.0], [], np.ones((2, 2))])
    def test_rejects_wrong_length_field(self, field, value):
        args = {"sigma2": 1.0, "alpha": None, field: value}
        with pytest.raises(InvalidInputError, match=f"^{field} must be a scalar or have 2 "):
            rl.build_instance(np.eye(2), np.eye(2), 1.0, args["sigma2"], 1.0, 1.0,
                              args["alpha"])

    @pytest.mark.parametrize("H, g, message", [
        (np.ones(2), np.ones((1, 2)), "H must be N_r x N_s, got shape (2,)"),
        (np.ones((2, 2, 1)), np.ones((1, 2)), "H must be N_r x N_s, got shape (2, 2, 1)"),
        (np.eye(2), np.ones((1, 3)), "g must be K x 2, got shape (1, 3)"),
        (np.eye(2), np.ones(2), "g must be K x 2, got shape (2,)"),
    ], ids=["H-vector", "H-3d", "g-wrong-width", "g-vector"])
    def test_rejects_misshapen_channel(self, H, g, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            rl.build_instance(H, g, 1.0, 1.0, 1.0, 1.0)

    def test_json_roundtrip(self, inst222):
        back = rl.instance_from_dict(rl.instance_to_dict(inst222))
        np.testing.assert_allclose(back.H, inst222.H)
        np.testing.assert_allclose(back.g, inst222.g)
        assert back.p_s == inst222.p_s and back.p_r == inst222.p_r


class TestConstraint:
    def test_zero_at_consistent_point(self, inst222):
        rng = np.random.default_rng(1)
        z = rl.initial_iterate(inst222, rng)
        assert np.abs(rl.constraint_h(z, inst222)).max() == 0.0

    def test_single_residual_component(self):
        inst = rl.gen_instance(1, 1, 1, 0.0, seed=2)
        one = np.ones((1, 1), dtype=complex)
        zero = np.zeros((1, 1), dtype=complex)
        z = rl.RelayIterate(V=zero, F=zero, X=one, Vb=zero, Fb=zero, Xb=one, instance=inst)
        h = rl.constraint_h(z, inst)
        # only X - FHV = 1 is nonzero
        assert np.abs(h).max() == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(h) > 1e-15) == 1


class TestWeights:
    def test_scalar_hand_example(self):
        inst = rl.build_instance(np.ones((1, 1), dtype=complex),
                                 np.ones((1, 1), dtype=complex),
                                 1.0, 1.0, 10.0, 10.0)
        X = np.ones((1, 1), dtype=complex)
        F = np.zeros((1, 1), dtype=complex)
        u, w = rl.wmmse_weights(X, F, inst)
        assert u[0] == pytest.approx(0.5)
        assert w[0] == pytest.approx(2.0)

    def test_zero_signal(self, inst222):
        X = np.zeros((2, 2), dtype=complex)
        F = np.zeros((2, 2), dtype=complex)
        u, w = rl.wmmse_weights(X, F, inst222)
        np.testing.assert_allclose(u, 0.0)
        np.testing.assert_allclose(w, 1.0)


class TestBlockUpdates:
    def test_update_f_decoupled_when_v_zero(self, inst222):
        rng = np.random.default_rng(4)
        z, duals = rand_relay_iterate(inst222, rng)
        z = rl.RelayIterate(np.zeros_like(z.V), z.F, z.X, z.Vb, z.Fb, z.Xb, inst222)
        rho = 0.8
        weights = rl.wmmse_weights(z.X, z.F, inst222)
        F = rl.update_F(z, weights, duals, rho, inst222)
        G_w, _ = rl.mse_matrices(*weights, inst222)
        expect = np.linalg.solve(
            2.0 * rho * G_w + np.eye(2),
            z.Fb - rho * duals[1] / inst222.sigma_r)
        np.testing.assert_allclose(F, expect, atol=1e-10)

    def test_update_x_specialization(self, inst222):
        rng = np.random.default_rng(5)
        z, duals = rand_relay_iterate(inst222, rng)
        Z, _, Zx, _ = duals
        weights = (np.zeros(2, dtype=complex), np.ones(2))  # G_w = D_w = 0
        rho = 1.3
        X = rl.update_X(z, weights, duals, rho, inst222)
        expect = 0.5 * ((z.F @ inst222.H @ z.V - rho * Z) + (z.Xb - rho * Zx))
        np.testing.assert_allclose(X, expect, atol=1e-12)

    def test_update_v_specialization(self, inst222):
        rng = np.random.default_rng(6)
        z, duals = rand_relay_iterate(inst222, rng)
        z = rl.RelayIterate(z.V, np.zeros_like(z.F), z.X, z.Vb, z.Fb, z.Xb, inst222)
        V = rl.update_V(z, duals, 0.9, inst222)
        np.testing.assert_allclose(V, z.Vb - 0.9 * duals[3], atol=1e-12)

    def test_update_bars_interior_identity(self, inst222):
        rng = np.random.default_rng(7)
        z, (Z, Zf, Zx, Zv) = rand_relay_iterate(inst222, rng, scale=1e-3)
        duals = (Z, np.zeros_like(Zf), np.zeros_like(Zx), np.zeros_like(Zv))
        Vb, Xb, Fb = rl.update_bars(z, duals, 1.0, inst222)
        np.testing.assert_allclose(Vb, z.V, atol=1e-12)
        np.testing.assert_allclose(Xb, z.X, atol=1e-12)
        np.testing.assert_allclose(Fb, z.F, atol=1e-12)

    def test_update_bars_radial_scaling(self, inst222):
        rng = np.random.default_rng(8)
        z, (Z, Zf, Zx, Zv) = rand_relay_iterate(inst222, rng)
        V_pre = z.V + 1.0 * Zv
        V_pre *= 2.0 * np.sqrt(inst222.p_s) / np.linalg.norm(V_pre)
        z = rl.RelayIterate(V_pre, z.F, z.X, z.Vb, z.Fb, z.Xb, inst222)
        Vb, _, _ = rl.update_bars(z, (Z, Zf, Zx, np.zeros_like(Zv)), 1.0, inst222)
        np.testing.assert_allclose(Vb, V_pre / 2.0, atol=1e-10)

    def test_bars_feasible_after_update(self, inst222):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z, duals = rand_relay_iterate(inst222, rng, scale=3.0)
            Vb, Xb, Fb = rl.update_bars(z, duals, float(rng.uniform(0.1, 2.0)), inst222)
            assert np.linalg.norm(Vb) ** 2 <= inst222.p_s + 1e-8
            assert (np.linalg.norm(Xb) ** 2
                    + inst222.sigma_r2 * np.linalg.norm(Fb) ** 2) <= inst222.p_r + 1e-8


class TestInnerSweep:
    def test_initialization_feasible_and_consistent(self, inst222):
        rng = np.random.default_rng(10)
        z = rl.initial_iterate(inst222, rng)
        assert np.linalg.norm(z.V) ** 2 == pytest.approx(inst222.p_s)
        relay_power = (np.linalg.norm(z.X) ** 2
                       + inst222.sigma_r2 * np.linalg.norm(z.F) ** 2)
        assert relay_power == pytest.approx(inst222.p_r)
        assert np.abs(rl.constraint_h(z, inst222)).max() == 0.0


class TestSweepCountsPinned:
    """Seeded (4,4,4) solves take exactly the inner sweeps and branches they
    took before the iterate carried F H, F H V and its received powers
    (literals from that code; p = penalty decrease, d = dual update)."""

    CASES = {
        0: ([35, 7, 21, 24, 22, 18, 36, 100, 100, 100, 100, 100, 100, 100, 100, 54, 7, 3, 2],
            "ppppppdpddpdpdddddd", 3.469721070641775e-04),
        1: ([33, 6, 20, 23, 20, 16, 12, 100, 100, 100, 100, 100, 100, 100, 29, 14, 5, 2],
            "ppppppddpddpppdddd", 2.9990894993243283e-04),
        2: ([19, 8, 16, 26, 45, 19, 100, 100, 100, 100, 100, 100, 7, 3, 2, 1, 1, 1, 1],
            "pppppddppddddddpppd", 8.663719643673407e-04),
    }

    @pytest.mark.parametrize("seed", list(CASES))
    def test_counts(self, seed):
        inner_iters, branches, h_inf = self.CASES[seed]
        inst = rl.gen_instance(4, 4, 4, 10.0, seed)
        trace = rl.solve(inst, rl.default_config(inst, seed=seed))["trace"]
        assert trace.column("inner_iters") == inner_iters
        names = {"p": "penalty-decrease", "d": "dual-update"}
        assert trace.column("branch") == [names[b] for b in branches]
        assert trace.converged
        assert trace.records[-1].h_inf == pytest.approx(h_inf, rel=1e-12, abs=0.0)


class TestSolve:
    def test_zero_precoders_zero_rate(self, inst222):
        zero = np.zeros((2, 2), dtype=complex)
        assert rl.sum_rate(zero, zero, inst222) == 0.0

    def test_repair_produces_feasible_pair(self, inst222):
        rng = np.random.default_rng(15)
        V = 10.0 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        F = 10.0 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        V2, F2, scales = rl.repair_feasibility(V, F, inst222)
        assert np.linalg.norm(V2) ** 2 <= inst222.p_s + 1e-9
        relay_power = (np.linalg.norm(F2 @ inst222.H @ V2) ** 2
                       + inst222.sigma_r2 * np.linalg.norm(F2) ** 2)
        assert relay_power <= inst222.p_r + 1e-9
        assert all(s <= 1.0 for s in scales)

    def test_repair_identity_when_feasible(self, inst222):
        rng = np.random.default_rng(16)
        V, F = rl.random_feasible_pair(inst222, rng)
        V2, F2, scales = rl.repair_feasibility(0.5 * V, 0.5 * F, inst222)
        np.testing.assert_allclose(V2, 0.5 * V)
        assert scales == (1.0, 1.0)

    def test_scalar_instance_grid_oracle(self):
        for seed in range(3):
            inst = rl.gen_instance(1, 1, 1, 10.0, seed)
            res = rl.solve(inst, rl.default_config(inst, seed=seed))
            h2 = abs(inst.H[0, 0]) ** 2
            g2 = abs(inst.g[0, 0]) ** 2
            best = 0.0
            for v in np.arange(0.0, np.sqrt(inst.p_s) + 1e-3, 1e-3):
                fmax = np.sqrt(inst.p_r / (h2 * v * v + inst.sigma_r2))
                fs = np.arange(0.0, fmax + 1e-3, 1e-3)
                gam = (g2 * fs**2 * h2 * v * v) / (inst.sigma_r2 * g2 * fs**2
                                                   + inst.sigma2[0])
                best = max(best, float(np.log(1.0 + gam).max()))
            assert res["sum_rate_nats"] >= 0.98 * best

    def test_solve_returns_feasible_and_beats_random(self):
        inst = rl.gen_instance(3, 3, 3, 10.0, seed=4)
        res = rl.solve(inst, rl.default_config(inst, seed=4))
        V, F = res["V"], res["F"]
        assert np.linalg.norm(V) ** 2 <= inst.p_s + 1e-9
        rng = np.random.default_rng(99)
        best_rand = max(rl.sum_rate(*rl.random_feasible_pair(inst, rng), inst)
                        for _ in range(50))
        assert res["sum_rate_nats"] > best_rand
        assert res["sum_rate_nats"] > 0.0


class TestFaultInjection:
    @pytest.mark.parametrize("sigma_r2", [1e-12, 1e-300])
    def test_vanishing_relay_noise(self, sigma_r2):
        # sigma_R^2 -> 0 leaves the relay budget set only by the forwarded signal
        base = rl.gen_instance(4, 4, 4, 10.0, seed=0)
        inst = rl.build_instance(base.H, base.g, sigma_r2, base.sigma2,
                                 base.p_s, base.p_r, base.alpha)
        res = rl.solve(inst, rl.default_config(inst, seed=0))
        V, F = res["V"], res["F"]
        assert np.all(np.isfinite(V)) and np.all(np.isfinite(F))
        assert np.linalg.norm(V) ** 2 <= inst.p_s + 1e-9
        relay_power = (np.linalg.norm(F @ inst.H @ V) ** 2
                       + inst.sigma_r2 * np.linalg.norm(F) ** 2)
        assert relay_power <= inst.p_r + 1e-9
        assert np.isfinite(res["trace"].records[-1].h_inf)
        assert np.isfinite(res["sum_rate_nats"]) and res["sum_rate_nats"] > 0.0
