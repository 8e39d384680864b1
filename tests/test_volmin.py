import itertools
import re

import numpy as np
import pytest

from pddopt import numerics
from pddopt import volmin as vm
from pddopt.core import PddConfig, PddRecord, PddTrace
from pddopt.errors import InvalidInputError, NumericalFailureError
from pddopt.verify import rand_volmin_iterate, simplex_ls_oracle


@pytest.fixture(scope="module")
def small():
    inst, truth = vm.gen_data(8, 3, 40, 0.8, None, seed=0)
    return inst, truth


class TestSmoothing:
    def test_breakpoint_continuity(self):
        eps = 1e-2
        v, d = vm.g_eps(eps, eps)
        assert v == pytest.approx(eps)
        assert d == pytest.approx(1.0)
        v_left, d_left = vm.g_eps(eps * (1 - 1e-12), eps)
        assert v_left == pytest.approx(eps, rel=1e-10)
        assert d_left == pytest.approx(1.0, rel=1e-10)

    def test_value_at_zero(self):
        v, d = vm.g_eps(0.0, 1e-2)
        assert v == pytest.approx(5e-3)
        assert d == 0.0

    def test_matches_logdet_above_floor(self):
        rng = np.random.default_rng(1)
        eps = 1e-2
        for _ in range(10):
            X = rng.standard_normal((6, 3)) + 3.0 * np.eye(6, 3)
            s = np.linalg.svd(X, compute_uv=False)
            assert s.min() >= np.sqrt(eps)
            logdet = np.linalg.slogdet(X.T @ X)[1]
            assert vm.f_eps(X, eps) == pytest.approx(logdet, abs=1e-10)

    def test_finite_on_rank_deficient(self):
        X = np.zeros((5, 3))
        assert np.isfinite(vm.f_eps(X, 1e-2))

    def test_scalar_path_matches_array_path(self):
        eps = 1e-2
        xs = np.concatenate([np.linspace(-3 * eps, 3 * eps, 101), [eps, -eps, 0.0, -0.0]])
        vals, ders = vm.g_eps(xs, eps)
        for x, v, d in zip(xs, vals, ders):
            got = vm.g_eps(float(x), eps)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == (v, d)
            assert vm.g_eps(np.float64(x), eps) == got

    def test_negative_argument_mirrors_positive(self):
        eps = 1e-2
        assert vm.g_eps(-1.0, eps) == (1.0, -1.0)
        xs = np.array([eps, 2 * eps, 1.0, 0.5 * eps, 0.0])
        vals, ders = vm.g_eps(xs, eps)
        vals_neg, ders_neg = vm.g_eps(-xs, eps)
        np.testing.assert_array_equal(vals_neg, vals)
        np.testing.assert_array_equal(ders_neg, -ders)
        for x, v, d in zip(-xs, vals_neg, ders_neg):
            assert vm.g_eps(float(x), eps) == (v, d)


class TestUpdateY:
    def test_s_zero_specialization(self, small):
        inst, _ = small
        rng = np.random.default_rng(2)
        z, P, Q = rand_volmin_iterate(inst, rng)
        z = vm.replace(z, S=np.zeros_like(z.S))
        Y = vm.update_Y(z, inst.A + 0.7 * P, Q, 0.7)
        np.testing.assert_allclose(Y, z.X + 0.7 * Q, atol=1e-12)



def _majorized_step_as_before(z, AP):
    """The S step as it was for every K: one majorize-minimize step with
    beta > sigma_1(Y)^2, then the column-wise simplex projection."""
    beta = vm.default_beta(z.Y)
    M = np.subtract(0.0, z.Y.T @ z.Y)
    M.flat[::M.shape[0] + 1] += beta
    return numerics.project_simplex_columns((z.Y.T @ AP + M @ z.S) / beta)


def _fit(Y, S, T):
    return np.sum((Y @ S - T) ** 2, axis=0)


class TestUpdateS:
    def test_y_zero_fixed_point(self, small):
        inst, _ = small
        rng = np.random.default_rng(4)
        z, P, _ = rand_volmin_iterate(inst, rng)
        z = vm.replace(z, Y=np.zeros_like(z.Y))
        S = vm.update_S(z, inst.A + 0.5 * P)
        np.testing.assert_allclose(S, z.S, atol=1e-9)

    def test_columns_on_simplex(self, small):
        inst, _ = small
        rng = np.random.default_rng(5)
        z, P, _ = rand_volmin_iterate(inst, rng)
        S = vm.update_S(z, inst.A + 0.5 * P)
        np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-12)
        assert S.min() >= 0.0

    def test_exact_step_matches_face_oracle_interior_edge_vertex(self):
        # targets built so that the optimum of each column is known to lie in
        # the interior, on an edge or at a vertex of the 3-simplex
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((6, 3))
        normal = np.linalg.svd(Y, full_matrices=True)[0][:, 3:]   # orthogonal to range(Y)
        C = np.array([[0.2, 0.5, 1.4, 0.6, 2.0],
                      [0.3, 0.6, -0.5, -0.3, -0.4],
                      [0.5, -0.1, 0.1, 0.7, -0.6]])
        T = Y @ C + normal @ rng.standard_normal((3, 5))
        z = vm.VolMinIterate(X=Y, S=np.full((3, 5), 1 / 3), Y=Y)
        S = vm.update_S(z, T)
        S_orc, fit_orc = simplex_ls_oracle(Y, T)
        assert (S_orc > 0).sum(axis=0).tolist()[0] == 3       # interior
        assert 1 in (S_orc > 0).sum(axis=0).tolist()           # a vertex
        assert 2 in (S_orc > 0).sum(axis=0).tolist()           # an edge
        np.testing.assert_allclose(_fit(Y, S, T), fit_orc, rtol=1e-12)
        np.testing.assert_allclose(S, S_orc, atol=1e-10)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_exact_step_matches_face_oracle(self, K):
        rng = np.random.default_rng(12 + K)
        Y = rng.standard_normal((5, K))
        C = rng.uniform(-0.5, 1.5, size=(K, 80))
        C += (1.0 - C.sum(axis=0)) / K
        T = Y @ C + 0.3 * rng.standard_normal((5, 80))
        z = vm.VolMinIterate(X=Y, S=np.full((K, 80), 1 / K), Y=Y)
        S = vm.update_S(z, T)
        fit_orc = simplex_ls_oracle(Y, T)[1]
        np.testing.assert_allclose(_fit(Y, S, T).sum(), fit_orc.sum(), rtol=1e-12)
        assert S.min() >= 0.0
        np.testing.assert_allclose(S.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        if K == 1:
            assert np.all(S == 1.0)

    @pytest.mark.parametrize("case", ["K4", "Y0"])
    def test_majorized_step_bit_for_bit(self, case):
        K = 4 if case == "K4" else 3
        inst = vm.gen_data(8, K, 40, 0.8, None, seed=3)[0]
        rng = np.random.default_rng(13)
        z, P, _ = rand_volmin_iterate(inst, rng)
        if case == "Y0":
            z = vm.replace(z, Y=np.zeros_like(z.Y))
        AP = inst.A + 0.5 * P
        assert vm.update_S(z, AP).tobytes() == _majorized_step_as_before(z, AP).tobytes()

    def test_nearly_collinear_y_takes_the_majorized_step(self):
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((6, 3))
        Y[:, 2] = Y[:, 1] + 1e-7 * rng.standard_normal(6)   # pivot ~1e-14 relative
        z = vm.VolMinIterate(X=Y, S=np.full((3, 10), 1 / 3), Y=Y)
        T = rng.standard_normal((6, 10))
        assert vm._affine_hull_map((Y.T @ Y).tolist()) is None
        assert vm.update_S(z, T).tobytes() == _majorized_step_as_before(z, T).tobytes()

    def test_mm_reaches_convex_optimum_single_column(self):
        # L = 1, K = 4: repeated majorized steps solve the simplex-constrained LS.
        # build_instance rejects L < K (X is seeded from K data columns), and
        # the S-step alone needs no seed, so the iterate is assembled directly.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 1))
        z = vm.VolMinIterate(
            X=rng.standard_normal((6, 4)), S=np.full((4, 1), 0.25),
            Y=rng.standard_normal((6, 4)),
        )
        for _ in range(2000):
            z = vm.replace(z, S=vm.update_S(z, A))
        best = simplex_ls_oracle(z.Y, A)[1][0]
        assert _fit(z.Y, z.S, A)[0] <= best + 1e-6


class TestUpdateX:
    def test_sigma_zero_prefers_case2(self):
        eps = 1e-2
        g_tilde = 0.5
        s = vm.sigma_subproblem(0.0, g_tilde, 0.3, eps)
        assert s == 0.0
        # case-1 value eps/g + eps/(2rho) vs case-2 value eps/(2g)
        case1 = eps / g_tilde + eps / (2 * 0.3)
        case2 = eps / (2 * g_tilde)
        assert case2 < case1

    def test_large_sigma_case1(self):
        eps = 1e-2
        rho, g_tilde = 0.2, 2.0
        sigma_bar = 5.0
        s = vm.sigma_subproblem(sigma_bar, g_tilde, rho, eps)
        assert s == pytest.approx(g_tilde * sigma_bar / (2 * rho + g_tilde))
        assert s >= np.sqrt(eps)

    def test_grid_oracle(self):
        rng = np.random.default_rng(8)
        eps = 1e-2
        for _ in range(200):
            sigma_bar = float(rng.uniform(0.0, 3.0))
            g_tilde = float(vm.g_eps(rng.uniform(0.0, 4.0), eps)[0])
            rho = float(rng.uniform(0.05, 2.0))
            s = vm.sigma_subproblem(sigma_bar, g_tilde, rho, eps)
            grid = np.linspace(0.0, sigma_bar + 3 * np.sqrt(eps), 3000)
            gv, _ = vm.g_eps(grid**2, eps)
            vals = gv / g_tilde + (grid - sigma_bar) ** 2 / (2 * rho)
            sv = vm.g_eps(s**2, eps)[0] / g_tilde + (s - sigma_bar) ** 2 / (2 * rho)
            assert sv <= vals.min() + 1e-4


class TestMseMetric:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(15)
        X_true = rng.uniform(0.1, 1.0, (5, 3))
        X_hat = rng.uniform(0.1, 1.0, (5, 3))
        got = vm.mse_metric(X_hat, X_true)
        U = X_true / np.linalg.norm(X_true, axis=0)
        Uh = X_hat / np.linalg.norm(X_hat, axis=0)
        best = min(
            np.mean([np.linalg.norm(U[:, k] - Uh[:, p[k]]) ** 2 for k in range(3)])
            for p in itertools.permutations(range(3))
        )
        assert got == pytest.approx(10 * np.log10(best))

    def test_zero_column_rejected(self):
        X = np.ones((4, 2))
        bad = X.copy()
        bad[:, 0] = 0.0
        with pytest.raises(InvalidInputError):
            vm.mse_metric(bad, X)

    def test_large_k_rejected(self):
        X = np.ones((4, 9))
        with pytest.raises(InvalidInputError):
            vm.mse_metric(X, X)


class TestGenData:
    def test_simplex_and_cap(self, small):
        _, truth = small
        np.testing.assert_allclose(truth.S.sum(axis=0), 1.0, atol=1e-12)
        assert truth.S.min() >= 0.0
        assert truth.S.max() <= truth.gamma + 1e-12

    def test_noiseless_exact(self, small):
        inst, truth = small
        np.testing.assert_array_equal(inst.A, truth.X @ truth.S)

    def test_gamma_bounds(self):
        with pytest.raises(InvalidInputError):
            vm.gen_data(5, 4, 10, 0.25, None, seed=0)  # gamma <= 1/K
        with pytest.raises(InvalidInputError):
            vm.gen_data(5, 4, 10, 1.5, None, seed=0)

    def test_deterministic(self):
        a, _ = vm.gen_data(6, 2, 20, 0.9, 30.0, seed=3)
        b, _ = vm.gen_data(6, 2, 20, 0.9, 30.0, seed=3)
        np.testing.assert_array_equal(a.A, b.A)


class TestSolve:
    def test_noiseless_recovery_small(self):
        inst, truth = vm.gen_data(10, 3, 100, 0.8, None, seed=1)
        X, S, trace = vm.solve_restarts(inst, vm.default_config(inst, seed=1),
                                        restarts=2)
        assert vm.reconstruction_error(X, S, inst) <= 1e-2
        assert vm.mse_metric(X, truth.X) <= -25.0
        assert len(trace.records) <= 30

    def test_simplex_invariant_after_solve(self):
        inst, _ = vm.gen_data(6, 2, 30, 0.9, None, seed=2)
        _, S, _ = vm.solve(inst, vm.default_config(inst, seed=2, max_outer=5))
        np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-10)
        assert S.min() >= 0.0

    def test_restarts_validation(self):
        inst, _ = vm.gen_data(5, 2, 10, 0.9, None, seed=0)
        with pytest.raises(InvalidInputError):
            vm.solve_restarts(inst, restarts=0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_smoothing_rejected(self, eps):
        with pytest.raises(InvalidInputError, match="^eps has a non-finite entry"):
            vm.build_instance(np.ones((3, 4)), rank=2, eps=eps)

    @pytest.mark.parametrize("A, rank, message", [
        (np.ones(4), 2, "data must be a matrix, got ndim=1"),
        (np.ones((2, 4, 1)), 2, "data must be a matrix, got ndim=3"),
        (np.ones((2, 6)), 3, "rank must satisfy 1 <= K <= 2, got 3"),
        (np.where(np.eye(3, 4) == 1, np.nan, 1.0), 2, "data has a non-finite entry"),
        (np.full((3, 4), np.inf), 2, "data has a non-finite entry"),
        (1j * np.ones((3, 4)), 2, "data must be real, got a complex array"),
        (np.ones((3, 4)) + 0j, 2, "data must be real, got a complex array"),
    ], ids=["vector", "3d", "rank-above-N", "nan", "inf", "complex", "complex-real-valued"])
    def test_rejects_bad_data(self, A, rank, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            vm.build_instance(A, rank)

    def test_fewer_columns_than_rank_rejected(self):
        # seeding X needs K distinct data columns, so L < K fails at build time
        with pytest.raises(InvalidInputError, match="need at least K data columns"):
            vm.build_instance(np.arange(8.0).reshape(4, 2), rank=3)


class TestFitFloor:
    def test_noiseless_floor_is_zero(self, small):
        inst, _ = small
        assert inst.fit_floor == 0.0
        assert vm.VolMinProblem(inst).constraint_floor() == (0.0, inst.A.size)

    def test_noisy_floor_is_the_rank_k_tail(self):
        inst, _ = vm.gen_data(8, 3, 40, 0.8, 30.0, seed=1)
        assert "fit_floor" not in vars(inst)   # not computed at build time
        s = np.linalg.svd(inst.A, compute_uv=False)
        assert inst.fit_floor == pytest.approx(np.sum(s[3:] ** 2), rel=1e-12)
        assert inst.fit_floor > 0.0

    def test_noisy_solve_stops_at_the_floor(self):
        inst, _ = vm.gen_data(20, 3, 300, 0.8, 30.0, seed=0)
        _, _, trace = vm.solve(inst, vm.default_config(inst, seed=0))
        assert (trace.stop_reason, trace.converged) == ("infeasible-floor", False)
        assert len(trace.records) == 16


class TestRestartPick:
    """``solve_restarts``' three-step pick, over scripted restarts."""

    @staticmethod
    def _pick(monkeypatch, runs):
        # runs[r] = (final gap, f_eps, stop_reason) of restart r; returns the pick
        def scripted_solve(instance, config):
            gap, _, reason = runs[config.seed]
            rec = PddRecord(k=1, al_value=0.0, objective=0.0, h_inf=gap, rho=1.0,
                            eta=1.0, branch="dual-update", inner_iters=1,
                            inner_converged=True, time_s=0.0)
            return config.seed, None, PddTrace(records=[rec], stop_reason=reason)

        monkeypatch.setattr(vm, "solve", scripted_solve)
        monkeypatch.setattr(vm, "f_eps", lambda X, eps: runs[X][1])
        inst = vm.VolMinInstance(A=np.ones((2, 2)), rank=1)
        return vm.solve_restarts(inst, PddConfig(eps_outer=1e-4), restarts=len(runs))[0]

    def test_feasible_runs_first_by_volume(self, monkeypatch):
        runs = [(5e-4, 3.0, "max_outer"), (2e-2, 1.0, "infeasible-floor"),
                (1e-3, 2.0, "converged"), (1e-5, 4.0, "converged")]
        assert self._pick(monkeypatch, runs) == 2

    def test_then_floor_runs_by_volume(self, monkeypatch):
        runs = [(1e-2, 1.0, "max_outer"), (3e-2, 2.5, "infeasible-floor"),
                (2e-2, 2.0, "infeasible-floor")]
        assert self._pick(monkeypatch, runs) == 2

    def test_else_smallest_gap(self, monkeypatch):
        runs = [(3e-2, 1.0, "max_outer"), (2e-2, 2.0, "max_outer"),
                (4e-2, 0.5, "max_outer")]
        assert self._pick(monkeypatch, runs) == 1


class TestFaultInjection:
    def test_duplicate_data_columns(self):
        # the second half of the data repeats the first, column for column
        data, _ = vm.gen_data(10, 3, 200, 0.8, None, seed=0)
        A = data.A.copy()
        A[:, 100:] = A[:, :100]
        inst = vm.build_instance(A, data.rank, data.eps)
        X, S, trace = vm.solve(inst, vm.default_config(inst, seed=0, max_outer=5))
        assert np.all(np.isfinite(X))
        np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-12)
        assert S.min() >= 0.0
        assert np.isfinite(trace.records[-1].h_inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("svd_of", [
        lambda M: vm.f_eps(M, 1e-2),
        lambda M: vm.VolMinIterate(X=M, S=np.full((2, 3), 0.5), Y=np.ones((4, 2))),
        vm.default_beta,
    ], ids=["f_eps", "iterate", "default_beta"])
    def test_non_finite_factor_raises_numerical_failure(self, bad, svd_of):
        M = np.ones((4, 2))
        M[1, 0] = bad
        with pytest.raises(NumericalFailureError, match="non-finite entry"):
            svd_of(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_S_target_raises_numerical_failure(self, bad):
        # a non-finite A + rho P reaches the simplex projection (Y is rank
        # deficient, so the step is the majorized one), which rejects it
        # instead of returning a NaN column
        z = vm.VolMinIterate(X=np.ones((4, 2)), S=np.full((2, 3), 0.5), Y=np.ones((4, 2)))
        AP = np.ones((4, 3))
        AP[1, 0] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalFailureError, match="non-finite entry"):
            vm.update_S(z, AP)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_S_target_raises_in_exact_step(self, bad):
        z = vm.VolMinIterate(X=np.ones((4, 2)), S=np.full((2, 3), 0.5), Y=np.eye(4, 2))
        AP = np.ones((4, 3))
        AP[1, 0] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalFailureError, match="non-finite entry"):
            vm.update_S(z, AP)


class TestIterate:
    def test_constraint_matches_concatenation(self, small):
        inst, _ = small
        rng = np.random.default_rng(24)
        prob = vm.VolMinProblem(inst)
        for _ in range(3):
            z, P, Q = rand_volmin_iterate(inst, rng)
            want = np.concatenate([(inst.A - z.Y @ z.S).ravel(), (z.X - z.Y).ravel()])
            assert prob.constraint(z).tobytes() == want.tobytes()
            out = np.full(want.size, np.nan)
            assert prob.constraint(z, out=out) is out
            assert out.tobytes() == want.tobytes()
