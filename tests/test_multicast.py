import numpy as np
import pytest
import scipy.linalg

from pddopt import core
from pddopt import multicast as mc
from pddopt import numerics
from pddopt.errors import InvalidInputError
from pddopt.verify import dense_forms, rand_unit_vec


@pytest.fixture(scope="module")
def inst422():
    return mc.gen_instance(4, 2, 2, 10.0, seed=0)


class TestBuildInstance:
    def test_scalar_case(self):
        A, B = dense_forms(mc.build_instance([[1.0 + 0j]], [[0]], 1.0, 1.0))
        np.testing.assert_allclose(A[0], [[1.0]])
        np.testing.assert_allclose(B[0], [[1.0]])
        w = np.array([1.0 + 0j])
        assert np.real(np.vdot(w, A[0] @ w)) / np.real(np.vdot(w, B[0] @ w)) \
            == pytest.approx(1.0)

    def test_block_structure(self, inst422):
        n_t = inst422.n_t
        forms, _ = dense_forms(inst422)
        for k in range(inst422.n_users):
            i = inst422.group_of[k]
            A = forms[k].copy()
            A[i * n_t:(i + 1) * n_t, i * n_t:(i + 1) * n_t] = 0.0
            assert np.abs(A).max() == 0.0

    def test_matrix_properties(self, inst422):
        for k, (A, B) in enumerate(zip(*dense_forms(inst422))):
            assert np.abs(A - A.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(A).min() >= -1e-12
            min_b = np.linalg.eigvalsh(B).min()
            assert min_b >= inst422.sigma2[k] / inst422.p_bs - 1e-12

    def test_rejects_empty_group(self):
        with pytest.raises(InvalidInputError):
            mc.build_instance(np.ones((2, 2), dtype=complex), [[0, 1], []], 1.0, 1.0)

    def test_rejects_non_partition(self):
        with pytest.raises(InvalidInputError):
            mc.build_instance(np.ones((2, 2), dtype=complex), [[0], [0]], 1.0, 1.0)

    @pytest.mark.parametrize("field", ["channels", "sigma2", "P_BS"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_field(self, field, bad):
        args = {"channels": np.ones((2, 2), dtype=complex), "sigma2": np.ones(2), "P_BS": 1.0}
        if field == "P_BS":
            args[field] = bad
        else:
            args[field] = args[field].copy()
            args[field][1] = bad
        with pytest.raises(InvalidInputError, match=f"^{field} has a non-finite entry"):
            mc.build_instance(args["channels"], [[0], [1]], args["sigma2"], args["P_BS"])

    @pytest.mark.parametrize("channels", [np.ones(2), np.ones((2, 2, 1))], ids=["1d", "3d"])
    def test_rejects_channels_not_a_matrix(self, channels):
        with pytest.raises(InvalidInputError, match="^channels must be K x N_t, got shape "):
            mc.build_instance(channels, [[0], [1]], 1.0, 1.0)

    @pytest.mark.parametrize("sigma2", [[1.0, 1.0, 1.0], [], np.ones((2, 2))])
    def test_rejects_wrong_length_sigma2(self, sigma2):
        with pytest.raises(InvalidInputError, match="^sigma2 must be a scalar or have 2 "):
            mc.build_instance(np.eye(2), [[0], [1]], sigma2, 1.0)

    @pytest.mark.parametrize("member", [0.9, "0", True])
    def test_rejects_non_integer_group_member(self, member):
        with pytest.raises(InvalidInputError, match=f"user indices, got {member!r}$"):
            mc.build_instance(np.eye(2), [[member], [1]], 1.0, 1.0)
        inst = mc.build_instance(np.eye(2), [[np.int64(0)], [np.int32(1)]], 1.0, 1.0)
        assert inst.groups == ((0,), (1,)) and type(inst.groups[0][0]) is int

    def test_phase_rotation_leaves_matrices_invariant(self, inst422):
        rot = mc.build_instance(inst422.channels * np.exp(0.7j),
                                inst422.groups, inst422.sigma2, inst422.p_bs)
        for M_rot, M in zip(dense_forms(rot), dense_forms(inst422)):
            np.testing.assert_allclose(M_rot, M, atol=1e-12)

    def test_amplitude_scaling_leaves_sinr_invariant(self, inst422):
        alpha = 1.7
        scaled = mc.build_instance(alpha * inst422.channels, inst422.groups,
                                   alpha**2 * inst422.sigma2, inst422.p_bs)
        rng = np.random.default_rng(2)
        w = rand_unit_vec(rng, inst422.dim)
        np.testing.assert_allclose(
            mc.sinr_values(np.sqrt(scaled.p_bs) * w, scaled),
            mc.sinr_values(np.sqrt(inst422.p_bs) * w, inst422), rtol=1e-10)


class TestConstraint:
    def test_feasible_at_matched_levels(self, inst422):
        rng = np.random.default_rng(3)
        w = rand_unit_vec(rng, inst422.dim)
        na, nb = mc.coupling_norms(w, inst422)
        h = mc.constraint_h(w, na / nb, inst422)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_zero_gain_user(self):
        # user 1 has a zero channel: A_1 = 0, so t_1 = 0 is feasible. Such an
        # instance is rejected by build_instance, so it is assembled directly.
        channels = np.array([[1.0 + 0j, 0.5j], [0.0 + 0j, 0.0 + 0j]])
        inst = mc.MulticastInstance(n_t=2, groups=((0,), (1,)), channels=channels,
                                    sigma2=np.ones(2), p_bs=1.0, group_of=np.array([0, 1]))
        w = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        h = mc.constraint_h(w, np.array([np.sqrt(2.0) / np.sqrt(1.0), 0.0]), inst)
        assert abs(h[1]) < 1e-12

    def test_norm_component(self, inst422):
        rng = np.random.default_rng(4)
        w = 2.0 * rand_unit_vec(rng, inst422.dim)
        h = mc.constraint_h(w, np.ones(inst422.n_users), inst422)
        assert h[-1] == pytest.approx(3.0)


class TestTSubproblem:
    def test_single_user(self):
        t, s = mc.solve_t_subproblem([1.0], [1.0])
        assert t[0] == pytest.approx(1.5)
        assert s == pytest.approx(1.5)
        assert t[0] - 1.0 * (t[0] - 1.0) ** 2 == pytest.approx(1.25)

    def test_two_users(self):
        t, s = mc.solve_t_subproblem([1.0, 1.0], [5.0, 1.0])
        np.testing.assert_allclose(t, [5.0, 1.5])
        assert s == pytest.approx(1.5)

    def test_all_equal(self):
        K, a, b = 4, 0.5, 2.0
        t, s = mc.solve_t_subproblem(np.full(K, a), np.full(K, b))
        expect = max(b + 1.0 / (2 * K * a), 0.0)
        np.testing.assert_allclose(t, expect)
        assert s == pytest.approx(expect)

    def test_all_equal_clamped_at_zero(self):
        t, s = mc.solve_t_subproblem(np.full(3, 1.0), np.full(3, -5.0))
        np.testing.assert_allclose(t, 0.0)
        assert s == 0.0

    def test_penalty_dominant_limit(self):
        # rho -> 0 makes a_k huge; t collapses to b elementwise (floored at 0)
        rng = np.random.default_rng(6)
        inst = mc.gen_instance(3, 2, 1, 10.0, seed=6)
        w = rand_unit_vec(rng, inst.dim)
        na, nb = mc.coupling_norms(w, inst)
        rho = 1e-6
        a = nb**2 / (2 * rho)
        b = na / nb
        t, _ = mc.solve_t_subproblem(a, b)
        np.testing.assert_allclose(t, np.maximum(b, 0.0), atol=1e-4)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(InvalidInputError):
            mc.solve_t_subproblem([0.0], [1.0])

    def test_matches_candidate_loop_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for case in range(1000):
            K = int(rng.integers(1, 17))
            a = rng.uniform(0.01, 5.0, K) * 10.0 ** rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 5.0, K)
            if case % 3 == 0:  # ties in b
                b = rng.choice(b[:max(1, K // 3)], K)
            t, s = mc.solve_t_subproblem(a, b)
            t_ref, s_ref = _t_subproblem_loop(a, b)
            assert t.tobytes() == t_ref.tobytes() and s == s_ref


def _t_subproblem_loop(a, b):
    """Reference t-step: one candidate floor at a time, the first best kept."""
    order = np.argsort(-b)
    a_s, b_s = a[order], b[order]
    suf_a = np.cumsum(a_s[::-1])[::-1]
    suf_ab = np.cumsum((a_s * b_s)[::-1])[::-1]
    best_obj, best_t = -np.inf, None
    for kbar in range(a.size):
        s_c = max((1.0 + 2.0 * suf_ab[kbar]) / (2.0 * suf_a[kbar]), 0.0)
        t_c = np.maximum(b, s_c)
        obj = t_c.min() - float(np.dot(a, (t_c - b) ** 2))
        if obj > best_obj:
            best_obj, best_t = obj, t_c
    return best_t, float(best_t.min())


class TestSurrogate:
    def test_quadratic_case_exact(self, inst422):
        # lam = 0, t = 0: theta is already quadratic, C = sum A_eq, no gap
        rng = np.random.default_rng(7)
        wt = rand_unit_vec(rng, inst422.dim)
        K = inst422.n_users
        C, const = mc.build_surrogate_C(mc.MulticastIterate(wt, np.zeros(K), inst422),
                                        np.zeros(K), 0.5, inst422)
        A_eq = _embedded_forms(inst422)[2]
        np.testing.assert_allclose(C, A_eq.sum(axis=0), atol=1e-10)
        assert const == pytest.approx(0.0)
        for _ in range(20):
            w = rand_unit_vec(rng, inst422.dim)
            we = numerics.real_embed_vec(w)
            assert we @ C @ we + const == pytest.approx(
                mc.theta_value(w, np.zeros(K), np.zeros(K), 0.5, inst422), abs=1e-8)

    def test_exactly_symmetric(self, inst422):
        # min_eigvec_sym reads one triangle of C and does not symmetrize it
        rng = np.random.default_rng(12)
        points = [(inst422, rand_unit_vec(rng, inst422.dim)) for _ in range(10)]
        w = rand_unit_vec(rng, inst422.dim)
        w[:inst422.n_t] = 0.0  # users 0 and 1 are degenerate: the point is jittered
        points.append((inst422, w / np.linalg.norm(w)))
        points.append(TestStructuredMatchesDense._guard_point())
        for inst, w in points:
            K = inst.n_users
            z = mc.MulticastIterate(w, rng.uniform(0.0, 3.0, K), inst)
            C, _ = mc.build_surrogate_C(z, rng.standard_normal(K),
                                        float(rng.uniform(0.05, 2.0)), inst)
            assert np.array_equal(C, C.T)

    def test_degenerate_gain_guard(self, inst422):
        # expansion point orthogonal to user 0's channel within its group block
        inst, w = TestStructuredMatchesDense._guard_point()
        na, _ = mc.coupling_norms(w, inst)
        assert na[0] < 1e-10
        lam = np.array([0.5, -0.5])
        C, const = mc.build_surrogate_C(mc.MulticastIterate(w, np.ones(2), inst), lam, 0.5,
                                        inst)
        assert np.all(np.isfinite(C)) and np.isfinite(const)
        # bound must remain valid even with the jittered expansion point
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rand_unit_vec(rng, inst.dim)
            ve = numerics.real_embed_vec(v)
            assert ve @ C @ ve + const >= mc.theta_value(v, np.ones(2), lam, 0.5, inst) - 1e-6


def per_user_surrogate_C(z, lam, rho, inst):
    """Frozen copy of the surrogate assembly with one expansion point per user
    (K copies of w~ and K embedded rows), off the degenerate guard."""
    w_tilde = np.asarray(z.w, dtype=complex).ravel()
    t = np.asarray(z.t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    K, n_g, n_t, n = inst.n_users, inst.n_groups, inst.n_t, inst.dim
    H = inst.channels
    W = np.broadcast_to(w_tilde.reshape(n_g, n_t), (K, n_g, n_t)).copy()
    nw = np.linalg.norm(W.reshape(K, n), axis=1)
    power = np.abs(z.G) ** 2
    qa = power[inst.own_group]
    qb = np.where(inst.own_group, 0.0, power).sum(axis=1) + (inst.sigma2 / inst.p_bs) * nw**2
    na, nb = np.sqrt(qa), np.sqrt(qb)
    rl = rho * lam
    pos = lam >= 0
    a = np.where(pos, 1.0 + rl / na, 1.0)
    b = np.where(pos, t**2, t**2 - rl * t / nb)
    cross = t / (na * nb)
    d = np.where(pos, rl * t / (nw * nb), 0.0)
    e = np.where(pos, 0.0, rl / (nw * na))
    const = float(np.sum(np.where(pos, rl**2 + rl * na, rl**2 - rl * t * nb)))
    c = np.where(inst.own_group.T, a, b)
    blocks = (c[:, :, None] * H[None]).transpose(0, 2, 1) @ H.conj()
    blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
    C = np.zeros((2 * n, 2 * n))
    C4 = C.reshape(2, n_g, n_t, 2, n_g, n_t)
    diag = np.arange(n_g)
    C4[0, diag, :, 0, diag, :] = C4[1, diag, :, 1, diag, :] = blocks.real
    C4[0, diag, :, 1, diag, :] = -blocks.imag
    C4[1, diag, :, 0, diag, :] = blocks.imag
    C[np.diag_indices(2 * n)] += float(np.dot(b, inst.sigma2)) / inst.p_bs

    def embed(M):
        return np.concatenate([M.real, M.imag], axis=1)

    Awe, Bwe, we = embed(z.Aw), embed(z.Bw), embed(W.reshape(K, n))
    L = np.concatenate([-cross[:, None] * Awe - d[:, None] * we, e[:, None] * we])
    P = L.T @ np.concatenate([Bwe, Awe])
    C += P + P.T
    return C, const


class TestSurrogateMatchesPerUserAssembly:
    """Off the degenerate guard, the one-point surrogate has the bits of the
    per-user assembly it replaced."""

    @pytest.mark.parametrize("n_t", [8, 16], ids=["8-4-2", "16-4-2-reduced"])
    def test_bit_for_bit(self, n_t):
        inst = mc.gen_instance(n_t, 4, 2, 10.0, seed=3)
        if inst.n_users < inst.n_t:
            inst = mc.channel_subspace(inst)[1]   # the instance mc.solve works on
        rng = np.random.default_rng(30)
        K = inst.n_users
        for _ in range(20):
            z = mc.MulticastIterate(rand_unit_vec(rng, inst.dim), rng.uniform(0.0, 3.0, K), inst)
            assert np.abs(z.G[inst.own_group]).min() >= mc.DEGENERATE_NORM_TOL
            lam, rho = rng.standard_normal(K), float(rng.uniform(0.05, 2.0))
            C, const = mc.build_surrogate_C(z, lam, rho, inst)
            C_ref, const_ref = per_user_surrogate_C(z, lam, rho, inst)
            assert C.tobytes() == C_ref.tobytes()
            assert np.float64(const).tobytes() == np.float64(const_ref).tobytes()


class TestInnerStep:
    def test_fixed_point_stays(self, inst422):
        # run to near-convergence, then one more sweep must not move the iterate
        prob = mc.MulticastProblem(inst422)
        rng = np.random.default_rng(13)
        z = mc.initial_iterate(inst422, rng)
        lam = np.zeros(inst422.n_users)
        rho = 0.5
        for _ in range(300):
            for i in range(prob.n_blocks):
                z = prob.step(i, z, lam, rho)
        z2 = z
        for i in range(prob.n_blocks):
            z2 = prob.step(i, z2, lam, rho)
        assert min(np.linalg.norm(z2.w - z.w), np.linalg.norm(z2.w + z.w)) < 1e-6
        np.testing.assert_allclose(z2.t, z.t, atol=1e-6)

    def test_unit_norm_maintained(self, inst422):
        rng = np.random.default_rng(14)
        prob = mc.MulticastProblem(inst422)
        z = mc.initial_iterate(inst422, rng)
        lam = rng.standard_normal(inst422.n_users)
        for _ in range(5):
            for i in range(prob.n_blocks):
                z = prob.step(i, z, lam, 0.7)
            assert abs(np.linalg.norm(z.w) - 1.0) < 1e-10


class TestSweepCountsPinned:
    """Seeded solves take exactly these inner sweeps and branches.

    The three (8,4,2) pins (K = N_t) are literals from the code before the
    per-iterate caching of the gains. The (16,4,2) pin (K = 8 < N_t = 16) is
    the solve in the channel subspace of :func:`multicast.channel_subspace`.
    """

    CASES = {
        (8, 0): ([100, 100, 100, 36, 27, 27, 24, 25, 22, 22, 19, 17, 16, 14, 11, 9, 8],
                 8.393177093424242e-05),
        (8, 1): ([100, 100, 100, 55, 44, 36, 30, 22, 28, 29, 23, 19, 14, 12, 10, 9, 7],
                 8.151166585046443e-05),
        (8, 2): ([100, 100, 100, 86, 66, 73, 65, 62, 59, 57, 47, 38, 31, 24, 19, 16, 13,
                  11, 10, 8, 7, 6, 5], 7.554850788826784e-05),
        (16, 0): ([100, 100, 100, 60, 31, 28, 24, 21, 20, 18, 14, 10], 5.5291914662136676e-05),
    }

    @pytest.mark.parametrize("n_t, seed", list(CASES), ids=["8-4-2-s0", "8-4-2-s1",
                                                           "8-4-2-s2", "16-4-2-s0"])
    def test_counts(self, n_t, seed):
        inner_iters, h_inf = self.CASES[n_t, seed]
        inst = mc.gen_instance(n_t, 4, 2, 10.0, seed)
        _, _, trace = mc.solve(inst, mc.default_config(inst, seed=seed))
        assert trace.column("inner_iters") == inner_iters
        # two penalty decreases, then a dual update at every outer iteration
        branches = ["penalty-decrease"] * 2 + ["dual-update"] * (len(inner_iters) - 2)
        assert trace.column("branch") == branches
        assert trace.converged
        assert trace.records[-1].h_inf == pytest.approx(h_inf, rel=1e-12, abs=0.0)


def _full_space_solve(inst, config):
    """PDD on all N_t antennas, without the channel-subspace reduction: the
    oracle for ``mc.solve``."""
    rng = np.random.default_rng(config.seed)
    z, _, trace = core.pdd_run(mc.MulticastProblem(inst), mc.initial_iterate(inst, rng),
                               np.zeros(inst.n_users), config)
    return np.sqrt(inst.p_bs) * z.w, z.t, trace


def _solve_outcome(inst, out):
    """(||h||_inf, KKT residual, min-rate, outer iterations) of a solve's output."""
    w_scaled, t, trace = out
    h = np.abs(mc.constraint_h(w_scaled / np.sqrt(inst.p_bs), t, inst)).max()
    return h, mc.kkt_residual(w_scaled, inst), mc.min_rate(w_scaled, inst), len(trace.records)


class TestChannelSubspace:
    """With K < N_t, ``mc.solve`` works on the K-antenna instance of
    :func:`mc.channel_subspace` and maps the result back."""

    @pytest.mark.parametrize("shape", [(16, 4, 2), (6, 2, 2), (4, 1, 1)])
    def test_reduced_instance_reproduces_gains_norms_and_al(self, shape):
        inst = mc.gen_instance(*shape, 10.0, seed=5)
        Q, reduced = mc.channel_subspace(inst)
        K = inst.n_users
        assert Q.shape == (inst.n_t, K) and reduced.n_t == K
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(K), rtol=0, atol=1e-14)
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = rand_unit_vec(rng, reduced.dim)
            w = (mc.group_beamformers(u, reduced) @ Q.T).ravel()
            t, lam = rng.uniform(0.5, 3.0, K), rng.standard_normal(K)
            z_red = mc.MulticastIterate(u, t, reduced)
            z_full = mc.MulticastIterate(w, t, inst)
            for name in ("G", "na", "nb"):
                np.testing.assert_allclose(getattr(z_red, name), getattr(z_full, name),
                                           rtol=1e-12, atol=0)
            al_red = mc.MulticastProblem(reduced).al_value(z_red, lam, 0.7)
            al_full = mc.MulticastProblem(inst).al_value(z_full, lam, 0.7)
            assert al_red == pytest.approx(al_full, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_solve_matches_full_space_solve(self, seed):
        inst = mc.gen_instance(16, 4, 2, 10.0, seed)
        config = mc.default_config(inst, seed=seed)
        out = mc.solve(inst, config)
        h, kkt, rate, outer = _solve_outcome(inst, out)
        h_ref, kkt_ref, rate_ref, outer_ref = _solve_outcome(inst, _full_space_solve(inst, config))
        assert max(h, h_ref) <= 1e-4 and max(kkt, kkt_ref) <= 1e-2
        assert rate == pytest.approx(rate_ref, rel=1e-6, abs=0)
        assert outer == outer_ref
        w_scaled = out[0]
        assert np.linalg.norm(w_scaled) ** 2 == pytest.approx(inst.p_bs, rel=1e-12, abs=0)
        # each w_i lies in span{h_k}: nothing is left after projecting it out
        Q, _ = mc.channel_subspace(inst)
        W = mc.group_beamformers(w_scaled, inst)
        assert np.abs(W - W @ Q.conj() @ Q.T).max() <= 1e-12 * np.abs(W).max()

    @pytest.mark.parametrize("shape, seed", [((8, 4, 2), 0), ((4, 2, 2), 1), ((2, 2, 2), 2)])
    def test_no_reduction_when_users_span_the_antennas(self, shape, seed):
        inst = mc.gen_instance(*shape, 10.0, seed)
        config = mc.default_config(inst, seed=seed, max_outer=6)
        w_scaled, t, trace = mc.solve(inst, config)
        w_ref, t_ref, trace_ref = _full_space_solve(inst, config)
        assert w_scaled.tobytes() == w_ref.tobytes() and t.tobytes() == t_ref.tobytes()
        assert trace.column("h_inf") == trace_ref.column("h_inf")
        assert trace.column("inner_iters") == trace_ref.column("inner_iters")


class TestSolveAndMetrics:
    def test_trace_h_over_dualized_components(self):
        inst = mc.gen_instance(4, 2, 1, 10.0, seed=6)
        problem = mc.MulticastProblem(inst)
        rng = np.random.default_rng(6)
        z = mc.initial_iterate(inst, rng)
        assert problem.constraint(z).shape == (inst.n_users,)

    def test_kkt_residual_nonnegative_and_k1_oracle(self):
        inst = mc.gen_instance(4, 1, 1, 10.0, seed=7)
        A, B = dense_forms(inst)
        vals, vecs = scipy.linalg.eigh(A[0], B[0])
        w_star = vecs[:, -1]
        w_star /= np.linalg.norm(w_star)
        assert mc.kkt_residual(w_star, inst) <= 1e-6
        rng = np.random.default_rng(8)
        assert mc.kkt_residual(rand_unit_vec(rng, 4), inst) >= 0.0

    def test_instance_json_roundtrip(self, inst422):
        data = mc.instance_to_dict(inst422)
        back = mc.instance_from_dict(data)
        np.testing.assert_allclose(back.channels, inst422.channels)
        np.testing.assert_array_equal(back.sigma2, inst422.sigma2)
        assert back.p_bs == inst422.p_bs
        np.testing.assert_array_equal(back.group_of, inst422.group_of)
        assert back.groups == inst422.groups


# --- dense reference: the per-user loops over the forms A_k, B_k ---

def _embedded_forms(inst):
    """``(A, B, A_eq, B_eq)``: the dense forms and their real embeddings."""
    A, B = dense_forms(inst)
    A_eq = np.stack([numerics.real_embed_hermitian(M) for M in A])
    B_eq = np.stack([numerics.real_embed_hermitian(M) for M in B])
    return A, B, A_eq, B_eq


def _dense_quad(M, w):
    return max(float(np.real(np.vdot(w, M @ w))), 0.0)


def dense_coupling_norms(w, inst):
    A, B = dense_forms(inst)
    na = np.sqrt([_dense_quad(A[k], w) for k in range(inst.n_users)])
    nb = np.sqrt([_dense_quad(B[k], w) for k in range(inst.n_users)])
    return na, nb


def dense_surrogate_C(w_tilde, t, lam, rho, inst):
    A, B, A_eq, B_eq = _embedded_forms(inst)
    dim = 2 * inst.dim
    C = np.zeros((dim, dim))
    const = 0.0
    wt = w_tilde
    if dense_coupling_norms(wt, inst)[0].min() < mc.DEGENERATE_NORM_TOL:
        # one jittered expansion point for every user
        jitter_rng = np.random.default_rng(0)
        noise = jitter_rng.standard_normal(wt.size) + 1j * jitter_rng.standard_normal(wt.size)
        wt = wt + mc.JITTER_SCALE * noise
        wt = wt / np.linalg.norm(wt)
    for k in range(inst.n_users):
        Ae, Be = A_eq[k], B_eq[k]
        na = np.sqrt(_dense_quad(A[k], wt))
        nb = np.sqrt(_dense_quad(B[k], wt))
        we = numerics.real_embed_vec(wt)[:, None]
        nw = float(np.linalg.norm(we))
        Awe, Bwe = Ae @ we, Be @ we
        cross = (t[k] / (na * nb)) * (Awe @ Bwe.T + Bwe @ Awe.T)
        rl = rho * lam[k]
        if lam[k] >= 0:
            Ck = (1.0 + rl / na) * Ae + t[k] ** 2 * Be - cross
            Ck -= (rl * t[k] / (nw * nb)) * (we @ Bwe.T + Bwe @ we.T)
            const += rl**2 + rl * na
        else:
            Ck = Ae + (t[k] ** 2 - rl * t[k] / nb) * Be - cross
            Ck += (rl / (nw * na)) * (we @ Awe.T + Awe @ we.T)
            const += rl**2 - rl * t[k] * nb
        C += Ck
    return 0.5 * (C + C.T), const


def dense_w_gradient(z, lam, rho, inst):
    _, _, A_eq, B_eq = _embedded_forms(inst)
    na, nb = dense_coupling_norms(z.w, inst)
    mult = lam + (na - z.t * nb) / rho
    we = numerics.real_embed_vec(z.w)
    g = np.zeros_like(we)
    for k in range(inst.n_users):
        g += mult[k] * (A_eq[k] @ we / max(na[k], 1e-300)
                        - z.t[k] * (B_eq[k] @ we) / max(nb[k], 1e-300))
    return g


def dense_rayleigh_gradients(w, inst):
    _, _, A_eq, B_eq = _embedded_forms(inst)
    we = numerics.real_embed_vec(w)
    cols = []
    for k in range(inst.n_users):
        qa, qb = float(we @ A_eq[k] @ we), float(we @ B_eq[k] @ we)
        cols.append(2.0 * (A_eq[k] @ we - (qa / qb) * (B_eq[k] @ we)) / qb)
    return np.column_stack(cols)


def _rel_err(x, ref):
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(np.asarray(x, dtype=float) - ref).max()
                 / max(np.abs(ref).max(), 1e-300))


class TestStructuredMatchesDense:
    """The gain-matrix kernels against the per-user loops over dense forms."""

    RTOL = 1e-12

    def _check_point(self, inst, w, t, lam, rho, surrogate=True, w_gradient=True):
        na, nb = mc.coupling_norms(w, inst)
        na_d, nb_d = dense_coupling_norms(w, inst)
        assert _rel_err(na, na_d) <= self.RTOL and _rel_err(nb, nb_d) <= self.RTOL
        h_dense = np.append(na_d - t * nb_d, np.linalg.norm(w) ** 2 - 1.0)
        assert _rel_err(mc.constraint_h(w, t, inst), h_dense) <= self.RTOL
        prob = mc.MulticastProblem(inst)
        z = mc.MulticastIterate(w=w, t=t, instance=inst)
        mult = lam + (na_d - t * nb_d) / rho
        assert _rel_err(prob.al_block_gradient(0, z, lam, rho), -mult * nb_d) <= self.RTOL
        if w_gradient:
            assert _rel_err(prob.al_block_gradient(1, z, lam, rho),
                            dense_w_gradient(z, lam, rho, inst)) <= self.RTOL
        if surrogate:
            C, const = mc.build_surrogate_C(z, lam, rho, inst)
            C_d, const_d = dense_surrogate_C(w, t, lam, rho, inst)
            assert _rel_err(C, C_d) <= self.RTOL
            assert _rel_err(const, const_d) <= self.RTOL
        assert _rel_err(mc.rayleigh_gradients(w, inst),
                        dense_rayleigh_gradients(w, inst)) <= self.RTOL

    def _check_kkt(self, inst, w, monkeypatch):
        r = mc.kkt_residual(w, inst)
        monkeypatch.setattr(mc, "rayleigh_gradients", dense_rayleigh_gradients)
        assert abs(r - mc.kkt_residual(w, inst)) <= self.RTOL * max(r, 1e-300)

    def test_random_points(self, inst422, monkeypatch):
        rng = np.random.default_rng(20)
        K = inst422.n_users
        for _ in range(10):
            w = rand_unit_vec(rng, inst422.dim)
            self._check_point(inst422, w, rng.uniform(0.0, 3.0, K),
                              rng.standard_normal(K), float(rng.uniform(0.05, 2.0)))
        with monkeypatch.context() as m:
            self._check_kkt(inst422, rand_unit_vec(rng, inst422.dim), m)

    def test_jittered_users(self, inst422, monkeypatch):
        # w vanishes on group 0's block: A_k w = 0 exactly for users 0 and 1,
        # so every user's bound is expanded at one jittered point
        rng = np.random.default_rng(21)
        w = rand_unit_vec(rng, inst422.dim)
        w[:inst422.n_t] = 0.0
        w /= np.linalg.norm(w)
        assert np.all(mc.coupling_norms(w, inst422)[0][:2] == 0.0)
        t = np.array([0.4, 1.1, 0.8, 1.9])
        for lam in ([-0.6, -0.2, 0.7, -1.1], [0.3, 0.5, -0.4, 0.9]):
            self._check_point(inst422, w, t, np.array(lam), 0.6)
        with monkeypatch.context() as m:
            self._check_kkt(inst422, w, m)

    @staticmethod
    def _guard_point():
        # the point of TestSurrogate.test_degenerate_gain_guard: w is
        # orthogonal to h_0 within the group, so h_0^H w is pure rounding
        inst = mc.gen_instance(2, 1, 2, 10.0, seed=10)
        h0 = inst.channels[0]
        w = np.array([h0[1].conj(), -h0[0].conj()])
        return inst, w / np.linalg.norm(w)

    def test_degenerate_gain_guard_point(self, monkeypatch):
        # Surrogate and w-gradient are left to the next test: there the dense
        # quadratic form at the jittered expansion point (|h_0^H w~| ~ 1e-8
        # from O(1) entries) loses its digits, and the dense w-gradient
        # divides a rounding-level A_0 w by a norm clipped to 1e-300.
        inst, w = self._guard_point()
        t, lam = np.ones(2), np.array([0.5, -0.5])
        self._check_point(inst, w, t, lam, 0.5, surrogate=False, w_gradient=False)
        with monkeypatch.context() as m:
            self._check_kkt(inst, w, m)

    def test_degenerate_expansion_point_is_exact(self):
        from fractions import Fraction as F

        inst, w = self._guard_point()
        t, lam, rho = np.ones(2), np.array([0.5, -0.5]), 0.5
        # the jitter: one draw from default_rng(0) for the whole point, real
        # parts then imaginary parts, then renormalized
        rng = np.random.default_rng(0)
        wt = w + mc.JITTER_SCALE * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        wt /= np.linalg.norm(wt)
        h0 = inst.channels[0]
        # h_0^H w~ in exact rational arithmetic over the stored floats
        re = sum(F(a.real) * F(b.real) + F(a.imag) * F(b.imag) for a, b in zip(h0, wt))
        im = sum(F(a.real) * F(b.imag) - F(a.imag) * F(b.real) for a, b in zip(h0, wt))
        qa_exact = float(re * re + im * im)
        na0 = mc.coupling_norms(wt, inst)[0][0]
        # the O(1) terms cancel down to ~1e-8: condition number ~1e8
        assert abs(na0**2 - qa_exact) <= 1e-6 * qa_exact
        _, const = mc.build_surrogate_C(mc.MulticastIterate(w, t, inst), lam, rho, inst)
        nb1 = mc.coupling_norms(wt, inst)[1][1]   # user 1 is expanded at wt too
        rl = rho * lam
        expect = rl[0] ** 2 + rl[0] * na0 + rl[1] ** 2 - rl[1] * t[1] * nb1
        assert const == pytest.approx(expect, rel=1e-12)


class TestNoDenseForms:
    def test_large_instance_memory_and_step(self):
        inst = mc.gen_instance(32, 8, 2, 10.0, seed=0)
        held = sum(a.nbytes for a in vars(inst).values() if isinstance(a, np.ndarray))
        assert held < 64 * 1024
        problem = mc.MulticastProblem(inst)
        z = mc.initial_iterate(inst, np.random.default_rng(0))
        z = problem.step(1, z, np.zeros(inst.n_users), 0.5 * inst.n_users)
        assert z.w.shape == (inst.dim,)
        assert abs(np.linalg.norm(z.w) - 1.0) < 1e-12


class TestFaultInjection:
    def test_more_users_than_antennas(self):
        # K = 4 > N_t = 1: no beamformer nulls the interference, the solve
        # still reaches a feasible KKT point
        inst = mc.gen_instance(1, 2, 2, 10.0, seed=0)
        assert inst.n_users > inst.n_t
        w_scaled, t, trace = mc.solve(inst, mc.default_config(inst, seed=0))
        assert np.all(np.isfinite(w_scaled)) and np.all(np.isfinite(t))
        assert trace.converged and trace.records[-1].h_inf <= 1e-4
        assert np.linalg.norm(w_scaled) ** 2 == pytest.approx(inst.p_bs, rel=1e-12)
        assert mc.kkt_residual(w_scaled, inst) <= 1e-6


class TestZeroChannelUser:
    def test_build_instance_names_the_user(self):
        channels = np.array([[1.0 + 0j, 0.5j], [0.0, 0.0], [0.3, 1.0 - 1j]])
        with pytest.raises(InvalidInputError, match="^multicast user 1 has an all-zero channel"):
            mc.build_instance(channels, [[0, 1], [2]], 1.0, 1.0)
