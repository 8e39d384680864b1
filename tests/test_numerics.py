import importlib.machinery
import importlib.util
import itertools
import sys
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest
# imported before any test below hides or fakes scipy.linalg._flapack
from scipy.linalg import lapack

from pddopt import multicast as mc
from pddopt import numerics
from pddopt import relay as rl
from pddopt import volmin as vm
from pddopt.errors import InvalidInputError, NumericalFailureError


class TestRealEmbedding:
    def test_identity_matrix(self):
        Me = numerics.real_embed_hermitian(np.eye(2, dtype=complex))
        np.testing.assert_allclose(Me, np.eye(4))

    def test_pure_imaginary_unit_vector(self):
        we = numerics.real_embed_vec(np.array([1j, 0.0]))
        np.testing.assert_allclose(we, [0.0, 0.0, 1.0, 0.0])
        assert np.linalg.norm(we) == pytest.approx(1.0)

    def test_roundtrip(self):
        w = np.array([1 + 2j, -0.5j, 3.0])
        np.testing.assert_allclose(
            numerics.complex_from_embedding(numerics.real_embed_vec(w)), w)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            numerics.real_embed_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidInputError):
            numerics.real_embed_hermitian(M)


class TestMinEigvec:
    def test_diagonal(self):
        v, lam = numerics.min_eigvec_sym(np.diag([3.0, 1.0, 2.0]))
        assert lam == pytest.approx(1.0)
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-12)

    def test_degenerate_spectrum(self):
        v, lam = numerics.min_eigvec_sym(np.eye(4))
        assert lam == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_sign_convention(self):
        C = np.diag([2.0, -1.0])
        v, _ = numerics.min_eigvec_sym(C)
        assert v[1] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        C = np.eye(4)
        C[1, 2] = C[2, 1] = bad
        with pytest.raises(NumericalFailureError, match="non-finite"):
            numerics.min_eigvec_sym(C)

    @staticmethod
    def _assert_matches_full_eigh(C):
        """Smallest eigenpair against the full spectrum of ``np.linalg.eigh``."""
        vals, vecs = np.linalg.eigh(C)
        norm_c = max(abs(vals[0]), abs(vals[-1]))
        v, lam = numerics.min_eigvec_sym(C)
        assert abs(lam - vals[0]) <= 1e-12 * norm_c
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        if vals[1] - vals[0] > 1e-6 * norm_c:
            ref, _ = numerics.fix_sign(vecs[:, 0])
            assert np.linalg.norm(v - ref) <= 1e-9

    def test_matches_full_eigh_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8, 16, 33, 64, 100, 128):
            for _ in range(5):
                C = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
                self._assert_matches_full_eigh(C + C.T)

    @pytest.mark.parametrize("n_t", [8, 16])
    def test_matches_full_eigh_on_multicast_surrogates(self, n_t, monkeypatch):
        # the surrogates of the first outer iteration of a multicast solve
        seen = []
        kernel = numerics.min_eigvec_sym

        def record(C, *args, **kwargs):
            seen.append(C)
            return kernel(C, *args, **kwargs)

        monkeypatch.setattr(numerics, "min_eigvec_sym", record)
        inst = mc.gen_instance(n_t, 4, 2, 10.0, seed=1)
        mc.solve(inst, mc.default_config(inst, seed=1, max_outer=1))
        monkeypatch.undo()
        assert len(seen) >= 20
        for C in seen[::5]:
            self._assert_matches_full_eigh(C)

    def test_residual_check_rejects_perturbed_eigenvector(self, monkeypatch):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((16, 16))
        C = C + C.T
        syevr = numerics._SYEVR

        def perturbed(*args, **kwargs):
            vals, vecs, *rest = syevr(*args, **kwargs)
            vecs = vecs + 1e-6 * rng.standard_normal(vecs.shape)
            return vals, vecs / np.linalg.norm(vecs, axis=0), *rest

        numerics.min_eigvec_sym(C)
        monkeypatch.setattr(numerics, "_SYEVR", perturbed)
        with pytest.raises(NumericalFailureError, match="residual") as info:
            numerics.min_eigvec_sym(C)
        assert info.value.residual > 1e-9 * np.abs(np.linalg.eigvalsh(C)).max()

    def test_lapack_error_raises(self, monkeypatch):
        syevr = numerics._SYEVR

        def failing(*args, **kwargs):
            *out, _ = syevr(*args, **kwargs)
            return *out, 3

        monkeypatch.setattr(numerics, "_SYEVR", failing)
        with pytest.raises(NumericalFailureError, match="syevr info=3"):
            numerics.min_eigvec_sym(np.eye(4))

    @pytest.mark.parametrize("shape", [(3, 4), (0, 0), (4,)])
    def test_non_square_raises(self, shape):
        with pytest.raises(NumericalFailureError, match="nonempty square"):
            numerics.min_eigvec_sym(np.ones(shape))


class TestThinSvd:
    def test_identity(self):
        _, s, _ = numerics.thin_svd(np.eye(5))
        np.testing.assert_allclose(s, np.ones(5))

    def test_zero_matrix(self):
        U, s, V = numerics.thin_svd(np.zeros((4, 2)))
        np.testing.assert_allclose(s, 0.0)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)

    def test_matches_per_column_sign_fix(self):
        # oracle: fix_sign applied column by column, and U diag(s) V^T
        def per_column(M):
            U, s, Vh = np.linalg.svd(M, full_matrices=False)
            V = Vh.T
            for j in range(U.shape[1]):
                _, sgn = numerics.fix_sign(U[:, j])
                U[:, j] *= sgn
                V[:, j] *= sgn
            return U, s, V

        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((n, k)) for n, k in [(50, 3), (8, 8), (6, 1), (30, 5)]]
        lead_zero = rng.standard_normal((9, 3))
        lead_zero[:4] = 0.0    # U's first non-negligible entries lie below row 0
        mats += [lead_zero, -lead_zero, np.zeros((4, 2)), np.eye(5)[:, :3]]
        for M in mats:
            got, want = numerics.thin_svd(M), per_column(M)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            U, s, V = got
            assert ((U * s) @ V.T).tobytes() == (U @ np.diag(s) @ V.T).tobytes()

    @pytest.mark.parametrize("factor, breaks", [
        ("U", "orthonormality"),   # column 1 of U doubled, s_1 halved: same product
        ("V", "orthonormality"),   # the same on row 1 of V^T
        ("s", "reconstruction"),   # s_1 off by 1e-6 relative: orthonormal factors
        ("U+", "both"),            # one entry of U moved by 1e-6
        ("V+", "both"),            # one entry of V^T moved by 1e-6
        ("V-nan", "reconstruction"),   # a NaN in V^T fills a column of U diag(s) V^T
    ])
    @pytest.mark.parametrize("shape", [(50, 3), (3, 50), (6, 6)])
    def test_residual_check_rejects_corrupted_factors(self, monkeypatch, factor, breaks,
                                                      shape):
        M = np.random.default_rng(12).standard_normal(shape)
        gesdd = numerics._GESDD

        def corrupted(*args, **kwargs):
            U, s, Vt, info = gesdd(*args, **kwargs)
            U, s, Vt = U.copy(), s.copy(), Vt.copy()
            if factor == "U":
                U[:, 1] *= 2.0
                s[1] *= 0.5
            elif factor == "V":
                Vt[1] *= 2.0
                s[1] *= 0.5
            elif factor == "s":
                s[1] *= 1.0 + 1e-6
            elif factor == "U+":
                U[1, 1] += 1e-6
            elif factor == "V+":
                Vt[1, 1] += 1e-6
            else:
                Vt[1, 1] = np.nan
            return U, s, Vt, info

        numerics.thin_svd(M)
        monkeypatch.setattr(numerics, "_GESDD", corrupted)
        with pytest.raises(NumericalFailureError, match="SVD residuals too large") as info:
            numerics.thin_svd(M)
        message = str(info.value)
        recon_bad = "reconstruction nan" in message or float(
            message.split("reconstruction ")[1].split(",")[0]) > 1e-9 * np.linalg.norm(M, 2)
        orth_bad = "orthonormality nan" in message or float(
            message.split("orthonormality ")[1].rstrip(")")) > 1e-9
        assert (recon_bad, orth_bad) == {"reconstruction": (True, False),
                                         "orthonormality": (False, True),
                                         "both": (True, True)}[breaks]

    @pytest.mark.parametrize("kernel", [numerics.thin_svd, numerics.singular_values])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, kernel, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("gesdd called on non-finite input")

        monkeypatch.setattr(numerics, "_GESDD", no_lapack)
        M = np.ones((4, 2))
        M[1, 0] = bad
        with pytest.raises(NumericalFailureError, match="non-finite entry"):
            kernel(M)

    @pytest.mark.parametrize("kernel", [numerics.thin_svd, numerics.singular_values])
    def test_lapack_error_raises(self, monkeypatch, kernel):
        gesdd = numerics._GESDD

        def failing(*args, **kwargs):
            *out, _ = gesdd(*args, **kwargs)
            return *out, 2

        monkeypatch.setattr(numerics, "_GESDD", failing)
        with pytest.raises(NumericalFailureError, match="gesdd info=2"):
            kernel(np.eye(3))

    @pytest.mark.parametrize("kernel", [numerics.thin_svd, numerics.singular_values])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,)])
    def test_not_a_nonempty_matrix_rejected(self, kernel, shape):
        with pytest.raises(InvalidInputError, match="nonempty matrix"):
            kernel(np.ones(shape))


class TestSylvester:
    def test_identity_coefficients(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((3, 3))
        F = numerics.solve_sylvester(np.eye(3), np.eye(3), 2.0 * M)
        np.testing.assert_allclose(F, M, atol=1e-10)

    def test_decoupled_rows(self):
        d = np.array([1.0, 2.0, 4.0])
        C = np.arange(12.0).reshape(3, 4)
        F = numerics.solve_sylvester(np.diag(d), np.zeros((4, 4)), C)
        np.testing.assert_allclose(F, C / d[:, None], atol=1e-12)

    @pytest.mark.parametrize("which", ["A", "B", "C"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, which, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("heevd called on non-finite input")

        monkeypatch.setattr(numerics, "_HEEVD", no_lapack)
        args = {"A": np.eye(3), "B": np.eye(2), "C": np.ones((3, 2))}
        args[which] = args[which].copy()
        args[which][1, 0] = bad
        with pytest.raises(NumericalFailureError, match="non-finite"):
            numerics.solve_sylvester(args["A"], args["B"], args["C"])

    def test_non_positive_eigenvalue_sum_rejected(self):
        # lambda(A) = {1, 2}, mu(B) = {-1, 3}: the sum 1 + (-1) is zero
        with pytest.raises(NumericalFailureError, match="must be positive") as info:
            numerics.solve_sylvester(np.diag([1.0, 2.0]), np.diag([-1.0, 3.0]),
                                     np.ones((2, 2)))
        assert info.value.cond == np.inf

    def test_failure_carries_kronecker_condition_number(self):
        # sums {-1, 4, 1, 6}: the Kronecker sum's 2-norm condition number is 6 / 1
        with pytest.raises(NumericalFailureError) as info:
            numerics.solve_sylvester(np.diag([1.0, 3.0]), np.diag([-2.0, 3.0]),
                                     np.ones((2, 2)))
        K = np.kron(np.eye(2), np.diag([1.0, 3.0])) + np.kron(np.diag([-2.0, 3.0]), np.eye(2))
        assert info.value.cond == pytest.approx(np.linalg.cond(K), rel=1e-12)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_non_hermitian_a_fails_residual_check(self, cplx):
        # only the lower triangle is read, so eigh sees 2 I; the upper entry breaks AF + FB = C
        A = np.array([[2.0, 5.0], [0.0, 2.0]], dtype=complex if cplx else float)
        with pytest.raises(NumericalFailureError, match="residual") as info:
            numerics.solve_sylvester(A, np.eye(2), np.arange(4.0).reshape(2, 2) + 1.0)
        assert info.value.residual > 1.0
        assert info.value.cond == pytest.approx(1.0)

    @pytest.mark.parametrize("cplx", [True])
    def test_lapack_error_raises(self, monkeypatch, cplx):
        heevd = numerics._HEEVD

        def failing(*args, **kwargs):
            *out, _ = heevd(*args, **kwargs)
            return *out, 2

        monkeypatch.setattr(numerics, "_HEEVD", failing)
        with pytest.raises(NumericalFailureError, match="heevd info=2"):
            numerics.solve_sylvester(np.eye(3, dtype=complex), np.eye(2, dtype=complex),
                                     np.ones((3, 2)))


def _random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDirectLapackMatchesNumpy:
    """On complex input, the direct LAPACK calls return what np.linalg.eigh
    and np.linalg.solve return, byte for byte and in the same (C) order."""

    @pytest.mark.parametrize("cplx", [True])
    def test_eigh(self, cplx):
        rng = np.random.default_rng(51)
        for n in range(1, 9):
            for _ in range(20):
                M = _random_matrix(rng, (n, n))
                H = M + M.conj().T
                lam, U = numerics._eigh_lower(H)
                lam_ref, U_ref = np.linalg.eigh(H)
                assert U.flags.c_contiguous
                assert lam.tobytes() == lam_ref.tobytes() and U.tobytes() == U_ref.tobytes()

    @pytest.mark.parametrize("cplx, n_exact", [(True, 8)])
    def test_solve(self, cplx, n_exact):
        rng = np.random.default_rng(52)
        for n in range(1, n_exact + 1):
            for m in (1, 2, n):
                A = _random_matrix(rng, (n, n))
                B = _random_matrix(rng, (n, m))
                X = numerics.solve_linear(A, B)
                ref = np.linalg.solve(A, B)
                assert X.flags.c_contiguous and X.dtype == ref.dtype
                assert X.tobytes() == ref.tobytes()

    def test_svd(self):
        rng = np.random.default_rng(53)
        for shape in [(50, 3), (60, 8), (3, 50), (8, 8), (1, 5), (5, 1)]:
            for _ in range(10):
                M = rng.standard_normal(shape)
                s = numerics.singular_values(M)
                assert s.tobytes() == np.linalg.svd(M, compute_uv=False).tobytes()
                U, s, Vt = numerics._gesdd(M, 1)
                ref = np.linalg.svd(M, full_matrices=False)
                assert all(a.tobytes() == b.tobytes() for a, b in zip((U, s, Vt), ref))
                # thin_svd hands out numpy's memory order: U and V.T in C order
                U, _, V = numerics.thin_svd(M)
                assert ref[0].flags.c_contiguous and ref[2].flags.c_contiguous
                assert U.flags.c_contiguous and V.T.flags.c_contiguous


class TestSolveLinear:
    def test_singular_matrix_raises(self):
        with pytest.raises(NumericalFailureError, match="gesv info=2"):
            numerics.solve_linear(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 1)))

    @pytest.mark.parametrize("cplx", [True])
    def test_lapack_error_raises(self, monkeypatch, cplx):
        gesv = numerics._GESV

        def failing(*args, **kwargs):
            *out, _ = gesv(*args, **kwargs)
            return *out, 3

        monkeypatch.setattr(numerics, "_GESV", failing)
        with pytest.raises(NumericalFailureError, match="gesv info=3"):
            numerics.solve_linear(np.eye(3, dtype=complex), np.ones((3, 2), dtype=complex))


_BOUND_NAMES = ("_SYEVR", "_SYEVR_LWORK", "_GESDD", "_GESDD_LWORK",
                "_HEEVD", "_HEEVD_LWORK", "_GESV")
_WORK_SIZE_CACHES = ("_syevr_work_sizes", "_gesdd_work_size", "_heevd_work_sizes")


def _get_lapack_funcs_binding():
    return (*lapack.get_lapack_funcs(("syevr", "syevr_lwork", "gesdd", "gesdd_lwork")),
            *lapack.get_lapack_funcs(("heevd", "heevd_lwork", "gesv"), dtype=np.complex128))


@pytest.fixture
def rebind(monkeypatch):
    """Bind ``numerics`` to a given tuple of the seven routines until the test
    ends, with the work-size caches emptied on either side."""
    def clear_caches():
        for cache in _WORK_SIZE_CACHES:
            getattr(numerics, cache).cache_clear()

    def bind(routines):
        for name, routine in zip(_BOUND_NAMES, routines):
            monkeypatch.setattr(numerics, name, routine)
        clear_caches()

    yield bind
    monkeypatch.undo()
    clear_caches()


@pytest.fixture
def spy_get_lapack_funcs(monkeypatch):
    """The calls the loader makes to ``get_lapack_funcs``."""
    calls = []
    real = lapack.get_lapack_funcs

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lapack, "get_lapack_funcs", spy)
    return calls


def _break_direct_load(monkeypatch, tmp_path, how):
    if how == "missing-file":
        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        fake_scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake_scipy.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake_scipy)
    elif how == "missing-routine":
        partial = types.ModuleType(numerics._FLAPACK)
        for name in numerics._LAPACK_ROUTINES[:-1]:
            setattr(partial, name, getattr(sys.modules[numerics._FLAPACK], name))
        monkeypatch.setitem(sys.modules, numerics._FLAPACK, partial)
    else:
        def refuse(self, spec):
            raise ImportError("refused")

        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", refuse)


def _seeded_solves():
    """Raw bytes of one small seeded solve of each app."""
    mc_inst = mc.gen_instance(4, 2, 1, 10.0, seed=3)
    w, t, _ = mc.solve(mc_inst, mc.default_config(mc_inst, seed=3, max_outer=3))
    rl_inst = rl.gen_instance(2, 2, 2, 10.0, seed=1)
    relay = rl.solve(rl_inst, rl.default_config(rl_inst, seed=1, max_outer=3))
    vm_inst, _ = vm.gen_data(6, 2, 30, 0.8, 40.0, seed=4)
    X, S, _ = vm.solve_restarts(vm_inst, vm.default_config(vm_inst, seed=4, max_outer=3),
                                restarts=2)
    return {"multicast": (w.tobytes(), np.asarray(t).tobytes()),
            "relay": (relay["V"].tobytes(), relay["F"].tobytes()),
            "volmin": (X.tobytes(), S.tobytes())}


class TestLapackBinding:
    """The routines bound from scipy.linalg._flapack by file are the ones
    scipy.linalg.lapack.get_lapack_funcs returns, and every way the direct
    load can fail falls back to the latter."""

    def test_direct_load_binds_the_extension_from_its_file(self, monkeypatch,
                                                          spy_get_lapack_funcs):
        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        routines = numerics._load_lapack()
        assert spy_get_lapack_funcs == []
        flapack = sys.modules[numerics._FLAPACK]
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        assert flapack.__spec__.origin.startswith(scipy_dir)
        assert routines == tuple(getattr(flapack, n) for n in numerics._LAPACK_ROUTINES)

    def test_bindings_agree_bit_for_bit(self, monkeypatch, rebind):
        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        bindings = (numerics._load_lapack(), _get_lapack_funcs_binding())
        rng = np.random.default_rng(61)
        inputs = []
        for n in (1, 3, 8, 33):
            C = rng.standard_normal((n, n))
            A = _random_matrix(rng, (n, n))
            B = _random_matrix(rng, (2, 2))
            inputs.append((n, C + C.T, A @ A.conj().T + np.eye(n), B @ B.conj().T,
                           _random_matrix(rng, (n, 2)), A))
        # tall, wide and square
        svd_inputs = [rng.standard_normal(shape) for shape in [(50, 3), (3, 50), (8, 8), (1, 5)]]
        outputs = []
        for routines in bindings:
            rebind(routines)
            out = []
            for n, C, A_pd, B_psd, rhs, A in inputs:
                out += [*routines[1](n, lower=1), *routines[5](n, lower=1)]
                out += [*numerics.min_eigvec_sym(C), numerics.solve_sylvester(A_pd, B_psd, rhs),
                        numerics.solve_linear(A, rhs)]
            for M in svd_inputs:
                for compute_uv in (0, 1):
                    out += routines[3](*M.shape, compute_uv=compute_uv, full_matrices=0)
                out += [*numerics.thin_svd(M), numerics.singular_values(M)]
            outputs.append(out)
        assert len(outputs[0]) == len(outputs[1])
        for x, y in zip(*outputs):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and np.array_equal(x, y)

    @pytest.mark.parametrize("how", ["missing-file", "missing-routine", "loader-raises"])
    def test_failed_direct_load_falls_back(self, monkeypatch, tmp_path, spy_get_lapack_funcs,
                                           how):
        _break_direct_load(monkeypatch, tmp_path, how)
        routines = numerics._load_lapack()
        assert len(spy_get_lapack_funcs) == 2
        assert routines == _get_lapack_funcs_binding()

    def test_fallback_solves_are_bit_identical(self, monkeypatch, tmp_path, rebind):
        expected = _seeded_solves()
        with monkeypatch.context() as m:
            _break_direct_load(m, tmp_path, "loader-raises")
            fallback = numerics._load_lapack()
        rebind(fallback)
        assert _seeded_solves() == expected


class TestProjectBall:
    def test_interior_point_unchanged(self):
        M = np.array([[0.3, 0.4]])
        np.testing.assert_array_equal(numerics.project_ball(M, 1.0), M)

    def test_radial_scaling(self):
        M = np.full((2, 2), 1.0)  # norm 2
        np.testing.assert_allclose(numerics.project_ball(M, 1.0), M / 2.0)

    def test_closest_point_oracle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3)) * 2.0
        r = 1.5
        P = numerics.project_ball(M, r)
        d_opt = np.linalg.norm(M - P)
        for _ in range(1000):
            cand = rng.standard_normal((3, 3))
            cand *= r * rng.uniform() / np.linalg.norm(cand)
            assert d_opt <= np.linalg.norm(M - cand) + 1e-12

    def test_negative_radius(self):
        with pytest.raises(InvalidInputError):
            numerics.project_ball(np.ones(2), -1.0)


def _simplex_grid(dim, steps):
    for combo in itertools.combinations_with_replacement(range(dim), steps):
        counts = np.bincount(combo, minlength=dim)
        yield counts / steps


def _project_simplex(v):
    return numerics.project_simplex_columns(np.asarray(v, dtype=float)[:, None])[:, 0]


def _project_simplex_sorted(S):
    """Reference projection: sort each column descending, then the last row
    r with ``u_r + (1 - css_r) / (r + 1) > 0`` gives theta (Duchi et al.,
    ICML 2008)."""
    S = np.asarray(S, dtype=float)
    K = S.shape[0]
    u = -np.sort(-S, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, K + 1)[:, None]
    mask = u + (1.0 - css) / j > 0
    rho = K - 1 - np.argmax(mask[::-1, :], axis=0)
    theta = (css[rho, np.arange(S.shape[1])] - 1.0) / (rho + 1.0)
    return np.maximum(S - theta[None, :], 0.0)


def _hard_simplex_inputs(rng, K, L):
    """Random K x L matrices with ties, exact zeros, -0.0, columns already on
    the simplex, and entries of large magnitude."""
    yield rng.standard_normal((K, L))
    yield np.round(2.0 * rng.standard_normal((K, L))) / 2.0       # many ties
    signed_zeros = rng.standard_normal((K, L))
    signed_zeros[rng.random((K, L)) < 0.4] = 0.0
    signed_zeros[rng.random((K, L)) < 0.4] = -0.0
    yield signed_zeros
    yield np.full((K, L), 1.0 / K)
    yield rng.dirichlet(np.ones(K), size=L).T
    yield _project_simplex_sorted(rng.standard_normal((K, L)))    # vertices and faces
    yield rng.standard_normal((K, L)) * 10.0 ** rng.integers(-12, 21, size=(K, L))
    yield np.full((K, L), 1e20) * rng.choice([-1.0, 1.0], size=(K, L))


class TestProjectSimplex:
    @pytest.mark.parametrize("L", [1, 7, 1000])
    @pytest.mark.parametrize("K", range(1, 13))
    def test_matches_sort_reference_bit_for_bit(self, K, L):
        rng = np.random.default_rng(1000 * K + L)
        for S in _hard_simplex_inputs(rng, K, L):
            want = _project_simplex_sorted(S)
            # the public function, and each of its two paths on every shape
            for got in (numerics.project_simplex_columns(S),
                        np.maximum(S - numerics._simplex_theta_network(S), 0.0),
                        np.maximum(S - numerics._simplex_theta_sorted(S), 0.0)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K, L, path", [
        (1, 15, "sorted"), (1, 16, "network"), (3, 143, "sorted"), (3, 144, "network"),
        (3, 1000, "network"), (7, 1000, "network"), (8, 1000, "sorted"), (8, 1024, "network"),
        (9, 5000, "sorted"), (8, 1, "sorted"), (50, 1000, "sorted")])
    def test_network_only_for_few_rows_over_many_columns(self, monkeypatch, K, L, path):
        taken = []
        for name in ("network", "sorted"):
            theta = getattr(numerics, f"_simplex_theta_{name}")
            monkeypatch.setattr(numerics, f"_simplex_theta_{name}",
                                lambda S, name=name, theta=theta: taken.append(name) or theta(S))
        S = np.random.default_rng(K + L).standard_normal((K, L))
        got = numerics.project_simplex_columns(S)
        assert taken == [path]
        assert got.tobytes() == _project_simplex_sorted(S).tobytes()

    @pytest.mark.parametrize("shape", [(3, 1000), (8, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, shape, bad):
        S = np.zeros(shape)
        S[-1, -1] = bad
        with pytest.raises(NumericalFailureError, match="non-finite"):
            numerics.project_simplex_columns(S)

    def test_symmetric(self):
        np.testing.assert_allclose(_project_simplex([0.5, 0.5, 0.5]), np.full(3, 1 / 3))

    def test_vertex(self):
        np.testing.assert_allclose(_project_simplex([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_grid_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = rng.standard_normal(4)
            s = _project_simplex(v)
            d_opt = np.linalg.norm(s - v)
            grid_best = min(np.linalg.norm(g - v) for g in _simplex_grid(4, 50))
            assert d_opt <= grid_best + 2e-2  # grid resolution 1/50

    def test_empty_vector(self):
        with pytest.raises(InvalidInputError):
            _project_simplex(np.zeros(0))


def _gesdd_by_numpy(M, compute_uv):
    M = np.asarray(M, dtype=float)
    if compute_uv:
        return np.linalg.svd(M, full_matrices=False)
    return None, np.linalg.svd(M, compute_uv=False), None


def _update_Y_with_eye(z, AP, Q, rho):
    rhs = AP @ z.S.T + (z.X + rho * Q)
    K = z.S.shape[0]
    return np.linalg.solve(np.eye(K) + z.S @ z.S.T, rhs.T).T


def _update_S_with_eye(z, AP):
    beta = vm.default_beta(z.Y)
    target = z.Y.T @ AP + (beta * np.eye(z.S.shape[0]) - z.Y.T @ z.Y) @ z.S
    return numerics.project_simplex_columns(target / beta)


class TestVolminKernelsMatchReference:
    """A seeded volmin solve gives the same bytes with the reference kernels
    in place: the sort-based projection, ``np.linalg.svd`` for every SVD, and
    Y and S steps that build their identity matrices."""

    @staticmethod
    def _solve(monkeypatch, dims, gamma, snr_db):
        restarts = []
        solve = vm.solve

        def recording_solve(instance, config):
            X, S, trace = solve(instance, config)
            restarts.append([{k: v for k, v in vars(r).items() if k != "time_s"}
                             for r in trace.records]
                            + [(trace.converged, trace.rho_floor_hits, trace.stop_reason)])
            return X, S, trace

        monkeypatch.setattr(vm, "solve", recording_solve)
        inst, _ = vm.gen_data(*dims, gamma, snr_db, seed=0)
        X, S, _ = vm.solve_restarts(inst, vm.default_config(inst, seed=0))
        return X.tobytes(), S.tobytes(), restarts

    @pytest.mark.parametrize("dims, gamma, snr_db", [((10, 3, 200), 0.8, 40.0),
                                                      ((20, 5, 300), 0.6, 30.0)])
    def test_seeded_solve_restarts_bit_identical(self, monkeypatch, dims, gamma, snr_db):
        with monkeypatch.context() as m:
            m.setattr(numerics, "project_simplex_columns", _project_simplex_sorted)
            m.setattr(numerics, "_gesdd", _gesdd_by_numpy)
            m.setattr(vm, "update_Y", _update_Y_with_eye)
            m.setattr(vm, "update_S", _update_S_with_eye)
            want = self._solve(m, dims, gamma, snr_db)
        got = self._solve(monkeypatch, dims, gamma, snr_db)
        assert len(got[2]) == 3
        assert got == want


class TestMonotoneCubic:
    def test_zero_rhs(self):
        assert numerics.solve_monotone_cubic(1.0, 1.0, 0.0) == 0.0

    def test_constructed_root(self):
        assert numerics.solve_monotone_cubic(1.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a,b,d", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -0.5)])
    def test_invalid_inputs(self, a, b, d):
        with pytest.raises(InvalidInputError):
            numerics.solve_monotone_cubic(a, b, d)

    def test_non_finite_input_fails_numerically(self):
        with pytest.raises(NumericalFailureError):
            numerics.solve_monotone_cubic(1.0, 1.0, np.inf)

    def test_underflowing_closed_form_falls_back_to_newton(self):
        # d/(2a) and (b/(3a))^3 both underflow to 0, so the cube root is 0
        assert numerics.solve_monotone_cubic(1e100, 1e-10, 1e-300) == 0.0

    def test_cardano_closed_form_on_log_grid(self):
        # Cardano's formula cbrt(q/2 + r) + cbrt(q/2 - r), r = sqrt((q/2)^2 + (p/3)^3),
        # evaluated in 50-digit decimals, on a log-spaced grid of (a, b, d)
        def cbrt(x):
            r = Decimal(abs(float(x)) ** (1.0 / 3.0))
            for _ in range(6):
                r -= (r * r * r - abs(x)) / (3 * r * r)
            return r if x >= 0 else -r

        grid = np.logspace(-6.0, 6.0, 13)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for a, b, d in itertools.product(grid, repeat=3):
                p, q = Decimal(b) / Decimal(a), Decimal(d) / Decimal(a)
                r = ((q / 2) ** 2 + (p / 3) ** 3).sqrt()
                exact = cbrt(q / 2 + r) + cbrt(q / 2 - r)
                got = Decimal(numerics.solve_monotone_cubic(float(a), float(b), float(d)))
                worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-14
