"""The property catalogue behind the ``verify`` CLI subcommand.

Each catalogue entry checks one documented invariant of the library
(surrogate bounds, projection optimality, residual contracts, schedule
identities, monotone descent) with seeded random draws, and returns one
record per property name. An entry draws from its own generator, derived
from ``(seed, "suite/name")``, so its draws do not depend on which entries
ran before it. ``pddopt verify`` prints the records; the pytest suite runs
the catalogue once per session and asserts on the same records, so a plain
``pddopt verify all`` reproduces what CI enforces.

The toy problems, random-iterate helpers, the dense multicast forms
of :func:`dense_forms` and the simplex least-squares oracle
:func:`simplex_ls_oracle` are shared with the hand-written tests.
"""

import contextlib
import itertools
from dataclasses import dataclass, fields, replace

import numpy as np

from . import multicast as mc
from . import numerics
from . import relay as rl
from . import volmin as vm
from .core import BlockProblem, PddConfig, pdd_run, rbsum_run, stationarity_residuals
from .errors import NumericalFailureError


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Property:
    """A catalogue entry: ``check(rng)`` returns a ``(passed, detail)`` pair,
    or one pair per name when the entry has several names. A check that
    raises fails each of its names, and the other entries still run."""

    suite: str
    names: tuple
    check: object

    def run(self, seed=0):
        rng = np.random.default_rng([seed, *f"{self.suite}/{self.names[0]}".encode()])
        try:
            outcomes = self.check(rng)
            if len(self.names) == 1:
                outcomes = [outcomes]
        except Exception as exc:
            outcomes = [(False, f"raised {type(exc).__name__}: {exc}")] * len(self.names)
        return [CheckResult(self.suite, name, bool(passed), detail)
                for name, (passed, detail) in zip(self.names, outcomes, strict=True)]


CATALOGUE = []


def _property(suite, *names):
    def register(check):
        CATALOGUE.append(Property(suite, names, check))
        return check
    return register


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def fd_block_gradient(problem, i, z, duals, rho, step=1e-5):
    """Central finite differences of the AL through a block's flat coordinates.

    ``duals`` is ``problem.unpack_duals(lam, rho)``."""
    x = problem.block_value(i, z)
    g = np.empty_like(x)
    for j in range(x.size):
        xp = x.copy()
        xp[j] += step
        xm = x.copy()
        xm[j] -= step
        g[j] = (
            problem.al_value(problem.set_block_value(i, z, xp), duals, rho)
            - problem.al_value(problem.set_block_value(i, z, xm), duals, rho)
        ) / (2.0 * step)
    return g


def _rel_err(approx, exact):
    return float(np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact)))


def _al_sweeps(prob, z, lam, rho, sweeps=3):
    """Run full sweeps; return whether the AL never rose and the iterates."""
    ok, iterates = True, []
    duals = prob.unpack_duals(lam, rho)
    L_prev = prob.al_value(z, duals, rho)
    for _ in range(sweeps):
        for i in range(prob.n_blocks):
            z = prob.step(i, z, duals, rho)
        L = prob.al_value(z, duals, rho)
        ok &= L <= L_prev + 1e-9 * (1.0 + abs(L_prev))
        L_prev = L
        iterates.append(z)
    return ok, iterates


def rand_unit_vec(rng, n):
    """A random complex unit vector of length ``n``."""
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w / np.linalg.norm(w)


def dense_forms(inst):
    """The K x n x n multicast forms ``(A, B)``, n = n_g * N_t, as a reference.

    For user k in group i, ``A_k = kron(e_i e_i^T, h_k h_k^H)`` (PSD) and
    ``B_k = kron(I - e_i e_i^T, h_k h_k^H) + (sigma2_k / P_BS) I`` (PD). The
    library works from the gain matrix only; oracles compare against these.
    """
    n = inst.dim
    A = np.empty((inst.n_users, n, n), dtype=complex)
    B = np.empty_like(A)
    for k, h in enumerate(inst.channels):
        R = np.outer(h, h.conj())
        sel = np.zeros(inst.n_groups)
        sel[inst.group_of[k]] = 1.0
        A[k] = np.kron(np.diag(sel), R)
        B[k] = np.kron(np.diag(1.0 - sel), R) + (inst.sigma2[k] / inst.p_bs) * np.eye(n)
    return A, B


def rand_relay_iterate(inst, rng, scale=1.0):
    """Random relay iterate and dual matrices ``(Z, Zf, Zx, Zv)``, drawn in that order."""
    def cm(shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    z = rl.RelayIterate(
        V=cm((inst.n_s, inst.n_users)), F=cm((inst.n_r, inst.n_r)),
        X=cm((inst.n_r, inst.n_users)), Vb=cm((inst.n_s, inst.n_users)),
        Fb=cm((inst.n_r, inst.n_r)), Xb=cm((inst.n_r, inst.n_users)), instance=inst,
    )
    duals = (cm((inst.n_r, inst.n_users)), cm((inst.n_r, inst.n_r)),
             cm((inst.n_r, inst.n_users)), cm((inst.n_s, inst.n_users)))
    return z, duals


def rand_volmin_iterate(inst, rng):
    """Random volmin iterate and dual matrices ``(P, Q)``, drawn in that order."""
    N, K, L = inst.n_rows, inst.rank, inst.n_cols
    z = vm.VolMinIterate(
        X=rng.standard_normal((N, K)),
        S=numerics.project_simplex_columns(rng.standard_normal((K, L))),
        Y=rng.standard_normal((N, K)),
    )
    P = 0.3 * rng.standard_normal((N, L))
    Q = 0.3 * rng.standard_normal((N, K))
    return z, P, Q


class ToyEquality(BlockProblem):
    """min ||z||^2 s.t. z1 - 1 = 0; one block with exact AL minimization."""

    n_blocks = 1

    def constraint(self, z):
        return np.array([z[0] - 1.0])

    def objective(self, z):
        return float(z @ z)

    def al_value(self, z, lam, rho):
        h = z[0] - 1.0
        return float(z @ z + lam[0] * h + h * h / (2.0 * rho))

    def step(self, i, z, lam, rho):
        out = np.zeros_like(z)
        out[0] = (1.0 / rho - lam[0]) / (2.0 + 1.0 / rho)
        return out

    def block_value(self, i, z):
        return z.copy()

    def set_block_value(self, i, z, v):
        return np.asarray(v, dtype=float).copy()

    def al_block_gradient(self, i, z, lam, rho):
        g = 2.0 * z.copy()
        g[0] += lam[0] + (z[0] - 1.0) / rho
        return g


class Quad3(BlockProblem):
    """Unconstrained convex quadratic with three coordinate blocks."""

    n_blocks = 3

    def __init__(self, Q, b):
        self.Q, self.b = Q, b

    @classmethod
    def random(cls, rng):
        M = rng.standard_normal((3, 3))
        return cls(M @ M.T + 3.0 * np.eye(3), rng.standard_normal(3))

    def constraint(self, z):
        return np.zeros(0)

    def al_value(self, z, lam, rho):
        return float(0.5 * z @ self.Q @ z - self.b @ z)

    def step(self, i, z, lam, rho):
        z = z.copy()
        z[i] = (self.b[i] - self.Q[i] @ z + self.Q[i, i] * z[i]) / self.Q[i, i]
        return z

    def block_value(self, i, z):
        return np.array([z[i]])

    def set_block_value(self, i, z, v):
        z = z.copy()
        z[i] = v[0]
        return z

    def al_block_gradient(self, i, z, lam, rho):
        return np.array([(self.Q @ z - self.b)[i]])


class SphereToy(BlockProblem):
    """min 0.5 x^T Q x over the unit sphere, one block whose exact step is the
    eigenvector of Q's smallest eigenvalue. The eigenvalues of Q lie in
    (0.1, 0.9), so the unit-step projected gradient fixes every eigenvector."""

    n_blocks = 1

    def __init__(self, Q):
        self.Q = Q

    @classmethod
    def random(cls, rng):
        n = int(rng.integers(2, 9))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return cls((U * rng.uniform(0.1, 0.9, n)) @ U.T)

    def constraint(self, z):
        return np.zeros(0)

    def al_value(self, z, lam, rho):
        return float(0.5 * z @ self.Q @ z)

    def step(self, i, z, lam, rho):
        return numerics.min_eigvec_sym(self.Q)[0]

    def block_value(self, i, z):
        return z.copy()

    def set_block_value(self, i, z, v):
        return np.asarray(v, dtype=float).copy()

    def al_block_gradient(self, i, z, lam, rho):
        return self.Q @ z

    def block_prox(self, i):
        return lambda v: v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# numerics
# --------------------------------------------------------------------------

@_property("numerics", "embedding-isometry")
def _embedding_isometry(rng):
    worst_form, worst_norm = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (G + G.conj().T)
        w = rand_unit_vec(rng, n)
        we = numerics.real_embed_vec(w)
        Me = numerics.real_embed_hermitian(M)
        worst_form = max(worst_form, abs(np.real(np.vdot(w, M @ w)) - we @ Me @ we))
        worst_norm = max(worst_norm, abs(np.linalg.norm(we) - np.linalg.norm(w)))
    return (worst_form < 1e-10 and worst_norm < 1e-12,
            f"worst form dev {worst_form:.2e}, norm dev {worst_norm:.2e}")


@_property("numerics", "eig-residual-bound")
def _eig_residual_bound(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        C = rng.standard_normal((n, n))
        C = 0.5 * (C + C.T)
        v, lam = numerics.min_eigvec_sym(C)
        nc = max(np.abs(np.linalg.eigvalsh(C)))
        worst = max(worst, np.linalg.norm(C @ v - lam * v) / max(nc, 1e-300))
    return worst <= 1e-9, f"worst {worst:.2e}"


@_property("numerics", "eig-rayleigh-oracle")
def _eig_rayleigh_oracle(rng):
    ok = True
    for _ in range(25):
        n = int(rng.integers(2, 9))
        C = rng.standard_normal((n, n))
        C = 0.5 * (C + C.T)
        v, _ = numerics.min_eigvec_sym(C)
        samples = rng.standard_normal((1000, n))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        ok &= v @ C @ v <= np.einsum("ij,jk,ik->i", samples, C, samples).min() + 1e-12
    return ok, ""


@_property("numerics", "svd-residual-bound")
def _svd_residual_bound(rng):
    worst, sorted_ok = 0.0, True
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        M = rng.standard_normal((n, k))
        U, s, V = numerics.thin_svd(M)
        sorted_ok &= bool(np.all(np.diff(s) <= 1e-12))
        scale = max(s[0], 1e-300)
        worst = max(worst, np.linalg.norm(U @ np.diag(s) @ V.T - M) / scale)
        worst = max(worst, np.linalg.norm(U.T @ U - np.eye(k)))
        worst = max(worst, np.linalg.norm(V.T @ V - np.eye(k)))
    return worst <= 1e-9 and sorted_ok, f"worst {worst:.2e}, sorted {sorted_ok}"


@_property("numerics", "sylvester-residual-bound", "sylvester-kronecker-oracle")
def _sylvester(rng):
    worst_res, worst_orc = 0.0, 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cplx = trial % 2 == 1
        def mat(a, b):
            M = rng.standard_normal((a, b))
            return M + 1j * rng.standard_normal((a, b)) if cplx else M
        Ga = mat(n, n)
        A = Ga @ Ga.conj().T + np.eye(n)          # PD
        Gb = mat(m, m)
        B = Gb @ Gb.conj().T                       # PSD
        C = mat(n, m)
        F = numerics.solve_sylvester(A, B, C)
        r = np.linalg.norm(A @ F + F @ B - C)
        bound = 1e-8 * (np.linalg.norm(A) + np.linalg.norm(B)) * np.linalg.norm(F) + 1e-12
        worst_res = max(worst_res, r / bound)
        if trial % 50 < 2:  # 20 real and 20 complex oracle solves
            K = np.kron(np.eye(m), A) + np.kron(B.T, np.eye(n))
            F_orc = np.linalg.solve(K, C.ravel(order="F")).reshape((n, m), order="F")
            # relative Frobenius error and entrywise |F - F_orc| - 1e-8 |F_orc|, both <= 1e-8
            worst_orc = max(worst_orc, _rel_err(F, F_orc),
                            (np.abs(F - F_orc) - 1e-8 * np.abs(F_orc)).max())
    return ((worst_res <= 1.0, f"worst residual/bound {worst_res:.2e}"),
            (worst_orc <= 1e-8, f"worst mismatch {worst_orc:.2e}"))


@_property("numerics", "projection-idempotence", "simplex-kkt-certificate")
def _projections(rng):
    worst_idem, worst_kkt, worst_sum, nonneg = 0.0, 0.0, 0.0, True
    for _ in range(500):
        n = int(rng.integers(1, 12))
        x = 3.0 * rng.standard_normal(n)
        r = float(rng.uniform(0.1, 2.0))
        p1 = numerics.project_ball(x, r)
        worst_idem = max(worst_idem, np.abs(numerics.project_ball(p1, r) - p1).max())
        s = numerics.project_simplex_columns(x[:, None])[:, 0]
        s2 = numerics.project_simplex_columns(s[:, None])[:, 0]
        worst_idem = max(worst_idem, np.abs(s2 - s).max())
        worst_sum = max(worst_sum, abs(s.sum() - 1.0))
        nonneg &= bool(s.min() >= 0.0)
        active = s > 0
        if active.any():
            theta = x[active] - s[active]
            worst_kkt = max(worst_kkt, theta.max() - theta.min())
            if (~active).any():
                worst_kkt = max(worst_kkt, max(0.0, (x[~active] - theta.mean()).max()))
    return ((worst_idem <= 1e-12, f"worst {worst_idem:.2e}"),
            (worst_kkt <= 1e-9 and worst_sum <= 1e-12 and nonneg,
             f"theta spread {worst_kkt:.2e}, sum dev {worst_sum:.2e}, nonnegative {nonneg}"))


@_property("numerics", "cubic-bisection-oracle")
def _cubic_bisection_oracle(rng):
    worst, worst_res = 0.0, 0.0
    for _ in range(500):
        a = float(rng.uniform(0.01, 100.0))
        b = float(rng.uniform(0.01, 100.0))
        d = float(rng.uniform(0.0, 100.0))
        s = numerics.solve_monotone_cubic(a, b, d)
        lo, hi = 0.0, d / b
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if a * mid**3 + b * mid - d > 0:
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(s - 0.5 * (lo + hi)))
        worst_res = max(worst_res, abs(a * s**3 + b * s - d) / max(1.0, abs(d)))
    return (worst <= 1e-12 and worst_res <= 1e-12,
            f"worst {worst:.2e}, worst relative residual {worst_res:.2e}")


# --------------------------------------------------------------------------
# pdd-core
# --------------------------------------------------------------------------

@_property("pdd-core", "dual-update-identity", "penalty-branch-condition",
           "rho-monotone-nonincreasing", "eta-shrink-factor")
def _pdd_branch_identities(rng):
    # the PDD branch identities, replayed from a trace
    toy = ToyEquality()
    cfg = PddConfig(mode="pdd", rho0=1.0, c=0.7, tau=0.9, eps0=1e-2,
                    max_outer=25, max_inner=1, eps_outer=1e-12)
    z0 = np.array([4.0, 1.0])
    _, lam_final, trace = pdd_run(toy, z0, np.zeros(1), cfg)
    ok_pen, ok_eta = True, True
    lam = np.zeros(1)
    z_sim = z0
    eta_prev = None
    for rec in trace.records:
        z_sim = toy.step(0, z_sim, lam, rec.rho)
        h = toy.constraint(z_sim)
        if rec.branch == "dual-update":
            lam = lam + h / rec.rho
        else:
            ok_pen &= abs(h[0]) > rec.eta
        if eta_prev is not None:
            ok_eta &= rec.eta <= 0.9 * eta_prev + 1e-15
        eta_prev = rec.eta
    rhos = trace.column("rho")
    ok_rho_mono = all(r2 <= r1 + 1e-15 for r1, r2 in zip(rhos, rhos[1:]))
    return ((np.allclose(lam, lam_final), ""), (ok_pen, ""), (ok_rho_mono, ""),
            (ok_eta, ""))


@_property("pdd-core", "ipdd-virtual-multiplier-identity", "ipdd-toy-kkt-convergence")
def _ipdd_toy(rng):
    toy = ToyEquality()
    cfg = PddConfig(mode="ipdd", rho0=1.0, c=0.8, eps0=1e-3, max_outer=50,
                    max_inner=1, eps_outer=1e-7)
    z0 = np.array([5.0, 3.0, -2.0])
    z, lam_final, trace = pdd_run(toy, z0, np.zeros(1), cfg)
    lam = np.zeros(1)
    z_sim = z0
    for rec in trace.records:
        z_sim = toy.step(0, z_sim, lam, rec.rho)
        lam = lam + toy.constraint(z_sim) / rec.rho
    converged = (abs(z[0] - 1.0) < 1e-6 and np.abs(z[1:]).max() <= 1e-12
                 and abs(lam_final[0] + 2.0) < 1e-5 and trace.records[-1].h_inf < 1e-6)
    return ((np.allclose(lam, lam_final), ""),
            (converged, f"z1={z[0]:.8f} lam={lam_final[0]:.6f}"))


@_property("pdd-core", "rbsum-quadratic-oracle")
def _rbsum_quadratic_oracle(rng):
    quad = Quad3.random(rng)
    z, _, converged = rbsum_run(quad, np.zeros(3), np.zeros(0), 1.0,
                                eps_inner=1e-14, max_inner=500)
    err = np.abs(z - np.linalg.solve(quad.Q, quad.b)).max()
    return converged and err < 1e-6, f"err {err:.2e}, converged {converged}"


@_property("pdd-core", "rbsum-seeded-reproducibility")
def _rbsum_seeded_reproducibility(rng):
    quad = Quad3.random(rng)
    za, _, _ = rbsum_run(quad, np.ones(3), np.zeros(0), 1.0, seed=42,
                         eps_inner=1e-10, max_inner=9)
    zb, _, _ = rbsum_run(quad, np.ones(3), np.zeros(0), 1.0, seed=42,
                         eps_inner=1e-10, max_inner=9)
    return np.array_equal(za, zb), ""


@_property("pdd-core", "rbsum-monotone-descent")
def _rbsum_monotone_descent(rng):
    quad = Quad3.random(rng)
    ok = True
    z = 5.0 * rng.standard_normal(3)
    L_prev = quad.al_value(z, np.zeros(0), 1.0)
    for _ in range(30):
        z, _, _ = rbsum_run(quad, z, np.zeros(0), 1.0, seed=rng,
                            eps_inner=0.0, max_inner=1)
        L = quad.al_value(z, np.zeros(0), 1.0)
        ok &= L <= L_prev + 1e-9 * (1.0 + abs(L_prev))
        L_prev = L
    return ok, ""


@_property("pdd-core", "residual-zero-at-minimizer")
def _residual_zero_at_minimizer(rng):
    quad = Quad3.random(rng)
    z_star = np.linalg.solve(quad.Q, quad.b)
    r = stationarity_residuals(quad, z_star, np.zeros(0), 1.0)
    return np.abs(r).max() < 1e-8, ""


@_property("pdd-core", "residual-zero-on-sphere")
def _residual_zero_on_sphere(rng):
    # at a constrained minimizer the gradient stays nonzero, the residual does not
    toy = SphereToy.random(rng)
    z_star, _ = numerics.min_eigvec_sym(toy.Q)
    grad = np.linalg.norm(toy.al_block_gradient(0, z_star, np.zeros(0), 1.0))
    _, sweeps, converged = rbsum_run(toy, z_star, np.zeros(0), 1.0, stop="residual",
                                     eps_inner=1e-10, max_inner=20)
    return (sweeps == 1 and converged and grad > 0.1,
            f"sweeps {sweeps}, converged {converged}, |g| {grad:.2e}")


@_property("pdd-core", "fd-gradient-consistency")
def _fd_gradient_consistency(rng):
    quad = Quad3.random(rng)
    worst = 0.0
    for _ in range(5):
        zr = rng.standard_normal(3)
        for i in range(3):
            fd = fd_block_gradient(quad, i, zr, np.zeros(0), 1.0)
            worst = max(worst, _rel_err(fd, quad.al_block_gradient(i, zr, np.zeros(0), 1.0)))
    toy = ToyEquality()
    zr = rng.standard_normal(2) + 2.0
    fd = fd_block_gradient(toy, 0, zr, np.array([0.3]), 0.7)
    worst = max(worst, _rel_err(fd, toy.al_block_gradient(0, zr, np.array([0.3]), 0.7)))
    return worst <= 1e-4, f"worst rel {worst:.2e}"


# --------------------------------------------------------------------------
# BlockProblem contracts, one check each, run by every app's suite
# --------------------------------------------------------------------------

def check_carried_values(problem, starts, new_iterate, sources, rng):
    """The carried-values rule of :class:`~pddopt.core.BlockProblem`. From
    each start ``(z, lam, rho)``, two sweeps in random block order take every
    ``step``, each followed by a ``set_block_value`` of that block.
    ``new_iterate(z)`` is a fresh constructor call on z's blocks, and
    ``sources[name]`` the blocks that carried value ``name`` is built from."""
    faults = dict.fromkeys(("stale", "altered", "not reused", "stale after replace"), 0)

    def carried(z):   # each init=False field as bytes, a tuple entry by entry
        values = {f.name: getattr(z, f.name) for f in fields(z) if not f.init}
        return {name: [(a.dtype.str, a.shape, a.tobytes())
                       for a in map(np.asarray, v if isinstance(v, tuple) else (v,))]
                for name, v in values.items()}

    def follow(make, i, z, *args):
        before, new = carried(z), make(i, z, *args)
        faults["stale"] += carried(new) != carried(new_iterate(new))
        faults["altered"] += carried(z) != before
        faults["not reused"] += sum(
            getattr(new, name) is not getattr(z, name) for name in before
            if all(getattr(new, b) is getattr(z, b) for b in sources[name]))
        return new

    for z, lam, rho in starts:
        faults["stale"] += carried(z) != carried(new_iterate(z))
        for name in (f.name for f in fields(z) if f.init):
            with contextlib.suppress(ValueError):   # replace may raise instead
                new = replace(z, **{name: getattr(z, name) + 1.0})
                faults["stale after replace"] += carried(new) != carried(new_iterate(new))
        duals = problem.unpack_duals(lam, rho)
        for i in np.concatenate([rng.permutation(problem.n_blocks) for _ in range(2)]).tolist():
            z = follow(problem.step, i, z, duals, rho)
            v = problem.block_value(i, z)
            follow(problem.set_block_value, i, z, v + 0.1 * rng.standard_normal(v.size))
    return not any(faults.values()), ", ".join(f"{n} {kind}" for kind, n in faults.items())


def check_prox_fixed_point(problem, i, starts, off_set, rng):
    """The ``block_prox`` hook of block ``i`` against that block's exact step.
    From each start ``(z, lam, rho)``, after ``step(i)`` the block's slice of
    :func:`~pddopt.core.stationarity_residuals` is at most
    ``1e-9 (1 + ||g_i||_inf)``, with ``g_i`` the block's AL gradient there.
    The prox of random points lies on the block's set (``off_set(x)``, the
    distance to it in the set's own scale, is at most 1e-12) and is a fixed
    point of the prox."""
    prox = problem.block_prox(i)
    worst_res, worst_set, worst_idem = 0.0, 0.0, 0.0
    for z, lam, rho in starts:
        duals = problem.unpack_duals(lam, rho)
        z = problem.step(i, z, duals, rho)
        sizes = [problem.block_value(j, z).size for j in range(problem.n_blocks)]
        lo = sum(sizes[:i])
        r = stationarity_residuals(problem, z, duals, rho)[lo:lo + sizes[i]]
        g = problem.al_block_gradient(i, z, duals, rho)
        worst_res = max(worst_res, np.abs(r).max() / (1.0 + np.abs(g).max()))
        for scale in (0.1, 1.0, 10.0):
            p = prox(scale * rng.standard_normal(sizes[i]))
            worst_set = max(worst_set, off_set(p))
            worst_idem = max(worst_idem, np.abs(prox(p) - p).max() / max(np.abs(p).max(), 1.0))
    return (worst_res <= 1e-9 and worst_set <= 1e-12 and worst_idem <= 1e-12,
            f"worst residual {worst_res:.1e} (relative to 1 + |g|_inf), "
            f"off set {worst_set:.1e}, prox(prox) dev {worst_idem:.1e}")


def check_stateless_problem(new_problem, starts):
    """The stateless rule of :class:`~pddopt.core.BlockProblem`: from each
    start, one problem reused for two ``rbsum_run`` calls, with ``lam``
    changed in place between them, ends each where a fresh one does."""
    reused, ends = new_problem(), []
    for z0, lam, rho in starts:
        lam = lam.copy()
        for _ in range(2):
            for prob, lam_k in ((reused, lam), (new_problem(), lam.copy())):
                try:
                    z, sweeps, _ = rbsum_run(prob, z0, prob.unpack_duals(lam_k, rho), rho,
                                             seed=5, max_inner=4)
                    ends.append([sweeps] + [prob.block_value(i, z).tobytes()
                                            for i in range(prob.n_blocks)])
                except NumericalFailureError as exc:   # stale duals can break descent
                    ends.append(repr(exc))
            lam *= -0.5       # in place, between the runs
            lam[0] += 1.0
    differ = sum(a != b for a, b in zip(ends[::2], ends[1::2]))
    return differ == 0, f"{differ} of {len(ends) // 2} solves differ from a fresh problem's"


# --------------------------------------------------------------------------
# multicast
# --------------------------------------------------------------------------

def _mc_instance(rng):
    return mc.gen_instance(4, 2, 2, 10.0, seed=int(rng.integers(1 << 16)))


@_property("multicast", "sinr-quadratic-form-identity")
def _sinr_quadratic_form_identity(rng):
    # SINR identity of the assembled quadratic forms against the channel model
    inst = _mc_instance(rng)
    A, B = dense_forms(inst)
    worst = 0.0
    for _ in range(20):
        w = rand_unit_vec(rng, inst.dim)
        sinr_direct = mc.sinr_values(np.sqrt(inst.p_bs) * w, inst)
        for k in range(inst.n_users):
            qa = np.real(np.vdot(w, A[k] @ w))
            qb = np.real(np.vdot(w, B[k] @ w))
            worst = max(worst, abs(qa / qb - sinr_direct[k]) / sinr_direct[k])
    return worst < 1e-10, f"worst rel dev {worst:.2e}"


@_property("multicast", "surrogate-dominance", "surrogate-tightness")
def _surrogate_bounds(rng):
    # quadratic surrogate: global dominance on the sphere + tightness
    inst = _mc_instance(rng)
    K = inst.n_users
    worst_gap, worst_tight = 0.0, 0.0
    for _ in range(20):
        wt = rand_unit_vec(rng, inst.dim)
        t = np.abs(rng.standard_normal(K)) * 2.0
        lam = rng.standard_normal(K)
        rho = float(rng.uniform(0.05, 2.0))
        C, const = mc.build_surrogate_C(mc.MulticastIterate(wt, t, inst), lam, rho, inst)
        we = numerics.real_embed_vec(wt)
        worst_tight = max(worst_tight,
                          abs(we @ C @ we + const - mc.theta_value(wt, t, lam, rho, inst)))
        for _ in range(100):
            w = rand_unit_vec(rng, inst.dim)
            we = numerics.real_embed_vec(w)
            gap = we @ C @ we + const - mc.theta_value(w, t, lam, rho, inst)
            worst_gap = max(worst_gap, -gap)
    return ((worst_gap <= 1e-8, f"worst violation {worst_gap:.2e}"),
            (worst_tight <= 1e-8, f"worst dev {worst_tight:.2e}"))


@_property("multicast", "t-subproblem-grid-oracle")
def _t_subproblem_grid_oracle(rng):
    # t-subproblem against a dense 1-D grid over the common floor
    worst, floor_ok = 0.0, True
    for _ in range(200):
        kk = int(rng.integers(1, 6))
        a = rng.uniform(0.05, 3.0, kk)
        b = rng.uniform(-3.0, 5.0, kk)
        t, s = mc.solve_t_subproblem(a, b)
        floor_ok &= np.array_equal(t, np.maximum(b, s)) and s >= 0.0
        obj = t.min() - a @ (t - b) ** 2
        grid = np.linspace(0.0, max(b.max(), 0.0) + 1.0 / (2.0 * a.min()) + 1.0, 4001)
        tg = np.maximum(b[None, :], grid[:, None])
        objs = tg.min(axis=1) - (a[None, :] * (tg - b[None, :]) ** 2).sum(axis=1)
        worst = max(worst, objs.max() - obj)
    return (worst <= 1e-5 and floor_ok,
            f"worst suboptimality {worst:.2e}, t == max(b, s) >= 0: {floor_ok}")


@_property("multicast", "inner-al-monotone")
def _mc_inner_al_monotone(rng):
    # inner AL monotonicity across full sweeps from random starts
    inst = _mc_instance(rng)
    prob = mc.MulticastProblem(inst)
    ok = True
    for _ in range(100):
        z = mc.MulticastIterate(w=rand_unit_vec(rng, inst.dim),
                                t=np.abs(rng.standard_normal(inst.n_users)) * 3.0,
                                instance=inst)
        lam = rng.standard_normal(inst.n_users)
        ok &= _al_sweeps(prob, z, lam, float(rng.uniform(0.1, 2.0)))[0]
    return ok, ""


@_property("multicast", "fd-al-gradient")
def _mc_fd_al_gradient(rng):
    # finite-difference check of the AL gradients (w full; t smooth + argmin part)
    inst = _mc_instance(rng)
    prob = mc.MulticastProblem(inst)
    worst = 0.0
    for _ in range(5):
        z = mc.MulticastIterate(w=rand_unit_vec(rng, inst.dim),
                                t=rng.uniform(0.5, 3.0, inst.n_users), instance=inst)
        lam = rng.standard_normal(inst.n_users)
        rho = 0.7
        g_w = prob.al_block_gradient(1, z, lam, rho)
        worst = max(worst, _rel_err(fd_block_gradient(prob, 1, z, lam, rho), g_w))
        g_t = prob.al_block_gradient(0, z, lam, rho).copy()
        g_t[int(np.argmin(z.t))] -= 1.0   # -min(t) subgradient at a unique argmin
        worst = max(worst, _rel_err(fd_block_gradient(prob, 0, z, lam, rho), g_t))
    return worst <= 1e-4, f"worst rel {worst:.2e}"


@_property("multicast", "carried-values", "stateless-problem")
def _mc_contracts(rng):
    inst = _mc_instance(rng)
    K = inst.n_users
    # group 0's own gains are 0 at w_dead, so the surrogate takes its jitter path
    w_dead = np.concatenate([np.zeros(inst.n_t), rand_unit_vec(rng, inst.dim - inst.n_t)])
    zs = [mc.initial_iterate(inst, rng)] + [mc.MulticastIterate(w, rng.uniform(0.0, 3.0, K), inst)
                                           for w in (rand_unit_vec(rng, inst.dim), w_dead)]
    starts = [(z, rng.standard_normal(K), 0.7) for z in zs]
    sources = dict.fromkeys(("G", "na", "nb", "Aw", "Bw"), ("w",))
    return (check_carried_values(mc.MulticastProblem(inst), starts,
                                 lambda z: mc.MulticastIterate(z.w, z.t, inst), sources, rng),
            check_stateless_problem(lambda: mc.MulticastProblem(inst), starts))


@_property("multicast", "kkt-grid-oracle")
def _kkt_grid_oracle(rng):
    # KKT residual: simplex grid oracle at K = 2
    inst = mc.gen_instance(3, 2, 1, 10.0, seed=int(rng.integers(1 << 16)))
    worst_below, worst_above, nonneg = 0.0, 0.0, True
    for _ in range(5):
        w = rand_unit_vec(rng, inst.dim)
        r = mc.kkt_residual(w, inst)
        we = numerics.real_embed_vec(w)
        G = mc.rayleigh_gradients(w, inst)
        Mproj = G - np.outer(we, we @ G)
        grid = np.linspace(0.0, 1.0, 1001)
        vals = np.linalg.norm(Mproj @ np.vstack([grid, 1.0 - grid]), axis=0)
        nonneg &= r >= 0.0
        worst_below = max(worst_below, r - vals.min())
        # PG may only beat the grid by its resolution times the local slope
        worst_above = max(worst_above,
                          (vals.min() - r) / (1.0 + np.linalg.norm(Mproj, 2)))
    return (worst_below <= 1e-6 and worst_above <= 1e-3 and nonneg,
            f"above grid {worst_below:.2e}, below grid {worst_above:.2e} (relative)")


@_property("multicast", "h-nonincrease-on-dual-branch")
def _h_nonincrease_on_dual_branch(rng):
    # ||h|| does not rise on at least 95% of the dual-branch iterations
    inst = mc.gen_instance(8, 4, 2, 10.0, seed=7)
    _, _, trace = mc.solve(inst, mc.default_config(inst, seed=7))
    hs = trace.column("h_inf")
    branches = trace.column("branch")
    pairs = [(h1, h2) for (h1, h2, b) in zip(hs, hs[1:], branches[1:])
             if b == "dual-update"]
    frac = (sum(1 for h1, h2 in pairs if h2 <= h1 + 1e-12) / len(pairs)) if pairs else 1.0
    return frac >= 0.95, f"non-increasing on {100 * frac:.0f}% of dual steps (target 95%)"


@_property("multicast", "power-scaling-identity")
def _power_scaling_identity(rng):
    inst = mc.gen_instance(4, 2, 1, 10.0, seed=11)
    w_scaled, _, _ = mc.solve(inst, mc.default_config(inst, seed=11, max_outer=8))
    return abs(np.linalg.norm(w_scaled) ** 2 - inst.p_bs) <= 1e-8, ""


@_property("multicast", "channel-subspace")
def _channel_subspace(rng):
    # what the K < N_t reduction of mc.solve rests on: projecting each w_i onto
    # span{h_k} and renormalising lowers no SINR, and at w_i = Q u_i the
    # reduced instance's gains are the full instance's
    inst = mc.gen_instance(6, 2, 2, 10.0, seed=int(rng.integers(1 << 16)))
    Q, reduced = mc.channel_subspace(inst)
    worst_ratio, worst_gain = np.inf, 0.0
    for _ in range(20):
        w = rand_unit_vec(rng, inst.dim)
        W = mc.group_beamformers(w, inst)
        w_span = (W @ Q.conj() @ Q.T).ravel()   # rows (Q Q^H w_i)^T
        before = mc.sinr_values(np.sqrt(inst.p_bs) * w, inst)
        after = mc.sinr_values(np.sqrt(inst.p_bs) * w_span / np.linalg.norm(w_span), inst)
        worst_ratio = min(worst_ratio, float(np.min(after / before)))
        U = mc.group_beamformers(rand_unit_vec(rng, reduced.dim), reduced)
        gains = inst.channels.conj() @ (U @ Q.T).T
        gains_reduced = reduced.channels.conj() @ U.T
        worst_gain = max(worst_gain,
                         float(np.abs(gains_reduced - gains).max() / np.abs(gains).max()))
    return (worst_ratio >= 1.0 - 1e-12 and worst_gain <= 1e-12,
            f"least SINR ratio projected/original {worst_ratio:.4f}, "
            f"worst gain dev {worst_gain:.2e} (relative)")


# --------------------------------------------------------------------------
# relay
# --------------------------------------------------------------------------

def _relay_instance(rng):
    return rl.gen_instance(2, 2, 2, 10.0, seed=int(rng.integers(1 << 16)))


def _surrogate_block_gradients(z, weights, duals, rho, inst):
    """Independent gradients of the quadratic MSE surrogate for F, X, V.

    Written directly from the surrogate objective (weighted MSE plus
    penalty), as the oracle against which the closed-form block updates
    are checked. ``weights`` are the ``(u, w)`` of the expansion point.
    """
    Z, Zf, Zx, Zv = duals
    G_w, D_w = rl.mse_matrices(*weights, inst)
    Gcol = inst.g.T
    H, sr = inst.H, inst.sigma_r
    M1 = Z + (z.X - z.F @ H @ z.V) / rho
    M2 = Zf + sr * (z.F - z.Fb) / rho
    M3 = Zx + (z.X - z.Xb) / rho
    M4 = Zv + (z.V - z.Vb) / rho
    HV = H @ z.V
    g_F = 2.0 * inst.sigma_r2 * G_w @ z.F - M1 @ HV.conj().T + sr * M2
    g_X = 2.0 * (G_w @ z.X - Gcol * D_w[None, :]) + M1 + M3
    FH = z.F @ H
    g_V = -FH.conj().T @ M1 + M4
    return g_F, g_X, g_V


@_property("relay", "weights-rate-identity")
def _weights_rate_identity(rng):
    # weights: w = 1 + SINR identity and w >= 1
    inst = _relay_instance(rng)
    worst = 0.0
    ok_w = True
    for _ in range(50):
        z, _ = rand_relay_iterate(inst, rng)
        _, w = rl.wmmse_weights(z.X, z.F, inst)
        ok_w &= bool(np.all(w >= 1.0))
        total, _, interf = rl._received_powers(z.X, z.F, inst)
        worst = max(worst, np.abs(np.log(w) - np.log(total / interf)).max())
    return worst < 1e-10 and ok_w, f"worst dev {worst:.2e}"


@_property("relay", "rate-lower-bound", "rate-lower-bound-tightness")
def _rate_lower_bound(rng):
    # MMSE-reformulation lower bound of the rate, tight at the expansion point
    inst = _relay_instance(rng)

    def rate_k(X, F):
        total, _, interf = rl._received_powers(X, F, inst)
        return np.log(total / interf)

    def mse_k(u, X, F):
        Mm = inst.g.conj() @ X
        gf = inst.g.conj() @ F
        own = np.diag(Mm)
        e = np.abs(1.0 - u.conj() * own) ** 2
        e += np.abs(u[:, None].conj() * Mm) ** 2 @ np.ones(inst.n_users) \
            - np.abs(u.conj() * own) ** 2
        e += inst.sigma_r2 * np.abs(u[:, None].conj() * gf) ** 2 @ np.ones(inst.n_r)
        e += inst.sigma2 * np.abs(u) ** 2
        return e

    worst_viol, worst_eq = 0.0, 0.0
    for _ in range(10):
        zt, _ = rand_relay_iterate(inst, rng)
        ut, wt = rl.wmmse_weights(zt.X, zt.F, inst)
        eq_gap = np.abs(rate_k(zt.X, zt.F) - (np.log(wt) - wt * mse_k(ut, zt.X, zt.F) + 1.0))
        worst_eq = max(worst_eq, eq_gap.max())
        for _ in range(100):
            z, _ = rand_relay_iterate(inst, rng)
            bound = np.log(wt) - wt * mse_k(ut, z.X, z.F) + 1.0
            worst_viol = max(worst_viol, (bound - rate_k(z.X, z.F)).max())
    return ((worst_viol <= 1e-8, f"worst violation {worst_viol:.2e}"),
            (worst_eq <= 1e-8, f"worst dev {worst_eq:.2e}"))


@_property("relay", "block-updates-zero-gradient")
def _block_updates_zero_gradient(rng):
    # closed-form block updates zero the surrogate block gradients
    inst = _relay_instance(rng)
    worst = 0.0
    for _ in range(20):
        z, duals = rand_relay_iterate(inst, rng)
        rho = float(rng.uniform(0.1, 2.0))
        weights = rl.wmmse_weights(z.X, z.F, inst)
        F = rl.update_F(z, weights, duals, rho, inst)
        zF = rl.RelayIterate(z.V, F, z.X, z.Vb, z.Fb, z.Xb, inst, z)
        g_F, _, _ = _surrogate_block_gradients(zF, weights, duals, rho, inst)
        worst = max(worst, np.abs(g_F).max())
        X = rl.update_X(z, weights, duals, rho, inst)
        zX = rl.RelayIterate(z.V, z.F, X, z.Vb, z.Fb, z.Xb, inst, z)
        _, g_X, _ = _surrogate_block_gradients(zX, weights, duals, rho, inst)
        worst = max(worst, np.abs(g_X).max())
        V = rl.update_V(z, duals, rho, inst)
        zV = rl.RelayIterate(V, z.F, z.X, z.Vb, z.Fb, z.Xb, inst, z)
        _, _, g_V = _surrogate_block_gradients(zV, weights, duals, rho, inst)
        worst = max(worst, np.abs(g_V).max())
    return worst <= 1e-7, f"worst grad entry {worst:.2e}"


@_property("relay", "bars-projection-optimality")
def _bars_projection_optimality(rng):
    # barred block: projection beats random feasible candidates
    inst = _relay_instance(rng)
    ok = True
    for _ in range(5):
        z, duals = rand_relay_iterate(inst, rng, 2.0)
        _, Zf, Zx, Zv = duals
        rho = 0.8
        Vb, Xb, Fb = rl.update_bars(z, duals, rho, inst)
        def bar_obj(Vb_, Xb_, Fb_):
            return (np.linalg.norm(z.V + rho * Zv - Vb_) ** 2
                    + np.linalg.norm(z.X + rho * Zx - Xb_) ** 2
                    + np.linalg.norm(inst.sigma_r * z.F + rho * Zf
                                     - inst.sigma_r * Fb_) ** 2)
        best = bar_obj(Vb, Xb, Fb)
        for _ in range(1000):
            Vc = rng.standard_normal(Vb.shape) + 1j * rng.standard_normal(Vb.shape)
            Vc *= np.sqrt(inst.p_s) * rng.uniform() / np.linalg.norm(Vc)
            Tc = rng.standard_normal((inst.n_r, inst.n_users + inst.n_r)) \
                + 1j * rng.standard_normal((inst.n_r, inst.n_users + inst.n_r))
            Tc *= np.sqrt(inst.p_r) * rng.uniform() / np.linalg.norm(Tc)
            Xc, Fc = Tc[:, :inst.n_users], Tc[:, inst.n_users:] / inst.sigma_r
            ok &= best <= bar_obj(Vc, Xc, Fc) + 1e-9
    return ok, ""


@_property("relay", "inner-al-monotone", "bars-feasibility-invariant")
def _relay_inner_al_monotone(rng):
    # AL monotone over sweeps from random starts; feasibility invariants
    inst = _relay_instance(rng)
    prob = rl.RelayProblem(inst)
    ok, ok_feas = True, True
    for _ in range(50):
        z, duals = rand_relay_iterate(inst, rng)
        monotone, iterates = _al_sweeps(prob, z, prob.pack_duals(*duals),
                                        float(rng.uniform(0.2, 2.0)))
        ok &= monotone
        for z in iterates:
            ok_feas &= np.linalg.norm(z.Vb) ** 2 <= inst.p_s + 1e-8
            ok_feas &= (np.linalg.norm(z.Xb) ** 2
                        + inst.sigma_r2 * np.linalg.norm(z.Fb) ** 2) <= inst.p_r + 1e-8
    return (ok, ""), (ok_feas, "")


@_property("relay", "fd-al-gradient")
def _relay_fd_al_gradient(rng):
    # finite-difference check of the relay AL gradients, all four blocks
    inst = _relay_instance(rng)
    prob = rl.RelayProblem(inst)
    worst = 0.0
    for _ in range(3):
        z, duals = rand_relay_iterate(inst, rng)
        rho = 0.9
        duals = prob.unpack_duals(0.3 * prob.pack_duals(*duals), rho)
        for i in range(4):
            fd = fd_block_gradient(prob, i, z, duals, rho)
            worst = max(worst, _rel_err(fd, prob.al_block_gradient(i, z, duals, rho)))
    return worst <= 1e-4, f"worst rel {worst:.2e}"


@_property("relay", "carried-values", "stateless-problem")
def _relay_contracts(rng):
    inst = rl.gen_instance(3, 4, 2, 10.0, seed=int(rng.integers(1 << 16)))  # N_s, N_r, K differ
    prob = rl.RelayProblem(inst)
    starts = [(z if k else rl.initial_iterate(inst, rng), prob.pack_duals(*duals), 0.7)
              for k, (z, duals) in enumerate(rand_relay_iterate(inst, rng) for _ in range(3))]
    sources = {"FH": ("F",), "FHV": ("F", "V"), "powers": ("F", "X")}
    return (check_carried_values(prob, starts, lambda z: rl.RelayIterate(
                z.V, z.F, z.X, z.Vb, z.Fb, z.Xb, inst), sources, rng),
            check_stateless_problem(lambda: rl.RelayProblem(inst), starts))


@_property("relay", "prox-fixed-point")
def _relay_prox_fixed_point(rng):
    # the barred block's ball projections against its exact step
    inst = _relay_instance(rng)
    prob = rl.RelayProblem(inst)
    starts = [(z, prob.pack_duals(*duals), float(rng.uniform(0.2, 2.0)))
              for z, duals in (rand_relay_iterate(inst, rng, 2.0) for _ in range(5))]
    n_vb = 2 * inst.n_s * inst.n_users

    def off_balls(v):
        return max(np.linalg.norm(v[:n_vb]) / np.sqrt(inst.p_s),
                   np.linalg.norm(v[n_vb:]) / np.sqrt(inst.p_r)) - 1.0

    return check_prox_fixed_point(prob, 1, starts, off_balls, rng)


# --------------------------------------------------------------------------
# volmin
# --------------------------------------------------------------------------

def _volmin_instance(rng):
    return vm.gen_data(8, 3, 40, 0.8, None, seed=int(rng.integers(1 << 16)))[0]


@_property("volmin", "g-eps-c1")
def _g_eps_c1(rng):
    # smoothed-volume C^1 property across the breakpoint
    eps = _volmin_instance(rng).eps
    xs = np.concatenate([np.linspace(1e-4, 3 * eps, 400),
                         [eps - 1e-9, eps, eps + 1e-9]])
    worst = 0.0
    step = 1e-8  # curvature jumps by 1/eps at the kink; error ~ step/(2 eps)
    for x in xs:
        _, d = vm.g_eps(x, eps)
        vp, _ = vm.g_eps(x + step, eps)
        vmn, _ = vm.g_eps(x - step, eps)
        worst = max(worst, abs((vp - vmn) / (2 * step) - d))
    return worst <= 1e-6, f"worst dev {worst:.2e}"


@_property("volmin", "y-update-zero-gradient", "y-update-linear-solve-oracle")
def _y_update(rng):
    # Y update: normal-equations oracle and vanishing block gradient
    inst = _volmin_instance(rng)
    prob = vm.VolMinProblem(inst)
    worst_g, worst_o = 0.0, 0.0
    for _ in range(20):
        z, P, Q = rand_volmin_iterate(inst, rng)
        rho = float(rng.uniform(0.1, 2.0))
        Y = vm.update_Y(z, inst.A + rho * P, Q, rho)
        zy = vm.replace(z, Y=Y)
        duals = prob.unpack_duals(np.concatenate([P.ravel(), Q.ravel()]), rho)
        worst_g = max(worst_g, np.abs(prob.al_block_gradient(0, zy, duals, rho)).max())
        # stacked least-squares oracle: Y [S I] ~ [A + rho P, X + rho Q]
        W = np.concatenate([z.S, np.eye(inst.rank)], axis=1)
        B = np.concatenate([inst.A + rho * P, z.X + rho * Q], axis=1)
        Y_orc = np.linalg.lstsq(W.T, B.T, rcond=None)[0].T
        worst_o = max(worst_o, np.abs(Y - Y_orc).max())
    return ((worst_g <= 1e-9, f"worst {worst_g:.2e}"),
            (worst_o <= 1e-10, f"worst {worst_o:.2e}"))


@_property("volmin", "s-update-majorization", "s-update-descent")
def _s_update(rng):
    # majorized S update (K = 4): majorization and descent of the data-fit objective
    inst = vm.gen_data(8, 4, 40, 0.8, None, seed=int(rng.integers(1 << 16)))[0]
    ok_major, ok_desc = True, True
    for _ in range(100):
        z, P, _ = rand_volmin_iterate(inst, rng)
        rho = float(rng.uniform(0.1, 2.0))
        beta = vm.default_beta(z.Y)
        target = inst.A + rho * P
        S_new = vm.update_S(z, target)

        def fit(S):
            return np.linalg.norm(z.Y @ S - target) ** 2

        def majorized(S):
            W = beta * np.eye(inst.rank) - z.Y.T @ z.Y
            D = S - z.S
            return fit(S) + np.einsum("kl,kl->", D, W @ D)

        ok_major &= majorized(S_new) <= majorized(z.S) + 1e-9 * (1 + abs(majorized(z.S)))
        ok_desc &= fit(S_new) <= fit(z.S) + 1e-9 * (1 + abs(fit(z.S)))
    return (ok_major, ""), (ok_desc, "")


def simplex_ls_oracle(Y, T):
    """Column-wise minimizer of ``||Y s - t||^2`` over the probability simplex,
    by brute force: on each of the 2^K - 1 faces, the minimizer over the
    face's affine hull (from its KKT system), and per column the best one
    that lies on the simplex. Returns ``(S, fit)``, the K x L minimizers and
    the per-column fits. Y must have full column rank."""
    K, L = Y.shape[1], T.shape[1]
    S, best = np.zeros((K, L)), np.full(L, np.inf)
    for r in range(1, K + 1):
        for face in itertools.combinations(range(K), r):
            Yf = Y[:, face]
            kkt = np.block([[Yf.T @ Yf, np.ones((r, 1))], [np.ones((1, r)), np.zeros((1, 1))]])
            sol = np.linalg.solve(kkt, np.vstack([Yf.T @ T, np.ones((1, L))]))[:r]
            cand = np.zeros((K, L))
            cand[list(face)] = np.maximum(sol, 0.0)
            fit = np.sum((Y @ cand - T) ** 2, axis=0)
            better = (sol.min(axis=0) >= -1e-14) & (fit < best)
            S[:, better], best[better] = cand[:, better], fit[better]
    return S, best


@_property("volmin", "s-update-exact")
def _s_update_exact(rng):
    # exact S update (K <= 3): the data fit of the face-enumeration oracle,
    # on columns whose optimum is interior, on an edge or at a vertex
    worst, off_simplex = 0.0, 0.0
    for K in (1, 2, 3):
        for _ in range(30):
            N, L = 8, 60
            Y = rng.standard_normal((N, K))
            C = rng.uniform(-0.5, 1.5, size=(K, L))
            C += (1.0 - C.sum(axis=0)) / K        # affine weights, some negative
            T = Y @ C + 0.3 * rng.standard_normal((N, L))
            z = vm.VolMinIterate(X=Y, S=np.full((K, L), 1.0 / K), Y=Y)
            S = vm.update_S(z, T)
            fit = np.sum((Y @ S - T) ** 2)
            oracle = simplex_ls_oracle(Y, T)[1].sum()
            worst = max(worst, abs(fit - oracle) / oracle)
            off_simplex = max(off_simplex, -S.min(), np.abs(S.sum(axis=0) - 1.0).max())
    return (worst <= 1e-12 and off_simplex <= 1e-12,
            f"worst fit rel diff {worst:.1e}, off simplex {off_simplex:.1e}")


@_property("volmin", "x-update-sigma-grid-oracle", "x-update-descent")
def _x_update(rng):
    # X update: per-sigma grid oracle and objective descent
    inst = _volmin_instance(rng)
    worst = 0.0
    ok_desc = True
    for _ in range(100):
        z, _, Q = rand_volmin_iterate(inst, rng)
        rho = float(rng.uniform(0.05, 2.0))
        X_new = vm.update_X(z, Q, rho, inst.eps)
        X_bar = z.Y - rho * Q

        def obj38(X):
            return vm.f_eps(X, inst.eps) + np.linalg.norm(X - X_bar) ** 2 / (2 * rho)

        s_tilde = np.linalg.svd(z.X, compute_uv=False)
        g_tilde, _ = vm.g_eps(s_tilde**2, inst.eps)
        s_bar = np.linalg.svd(X_bar, compute_uv=False)
        s_out = np.linalg.svd(X_new, compute_uv=False)
        # linearized objective of the chosen sigmas vs a dense grid, per index
        for i in range(inst.rank):
            grid = np.linspace(0.0, s_bar[i] + 3 * np.sqrt(inst.eps), 2000)
            gv, _ = vm.g_eps(grid**2, inst.eps)
            vals = gv / g_tilde[i] + (grid - s_bar[i]) ** 2 / (2 * rho)
            sv, _ = vm.g_eps(np.sort(s_out)[::-1][i] ** 2, inst.eps)
            mine = sv / g_tilde[i] + (np.sort(s_out)[::-1][i] - s_bar[i]) ** 2 / (2 * rho)
            worst = max(worst, mine - vals.min())
        ok_desc &= obj38(X_new) <= obj38(z.X) + 1e-9 * (1 + abs(obj38(z.X)))
    return (worst <= 1e-4, f"worst gap {worst:.2e}"), (ok_desc, "")


@_property("volmin", "inner-al-monotone")
def _volmin_inner_al_monotone(rng):
    # inner AL monotone over (Y, S, X) sweeps
    inst = _volmin_instance(rng)
    prob = vm.VolMinProblem(inst)
    ok = True
    for _ in range(50):
        z, P, Q = rand_volmin_iterate(inst, rng)
        lam = np.concatenate([P.ravel(), Q.ravel()])
        ok &= _al_sweeps(prob, z, lam, float(rng.uniform(0.1, 2.0)))[0]
    return ok, ""


@_property("volmin", "fd-al-gradient")
def _volmin_fd_al_gradient(rng):
    inst = _volmin_instance(rng)
    prob = vm.VolMinProblem(inst)
    worst = 0.0
    for _ in range(3):
        z, P, Q = rand_volmin_iterate(inst, rng)
        duals = prob.unpack_duals(np.concatenate([P.ravel(), Q.ravel()]), 0.8)
        for i in range(3):
            fd = fd_block_gradient(prob, i, z, duals, 0.8)
            worst = max(worst, _rel_err(fd, prob.al_block_gradient(i, z, duals, 0.8)))
    return worst <= 1e-4, f"worst rel {worst:.2e}"


@_property("volmin", "x-update-singular-alignment", "x-update-vonneumann-pairing")
def _x_update_alignment(rng):
    # the output shares the target's singular basis, and the identity pairing
    # of sigmas beats permuted pairings in the quadratic term
    import itertools as it
    inst = _volmin_instance(rng)
    ok_align, ok_perm = True, True
    for _ in range(20):
        z, _, Q = rand_volmin_iterate(inst, rng)
        rho = 0.5
        X_new = vm.update_X(z, Q, rho, inst.eps)
        U, s_bar, V = numerics.thin_svd(z.Y - rho * Q)
        sig = np.diag(U.T @ X_new @ V)
        ok_align &= np.linalg.norm(U @ np.diag(sig) @ V.T - X_new) <= 1e-10
        for perm in it.permutations(range(inst.rank)):
            ok_perm &= np.sum((sig - s_bar) ** 2) <= np.sum((sig[list(perm)] - s_bar) ** 2) + 1e-9
    return (ok_align, ""), (ok_perm, "")


@_property("volmin", "carried-values", "stateless-problem")
def _volmin_contracts(rng):
    inst = _volmin_instance(rng)
    starts = [(z, np.concatenate([P.ravel(), Q.ravel()]), 0.7)
              for z, P, Q in (rand_volmin_iterate(inst, rng) for _ in range(3))]
    sources = {"sigma_X": ("X",)}
    return (check_carried_values(vm.VolMinProblem(inst), starts,
                                 lambda z: vm.VolMinIterate(z.X, z.S, z.Y), sources, rng),
            check_stateless_problem(lambda: vm.VolMinProblem(inst), starts))


@_property("volmin", "prox-fixed-point")
def _volmin_prox_fixed_point(rng):
    # the S block's simplex projection against its exact step (K = 3)
    inst = _volmin_instance(rng)
    K, L = inst.rank, inst.n_cols
    starts = [(z, np.concatenate([P.ravel(), Q.ravel()]), float(rng.uniform(0.1, 2.0)))
              for z, P, Q in (rand_volmin_iterate(inst, rng) for _ in range(5))]

    def off_simplex(v):
        S = v.reshape(K, L)
        return max(-S.min(), np.abs(S.sum(axis=0) - 1.0).max())

    return check_prox_fixed_point(vm.VolMinProblem(inst), 1, starts, off_simplex, rng)


@_property("volmin", "mse-permutation-scale-invariance")
def _mse_invariance(rng):
    Xt = rng.uniform(0.1, 1.0, (10, 3))
    perm = rng.permutation(3)
    scales = rng.uniform(0.5, 3.0, 3)
    ok = vm.mse_metric(Xt, Xt) == vm.MSE_DB_FLOOR
    ok &= vm.mse_metric(Xt[:, perm] * scales, Xt) == vm.MSE_DB_FLOOR
    return ok, ""


@_property("volmin", "gen-data-snr-calibration")
def _gen_data_snr_calibration(rng):
    inst, truth = vm.gen_data(10, 3, 2000, 0.8, 30.0, seed=5)
    clean = truth.X @ truth.S
    noise = inst.A - clean
    snr_emp = 10 * np.log10(np.mean(np.sum(clean**2, 0)) / np.mean(np.sum(noise**2, 0)))
    return abs(snr_emp - 30.0) <= 0.5, f"empirical {snr_emp:.2f} dB"


@_property("volmin", "constraint-floor-bound")
def _constraint_floor_bound(rng):
    # ||A - YS||^2 >= fit_floor at random (Y, S), and at the least-squares Y
    # of an S near the optimal one; equality at the rank-K truncated SVD factors
    inst = vm.gen_data(8, 3, 40, 0.8, 30.0, seed=int(rng.integers(1 << 16)))[0]
    floor, K = inst.fit_floor, inst.rank
    U, s, Vt = np.linalg.svd(inst.A, full_matrices=False)

    def fit(Y, S):
        R = inst.A - Y @ S
        return float(np.sum(R * R)) / floor

    worst = np.inf
    for _ in range(20):
        z, _, _ = rand_volmin_iterate(inst, rng)
        S = Vt[:K] + 1e-3 * rng.standard_normal(Vt[:K].shape)
        Y = np.linalg.lstsq(S.T, inst.A.T, rcond=None)[0].T
        worst = min(worst, fit(z.Y, z.S), fit(Y, S))
    gap = abs(fit(U[:, :K] * s[:K], Vt[:K]) - 1.0)
    return (floor > 0 and worst >= 1.0 - 1e-12 and gap <= 1e-10,
            f"min fit/floor {worst:.4f}, truncated-SVD gap {gap:.1e}")


SUITES = tuple(dict.fromkeys(prop.suite for prop in CATALOGUE))


def run_suites(names, seed=0):
    """Run the named suites ('all' expands to every suite) and return results."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for n in names:
        if n == "all":
            expanded.extend(SUITES)
        elif n in SUITES:
            expanded.append(n)
        else:
            raise KeyError(f"unknown suite {n!r}; choose from {sorted(SUITES)} or 'all'")
    return [rec for suite in expanded for prop in CATALOGUE if prop.suite == suite
            for rec in prop.run(seed)]
