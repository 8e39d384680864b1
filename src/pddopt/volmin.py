"""Volume-minimization matrix factorization in the data space via PDD.

Factor A ~= X S with simplex-constrained columns of S while minimizing the
smoothed log-volume of X. A copy variable Y decouples the bilinear
constraint: PDD dualizes ``A = Y S`` and ``X = Y``, and the inner BSUM
cycles an exact Y solve, an S step, and a singular-value shrinkage X step.
For K <= 3 the S step is the exact block minimizer, column by column in
Gram form; for larger K, or a Y^T Y that is not safely positive definite,
it is one majorized simplex-projected gradient step.
"""

import itertools
import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import numerics
from .core import FEASIBLE_SLACK, STOP_INFEASIBLE_FLOOR, BlockProblem, PddConfig
from .core import pdd_run as _pdd_run
from .errors import InvalidInputError, NumericalFailureError

REJECTION_CAP = 1_000_000
MSE_DB_FLOOR = -120.0
MSE_MAX_RANK = 8          # the permutation search of mse_metric tries K! matchings
EXACT_S_MAX_RANK = 3      # exact S-step face enumeration grows as 2^K
GRAM_PIVOT_REL = 1e-10    # least Cholesky pivot of Y^T Y, relative to its diagonal

_EDGES = {K: tuple(np.array(ix) for ix in zip(*itertools.combinations(range(K), 2)))
          for K in (2, EXACT_S_MAX_RANK)}    # (p, q) of the simplex edges, p < q


@dataclass(frozen=True)
class VolMinInstance:
    """Data matrix, target rank, and volume-smoothing level."""

    A: np.ndarray    # N x L data
    rank: int        # K
    eps: float = 1e-2

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def n_cols(self):
        return self.A.shape[1]

    @cached_property
    def fit_floor(self):
        """Lower bound on ``||A - Y S||^2`` over all N x K ``Y`` and K x L ``S``.

        A product ``Y S`` has rank at most K, so by Eckart-Young the bound is
        the tail energy ``sum_{i>K} sigma_i(A)^2``. Singular values at or below
        the rank tolerance of ``numpy.linalg.matrix_rank``,
        ``max(N, L) * eps * sigma_1``, are rounding noise and count as 0, so
        data of rank K has floor exactly 0. One SVD, computed at first use.
        """
        s = numerics.singular_values(self.A)
        tail = s[self.rank:]
        tail = tail[tail > max(self.A.shape) * np.finfo(float).eps * s[0]]
        return float(tail @ tail)


def build_instance(A, rank, eps=1e-2):
    if np.iscomplexobj(A):
        raise InvalidInputError("data must be real, got a complex array")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"data must be a matrix, got ndim={A.ndim}")
    N, L = A.shape
    numerics.require_dims("volmin", K=rank)
    if rank > N:
        raise InvalidInputError(f"rank must satisfy 1 <= K <= {N}, got {rank}")
    if L < rank:
        raise InvalidInputError(
            f"need at least K data columns to seed X: K={rank}, L={L}"
        )
    numerics.require_finite("data", A)
    return VolMinInstance(A=A, rank=int(rank), eps=numerics.require_positive("eps", eps))


@dataclass(frozen=True)
class VolMinIterate:
    """Factors, the copy Y of X, and the singular values of X.

    It carries ``sigma_X``, the singular values of X from
    ``numerics.singular_values``, by the rule in ``core.BlockProblem``.
    """

    X: np.ndarray    # N x K
    S: np.ndarray    # K x L, columns on the simplex
    Y: np.ndarray    # N x K
    prev: InitVar["VolMinIterate | None"] = None
    sigma_X: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, prev):
        if prev is not None and prev.X is self.X:
            sigma = prev.sigma_X
        else:
            sigma = numerics.singular_values(self.X)
        object.__setattr__(self, "sigma_X", sigma)


@dataclass(frozen=True)
class GroundTruth:
    """Planted factors for synthetic evaluation."""

    X: np.ndarray
    S: np.ndarray
    gamma: float
    snr_db: float    # inf for noiseless


def g_eps(x, eps):
    """Smoothed |x| surrogate and its derivative: |x| for |x| >= eps, else
    quadratic ``x^2/(2 eps) + eps/2``. C^1 everywhere, bounded below by eps/2.

    A scalar ``x`` gives two floats, computed without numpy; an array gives
    two arrays."""
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if abs(x) < eps:
            return x * x / (2.0 * eps) + eps / 2.0, x / eps
        return abs(x), math.copysign(1.0, x)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    quad = ax < eps
    val = np.where(quad, x * x / (2.0 * eps) + eps / 2.0, ax)
    der = np.where(quad, x / eps, np.sign(x))
    return val, der


def _log_volume(sigma, eps):
    val, _ = g_eps(sigma**2, eps)
    return float(np.sum(np.log(val)))


def f_eps(X, eps):
    """Smoothed log-volume: sum_i log g_eps(sigma_i(X^T X))."""
    return _log_volume(numerics.singular_values(X), eps)


def f_eps_gradient(X, eps):
    """Gradient of f_eps w.r.t. X (spectral-function chain rule)."""
    U, s, V = numerics.thin_svd(X)
    val, der = g_eps(s**2, eps)
    return (U * (2.0 * s * der / val)) @ V.T


def update_Y(z, AP, Q, rho):
    """Exact minimizer of the Y block (normal equations with I + S S^T).

    ``AP`` is ``A + rho * P``.
    """
    rhs = AP @ z.S.T + (z.X + rho * Q)
    G = z.S @ z.S.T
    G.flat[::G.shape[0] + 1] += 1.0     # I + S S^T
    return np.linalg.solve(G, rhs.T).T


def default_beta(Y):
    """Curvature bound for the S-step majorizer, strictly above sigma_1(Y)^2."""
    return 1.01 * float(numerics.singular_values(Y)[0]) ** 2 + 1e-12


def update_S(z, AP):
    """Minimize the S block, ``||AP - Y S||^2`` over simplex columns.

    ``AP`` is ``A + rho * P``. For 2 <= K <= ``EXACT_S_MAX_RANK`` the step
    is the exact minimizer (:func:`_exact_S`) whenever G = Y^T Y is safely
    positive definite; at K = 1 the simplex is one point. Otherwise it is
    :func:`_majorized_S`, one majorize-minimize step that does not increase
    the objective.
    """
    K = z.S.shape[0]
    if K == 1:
        return np.ones_like(z.S)
    if K <= EXACT_S_MAX_RANK:
        G = (z.Y.T @ z.Y).tolist()
        affine = _affine_hull_map(G)
        if affine is not None:
            return _exact_S(G, z.Y.T @ AP, *affine)
    return _majorized_S(z, AP)


def _majorized_S(z, AP):
    """Majorize-minimize step on S followed by column-wise simplex projection.

    The quadratic coupling Y^T Y is upper-bounded by beta I with
    beta > sigma_1(Y)^2, which decouples the columns into independent
    simplex projections and guarantees the data-fit objective of the
    S-subproblem does not increase.
    """
    beta = default_beta(z.Y)
    # beta I - Y^T Y without building I: 0 - G, not -G, gives the +0.0 that
    # beta I - G has where G is 0 off the diagonal
    M = np.subtract(0.0, z.Y.T @ z.Y)
    M.flat[::M.shape[0] + 1] += beta
    target = z.Y.T @ AP + M @ z.S
    return numerics.project_simplex_columns(target / beta)


def _affine_hull_map(G):
    """``(M, v)`` such that column j of ``M B + v`` minimizes
    ``s^T G s / 2 - b_j^T s`` subject to ``1^T s = 1``, for a 2 x 2 or 3 x 3
    Gram matrix G given as nested lists; None when G is not safely positive
    definite.

    G is safely positive definite when every pivot of its Cholesky
    factorization (the Schur complements, formed as Cholesky forms them) is
    above ``GRAM_PIVOT_REL`` times the largest diagonal entry of G; a zero,
    nearly rank-deficient or non-finite Y fails. With ``adj`` the adjugate
    of G, ``r = adj 1`` and ``c = 1^T r``, the minimizer is
    ``G^-1 (b - mu 1)`` with ``mu = (r^T b - det) / c``, so
    ``M = (adj - r r^T / c) / det`` and ``v = r / c``.
    """
    K = len(G)
    floor = GRAM_PIVOT_REL * max([G[i][i] for i in range(K)])
    a, b, d = G[0][0], G[0][1], G[1][1]
    if not a > floor:
        return None
    p = d - b * b / a
    if not p > floor:
        return None
    if K == 2:
        det = a * p
        adj = [[d, -b], [-b, a]]
    else:
        c, e, f = G[0][2], G[1][2], G[2][2]
        t = e - b * c / a
        q = f - c * c / a - t * t / p
        if not q > floor:
            return None
        det = a * p * q
        adj = [[d * f - e * e, c * e - b * f, b * e - c * d],
               [c * e - b * f, a * f - c * c, b * c - a * e],
               [b * e - c * d, b * c - a * e, a * d - b * b]]
    r = [sum(row) for row in adj]
    c = sum(r)
    M = np.array([[(x - ri * rj / c) / det for x, rj in zip(row, r)]
                  for row, ri in zip(adj, r)])
    return M, np.array([[ri / c] for ri in r])


def _exact_S(G, B, M, v):
    """Exact S-block minimizer for K = 2 or 3, column by column.

    Column j minimizes ``s^T G s / 2 - b_j^T s`` over the simplex, with G as
    nested lists and ``B = Y^T (A + rho P)``. The objective is strictly
    convex, so the affine-hull minimizer ``M b_j + v`` is optimal when it
    has no negative entry. Otherwise the optimum lies on an edge
    ``t e_p + (1 - t) e_q``, where the objective is
    ``d t^2 / 2 - g t + G_qq / 2 - b_q`` with ``d = G_pp - 2 G_pq + G_qq``
    and ``g = b_p - b_q - G_pq + G_qq``. Each of the C(K, 2) edges takes
    t = clip(g / d, 0, 1), and the column takes the edge of least objective.
    """
    if not np.isfinite(B).all():
        raise NumericalFailureError("S-step target has a non-finite entry")
    S = M @ B
    S += v
    cols = np.flatnonzero(S.min(axis=0) < 0.0)
    if cols.size == 0:
        return S
    p, q = _EDGES[B.shape[0]]
    consts = np.array([[G[i][i] - 2.0 * G[i][j] + G[j][j], G[j][j] - G[i][j], 0.5 * G[j][j]]
                       for i, j in zip(p.tolist(), q.tolist())])
    d, gq, hq = consts[:, 0:1], consts[:, 1:2], consts[:, 2:3]
    Bn = B[:, cols]
    Bq = Bn[q]
    g = Bn[p]
    g -= Bq
    g += gq
    t = g / d
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    f = 0.5 * d * t
    f -= g
    f *= t
    f += hq
    f -= Bq
    best = f.argmin(axis=0)
    tb = t[best, np.arange(cols.size)]
    S[:, cols] = 0.0
    S[p[best], cols] = tb
    S[q[best], cols] = 1.0 - tb
    return S


def sigma_subproblem(sigma_bar, g_tilde, rho, eps):
    """Per-singular-value minimizer of the linearized volume term.

    Minimizes ``g_eps(sigma^2)/g_tilde + (sigma - sigma_bar)^2 / (2 rho)``
    over sigma >= 0 by comparing the two branch candidates (closed form
    above sqrt(eps), monotone cubic below); ties go to the smaller sigma.
    The arithmetic runs on plain floats.
    """
    sigma_bar, g_tilde = float(sigma_bar), float(g_tilde)
    sqrt_eps = math.sqrt(eps)
    cand1 = max(g_tilde * sigma_bar / (2.0 * rho + g_tilde), sqrt_eps)
    root = numerics.solve_monotone_cubic(2.0 / (eps * g_tilde), 1.0 / rho,
                                         sigma_bar / rho)
    cand2 = min(max(root, 0.0), sqrt_eps)

    def value(s):
        gv, _ = g_eps(s * s, eps)
        dev = s - sigma_bar
        return gv / g_tilde + dev * dev / (2.0 * rho)

    v1, v2 = value(cand1), value(cand2)
    if abs(v1 - v2) <= 1e-14 * (1.0 + abs(v1)):
        return min(cand1, cand2)
    return cand1 if v1 < v2 else cand2


def update_X(iterate, Q, rho, eps):
    """Singular-value shrinkage step on X.

    The target Y - rho*Q is factored by thin SVD, each singular value is
    updated through :func:`sigma_subproblem` with the log term linearized
    at the current X's spectrum, and the factors are reassembled on the
    target's singular vectors (trace-inequality alignment).
    """
    z = iterate
    U, s_bar, V = numerics.thin_svd(z.Y - rho * Q)
    g_tilde, _ = g_eps(z.sigma_X**2, eps)
    s_new = [sigma_subproblem(sb, gt, rho, eps)
             for sb, gt in zip(s_bar.tolist(), g_tilde.tolist())]
    return (U * s_new) @ V.T


class VolMinProblem(BlockProblem):
    """Three-block AL problem: Y, S, X (in that sweep order)."""

    n_blocks = 3

    def __init__(self, instance):
        self.instance = instance

    def unpack_duals(self, lam, rho):
        """``(lam, P, Q, A + rho * P, h)``: the flat vector, the duals of
        A - YS and X - Y reshaped from it (views), the Y and S steps' data
        term, and a vector of lam's size that :meth:`al_value` overwrites
        with the constraint residual."""
        N, L = self.instance.A.shape
        K = self.instance.rank
        lam = np.asarray(lam, dtype=float)
        P = lam[:N * L].reshape(N, L)
        Q = lam[N * L:].reshape(N, K)
        return lam, P, Q, self.instance.A + rho * P, np.empty_like(lam)

    def constraint(self, z, out=None):
        """``(A - YS, X - Y)`` flattened, written into ``out`` when given."""
        A = self.instance.A
        NL = A.size
        if out is None:
            out = np.empty(NL + z.X.size)
        r1 = out[:NL].reshape(A.shape)
        np.matmul(z.Y, z.S, out=r1)
        np.subtract(A, r1, out=r1)
        np.subtract(z.X, z.Y, out=out[NL:].reshape(z.X.shape))
        return out

    def al_value(self, z, duals, rho):
        h = self.constraint(z, out=duals[4])
        return float(_log_volume(z.sigma_X, self.instance.eps)
                     + np.dot(duals[0], h) + np.dot(h, h) / (2.0 * rho))

    def objective(self, z):
        return _log_volume(z.sigma_X, self.instance.eps)

    def constraint_floor(self):
        """The instance's ``fit_floor`` bounds the ``A - YS`` part of ``h``."""
        return self.instance.fit_floor, self.instance.A.size

    def step(self, i, z, duals, rho):
        _, _, Q, AP, _ = duals
        if i == 0:
            return VolMinIterate(z.X, z.S, update_Y(z, AP, Q, rho), prev=z)
        if i == 1:
            return VolMinIterate(z.X, update_S(z, AP), z.Y, prev=z)
        return VolMinIterate(update_X(z, Q, rho, self.instance.eps), z.S, z.Y)

    # --- diagnostics ------------------------------------------------------

    def block_value(self, i, z):
        return (z.Y, z.S, z.X)[i].ravel().copy()

    def set_block_value(self, i, z, v):
        blocks = [z.Y, z.S, z.X]
        blocks[i] = np.asarray(v, float).reshape(blocks[i].shape)
        return VolMinIterate(X=blocks[2], S=blocks[1], Y=blocks[0], prev=z)

    def block_prox(self, i):
        if i != 1:
            return None
        K, L = self.instance.rank, self.instance.n_cols
        return lambda v: numerics.project_simplex_columns(v.reshape(K, L)).ravel()

    def al_block_gradient(self, i, z, duals, rho):
        _, P, Q, _, _ = duals
        M1 = P + (self.instance.A - z.Y @ z.S) / rho
        M2 = Q + (z.X - z.Y) / rho
        if i == 0:
            return (-M1 @ z.S.T - M2).ravel()
        if i == 1:
            return (-z.Y.T @ M1).ravel()
        return (f_eps_gradient(z.X, self.instance.eps) + M2).ravel()


def default_config(instance, **overrides):
    cfg = dict(rho0=instance.n_cols / 100.0, max_outer=30)
    cfg.update(overrides)
    return PddConfig(**cfg)


def initial_iterate(instance, rng):
    """Seed X with random data columns (plus jitter); S from projected least squares."""
    A = instance.A
    K = instance.rank
    cols = rng.choice(instance.n_cols, size=K, replace=False)
    X0 = A[:, cols] + 1e-6 * rng.standard_normal((instance.n_rows, K))
    S0, *_ = np.linalg.lstsq(X0, A, rcond=None)
    S0 = numerics.project_simplex_columns(S0)
    return VolMinIterate(X=X0, S=S0, Y=X0.copy())


def solve(instance, config=None):
    """Single PDD run; returns ``(X, S, trace)``."""
    if config is None:
        config = default_config(instance)
    rng = np.random.default_rng(config.seed)
    z0 = initial_iterate(instance, rng)
    problem = VolMinProblem(instance)
    lam0 = np.zeros(problem.constraint(z0).size)
    z, _, trace = _pdd_run(problem, z0, lam0, config)
    return z.X, z.S, trace


def solve_restarts(instance, config=None, restarts=3):
    """Run :func:`solve` from ``restarts`` seeds and keep the best factorization.

    The pick, in this order:

    1. among runs whose final feasibility gap is at most
       ``core.FEASIBLE_SLACK * eps_outer`` (10 eps_outer),
       the smallest smoothed volume ``f_eps``;
    2. else, among runs that stopped at the noise floor (``stop_reason``
       ``"infeasible-floor"``), the smallest ``f_eps``;
    3. else the run with the smallest final gap.
    """
    if restarts < 1:
        raise InvalidInputError("need at least one restart")
    if config is None:
        config = default_config(instance)
    runs = []
    for r in range(restarts):
        cfg = replace(config, seed=config.seed + r)
        X, S, trace = solve(instance, cfg)
        runs.append((X, S, trace, trace.records[-1].h_inf, f_eps(X, instance.eps)))
    feas_tol = FEASIBLE_SLACK * config.eps_outer
    feasible = [run for run in runs if run[3] <= feas_tol]
    at_floor = [run for run in runs if run[2].stop_reason == STOP_INFEASIBLE_FLOOR]
    pool = feasible or at_floor
    best = min(pool, key=lambda run: run[4]) if pool else min(runs, key=lambda run: run[3])
    return best[0], best[1], best[2]


def reconstruction_error(X, S, instance):
    """Relative Frobenius error ||A - X S|| / ||A||."""
    A = instance.A
    return float(np.linalg.norm(A - X @ S) / max(np.linalg.norm(A), 1e-300))


def mse_metric(X_hat, X_true):
    """Permutation-invariant normalized column MSE in dB.

    Columns are normalized (scale invariance), matched by exhaustive
    search over permutations (requires K <= ``MSE_MAX_RANK``), and the result is
    ``10 log10`` of the mean squared distance, floored at -120 dB.
    """
    X_hat = np.asarray(X_hat, dtype=float)
    X_true = np.asarray(X_true, dtype=float)
    if X_hat.shape != X_true.shape:
        raise InvalidInputError(f"shape mismatch: {X_hat.shape} vs {X_true.shape}")
    K = X_true.shape[1]
    if K > MSE_MAX_RANK:
        raise InvalidInputError(f"permutation search supports K <= {MSE_MAX_RANK}")
    norms_hat = np.linalg.norm(X_hat, axis=0)
    norms_true = np.linalg.norm(X_true, axis=0)
    if np.any(norms_hat == 0) or np.any(norms_true == 0):
        raise InvalidInputError("zero column encountered in MSE evaluation")
    U = X_true / norms_true
    Uh = X_hat / norms_hat
    # distance matrix d[k, j] = ||u_k - uh_j||^2
    D = ((U[:, :, None] - Uh[:, None, :]) ** 2).sum(axis=0)
    best = min(
        sum(D[k, perm[k]] for k in range(K))
        for perm in itertools.permutations(range(K))
    )
    mse = best / K
    return float(max(10.0 * np.log10(max(mse, 10.0 ** (MSE_DB_FLOOR / 10.0))),
                     MSE_DB_FLOOR))


def gen_data(N, K, L, gamma, snr_db, seed):
    """Synthetic factorization data: uniform X, capped-simplex S, white noise.

    ``gamma`` caps the largest simplex weight (no-pure-pixel regime) and
    must exceed 1/K for the rejection sampler to terminate. ``snr_db`` of
    ``inf``/None gives noiseless data; otherwise white Gaussian noise is
    scaled so the average per-column signal-to-noise power ratio matches.
    Returns (instance, ground_truth). A dimension N, K or L below 1 raises
    :class:`InvalidInputError` naming it.
    """
    numerics.require_dims("volmin", N=N, K=K, L=L)
    if not 1.0 / K < gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in (1/K, 1], got {gamma}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(N, K))
    S = np.empty((K, L))
    for ell in range(L):
        for attempt in range(REJECTION_CAP):
            s = rng.dirichlet(np.ones(K))
            if s.max() <= gamma:
                S[:, ell] = s
                break
        else:
            raise InvalidInputError(
                f"rejection sampling exceeded {REJECTION_CAP} draws (gamma too small)"
            )
    clean = X @ S
    noiseless = snr_db is None or np.isinf(snr_db)
    if noiseless:
        A = clean
        snr_out = np.inf
    else:
        signal_power = float(np.mean(np.sum(clean**2, axis=0)))
        sigma_v = np.sqrt(signal_power / (N * 10.0 ** (snr_db / 10.0)))
        A = clean + sigma_v * rng.standard_normal((N, L))
        snr_out = float(snr_db)
    instance = build_instance(A, K)
    return instance, GroundTruth(X=X, S=S, gamma=float(gamma), snr_db=snr_out)
