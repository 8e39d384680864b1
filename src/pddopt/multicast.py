"""Max-min fair multicast beamforming solved by PDD.

The problem maximizes the worst user rate min_k log2(1 + SINR_k) over
group beamformers under a unit-norm constraint (power folded into the
noise scaling). It is recast with per-user auxiliary levels t_k coupled by
``||A_k^(1/2) w|| = t_k ||B_k^(1/2) w||``; PDD dualizes those K equalities
while the inner BSUM alternates an exact t-update with an eigenvector
w-update on a locally tight homogeneous quadratic upper bound.
"""

import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import ioformats, numerics
from .core import BlockProblem, PddConfig
from .core import pdd_run as _pdd_run
from .errors import InvalidInputError

DEGENERATE_NORM_TOL = 1e-10  # guard for 1/||A_k^(1/2) w~|| factors
JITTER_SCALE = 1e-8
KKT_TOL = 1e-8  # projected-gradient stationarity of kkt_residual
KKT_MAX_ITER = 200_000


@dataclass(frozen=True)
class MulticastInstance:
    """Immutable problem data for one multicast network.

    Only the channels are stored. Every quadratic form and product of the
    per-user matrices A_k, B_k follows from the K x n_g gain matrix
    ``h_k^H w_i``. ``own_group``, the K x n_g mask of each user's own group,
    is derived from ``group_of`` when the instance is built.
    """

    n_t: int                 # BS antennas
    groups: tuple            # tuple of tuples of user indices
    channels: np.ndarray     # K x N_t conjugated channels h_k
    sigma2: np.ndarray       # K noise powers
    p_bs: float              # BS power budget
    group_of: np.ndarray     # K, group index of each user
    own_group: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "own_group",
                           self.group_of[:, None] == np.arange(len(self.groups)))

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def n_users(self):
        return self.channels.shape[0]

    @property
    def dim(self):
        return self.n_groups * self.n_t


@dataclass(frozen=True)
class MulticastIterate:
    """Inner iterate: unit-norm stacked beamformer and user levels t >= 0.

    It carries, from w, the K x n_g gain matrix ``G``, the coupling norms
    ``na``, ``nb`` of :func:`coupling_norms` and the user products ``Aw``,
    ``Bw`` (rows ``A_k w`` and ``B_k w``), by the rule in ``core.BlockProblem``.
    """

    w: np.ndarray   # complex, n_g * N_t, ||w|| = 1
    t: np.ndarray   # K, nonnegative
    instance: InitVar[MulticastInstance]
    prev: InitVar["MulticastIterate | None"] = None
    G: np.ndarray = field(init=False, repr=False, compare=False)
    na: np.ndarray = field(init=False, repr=False, compare=False)
    nb: np.ndarray = field(init=False, repr=False, compare=False)
    Aw: np.ndarray = field(init=False, repr=False, compare=False)
    Bw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, instance, prev):
        if prev is not None and prev.w is self.w:
            derived = prev.G, prev.na, prev.nb, prev.Aw, prev.Bw
        else:
            G = _gains(self.w, instance)
            qa, qb = _quad_forms(G, np.vdot(self.w, self.w).real, instance)
            Aw, Bw = _user_products(G, group_beamformers(self.w, instance), instance)
            derived = G, np.sqrt(qa), np.sqrt(qb), Aw, Bw
        for name, value in zip(("G", "na", "nb", "Aw", "Bw"), derived):
            object.__setattr__(self, name, value)


def build_instance(channels, groups, sigma2, p_bs):
    """Validate and store the channels, groups and noise powers of a network.

    Parameters
    ----------
    channels : array_like, K x N_t complex
        Conjugated channel of each user.
    groups : sequence of sequences
        User indices of each multicast group; every user in exactly one group.
    sigma2 : scalar or array_like
        Per-user noise powers.
    p_bs : float
        Total transmit power budget.

    With the stacked unit-norm beamformer w, ``w^H A_k w / w^H B_k w``
    equals the SINR of user k when the per-group beamformers are scaled
    by sqrt(p_bs). For user k in group i, ``A_k = kron(e_i e_i^T, h_k h_k^H)``
    and ``B_k = kron(I - e_i e_i^T, h_k h_k^H) + (sigma2_k / p_bs) I``. The
    instance keeps only the O(K N_t) channel data. A zero dimension
    (``N_t``, ``n_groups``, ``K``), a non-finite channel, a noise power or
    budget that is not a finite real number above 0
    (:func:`numerics.require_positive`), or a ``sigma2`` that is neither a
    scalar nor K entries, raises :class:`InvalidInputError` naming the
    dimension or field (``channels``, ``sigma2``, ``P_BS``). So does a group member that is not an integer, and
    a user with an all-zero channel: its SINR is 0 for every beamformer, and
    the w-update surrogate divides by its gain.
    """
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim != 2:
        raise InvalidInputError(f"channels must be K x N_t, got shape {channels.shape}")
    K, n_t = channels.shape
    groups = tuple(tuple(g) for g in groups)
    for u in (u for g in groups for u in g):
        if isinstance(u, bool) or not isinstance(u, numbers.Integral):
            raise InvalidInputError(f"group members must be integer user indices, got {u!r}")
    groups = tuple(tuple(int(u) for u in g) for g in groups)
    numerics.require_dims("multicast", N_t=n_t, n_groups=len(groups), K=K)
    numerics.require_finite("channels", channels)
    dead = np.flatnonzero(~np.any(channels, axis=1))
    if dead.size:
        raise InvalidInputError(
            f"multicast user {int(dead[0])} has an all-zero channel; "
            "its SINR is 0 for every beamformer"
        )
    p_bs = numerics.require_positive("P_BS", p_bs)
    if any(len(g) == 0 for g in groups):
        raise InvalidInputError("every group needs at least one user")
    seen = [u for g in groups for u in g]
    if sorted(seen) != list(range(K)):
        raise InvalidInputError("groups must partition the user set exactly")
    sigma2 = numerics.per_user("sigma2", sigma2, K)

    group_of = np.empty(K, dtype=int)
    for i, g in enumerate(groups):
        for u in g:
            group_of[u] = i
    return MulticastInstance(
        n_t=n_t, groups=groups, channels=channels, sigma2=sigma2, p_bs=p_bs,
        group_of=group_of,
    )


def _gains(w, instance):
    """K x n_g gain matrix ``h_k^H w_i`` of the stacked beamformer w."""
    return instance.channels.conj() @ group_beamformers(w, instance).T


def _signal_interference(G, instance):
    """Received power of each user from its own group and from all others."""
    power = np.abs(G) ** 2
    own = instance.own_group
    return power[own], np.where(own, 0.0, power).sum(axis=1)


def _quad_forms(G, w_sq, instance):
    """``(w^H A_k w, w^H B_k w)`` for all k from the gains ``G`` at w and
    ``w_sq``, ``||w||^2`` as a number or a one-entry array."""
    signal, interference = _signal_interference(G, instance)
    return signal, interference + (instance.sigma2 / instance.p_bs) * w_sq


def _user_products(G, W, instance):
    """Rows ``A_k w`` and ``B_k w`` (K x n, complex) from the gains ``G`` at w,
    given as group rows ``W`` (n_g x N_t)."""
    own = instance.own_group[:, :, None]
    HW = G[:, :, None] * instance.channels[:, None, :]  # h_k h_k^H w_i in block i
    Aw = np.where(own, HW, 0.0)
    Bw = np.where(own, 0.0, HW) + (instance.sigma2 / instance.p_bs)[:, None, None] * W
    K = instance.n_users
    return Aw.reshape(K, -1), Bw.reshape(K, -1)


def _embed_rows(M):
    """Row-wise :func:`numerics.real_embed_vec` of a complex matrix."""
    return np.concatenate([M.real, M.imag], axis=1)


def coupling_norms(w, instance):
    """(||A_k^(1/2) w||, ||B_k^(1/2) w||) for all k, as two K-vectors."""
    w = np.asarray(w, dtype=complex).ravel()
    qa, qb = _quad_forms(_gains(w, instance), np.vdot(w, w).real, instance)
    return np.sqrt(qa), np.sqrt(qb)


def constraint_h(w, t, instance):
    """Equality residuals of the level-coupled formulation, length K + 1.

    Components 0..K-1 are ``||A_k^(1/2) w|| - t_k ||B_k^(1/2) w||`` (the
    ones PDD dualizes); the last is ``||w||^2 - 1``, which the inner loop
    keeps satisfied exactly through the eigenvector update.
    """
    na, nb = coupling_norms(w, instance)
    h = np.empty(instance.n_users + 1)
    h[:-1] = na - np.asarray(t, dtype=float) * nb
    h[-1] = float(np.linalg.norm(w) ** 2 - 1.0)
    return h


def solve_t_subproblem(a, b):
    """Globally maximize ``min_k t_k - sum_k a_k (t_k - b_k)^2`` over t >= 0.

    Reduces to a 1-D search over the common floor s: the optimum has
    ``t_k = max(b_k, s)`` with s from a finite candidate list obtained by
    sorting b descending and assuming the tail set {k : t_k = s}. All K
    candidates are evaluated on the exact objective in one K x K array step,
    and the first best is kept (robust to ties in b).

    Returns (t, s).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size or a.size == 0:
        raise InvalidInputError("a and b must be nonempty and of equal length")
    if np.any(a <= 0):
        raise InvalidInputError("all quadratic coefficients a_k must be positive")
    order = np.argsort(-b)
    a_s, b_s = a[order], b[order]
    # suffix sums of a and a*b over the sorted tail {k > kbar}
    suf_a = np.cumsum(a_s[::-1])[::-1]
    suf_ab = np.cumsum((a_s * b_s)[::-1])[::-1]
    s = np.maximum((1.0 + 2.0 * suf_ab) / (2.0 * suf_a), 0.0)
    T = np.maximum(b, s[:, None])  # row j: the levels of candidate floor s_j
    floors = T.min(axis=1)
    best = int(np.argmax(floors - ((T - b) ** 2) @ a))
    # min(t) is the attained floor: t = max(b, min(t)) holds in every branch
    return T[best], float(floors[best])


def theta_value(w, t, lam, rho, instance):
    """Penalized coupling term sum_k (||A^.5 w|| - t_k ||B^.5 w|| + rho lam_k)^2."""
    na, nb = coupling_norms(w, instance)
    return float(np.sum((na - np.asarray(t) * nb + rho * np.asarray(lam)) ** 2))


def build_surrogate_C(z, lam, rho, instance):
    """Quadratic upper bound matrix for the w-subproblem, expanded at w~ = ``z.w``.

    ``z`` is a :class:`MulticastIterate` on ``instance``; its levels ``z.t``
    enter the bound, and its gains and user products are used as they are.

    Returns (C, const) with ``theta(w) <= w_eq^T C w_eq + const`` for all
    unit-norm w, with equality at w = w~. The cross terms follow the
    Cauchy-Schwarz linearization; the sign of each multiplier selects which
    norm factor absorbs the ``||w|| = 1`` identity so the bound stays valid.

    C is assembled from the channel gains, without the dense A_k, B_k: the
    real embedding of a group-block-diagonal matrix, a scaled identity, and
    the per-user rank-2 terms summed by one matrix product. It is exactly
    symmetric.

    If some user's ``||A_k^(1/2) w~||`` is degenerate (below 1e-10), every
    user's bound is instead expanded at one copy of w~ nudged by a small
    deterministic isotropic perturbation and renormalized, which keeps the
    bound valid while avoiding the division; it is tight at that point.
    """
    if np.any(np.abs(z.G[instance.own_group]) < DEGENERATE_NORM_TOL):
        n = instance.dim
        jitter_rng = np.random.default_rng(0)
        noise = jitter_rng.standard_normal(n) + 1j * jitter_rng.standard_normal(n)
        wt = z.w + JITTER_SCALE * noise
        z = MulticastIterate(wt / np.linalg.norm(wt), z.t, instance)
    w = z.w
    t = np.asarray(z.t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n_g, n_t, n = instance.n_groups, instance.n_t, instance.dim
    H = instance.channels
    nw = np.linalg.norm(w[None, :], axis=1)
    qa, qb = _quad_forms(z.G, nw**2, instance)
    na, nb = np.sqrt(qa), np.sqrt(qb)

    # per user: a A_k + b B_k - cross (Awe Bwe^T + Bwe Awe^T), plus for
    # lam_k >= 0 the term -d (we Bwe^T + Bwe we^T), else +e (we Awe^T + Awe we^T)
    rl = rho * lam
    pos = lam >= 0
    a = np.where(pos, 1.0 + rl / na, 1.0)
    b = np.where(pos, t**2, t**2 - rl * t / nb)
    cross = t / (na * nb)
    d = np.where(pos, rl * t / (nw * nb), 0.0)
    e = np.where(pos, 0.0, rl / (nw * na))
    const = float(np.sum(np.where(pos, rl**2 + rl * na, rl**2 - rl * t * nb)))

    # sum_k a_k A_k + b_k B_k: group-block-diagonal part plus a scaled identity;
    # block i is sum_k c_ik h_k h_k^H with c_ik = a_k in the own group, else b_k
    c = np.where(instance.own_group.T, a, b)
    blocks = (c[:, :, None] * H[None]).transpose(0, 2, 1) @ H.conj()
    blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))  # so that C == C.T exactly
    C = np.zeros((2 * n, 2 * n))
    C4 = C.reshape(2, n_g, n_t, 2, n_g, n_t)  # view: (re/im, group, antenna)^2
    diag = np.arange(n_g)
    C4[0, diag, :, 0, diag, :] = C4[1, diag, :, 1, diag, :] = blocks.real
    C4[0, diag, :, 1, diag, :] = -blocks.imag
    C4[1, diag, :, 0, diag, :] = blocks.imag
    C[np.diag_indices(2 * n)] += float(np.dot(b, instance.sigma2)) / instance.p_bs

    # rank-2 corrections: P + P^T with P = L^T R over stacked user rows; the
    # one embedded row we of w~ broadcasts over the users
    Awe, Bwe, we = _embed_rows(z.Aw), _embed_rows(z.Bw), _embed_rows(w[None, :])
    L = np.concatenate([-cross[:, None] * Awe - d[:, None] * we, e[:, None] * we])
    P = L.T @ np.concatenate([Bwe, Awe])
    C += P + P.T
    return C, const


class MulticastProblem(BlockProblem):
    """Two-block AL problem: block 0 updates t, block 1 updates w."""

    n_blocks = 2

    def __init__(self, instance):
        self.instance = instance

    def constraint(self, z):
        return z.na - np.asarray(z.t, dtype=float) * z.nb

    def al_value(self, z, lam, rho):
        h = self.constraint(z)
        return float(-z.t.min() + np.dot(lam, h) + np.dot(h, h) / (2.0 * rho))

    def objective(self, z):
        """Worst-user rate (bits) at the power-scaled beamformer."""
        return min_rate(np.sqrt(self.instance.p_bs) * z.w, self.instance)

    def step(self, i, z, lam, rho):
        inst = self.instance
        if i == 0:
            a = z.nb**2 / (2.0 * rho)
            b = (z.na + rho * np.asarray(lam)) / z.nb
            t_new, _ = solve_t_subproblem(a, b)
            return MulticastIterate(z.w, t_new, inst, prev=z)
        C, _ = build_surrogate_C(z, lam, rho, inst)
        v, _ = numerics.min_eigvec_sym(C)
        w_new = numerics.complex_from_embedding(v)
        return MulticastIterate(w_new / np.linalg.norm(w_new), z.t, inst)

    # --- diagnostics ------------------------------------------------------

    def block_value(self, i, z):
        return z.t.copy() if i == 0 else numerics.real_embed_vec(z.w)

    def set_block_value(self, i, z, v):
        if i == 0:
            return MulticastIterate(z.w, np.asarray(v, dtype=float).copy(), self.instance,
                                    prev=z)
        return MulticastIterate(numerics.complex_from_embedding(v), z.t, self.instance)

    def al_block_gradient(self, i, z, lam, rho):
        """Smooth-part AL gradient; the -min(t) term is carried by the t prox."""
        na, nb = z.na, z.nb
        mult = lam + (na - z.t * nb) / rho
        if i == 0:
            return -mult * nb
        # sum_k mult_k (A_k w / ||A_k^.5 w|| - t_k B_k w / ||B_k^.5 w||), embedded
        g = ((mult / np.maximum(na, 1e-300)) @ z.Aw
             - (mult * z.t / np.maximum(nb, 1e-300)) @ z.Bw)
        return numerics.real_embed_vec(g)

    def block_prox(self, i):
        if i == 1:  # w: projection onto the unit sphere
            return lambda v: v / max(np.linalg.norm(v), 1e-300)
        # t: prox of -min(t) over t >= 0, the t-step with every a_k = 1/2
        return lambda v: solve_t_subproblem(np.full(v.size, 0.5), v)[0]


def default_config(instance, **overrides):
    """Penalty and tolerance schedule used by the reference experiments.

    The inner loop stops on the stationarity residual (the accuracy the
    eps schedule refers to); gradients are cheap for this problem.
    """
    cfg = dict(rho0=0.5 * instance.n_users, inner_stop="residual", eps_min=1e-5)
    cfg.update(overrides)
    return PddConfig(**cfg)


def initial_iterate(instance, rng):
    """Random unit beamformer with t chosen feasible (h = 0 at the start)."""
    n = instance.dim
    w0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w0 /= np.linalg.norm(w0)
    na, nb = coupling_norms(w0, instance)
    return MulticastIterate(w0, na / nb, instance)


def channel_subspace(instance):
    """``(Q, reduced)``: an orthonormal basis of the channel span and the
    instance in its coordinates.

    With ``channels.T = Q R`` (thin QR; Q is N_t x K), the reduced instance
    has K antennas, channels ``R.T`` and the same groups, noise powers and
    budget. For every stacked u, the group rows ``w_i = Q u_i`` give the
    same gains ``h_k^H w_i`` as u does on the reduced instance, and the same
    norm, so every SINR, coupling norm and AL value is unchanged.
    """
    Q, R = np.linalg.qr(instance.channels.T)
    reduced = MulticastInstance(n_t=Q.shape[1], groups=instance.groups,
                                channels=np.ascontiguousarray(R.T), sigma2=instance.sigma2,
                                p_bs=instance.p_bs, group_of=instance.group_of)
    return Q, reduced


def solve(instance, config=None, on_iteration=None):
    """Run PDD on a multicast instance.

    Returns ``(w_scaled, t, trace)`` where ``w_scaled`` is the stacked
    beamformer scaled to meet the power budget with equality.
    ``on_iteration`` is passed to :func:`pddopt.core.pdd_run`.

    With fewer users than antennas (K < N_t), the solve runs on the K-antenna
    instance of :func:`channel_subspace` and returns ``w_i = Q u_i``. This
    loses nothing: every SINR depends on w_i only through the gains
    ``h_k^H w_i``, so the part of w_i outside the channel span adds power and
    no gain, and the max-min optimum lies in that span. The w-step then
    works on a 2 n_g K surrogate instead of 2 n_g N_t. With K >= N_t the
    channels span the whole space, and the solve runs on ``instance`` itself.
    """
    if config is None:
        config = default_config(instance)
    basis, work = None, instance
    if instance.n_users < instance.n_t:
        basis, work = channel_subspace(instance)
    rng = np.random.default_rng(config.seed)
    z0 = initial_iterate(work, rng)
    problem = MulticastProblem(work)
    lam0 = np.zeros(work.n_users)
    z, lam, trace = _pdd_run(problem, z0, lam0, config, on_iteration)
    w = z.w if basis is None else (group_beamformers(z.w, work) @ basis.T).ravel()
    w_scaled = np.sqrt(instance.p_bs) * w
    return w_scaled, z.t, trace


def group_beamformers(w_scaled, instance):
    """Reshape the stacked beamformer into per-group rows (n_g x N_t)."""
    return np.asarray(w_scaled).reshape(instance.n_groups, instance.n_t)


def sinr_values(w_scaled, instance):
    """Per-user SINR evaluated directly from channels and group beamformers."""
    signal, interference = _signal_interference(_gains(w_scaled, instance), instance)
    return signal / (interference + instance.sigma2)


def min_rate(w_scaled, instance):
    """Worst-user rate log2(1 + SINR_k) at a power-scaled beamformer."""
    return float(np.log2(1.0 + sinr_values(w_scaled, instance)).min())


def rayleigh_gradients(w, instance):
    """Real-embedded gradients of the per-user ratios w^H A_k w / w^H B_k w."""
    w = np.asarray(w, dtype=complex).ravel()
    G = _gains(w, instance)
    qa, qb = _quad_forms(G, np.vdot(w, w).real, instance)
    Aw, Bw = _user_products(G, group_beamformers(w, instance), instance)
    return _embed_rows(2.0 * (Aw - (qa / qb)[:, None] * Bw) / qb[:, None]).T


def kkt_residual(w, instance):
    """First-order optimality gap of the max-min ratio problem at unit w.

    Minimizes ``||sum_k lam_k f_k + lam0 w||`` over the simplex of lam with
    lam0 eliminated in closed form (projection orthogonal to w), by
    projected gradient on the squared objective to ``KKT_TOL`` stationarity.
    """
    w = np.asarray(w, dtype=complex).ravel()
    we = numerics.real_embed_vec(w / np.linalg.norm(w))
    G = rayleigh_gradients(w / np.linalg.norm(w), instance)
    M = G - np.outer(we, we @ G)
    Q = M.T @ M
    K = instance.n_users
    lam = np.full(K, 1.0 / K)
    lip = 2.0 * max(float(np.linalg.eigvalsh(Q).max()), 1e-300)
    for _ in range(KKT_MAX_ITER):
        step = lam - 2.0 * (Q @ lam) / lip
        lam_next = numerics.project_simplex_columns(step[:, None])[:, 0]
        done = np.abs(lam_next - lam).max() <= KKT_TOL
        lam = lam_next
        if done:
            break
    return float(np.sqrt(max(lam @ Q @ lam, 0.0)))


def gen_instance(n_t, n_groups, users_per_group, p_bs, seed):
    """Random network: i.i.d. CN(0, 1) channels, equal group sizes, unit noise."""
    numerics.require_dims("multicast", N_t=n_t, n_groups=n_groups,
                          users_per_group=users_per_group)
    rng = np.random.default_rng(seed)
    K = n_groups * users_per_group
    channels = (rng.standard_normal((K, n_t)) + 1j * rng.standard_normal((K, n_t))) / np.sqrt(2.0)
    groups = [list(range(i * users_per_group, (i + 1) * users_per_group))
              for i in range(n_groups)]
    return build_instance(channels, groups, 1.0, p_bs)


def instance_to_dict(instance):
    return {
        "N_t": instance.n_t,
        "groups": [list(g) for g in instance.groups],
        "channels": ioformats.complex_to_pairs(instance.channels),
        "sigma2": instance.sigma2.tolist(),
        "P_BS": instance.p_bs,
    }


def instance_from_dict(data):
    return build_instance(ioformats.pairs_to_complex(data["channels"]), data["groups"],
                          np.asarray(data["sigma2"]), data["P_BS"])
