"""Weighted sum-rate maximization for a MIMO relay broadcast channel via PDD.

The source precoder V and relay precoder F are coupled through the relay
power constraint. Splitting variables (X = FHV plus barred copies that own
the power constraints) turns the couplings into equality constraints that
PDD dualizes; the inner loop is a four-block BSUM whose rate surrogate
comes from the MMSE reformulation with receive scalars u and weights w,
recomputed from (X, F) by the two blocks that read them.

All rates are natural-log.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import ioformats, numerics
from .core import BlockProblem, PddConfig
from .core import pdd_run as _pdd_run
from .errors import InvalidInputError


@dataclass(frozen=True)
class RelayInstance:
    """Immutable problem data for one relay broadcast network.

    Computed once, for the block updates: ``sigma_r``, ``g_conj = g.conj()``
    (rows g_k^H) and the read-only identities ``eye_r`` and ``eye_s`` of
    orders N_r and N_s.
    """

    n_s: int              # source antennas
    n_r: int              # relay antennas
    n_users: int
    H: np.ndarray         # N_r x N_s source-relay channel
    g: np.ndarray         # K x N_r conjugated relay-user channels (rows g_k)
    sigma_r2: float       # relay noise power (must be > 0)
    sigma2: np.ndarray    # K user noise powers
    p_s: float            # source power budget
    p_r: float            # relay power budget
    alpha: np.ndarray     # K positive rate weights

    sigma_r: float = field(init=False, repr=False, compare=False)
    g_conj: np.ndarray = field(init=False, repr=False, compare=False)
    eye_r: np.ndarray = field(init=False, repr=False, compare=False)
    eye_s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma_r", float(np.sqrt(self.sigma_r2)))
        arrays = {"g_conj": self.g.conj(), "eye_r": np.eye(self.n_r), "eye_s": np.eye(self.n_s)}
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def build_instance(H, g, sigma_r2, sigma2, p_s, p_r, alpha=None):
    """Validate and store one relay network.

    ``H`` must be a matrix and ``g`` K x N_r, each dimension (N_s, N_r, K)
    at least 1, the channels finite, each power and weight a finite real
    number above 0 (:func:`numerics.require_positive`), and ``sigma2`` and
    ``alpha`` each a scalar or K entries; an :class:`InvalidInputError`
    names the first dimension or field (by its :func:`instance_to_dict` key)
    that is not.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2:
        raise InvalidInputError(f"H must be N_r x N_s, got shape {H.shape}")
    n_r, n_s = H.shape
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[1] != n_r:
        raise InvalidInputError(f"g must be K x {n_r}, got shape {g.shape}")
    K = g.shape[0]
    numerics.require_dims("relay", N_s=n_s, N_r=n_r, K=K)
    numerics.require_finite("H", H)
    numerics.require_finite("g", g)
    # sigma_R > 0: the F-copy constraint degenerates at sigma_R = 0
    return RelayInstance(
        n_s=n_s, n_r=n_r, n_users=K, H=H, g=g,
        sigma_r2=numerics.require_positive("sigma_R2", sigma_r2),
        sigma2=numerics.per_user("sigma2", sigma2, K),
        p_s=numerics.require_positive("P_S", p_s), p_r=numerics.require_positive("P_R", p_r),
        alpha=np.ones(K) if alpha is None else numerics.per_user("alpha", alpha, K))


@dataclass(frozen=True)
class RelayIterate:
    """Primal blocks and their barred copies.

    It carries ``FH = F @ H``, ``FHV = FH @ V`` and ``powers``, the
    :func:`_received_powers` triple of (X, F), by the rule in ``core.BlockProblem``.
    """

    V: np.ndarray    # N_s x K
    F: np.ndarray    # N_r x N_r
    X: np.ndarray    # N_r x K
    Vb: np.ndarray
    Fb: np.ndarray
    Xb: np.ndarray
    instance: InitVar[RelayInstance]
    prev: InitVar["RelayIterate | None"] = None
    FH: np.ndarray = field(init=False, repr=False, compare=False)
    FHV: np.ndarray = field(init=False, repr=False, compare=False)
    powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, instance, prev):
        same_f = prev is not None and prev.F is self.F
        FH = prev.FH if same_f else self.F @ instance.H
        FHV = prev.FHV if same_f and prev.V is self.V else FH @ self.V
        powers = prev.powers if same_f and prev.X is self.X \
            else _received_powers(self.X, self.F, instance)
        object.__setattr__(self, "FH", FH)
        object.__setattr__(self, "FHV", FHV)
        object.__setattr__(self, "powers", powers)


def constraint_h(iterate, instance):
    """Stacked real embedding of the four equality residuals.

    Order: (X - FHV, sigma_R (F - Fb), X - Xb, V - Vb); the infinity norm
    of the result is the feasibility gap reported in traces.
    """
    z = iterate
    res = [
        z.X - z.FHV,
        instance.sigma_r * (z.F - z.Fb),
        z.X - z.Xb,
        z.V - z.Vb,
    ]
    return np.concatenate([numerics.real_embed_vec(r) for r in res])


def _received_powers(X, F, instance):
    """Per-user total power T_k, own-signal c_k, and interference+noise I_k."""
    M = instance.g_conj @ X                          # M[k, j] = g_k^H x_j
    gf = instance.g_conj @ F                         # rows g_k^H F
    total = (np.abs(M) ** 2).sum(axis=1) + instance.sigma_r2 * (np.abs(gf) ** 2).sum(axis=1) \
        + instance.sigma2
    own = M.diagonal().copy()
    interf = total - np.abs(own) ** 2
    return total, own, interf


def _rate(powers, instance):
    total, _, interf = powers
    return float(np.dot(instance.alpha, np.log(total / interf)))


def sum_rate(V, F, instance):
    """Weighted sum rate (nats) of the actual precoder pair (X = FHV)."""
    return _rate(_received_powers(F @ instance.H @ V, F, instance), instance)


def wmmse_weights(X, F, instance):
    """Optimal MMSE receive scalars u and weights w given (X, F).

    ``w_k = 1 + SINR_k`` holds exactly, so ``log(w)`` recovers the user rates.
    """
    return _weights(_received_powers(X, F, instance))


def _weights(powers):
    total, own, interf = powers
    return own / total, total / interf


def mse_matrices(u, w, instance):
    """Quadratic-form matrix G_w and diagonal D_w of the weighted MSE."""
    coef = w * instance.alpha * np.abs(u) ** 2
    Gcol = instance.g.T                              # columns g_k
    G_w = (Gcol * coef[None, :]) @ instance.g_conj
    D_w = w * instance.alpha * u
    return G_w, D_w


def update_F(iterate, weights, duals, rho, instance):
    """Relay-precoder block: solve the Sylvester optimality system.

    ``weights`` is the ``(u, w)`` pair of :func:`wmmse_weights`.
    """
    z = iterate
    Z, Zf, _, _ = duals
    G_w, _ = mse_matrices(*weights, instance)
    sr = instance.sigma_r
    HV = instance.H @ z.V
    A = instance.sigma_r2 * (2.0 * rho * G_w + instance.eye_r)
    B = HV @ HV.conj().T
    C = sr * (sr * z.Fb - rho * Zf) + (z.X + rho * Z) @ HV.conj().T
    return numerics.solve_sylvester(A, B, C)


def update_bars(iterate, duals, rho, instance):
    """Barred block: two independent ball projections that own the budgets."""
    z = iterate
    _, Zf, Zx, Zv = duals
    sr = instance.sigma_r
    Vb = numerics.project_ball(z.V + rho * Zv, np.sqrt(instance.p_s))
    K = instance.n_users
    stacked = np.concatenate([z.X + rho * Zx, sr * z.F + rho * Zf], axis=1)
    proj = numerics.project_ball(stacked, np.sqrt(instance.p_r))
    Xb = proj[:, :K]
    Fb = proj[:, K:] / sr
    return Vb, Xb, Fb


def update_X(iterate, weights, duals, rho, instance):
    """Auxiliary received-signal block: unconstrained quadratic minimum."""
    z = iterate
    Z, _, Zx, _ = duals
    G_w, D_w = mse_matrices(*weights, instance)
    Gcol = instance.g.T
    rhs = 2.0 * rho * (Gcol * D_w[None, :]) + (z.FHV - rho * Z) + (z.Xb - rho * Zx)
    return 0.5 * numerics.solve_linear(rho * G_w + instance.eye_r, rhs)


def update_V(iterate, duals, rho, instance):
    """Source-precoder block: unconstrained quadratic minimum."""
    z = iterate
    Z, _, _, Zv = duals
    FH = z.FH
    lhs = instance.eye_s + FH.conj().T @ FH
    rhs = (z.Vb - rho * Zv) + FH.conj().T @ (z.X + rho * Z)
    return numerics.solve_linear(lhs, rhs)


class RelayProblem(BlockProblem):
    """Four-block AL problem: F, barred copies, X, V.

    The F and X steps take (u, w) at the current point, from the powers
    the iterate carries, before their block update, which makes each
    individual step a tight surrogate minimization of the AL and keeps the
    descent property under any block visit order.
    """

    n_blocks = 4

    def __init__(self, instance):
        self.instance = instance
        inst = instance
        self._shapes = [
            (inst.n_r, inst.n_users),   # Z
            (inst.n_r, inst.n_r),       # Zf
            (inst.n_r, inst.n_users),   # Zx
            (inst.n_s, inst.n_users),   # Zv
        ]

    # --- dual packing -----------------------------------------------------

    def pack_duals(self, Z, Zf, Zx, Zv):
        return np.concatenate([numerics.real_embed_vec(M) for M in (Z, Zf, Zx, Zv)])

    def unpack_duals(self, lam, rho):
        """``(lam, Z, Zf, Zx, Zv)``: the flat vector, then the duals of
        X - FHV, sigma_R (F - Fb), X - Xb and V - Vb."""
        out = [lam]
        pos = 0
        for shape in self._shapes:
            n = 2 * shape[0] * shape[1]
            out.append(numerics.complex_from_embedding(lam[pos:pos + n]).reshape(shape))
            pos += n
        return tuple(out)

    # --- BlockProblem interface --------------------------------------------

    def constraint(self, z):
        return constraint_h(z, self.instance)

    def al_value(self, z, duals, rho):
        h = self.constraint(z)
        return float(-_rate(z.powers, self.instance)
                     + np.dot(duals[0], h) + np.dot(h, h) / (2.0 * rho))

    def objective(self, z):
        """Weighted sum rate (nats) of the actual precoders (V, F)."""
        return sum_rate(z.V, z.F, self.instance)

    def step(self, i, z, duals, rho):
        inst = self.instance
        duals = duals[1:]
        if i == 0:
            F = update_F(z, _weights(z.powers), duals, rho, inst)
            return RelayIterate(z.V, F, z.X, z.Vb, z.Fb, z.Xb, inst, z)
        if i == 1:
            Vb, Xb, Fb = update_bars(z, duals, rho, inst)
            return RelayIterate(z.V, z.F, z.X, Vb, Fb, Xb, inst, z)
        if i == 2:
            X = update_X(z, _weights(z.powers), duals, rho, inst)
            return RelayIterate(z.V, z.F, X, z.Vb, z.Fb, z.Xb, inst, z)
        V = update_V(z, duals, rho, inst)
        return RelayIterate(V, z.F, z.X, z.Vb, z.Fb, z.Xb, inst, z)

    # --- diagnostics --------------------------------------------------------
    # The barred block uses (Vb, Xb, sigma_R * Fb) coordinates so that both
    # power sets are Euclidean balls and the projector is exact.

    def block_value(self, i, z):
        sr = self.instance.sigma_r
        if i == 0:
            return numerics.real_embed_vec(z.F)
        if i == 1:
            return np.concatenate([numerics.real_embed_vec(M) for M in (z.Vb, z.Xb, sr * z.Fb)])
        if i == 2:
            return numerics.real_embed_vec(z.X)
        return numerics.real_embed_vec(z.V)

    def set_block_value(self, i, z, v):
        unembed = numerics.complex_from_embedding
        blocks = dict(V=z.V, F=z.F, X=z.X, Vb=z.Vb, Fb=z.Fb, Xb=z.Xb)
        if i == 1:
            n_vb = 2 * z.Vb.size
            n_xb = 2 * z.Xb.size
            blocks.update(
                Vb=unembed(v[:n_vb]).reshape(z.Vb.shape),
                Xb=unembed(v[n_vb:n_vb + n_xb]).reshape(z.Xb.shape),
                Fb=unembed(v[n_vb + n_xb:]).reshape(z.Fb.shape) / self.instance.sigma_r,
            )
        else:
            name = {0: "F", 2: "X", 3: "V"}[i]
            blocks[name] = unembed(v).reshape(blocks[name].shape)
        return RelayIterate(**blocks, instance=self.instance, prev=z)

    def block_prox(self, i):
        if i != 1:
            return None
        inst = self.instance

        def proj(v):
            n_vb = 2 * inst.n_s * inst.n_users
            vb = numerics.project_ball(v[:n_vb], np.sqrt(inst.p_s))
            rest = numerics.project_ball(v[n_vb:], np.sqrt(inst.p_r))
            return np.concatenate([vb, rest])

        return proj

    def al_block_gradient(self, i, z, duals, rho):
        inst = self.instance
        _, Z, Zf, Zx, Zv = duals
        sr = inst.sigma_r
        M1 = Z + (z.X - z.FHV) / rho
        M2 = Zf + sr * (z.F - z.Fb) / rho
        M3 = Zx + (z.X - z.Xb) / rho
        M4 = Zv + (z.V - z.Vb) / rho
        if i == 0:
            total, _, interf = z.powers
            coef = inst.alpha * (1.0 / total - 1.0 / interf)
            Gcol = inst.g.T
            grad_rate = 2.0 * inst.sigma_r2 * (Gcol * coef[None, :]) @ (Gcol.conj().T @ z.F)
            HV = inst.H @ z.V
            return numerics.real_embed_vec(-grad_rate - M1 @ HV.conj().T + sr * M2)
        if i == 1:
            return np.concatenate([numerics.real_embed_vec(-M) for M in (M4, M3, M2)])
        if i == 2:
            total, own, interf = z.powers
            Gcol = inst.g.T
            P = (Gcol * (inst.alpha / total - inst.alpha / interf)[None, :]) @ Gcol.conj().T
            diag_fix = Gcol * ((inst.alpha / interf) * own)[None, :]
            grad_rate = 2.0 * (P @ z.X + diag_fix)
            return numerics.real_embed_vec(-grad_rate + M1 + M3)
        return numerics.real_embed_vec(-z.FH.conj().T @ M1 + M4)


def default_config(instance, **overrides):
    """Penalty schedule with the size-scaled initial value used in experiments.

    The default shrink factor c = 0.6 moves the penalty out of its
    ineffective large range quickly enough for the dual updates to engage
    well inside the iteration budget; the slow threshold decay
    (tau = 0.99) then keeps the dual branch active once the violation
    starts contracting.
    """
    K, n_r, n_s = instance.n_users, instance.n_r, instance.n_s
    rho0 = 500.0 * K / (2.0 * K * n_r + n_s**2 + K * n_s)
    cfg = dict(rho0=rho0, tau=0.99, max_outer=30, eps_outer=1e-3, eps_min=1e-5)
    cfg.update(overrides)
    return PddConfig(**cfg)


def initial_iterate(instance, rng):
    """Feasible start: orthogonal source columns at full power, scaled identity F."""
    inst = instance
    G0 = rng.standard_normal((inst.n_s, inst.n_users)) \
        + 1j * rng.standard_normal((inst.n_s, inst.n_users))
    if inst.n_users <= inst.n_s:
        Q, _ = np.linalg.qr(G0)
        V0 = np.sqrt(inst.p_s / inst.n_users) * Q[:, :inst.n_users]
    else:
        V0 = G0 * np.sqrt(inst.p_s / np.linalg.norm(G0) ** 2)
    beta = np.sqrt(inst.p_r / (np.linalg.norm(inst.H @ V0) ** 2
                               + inst.sigma_r2 * inst.n_r))
    F0 = beta * np.eye(inst.n_r, dtype=complex)
    X0 = F0 @ inst.H @ V0
    return RelayIterate(V=V0, F=F0, X=X0, Vb=V0.copy(), Fb=F0.copy(), Xb=X0.copy(),
                        instance=inst)


def repair_feasibility(V, F, instance):
    """Radially scale (V, F) to exact feasibility; returns (V, F, scales).

    V is scaled first to meet the source budget, then F to meet the relay
    budget given the scaled V. Scales are <= 1 when the pair was
    within-budget already (then both equal 1).
    """
    s_v = min(1.0, np.sqrt(instance.p_s / max(np.linalg.norm(V) ** 2, 1e-300)))
    V = s_v * V
    p_relay = np.linalg.norm(F @ instance.H @ V) ** 2 \
        + instance.sigma_r2 * np.linalg.norm(F) ** 2
    s_f = min(1.0, np.sqrt(instance.p_r / max(p_relay, 1e-300)))
    return V, s_f * F, (float(s_v), float(s_f))


def solve(instance, config=None, on_iteration=None):
    """Run PDD; return a dict with the precoders ``V`` and ``F`` repaired to
    feasibility, the ``trace``, the ``repair_scale`` pair of
    :func:`repair_feasibility` and the final ``sum_rate_nats``.

    ``on_iteration`` is passed to :func:`pddopt.core.pdd_run`.
    """
    if config is None:
        config = default_config(instance)
    rng = np.random.default_rng(config.seed)
    z0 = initial_iterate(instance, rng)
    problem = RelayProblem(instance)
    lam0 = np.zeros(constraint_h(z0, instance).size)
    z, _, trace = _pdd_run(problem, z0, lam0, config, on_iteration)
    V, F, scales = repair_feasibility(z.V, z.F, instance)
    return {
        "V": V, "F": F, "trace": trace, "repair_scale": scales,
        "sum_rate_nats": sum_rate(V, F, instance),
    }


def gen_instance(n_s, n_r, n_users, snr_db, seed):
    """Random network: unit-variance CN channels and noise, P_S = P_R = 10^(snr/10)."""
    numerics.require_dims("relay", N_s=n_s, N_r=n_r, K=n_users)
    rng = np.random.default_rng(seed)
    p = 10.0 ** (snr_db / 10.0)
    H = (rng.standard_normal((n_r, n_s)) + 1j * rng.standard_normal((n_r, n_s))) / np.sqrt(2.0)
    g = (rng.standard_normal((n_users, n_r)) + 1j * rng.standard_normal((n_users, n_r))) / np.sqrt(2.0)
    return build_instance(H, g, 1.0, 1.0, p, p)


def random_feasible_pair(instance, rng):
    """Random (V, F) scaled to meet both power budgets with equality."""
    V = rng.standard_normal((instance.n_s, instance.n_users)) \
        + 1j * rng.standard_normal((instance.n_s, instance.n_users))
    V *= np.sqrt(instance.p_s) / np.linalg.norm(V)
    F = rng.standard_normal((instance.n_r, instance.n_r)) \
        + 1j * rng.standard_normal((instance.n_r, instance.n_r))
    p_relay = np.linalg.norm(F @ instance.H @ V) ** 2 \
        + instance.sigma_r2 * np.linalg.norm(F) ** 2
    F *= np.sqrt(instance.p_r / p_relay)
    return V, F


def instance_to_dict(instance):
    return {
        "N_s": instance.n_s, "N_r": instance.n_r, "K": instance.n_users,
        "H": ioformats.complex_to_pairs(instance.H),
        "g": ioformats.complex_to_pairs(instance.g),
        "sigma_R2": instance.sigma_r2,
        "sigma2": instance.sigma2.tolist(),
        "P_S": instance.p_s, "P_R": instance.p_r,
        "alpha": instance.alpha.tolist(),
    }


def instance_from_dict(data):
    return build_instance(
        ioformats.pairs_to_complex(data["H"]), ioformats.pairs_to_complex(data["g"]),
        data["sigma_R2"], np.asarray(data["sigma2"]),
        data["P_S"], data["P_R"], np.asarray(data["alpha"]),
    )
