"""Penalty dual decomposition outer loop and randomized BSUM inner solver.

The solver is generic over a :class:`BlockProblem`: an augmented-Lagrangian
problem split into blocks, each with an exact surrogate-minimization update.
``pdd_run`` drives the outer dual/penalty schedule; ``rbsum_run`` performs
randomized block sweeps on the augmented Lagrangian at fixed multipliers.

Conventions (minimization form): the augmented Lagrangian is

    L(z; lam, rho) = f(z) + lam^T h(z) + ||h(z)||^2 / (2 rho)

so the penalty *strengthens* as rho shrinks toward zero, and the dual
update on the AL branch is ``lam <- lam + h(z)/rho``.
"""

import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, UnsupportedOperationError

PDD = "pdd"
IPDD = "ipdd"

STOP_OBJECTIVE = "objective-progress"
STOP_RESIDUAL = "residual"
_STOP_RULES = (STOP_OBJECTIVE, STOP_RESIDUAL)

BRANCH_DUAL = "dual-update"
BRANCH_PENALTY = "penalty-decrease"
BRANCH_BOTH = "dual+penalty"  # IPDD performs both updates every iteration

STOP_CONVERGED = "converged"
STOP_MAX_OUTER = "max_outer"
STOP_INFEASIBLE_FLOOR = "infeasible-floor"

# the infeasibility stop: ||h[:n]||^2 within (1 + FLOOR_SLACK) of the floor,
# and ||h||_inf moved by under FLOOR_STALL_REL over FLOOR_WINDOW iterations
FLOOR_SLACK = 0.1
FLOOR_WINDOW = 3
FLOOR_STALL_REL = 0.01

# a gap with ||.||_inf <= FEASIBLE_SLACK * eps_outer counts as feasible: the
# copy part of h at the infeasibility stop, and volmin's restart pick
FEASIBLE_SLACK = 10.0

# what a PddConfig field annotated float or int accepts (bool excluded)
_NUMBER_KINDS = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer")}


class BlockProblem:
    """Abstract augmented-Lagrangian problem with per-block updates.

    Subclasses must set :attr:`n_blocks` and implement :meth:`constraint`,
    :meth:`al_value` and :meth:`step`. ``step(i, z, duals, rho)`` returns a
    new iterate with only block ``i`` changed and must never increase the AL
    (surrogate contract). The optional gradient and prox hooks enable the
    stationarity residual.

    The multipliers reach the AL methods only as ``duals``, the value that
    :meth:`unpack_duals` returns for the flat vector ``lam`` and ``rho``;
    a problem keeps no per-(lam, rho) state of its own. An iterate may carry
    values built from its blocks (``init=False`` fields): each equals a fresh
    constructor call's, building an iterate never changes another, ``step``
    and ``set_block_value`` pass ``prev=z`` to keep as the same object each
    value whose source blocks are the same objects, and ``dataclasses.replace``
    raises or recomputes. ``pddopt verify`` checks both rules per app suite.
    """

    n_blocks = 1

    def unpack_duals(self, lam, rho):
        """The form of ``lam`` that ``al_value``, ``step`` and
        ``al_block_gradient`` take at penalty ``rho``.

        :func:`pdd_run` calls this once per outer iteration and passes the
        result to every AL call of that iteration, the inner solve included.
        A subclass may unpack ``lam`` into matrices and compute constants
        that depend only on ``(lam, rho)`` here. It may also carry a scratch
        buffer that AL calls overwrite, so one ``duals`` value must not be
        shared between concurrent calls. The default returns ``lam``.
        """
        return lam

    def constraint(self, z):
        """Dualized equality-constraint residual h(z) as a flat real vector."""
        raise NotImplementedError

    def al_value(self, z, duals, rho):
        """Augmented Lagrangian L(z; lam, rho) (minimization form)."""
        raise NotImplementedError

    def step(self, i, z, duals, rho):
        """Exact surrogate minimization of block ``i``; returns the new iterate."""
        raise NotImplementedError

    def objective(self, z):
        """Original objective value for reporting; nan if not meaningful."""
        return float("nan")

    def constraint_floor(self):
        """``(floor, n)``: a lower bound on ``||h(z)[:n]||^2`` that holds at
        every point ``z`` of the block sets.

        A positive floor certifies that ``h(z) = 0`` has no solution, and lets
        :func:`pdd_run` stop once the first ``n`` entries of ``h`` sit at the
        floor (``stop_reason`` ``"infeasible-floor"``). :func:`pdd_run` calls
        this once per run. The default ``(0.0, 0)`` switches that stop off.
        """
        return 0.0, 0

    # --- optional hooks for stationarity residuals -----------------------

    def block_value(self, i, z):
        """Flat real representation of block ``i`` of the iterate."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not expose block values"
        )

    def set_block_value(self, i, z, v):
        """Rebuild an iterate with block ``i`` replaced from flat coordinates.

        Inverse of :meth:`block_value`; used by finite-difference checks.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support block replacement"
        )

    def al_block_gradient(self, i, z, duals, rho):
        """Gradient of the smooth AL part w.r.t. block ``i`` (flat, real)."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not provide AL gradients"
        )

    def block_prox(self, i):
        """Prox of block ``i``'s set and nonsmooth term, or None if it has neither.

        When present, ``prox(v)`` returns ``argmin_y phi_i(y) + 0.5 ||y - v||^2``
        over the block's set; for a set-only block that is the projection.
        :func:`stationarity_residuals` measures such a block by its
        proximal-gradient residual ``x - prox(x - g)``.
        """
        return None


@dataclass
class PddConfig:
    """Schedules and stopping rules for the PDD/IPDD outer loop.

    A value of the wrong type or range raises :class:`InvalidInputError`
    naming the field.
    """

    mode: str = PDD
    rho0: float = 1.0            # initial penalty parameter
    c: float = 0.6               # penalty shrink on the penalty branch; eps shrink always
    tau: float = 0.9             # constraint-violation threshold shrink
    eps0: float = 1e-3           # initial inner accuracy
    max_outer: int = 50
    max_inner: int = 100
    eps_outer: float = 1e-4      # outer feasibility tolerance on ||h||_inf
    inner_stop: str = STOP_OBJECTIVE
    seed: int = 0
    eps_min: float = 0.0         # floor for the inner accuracy schedule

    def __post_init__(self):
        for f in fields(self):
            kind, noun = _NUMBER_KINDS.get(f.type, (None, None))
            value = getattr(self, f.name)
            if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                raise InvalidInputError(f"{f.name} must be {noun}, got {value!r}")
        if self.mode not in (PDD, IPDD):
            raise InvalidInputError(f"mode must be '{PDD}' or '{IPDD}', got {self.mode!r}")
        if not self.rho0 > 0:
            raise InvalidInputError(f"rho0 must be positive, got {self.rho0}")
        if not 0 < self.c < 1:
            raise InvalidInputError(f"c must lie in (0, 1), got {self.c}")
        if not 0 < self.tau < 1:
            raise InvalidInputError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.eps0 > 0:
            raise InvalidInputError(f"eps0 must be positive, got {self.eps0}")
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.eps_outer >= 0:
            raise InvalidInputError(f"eps_outer must be >= 0, got {self.eps_outer}")
        if self.inner_stop not in _STOP_RULES:
            raise InvalidInputError(
                f"inner_stop must be one of {_STOP_RULES}, got {self.inner_stop!r}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not self.eps_min >= 0:
            raise InvalidInputError(f"eps_min must be >= 0, got {self.eps_min}")


@dataclass
class PddRecord:
    """One completed outer iteration."""

    k: int
    al_value: float
    objective: float
    h_inf: float
    rho: float
    eta: float
    branch: str
    inner_iters: int
    inner_converged: bool  # rbsum_run's flag: its stop rule, not max_inner, ended it
    time_s: float


@dataclass
class PddTrace:
    """Per-iteration history of a PDD run.

    ``stop_reason`` is ``"converged"`` when the run met its tolerances,
    ``"infeasible-floor"`` when it stopped at its constraint floor, and
    ``"max_outer"`` otherwise; ``converged`` reads it.
    """

    records: list = field(default_factory=list)
    rho_floor_hits: int = 0
    stop_reason: str = STOP_MAX_OUTER

    @property
    def converged(self):
        return self.stop_reason == STOP_CONVERGED

    CSV_COLUMNS = ("k", "objective", "al_value", "h_inf", "rho", "eta",
                   "branch", "inner_iters", "inner_converged", "time_ms")

    def column(self, name):
        return [getattr(r, name) for r in self.records]

    @staticmethod
    def csv_row(rec):
        return [rec.k, repr(rec.objective), repr(rec.al_value), repr(rec.h_inf),
                repr(rec.rho), repr(rec.eta), rec.branch, rec.inner_iters,
                int(rec.inner_converged), repr(rec.time_s * 1e3)]


def rbsum_run(problem, z, duals, rho, stop=STOP_OBJECTIVE, seed=0, eps_inner=1e-6,
              max_inner=100):
    """Randomized BSUM sweeps on the AL at fixed (lam, rho).

    Each iteration draws a lead block uniformly at random, then updates all
    blocks once, lead first and the rest in natural order. Returns
    ``(z, iters, converged)`` where ``converged`` reports whether the stop
    rule (rather than the iteration cap) ended the loop. A sweep that raises
    the AL by more than 1e-9 relative raises :class:`NumericalFailureError`:
    every block step must be a descent step (the BSUM surrogate contract).

    ``seed`` may be an int or a ``numpy.random.Generator`` (the latter lets
    an outer loop thread one stream through successive inner solves).
    ``duals`` is ``problem.unpack_duals(lam, rho)``.
    """
    if stop not in _STOP_RULES:
        raise InvalidInputError(f"unknown inner stop rule {stop!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = problem.n_blocks
    L_prev = problem.al_value(z, duals, rho)
    if not np.isfinite(L_prev):
        raise NumericalFailureError(f"AL value is not finite at inner start: {L_prev}")
    it = 0
    converged = False
    for it in range(1, max_inner + 1):
        lead = int(rng.integers(n))
        order = [lead] + [i for i in range(n) if i != lead]
        for i in order:
            z = problem.step(i, z, duals, rho)
        L = problem.al_value(z, duals, rho)
        if not np.isfinite(L):
            raise NumericalFailureError(f"AL value became non-finite at inner iteration {it}")
        if L > L_prev + 1e-9 * (1.0 + abs(L_prev)):
            raise NumericalFailureError(
                f"inner descent violated at iteration {it}: {L_prev} -> {L}"
            )
        if stop == STOP_OBJECTIVE:
            converged = abs(L - L_prev) <= eps_inner * (1.0 + abs(L_prev))
        else:
            converged = _inf_norm(stationarity_residuals(problem, z, duals, rho)) <= eps_inner
        if converged:
            break
        L_prev = L
    return z, it, bool(converged)


def pdd_run(problem, z0, lam0, config, on_iteration=None):
    """Run the PDD or IPDD outer loop on ``problem`` from ``(z0, lam0)``.

    Returns ``(z, lam, trace)``. In PDD mode each outer iteration either
    updates the duals (when ``||h||_inf <= eta_k``) or shrinks the penalty;
    IPDD does both every iteration. The threshold starts at
    ``eta_1 = max(1, ||h(z0)||_inf)``, and the penalty never falls below
    ``1e-8 * config.rho0`` (each clamp counts in ``trace.rho_floor_hits``).
    Terminates when ``||h||_inf`` falls below ``config.eps_outer`` with the
    inner stop satisfied (``trace.stop_reason`` ``"converged"``), or at
    ``config.max_outer`` (``"max_outer"``).

    A problem whose :meth:`BlockProblem.constraint_floor` reports a floor
    ``(floor, n)`` with ``floor > 0`` cannot reach ``h = 0``. Its run also
    stops, with ``converged`` false and ``stop_reason`` ``"infeasible-floor"``,
    after an outer iteration ``k`` at which all three of these hold:
    ``||h[:n]||^2 <= (1 + FLOOR_SLACK) * floor``;
    ``||h[n:]||_inf <= FEASIBLE_SLACK * config.eps_outer``; and
    ``| ||h_k||_inf - ||h_{k-m}||_inf | <= FLOOR_STALL_REL * ||h_{k-m}||_inf``
    with ``m = FLOOR_WINDOW``. The rule only adds an exit: the iterates up to
    the stop are those of a run without it.

    ``on_iteration``, when given, receives each :class:`PddRecord` as soon
    as it is complete (used for crash-safe trace streaming).
    """
    rng = np.random.default_rng(config.seed)
    h0 = np.asarray(problem.constraint(z0), dtype=float)
    lam = np.asarray(lam0, dtype=float).copy()
    if lam.shape != h0.shape:
        raise InvalidInputError(
            f"dual vector shape {lam.shape} does not match constraint dim {h0.shape}"
        )
    z = z0
    rho = config.rho0
    eta = max(1.0, _inf_norm(h0))
    eps = config.eps0
    rho_floor = 1e-8 * config.rho0
    floor, n_floor = problem.constraint_floor()
    trace = PddTrace()

    for k in range(1, config.max_outer + 1):
        t_start = time.perf_counter()
        duals = problem.unpack_duals(lam, rho)
        try:
            z, inner_iters, inner_ok = rbsum_run(
                problem, z, duals, rho,
                stop=config.inner_stop, seed=rng,
                eps_inner=eps, max_inner=config.max_inner,
            )
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"inner solver failed at outer iteration {k}: {exc}",
                residual=exc.residual, cond=exc.cond,
            ) from exc
        h = np.asarray(problem.constraint(z), dtype=float)
        h_inf = _inf_norm(h)
        al = problem.al_value(z, duals, rho)
        if not np.isfinite(al):
            raise NumericalFailureError(f"AL value non-finite at outer iteration {k}")
        rho_k = rho

        if config.mode == IPDD:
            branch = BRANCH_BOTH
        elif h_inf <= eta:
            branch = BRANCH_DUAL
        else:
            branch = BRANCH_PENALTY
        if branch != BRANCH_PENALTY:
            lam = lam + h / rho
        if branch != BRANCH_DUAL:
            rho = config.c * rho
            if rho < rho_floor:
                rho = rho_floor
                trace.rho_floor_hits += 1

        rec = PddRecord(
            k=k, al_value=float(al), objective=float(problem.objective(z)),
            h_inf=float(h_inf), rho=float(rho_k), eta=float(eta), branch=branch,
            inner_iters=inner_iters, inner_converged=bool(inner_ok),
            time_s=time.perf_counter() - t_start,
        )
        trace.records.append(rec)
        if on_iteration is not None:
            on_iteration(rec)

        # inner accuracy must have reached the outer tolerance before the
        # feasibility test alone may stop the run (eps_k -> 0 semantics)
        if h_inf <= config.eps_outer and inner_ok and eps <= config.eps_outer:
            trace.stop_reason = STOP_CONVERGED
            break
        if floor > 0 and _at_floor(h, floor, n_floor, trace.records, config.eps_outer):
            trace.stop_reason = STOP_INFEASIBLE_FLOOR
            break
        eta = config.tau * min(eta, h_inf)
        eps = max(config.c * eps, config.eps_min)

    return z, lam, trace


def _at_floor(h, floor, n, records, eps_outer):
    """The infeasibility stop of :func:`pdd_run` after the last of ``records``."""
    if len(records) <= FLOOR_WINDOW:
        return False
    fit = h[:n]
    h_inf, h_past = records[-1].h_inf, records[-1 - FLOOR_WINDOW].h_inf
    return (float(fit @ fit) <= (1.0 + FLOOR_SLACK) * floor
            and _inf_norm(h[n:]) <= FEASIBLE_SLACK * eps_outer
            and abs(h_inf - h_past) <= FLOOR_STALL_REL * h_past)


def stationarity_residuals(problem, z, duals, rho):
    """Stationarity residual of the AL at ``z``, all blocks in one flat vector.

    ``duals`` is ``problem.unpack_duals(lam, rho)``, as for :func:`rbsum_run`.
    A block with a prox contributes its proximal-gradient step
    ``x_i - prox(x_i - g_i)``, with ``g_i`` the smooth-part gradient; any
    other block contributes ``-g_i``. The vector vanishes exactly at a
    stationary point over the block sets; its inf-norm is the inner
    termination measure.

    Raises :class:`UnsupportedOperationError` if the problem does not
    provide AL gradients.
    """
    parts = []
    for i in range(problem.n_blocks):
        g = np.asarray(problem.al_block_gradient(i, z, duals, rho), dtype=float).ravel()
        prox = problem.block_prox(i)
        if prox is None:
            parts.append(-g)
        else:
            x = np.asarray(problem.block_value(i, z), dtype=float).ravel()
            parts.append(x - np.asarray(prox(x - g), dtype=float).ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def _inf_norm(v):
    v = np.asarray(v)
    return float(np.abs(v).max()) if v.size else 0.0
