"""Dense linear-algebra kernels and convex projections shared by the solvers.

All functions are pure: they never mutate their inputs and hold no state
beyond a cache of LAPACK work-array sizes per matrix order, so they
are safe to call from concurrent workers. Their tolerances are the module
constants below.

The seven LAPACK routines the kernels call (``dsyevr``, ``dgesdd``,
``zheevd``, ``zgesv`` and the three work-size queries) are bound from scipy's
f2py extension
``scipy.linalg._flapack``, loaded from its file, so importing this module
does not import ``scipy.linalg`` and the array-API layer that comes with it.
If that load fails (no file, an import error, a missing routine), the
routines come from ``scipy.linalg.lapack.get_lapack_funcs`` instead: the
same Fortran objects, at the cost of the ``scipy.linalg`` import.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

HERMITIAN_TOL = 1e-12      # relative asymmetry allowed before rejecting input
EIG_RESIDUAL_REL = 1e-9    # ||Cv - lam*v|| <= rel * (lower bound of ||C||_2)
SVD_RESIDUAL_REL = 1e-9    # reconstruction and orthonormality residuals
SYLVESTER_REL = 1e-8       # ||AF + FB - C|| <= rel*(||A||+||B||)*||F|| + abs
SYLVESTER_ABS = 1e-12
CUBIC_TOL = 1e-12          # |a s^3 + b s - d| <= tol * max(1, |d|)
SIGN_TOL = 1e-12           # threshold for "first nonzero component"

_FLAPACK = "scipy.linalg._flapack"
# syevr for min_eigvec_sym; gesdd, which np.linalg.svd calls, for thin_svd and
# singular_values; the complex routines np.linalg.eigh and np.linalg.solve call,
# whose f2py wrappers cast a real argument to complex
_LAPACK_ROUTINES = ("dsyevr", "dsyevr_lwork", "dgesdd", "dgesdd_lwork",
                    "zheevd", "zheevd_lwork", "zgesv")


def _load_lapack():
    """The routines ``_LAPACK_ROUTINES`` from ``scipy.linalg._flapack``.

    The extension is reused from ``sys.modules`` or else loaded from its file
    in scipy's package directory under its own name, so a later import of
    ``scipy.linalg`` finds it and binds the same objects. A failed load
    falls back to ``scipy.linalg.lapack.get_lapack_funcs``.
    """
    try:
        flapack = sys.modules.get(_FLAPACK)
        if flapack is None:
            scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
            path = os.path.join(scipy_dir, "linalg",
                                "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            flapack = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader))
            loader.exec_module(flapack)
            sys.modules[_FLAPACK] = flapack
        return tuple(getattr(flapack, name) for name in _LAPACK_ROUTINES)
    except (ImportError, AttributeError):
        from scipy.linalg import lapack
        return (*lapack.get_lapack_funcs(("syevr", "syevr_lwork", "gesdd", "gesdd_lwork")),
                *lapack.get_lapack_funcs(("heevd", "heevd_lwork", "gesv"),
                                         dtype=np.complex128))


_SYEVR, _SYEVR_LWORK, _GESDD, _GESDD_LWORK, _HEEVD, _HEEVD_LWORK, _GESV = _load_lapack()


def require_finite(name, value):
    """Raise :class:`InvalidInputError` naming ``name`` unless every entry of
    ``value`` (scalar or array, real or complex) is finite."""
    if not np.isfinite(value).all():
        raise InvalidInputError(f"{name} has a non-finite entry")


def require_dims(app, **dims):
    """Raise :class:`InvalidInputError` naming the first of ``dims``
    (dimension name to size) of the ``app`` instance that is below 1."""
    for name, n in dims.items():
        if n < 1:
            raise InvalidInputError(f"{app} dimension {name} must be at least 1, got {n}")


def per_user(name, value, n):
    """``value``, a scalar or ``n`` entries, as a new float vector of length ``n``.

    Any other shape raises :class:`InvalidInputError` naming ``name``.
    """
    value = np.asarray(value, dtype=float)
    try:
        return np.broadcast_to(value, (n,)).copy()
    except ValueError:
        raise InvalidInputError(f"{name} must be a scalar or have {n} entries, "
                                f"got shape {value.shape}") from None


def fix_sign(v):
    """Flip a real vector so its first non-negligible component is positive.

    Returns (v, sign) where sign is +1 or -1; used to make eigenvector and
    singular-vector outputs reproducible across runs and LAPACK builds.
    """
    v = np.asarray(v)
    idx = np.flatnonzero(np.abs(v) > SIGN_TOL)
    if idx.size == 0:
        return v, 1.0
    s = 1.0 if v[idx[0]].real > 0 else -1.0
    return s * v, s


def real_embed_vec(w):
    """Embed a complex vector into R^{2n} as (Re w, Im w).

    The embedding is an isometry: ``norm(real_embed_vec(w)) == norm(w)``.
    """
    w = np.asarray(w, dtype=complex).ravel()
    return np.concatenate([w.real, w.imag])


def complex_from_embedding(v):
    """Inverse of :func:`real_embed_vec`."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size % 2 != 0:
        raise InvalidInputError(f"embedded vector length must be even, got {v.size}")
    n = v.size // 2
    return v[:n] + 1j * v[n:]


def real_embed_hermitian(M):
    """Embed a Hermitian matrix M into the real symmetric matrix
    ``[[Re M, -Im M], [Im M, Re M]]``.

    For any complex w and Hermitian M, ``w^H M w == w_eq^T M_eq w_eq`` with
    w_eq from :func:`real_embed_vec`.

    Raises
    ------
    InvalidInputError
        If M is not square, or deviates from Hermitian symmetry by more
        than ``HERMITIAN_TOL`` relative to its magnitude. Smaller
        asymmetries are removed by averaging M with its conjugate transpose.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, np.abs(M).max()) if M.size else 1.0
    asym = np.abs(M - M.conj().T).max() if M.size else 0.0
    if asym > HERMITIAN_TOL * scale:
        raise InvalidInputError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{HERMITIAN_TOL:.1e} * {scale:.3e}"
        )
    M = 0.5 * (M + M.conj().T)
    re, im = M.real, M.imag
    return np.block([[re, -im], [im, re]])


@functools.lru_cache(maxsize=64)
def _syevr_work_sizes(n):
    """``(lwork, liwork)`` of ``syevr`` on an n x n matrix, lower triangle."""
    work, iwork, info = _SYEVR_LWORK(n, lower=1)
    if info != 0:
        raise NumericalFailureError(f"syevr work-size query failed: info={info}")
    return int(work), int(iwork)


def min_eigvec_sym(C):
    """Smallest eigenpair of a real symmetric matrix.

    C must be symmetric: only its lower triangle is read. Only the smallest
    eigenpair is computed: LAPACK ``syevr`` is called directly with an index
    range of one, the routine and arguments ``scipy.linalg.eigh(C,
    subset_by_index=[0, 0], driver="evr")`` uses, without its wrapper cost.

    Returns (v, lam) with ``v`` unit norm, sign-normalized so its first
    non-negligible component is positive.

    Raises
    ------
    NumericalFailureError
        If C is not a nonempty square matrix or has a non-finite entry, the
        eigensolver reports an error, or the residual ``||Cv - lam*v||``
        exceeds ``EIG_RESIDUAL_REL`` times ``max(|lam|, largest column norm
        of C)``, a lower bound of ``||C||_2``.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise NumericalFailureError(
            f"eigensolver failed: expected a nonempty square matrix, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise NumericalFailureError("eigensolver input has a non-finite entry")
    lwork, liwork = _syevr_work_sizes(C.shape[0])
    vals, vecs, _, _, info = _SYEVR(C, compute_v=1, range="I", lower=1, il=1, iu=1,
                                    lwork=lwork, liwork=liwork)
    if info != 0:
        raise NumericalFailureError(f"eigensolver failed: syevr info={info}")
    lam = vals[0]
    v = vecs[:, 0]
    norm_c = max(np.abs(lam), np.linalg.norm(C, axis=0).max())
    resid = np.linalg.norm(C @ v - lam * v)
    if not resid <= EIG_RESIDUAL_REL * max(norm_c, 1e-300):
        raise NumericalFailureError(
            f"eigenpair residual {resid:.3e} exceeds {EIG_RESIDUAL_REL:.1e} * ||C||",
            residual=resid,
        )
    v, _ = fix_sign(v)
    return v, lam


@functools.lru_cache(maxsize=64)
def _gesdd_work_size(m, n, compute_uv):
    """``lwork`` of ``gesdd`` on an m x n matrix, thin factors or none."""
    work, info = _GESDD_LWORK(m, n, compute_uv=compute_uv, full_matrices=0)
    if info != 0:
        raise NumericalFailureError(f"gesdd work-size query failed: info={info}")
    return int(work)


def _gesdd(M, compute_uv):
    """LAPACK ``gesdd`` on a finite real matrix, called directly with the
    arguments ``np.linalg.svd(M, full_matrices=False)`` (or ``compute_uv=False``)
    passes, without its wrapper cost. Returns ``(U, s, Vt)``; U and Vt are
    dummies unless ``compute_uv``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise InvalidInputError(f"expected a nonempty matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalFailureError("SVD input has a non-finite entry")
    # positional arguments (compute_uv, full_matrices=0, lwork) skip the
    # keyword parsing of the f2py wrapper
    U, s, Vt, info = _GESDD(M, compute_uv, 0, _gesdd_work_size(*M.shape, compute_uv))
    if info != 0:
        raise NumericalFailureError(f"SVD failed to converge: gesdd info={info}")
    return U, s, Vt


def singular_values(M):
    """Singular values of a real matrix, sorted descending: the bits of
    ``np.linalg.svd(M, compute_uv=False)``.

    Raises
    ------
    InvalidInputError
        If M is not a nonempty matrix.
    NumericalFailureError
        If M has a non-finite entry or ``gesdd`` does not converge.
    """
    return _gesdd(M, 0)[1]


def thin_svd(M):
    """Thin SVD of a real m x n matrix.

    Returns (U, s, V) with ``M = U @ diag(s) @ V.T``, U m x k and V n x k for
    k = min(m, n), singular values sorted descending, and columns of U (and V
    jointly) sign-normalized. Before the sign fix, U, s and V.T are the bits
    of ``np.linalg.svd(M, full_matrices=False)``, in its (C) order, so the
    products formed from them take the same BLAS path.

    Raises
    ------
    InvalidInputError
        If M is not a nonempty matrix.
    NumericalFailureError
        If M has a non-finite entry, on non-convergence, or on residuals
        above ``SVD_RESIDUAL_REL``.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = _gesdd(M, 1)
    U = np.ascontiguousarray(U)
    Vt = np.ascontiguousarray(Vt)
    # fix_sign on every column of U at once. ``first`` is the first entry
    # above SIGN_TOL in magnitude, or U[0, j] when there is none, which then
    # cannot be below -SIGN_TOL.
    k = s.size
    first = U[(np.abs(U) > SIGN_TOL).argmax(axis=0), np.arange(k)]
    sgn = np.where(first < -SIGN_TOL, -1.0, 1.0)
    U *= sgn
    Vt *= sgn[:, None]
    # the Frobenius norms of U diag(s) V^T - M, U^T U - I and V^T V - I, each
    # formed in place in the product's output and summed by one dot product
    R = (U * s) @ Vt
    R -= M
    GU = U.T @ U
    GV = Vt @ Vt.T
    GU.ravel()[::k + 1] -= 1.0
    GV.ravel()[::k + 1] -= 1.0
    resid = math.sqrt(np.vdot(R, R))
    orth = math.sqrt(max(np.vdot(GU, GU), np.vdot(GV, GV)))
    if not (resid <= SVD_RESIDUAL_REL * max(s[0], 1e-300) and orth <= SVD_RESIDUAL_REL):
        raise NumericalFailureError(
            f"SVD residuals too large (reconstruction {resid:.3e}, orthonormality {orth:.3e})",
            residual=max(resid, orth),
        )
    return U, s, Vt.T


def solve_sylvester(A, B, C):
    """Solve A F + F B = C for Hermitian A and B in complex arithmetic.

    Contract: A (n x n) and B (m x m) are Hermitian and every sum
    ``lambda_i(A) + mu_j(B)`` of their eigenvalues is positive, e.g. A
    positive definite and B positive semidefinite, as in the relay F-step.
    Only the lower triangles of A and B are read, as in
    :func:`min_eigvec_sym`; an A or B that is not Hermitian is caught by
    the residual check. With ``A = U_A diag(lambda) U_A^H`` and
    ``B = U_B diag(mu) U_B^H`` (two Hermitian eigendecompositions, each
    by LAPACK ``zheevd``, called directly; F is complex),

        F = U_A [(U_A^H C U_B) / (lambda_i + mu_j)] U_B^H,

    validated against the relative residual bound
    ``||AF + FB - C|| <= SYLVESTER_REL * (||A|| + ||B||) * ||F|| + SYLVESTER_ABS``.

    Raises
    ------
    NumericalFailureError
        If A, B or C has a non-finite entry, an eigendecomposition fails,
        some ``lambda_i + mu_j <= 0``, or the residual bound fails. The
        last two carry ``cond = max|lambda_i + mu_j| / min|lambda_i + mu_j|``,
        the 2-norm condition number of ``I (x) A + B^T (x) I`` for
        Hermitian A and B.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    C = np.asarray(C)
    if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(C).all()):
        raise NumericalFailureError("Sylvester input has a non-finite entry")
    lam_a, U_a = _eigh_lower(A)
    lam_b, U_b = _eigh_lower(B)
    denom = lam_a[:, None] + lam_b[None, :]
    if not denom.min() > 0:
        raise NumericalFailureError(
            f"Sylvester eigenvalue sums must be positive, smallest is {denom.min():.3e}",
            cond=_kron_sum_cond(denom),
        )
    F = U_a @ ((U_a.conj().T @ C @ U_b) / denom) @ U_b.conj().T
    resid = np.linalg.norm(A @ F + F @ B - C)
    bound = (
        SYLVESTER_REL * (np.linalg.norm(A) + np.linalg.norm(B)) * np.linalg.norm(F)
        + SYLVESTER_ABS
    )
    if not np.isfinite(resid) or resid > bound:
        raise NumericalFailureError(
            f"Sylvester residual {resid:.3e} exceeds bound {bound:.3e}",
            residual=resid,
            cond=_kron_sum_cond(denom),
        )
    return F


@functools.lru_cache(maxsize=64)
def _heevd_work_sizes(n):
    """Work-array sizes (lwork, liwork, lrwork) of ``zheevd`` on an n x n
    matrix, lower triangle, in the order the routine takes them after
    ``compute_v`` and ``lower``."""
    *sizes, info = _HEEVD_LWORK(n, lower=1)
    if info != 0:
        raise NumericalFailureError(f"heevd work-size query failed: info={info}")
    return tuple(int(x.real) for x in sizes)


def _eigh_lower(M):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix from its
    lower triangle: LAPACK ``zheevd`` called directly with the arguments
    ``np.linalg.eigh(M)`` passes for a complex M, without its wrapper cost.
    The eigenvectors come back in C order, as from ``np.linalg.eigh``, so the
    products formed from them take the same BLAS path."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericalFailureError(
            f"Sylvester eigendecomposition failed: expected a square matrix, got shape {M.shape}")
    # positional arguments (compute_v=1, lower=1, then the work sizes) skip
    # the keyword parsing of the f2py wrapper
    lam, U, info = _HEEVD(M, 1, 1, *_heevd_work_sizes(M.shape[0]))
    if info != 0:
        raise NumericalFailureError(f"Sylvester eigendecomposition failed: heevd info={info}")
    return lam, np.ascontiguousarray(U)


def solve_linear(A, B):
    """Solve A X = B in complex arithmetic for a square nonsingular A.

    LAPACK ``zgesv`` (LU with partial pivoting) is called directly, the
    routine and arguments ``np.linalg.solve(A, B)`` uses for complex A and B,
    without its wrapper cost. A real A or B is promoted to complex, and X is
    complex. X is returned in C order, as ``np.linalg.solve`` returns it, so
    reductions over it (a norm, a sum) add in the same order.

    Raises
    ------
    NumericalFailureError
        If ``gesv`` reports an error; ``info > 0`` means U is exactly
        singular.
    """
    _, _, X, info = _GESV(A, B)
    if info != 0:
        raise NumericalFailureError(f"linear solve failed: gesv info={info}")
    return np.ascontiguousarray(X)


def _kron_sum_cond(denom):
    """2-norm condition number of ``I (x) A + B^T (x) I`` from its eigenvalues
    ``lambda_i + mu_j`` (A, B Hermitian), inf if one of them is zero."""
    size = np.abs(denom)
    return float(size.max() / size.min()) if size.min() > 0 else float("inf")


def project_ball(M, radius):
    """Project a vector/matrix onto the Frobenius-norm ball of given radius."""
    if radius < 0:
        raise InvalidInputError(f"ball radius must be >= 0, got {radius}")
    M = np.asarray(M)
    nrm = np.linalg.norm(M)
    if nrm <= radius:
        return M.copy()
    return (radius / nrm) * M


# The sorting network takes O(K) numpy calls of O(L K) work each, np.sort one
# call of O(L K log K) work with a cost per column. On a 2-core x86_64 box the
# network is the cheaper of the two when K <= 8 and L >= 16 K^2
# (BENCH_volmin_kernels.json, ``projection_crossover``).
_NETWORK_MAX_ROWS = 8
_NETWORK_COLS_PER_ROW_SQ = 16


def project_simplex_columns(S):
    """Euclidean projection of each column of a K x L matrix onto the
    probability simplex {s >= 0, sum s = 1}.

    Sort-and-threshold construction (Duchi et al., ICML 2008), vectorized
    over columns: column j maps to ``max(s_j - theta_j, 0)`` for the unique
    theta_j making it sum to one. A single vector ``v`` is projected as
    ``project_simplex_columns(v[:, None])[:, 0]``.

    The sort takes one of two paths with the same arithmetic, bit for bit:
    an odd-even sorting network (:func:`_simplex_theta_network`) when
    ``K <= 8`` and ``L >= 16 K^2``, as for volmin's S over its data columns,
    and ``np.sort`` (:func:`_simplex_theta_sorted`) otherwise, as for the
    single columns of ``multicast.kkt_residual``.

    Raises
    ------
    InvalidInputError
        If S has no rows.
    NumericalFailureError
        If S has a non-finite entry.
    """
    S = np.asarray(S, dtype=float)
    K, L = S.shape
    if K == 0:
        raise InvalidInputError("cannot project an empty matrix onto the simplex")
    if not np.isfinite(S).all():
        raise NumericalFailureError("simplex projection input has a non-finite entry")
    if K <= _NETWORK_MAX_ROWS and L >= _NETWORK_COLS_PER_ROW_SQ * K * K:
        theta = _simplex_theta_network(S)
    else:
        theta = _simplex_theta_sorted(S)
    return np.maximum(S - theta, 0.0)


def _simplex_theta_sorted(S):
    """Thresholds theta of a finite K x L matrix: sort each column
    descending, then the last row r with ``u_r + (1 - css_r) / (r + 1) > 0``
    gives ``theta = (css_r - 1) / (r + 1)``, or row K-1 if none passes."""
    K = S.shape[0]
    u = -np.sort(-S, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, K + 1)[:, None]
    mask = u + (1.0 - css) / j > 0
    rho = K - 1 - np.argmax(mask[::-1, :], axis=0)
    return (css[rho, np.arange(S.shape[1])] - 1.0) / (rho + 1.0)


def _simplex_theta_network(S):
    """The thresholds of :func:`_simplex_theta_sorted`, bit for bit, with the
    K rows sorted descending by an odd-even transposition network: K passes,
    each a compare-exchange of alternate row pairs by
    ``np.maximum``/``np.minimum`` on row slices. One pass over the sorted
    rows u then carries the running sum css and keeps theta from the last
    row r with ``u_r > (css_r - 1) / (r + 1)``. The adds are those of
    ``np.cumsum``, and for finite S the comparison is the sorted path's
    mask. The cost is O(K) numpy calls of O(L K) work each."""
    K = S.shape[0]
    u = S.copy()
    for p in range(K):
        upper, lower = u[p % 2:K - 1:2], u[p % 2 + 1:K:2]
        larger = np.maximum(upper, lower)
        np.minimum(upper, lower, out=lower)
        upper[...] = larger
    css = np.zeros(S.shape[1])
    # NaN until some row passes; S is finite, so no t is NaN
    theta = np.full(S.shape[1], np.nan)
    for r in range(K):
        css += u[r]
        t = (css - 1.0) / (r + 1)
        np.copyto(theta, t, where=u[r] > t)
    np.copyto(theta, t, where=np.isnan(theta))
    return theta


def solve_monotone_cubic(a, b, d):
    """Nonnegative root of the strictly increasing cubic a*s^3 + b*s - d = 0.

    Requires a > 0, b > 0, d >= 0; the root is unique because the left side
    is strictly increasing in s. Closed-form (Cardano) evaluation on plain
    floats followed by Newton polishing to ``CUBIC_TOL * max(1, |d|)``.
    """
    if not (a > 0 and b > 0):
        raise InvalidInputError(f"cubic requires a > 0 and b > 0, got a={a}, b={b}")
    if d < 0:
        raise InvalidInputError(f"cubic requires d >= 0, got d={d}")
    if d == 0:
        return 0.0
    # s^3 + 3t s = 2h. Cardano's root is u - t/u with u^3 = h + sqrt(h^2 + t^3);
    # since u^3 - (t/u)^3 = 2h, it equals 2h / (u^2 + t + (t/u)^2), which sums
    # positive terms and so keeps full relative accuracy for a small root.
    t = b / (3.0 * a)
    h = d / (2.0 * a)
    # The cube root's argument is positive unless h and t^3 both underflow;
    # then Newton starts from 0.
    u = (h + math.sqrt(h * h + t * t * t)) ** (1.0 / 3.0)
    if u > 0.0:
        v = t / u
        s = 2.0 * h / (u * u + t + v * v)
    else:
        s = 0.0
    tol = CUBIC_TOL * max(1.0, abs(d))
    for _ in range(100):
        r = a * s * s * s + b * s - d
        if abs(r) <= tol:
            break
        s -= r / (3.0 * a * s * s + b)
        if s < 0.0:
            s = 0.0
    else:
        r = a * s * s * s + b * s - d
        raise NumericalFailureError(
            f"cubic root polish stalled at residual {r:.3e}", residual=abs(r),
        )
    return float(s)
