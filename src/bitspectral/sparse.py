"""High-dimensional recovery: Fantope-relaxation initializer + truncated power method.

The pipeline solves, over the Fantope {0 <= Pi <= I, Tr Pi = 1},

    minimize  -<M, Pi> + rho * ||Pi||_1,1

by ADMM to obtain an initializer whose leading eigenvector is close enough to
the signal direction, then refines it with power iterations interleaved with
hard truncation to the top-s_hat coordinates.  The initializer only has to
land in the attraction basin of the truncated iteration ("tighten after
relax"), so ``sparse_recover`` stops ADMM once the leading direction of its
iterate stays finite on one top-s_hat support for ``SETTLE_RUNS`` iterations
in a row, however it turns within it.  The residual rule and the iteration
cap stay as upper bounds; ADMM that stops on its cap is demoted to
``converged=False`` but still used.  Each ADMM step runs one
eigendecomposition, in the Fantope projection, and the initializer is read
off the last projection's eigenpairs, so none runs after the loop.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _lapack
from .errors import NumericalError, _check_array, _check_int, _check_real, check_matrix
# never called here; perfbench/tracing.py patches these three as sparse attributes
from .estimator import second_moment, second_moment_sum
from .spectral import top_two_eigs
from .spectral import RecoveryReport, _check_stop, _normalize, _power_iterate, sign_normalize


@dataclass(frozen=True)
class SparseConfig:
    """Tuning for the sparse pipeline.

    ``rho`` is the entrywise l1 regularization weight, ``s_hat`` the truncation
    sparsity, ``t_max`` and ``tol`` the truncated-power cap and stop tolerance
    (the rule of ``power_method``).  ADMM starts at penalty ``admm_penalty``,
    adapts it by residual balancing (see ``fantope_admm``), and stops once both
    residuals fall below ``admm_tol * p`` or at ``admm_max_iter``;
    ``sparse_recover`` also stops it once its leading direction settles.
    ``sparse_recover`` runs ADMM on (M/s, rho/s) with s = |tr(M)|/p, which has
    the same minimizer and puts M's mean eigenvalue at 1 (at -1 for a negative
    trace); there ``admm_penalty`` and ``admm_tol`` apply to that normalized
    problem.
    """

    rho: float
    s_hat: int
    t_max: int = 500
    tol: float = 1e-10
    admm_penalty: float = 1.0
    admm_tol: float = 1e-6
    admm_max_iter: int = 2000

    def __post_init__(self):
        _check_real(self.rho, "rho", 0)
        _check_int(self.s_hat, "s_hat", 1)
        _check_stop(self.t_max, self.tol)
        _check_real(self.admm_penalty, "admm_penalty", 0, above=True)
        _check_real(self.admm_tol, "admm_tol", 0, above=True)
        _check_int(self.admm_max_iter, "admm_max_iter", 1)


@dataclass(frozen=True)
class FantopeSolution:
    """ADMM output: feasible iterate Pi plus convergence diagnostics.

    Pi is the last Fantope projection; ``weights`` and ``vectors`` are that
    projection's k nonzero eigenvalues, ascending, and their eigenvectors as
    the columns of a p x k array (see ``_fantope_project``).
    """

    Pi: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    penalty: float  # tau at the last iteration
    penalty_updates: int  # how often residual balancing changed tau
    stop: str  # "residual", "settled" or "cap"
    weights: np.ndarray
    vectors: np.ndarray

    @property
    def converged(self) -> bool:
        """Stopped by the residual rule or by settling, not by the cap."""
        return self.stop != "cap"


def soft_threshold(a, t: float, out=None):
    """Entrywise sign(a) * max(|a| - t, 0); the l1 proximal map.

    ``out``, as for a numpy ufunc, receives the result; it must not be ``a``.
    A negative, NaN, infinite, bool or string ``t``, or a non-real ``a``, raises ``ConfigError``.
    """
    _check_real(t, "threshold", 0)
    a = _check_array(a, "soft_threshold's a")
    return np.subtract(a, np.clip(a, -t, t, out=out), out=out)


def fantope_project(a: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {0 <= Pi <= I, Tr Pi = 1}.

    ``a`` must pass ``check_matrix``; the projection itself is ``_fantope_project``,
    which ``fantope_admm`` calls directly.  ``a`` is read, never written: the
    reduction runs on a copy.
    """
    a = check_matrix(a, "fantope_project")
    return _fantope_project(np.array(a, order="C"), np.empty(a.shape), lambda: a)[0]


def _fantope_project(a: np.ndarray, out: np.ndarray, argument):
    """``fantope_project`` of a finite symmetric ``a``, with Pi's nonzero eigenpairs.

    Returns (Pi, weights, vectors): Pi written into ``out``, the k nonzero
    eigenvalues of Pi in ascending order and their eigenvectors as the columns
    of a p x k array, so that Pi = (vectors * weights) @ vectors.T up to rounding.

    ``a`` and ``out`` are the caller's p x p C-contiguous float64 scratch, two
    distinct arrays.  The reduction to tridiagonal form overwrites ``a`` (see
    ``_lapack.spectrum``), so only a caller that can produce its values again
    may hand it over: ``argument()`` returns an array equal to ``a`` as handed
    over, for the ``np.linalg.eigh`` fallback below, and is called only there.
    ``fantope_project`` hands over a copy and its own array; ``fantope_admm``
    its scratch argument and the function that rebuilds Z - U + M/tau in it.

    Eigenvalues are shifted by a scalar gamma and clipped to [0, 1] so the
    clipped values sum to one; the eigenvectors are untouched.  gamma is exact:
    gamma >= lambda_max - 1, so only eigenvalues above lambda_max - 1 can carry
    mass, and on that range the upper clip is inactive.  The trace equation is
    then a projection onto the simplex, solved in closed form at its
    breakpoints.  Pi is rebuilt from the k eigenvectors with nonzero weight.

    The eigenpairs come from numpy's bundled LAPACK: one reduction to
    tridiagonal form, every eigenvalue from the tridiagonal, then eigenvectors
    for the k weighted eigenvalues only, by inverse iteration on those
    eigenvalues, mapped back.  ``np.linalg.eigh`` gives them instead where that
    LAPACK is not present, where the tridiagonal splits (a diagonal or
    block-diagonal ``a``, say), or where LAPACK does not deliver k finite
    eigenvectors (inverse iteration can fail on a large tied cluster).
    """
    lam, top = _lapack.spectrum(a)
    vecs = None
    if lam is not None:
        weights = _fantope_weights(lam)
        vecs = top(weights.size)
    if vecs is None:
        lam, vecs = np.linalg.eigh(argument())
        weights = _fantope_weights(lam)
        vecs = vecs[:, -weights.size:].copy()  # not a view that holds all p vectors
    w = vecs * np.sqrt(weights)
    # A @ A.T, into out or not, is computed as a symmetric rank-k update
    return np.matmul(w, w.T, out=out), weights, vecs


def _fantope_weights(lam: np.ndarray) -> np.ndarray:
    """The k nonzero projected eigenvalues, for the ascending eigenvalues ``lam``;
    the k entries belong to the k largest, in ascending order."""
    # top eigenvalues in descending order, shifted by lambda_max into (-1, 0];
    # lambda_max itself always, even where lambda_max - 1 rounds to it
    cut = int(np.searchsorted(lam[:-1], lam[-1] - 1.0, side="right"))
    top = lam[cut:][::-1] - lam[-1]
    shift = (np.cumsum(top) - 1.0) / np.arange(1, top.size + 1)
    k = int(np.flatnonzero(top > shift)[-1]) + 1
    return np.clip(top[k - 1::-1] - shift[k - 1], 0.0, 1.0)


# Residual balancing (Boyd et al. 2011, sec. 3.4.1): the penalty doubles when
# the primal residual exceeds BALANCE_RATIO times the dual one and halves in
# the opposite case.  Adaptation stops after BALANCE_ITERS iterations, so the
# fixed-penalty convergence guarantee covers the rest of the run.
BALANCE_RATIO = 10.0
BALANCE_ITERS = 1000
_FLOAT_MAX = np.finfo(float).max  # a threshold rho/tau above it clips as +inf would

# Iterations of fantope_admm(settle=True)'s rule: the smallest of 2-5 that,
# with every larger one, left per-trial errors no worse than the earlier rule
# (a sine below 1e-2 as well, 5 runs), by tests fixed before the runs at seeds
# no test uses (BENCH_settle_support.json).
SETTLE_RUNS = 2


def fantope_admm(mtx, cfg: SparseConfig, *, settle: bool = False) -> FantopeSolution:
    """Solve the l1-penalized Fantope program by ADMM with splitting Pi = Z.

    Scaled-dual iteration with penalty tau, starting at ``cfg.admm_penalty``:
    the Pi-update projects Z - U + M/tau onto the Fantope, the Z-update
    soft-thresholds Pi + U at rho/tau, and U accumulates Pi - Z.  During the
    first ``BALANCE_ITERS`` iterations tau is doubled or halved to keep the
    primal and dual residuals within ``BALANCE_RATIO`` of each other, and U is
    rescaled by tau_old/tau_new.  The run stops with ``stop="residual"`` once
    both residuals fall below ``cfg.admm_tol * p``.  M must pass ``check_matrix``,
    once, at entry, and M/tau must be finite at entry and after each halving of
    tau (else ``NumericalError``, naming the penalty reached).  The loop calls
    ``_fantope_project``, not the checked door: its argument is built from
    arrays the loop already holds, so it is only tested to be finite
    (``NumericalError`` as ``fantope_project`` raises it).

    The loop allocates its p-by-p arrays once and holds six: M/tau (not M), Z,
    Z_prev, U, Pi, and one scratch array (the projection's argument, Pi + U,
    the residual differences), besides Pi's k eigenvectors.  The projection
    writes Pi into the one buffer, which the solution returns, and reduces
    the argument in place, with no copy; where it then falls back to
    ``np.linalg.eigh`` (a split tridiagonal, a failed inverse iteration, no
    LAPACK), the loop rebuilds Z - U + M/tau in the scratch array by the same
    two operations, so the fallback sees the argument bit for bit.  As tau
    only doubles or halves, M/tau is rescaled in place, which repeats M / tau
    bit for bit unless an entry is subnormal (nonzero, below 2.2e-308 in
    magnitude).

    With ``settle`` the loop also tracks a unit vector, one product
    v <- Pi v / ||Pi v|| per iteration, started from Pi's column with the
    largest diagonal entry (should Pi v vanish, v turns NaN, never counts as
    settled, and only the residual rule and the cap remain).  After the
    residual test, the loop stops with ``stop="settled"`` once ``SETTLE_RUNS``
    consecutive products left v finite and kept its top-``cfg.s_hat`` support
    (stable argsort of -|v|), so this rule never stops it before iteration
    ``SETTLE_RUNS + 1``.  A support wider than p never changes, so with
    ``settle`` an ``s_hat`` above p raises ``ConfigError`` before the first
    iteration.  Either stop reports ``converged=True``; the cap returns the
    last iterate with ``stop="cap"`` and ``converged=False``.
    """
    with np.errstate(over="ignore"):  # an M / tau that overflows is refused below
        m_scaled = check_matrix(mtx, "fantope_admm") / cfg.admm_penalty
    del mtx  # so a caller's temporary M is freed before the first iteration
    _check_scaled(m_scaled, "admm_penalty", cfg.admm_penalty)
    p = m_scaled.shape[0]
    if settle:
        _check_int(cfg.s_hat, "s_hat", 1, p)
    tau = cfg.admm_penalty
    threshold = cfg.admm_tol * p
    z, z_prev, u = (np.zeros((p, p)) for _ in range(3))
    arg, pi = np.empty((p, p)), np.empty((p, p))  # reused every iteration

    def argument():  # Z - U + M/tau, built in arg; the projection may rebuild it
        np.subtract(z, u, out=arg)
        return np.add(arg, m_scaled, out=arg)

    t = min(cfg.rho / tau, _FLOAT_MAX)
    primal = dual = math.inf
    iterations = updates = runs = 0
    v = support = None
    for iterations in range(1, cfg.admm_max_iter + 1):
        if not np.isfinite(argument()).all():
            raise NumericalError("fantope_project requires a finite matrix")
        pi, weights, vectors = _fantope_project(arg, pi, argument)
        z, z_prev = z_prev, z
        np.add(pi, u, out=arg)
        soft_threshold(arg, t, out=z)
        np.subtract(arg, z, out=u)
        primal = float(np.linalg.norm(np.subtract(pi, z, out=arg)))
        dual = tau * float(np.linalg.norm(np.subtract(z, z_prev, out=arg)))
        if primal < threshold and dual < threshold:
            return FantopeSolution(pi, iterations, primal, dual, tau, updates, "residual",
                                   weights, vectors)
        if settle:
            pv = pi[:, int(np.argmax(np.diag(pi)))] if v is None else pi @ v
            v = pv / np.linalg.norm(pv)
            support_prev, support = support, _top_support(v, cfg.s_hat)
            still = np.isfinite(v).all() and np.array_equal(support, support_prev)
            runs = runs + 1 if still else 0
            if runs >= SETTLE_RUNS:
                return FantopeSolution(pi, iterations, primal, dual, tau, updates,
                                       "settled", weights, vectors)
        if iterations > BALANCE_ITERS:
            continue
        if primal > BALANCE_RATIO * dual:
            scale = 2.0
        elif dual > BALANCE_RATIO * primal:
            scale = 0.5
        else:
            continue
        tau *= scale
        with np.errstate(over="ignore"):  # a halving tau can overflow M / tau: refused below
            u /= scale
            m_scaled /= scale
        if scale < 1.0:
            _check_scaled(m_scaled, "penalty", tau)
        t = min(cfg.rho / tau, _FLOAT_MAX)
        updates += 1
    return FantopeSolution(pi, iterations, primal, dual, tau, updates, "cap", weights,
                           vectors)


def _check_scaled(m_scaled: np.ndarray, name: str, tau: float) -> None:
    """Refuse a non-finite M / tau with a ``NumericalError`` that names tau as ``name``."""
    if not np.isfinite(m_scaled).all():
        raise NumericalError(f"fantope_admm requires a finite M / {name}, got {name} = {tau}")


def _top_support(v: np.ndarray, s_hat: int) -> np.ndarray:
    """Indices of the s_hat largest |v_i| (ties: lower index), in increasing order."""
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:s_hat])


@np.errstate(over="ignore")  # _normalize rescales a finite v whose v @ v overflows
def truncate(v: np.ndarray, s_hat: int) -> np.ndarray:
    """Keep the s_hat largest-|.| coordinates (ties: lower index) and renormalize.

    A non-real or non-1-D ``v`` raises ``ConfigError``; any non-finite entry ``NumericalError``.
    """
    return _truncate(v, s_hat)


def _truncate(v: np.ndarray, s_hat: int) -> np.ndarray:
    """``truncate`` without its overflow guard, for loops that hold the guard already."""
    v = _check_array(v, "truncate's v", ndim=1)
    _check_int(s_hat, "s_hat", 1, v.shape[0])
    if not np.isfinite(v).all():
        raise NumericalError("truncate requires a finite vector")
    keep = _top_support(v, s_hat)
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return _normalize(out)


def truncated_power_method(mtx, beta0, cfg: SparseConfig) -> RecoveryReport:
    """Power iteration with per-step truncation to s_hat coordinates.

    With s_hat = p the truncation is the identity and the iterate sequence
    coincides exactly with ``power_method``.  A denser-than-s_hat start is
    accepted; the first multiply-and-truncate makes every iterate s_hat-sparse.
    Stops when successive iterates differ by at most ``cfg.tol`` after sign
    alignment, or at ``cfg.t_max``.
    """
    m = check_matrix(mtx, "truncated_power_method")
    return _power_iterate(m, beta0, cfg.t_max, cfg.tol, lambda mb: _truncate(mb, cfg.s_hat))


def sparse_recover(mtx, cfg: SparseConfig) -> RecoveryReport:
    """Sparse pipeline on M: ADMM initializer, then truncated power method.

    ``mtx`` is an array passing ``check_matrix``, p >= 2 (else ``ConfigError``
    before any ADMM iteration).  The initializer is the leading eigenvector of
    the ADMM solution, read off the eigenpairs of the last Fantope projection
    (no eigendecomposition runs after ADMM), sign-normalized, truncated to
    s_hat and renormalized; ADMM runs with the settle rule
    (``fantope_admm(..., settle=True)``) on (M/s, rho/s), s = |tr(M)|/p.  As
    s > 0, that program has the same minimizer as (M, rho), and every stop test
    of the loop is scale-free: M c^2 with rho c^2, c a power of two, repeats the
    run bit for bit.  The truncated power method reads the raw M.  ``stages``
    carries the ADMM residuals and stop reason (in the normalized units) and
    the relaxation solution's eigengap, read off the same eigenpairs (lambda2
    is 0 where Pi has rank one); ``converged`` is the conjunction of the ADMM
    and power-stage flags.
    """
    m = check_matrix(mtx, "sparse_recover")
    p = m.shape[0]
    _check_int(p, "p", 2)  # the initializer reads the top two eigenvalues
    # a PSD M, as every trial's is, has tr(M) = 0 only for M = 0, which the power
    # stage reports; an indefinite M of zero trace runs unscaled
    scale = abs(float(np.trace(m))) / p or 1.0
    rho = cfg.rho / scale
    if not math.isfinite(rho):
        raise NumericalError(f"second-moment matrix too small to normalize: |tr(M)|/p = {scale}")
    fsol = fantope_admm(m / scale, replace(cfg, rho=rho), settle=True)
    lam1 = float(fsol.weights[-1])
    lam2 = float(fsol.weights[-2]) if fsol.weights.size > 1 else 0.0
    beta0 = truncate(sign_normalize(fsol.vectors[:, -1]), cfg.s_hat)
    report = truncated_power_method(mtx, beta0, cfg)
    stages = {
        "admm_iterations": fsol.iterations,
        "admm_primal_residual": fsol.primal_residual,
        "admm_dual_residual": fsol.dual_residual,
        "admm_converged": fsol.converged,
        "admm_stop": fsol.stop,
        "admm_final_penalty": fsol.penalty,
        "admm_penalty_updates": fsol.penalty_updates,
        "init_eigengap": lam1 - lam2,
    }
    return replace(report, converged=bool(report.converged and fsol.converged), stages=stages)
