"""Dense-regime recovery: power iteration and top-eigenpair extraction."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, _check_array, _check_int, _check_real, check_matrix

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class RecoveryReport:
    """Result of an iterative recovery run.

    ``rayleigh_trace`` holds the quotient b_t^T M b_t after every step; for
    PSD input it is non-decreasing.  A step is one multiply of M, and
    ``iterations`` counts them.  ``converged`` records whether the
    early-stop tolerance was met before the iteration cap; from
    ``sparse_recover`` it also requires that ADMM did not stop on its cap.
    ``lowdim``'s exact solve reports one step, converged, with lambda1 as
    its trace.
    ``stages`` carries optional diagnostics: from ``truncated_power_method``
    its ``block_solves``, from ``sparse_recover`` the sparse pipeline's
    initialization, screening and those solves (``tpm_block_solves``).
    """

    beta_hat: np.ndarray
    iterations: int
    rayleigh_trace: np.ndarray
    converged: bool
    stages: dict | None = field(default=None, compare=False)


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude coordinate is positive (ties: lowest index).

    ``v`` is read by ``_check_array`` as a real 1-D array (``ConfigError``)."""
    v = _check_array(v, "sign_normalize's v", ndim=1)
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0.0 else v


def orient_by_first_moment(beta_hat: np.ndarray, xty: np.ndarray) -> np.ndarray:
    """Flip beta_hat when <beta_hat, X^T y> < 0; a zero keeps its sign.

    For Gaussian covariates E[y x] = mu1 b (Brillinger 1982), so the sign
    of <beta_hat, X^T y> is the sign of <beta_hat, b> once beta_hat is
    close to +-b and mu1 > 0.  That assumption holds for the flipped-logistic
    and noisy-sign links.  The thresholded-magnitude link is even, mu1 = 0,
    and its sign is not identifiable; there the flip is a coin toss.  Both
    vectors must be real, 1-D and of one length (``ConfigError``).
    """
    beta_hat = _check_array(beta_hat, "beta_hat", ndim=1)
    xty = _check_array(xty, "xty", ndim=1)
    if beta_hat.shape != xty.shape:
        raise ConfigError(f"beta_hat has shape {beta_hat.shape}, xty {xty.shape}")
    return -beta_hat if float(beta_hat @ xty) < 0.0 else beta_hat


def _check_unit(v: np.ndarray, what: str, p: int | None = None) -> np.ndarray:
    """``v`` as a real unit vector: of shape (p,) if p is given, else 1-D (``ConfigError``)."""
    v = _check_array(v, what, ndim=1 if p is None else None)
    if p is not None and v.shape != (p,):
        raise ConfigError(f"{what} must have shape ({p},), got {v.shape}")
    # written so that a NaN or infinite norm fails too
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-6:
        raise ConfigError(f"{what} must be finite and unit norm")
    return v


def _check_stop(t_max: int, tol: float) -> None:
    _check_int(t_max, "t_max", 1)
    _check_real(tol, "tol", 0)


def _normalize(v: np.ndarray) -> np.ndarray:
    # v @ v overflows, and numpy warns, for finite entries above about 1e154;
    # _power_iterate silences that once per run, not on every call here.  Below
    # about 1e-154 it falls under the smallest normal float and loses bits or
    # reaches 0, so v / norm would not be a unit vector.
    sq = v @ v  # what np.linalg.norm squares for a real vector
    if not _TINY <= sq < math.inf and np.isfinite(v).all() and v.any():  # rescale first
        v = v / np.abs(v).max()
        sq = v @ v
    norm = math.sqrt(sq)
    if not 0.0 < norm < math.inf:
        raise NumericalError("no dominant direction: iterate annihilated or not finite")
    return v / norm


@np.errstate(over="ignore")  # _normalize rescales a finite v whose v @ v overflows
def _power_iterate(m, beta0, t_max: int, tol: float, step) -> RecoveryReport:
    """Iterate b <- step(M b) from the unit vector beta0, for at most t_max multiplies of M.

    ``step`` maps M b to the next unit iterate.  The product M v taken for the
    Rayleigh quotient is reused as the next step's M b, so a step costs one
    multiply; ``rayleigh_trace`` holds v^T M v after every step.
    """
    b = _check_unit(beta0, "beta0", m.shape[0])
    _check_stop(t_max, tol)
    if not np.any(m):
        raise NumericalError("no dominant direction: matrix is zero")
    trace = []
    converged = False
    mb = m @ b
    for iterations in range(1, t_max + 1):
        v = step(mb)
        mb = m @ v
        trace.append(float(v @ mb))
        minus, plus = v - b, v + b
        diff = min(math.sqrt(minus @ minus), math.sqrt(plus @ plus))
        b = v
        if diff <= tol:
            converged = True
            break
    return RecoveryReport(sign_normalize(b), iterations, np.asarray(trace), converged)


def power_method(mtx, beta0, t_max: int = 500, tol: float = 1e-10) -> RecoveryReport:
    """Power iteration b <- M b / ||M b|| from a unit starting vector.

    Stops early once successive iterates differ by at most ``tol`` after sign
    alignment, or after ``t_max`` multiplies.  ``tol=0`` runs all ``t_max``
    multiplies unless an iterate repeats exactly, which ends the run early with
    ``converged=True``: the vector is the fixed run's, its ``iterations`` and
    trace are shorter.  Each step costs one matrix-vector product: the product taken
    for the Rayleigh quotient is the next step's.  The returned vector is
    sign-normalized.  A zero matrix, or an iterate that M annihilates or makes
    non-finite, has no dominant direction and raises ``NumericalError``.
    """
    return _power_iterate(check_matrix(mtx, "power_method"), beta0, t_max, tol, _normalize)


def top_two_eigs(mtx):
    """Top two eigenvalues and the leading eigenvector of a symmetric matrix.

    Full symmetric eigendecomposition.  Returns ``(lambda1, lambda2, v1)``
    with lambda1 >= lambda2 and v1 sign-normalized.  The matrix must pass
    ``check_matrix`` and have p >= 2 (``ConfigError: p must be >= 2``).
    """
    m = check_matrix(mtx, "top_two_eigs")
    _check_int(m.shape[0], "p", 2)
    vals, vecs = np.linalg.eigh(m)
    return float(vals[-1]), float(vals[-2]), sign_normalize(vecs[:, -1].copy())
