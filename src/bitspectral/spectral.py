"""Dense-regime recovery: power iteration and top-eigenpair extraction."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, _check_array, _check_int, _check_real, check_matrix

# Multiplies of M per step of the squared power path's first phase, a power of
# two.  A step damps the second direction by (lambda2/lambda1)^64, and
# lambda2/lambda1 is 0.74-0.97 in the median on the criterion 4 grids.  The
# budget left goes in steps of M^16, then of M (``_squared_power_method``).
SQUARED_STRIDE = 64
_SQUARED_PHASES = (SQUARED_STRIDE, 16, 1)

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class RecoveryReport:
    """Result of an iterative recovery run.

    ``rayleigh_trace`` holds the quotient b_t^T M b_t after every step; for
    PSD input it is non-decreasing.  A step is one multiply of M, except on
    the squared path (``_squared_power_method``, which ``lowdim`` runs),
    where a step is 64, 16 or 1 multiplies by its phase.  ``iterations``
    counts multiplies of M.  ``converged`` records whether the
    early-stop tolerance was met before the iteration cap; from
    ``sparse_recover`` it also requires that ADMM did not stop on its cap.
    ``stages`` carries optional upstream diagnostics (e.g. the sparse
    pipeline's initialization).
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


def _squared(m: np.ndarray, q: int) -> np.ndarray:
    """M^q up to a positive scale, q a power of two: log2(q) squarings of M/||M||_F.

    Each factor is scaled to unit Frobenius norm before it is squared, so no
    power overflows; a factor that is zero or not finite raises as an
    annihilated iterate does.
    """
    a = m
    while q > 1:
        a = _normalize(a.ravel()).reshape(a.shape)
        a = a @ a
        q //= 2
    return a


@np.errstate(over="ignore")  # _normalize rescales a finite v whose v @ v overflows
def _power_iterate(m, beta0, t_max: int, tol: float, step, strides=(1,)) -> RecoveryReport:
    """Iterate b <- step(A b) from the unit vector beta0, for at most t_max multiplies of M.

    ``step`` maps A b to the next unit iterate.  ``strides`` are powers of two
    in decreasing order, the last 1, and each is one phase of the run.  The
    phase of stride q takes A = M^q for as many steps as the multiplies left
    allow, each step standing for q multiplies; a phase with no step takes no
    product.  Each M^q with 1 < q <= t_max is ``_squared`` from the power of
    the stride below it, so M^64 carries on the squarings that made M^16.  On
    A = M the product M v taken for the Rayleigh quotient is reused as the
    next step's M b.  ``iterations`` counts multiplies of M, and
    ``rayleigh_trace`` holds b^T M b after every step.
    """
    b = _check_unit(beta0, "beta0", m.shape[0])
    _check_stop(t_max, tol)
    if not np.any(m):
        raise NumericalError("no dominant direction: matrix is zero")
    powers = {1: m}  # M^q for each stride q <= t_max
    for q in sorted(q for q in strides if 1 < q <= t_max):
        below = max(powers)
        powers[q] = _squared(powers[below], q // below)
    trace = []
    converged = False
    iterations = 0
    left = t_max
    for q in strides:
        steps, left = divmod(left, q)
        if not steps:
            continue
        a = powers[q]
        ab = a @ b
        for _ in range(steps):
            v = step(ab)
            ab = a @ v
            iterations += q
            trace.append(float(v @ (ab if a is m else m @ v)))
            minus, plus = v - b, v + b
            diff = min(math.sqrt(minus @ minus), math.sqrt(plus @ plus))
            b = v
            if diff <= tol:
                converged = True
                break
        if converged:
            break
    return RecoveryReport(
        beta_hat=sign_normalize(b),
        iterations=iterations,
        rayleigh_trace=np.asarray(trace),
        converged=converged,
    )


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


def _squared_power_method(mtx, beta0, t_max: int = 500, tol: float = 1e-10) -> RecoveryReport:
    """``power_method`` stepping by M^64, then M^16, then M: a subsequence of its iterates.

    Power iteration on A = M^q yields every q-th iterate of power iteration
    on M and converges as (lambda2/lambda1)^q per step (Golub and Van Loan,
    *Matrix Computations*, 8.2).  The budget and ``iterations`` count
    multiplies of M: floor(t_max / 64) steps of M^64, then as many of M^16
    as the rest allows, then single multiplies, so t_max = 500 is 7 + 3 + 4
    steps and below t_max = 16 the run is ``power_method``'s.  A ``tol=0``
    run ends on the direction of M^t_max beta0 (earlier only if an iterate
    repeats exactly).  The stop test compares successive steps, up to 64
    multiplies apart, so an early stop comes some multiplies later than
    ``power_method``'s; each test at or above 64 floor(t_max / 64)
    multiplies falls where it would with steps of M^16 alone.  Raises as
    ``power_method`` does.
    """
    return _power_iterate(check_matrix(mtx, "_squared_power_method"), beta0, t_max, tol,
                          _normalize, _SQUARED_PHASES)


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
