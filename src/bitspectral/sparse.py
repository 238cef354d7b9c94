"""High-dimensional recovery: Fantope-relaxation initializer + truncated power method.

The pipeline solves, over the Fantope {0 <= Pi <= I, Tr Pi = 1},

    minimize  -<M, Pi> + rho * ||Pi||_1,1

by ADMM to obtain an initializer whose leading eigenvector is close enough to
the signal direction, then refines it with power iterations interleaved with
hard truncation to the top-s_hat coordinates.  ADMM that stops on its
iteration cap is demoted to ``converged=False`` but still used: the
initializer only has to land in the attraction basin of the truncated
iteration.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .estimator import KIND_DIFFERENCE, KIND_SUM, second_moment, second_moment_sum
from .spectral import (
    RecoveryReport, _as_matrix, _check_stop, _normalize, _power_iterate, top_two_eigs,
)
from .synth import Dataset


@dataclass(frozen=True)
class SparseConfig:
    """Tuning for the sparse pipeline.

    ``rho`` is the entrywise l1 regularization weight, ``s_hat`` the truncation
    sparsity, ``t_max`` and ``tol`` the truncated-power cap and stop tolerance
    (the rule of ``power_method``).  ADMM starts at penalty ``admm_penalty``,
    adapts it by residual balancing (see ``fantope_admm``), and stops once both
    residuals fall below ``admm_tol * p`` or at ``admm_max_iter``.
    """

    rho: float
    s_hat: int
    t_max: int = 500
    tol: float = 1e-10
    admm_penalty: float = 1.0
    admm_tol: float = 1e-6
    admm_max_iter: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ConfigError(f"rho must be >= 0, got {self.rho}")
        if self.s_hat < 1:
            raise ConfigError(f"s_hat must be >= 1, got {self.s_hat}")
        _check_stop(self.t_max, self.tol)
        if not (math.isfinite(self.admm_penalty) and self.admm_penalty > 0.0):
            raise ConfigError(f"admm_penalty must be finite and > 0, got {self.admm_penalty}")
        if not (math.isfinite(self.admm_tol) and self.admm_tol > 0.0):
            raise ConfigError(f"admm_tol must be finite and > 0, got {self.admm_tol}")
        if self.admm_max_iter < 1:
            raise ConfigError(f"admm_max_iter must be >= 1, got {self.admm_max_iter}")


@dataclass(frozen=True)
class FantopeSolution:
    """ADMM output: feasible iterate Pi plus convergence diagnostics."""

    Pi: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    penalty: float  # tau at the last iteration
    penalty_updates: int  # how often residual balancing changed tau


def soft_threshold(a, t: float):
    """Entrywise sign(a) * max(|a| - t, 0); the l1 proximal map."""
    if t < 0.0:
        raise ConfigError(f"threshold must be >= 0, got {t}")
    a = np.asarray(a, dtype=float)
    return a - np.clip(a, -t, t)


def fantope_project(a: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {0 <= Pi <= I, Tr Pi = 1}.

    Eigenvalues are shifted by a scalar gamma and clipped to [0, 1] so the
    clipped values sum to one; the eigenvectors are untouched.  gamma is exact:
    gamma >= lambda_max - 1, so only eigenvalues above lambda_max - 1 can carry
    mass, and on that range the upper clip is inactive.  The trace equation is
    then a projection onto the simplex, solved in closed form at its
    breakpoints.  Pi is rebuilt from the k eigenvectors with nonzero weight.
    """
    a = np.asarray(a, dtype=float)
    fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        raise NumericalError("fantope_project requires a finite matrix")
    if float(np.linalg.norm(a - a.T)) > 1e-8 * max(fro, 1e-300):
        raise ConfigError("fantope_project requires a symmetric matrix")
    lam, vecs = np.linalg.eigh(a)
    # top eigenvalues in descending order, shifted by lambda_max into (-1, 0]
    cut = int(np.searchsorted(lam, lam[-1] - 1.0, side="right"))
    top = lam[cut:][::-1] - lam[-1]
    shift = (np.cumsum(top) - 1.0) / np.arange(1, top.size + 1)
    k = int(np.flatnonzero(top > shift)[-1]) + 1
    root = np.sqrt(np.clip(top[k - 1::-1] - shift[k - 1], 0.0, 1.0))
    w = vecs[:, -k:] * root
    return w @ w.T  # A @ A.T is computed as a symmetric rank-k update


# Residual balancing (Boyd et al. 2011, sec. 3.4.1): the penalty doubles when
# the primal residual exceeds BALANCE_RATIO times the dual one and halves in
# the opposite case.  Adaptation stops after BALANCE_ITERS iterations, so the
# fixed-penalty convergence guarantee covers the rest of the run.
BALANCE_RATIO = 10.0
BALANCE_ITERS = 1000


def fantope_admm(mtx, cfg: SparseConfig) -> FantopeSolution:
    """Solve the l1-penalized Fantope program by ADMM with splitting Pi = Z.

    Scaled-dual iteration with penalty tau, starting at ``cfg.admm_penalty``:
    the Pi-update projects Z - U + M/tau onto the Fantope, the Z-update
    soft-thresholds Pi + U at rho/tau, and U accumulates Pi - Z.  During the
    first ``BALANCE_ITERS`` iterations tau is doubled or halved to keep the
    primal and dual residuals within ``BALANCE_RATIO`` of each other, and U is
    rescaled by tau_old/tau_new.  Non-convergence at the iteration cap returns
    the last iterate with ``converged=False``.
    """
    m = _as_matrix(mtx)
    p = m.shape[0]
    tau = cfg.admm_penalty
    threshold = cfg.admm_tol * p
    z = np.zeros((p, p))
    u = np.zeros((p, p))
    pi = np.zeros((p, p))
    m_scaled = m / tau
    t = cfg.rho / tau
    primal = dual = math.inf
    iterations = updates = 0
    for iterations in range(1, cfg.admm_max_iter + 1):
        pi = fantope_project(z - u + m_scaled)
        z_prev = z
        w = pi + u
        z = soft_threshold(w, t)
        u = w - z
        primal = float(np.linalg.norm(pi - z))
        dual = tau * float(np.linalg.norm(z - z_prev))
        if primal < threshold and dual < threshold:
            return FantopeSolution(pi, iterations, primal, dual, True, tau, updates)
        if iterations > BALANCE_ITERS:
            continue
        if primal > BALANCE_RATIO * dual:
            scale = 2.0
        elif dual > BALANCE_RATIO * primal:
            scale = 0.5
        else:
            continue
        tau *= scale
        u /= scale
        m_scaled = m / tau
        t = cfg.rho / tau
        updates += 1
    return FantopeSolution(pi, iterations, primal, dual, False, tau, updates)


def truncate(v: np.ndarray, s_hat: int) -> np.ndarray:
    """Keep the s_hat largest-|.| coordinates (ties: lower index) and renormalize."""
    v = np.asarray(v, dtype=float)
    if not 1 <= s_hat <= v.shape[0]:
        raise ConfigError(f"s_hat must satisfy 1 <= s_hat <= p, got {s_hat}")
    keep = np.argsort(-np.abs(v), kind="stable")[:s_hat]
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
    return _power_iterate(mtx, beta0, cfg.t_max, cfg.tol, lambda mb: truncate(mb, cfg.s_hat))


def sparse_recover(
    data: Dataset, cfg: SparseConfig, kind: str = KIND_DIFFERENCE
) -> RecoveryReport:
    """Full sparse pipeline: second moment, ADMM initializer, truncated power.

    The initializer is the leading eigenvector of the ADMM solution, truncated
    to s_hat and renormalized.  The report's ``stages`` dict carries the ADMM
    residuals and the eigengap of the relaxation solution; ``converged`` is
    the conjunction of the ADMM and power-stage flags.
    """
    if cfg.s_hat > data.p:
        raise ConfigError(f"s_hat={cfg.s_hat} exceeds dimension p={data.p}")
    if kind == KIND_DIFFERENCE:
        mtx = second_moment(data)
    elif kind == KIND_SUM:
        mtx = second_moment_sum(data)
    else:
        raise ConfigError(f"kind must be '{KIND_DIFFERENCE}' or '{KIND_SUM}'")
    fsol = fantope_admm(mtx, cfg)
    lam1, lam2, v1 = top_two_eigs(fsol.Pi)
    beta0 = truncate(v1, cfg.s_hat)
    report = truncated_power_method(mtx, beta0, cfg)
    stages = {
        "admm_iterations": fsol.iterations,
        "admm_primal_residual": fsol.primal_residual,
        "admm_dual_residual": fsol.dual_residual,
        "admm_converged": fsol.converged,
        "admm_final_penalty": fsol.penalty,
        "admm_penalty_updates": fsol.penalty_updates,
        "init_eigengap": lam1 - lam2,
    }
    return replace(report, converged=bool(report.converged and fsol.converged), stages=stages)
