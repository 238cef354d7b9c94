"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: quadrature oracles use
scipy.integrate, the water-filling oracle finds its shift with a bracketing
root-finder instead of the breakpoint search, moment oracles recompute from
first principles, and the eigenvalue oracle samples a spiked Wishart law
directly.  The reference power loop and the reference moment are the
straightforward forms that the production code computes faster: two products
per power step, and a weighted sum over every pair.  The phased power loop
forms each power of M afresh from M and runs its phases as plain loops; it
shares only the package's normalization and sign rule, so the two agree bit
for bit.  The reference ADMM loop divides M by the penalty afresh on every
iteration.  The reference draws (links, labels, datasets and sampled
moments) are the first formulation of the package's draws, with
``np.where`` labels, boolean-mask gathers and out-of-place products; the
package must reproduce them bit for bit from the same generator state.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import wishart

from bitspectral import FlippedLogistic, OneBitCS, OneBitPR
from bitspectral.links import _ndtr
from bitspectral.sparse import fantope_project, soft_threshold
from bitspectral.spectral import _normalize, sign_normalize

TINY = np.finfo(float).tiny  # the smallest normal float


def split_domain_moment(f, k: int, cuts=()) -> float:
    """E[f(Z) Z^k] by adaptive quadrature split at 0 and any extra cut points.

    Cut points let discontinuous integrands be handled piece by piece at full
    accuracy.
    """

    def integrand(z):
        return f(z) * z**k * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    edges = [-np.inf] + sorted(set(cuts) | {0.0}) + [np.inf]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part, _ = quad(integrand, lo, hi, limit=200)
        total += part
    return total


def root_fantope_gamma(lam: np.ndarray) -> float:
    """Shift gamma with sum_i clip(lam_i - gamma, 0, 1) = 1, by Brent's method.

    The sum is continuous and non-increasing in gamma: it equals len(lam) >= 1
    at min(lam) - 1 and 0 at max(lam), so that interval brackets a root.
    """
    lam = np.asarray(lam, dtype=float)

    def excess(gamma):
        return float(np.sum(np.clip(lam - gamma, 0.0, 1.0))) - 1.0

    return brentq(excess, float(lam.min()) - 1.0, float(lam.max()),
                  xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def exact_fantope_projection(a: np.ndarray) -> np.ndarray:
    """Projection onto the Fantope: full eigenbasis, gamma by root-finding."""
    lam, vecs = np.linalg.eigh(a)
    gamma = root_fantope_gamma(lam)
    d = np.clip(lam - gamma, 0.0, 1.0)
    out = (vecs * d) @ vecs.T
    return 0.5 * (out + out.T)


def spiked_wishart_top_two(n: int, p: int, mu0: float, phi: float, draws: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """Mean top-two eigenvalues of M/4 for the difference estimator, by a spiked Wishart.

    Only pairs whose labels differ carry weight (4); their count is
    k ~ Binomial(n/2, (1 - mu0^2)/2).  The halved covariate difference of such
    a pair is modelled as N(0, I + s e1 e1^T) with spike s = phi / (1 - mu0^2),
    which matches E[M]/4 = phi b b^T + (1 - mu0^2) I.  Then
    M/4 = (4/n) W = (1 - mu0^2) W / E[k] with W ~ Wishart(k, I + s e1 e1^T).
    The directions orthogonal to b are exactly Gaussian; along b only the
    variance is matched.  Draws come from scipy.stats.wishart, never from the
    package's generator or estimator.
    """
    one_minus = 1.0 - mu0 * mu0
    scale = np.eye(p)
    scale[0, 0] += phi / one_minus
    ks, counts = np.unique(rng.binomial(n // 2, one_minus / 2.0, size=draws),
                           return_counts=True)
    w = np.concatenate([
        wishart.rvs(df=int(k), scale=scale, size=int(c), random_state=rng).reshape(-1, p, p)
        for k, c in zip(ks, counts)
    ])
    vals = np.linalg.eigvalsh(w) * (4.0 / n)
    return float(np.mean(vals[:, -1])), float(np.mean(vals[:, -2]))


def random_fantope_point(p: int, rng: np.random.Generator) -> np.ndarray:
    """Random feasible point: random frame, Dirichlet eigenvalues in [0,1]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    d = rng.dirichlet(np.ones(p))
    return (q * d) @ q.T


def reference_power_method(m: np.ndarray, b: np.ndarray, t_max: int, tol: float):
    """Power iteration with two matrix-vector products per step.

    Returns (beta_hat, iterations, rayleigh_trace, converged), with beta_hat's
    largest-magnitude coordinate made positive (ties: lowest index).  Raises
    ``FloatingPointError`` on an M b whose squared norm is below the smallest
    normal float, where M b / ||M b|| is not a unit vector or divides by 0.
    """
    trace = []
    converged = False
    iterations = 0
    for _ in range(t_max):
        v = m @ b
        if v @ v < TINY:
            raise FloatingPointError("M b has a squared norm below the smallest normal float")
        v = v / float(np.linalg.norm(v))
        iterations += 1
        trace.append(float(v @ (m @ v)))
        diff = min(float(np.linalg.norm(v - b)), float(np.linalg.norm(v + b)))
        b = v
        if diff <= tol:
            converged = True
            break
    if b[int(np.argmax(np.abs(b)))] < 0.0:
        b = -b
    return b, iterations, np.asarray(trace), converged


def reference_phased_power_method(m: np.ndarray, b: np.ndarray, t_max: int, tol: float,
                                  strides: tuple):
    """Power iteration in phases, each power of M formed afresh from M.

    For each stride q of ``strides`` in turn, M^q is log2(q) squarings of M,
    each factor first scaled to unit Frobenius norm.  The phase then takes as
    many steps b <- M^q b / ||M^q b|| as the multiplies left allow.  Returns
    (beta_hat, iterations, rayleigh_trace, converged) as
    ``reference_power_method`` does, with iterations counting multiplies of M.
    """
    trace = []
    converged = False
    iterations = 0
    left = t_max
    for q in strides:
        if left < q:
            continue
        a = m
        for _ in range(int(math.log2(q))):
            a = _normalize(a.ravel()).reshape(a.shape)
            a = a @ a
        while left >= q and not converged:
            v = _normalize(a @ b)
            left -= q
            iterations += q
            trace.append(float(v @ (m @ v)))
            minus, plus = v - b, v + b
            converged = min(math.sqrt(minus @ minus), math.sqrt(plus @ plus)) <= tol
            b = v
    return sign_normalize(b), iterations, np.asarray(trace), converged


def reference_fantope_admm(m: np.ndarray, cfg, ratio: float, window: int):
    """``fantope_admm`` without the settle rule, out of place, with M/tau taken from M afresh.

    Residual balancing doubles tau when the primal residual exceeds ``ratio``
    times the dual one and halves it in the opposite case, during the first
    ``window`` iterations.  The projection and the threshold are the package's.
    Returns (Pi, tau, iterations, penalty updates).
    """
    p = m.shape[0]
    tau = cfg.admm_penalty
    z = u = np.zeros((p, p))
    updates = 0
    for iterations in range(1, cfg.admm_max_iter + 1):
        pi = fantope_project(z - u + m / tau)
        z_prev, z = z, soft_threshold(pi + u, cfg.rho / tau)
        u = pi + u - z
        primal = float(np.linalg.norm(pi - z))
        dual = tau * float(np.linalg.norm(z - z_prev))
        if primal < cfg.admm_tol * p and dual < cfg.admm_tol * p:
            break
        if iterations <= window and (primal > ratio * dual or dual > ratio * primal):
            scale = 2.0 if primal > ratio * dual else 0.5
            tau *= scale
            u = u / scale
            updates += 1
    return pi, tau, iterations, updates


def reference_moment(labels: np.ndarray, covariates: np.ndarray, kind: str) -> np.ndarray:
    """(2/n) sum_i w_i dx_i dx_i^T over every consecutive pair, w_i = (y_2i -+ y_2i-1)^2."""
    y = np.asarray(labels)
    x = np.asarray(covariates, dtype=float)
    dy = y[1::2] - y[0::2] if kind == "difference" else y[1::2] + y[0::2]
    w = (dy * dy).astype(np.float64)
    dx = x[1::2] - x[0::2]
    return (2.0 / y.shape[0]) * ((dx * w[:, None]).T @ dx)


def reference_link(model, z: np.ndarray) -> np.ndarray:
    """f(z) on a float array, each family's formula written out with np.where for sign."""
    if isinstance(model, FlippedLogistic):
        return (1.0 - 2.0 * model.pe) * np.tanh(0.5 * (z + model.zeta))
    if isinstance(model, OneBitCS) and model.sigma == 0.0:
        return np.where(z >= 0.0, 1.0, -1.0)
    if isinstance(model, OneBitCS):
        return 2.0 * _ndtr(z / model.sigma) - 1.0
    assert isinstance(model, OneBitPR)
    return np.where(np.abs(z) - model.theta >= 0.0, 1.0, -1.0)


def reference_labels(model, index_values, rng: np.random.Generator) -> np.ndarray:
    """y = +1 iff u < (f(z) + 1) / 2, by np.where and a cast to int64."""
    z = np.asarray(index_values, dtype=float)
    p_plus = 0.5 * (reference_link(model, z) + 1.0)
    u = rng.random(z.shape[0])
    return np.where(u < p_plus, 1, -1).astype(np.int64)


def reference_dataset(model, beta: np.ndarray, n: int, rng: np.random.Generator):
    """(labels, covariates) of n rows, trimmed to an even count."""
    x = rng.standard_normal((n, beta.shape[0]))
    y = reference_labels(model, x @ beta, rng)
    kept = n - n % 2
    return y[:kept], x[:kept]


def reference_bartlett_factor(nu: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """The Bartlett factor, its upper part zeroed by ``np.tril``'s copy."""
    c = min(nu, p)
    low = np.tril(rng.standard_normal((p, c)), -1)
    np.fill_diagonal(low, np.sqrt(rng.chisquare(nu - np.arange(c))))
    return low


def reference_gaussian_gram(a: np.ndarray, p: int, rng: np.random.Generator):
    """(G^T G, G^T a) as ``_gaussian_gram`` draws them, each product formed out of place."""
    k, r = a.shape
    lam, vec = np.linalg.eigh(a.T @ a)
    rf = (np.sqrt(np.maximum(lam, 0.0))[:, None] * vec.T)[r - min(k, r):]
    h = rng.standard_normal((rf.shape[0], p))
    low = reference_bartlett_factor(k - rf.shape[0], p, rng)
    return h.T @ h + low @ low.T, h.T @ rf


def reference_sample_moment(model, beta: np.ndarray, n: int, kind: str,
                            rng: np.random.Generator):
    """(M, X^T y) drawn as ``sample_moment`` draws them, with boolean-mask gathers."""
    s = 1 if kind == "difference" else -1
    kept = n - n % 2
    p = beta.shape[0]
    z = rng.standard_normal(n)
    y = reference_labels(model, z, rng)[:kept].astype(float)
    z = z[:kept]
    weighted = y[1::2] != s * y[0::2]
    dz = (z[1::2] - z[0::2])[weighted]
    tied = s > 0
    cols = (dz, y[0::2][weighted]) if tied else (dz,)
    gtg, gta = reference_gaussian_gram(np.stack(cols, axis=1), p, rng)
    h = rng.standard_normal(p)
    w = gtg @ beta
    gdz = gta[:, 0]
    e = math.sqrt(2.0) * (gdz - (beta @ gdz) * beta) - 2.0 * w + (0.5 * (dz @ dz) + beta @ w) * beta
    outer = np.outer(beta, e)
    m = (8.0 / kept) * (2.0 * gtg + (outer + outer.T))
    orth = math.sqrt(2.0 * (kept // 2 - tied * dz.shape[0])) * h
    if tied:
        orth -= math.sqrt(2.0) * gta[:, 1]
    xty = (y @ z) * beta + (orth - (beta @ orth) * beta)
    return m, xty
