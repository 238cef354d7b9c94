"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: quadrature oracles use
scipy.integrate, the water-filling oracle finds its shift with a bracketing
root-finder instead of the breakpoint search, moment oracles recompute from
first principles, and the eigenvalue oracle samples a spiked Wishart law
directly.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import wishart


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
