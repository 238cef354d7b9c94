"""One-bit link models and their Gaussian moment functionals.

A link model describes the conditional law of a binary response Y given the
linear index z = <x, beta>:  P(Y = 1 | z) = (f(z) + 1) / 2, with f mapping the
reals into [-1, 1].  Three concrete families are provided:

* ``FlippedLogistic`` -- logistic response with intercept ``zeta`` whose labels
  are flipped with probability ``pe``; f(z) = (1 - 2 pe) * tanh((z + zeta) / 2).
* ``OneBitCS`` -- sign of the index plus Gaussian noise of standard deviation
  ``sigma``; f(z) = 2 Phi(z / sigma) - 1, reducing to sign(z) at sigma = 0.
* ``OneBitPR`` -- sign of |index| minus a threshold ``theta``;
  f(z) = sign(|z| - theta).  This link is even, so the direction is only
  identifiable up to sign.

A family is one frozen class with two methods: ``f(z)``, the link on an array,
and ``_moments(quad_order)``, which returns ``(mu0, mu1, mu2, method)``, and
one class attribute, ``even``: True where f(-z) = f(z), so that a run reports
its error up to sign.  ``link_eval`` and ``moments`` only call the methods.  A
new family is that class (named in ``LinkModel``) and one ``harness._MODELS``
row, whose ``params`` name the ``RunConfig`` fields the link reads; those
fields must exist.

The moment functionals mu_k = E[f(Z) Z^k] for standard normal Z (k = 0, 1, 2)
determine the eigengap statistic

    phi = mu1^2 - mu0 * mu2 + mu0^2,

which is the spectral gap separating the signal direction in the
pairwise-difference second moment (see ``bitspectral.estimator``).  Its sign
selects between the difference-type and sum-type estimators.

Everything here is a pure function of its arguments; the sign convention
sign(0) = +1 is fixed throughout for determinism.
"""

import functools
import math
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .errors import ConfigError, _check_array, _check_int, _check_real

_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

DEFAULT_QUAD_ORDER = 64


@dataclass(frozen=True)
class FlippedLogistic:
    """Logistic link with intercept ``zeta`` and label-flip probability ``pe``."""

    even = False
    zeta: float = 0.0
    pe: float = 0.0

    def __post_init__(self):
        _check_real(self.zeta, "zeta")
        _check_real(self.pe, "pe", 0, 0.5)

    def f(self, z):
        # (1 - 2 pe) tanh((z + zeta) / 2), each step written into one new
        # array; out[()] turns a 0-d result into a scalar, as plain arithmetic does
        out = np.asarray(z + self.zeta)
        out *= 0.5
        np.tanh(out, out=out)
        out *= 1.0 - 2.0 * self.pe
        return out[()]

    def _moments(self, quad_order: int):
        # E[g(Z)] = pi^{-1/2} * sum_i w_i g(sqrt(2) x_i) with Hermite nodes x_i.
        nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
        z = _SQRT2 * nodes
        fz = self.f(z)
        inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
        mu0 = float(np.sum(weights * fz)) * inv_sqrt_pi
        mu1 = float(np.sum(weights * fz * z)) * inv_sqrt_pi
        mu2 = float(np.sum(weights * fz * z * z)) * inv_sqrt_pi
        return mu0, mu1, mu2, "quadrature"


@dataclass(frozen=True)
class OneBitCS:
    """Noisy sign link: sign of the index plus N(0, sigma^2) noise."""

    even = False
    sigma: float = 0.0

    def __post_init__(self):
        _check_real(self.sigma, "sigma", 0)

    def f(self, z):
        if self.sigma == 0.0:
            return _sign_pos(z)
        out = _ndtr(z, self.sigma)  # 2 Phi(z / sigma) - 1, in Phi's own buffer
        out *= 2.0
        out -= 1.0
        return out[()]

    def _moments(self, quad_order: int):
        # Writing f(z) = 2 Phi(z/sigma) - 1 and integrating by parts against
        # the Gaussian weight gives mu1 = E[f'(Z)] = (2/sigma) E[pdf(Z/sigma)];
        # the Gaussian convolution integral evaluates to
        # sqrt(2/pi) / sqrt(1 + sigma^2), valid down to sigma = 0 (E|Z|).
        return 0.0, _SQRT_2_OVER_PI / math.sqrt(1.0 + self.sigma**2), 0.0, "closed_form"


@dataclass(frozen=True)
class OneBitPR:
    """Thresholded-magnitude link: sign(|z| - theta) with theta > 0."""

    even = True
    theta: float = 1.0

    def __post_init__(self):
        _check_real(self.theta, "theta", 0, above=True)

    def f(self, z):
        return _sign_pos(np.abs(z) - self.theta)

    def _moments(self, quad_order: int):
        p1 = 2.0 * normal_cdf(-self.theta)  # P(|Z| >= theta)
        mu0 = 2.0 * p1 - 1.0
        # E[Z^2 1{|Z|>=theta}] = 2 theta pdf(theta) + p1, by integration by parts
        mu2 = mu0 + 4.0 * self.theta * float(normal_pdf(self.theta))
        return mu0, 0.0, mu2, "closed_form"


LinkModel = Union[FlippedLogistic, OneBitCS, OneBitPR]


def _check_model(model) -> None:
    """ConfigError unless ``model`` is an instance of one of the three link families."""
    if not isinstance(model, LinkModel):
        names = ", ".join(family.__name__ for family in get_args(LinkModel))
        raise ConfigError(f"model must be one of the link families {names}, got {model!r}")


@dataclass(frozen=True)
class MomentSummary:
    """Gaussian moment functionals of a link and the derived eigengap statistic.

    ``phi`` is always recomputed as mu1^2 - mu0*mu2 + mu0^2 from the stored
    moments.  ``method`` records whether the moments came from a closed form or
    from Gauss-Hermite quadrature.
    """

    mu0: float
    mu1: float
    mu2: float
    phi: float
    method: str


@dataclass(frozen=True)
class TheoryDiagnostics:
    """Convergence-theory constants for the positive-eigengap regime.

    ``gamma`` is the geometric contraction factor of the dense power method and
    ``xi`` the admissible relative perturbation level; ``kappa`` is the sparse
    iteration's contraction factor; ``n_min`` is the initialization sample-size
    scale, evaluated as printed in its source with unit constant, and reported
    as a relative guide rather than a hard gate; ``theta_m`` is the median of
    |Z|, the threshold where the thresholded-magnitude link changes eigengap
    sign.
    """

    gamma: float
    xi: float
    kappa: float
    n_min: float
    theta_m: float


def _sign_pos(z):
    # sign with sign(0) := +1 (NaN: -1), as 2 [z >= 0] - 1 without a branch per element
    out = np.asarray(np.asarray(z, dtype=float) >= 0.0, dtype=float)
    out *= 2.0
    out -= 1.0
    return out


# Rational approximations of erf on [0, 1] (T/U) and of exp(x^2) erfc(x) on
# [1, 8) (P/Q) and [8, inf) (R/S), from Cephes ndtr.c (S. L. Moshier, 1989,
# Methods and Programs for Mathematical Functions).  Q, S and U are monic;
# their leading 1 is implicit.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc(x) is taken as 0 once x^2 exceeds this


def _polevl(x, coef, monic=False):
    """Horner's rule in Cephes order, in one new array; ``monic`` prepends an implicit
    leading 1."""
    if monic:
        out = x + coef[0]
    else:
        out = x * coef[0]
        out += coef[1]
    for c in coef[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _ndtr(a, sigma=1.0):
    """Standard normal CDF of a / sigma, elementwise: a numpy port of Cephes ``ndtr``.

    With x = a/(sigma sqrt(2)), Phi = (1 + erf(x))/2 for |x| < 1 and erfc(|x|)/2,
    reflected for x > 0, beyond.  Every branch is evaluated on the whole array
    and the right one selected, which is cheaper than gathering the branches.
    Each step writes into an array it owns, so at most six n-length arrays are
    live at once.  Phi(+inf) = 1, Phi(-inf) = 0 and NaN stays NaN.  A 0-d
    result is a 0-d array.
    """
    x = np.array(a, dtype=float, ndmin=1)  # a copy, so every step below may write in place
    with np.errstate(over="ignore"):  # a subnormal sigma sends a / sigma to +-inf, Phi to 0 or 1
        x /= sigma
    x *= _SQRT1_2
    z = np.abs(x)
    np.minimum(z, 64.0, out=z)  # keeps z * z finite; NaN passes through
    w = z * z
    erf = _polevl(w, _ERF_T)
    erf *= z
    erf /= _polevl(w, _ERF_U, monic=True)
    # erfc(z)/2 = exp(-w) p/q / 2, with the far-tail p/q where z >= 8
    half = np.negative(w)
    np.exp(half, out=half)
    underflow = w > _MAXLOG
    del w
    far = z >= 8.0
    tail = far.any()
    p = _polevl(z, _ERFC_P)
    if tail:
        np.copyto(p, _polevl(z, _ERFC_R), where=far)
    half *= p
    del p  # before q, so the two are never live together
    q = _polevl(z, _ERFC_Q, monic=True)
    if tail:
        np.copyto(q, _polevl(z, _ERFC_S, monic=True), where=far)
    half /= q
    half *= 0.5
    np.copyto(half, 0.0, where=underflow)
    np.subtract(1.0, half, out=half, where=x > 0.0)
    np.copysign(erf, x, out=erf)
    erf *= 0.5
    erf += 0.5
    np.copyto(half, erf, where=z < 1.0)
    return half.reshape(np.shape(a))


def normal_cdf(x):
    """Standard normal CDF; a float for a scalar, an array for an array."""
    out = _ndtr(x)
    return float(out) if out.ndim == 0 else out


def normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def link_eval(model: LinkModel, z):
    """Evaluate the link f(z) of ``model``; accepts scalars or arrays.

    Output is always in [-1, 1].  Total over the reals; a ``z`` that is not real,
    or a ``model`` that is not one of the three families, raises ``ConfigError``.
    """
    _check_model(model)
    scalar = np.isscalar(z)
    out = model.f(_check_array(z, "link_eval's z"))
    return float(out) if scalar else out


def moments(model: LinkModel, quad_order: int = DEFAULT_QUAD_ORDER) -> MomentSummary:
    """Compute (mu0, mu1, mu2, phi) for a link model.

    Smooth links (flipped logistic) integrate by Gauss-Hermite quadrature of
    the requested order.  Sign-type links always take closed forms in the
    normal CDF/PDF; quadrature on a discontinuous integrand is not permitted.
    Each family computes its own moments in ``_moments``.

    Results are memoized on the (frozen, hashable) model and the order, so a
    grid that asks once per trial pays for the quadrature once.  A ``model``
    that is not one of the three families raises ``ConfigError`` before the
    cache is read.  The cache is typed, so an order of another type (16.0
    after 16) is checked, not found.
    """
    _check_model(model)
    return _cached_moments(model, quad_order)


@functools.lru_cache(maxsize=256, typed=True)
def _cached_moments(model: LinkModel, quad_order: int) -> MomentSummary:
    _check_int(quad_order, "quadrature order", 8)
    mu0, mu1, mu2, method = model._moments(quad_order)
    phi = mu1 * mu1 - mu0 * mu2 + mu0 * mu0
    return MomentSummary(mu0=mu0, mu1=mu1, mu2=mu2, phi=phi, method=method)


def theta_median() -> float:
    """Median of |Z| for standard normal Z: the root of P(|Z| >= t) = 1/2.

    That root is the 0.75 normal quantile, Phi^{-1}(3/4), given here as the
    double nearest to it.
    """
    return 0.6744897501960817


def theory_diagnostics(
    model: LinkModel,
    p: int,
    s: int | None = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> TheoryDiagnostics:
    """Evaluate the theory constants gamma, xi, kappa and the n_min scale.

    Requires a positive eigengap statistic; for phi <= 0 the difference-type
    estimator has no top-eigenvector signal and a ConfigError pointing at the
    sum-type estimator is raised.  ``s`` is needed for ``n_min`` (NaN when
    omitted).  The source leaves ``n_min``'s absolute constant unspecified;
    it is taken as 1 here, so the value is a relative scale, not a gate.
    """
    _check_int(p, "p", 1)
    if s is not None:
        _check_int(s, "s", 1, p)
    summ = moments(model, quad_order=quad_order)
    phi, mu0 = summ.phi, summ.mu0
    if phi <= 0.0:
        raise ConfigError(
            f"eigengap statistic is not positive (phi={phi:.6g}); the "
            "difference-type second moment has no signal gap -- use the "
            "sum-type estimator (kind='sum') instead"
        )
    one_minus = 1.0 - mu0 * mu0
    gamma = ((one_minus / (phi + one_minus)) + 1.0) / 2.0
    xi = (gamma * phi + (gamma - 1.0) * one_minus) / ((1.0 + gamma) * (phi + one_minus))
    kappa = (4.0 * one_minus + phi) / (4.0 * one_minus + 3.0 * phi)
    n_min = math.nan if s is None else (
        s * s * math.log(p) * phi * phi
        * min(kappa * (1.0 - math.sqrt(kappa)) / 2.0, kappa / 8.0) / (one_minus + phi) ** 2)
    return TheoryDiagnostics(
        gamma=gamma, xi=xi, kappa=kappa, n_min=n_min, theta_m=theta_median()
    )
