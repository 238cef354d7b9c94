"""Synthetic ground truth and datasets with seeded determinism.

Covariates are i.i.d. standard Gaussian rows; labels are drawn from the link
model via one uniform variate per observation, so deterministic links reduce
exactly to their sign rule.  All sampling takes an explicit generator (or a
seed), and the same generator state always reproduces the same dataset bit for
bit.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, _check_array, _check_int
from .links import LinkModel, _check_model

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundTruth:
    """Unit-norm target direction and its support set; ConfigError unless a real 1-D unit
    vector.  ``beta_star`` is stored as a float64 array."""

    beta_star: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta_star", _check_array(self.beta_star, "beta_star", ndim=1))
        norm = float(np.linalg.norm(self.beta_star))
        if not abs(norm - 1.0) <= 1e-12:  # written so that a NaN norm fails too
            raise ConfigError(f"beta_star must be unit norm, got ||.|| = {norm!r}")


@dataclass(frozen=True)
class Dataset:
    """Paired observations: 1-D labels in {-1, +1} and an n-by-p covariate matrix."""

    labels: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):  # labels and covariates are stored as arrays, covariates as float
        object.__setattr__(self, "labels", np.asarray(self.labels))
        object.__setattr__(self, "covariates", _check_array(self.covariates, "covariates"))
        if self.labels.ndim != 1 or self.covariates.ndim != 2:
            raise ConfigError(f"dataset needs 1-D labels and 2-D covariates, got shapes "
                              f"{self.labels.shape} and {self.covariates.shape}")
        n = self.labels.shape[0]
        if n < 2 or n % 2 != 0:
            raise ConfigError(f"dataset needs an even number n >= 2 of rows, got {n}")
        if self.covariates.shape[0] != n:
            raise ConfigError("labels and covariates disagree on n")
        if not ((self.labels == 1) | (self.labels == -1)).all():
            raise ConfigError("labels must lie in {-1, +1}")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if np.isscalar(seed):  # one value: an integer >= 0, as numpy takes it, but not a bool
        _check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def _unit_gaussian(k: int, rng: np.random.Generator) -> np.ndarray:
    """A direction drawn uniformly from the unit sphere in R^k."""
    v = rng.standard_normal(k)
    while (norm := np.linalg.norm(v)) == 0.0:  # probability-zero guard
        v = rng.standard_normal(k)
    return v / norm


def sample_beta_dense(p: int, seed) -> GroundTruth:
    """Draw a direction uniformly from the unit sphere in R^p."""
    _check_int(p, "p", 1)
    return GroundTruth(beta_star=_unit_gaussian(p, _as_rng(seed)), support=np.arange(p))


def sample_beta_sparse(p: int, s: int, seed) -> GroundTruth:
    """Draw an s-sparse unit direction: uniform support, uniform on its sphere."""
    _check_int(p, "p", 1)
    _check_int(s, "s", 1, p)
    rng = _as_rng(seed)
    support = np.sort(rng.choice(p, size=s, replace=False))
    beta = np.zeros(p)
    beta[support] = _unit_gaussian(s, rng)
    return GroundTruth(beta_star=beta, support=support)


_BLOCK = 8192  # uniforms per draw into the labels' one scratch buffer (64 KiB)


def _labels(model: LinkModel, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Float labels in {-1, +1}: +1 iff u < (f(z) + 1) / 2, one uniform u per value in order.

    ``z`` is a 1-d float array.  The labels are written into the buffer of
    f(z), with no per-element branch.  The uniforms are drawn ``_BLOCK`` at a
    time into one reused buffer, which gives the values, and leaves the
    generator in the state, of one draw of them all.  A ``model`` that is not
    one of the three link families raises ``ConfigError`` before any uniform
    is drawn.
    """
    _check_model(model)
    y = model.f(z)  # a new array, never z itself, so it is safe to update in place
    y += 1.0
    y *= 0.5
    u = np.empty(min(_BLOCK, y.shape[0]))
    plus = np.empty(u.shape[0], dtype=bool)
    for start in range(0, y.shape[0], _BLOCK):
        part = y[start:start + _BLOCK]
        k = part.shape[0]
        np.less(rng.random(out=u[:k]), part, out=plus[:k])
        np.multiply(plus[:k], 2.0, out=part)
        part -= 1.0
    return y


def draw_labels(model: LinkModel, index_values, rng) -> np.ndarray:
    """Draw {-1, +1} labels for given linear-index values.

    Uses one uniform variate per value: y = +1 iff u < (f(z) + 1) / 2.  Since
    u lives in [0, 1), links with f(z) = +-1 reduce exactly to the sign rule,
    and +-inf take the labels of f's limits there.  Index values that are not
    a real 1-D array raise ``ConfigError`` and a NaN among them ``NumericalError``,
    both before any uniform is drawn.
    """
    rng = _as_rng(rng)
    z = _check_array(index_values, "index values", ndim=1)
    if np.isnan(z).any():
        raise NumericalError("index values must not be NaN")
    return _labels(model, z, rng).astype(np.int64)


def _paired_size(n: int) -> int:
    """The number of rows kept from n draws: n, or n - 1 when n is odd (logged).

    An n that is not an integer >= 2 makes no pair and raises ``ConfigError``.
    """
    _check_int(n, "n", 2)
    if n % 2 != 0:
        log.info("odd n=%d: trimming the last observation to n=%d", n, n - 1)
    return n - n % 2


def generate_dataset(model: LinkModel, truth: GroundTruth, n: int, seed) -> Dataset:
    """Generate n observations from the model at the given ground truth.

    Covariate rows are i.i.d. N(0, I_p).  Odd n is trimmed by dropping the
    last observation (logged), so the stored dataset always pairs up cleanly.
    """
    kept = _paired_size(n)
    rng = _as_rng(seed)
    p = truth.beta_star.shape[0]
    x = rng.standard_normal((n, p))
    y = draw_labels(model, x @ truth.beta_star, rng)
    return Dataset(labels=y[:kept], covariates=x[:kept])
