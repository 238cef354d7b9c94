"""Pairwise-difference second-moment matrices and their population values.

Observations are consumed in consecutive pairs (2i-1, 2i) in stored order.
The difference-type matrix weights each covariate-difference outer product by
the squared label difference,

    M = (2/n) sum_i (y_2i - y_2i-1)^2 (x_2i - x_2i-1)(x_2i - x_2i-1)^T,

and the sum-type variant M' uses (y_2i + y_2i-1)^2 instead.  For standard
Gaussian covariates their expectations are rank-one-plus-identity:

    E[M]  =  4 phi b b^T + 4 (1 - mu0^2) I,
    E[M'] = -4 phi b b^T + 4 (1 + mu0^2) I,

so the signal direction b is the top eigenvector of E[M] when phi > 0 and of
E[M'] when phi < 0.  ``second_moment(data, kind)`` builds either from a
``Dataset``; ``expected_moment`` provides the exact population matrices as a
test oracle and for population-level studies.

Labels lie in {-1, +1}, so each pair's weight is 0 or 4, and both matrices
are built from the weighted pairs alone: M = (8/n) sum dx dx^T over the
pairs whose weight is 4.  The covariates of zero-weight pairs never enter M,
so they are not checked; a non-finite covariate of a weighted pair makes M
non-finite, which ``second_moment`` refuses (``check_matrix``).

Because M reads only the differences of weighted pairs, ``sample_moment``
can draw M, together with X^T y, in the law they have under
``generate_dataset`` without drawing the n-by-p covariates at all: it draws
the n index values and labels, and then O(p^2) normals in place of one
covariate difference per weighted pair.
"""

import math

import numpy as np

from .errors import _check_choice, check_matrix
from .links import DEFAULT_QUAD_ORDER, LinkModel, moments
from .synth import Dataset, GroundTruth, _as_rng, _labels, _paired_size

KIND_DIFFERENCE = "difference"
KIND_SUM = "sum"
# The kind rule, as a sign s: a pair carries weight when y_1 y_2 = -s, and
# E = 4 s phi b b^T + 4 (1 - s mu0^2) I.
_SIGNS = {KIND_DIFFERENCE: 1, KIND_SUM: -1}


def _sign(kind) -> int:
    """The sign s of a moment kind; ConfigError for anything else."""
    _check_choice(kind, "kind", _SIGNS)
    return _SIGNS[kind]


def second_moment(data: Dataset, kind: str = KIND_DIFFERENCE) -> np.ndarray:
    """M (kind "difference") or M' (kind "sum") from consecutive pairs in stored order."""
    s = _sign(kind)
    y = data.labels
    x = data.covariates
    n = data.n
    # rows of the first member of each weighted pair; dx.T @ dx is a symmetric rank-k update
    rows = 2 * np.flatnonzero(y[1::2] != s * y[0::2])
    dx = np.take(x, rows + 1, axis=0)
    dx -= np.take(x, rows, axis=0)
    m = (8.0 / n) * (dx.T @ dx)
    return check_matrix(m, "second_moment")


def second_moment_sum(data: Dataset) -> np.ndarray:
    """``second_moment(data, "sum")``: M', for links whose phi is negative."""
    return second_moment(data, KIND_SUM)


def _bartlett_factor(nu: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-trapezoidal L, p by min(nu, p), with L L^T ~ Wishart(nu, I_p).

    L is the transpose of the R factor of a nu-by-p standard Gaussian
    (Bartlett 1933): L_jj = sqrt(chi2(nu - j)) for j = 0, 1, ... and N(0, 1)
    below the diagonal.  For nu < p its last p - nu rows are all N(0, 1), and
    nu = 0 gives a p-by-0 factor.
    """
    c = min(nu, p)
    low = rng.standard_normal((p, c))
    np.copyto(low, 0.0, where=~np.tri(p, c, -1, dtype=bool))  # np.tril(low, -1), in place
    np.fill_diagonal(low, np.sqrt(rng.chisquare(nu - np.arange(c))))
    return low


def _gaussian_gram(a: np.ndarray, p: int, rng: np.random.Generator):
    """Draw (G^T G, G^T a) for a k-by-p standard Gaussian G, without G.

    Write a (k by r) as a = Q R, where Q is k by r' = min(k, r) with
    orthonormal columns whose span holds a's.  Then H = Q^T G is an r'-by-p
    standard Gaussian, G^T a = H^T R, and the part of G orthogonal to Q adds
    Wishart(k - r', I_p) to G^T G, independent of H.  R is sqrt(lam) V^T over
    the r' largest eigenpairs of the Gram matrix a^T a.  A zero eigenvalue,
    from k < r or from collinear columns, gives R a zero row, and Q takes any
    unit vector orthogonal to a for it, so no case needs its own branch.

    G^T G is built in the buffer of L L^T, with L the Bartlett factor, which
    is dropped before H^T H is added, so no third p-by-p array is held.
    """
    k, r = a.shape
    lam, vec = np.linalg.eigh(a.T @ a)
    rf = (np.sqrt(np.maximum(lam, 0.0))[:, None] * vec.T)[r - min(k, r):]
    h = rng.standard_normal((rf.shape[0], p))
    low = _bartlett_factor(k - rf.shape[0], p, rng)
    gtg = low @ low.T
    del low
    gtg += h.T @ h
    return gtg, h.T @ rf


def sample_moment(model: LinkModel, truth: GroundTruth, n: int, kind: str, rng):
    """Draw M (or M') of n observations and their X^T y, as a pair.

    The pair has the law it has when both are built from
    ``generate_dataset(model, truth, n, rng)``; only the draws differ.
    Write x = z b + x_perp, with z = <x, b> ~ N(0, 1) independent of
    x_perp ~ N(0, P) and P = I - b b^T.  Labels depend on z alone, so z and
    the labels are drawn for all n rows (odd n is trimmed as
    ``generate_dataset`` trims it).  Each of the k weighted pairs has
    dx = (z_2 - z_1) b + sqrt(2) P g, g ~ N(0, I_p), and M = (8/n) sum
    dx dx^T is formed in p-by-p algebra from G^T G and G^T dz.

    G itself is never drawn.  M and X^T y read it only through G^T G and
    G^T a, where a = [dz, y_1] under the difference kind (y_1: the first
    label of each weighted pair) and a = [dz] under the sum kind, and
    ``_gaussian_gram`` draws those two from O(p^2) normals.  So a draw takes
    n index values, n labels and O(p^2) normals, where drawing G took k p.

    X^T y is (sum y z) b plus one orthogonal term per pair.  A pair with
    opposite labels adds -y_1 dx_perp.  A pair with equal labels adds
    y_1 (x1_perp + x2_perp), which is N(0, 2P) and independent of its
    dx_perp.  So under the difference kind the weighted pairs add
    -sqrt(2) P G^T y_1 and the m equal-label pairs one N(0, 2m P) draw;
    under the sum kind the whole orthogonal term is one N(0, n P) draw.

    The O(n) pass runs without a per-element branch and holds two n-length
    float arrays: z, and f(z), whose buffer then holds the float labels
    (``synth._labels``, the rule ``draw_labels`` uses).  A pair is weighted
    when its two labels differ (difference kind) or agree (sum kind), and
    the weighted pairs are gathered by index, as in ``second_moment``,
    straight into the columns that ``_gaussian_gram`` reads.  The draws come
    in a fixed order: z, one uniform per row, then the Gram normals.  The
    tests pin every drawn value, bit for bit, to a reference that forms the
    labels with np.where and gathers the pairs with boolean masks.

    M is built in the buffer of G^T G, which ``_gaussian_gram`` returns and
    nothing reads after G^T G b, by the same floating-point operations, in
    the same order, as the reference's out-of-place formula.
    """
    s = _sign(kind)
    kept = _paired_size(n)
    rng = _as_rng(rng)
    b = truth.beta_star
    p = b.shape[0]
    z = rng.standard_normal(n)
    y = _labels(model, z, rng)[:kept]
    z = z[:kept]
    # the weighted pairs' g enters X^T y only when their labels differ (s = 1)
    tied = s > 0
    first, second = y[0::2], y[1::2]
    rows = np.flatnonzero(second != first if tied else second == first)
    rows *= 2
    # columns [dz, y_1] of the weighted pairs, gathered by rows; the sum kind
    # reads dz alone and its second row only holds z_1.  mode="clip" writes
    # straight into out (the rows are in range), where "raise" buffers a copy.
    cols = np.empty((2, rows.shape[0]))
    np.take(z, rows, out=cols[1], mode="clip")
    rows += 1
    dz = np.take(z, rows, out=cols[0], mode="clip")
    dz -= cols[1]
    if tied:
        rows -= 1
        np.take(y, rows, out=cols[1], mode="clip")
    gtg, gta = _gaussian_gram(cols[:1 + tied].T, p, rng)
    h = rng.standard_normal(p)
    # sum dx dx^T = 2 G^T G + b e^T + e b^T, with P G^T G P expanded about b
    w = gtg @ b
    gdz = gta[:, 0]
    e = math.sqrt(2.0) * (gdz - (b @ gdz) * b) - 2.0 * w + (0.5 * (dz @ dz) + b @ w) * b
    outer = np.outer(b, e)
    # M = (8/kept) (2 gtg + (outer + outer.T)) in gtg's buffer: w was its last reader
    gtg *= 2.0
    gtg += outer + outer.T
    gtg *= 8.0 / kept
    orth = math.sqrt(2.0 * (kept // 2 - tied * dz.shape[0])) * h
    if tied:
        orth -= math.sqrt(2.0) * gta[:, 1]
    xty = (y @ z) * b + (orth - (b @ orth) * b)
    return gtg, xty


def expected_moment(
    model: LinkModel,
    truth: GroundTruth,
    kind: str = KIND_DIFFERENCE,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Exact population matrix E[M] or E[M'] for the given model and truth."""
    s = _sign(kind)
    summ = moments(model, quad_order=quad_order)
    b = truth.beta_star
    return 4.0 * s * summ.phi * np.outer(b, b) + 4.0 * (1.0 - s * summ.mu0**2) * np.eye(b.shape[0])
