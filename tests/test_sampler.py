"""``sample_moment``: the law of (M, X^T y) drawn without the n-by-p covariates.

Each distribution test compares means over R independent draws and allows
Z_BOUND = 5 standard errors per compared entry.  The error is estimated from
the draws; for a difference of two sample means it is the root of the sum of
the two squared errors.  The bound was fixed before any of these tests ran.
A 5-sigma excursion has two-sided probability 5.7e-7, so the about 2,400
distinct entries compared in this file raise a false alarm with probability
below 1.4e-3 at any seed.

The law tests draw under a dense truth (``sample_beta_dense``) and under an
s-sparse one (``sample_beta_sparse``, S of P coordinates nonzero), the truth
every sparse trial draws from.
"""

import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitspectral import (
    ConfigError,
    FlippedLogistic,
    OneBitCS,
    OneBitPR,
    draw_labels,
    expected_moment,
    generate_dataset,
    sample_beta_dense,
    sample_beta_sparse,
    sample_moment,
    second_moment,
)
from bitspectral.estimator import _bartlett_factor, _gaussian_gram

from _oracles import (
    reference_bartlett_factor,
    reference_dataset,
    reference_gaussian_gram,
    reference_labels,
    reference_sample_moment,
)

Z_BOUND = 5.0
DRAWS = 4000
P = 4
S = 2  # nonzero coordinates of the sparse truth
MODELS = {"cs": OneBitCS(math.sqrt(0.1)), "flr": FlippedLogistic(0.0, 0.1)}
KINDS = ("difference", "sum")


def mean_and_error(draws):
    """Entrywise sample mean over axis 0 and its standard error."""
    return draws.mean(axis=0), draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])


def assert_means_agree(a, b, what):
    """Two samples' means agree within Z_BOUND standard errors, entry by entry."""
    (ma, ea), (mb, eb) = mean_and_error(a), mean_and_error(b)
    z = np.abs(ma - mb) / np.sqrt(ea**2 + eb**2)
    assert float(np.max(z)) <= Z_BOUND, (what, float(np.max(z)))


def centered_products(draws):
    """Per-draw products of the centered entries; their mean is the covariance."""
    centered = draws - draws.mean(axis=0)
    return np.einsum("ri,rj->rij", centered, centered)


def draw_statistics(mtx, xty):
    """Per-draw statistics of (M, X^T y) whose means the tests compare."""
    return {"xty": xty, "m_xty": mtx @ xty, "xty_m_xty": np.array([xty @ mtx @ xty])}


def draw(model, truth, n, kind, rng, reference: bool):
    if reference:
        data = generate_dataset(model, truth, n, rng)
        return second_moment(data, kind), data.covariates.T @ data.labels
    return sample_moment(model, truth, n, kind, rng)


@functools.lru_cache(maxsize=None)
def sample(model_name, kind, n, reference: bool, s=None):
    """DRAWS draws of M and of the statistics, under a dense truth or, given s,
    an s-sparse one; each case's draws are shared by its tests.  The sampler
    and the dataset path draw from seeds of their own."""
    rng = np.random.default_rng([3 if reference else 2, n] + ([] if s is None else [s]))
    model = MODELS[model_name]
    truth = (sample_beta_dense(P, np.random.default_rng([7, P])) if s is None
             else sample_beta_sparse(P, s, np.random.default_rng([7, P, s])))
    ms, stats = [], {}
    for _ in range(DRAWS):
        m, xty = draw(model, truth, n, kind, rng, reference)
        ms.append(m)
        for key, value in draw_statistics(m, xty).items():
            stats.setdefault(key, []).append(value)
    return model, truth, np.asarray(ms), {k: np.asarray(v) for k, v in stats.items()}


# n = 40 holds 20 pairs; n = 5 is trimmed to 2 pairs, so a wrong scale or an
# untrimmed row moves every mean by 20% or more, and k = 0 comes up often.
# n = 12 holds 6 pairs, so the Wishart part of G^T G has 0 < k - r < P
# degrees of freedom in most draws.  The s-sparse truth (the last argument,
# None for the dense one) runs under cs at n = 40 and 12: the truth enters
# the draw through P = I - b b^T, which the link does not touch.
CASES = [pytest.param(model, kind, n, None, id=f"{model}-{kind}-{n}")
         for model in MODELS for kind in KINDS for n in (40, 12, 5)]
CASES += [pytest.param("cs", kind, n, S, id=f"cs-{kind}-{n}-s{S}")
          for kind in KINDS for n in (40, 12)]


@pytest.mark.parametrize("model_name,kind,n,s", CASES)
def test_mean_of_m_matches_expected_moment(model_name, kind, n, s):
    model, truth, ms, _ = sample(model_name, kind, n, False, s)
    mean, err = mean_and_error(ms)
    target = expected_moment(model, truth, kind=kind)
    z = np.abs(mean - target) / err
    assert float(np.max(z)) <= Z_BOUND, float(np.max(z))


@pytest.mark.parametrize("model_name,kind,n,s", CASES)
def test_xty_and_cross_moments_match_the_dataset_path(model_name, kind, n, s):
    _, _, _, fast = sample(model_name, kind, n, False, s)
    _, _, _, slow = sample(model_name, kind, n, True, s)
    for key in fast:
        assert_means_agree(fast[key], slow[key], key)
    assert_means_agree(centered_products(fast["xty"]), centered_products(slow["xty"]), "cov xty")


UPPER = np.triu_indices(P)


@pytest.mark.parametrize("model_name,kind,n,s", CASES)
def test_covariance_of_m_matches_the_dataset_path(model_name, kind, n, s):
    # a Wishart part with the wrong degrees of freedom or the wrong spread
    # between its diagonal and off-diagonal entries moves this covariance
    fast = sample(model_name, kind, n, False, s)[2][:, UPPER[0], UPPER[1]]
    slow = sample(model_name, kind, n, True, s)[2][:, UPPER[0], UPPER[1]]
    assert_means_agree(centered_products(fast), centered_products(slow), "cov m")


@pytest.mark.parametrize("nu", [0, 1, P - 1, P, P + 5])
def test_bartlett_factor_draws_the_wishart_law(nu):
    rng = np.random.default_rng([4, nu])
    factors = [_bartlett_factor(nu, P, rng) for _ in range(DRAWS)]
    assert {f.shape for f in factors} == {(P, min(nu, P))}
    fast = np.array([f @ f.T for f in factors])[:, UPPER[0], UPPER[1]]
    g = rng.standard_normal((DRAWS, nu, P))
    slow = np.einsum("rki,rkj->rij", g, g)[:, UPPER[0], UPPER[1]]
    if nu == 0:
        assert not fast.any() and not slow.any()
        return
    diagonal = UPPER[0] == UPPER[1]
    # Wishart(nu, I): mean nu I, variance 2 nu on the diagonal and nu off it
    mean_target = nu * diagonal
    for stat, target, what in ((fast, mean_target, "mean"),
                               ((fast - mean_target) ** 2, nu * (1.0 + diagonal), "variance")):
        mean, err = mean_and_error(stat)
        assert float(np.max(np.abs(mean - target) / err)) <= Z_BOUND, what
    assert_means_agree(fast, slow, "entries")
    assert_means_agree(centered_products(fast), centered_products(slow), "covariance")


# k rows by r columns: one row (k < r), collinear columns, k < P with full
# rank (so 0 < k - r < P), and the one-column shape of the sum kind
GRAM_CASES = {
    "one_row": np.array([[0.7, -1.0]]),
    "collinear": np.outer([0.5, -1.2, 2.0], [1.0, -2.0]),
    "k_below_p": np.array([[0.3, 1.0], [-1.1, -1.0], [2.2, 1.0]]),
    "one_column": np.array([[0.4], [-0.9], [1.5], [0.2], [-2.0], [0.8]]),
}


def gram_statistics(gtg, gta):
    return np.concatenate([gtg[UPPER], gta.ravel()])


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_gaussian_gram_matches_an_explicit_gaussian(case):
    a = GRAM_CASES[case]
    rng = np.random.default_rng([5, len(case)])
    fast = np.array([gram_statistics(*_gaussian_gram(a, P, rng)) for _ in range(DRAWS)])
    g = rng.standard_normal((DRAWS, a.shape[0], P))
    slow = np.array([gram_statistics(x.T @ x, x.T @ a) for x in g])
    assert_means_agree(fast, slow, "means")
    assert_means_agree(centered_products(fast), centered_products(slow), "covariance")


def test_gaussian_gram_of_no_rows_is_zero():
    gtg, gta = _gaussian_gram(np.zeros((0, 2)), P, np.random.default_rng(0))
    assert gtg.shape == (P, P) and gta.shape == (P, 2)
    assert not gtg.any() and not gta.any()


# relative size of rounding in the PSD and rank checks
ROUND = 1e-12


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    p=st.integers(1, 30),
    model_name=st.sampled_from(sorted(MODELS)),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_draw_is_psd_with_rank_at_most_its_pairs(n, p, model_name, kind, seed):
    m, xty = sample_moment(MODELS[model_name], sample_beta_dense(p, seed), n, kind, seed)
    assert m.shape == (p, p) and np.isfinite(m).all()
    lam = np.linalg.eigvalsh(m)
    tol = ROUND * float(np.max(np.abs(lam)))
    assert float(np.max(np.abs(m - m.T))) <= tol
    assert lam[0] >= -tol
    assert int(np.sum(lam > tol)) <= min(n // 2, p)
    assert xty.shape == (p,) and np.isfinite(xty).all()


def test_mean_of_xty_is_n_mu1_beta():
    model, truth, _, stats = sample("cs", "difference", 40, False)
    mean, err = mean_and_error(stats["xty"])
    target = 40 * math.sqrt(2.0 / math.pi) / math.sqrt(1.1) * truth.beta_star
    assert float(np.max(np.abs(mean - target) / err)) <= Z_BOUND


def test_odd_n_is_trimmed_as_the_dataset_is(caplog):
    truth = sample_beta_dense(P, 0)
    with caplog.at_level(logging.INFO, logger="bitspectral.synth"):
        mtx, xty = sample_moment(OneBitCS(0.5), truth, 401, "difference", 1)
    assert mtx.shape == (P, P) and xty.shape == (P,)
    assert "odd n=401" in caplog.text
    assert generate_dataset(OneBitCS(0.5), truth, 401, 1).n == 400


@pytest.mark.parametrize("n", [1, 0, -3])
def test_fewer_than_two_rows_raise(n):
    with pytest.raises(ConfigError, match="n >= 2"):
        sample_moment(OneBitCS(0.5), sample_beta_dense(P, 0), n, "difference", 1)


def test_unknown_kind_raises():
    with pytest.raises(ConfigError, match="kind"):
        sample_moment(OneBitCS(0.5), sample_beta_dense(P, 0), 10, "product", 1)


def test_no_weighted_pair_gives_a_zero_matrix():
    # theta = 50 makes every label -1: no pair has differing labels
    truth = sample_beta_dense(P, 0)
    mtx, xty = sample_moment(OneBitPR(50.0), truth, 40, "difference", 2)
    assert not np.any(mtx)
    assert np.isfinite(xty).all() and np.any(xty)
    summed, _ = sample_moment(OneBitPR(50.0), truth, 40, "sum", 2)
    assert np.all(np.linalg.eigvalsh(summed) > 0.0)


def test_single_pair_hits_both_cases():
    truth = sample_beta_dense(P, 0)
    zero = 0
    for seed in range(40):
        mtx, xty = sample_moment(OneBitCS(0.0), truth, 2, "difference", seed)
        zero += not np.any(mtx)
        assert np.isfinite(xty).all()
        assert np.linalg.matrix_rank(mtx) <= 1
    assert 0 < zero < 40


def test_same_generator_state_repeats_bit_for_bit():
    truth = sample_beta_dense(P, 0)
    model = FlippedLogistic(0.3, 0.1)
    for kind in KINDS:
        a, xa = sample_moment(model, truth, 301, kind, np.random.default_rng(5))
        b, xb = sample_moment(model, truth, 301, kind, np.random.default_rng(5))
        c, _ = sample_moment(model, truth, 301, kind, np.random.default_rng(6))
        assert np.array_equal(a, b) and np.array_equal(xa, xb)
        assert not np.array_equal(a, c)


# Bit-for-bit pin of the draw: from the same generator state, the package
# draws exactly what the reference formulation (np.where labels and
# boolean-mask gathers) draws, and leaves the generator in the same state.
# n = 2 holds one pair, so k = 0 weighted pairs come up; 401 is odd.
PIN_MODELS = {
    "flr-zeta0": FlippedLogistic(0.0, 0.1),
    "flr-zeta0.5": FlippedLogistic(0.5, 0.1),
    "cs-sigma0": OneBitCS(0.0),
    "cs-sigma0.5": OneBitCS(0.5),
    "pr-theta0.4": OneBitPR(0.4),
    "pr-theta1": OneBitPR(1.0),
}
PIN_NS = (2, 401, 4000)
PIN_SEEDS = range(8)


def pinned_rngs(seed):
    return np.random.default_rng([9, seed]), np.random.default_rng([9, seed])


@pytest.mark.parametrize("n", PIN_NS)
@pytest.mark.parametrize("model_name", sorted(PIN_MODELS))
@pytest.mark.parametrize("kind", KINDS)
def test_sample_moment_repeats_the_reference_draw_bit_for_bit(kind, model_name, n):
    model = PIN_MODELS[model_name]
    truth = sample_beta_dense(7, [8, n])
    empty = set()
    for seed in PIN_SEEDS:
        rng, ref_rng = pinned_rngs(seed)
        mtx, xty = sample_moment(model, truth, n, kind, rng)
        ref, ref_xty = reference_sample_moment(model, truth.beta_star, n, kind, ref_rng)
        assert np.array_equal(mtx, ref)
        assert np.array_equal(xty, ref_xty)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        empty.add(not mtx.any())  # M = 0 exactly when k = 0
    assert n > 2 or empty == {True, False}


@pytest.mark.parametrize("n", PIN_NS)
@pytest.mark.parametrize("model_name", sorted(PIN_MODELS))
def test_labels_and_datasets_repeat_the_reference_draw_bit_for_bit(model_name, n):
    model = PIN_MODELS[model_name]
    truth = sample_beta_dense(7, [8, n])
    # the link's jumps and limits among the index values
    edges = np.array([0.0, -0.0, 0.4, -0.4, 1.0, -1.0, np.inf, -np.inf])
    for seed in PIN_SEEDS:
        rng, ref_rng = pinned_rngs(seed)
        z = np.concatenate([edges, 2.0 * rng.standard_normal(n)])
        ref_rng.standard_normal(n)
        y = draw_labels(model, z, rng)
        ref = reference_labels(model, z, ref_rng)
        assert y.dtype == ref.dtype == np.int64
        assert np.array_equal(y, ref)
        data = generate_dataset(model, truth, n, rng)
        ref_y, ref_x = reference_dataset(model, truth.beta_star, n, ref_rng)
        assert data.labels.dtype == ref_y.dtype
        assert np.array_equal(data.labels, ref_y) and np.array_equal(data.covariates, ref_x)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# The same pins at the size of the sparse benchmark's largest draw, (s, p, n)
# = (5, 200, 4000) under the noiseless sign link, where M is built in place.
# Bytes are compared, so a zero's sign counts too.
WORKLOAD_P, WORKLOAD_S, WORKLOAD_N = 200, 5, 4000


@pytest.mark.parametrize("kind", KINDS)
def test_sample_moment_repeats_the_reference_draw_at_the_workload_size(kind):
    truth = sample_beta_sparse(WORKLOAD_P, WORKLOAD_S, [8, WORKLOAD_N])
    for seed in range(3):
        rng, ref_rng = pinned_rngs(seed)
        mtx, xty = sample_moment(OneBitCS(0.0), truth, WORKLOAD_N, kind, rng)
        ref, ref_xty = reference_sample_moment(
            OneBitCS(0.0), truth.beta_star, WORKLOAD_N, kind, ref_rng)
        assert mtx.tobytes() == ref.tobytes()
        assert xty.tobytes() == ref_xty.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("nu", [0, 1, WORKLOAD_P - 1, WORKLOAD_P, WORKLOAD_N // 2])
def test_bartlett_factor_repeats_the_tril_reference_bit_for_bit(nu):
    rng, ref_rng = pinned_rngs(nu)
    low = _bartlett_factor(nu, WORKLOAD_P, rng)
    ref = reference_bartlett_factor(nu, WORKLOAD_P, ref_rng)
    assert low.shape == ref.shape == (WORKLOAD_P, min(nu, WORKLOAD_P))
    assert np.array_equal(low, ref)
    # the zeroed upper part is +0.0, as np.tril writes it
    assert np.array_equal(np.signbit(low), np.signbit(ref))
    assert not np.signbit(low[np.triu_indices(WORKLOAD_P, 1, low.shape[1])]).any()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(GRAM_CASES) + ["workload"])
def test_gaussian_gram_repeats_the_reference_bit_for_bit(case):
    if case == "workload":  # about n/4 weighted pairs, as the difference kind has
        a, p = np.random.default_rng(3).standard_normal((WORKLOAD_N // 4, 2)), WORKLOAD_P
    else:
        a, p = GRAM_CASES[case], P
    rng, ref_rng = pinned_rngs(len(case))
    gtg, gta = _gaussian_gram(a, p, rng)
    ref_gtg, ref_gta = reference_gaussian_gram(a, p, ref_rng)
    assert gtg.tobytes() == ref_gtg.tobytes() and gta.tobytes() == ref_gta.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
