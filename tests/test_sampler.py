"""``sample_moment``: the law of (M, X^T y) drawn without the n-by-p covariates.

Each distribution test compares means over R independent draws and allows
Z_BOUND = 5 standard errors per compared entry.  The error is estimated from
the draws; for a difference of two sample means it is the root of the sum of
the two squared errors.  The bound was fixed before any of these tests ran.
A 5-sigma excursion has two-sided probability 5.7e-7, so the few hundred
entries compared in this file raise a false alarm with probability below
1e-3 at any seed.
"""

import functools
import logging
import math

import numpy as np
import pytest

from bitspectral import (
    ConfigError,
    FlippedLogistic,
    OneBitCS,
    OneBitPR,
    expected_moment,
    generate_dataset,
    sample_beta_dense,
    sample_moment,
    second_moment,
)

Z_BOUND = 5.0
DRAWS = 4000
P = 4
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


def draw_statistics(mtx, xty):
    """Per-draw statistics of (M, X^T y) whose means the tests compare."""
    return {"xty": xty, "m_xty": mtx @ xty, "xty_m_xty": np.array([xty @ mtx @ xty])}


def draw(model, truth, n, kind, rng, reference: bool):
    if reference:
        data = generate_dataset(model, truth, n, rng)
        return second_moment(data, kind).entries, data.covariates.T @ data.labels
    mtx, xty = sample_moment(model, truth, n, kind, rng)
    return mtx.entries, xty


@functools.lru_cache(maxsize=None)
def sample(model_name, kind, n, reference: bool, seed):
    """DRAWS draws of M and of the statistics; each case's draws are shared by its tests."""
    rng = np.random.default_rng(seed)
    model = MODELS[model_name]
    truth = sample_beta_dense(P, np.random.default_rng([7, P]))
    ms, stats = [], {}
    for _ in range(DRAWS):
        m, xty = draw(model, truth, n, kind, rng, reference)
        ms.append(m)
        for key, value in draw_statistics(m, xty).items():
            stats.setdefault(key, []).append(value)
    return model, truth, np.asarray(ms), {k: np.asarray(v) for k, v in stats.items()}


# n = 40 holds 20 pairs; n = 5 is trimmed to 2 pairs, so a wrong scale or an
# untrimmed row moves every mean by 20% or more, and k = 0 comes up often.
CASES = [(model, kind, n) for model in MODELS for kind in KINDS for n in (40, 5)]


@pytest.mark.parametrize("model_name,kind,n", CASES)
def test_mean_of_m_matches_expected_moment(model_name, kind, n):
    model, truth, ms, _ = sample(model_name, kind, n, False, (2, n))
    mean, err = mean_and_error(ms)
    target = expected_moment(model, truth, kind=kind).entries
    z = np.abs(mean - target) / err
    assert float(np.max(z)) <= Z_BOUND, float(np.max(z))


@pytest.mark.parametrize("model_name,kind,n", CASES)
def test_xty_and_cross_moments_match_the_dataset_path(model_name, kind, n):
    _, _, _, fast = sample(model_name, kind, n, False, (2, n))
    _, _, _, slow = sample(model_name, kind, n, True, (3, n))
    for key in fast:
        assert_means_agree(fast[key], slow[key], key)
    # covariance of X^T y, as the mean of the centered products
    products = [np.einsum("ri,rj->rij", s - s.mean(axis=0), s - s.mean(axis=0))
                for s in (fast["xty"], slow["xty"])]
    assert_means_agree(*products, "cov xty")


def test_mean_of_xty_is_n_mu1_beta():
    model, truth, _, stats = sample("cs", "difference", 40, False, (2, 40))
    mean, err = mean_and_error(stats["xty"])
    target = 40 * math.sqrt(2.0 / math.pi) / math.sqrt(1.1) * truth.beta_star
    assert float(np.max(np.abs(mean - target) / err)) <= Z_BOUND


def test_odd_n_is_trimmed_as_the_dataset_is(caplog):
    truth = sample_beta_dense(P, 0)
    with caplog.at_level(logging.INFO, logger="bitspectral.synth"):
        mtx, xty = sample_moment(OneBitCS(0.5), truth, 401, "difference", 1)
    assert mtx.n_pairs == 200 and xty.shape == (P,)
    assert "odd n=401" in caplog.text
    assert generate_dataset(OneBitCS(0.5), truth, 401, 1).n == 2 * mtx.n_pairs


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
    assert not np.any(mtx.entries) and mtx.n_pairs == 20
    assert np.isfinite(xty).all() and np.any(xty)
    summed, _ = sample_moment(OneBitPR(50.0), truth, 40, "sum", 2)
    assert np.all(np.linalg.eigvalsh(summed.entries) > 0.0)


def test_single_pair_hits_both_cases():
    truth = sample_beta_dense(P, 0)
    zero = 0
    for seed in range(40):
        mtx, xty = sample_moment(OneBitCS(0.0), truth, 2, "difference", seed)
        zero += not np.any(mtx.entries)
        assert np.isfinite(xty).all()
        assert np.linalg.matrix_rank(mtx.entries) <= 1
    assert 0 < zero < 40


def test_same_generator_state_repeats_bit_for_bit():
    truth = sample_beta_dense(P, 0)
    model = FlippedLogistic(0.3, 0.1)
    for kind in KINDS:
        a, xa = sample_moment(model, truth, 301, kind, np.random.default_rng(5))
        b, xb = sample_moment(model, truth, 301, kind, np.random.default_rng(5))
        c, _ = sample_moment(model, truth, 301, kind, np.random.default_rng(6))
        assert np.array_equal(a.entries, b.entries) and np.array_equal(xa, xb)
        assert not np.array_equal(a.entries, c.entries)
