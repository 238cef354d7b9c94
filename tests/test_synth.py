"""Ground-truth sampling and dataset generation."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import norm

from bitspectral import (
    ConfigError,
    Dataset,
    FlippedLogistic,
    GroundTruth,
    NumericalError,
    OneBitCS,
    OneBitPR,
    draw_labels,
    expected_moment,
    generate_dataset,
    sample_beta_dense,
    sample_beta_sparse,
    sample_moment,
)


class TestSampleBetaDense:
    def test_one_dimensional_sphere(self):
        for seed in range(20):
            b = sample_beta_dense(1, seed).beta_star
            assert b[0] in (1.0, -1.0)

    def test_unit_norm_and_determinism(self):
        a = sample_beta_dense(20, 123)
        b = sample_beta_dense(20, 123)
        np.testing.assert_array_equal(a.beta_star, b.beta_star)
        assert np.linalg.norm(a.beta_star) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(a.support, np.arange(20))

    def test_symmetric_mean(self):
        rng = np.random.default_rng(7)
        draws = np.stack([sample_beta_dense(5, rng).beta_star for _ in range(10_000)])
        bound = 3.0 / math.sqrt(5 * 10_000)
        assert np.all(np.abs(draws.mean(axis=0)) < bound)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigError):
            sample_beta_dense(0, 0)


class TestSampleBetaSparse:
    def test_full_support_matches_dense_contract(self):
        t = sample_beta_sparse(10, 10, 5)
        assert np.linalg.norm(t.beta_star) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(t.support, np.arange(10))
        assert np.count_nonzero(t.beta_star) == 10

    def test_sparse_construction(self):
        t = sample_beta_sparse(100, 5, 11)
        assert np.count_nonzero(t.beta_star) == 5
        assert np.linalg.norm(t.beta_star) == pytest.approx(1.0, abs=1e-12)
        off = np.setdiff1d(np.arange(100), t.support)
        assert np.all(t.beta_star[off] == 0.0)

    def test_support_uniformity(self):
        rng = np.random.default_rng(13)
        counts = {frozenset(c): 0 for c in combinations(range(6), 2)}
        n_draws = 10_000
        for _ in range(n_draws):
            t = sample_beta_sparse(6, 2, rng)
            counts[frozenset(t.support.tolist())] += 1
        for c, k in counts.items():
            assert abs(k / n_draws - 1.0 / 15.0) < 0.02, c

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ConfigError):
            sample_beta_sparse(5, 6, 0)
        with pytest.raises(ConfigError):
            sample_beta_sparse(5, 0, 0)


@pytest.mark.parametrize("beta", [[np.nan, 0.0], [np.inf, 0.0], [2.0, 0.0], [0.0, 0.0]],
                         ids=["nan", "inf", "long", "zero"])
def test_ground_truth_rejects_a_non_unit_direction(beta):
    with pytest.raises(ConfigError, match="unit norm"):
        GroundTruth(beta_star=np.array(beta), support=np.array([0]))


def test_ground_truth_rejects_a_direction_that_is_not_1d():
    with pytest.raises(ConfigError, match=r"beta_star must be 1-D, got shape \(1, 2\)"):
        GroundTruth(beta_star=np.array([[0.6, 0.8]]), support=np.arange(2))


def test_ground_truth_stores_a_list_as_a_float_array():
    truth = GroundTruth([1.0, 0.0], np.arange(2))
    assert type(truth.beta_star) is np.ndarray and truth.beta_star.dtype == np.float64
    assert GroundTruth([0, 1], np.arange(2)).beta_star.dtype == np.float64
    # both raised AttributeError on the list's missing shape
    assert generate_dataset(OneBitCS(0.5), truth, 10, 0).p == 2
    as_array = GroundTruth(np.array([1.0, 0.0]), np.arange(2))
    np.testing.assert_array_equal(expected_moment(OneBitCS(0.5), truth),
                                  expected_moment(OneBitCS(0.5), as_array))


@pytest.mark.parametrize("beta", [np.array([1j, 0]), np.array([True, False]), ["a", "b"]],
                         ids=["complex", "bool", "str"])
def test_ground_truth_refuses_a_direction_that_is_not_real(beta):
    with pytest.raises(ConfigError, match="^beta_star must be real, got dtype"):
        GroundTruth(beta, np.arange(2))


class TestGenerateDataset:
    def test_labels_and_shapes(self):
        truth = sample_beta_dense(4, 3)
        data = generate_dataset(OneBitCS(0.5), truth, 100, 4)
        assert data.n == 100 and data.p == 4
        assert set(np.unique(data.labels)) <= {-1, 1}
        assert np.all(np.isfinite(data.covariates))

    def test_odd_n_trimmed(self):
        truth = sample_beta_dense(3, 3)
        data = generate_dataset(OneBitCS(0.0), truth, 7, 4)
        assert data.n == 6

    def test_rejects_tiny_n(self):
        truth = sample_beta_dense(3, 3)
        with pytest.raises(ConfigError):
            generate_dataset(OneBitCS(0.0), truth, 1, 4)

    def test_degenerate_threshold_all_positive(self):
        truth = sample_beta_dense(5, 8)
        data = generate_dataset(OneBitPR(theta=1e-12), truth, 500, 9)
        assert np.all(data.labels == 1)

    def test_noiseless_sign_rule(self):
        p = 6
        e1 = np.zeros(p)
        e1[0] = 1.0
        truth = GroundTruth(beta_star=e1, support=np.array([0]))
        data = generate_dataset(OneBitCS(0.0), truth, 400, 10)
        np.testing.assert_array_equal(
            data.labels, np.where(data.covariates[:, 0] >= 0.0, 1, -1)
        )

    def test_label_probability_matches_normal_cdf(self):
        z = np.ones(100_000)
        y = draw_labels(OneBitCS(1.0), z, 11)
        phat = np.mean(y == 1)
        assert phat == pytest.approx(norm.cdf(1.0), abs=0.004)

    def test_bit_identical_reruns(self):
        truth = sample_beta_dense(6, 21)
        a = generate_dataset(FlippedLogistic(0.0, 0.1), truth, 50, 22)
        b = generate_dataset(FlippedLogistic(0.0, 0.1), truth, 50, 22)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_different_seeds_differ(self):
        truth = sample_beta_dense(6, 21)
        a = generate_dataset(FlippedLogistic(0.0, 0.1), truth, 50, 22)
        b = generate_dataset(FlippedLogistic(0.0, 0.1), truth, 50, 23)
        assert not np.array_equal(a.covariates, b.covariates)

    @pytest.mark.parametrize("idx,z", list(enumerate([-1.5, -0.3, 0.0, 0.7, 2.0])))
    def test_noise_path_equivalence(self, idx, z):
        # explicit-noise oracle: y = sign(z + eps), eps ~ N(0, sigma^2)
        sigma = 0.8
        m = 100_000
        rng = np.random.default_rng([77, idx])
        eps = rng.normal(0.0, sigma, m)
        p_noise = np.mean(np.where(z + eps >= 0.0, 1, -1) == 1)
        y = draw_labels(OneBitCS(sigma), np.full(m, z), rng)
        p_link = np.mean(y == 1)
        p_true = norm.cdf(z / sigma)
        tol = 3.0 * math.sqrt(2.0 * p_true * (1.0 - p_true) / m) + 1e-9
        assert abs(p_noise - p_link) < tol


# a family of each kind, and the labels its link gives at +inf and at -inf
LIMIT_LABELS = [
    (FlippedLogistic(0.5, 0.0), 1, -1),
    (OneBitCS(0.0), 1, -1),
    (OneBitCS(0.5), 1, -1),
    (OneBitPR(1.0), 1, 1),
]
LIMIT_IDS = [repr(model) for model, _, _ in LIMIT_LABELS]


class TestDrawLabelsNonFinite:
    @pytest.mark.parametrize("model,plus,minus", LIMIT_LABELS, ids=LIMIT_IDS)
    def test_nan_index_value_raises_before_any_draw(self, model, plus, minus):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for z in ([math.nan], [0.3, math.nan, -1.0], np.array([np.inf, np.nan])):
            with pytest.raises(NumericalError, match="NaN"):
                draw_labels(model, z, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("model,plus,minus", LIMIT_LABELS, ids=LIMIT_IDS)
    def test_infinite_index_values_take_the_limit_labels(self, model, plus, minus):
        y = draw_labels(model, [np.inf, -np.inf] * 50, 3)
        assert np.all(y[0::2] == plus) and np.all(y[1::2] == minus)

    def test_flipped_labels_at_infinity_keep_their_flip_rate(self):
        y = draw_labels(FlippedLogistic(0.0, 0.2), np.full(100_000, -np.inf), 4)
        assert np.mean(y == 1) == pytest.approx(0.2, abs=0.004)


@pytest.mark.parametrize("z", [0.3, np.zeros((3, 2))], ids=["scalar", "2d"])
def test_draw_labels_refuses_non_vector_index_values(z):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="1-D"):
        draw_labels(OneBitCS(0.0), z, rng)
    assert rng.bit_generator.state == state


class TestDatasetInvariants:
    def test_rejects_odd_direct_construction(self):
        with pytest.raises(ConfigError):
            Dataset(labels=np.array([1, -1, 1]), covariates=np.zeros((3, 2)))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ConfigError):
            Dataset(labels=np.array([1, -1]), covariates=np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [7, 0, -2])
    def test_rejects_labels_outside_plus_minus_one(self, bad):
        # a label of 7 would weight its pair (7 - 1)^2 = 36, not the 0 or 4 the moment assumes
        with pytest.raises(ConfigError):
            Dataset(labels=np.array([1, bad, -1, 1]), covariates=np.zeros((4, 2)))

    def test_rejects_nan_label(self):
        with pytest.raises(ConfigError):
            Dataset(labels=np.array([1.0, np.nan]), covariates=np.zeros((2, 2)))

    @pytest.mark.parametrize("labels, covariates", [
        (np.array([1, -1]), np.array([1.0, 2.0])),
        (np.array([1, -1]), np.zeros((2, 2, 2))),
        (np.array([[1, -1], [-1, 1]]), np.zeros((2, 2))),
    ], ids=["1-d covariates", "3-d covariates", "2-d labels"])
    def test_rejects_malformed_shapes(self, labels, covariates):
        with pytest.raises(ConfigError, match="1-D labels and 2-D covariates"):
            Dataset(labels=labels, covariates=covariates)

    def test_reads_lists_as_arrays_and_covariates_as_float(self):
        # a list of labels raised AttributeError on its missing ndim
        data = Dataset([1, -1], [[0, 0], [1, 1]])
        assert type(data.labels) is np.ndarray and data.labels.dtype.kind == "i"
        assert data.covariates.dtype == np.float64 and (data.n, data.p) == (2, 2)
        with pytest.raises(ConfigError, match="1-D labels and 2-D covariates"):
            Dataset([1, -1], [0.0, 1.0])


NOT_A_FAMILY = {"name": "cs", "unhashable": {}, "None": None, "class": OneBitCS}


@pytest.mark.parametrize("model", NOT_A_FAMILY.values(), ids=NOT_A_FAMILY.keys())
def test_draws_refuse_a_model_that_is_not_a_link_family_before_any_uniform(model):
    truth = sample_beta_dense(3, 0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    calls = [lambda: draw_labels(model, [0.1, -0.2], rng),
             lambda: generate_dataset(model, truth, 10, 0),
             lambda: sample_moment(model, truth, 10, "difference", 0)]
    for call in calls:
        with pytest.raises(ConfigError, match="^model must be one of the link families "
                                              "FlippedLogistic, OneBitCS, OneBitPR, got"):
            call()
    assert rng.bit_generator.state == state

