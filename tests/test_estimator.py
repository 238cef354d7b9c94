"""Second-moment estimators against closed-form population oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitspectral import (
    ConfigError,
    Dataset,
    FlippedLogistic,
    GroundTruth,
    MomentMatrix,
    NumericalError,
    OneBitCS,
    OneBitPR,
    expected_moment,
    generate_dataset,
    moments,
    sample_beta_dense,
    sample_moment,
    second_moment,
    second_moment_sum,
    theta_median,
)

from _oracles import reference_moment


def op_norm(a):
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def make_data(labels, covariates):
    return Dataset(labels=np.asarray(labels, dtype=np.int64),
                   covariates=np.asarray(covariates, dtype=float))


class TestSecondMoment:
    def test_single_pair_by_hand(self):
        # dy = -2, dx = [-2]: M = (2/2) * 4 * 4 = 16
        data = make_data([1, -1], [[2.0], [0.0]])
        m = second_moment(data)
        assert m.entries[0, 0] == 16.0
        assert m.kind == "difference" and m.n_pairs == 1

    def test_identical_labels_zero_matrix(self):
        rng = np.random.default_rng(0)
        data = make_data(np.ones(20, dtype=int), rng.standard_normal((20, 3)))
        assert np.all(second_moment(data).entries == 0.0)

    def test_single_pair_sum_kind(self):
        data = make_data([1, -1], [[2.0], [0.0]])
        assert second_moment_sum(data).entries[0, 0] == 0.0

    def test_sum_kind_trace_scale(self):
        # all labels +1: M' = (8/n) sum dx dx^T, E[trace] = 8p
        rng = np.random.default_rng(1)
        n, p = 20_000, 5
        data = make_data(np.ones(n, dtype=int), rng.standard_normal((n, p)))
        m = second_moment_sum(data)
        assert np.trace(m.entries) == pytest.approx(8 * p, rel=0.05)

    def test_pair_swap_invariance(self):
        rng = np.random.default_rng(2)
        truth = sample_beta_dense(4, rng)
        data = generate_dataset(OneBitCS(0.5), truth, 60, rng)
        swapped_x = data.covariates.copy()
        swapped_x[0::2], swapped_x[1::2] = data.covariates[1::2], data.covariates[0::2]
        swapped_y = data.labels.copy()
        swapped_y[0::2], swapped_y[1::2] = data.labels[1::2], data.labels[0::2]
        a = second_moment(data).entries
        b = second_moment(make_data(swapped_y, swapped_x)).entries
        np.testing.assert_array_equal(a, b)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(3)
        truth = sample_beta_dense(6, rng)
        data = generate_dataset(FlippedLogistic(0.0, 0.1), truth, 200, rng)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = make_data(data.labels, data.covariates @ q.T)
        lhs = second_moment(rotated).entries
        rhs = q @ second_moment(data).entries @ q.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_psd_and_symmetry_on_random_datasets(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30)) * 2
            truth = sample_beta_dense(p, rng)
            data = generate_dataset(OneBitCS(1.0), truth, n, rng)
            for m in (second_moment(data), second_moment_sum(data)):
                a = m.entries
                np.testing.assert_allclose(a, a.T, atol=1e-12)
                floor = -1e-8 * max(np.trace(a) / p, 1e-30)
                assert float(np.min(np.linalg.eigvalsh(a))) >= floor


class TestExpectedMoment:
    def test_cs_noiseless_diagonal(self):
        truth = GroundTruth(beta_star=np.array([1.0, 0.0]), support=np.array([0]))
        m = expected_moment(OneBitCS(0.0), truth)
        np.testing.assert_allclose(
            m.entries, np.diag([4.0 + 8.0 / math.pi, 4.0]), atol=1e-14
        )

    def test_odd_link_gap_is_4phi(self):
        rng = np.random.default_rng(5)
        truth = sample_beta_dense(7, rng)
        for model in (OneBitCS(0.7), FlippedLogistic(0.0, 0.2)):
            vals = np.linalg.eigvalsh(expected_moment(model, truth).entries)
            gap = vals[-1] - vals[-2]
            assert gap == pytest.approx(4.0 * moments(model).phi, rel=1e-9)

    def test_pr_sum_kind_spread_is_4phi(self):
        # for the sum estimator the signal eigenvalue sits 4*phi BELOW the bulk
        rng = np.random.default_rng(6)
        truth = sample_beta_dense(5, rng)
        m = expected_moment(OneBitPR(1.0), truth, kind="sum")
        vals = np.linalg.eigvalsh(m.entries)
        assert vals[-1] - vals[0] == pytest.approx(4.0 * moments(OneBitPR(1.0)).phi, rel=1e-9)
        assert vals[-1] - vals[0] == pytest.approx(1.4145762807822404, abs=1e-12)
        bottom = m.entries @ truth.beta_star
        np.testing.assert_allclose(bottom, vals[0] * truth.beta_star, atol=1e-9)


class TestConcentration:
    N, P = 50_000, 10

    @pytest.mark.parametrize("tag,model", [
        (0, FlippedLogistic(0.0, 0.1)),
        (1, OneBitCS(math.sqrt(0.1))),
        (2, OneBitPR(1.0)),
    ])
    def test_difference_estimator_concentrates(self, tag, model):
        rng = np.random.default_rng([31, tag])
        truth = sample_beta_dense(self.P, rng)
        data = generate_dataset(model, truth, self.N, rng)
        m = second_moment(data).entries
        em = expected_moment(model, truth).entries
        assert op_norm(m - em) <= 0.1 * op_norm(em)

    def test_sum_estimator_concentrates_below_median_threshold(self):
        model = OneBitPR(theta_median() / 2.0)
        rng = np.random.default_rng([31, 3])
        truth = sample_beta_dense(self.P, rng)
        data = generate_dataset(model, truth, self.N, rng)
        m = second_moment_sum(data).entries
        em = expected_moment(model, truth, kind="sum").entries
        assert op_norm(m - em) <= 0.1 * op_norm(em)

    def test_sum_estimator_top_eigenvector_aligns(self):
        # negative-gap regime: the signal is the top eigenvector of M'
        model = OneBitPR(theta_median() / 2.0)
        rng = np.random.default_rng([32, 0])
        truth = sample_beta_dense(10, rng)
        data = generate_dataset(model, truth, 20_000, rng)
        vals, vecs = np.linalg.eigh(second_moment_sum(data).entries)
        v1 = vecs[:, -1]
        err = min(np.linalg.norm(v1 - truth.beta_star), np.linalg.norm(v1 + truth.beta_star))
        assert err < 0.3


class TestWeightedPairBuild:
    """M is built from the weight-4 pairs alone; it must match the sum over every pair."""

    @pytest.mark.parametrize("kind", ["difference", "sum"])
    def test_matches_every_pair_formula(self, kind):
        rng = np.random.default_rng([44, 0])
        cases = [
            (OneBitCS(0.3), 20, 2000),
            (FlippedLogistic(pe=0.1), 5, 7840),
            (OneBitPR(1.0), 40, 1000),
            (OneBitPR(theta_median() / 2.0), 3, 4),
        ]
        for model, p, n in cases:
            data = generate_dataset(model, sample_beta_dense(p, rng), n, rng)
            got = second_moment(data, kind).entries
            ref = reference_moment(data.labels, data.covariates, kind)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_no_weighted_pair_gives_zero(self):
        x = np.arange(8.0).reshape(4, 2)
        assert not np.any(second_moment(make_data([1, 1, -1, -1], x)).entries)
        assert not np.any(second_moment_sum(make_data([1, -1, -1, 1], x)).entries)

    def test_nan_covariate_in_weighted_pair_rejected(self):
        x = np.ones((4, 2))
        x[2, 1] = np.nan
        with pytest.raises(NumericalError):
            second_moment(make_data([1, 1, 1, -1], x))

    def test_covariates_of_zero_weight_pairs_do_not_enter(self):
        # documented: covariates of zero-weight pairs are not read
        x = np.ones((4, 2))
        x[1, 0] = 5.0
        x[2, 1] = np.nan
        m = second_moment(make_data([1, -1, 1, 1], x)).entries
        np.testing.assert_array_equal(m, (8.0 / 4.0) * np.array([[16.0, 0.0], [0.0, 0.0]]))


class TestMomentMatrixType:
    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            a = np.eye(2)
            a[0, 0] = bad
            with pytest.raises(NumericalError):
                MomentMatrix(entries=a, kind="difference", n_pairs=1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            MomentMatrix(entries=np.array([[1.0, 2.0], [0.0, 1.0]]),
                         kind="difference", n_pairs=1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            MomentMatrix(entries=np.eye(2), kind="product", n_pairs=1)


class TestAbsoluteScaleConcentration:
    def test_noiseless_cs_quarter_scale(self):
        # || M/4 - ((2/pi) b b^T + I) ||_op <= 0.1 at n = 50000, p = 10
        rng = np.random.default_rng([33, 0])
        truth = sample_beta_dense(10, rng)
        data = generate_dataset(OneBitCS(0.0), truth, 50_000, rng)
        target = (2.0 / math.pi) * np.outer(truth.beta_star, truth.beta_star) + np.eye(10)
        dev = op_norm(second_moment(data).entries / 4.0 - target)
        assert dev <= 0.1


class Untouchable:
    """An argument that must not be read: any attribute access fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} before the kind was checked")


UNKNOWN_KINDS = ["best", None, [1], "product", "both"]
KIND_MESSAGE = r"kind must be one of \('difference', 'sum'\), got "


class TestOneBuilderKeyedByKind:
    """One sign table maps each kind to its pair weight and its population matrix."""

    @pytest.mark.parametrize("kind", UNKNOWN_KINDS, ids=repr)
    def test_unknown_kind_refused_before_any_work(self, kind):
        with pytest.raises(ConfigError, match=KIND_MESSAGE):
            second_moment(Untouchable(), kind)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=KIND_MESSAGE):
            sample_moment(Untouchable(), Untouchable(), 10, kind, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ConfigError, match=KIND_MESSAGE):
            expected_moment(Untouchable(), Untouchable(), kind)
        with pytest.raises(ConfigError, match=KIND_MESSAGE):
            MomentMatrix(entries=np.eye(2), kind=kind, n_pairs=1)

    def test_sum_kind_is_second_moment_sum(self):
        rng = np.random.default_rng([45, 0])
        data = generate_dataset(OneBitPR(0.4), sample_beta_dense(6, rng), 501, rng)
        keyed, alias = second_moment(data, "sum"), second_moment_sum(data)
        np.testing.assert_array_equal(keyed.entries, alias.entries)
        assert (keyed.kind, keyed.n_pairs) == (alias.kind, alias.n_pairs) == ("sum", 250)

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=40),
        p=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_kinds_together_weight_every_pair(self, labels, p, seed):
        # each pair is weighted by exactly one kind, so M + M' = (8/n) sum dx dx^T over all pairs
        n = len(labels) - len(labels) % 2
        x = np.random.default_rng(seed).standard_normal((n, p))
        data = make_data(labels[:n], x)
        dx = x[1::2] - x[0::2]
        every = (8.0 / n) * (dx.T @ dx)
        both = second_moment(data, "difference").entries + second_moment(data, "sum").entries
        np.testing.assert_allclose(both, every, rtol=1e-12, atol=1e-12 * np.max(np.abs(every)))

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from([OneBitCS(0.0), OneBitCS(1.3), FlippedLogistic(0.0, 0.2),
                               OneBitPR(0.4), OneBitPR(1.0)]),
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_population_matrices_add_to_8_identity(self, model, p, seed):
        truth = sample_beta_dense(p, seed)
        both = (expected_moment(model, truth, "difference").entries
                + expected_moment(model, truth, "sum").entries)
        np.testing.assert_allclose(both, 8.0 * np.eye(p), rtol=1e-12, atol=8e-12)
