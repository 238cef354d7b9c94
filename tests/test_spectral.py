"""Power method and top-eigenpair extraction."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bitspectral import (
    ConfigError,
    GroundTruth,
    NumericalError,
    OneBitCS,
    SparseConfig,
    expected_moment,
    orient_by_first_moment,
    power_method,
    sign_normalize,
    top_two_eigs,
    truncated_power_method,
)
from bitspectral.spectral import _squared_power_method

from _oracles import reference_phased_power_method, reference_power_method


def random_psd(p, rng, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T) / p


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestPowerMethod:
    def test_single_step(self):
        report = power_method(np.diag([2.0, 1.0]), unit([1.0, 1.0]), t_max=1, tol=0.0)
        np.testing.assert_allclose(report.beta_hat, unit([2.0, 1.0]), atol=1e-15)
        assert report.iterations == 1

    def test_identity_fixed_point(self):
        b0 = unit([0.3, -0.5, 0.8])
        report = power_method(np.eye(3), b0, t_max=50, tol=1e-10)
        assert report.iterations == 1
        assert report.converged
        np.testing.assert_allclose(report.beta_hat, sign_normalize(b0), atol=1e-15)

    def test_geometric_envelope_on_diagonal(self):
        # alpha = 0.8 against e1; tangent shrinks by exactly 1/3 per iterate
        m = np.diag([3.0, 1.0, 1.0])
        b0 = np.array([0.8, 0.6, 0.0])
        alpha = 0.8
        envelope = math.sqrt((1.0 - alpha**2) / alpha**2)
        e1 = np.array([1.0, 0.0, 0.0])
        for t in range(1, 9):
            bt = power_method(m, b0, t_max=t, tol=0.0).beta_hat
            assert np.linalg.norm(bt - e1) <= envelope * (1.0 / 3.0) ** t
            tangent = abs(bt[1]) / bt[0]
            assert tangent == pytest.approx(0.75 * (1.0 / 3.0) ** t, rel=1e-12)

    def test_rayleigh_monotone_on_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_psd(20, rng)
            report = power_method(m, unit(rng.standard_normal(20)), t_max=100, tol=0.0)
            r = report.rayleigh_trace
            assert np.all(np.diff(r) >= -1e-10 * np.abs(r[:-1]))

    def test_matches_eigensolver_when_gap(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 50:
            m = random_psd(20, rng)
            lam1, lam2, v1 = top_two_eigs(m)
            if lam1 < 1.1 * lam2:
                continue
            checked += 1
            report = power_method(m, unit(rng.standard_normal(20)), t_max=500, tol=1e-10)
            assert np.linalg.norm(report.beta_hat - v1) <= 1e-6

    @pytest.mark.parametrize("c", [2.0, 0.25, 1024.0])
    def test_scale_equivariance_bitwise(self, c):
        # powers of two scale IEEE floats exactly, so iterates must match bit
        # for bit after each normalization
        rng = np.random.default_rng(2)
        m = random_psd(12, rng)
        b0 = unit(rng.standard_normal(12))
        a = power_method(m, b0, t_max=40, tol=0.0)
        b = power_method(c * m, b0, t_max=40, tol=0.0)
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericalError, match="no dominant direction"):
            power_method(np.zeros((3, 3)), unit([1.0, 1.0, 1.0]))

    def test_annihilated_iterate_rejected(self):
        m = np.diag([1.0, 0.0])
        with pytest.raises(NumericalError, match="no dominant direction"):
            power_method(m, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("scale", [2.08e-162, 1e-170, 1e-300])
    def test_iterate_whose_squared_norm_underflows_is_still_unit(self, scale):
        # M b has entries below 1e-154, so b @ b is subnormal or 0 before the rescale
        m = scale * np.diag([1.0, 0.5])
        for solver in (power_method, _squared_power_method):
            got = solver(m, unit([0.6, 0.8]), t_max=1, tol=0.0)
            assert np.linalg.norm(got.beta_hat) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(got.beta_hat, unit([0.6, 0.4]), rtol=1e-12)

    def test_rejects_non_unit_start(self):
        with pytest.raises(ConfigError):
            power_method(np.eye(2), np.array([1.0, 1.0]))

    def test_rejects_bad_tmax(self):
        with pytest.raises(ConfigError):
            power_method(np.eye(2), np.array([1.0, 0.0]), t_max=0)

    @pytest.mark.parametrize("t_max", [True, 2.5], ids=["bool", "fraction"])
    def test_rejects_a_tmax_that_is_not_an_integer(self, t_max):
        m, b0 = np.diag([2.0, 1.0]), np.array([0.6, 0.8])
        for solver in (power_method, _squared_power_method):
            with pytest.raises(ConfigError, match="t_max must be an integer"):
                solver(m, b0, t_max=t_max)
        assert power_method(m, b0, t_max=np.int64(2)).iterations == 2

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_bad_tol(self, tol):
        b0 = np.array([1.0, 0.0])
        with pytest.raises(ConfigError):
            power_method(np.eye(2), b0, tol=tol)
        with pytest.raises(ConfigError):
            truncated_power_method(np.eye(2), b0, SparseConfig(rho=0.0, s_hat=1, tol=tol))

    def test_report_invariants(self):
        rng = np.random.default_rng(3)
        m = random_psd(8, rng)
        report = power_method(m, unit(rng.standard_normal(8)))
        assert np.linalg.norm(report.beta_hat) == pytest.approx(1.0, abs=1e-12)
        assert len(report.rayleigh_trace) == report.iterations
        idx = int(np.argmax(np.abs(report.beta_hat)))
        assert report.beta_hat[idx] > 0.0

    def test_fixed_iteration_mode_reports_unconverged(self):
        rng = np.random.default_rng(4)
        m = random_psd(6, rng)
        report = power_method(m, unit(rng.standard_normal(6)), t_max=3, tol=0.0)
        assert report.iterations == 3
        assert not report.converged

    def test_rejects_non_finite_start(self):
        for bad in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ConfigError):
                power_method(np.eye(2), np.array(bad))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_matrix_beyond_the_range_of_a_norm(self):
        # M b has entries near 1e200, so v @ v overflows though M b is finite
        m = np.diag([1e200, 1e199, 1.0])
        for run in (power_method, _squared_power_method):
            report = run(m, unit([1.0, 1.0, 1.0]))
            np.testing.assert_allclose(report.beta_hat, [1.0, 0.0, 0.0], rtol=0.0, atol=1e-9)
            assert report.converged


class TestOneProductPerStep:
    """The loop reuses its Rayleigh product; it must match the two-product loop bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        # p rows and k columns: k < p gives a rank-deficient PSD matrix
        factor=st.tuples(st.integers(1, 10), st.integers(1, 12)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=64))),
        start=st.integers(0, 2**32 - 1),
        t_max=st.integers(1, 120),
        tol=st.sampled_from([0.0, 1e-10]),
    )
    def test_matches_reference_bitwise(self, factor, start, t_max, tol):
        m = factor @ factor.T
        assume(np.any(m))
        b0 = unit(np.random.default_rng(start).standard_normal(m.shape[0]))
        # an M b whose squared norm underflows is
        # test_iterate_whose_squared_norm_underflows_is_still_unit's domain
        try:
            beta, iterations, trace, converged = reference_power_method(m, b0, t_max, tol)
        except FloatingPointError:
            assume(False)
        got = power_method(m, b0, t_max=t_max, tol=tol)
        assert np.array_equal(got.beta_hat, beta)
        assert np.array_equal(got.rayleigh_trace, trace)
        assert got.iterations == iterations
        assert got.converged == converged

    @pytest.mark.parametrize("tol", [0.0, 1e-10])
    def test_cap_hit_and_early_stop_match_reference(self, tol):
        # a relative gap of 1e-3 stops on the cap; a gap of 1/2 stops early at tol 1e-10
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        b0 = unit(rng.standard_normal(12))
        outcomes = set()
        for top in (1.001, 2.0):
            m = (q * np.r_[top, np.linspace(1.0, 0.1, 11)]) @ q.T
            got = power_method(m, b0, t_max=500, tol=tol)
            beta, iterations, trace, converged = reference_power_method(m, b0, 500, tol)
            assert np.array_equal(got.beta_hat, beta)
            assert np.array_equal(got.rayleigh_trace, trace)
            assert (got.iterations, got.converged) == (iterations, converged)
            outcomes.add((top, got.converged))
        assert (1.001, False) in outcomes
        assert tol == 0.0 or (2.0, True) in outcomes


PHASES = (64, 16, 1)  # multiplies of M per step of the squared path, phase by phase


def squared_step_ends(t_max):
    """Multiplies of M taken by the end of each step of the squared path under cap t_max."""
    sizes, left = [], t_max
    for q in PHASES:
        sizes += [q] * (left // q)
        left %= q
    return np.cumsum(sizes)


def slow_pair(rng):
    """A 20-by-20 PSD matrix with lambda2/lambda1 = 0.97 and a unit start.

    0.97 is the slow end of the lowdim grids: no iterate repeats exactly
    within 500 multiplies, so tol=0 runs to the cap.
    """
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    m = (q * np.r_[1.0, 0.97, rng.uniform(0.0, 0.9, 18)]) @ q.T
    return m, unit(rng.standard_normal(20))


class TestSquaredPowerPath:
    """lowdim's power loop: steps by M^64, M^16 and M in turn, counts multiplies of M,
    stops by power_method's rule."""

    @pytest.mark.parametrize("t_max", [1, 7, 16, 37, 64, 83, 500])
    def test_fixed_budget_matches_reference(self, t_max):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m, b0 = slow_pair(rng)
            got = _squared_power_method(m, b0, t_max=t_max, tol=0.0)
            beta, iterations, _, _ = reference_power_method(m, b0, t_max, 0.0)
            assert got.iterations == iterations == t_max
            assert not got.converged
            assert len(got.rayleigh_trace) == len(squared_step_ends(t_max))
            assert np.linalg.norm(got.beta_hat - beta) <= 1e-9
            if t_max < 16:  # no squared step: power_method's run
                plain = power_method(m, b0, t_max=t_max, tol=0.0)
                assert np.array_equal(got.beta_hat, plain.beta_hat)
                assert np.array_equal(got.rayleigh_trace, plain.rayleigh_trace)

    @pytest.mark.parametrize("t_max, steps", [(15, 15), (16, 1), (63, 3 + 15), (64, 1),
                                              (83, 1 + 1 + 3), (500, 7 + 3 + 4)])
    def test_trace_has_one_entry_per_step_of_each_phase(self, t_max, steps):
        m, b0 = slow_pair(np.random.default_rng(32))
        got = _squared_power_method(m, b0, t_max=t_max, tol=0.0)
        assert got.iterations == t_max and not got.converged
        assert len(got.rayleigh_trace) == len(squared_step_ends(t_max)) == steps

    @pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-4])
    def test_steps_match_the_phased_reference_bit_for_bit(self, tol):
        # below 64 multiplies the run forms no M^64 and steps by M^16, then M;
        # a random PSD matrix of p = 6 often stops early
        rng = np.random.default_rng(33)
        for t_max in (*range(1, 64), 64, 83, 500):
            m, b0 = slow_pair(rng)
            if t_max % 2:
                m, b0 = random_psd(6, rng), unit(rng.standard_normal(6))
            got = _squared_power_method(m, b0, t_max=t_max, tol=tol)
            beta, iterations, trace, converged = reference_phased_power_method(
                m, b0, t_max, tol, (16, 1) if t_max < 64 else PHASES)
            assert np.array_equal(got.beta_hat, beta)
            assert np.array_equal(got.rayleigh_trace, trace)
            assert (got.iterations, got.converged) == (iterations, converged)

    @settings(max_examples=150, deadline=None)
    @given(
        factor=st.tuples(st.integers(1, 10), st.integers(1, 12)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=64))),
        start=st.integers(0, 2**32 - 1),
        t_max=st.integers(1, 120),
        tol=st.sampled_from([0.0, 1e-10, 1e-4, 0.5]),
    )
    def test_report_and_stop_rule(self, factor, start, t_max, tol):
        m = factor @ factor.T
        assume(np.any(m))
        b0 = unit(np.random.default_rng(start).standard_normal(m.shape[0]))
        try:
            got = _squared_power_method(m, b0, t_max=t_max, tol=tol)
        except NumericalError:
            assume(False)
        beta = got.beta_hat
        assert 1 <= got.iterations <= t_max
        ends = list(squared_step_ends(t_max))
        assert got.iterations in ends  # runs stop at the end of a step
        steps = ends.index(got.iterations) + 1
        assert len(got.rayleigh_trace) == steps
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(beta, sign_normalize(beta))
        if not got.converged:
            assert got.iterations == t_max
            return
        # the stop test, redone between the last iterate and the one a step before;
        # a run capped at the end of any step takes the same steps up to there
        before = ends[steps - 2] if steps > 1 else 0
        prev = b0 if before == 0 else _squared_power_method(m, b0, t_max=before, tol=0.0).beta_hat
        minus, plus = beta - prev, beta + prev
        assert min(math.sqrt(minus @ minus), math.sqrt(plus @ plus)) <= tol

    @pytest.mark.parametrize("mtx, b0, kwargs", [
        (np.zeros((3, 3)), unit([1.0, 1.0, 1.0]), {}),  # zero matrix
        (np.diag([1.0, 0.0]), np.array([0.0, 1.0]), {}),  # annihilated start
        (np.diag([1.0, 0.0]), np.array([0.0, 1.0]), {"t_max": 5}),
        (np.diag([np.nan, 1.0, 1.0]), unit([1.0, 1.0, 1.0]), {}),  # non-finite matrix
        (np.eye(2), np.array([1.0, 1.0]), {}),  # non-unit start
        (np.eye(2), np.array([np.nan, 0.0]), {}),
        (np.eye(2), np.array([1.0, 0.0]), {"t_max": 0}),
        (np.eye(2), np.array([1.0, 0.0]), {"tol": math.nan}),
        (np.eye(2), np.array([1.0, 0.0]), {"tol": -1.0}),
        (np.eye(2), np.array([1.0, 0.0]), {"tol": math.inf}),
    ])
    def test_errors_match_power_method(self, mtx, b0, kwargs):
        with pytest.raises((ConfigError, NumericalError)) as plain:
            power_method(mtx, b0, **kwargs)
        with pytest.raises(plain.type, match=re.escape(str(plain.value))):
            _squared_power_method(mtx, b0, **kwargs)


class TestTopTwoEigs:
    def test_diagonal(self):
        lam1, lam2, v1 = top_two_eigs(np.diag([5.0, 3.0, 1.0]))
        assert (lam1, lam2) == (5.0, 3.0)
        np.testing.assert_allclose(v1, [1.0, 0.0, 0.0], atol=1e-14)

    def test_population_moment_spectrum(self):
        e1 = np.zeros(20)
        e1[0] = 1.0
        truth = GroundTruth(beta_star=e1, support=np.array([0]))
        m = expected_moment(OneBitCS(0.0), truth) / 4.0
        lam1, lam2, v1 = top_two_eigs(m)
        assert lam1 == pytest.approx(1.0 + 2.0 / math.pi, rel=1e-12)
        assert lam2 == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(v1, e1, atol=1e-8)

    def test_rank_one(self):
        rng = np.random.default_rng(5)
        a = 2.0 * unit(rng.standard_normal(6))
        lam1, lam2, v1 = top_two_eigs(np.outer(a, a))
        assert lam1 == pytest.approx(4.0, rel=1e-12)
        assert lam2 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(v1, sign_normalize(a / 2.0), atol=1e-12)

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ConfigError):
            top_two_eigs(np.array([[2.0]]))

    def test_accuracy_against_known_spectrum(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        target = np.sort(rng.uniform(0.5, 10.0, 9))
        m = (q * target) @ q.T
        lam1, lam2, _ = top_two_eigs(m)
        assert lam1 == pytest.approx(target[-1], rel=1e-8)
        assert lam2 == pytest.approx(target[-2], rel=1e-8)


class TestOrientByFirstMoment:
    def test_flips_only_on_a_negative_inner_product(self):
        b = np.array([0.6, -0.8])
        np.testing.assert_array_equal(orient_by_first_moment(b, np.array([-1.0, 0.5])), -b)
        assert orient_by_first_moment(b, np.array([1.0, 0.5])) is b
        assert orient_by_first_moment(b, np.zeros(2)) is b  # a zero keeps the sign
