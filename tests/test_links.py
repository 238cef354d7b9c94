"""Link models, moment functionals, and theory constants."""

import math
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.stats import norm

from bitspectral import (
    ConfigError,
    FlippedLogistic,
    OneBitCS,
    OneBitPR,
    link_eval,
    moments,
    theory_diagnostics,
    theta_median,
)
from bitspectral.harness import select_matrix_kind
from bitspectral.links import LinkModel, _ndtr, _sign_pos, normal_cdf, normal_pdf

from _oracles import reference_link, split_domain_moment


class TestLinkEval:
    def test_flr_zero_at_origin(self):
        assert link_eval(FlippedLogistic(zeta=0.0, pe=0.1), 0.0) == 0.0

    def test_cs_zero_at_origin(self):
        assert link_eval(OneBitCS(sigma=1.0), 0.0) == 0.0

    def test_pr_inside_threshold(self):
        assert link_eval(OneBitPR(theta=1.0), 0.5) == -1.0

    def test_flr_direct_evaluation(self):
        # (e^2 - 1) / (e^2 + 1)
        expected = (math.exp(2.0) - 1.0) / (math.exp(2.0) + 1.0)
        got = link_eval(FlippedLogistic(zeta=0.0, pe=0.0), 2.0)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.7615941559557649, abs=1e-12)

    def test_sign_zero_convention(self):
        assert link_eval(OneBitCS(sigma=0.0), 0.0) == 1.0
        assert link_eval(OneBitPR(theta=1.0), 1.0) == 1.0  # |z| - theta == 0
        assert link_eval(OneBitPR(theta=1.0), -1.0) == 1.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(1000) * 5.0
        for model in (FlippedLogistic(0.3, 0.2), OneBitCS(0.7), OneBitPR(0.9),
                      OneBitCS(0.0), FlippedLogistic(0.0, 0.0)):
            vals = link_eval(model, z)
            assert np.all(np.abs(vals) <= 1.0)

    def test_odd_links_exactly_odd(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(1000) * 3.0
        eps = float(np.finfo(float).eps)
        for model in (FlippedLogistic(0.0, 0.0), FlippedLogistic(0.0, 0.25),
                      OneBitCS(0.5), OneBitCS(2.0)):
            np.testing.assert_allclose(link_eval(model, z), -link_eval(model, -z),
                                       rtol=0.0, atol=eps)
        # the noiseless sign link is odd bit-for-bit away from 0
        model = OneBitCS(0.0)
        np.testing.assert_array_equal(link_eval(model, z), -link_eval(model, -z))

    def test_pr_link_even(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(1000) * 3.0
        model = OneBitPR(theta=0.8)
        np.testing.assert_array_equal(link_eval(model, z), link_eval(model, -z))

    def test_scalar_in_scalar_out(self):
        assert isinstance(link_eval(OneBitCS(1.0), 0.3), float)

    def test_cs_subnormal_sigma_is_a_sign_without_warning(self):
        # z / sigma overflows to +-inf, which the normal CDF maps to 0 and 1
        z = np.array([-3.0, -1e-300, 1e-300, 0.5, 7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = OneBitCS(5e-324).f(z)
        np.testing.assert_array_equal(got, [-1.0, -1.0, 1.0, 1.0, 1.0])


# every family, with the types f and link_eval return for a Python float, a
# 0-d array and a 1-d array: the smooth links give numpy scalars for the first
# two, the sign links 0-d arrays
SMOOTH_TYPES = {"f": (np.float64, np.float64, np.ndarray),
                "link_eval": (float, np.float64, np.ndarray)}
SIGN_TYPES = {"f": (np.ndarray, np.ndarray, np.ndarray),
              "link_eval": (float, np.ndarray, np.ndarray)}
CONTRACT_FAMILIES = [
    (FlippedLogistic(0.0, 0.1), SMOOTH_TYPES),
    (FlippedLogistic(0.5, 0.1), SMOOTH_TYPES),
    (OneBitCS(0.5), SMOOTH_TYPES),
    (OneBitCS(0.0), SIGN_TYPES),
    (OneBitPR(0.4), SIGN_TYPES),
    (OneBitPR(1.0), SIGN_TYPES),
]
CONTRACT_MODELS = [model for model, _ in CONTRACT_FAMILIES]
CONTRACT_IDS = [repr(model) for model in CONTRACT_MODELS]


class TestLinkContract:
    """``f`` and ``link_eval`` keep their values, bit for bit, and their types per input form."""

    @pytest.mark.parametrize("model,types", CONTRACT_FAMILIES, ids=CONTRACT_IDS)
    def test_values_and_types_per_input_form(self, model, types):
        values = [0.3, -0.0, 1.0, -2.5]
        for v in values:
            for form, z in enumerate((v, np.array(v), np.array([v, -v, 0.5 * v]))):
                ref = reference_link(model, np.asarray(z, dtype=float))
                for name, got in (("f", model.f(z)), ("link_eval", link_eval(model, z))):
                    assert type(got) is types[name][form], (name, form)
                    assert np.shape(got) == np.shape(z)
                    assert np.array_equal(np.asarray(got), ref), (name, form, v)

    @pytest.mark.parametrize("model", CONTRACT_MODELS, ids=CONTRACT_IDS)
    def test_bit_for_bit_on_a_wide_array(self, model):
        z = np.random.default_rng(3).standard_normal(10_001) * 20.0
        z = np.concatenate([z, [0.0, -0.0, 0.4, -0.4, 1.0, -1.0, np.inf, -np.inf, np.nan]])
        got = model.f(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert np.array_equal(got, reference_link(model, z), equal_nan=True)

    @pytest.mark.parametrize("model", CONTRACT_MODELS, ids=CONTRACT_IDS)
    def test_f_never_writes_into_its_argument(self, model):
        z = np.random.default_rng(4).standard_normal(257)
        kept = z.copy()
        for arg in (z, z[::2], z.reshape(1, -1)):
            out = model.f(arg)
            assert not np.shares_memory(out, z)
        np.testing.assert_array_equal(z, kept)
        zero_d = np.array(0.7)
        model.f(zero_d)
        assert zero_d == 0.7

    def test_cs_link_peak_memory(self):
        # with sigma > 0, f holds at most six n-length arrays at once (x, |x|,
        # the erf and erfc branches, one erfc polynomial and its far-tail twin)
        # and two boolean masks; one more n-length array breaks the bound
        z = np.random.default_rng(5).standard_normal(7_860)
        z[:2] = (4.0, -4.0)  # z / (sigma sqrt 2) past 8, so the far-tail polynomials run too
        model = OneBitCS(math.sqrt(0.1))
        tracemalloc.start()
        try:
            model.f(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * z.nbytes, peak / z.nbytes

    @pytest.mark.parametrize("model", [OneBitCS(0.0), OneBitPR(1.0)], ids=repr)
    def test_sign_links_map_nan_to_minus_one(self, model):
        assert link_eval(model, math.nan) == -1.0
        np.testing.assert_array_equal(model.f(np.array([np.nan, 2.0])), [-1.0, 1.0])

    def test_sign_of_negative_zero_is_plus_one(self):
        assert link_eval(OneBitCS(0.0), -0.0) == 1.0
        np.testing.assert_array_equal(OneBitCS(0.0).f(np.array([-0.0, 0.0])), [1.0, 1.0])
        np.testing.assert_array_equal(_sign_pos(np.array([-0.0, np.nan, -1e-300])),
                                      [1.0, -1.0, -1.0])


class TestConstructors:
    @pytest.mark.parametrize("pe", [-0.01, 0.5, 0.7, 1.0])
    def test_flr_rejects_bad_pe(self, pe):
        with pytest.raises(ConfigError):
            FlippedLogistic(zeta=0.0, pe=pe)

    def test_cs_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            OneBitCS(sigma=-0.1)

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_pr_rejects_bad_theta(self, theta):
        with pytest.raises(ConfigError):
            OneBitPR(theta=theta)


@pytest.mark.parametrize("model", ["cs", {}, None, OneBitCS],
                         ids=["name", "unhashable", "None", "class"])
def test_a_model_that_is_not_a_link_family_is_a_config_error(model):
    # "cs" raised AttributeError in each call, and {} TypeError from moments' cache
    calls = [lambda: moments(model), lambda: link_eval(model, 0.0),
             lambda: select_matrix_kind(model), lambda: theory_diagnostics(model, 10)]
    for call in calls:
        with pytest.raises(ConfigError, match="^model must be one of the link families "
                                              "FlippedLogistic, OneBitCS, OneBitPR, got"):
            call()


class TestMoments:
    def test_cs_noiseless(self):
        # oracle: E[sign(Z) Z] by split-domain quadrature, and 2/pi via the
        # Gaussian mean-absolute-value identity
        oracle_mu1 = split_domain_moment(np.sign, 1)
        assert oracle_mu1 == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
        summ = moments(OneBitCS(sigma=0.0))
        assert summ.method == "closed_form"
        assert summ.mu0 == 0.0 and summ.mu2 == 0.0
        assert summ.mu1 == pytest.approx(0.7978845608028654, abs=1e-12)
        assert summ.phi == pytest.approx(0.6366197723675814, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_cs_mu1_against_split_quadrature(self, sigma):
        f = lambda z: 2.0 * norm.cdf(z / sigma) - 1.0
        oracle = split_domain_moment(f, 1)
        assert moments(OneBitCS(sigma)).mu1 == pytest.approx(oracle, abs=1e-8)

    def test_pr_at_unit_threshold(self):
        p1 = 2.0 * (1.0 - norm.cdf(1.0))
        mu0_oracle = 2.0 * p1 - 1.0
        phi_oracle = -(2.0 * p1 - 1.0) * 4.0 * 1.0 * norm.pdf(1.0)
        summ = moments(OneBitPR(theta=1.0))
        assert summ.mu1 == 0.0
        assert summ.mu0 == pytest.approx(mu0_oracle, abs=1e-12)
        assert summ.mu0 == pytest.approx(-0.3653789842741717, abs=1e-12)
        assert summ.phi == pytest.approx(phi_oracle, abs=1e-12)
        assert summ.phi == pytest.approx(0.3536440701955601, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 0.67, 1.0, 1.8])
    def test_pr_moments_against_quadrature(self, theta):
        # quadrature oracle split at the discontinuities +-theta
        f = lambda z: np.where(np.abs(z) >= theta, 1.0, -1.0)
        summ = moments(OneBitPR(theta))
        assert summ.mu0 == pytest.approx(
            split_domain_moment(f, 0, cuts=(-theta, theta)), abs=1e-9)
        assert summ.mu2 == pytest.approx(
            split_domain_moment(f, 2, cuts=(-theta, theta)), abs=1e-9)

    def test_flr_vanishing_link_limit(self):
        # at pe -> 1/2 the link is identically 0, so phi -> 0
        assert moments(FlippedLogistic(0.0, 0.5 - 1e-9)).phi == pytest.approx(0.0, abs=1e-12)

    def test_flr_against_split_quadrature(self):
        model = FlippedLogistic(zeta=0.7, pe=0.2)
        f = lambda z: (1.0 - 2.0 * 0.2) * np.tanh(0.5 * (z + 0.7))
        summ = moments(model)
        for k, got in ((0, summ.mu0), (1, summ.mu1), (2, summ.mu2)):
            assert got == pytest.approx(split_domain_moment(f, k), abs=1e-10)

    def test_odd_link_moments_vanish(self):
        summ = moments(FlippedLogistic(0.0, 0.15))  # quadrature path
        assert abs(summ.mu0) <= 1e-8 and abs(summ.mu2) <= 1e-8
        summ = moments(OneBitCS(0.8))  # closed form path
        assert summ.mu0 == 0.0 and summ.mu2 == 0.0
        assert summ.phi == summ.mu1 * summ.mu1

    def test_phi_identity_holds_exactly(self):
        for model in (FlippedLogistic(0.4, 0.1), OneBitCS(1.3), OneBitPR(0.5)):
            s = moments(model)
            assert s.phi == s.mu1 * s.mu1 - s.mu0 * s.mu2 + s.mu0 * s.mu0
            assert abs(s.mu0) <= 1.0

    def test_quadrature_order_consistency(self):
        for pe in (0.0, 0.1, 0.2, 0.3, 0.4):
            lo = moments(FlippedLogistic(0.0, pe), quad_order=64)
            hi = moments(FlippedLogistic(0.0, pe), quad_order=200)
            assert lo.phi == pytest.approx(hi.phi, abs=1e-6)
            assert lo.mu1 == pytest.approx(hi.mu1, abs=1e-6)

    def test_memoized_per_model_and_order(self):
        first = moments(FlippedLogistic(0.0, 0.15), quad_order=64)
        assert moments(FlippedLogistic(0.0, 0.15), quad_order=64) is first
        other = moments(FlippedLogistic(0.0, 0.15), quad_order=96)
        assert other is not first and other.phi == pytest.approx(first.phi, abs=1e-6)
        assert moments(FlippedLogistic(0.0, 0.25), quad_order=64).phi < first.phi

    @pytest.mark.parametrize("order", [0, 1, 7])
    def test_rejects_low_order(self, order):
        with pytest.raises(ConfigError):
            moments(OneBitCS(1.0), quad_order=order)


# every family at 2-3 parameter values, with the cut points of its link
_FAMILY_CASES = [
    (FlippedLogistic(zeta=0.7, pe=0.2), ()),
    (FlippedLogistic(zeta=-1.5, pe=0.0), ()),
    (FlippedLogistic(zeta=0.3, pe=0.45), ()),
    (OneBitCS(sigma=0.0), ()),  # sign(z): its jump at 0 is always a cut
    (OneBitCS(sigma=0.4), ()),
    (OneBitCS(sigma=2.0), ()),
    (OneBitPR(theta=theta_median() - 0.3), (-(theta_median() - 0.3), theta_median() - 0.3)),
    (OneBitPR(theta=theta_median() + 0.3), (-(theta_median() + 0.3), theta_median() + 0.3)),
    (OneBitPR(theta=1.8), (-1.8, 1.8)),
]


class TestFamilyContract:
    def test_every_family_is_covered(self):
        assert {type(model) for model, _ in _FAMILY_CASES} == set(typing.get_args(LinkModel))

    @pytest.mark.parametrize("model,cuts", _FAMILY_CASES, ids=repr)
    def test_moments_agree_with_own_link(self, model, cuts):
        # each family's moments must be those of its own link function
        summ = moments(model)
        f = lambda z: link_eval(model, z)
        for k, got in ((0, summ.mu0), (1, summ.mu1), (2, summ.mu2)):
            assert got == pytest.approx(split_domain_moment(f, k, cuts), abs=1e-9)


class TestEigengapSigns:
    def test_flr_phi_decreasing_and_positive(self):
        grid = np.arange(0.0, 0.46, 0.05)
        phis = [moments(FlippedLogistic(0.0, pe)).phi for pe in grid]
        assert all(v > 0 for v in phis)
        assert all(a > b for a, b in zip(phis, phis[1:]))

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_cs_phi_positive(self, sigma):
        assert moments(OneBitCS(sigma)).phi > 0

    def test_pr_sign_flip_at_median(self):
        tm = theta_median()
        for d in (0.05, 0.5):
            assert moments(OneBitPR(tm + d)).phi > 0
            assert moments(OneBitPR(tm - d)).phi < 0


def ulps(got, ref):
    """|got - ref| in units in the last place of ref (NaN where both are NaN)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNormalCdf:
    """The Cephes port that replaces scipy.special.ndtr."""

    def test_within_four_ulp_of_scipy(self):
        grid = np.linspace(-38.0, 38.0, 760_001)
        assert float(np.max(ulps(_ndtr(grid), scipy.special.ndtr(grid)))) <= 4.0

    def test_special_points_equal_scipy(self):
        for a in (0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e308, -1e308):
            with np.errstate(over="raise", invalid="raise"):  # no inf * inf or inf / inf
                assert _ndtr(a) == scipy.special.ndtr(a)
        assert (_ndtr(np.inf), _ndtr(-np.inf)) == (1.0, 0.0)
        assert np.isnan(_ndtr(np.nan))
        assert np.isnan(_ndtr(np.array([0.0, np.nan]))).tolist() == [False, True]

    def test_scalar_in_float_out(self):
        assert type(normal_cdf(0.3)) is float
        assert normal_cdf(0.3) == float(_ndtr(np.array([0.3]))[0])
        out = normal_cdf([0.3, -0.3])
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_pr_moments_match_scipy_closed_form(self):
        # P(|Z| >= theta) = 2 Phi(-theta), taken from scipy; mu2 and phi are sums,
        # so their ulp is that of their largest term
        for theta in np.linspace(0.01, 8.0, 801):
            theta = float(theta)
            got = moments(OneBitPR(theta))
            mu0 = 2.0 * (2.0 * float(scipy.special.ndtr(-theta))) - 1.0
            term = 4.0 * theta * float(normal_pdf(theta))
            mu2 = mu0 + term
            phi = -mu0 * mu2 + mu0 * mu0
            assert ulps(got.mu0, mu0) <= 4.0
            assert abs(got.mu2 - mu2) <= 4.0 * np.spacing(max(abs(mu0), term))
            assert abs(got.phi - phi) <= 4.0 * np.spacing(max(abs(mu0 * mu2), mu0 * mu0))


class TestThetaMedian:
    def test_equals_scipy_quantile(self):
        assert theta_median() == float(scipy.special.ndtri(0.75))

    def test_value(self):
        # bisection oracle on the scipy CDF, run to 1e-12
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if norm.cdf(mid) < 0.75 else (lo, mid)
        assert theta_median() == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert theta_median() == pytest.approx(0.6744897501960817, abs=1e-10)

    def test_defining_equation(self):
        tm = theta_median()
        assert 2.0 * (1.0 - norm.cdf(tm)) == pytest.approx(0.5, abs=1e-9)


class TestTheoryDiagnostics:
    def test_cs_noiseless_values(self):
        phi = 2.0 / math.pi
        gamma_oracle = (1.0 / (phi + 1.0) + 1.0) / 2.0
        xi_oracle = (gamma_oracle * phi + (gamma_oracle - 1.0)) / ((1.0 + gamma_oracle) * (phi + 1.0))
        kappa_oracle = (4.0 + phi) / (4.0 + 3.0 * phi)
        d = theory_diagnostics(OneBitCS(0.0), p=20, s=5)
        assert d.kappa == pytest.approx(kappa_oracle, abs=1e-12)
        assert d.kappa == pytest.approx(0.78455, abs=1e-5)
        assert d.gamma == pytest.approx(gamma_oracle, abs=1e-12)
        assert d.gamma == pytest.approx(0.80551, abs=1e-5)
        assert d.xi == pytest.approx(xi_oracle, abs=1e-12)
        assert d.xi == pytest.approx(0.10772, abs=1e-5)

    def test_kappa_near_one_for_vanishing_gap(self):
        d = theory_diagnostics(FlippedLogistic(0.0, 0.4999), p=10, s=2)
        assert 0.999 < d.kappa < 1.0

    def test_ranges_for_positive_gap(self):
        for model in (FlippedLogistic(0.0, 0.2), OneBitCS(1.0), OneBitPR(1.2)):
            s = moments(model)
            d = theory_diagnostics(model, p=50, s=3)
            lower = (1.0 - s.mu0**2) / (s.phi + 1.0 - s.mu0**2)
            assert lower < d.gamma < 1.0
            assert d.xi > 0.0
            assert 0.0 < d.kappa < 1.0

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ConfigError, match="sum"):
            theory_diagnostics(OneBitPR(theta=0.4), p=10, s=2)

    def test_nmin_needs_sparsity(self):
        d = theory_diagnostics(OneBitCS(0.0), p=10)
        assert math.isnan(d.n_min)
        assert theory_diagnostics(OneBitCS(0.0), p=10, s=3).n_min > 0

    def test_theta_m_reported(self):
        d = theory_diagnostics(OneBitPR(1.0), p=10, s=2)
        assert d.theta_m == pytest.approx(theta_median(), abs=0.0)
