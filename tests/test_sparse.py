"""Fantope projection, ADMM relaxation, and the truncated power pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitspectral.sparse as sparse_mod
from bitspectral import (
    ConfigError,
    Dataset,
    GroundTruth,
    NumericalError,
    OneBitCS,
    SparseConfig,
    expected_moment,
    fantope_admm,
    fantope_project,
    generate_dataset,
    power_method,
    sample_beta_sparse,
    second_moment,
    soft_threshold,
    sparse_recover,
    top_two_eigs,
    truncate,
    truncated_power_method,
)

from _oracles import exact_fantope_projection, random_fantope_point


def sym(a):
    return 0.5 * (a + a.T)


def base_cfg(**kw):
    defaults = dict(rho=0.1, s_hat=2, t_max=500)
    defaults.update(kw)
    return SparseConfig(**defaults)


class TestSoftThreshold:
    def test_scalar_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_threshold_is_identity(self):
        a = np.array([[1.5, -2.0], [0.25, 0.0]])
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_matrix_elementwise(self):
        a = np.array([[2.0, -3.0], [0.5, -0.25]])
        np.testing.assert_allclose(
            soft_threshold(a, 0.5), [[1.5, -2.5], [0.0, 0.0]], atol=1e-15
        )

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigError):
            soft_threshold(np.eye(2), -0.1)


class TestFantopeProject:
    def test_waterfill_by_hand(self):
        np.testing.assert_allclose(
            fantope_project(np.diag([5.0, 1.0, 0.0])), np.diag([1.0, 0.0, 0.0]),
            atol=1e-11,
        )

    def test_feasible_fixed_point(self):
        a = np.eye(4) / 4.0
        np.testing.assert_allclose(fantope_project(a), a, atol=1e-12)

    def test_split_mass(self):
        np.testing.assert_allclose(
            fantope_project(np.diag([0.6, 0.6, 0.0])), np.diag([0.5, 0.5, 0.0]),
            atol=1e-11,
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            fantope_project(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_large_eigenvalues_return(self):
        # adjacent doubles near 1e4 are 1.8e-12 apart: an absolute bisection
        # bracket of 1e-12 never closed on this input
        np.testing.assert_allclose(
            fantope_project(np.diag(np.linspace(0.0, 1e4, 10))),
            np.diag([0.0] * 9 + [1.0]), atol=1e-12,
        )

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            fantope_project(np.array([[1.0, np.nan], [np.nan, 0.0]]))

    def test_output_symmetric(self):
        rng = np.random.default_rng(11)
        out = fantope_project(sym(rng.standard_normal((30, 30)) * 0.1))
        np.testing.assert_allclose(out, out.T, rtol=0.0, atol=1e-15)

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = sym(rng.standard_normal((8, 8)) * rng.uniform(0.2, 5.0))
            np.testing.assert_allclose(
                fantope_project(a), exact_fantope_projection(a), atol=1e-8
            )

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p1 = fantope_project(sym(rng.standard_normal((6, 6))))
            np.testing.assert_allclose(fantope_project(p1), p1, atol=1e-10)

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = fantope_project(sym(rng.standard_normal((7, 7)) * 3.0))
            vals = np.linalg.eigvalsh(out)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-6)
            assert vals.min() >= -1e-6 and vals.max() <= 1.0 + 1e-6

    def test_kkt_variational_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = sym(rng.standard_normal((6, 6)) * 2.0)
            proj = fantope_project(a)
            for _ in range(200):
                other = random_fantope_point(6, rng)
                assert float(np.sum((a - proj) * (other - proj))) <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(
        # dyadic values, so max(lam) - 1 is exact and eigenvalues repeat often
        lam=st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
                     min_size=1, max_size=6),
        at_cut=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_eigenvalues(self, lam, at_cut, seed):
        if at_cut:
            lam = lam + [max(lam) - 1.0]
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
        a = sym((q * np.array(lam)) @ q.T)
        out = fantope_project(a)
        vals = np.linalg.eigvalsh(out)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-6)
        assert vals.min() >= -1e-6 and vals.max() <= 1.0 + 1e-6
        np.testing.assert_allclose(fantope_project(out), out, atol=1e-10)
        np.testing.assert_allclose(out, exact_fantope_projection(a), atol=1e-8)
        # KKT: <a - Pi, P - Pi> <= 0 for every feasible P
        rng = np.random.default_rng(seed)
        for _ in range(20):
            other = random_fantope_point(len(lam), rng)
            assert float(np.sum((a - out) * (other - out))) <= 1e-8

    def test_commutes_with_spectrum(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([-1.0, 0.2, 0.5, 0.9, 1.4, 3.0])  # distinct
        a = (q * lam) @ q.T
        proj = fantope_project(a)
        off = q.T @ proj @ q
        np.testing.assert_allclose(off - np.diag(np.diag(off)), 0.0, atol=1e-8)


class TestFantopeAdmm:
    def test_unpenalized_top_eigenprojector(self):
        m = np.diag([3.0, 1.0])
        sol = fantope_admm(m, base_cfg(rho=0.0))
        assert sol.converged
        np.testing.assert_allclose(sol.Pi, np.diag([1.0, 0.0]), atol=1e-5)
        assert -float(np.sum(m * sol.Pi)) == pytest.approx(-3.0, abs=1e-4)

    def test_heavy_penalty_collapses_to_largest_diagonal(self):
        rng = np.random.default_rng(5)
        m = sym(rng.standard_normal((3, 3)))
        m[1, 1] += 3.0  # make the second diagonal entry the largest
        rho = float(np.max(np.abs(m))) * 9.0
        sol = fantope_admm(m, base_cfg(rho=rho, admm_max_iter=5000))
        off_mass = np.sum(np.abs(sol.Pi - np.diag(np.diag(sol.Pi))))
        assert off_mass < 1e-4
        assert sol.Pi[1, 1] == pytest.approx(1.0, abs=1e-3)
        # brute-force oracle over diagonal feasible points
        brute = min(
            -m[k, k] + rho for k in range(3)
        )
        obj = -float(np.sum(m * sol.Pi)) + rho * float(np.sum(np.abs(sol.Pi)))
        assert obj == pytest.approx(brute, abs=1e-3)

    def test_small_instance_recovery(self):
        rng = np.random.default_rng(6)
        e1 = np.array([1.0, 0.0, 0.0])
        truth = GroundTruth(beta_star=e1, support=np.array([0]))
        m = expected_moment(OneBitCS(0.0), truth).entries + 0.05 * sym(rng.standard_normal((3, 3)))
        sol = fantope_admm(m, base_cfg(rho=0.1))
        vals, vecs = np.linalg.eigh(sol.Pi)
        v1 = vecs[:, -1]
        assert min(np.linalg.norm(v1 - e1), np.linalg.norm(v1 + e1)) < 0.05

    def test_objective_matches_fine_benchmark(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = sym(rng.standard_normal((5, 5)) * 2.0)
            rho = 0.2
            fast = fantope_admm(m, base_cfg(rho=rho))
            fine = fantope_admm(m, base_cfg(rho=rho, admm_tol=1e-10, admm_max_iter=200_000))

            def objective(pi):
                return -float(np.sum(m * pi)) + rho * float(np.sum(np.abs(pi)))

            assert objective(fast.Pi) == pytest.approx(objective(fine.Pi), abs=1e-4)

    def test_nonconvergence_reports_false_and_returns_iterate(self):
        rng = np.random.default_rng(8)
        m = sym(rng.standard_normal((6, 6)))
        sol = fantope_admm(m, base_cfg(rho=0.3, admm_max_iter=3))
        assert not sol.converged and sol.iterations == 3
        assert np.trace(sol.Pi) == pytest.approx(1.0, abs=1e-6)

    @pytest.fixture(scope="class")
    def capped_instance(self):
        """p = 100, n = 1000, sigma = sqrt(0.1), where fixed tau = 1 stops at the
        2,000 cap; returns the matrix, config, objective and the balanced run."""
        rng = np.random.default_rng(50)
        truth = sample_beta_sparse(100, 5, rng)
        m = second_moment(generate_dataset(OneBitCS(math.sqrt(0.1)), truth, 1000, rng)).entries
        rho = math.sqrt(math.log(100) / 1000)

        def objective(pi):
            return -float(np.sum(m * pi)) + rho * float(np.sum(np.abs(pi)))

        cfg = base_cfg(rho=rho, s_hat=10)
        return m, cfg, objective, fantope_admm(m, cfg)

    def test_balancing_converges_where_fixed_penalty_caps(self, capped_instance, monkeypatch):
        m, cfg, objective, balanced = capped_instance
        monkeypatch.setattr(sparse_mod, "BALANCE_ITERS", 0)
        fixed = fantope_admm(m, cfg)
        assert not fixed.converged and fixed.iterations == cfg.admm_max_iter
        assert fixed.penalty == 1.0 and fixed.penalty_updates == 0
        assert balanced.converged and balanced.iterations < cfg.admm_max_iter
        assert balanced.penalty_updates >= 1
        assert objective(balanced.Pi) <= objective(fixed.Pi)

    def test_tiny_start_penalty_converges(self, capped_instance):
        m, cfg, objective, balanced = capped_instance
        tiny = fantope_admm(m, replace(cfg, admm_penalty=5e-4))
        assert tiny.converged
        assert tiny.penalty > 1.0 and tiny.penalty_updates >= 11  # 5e-4 * 2**11 ~ 1
        assert objective(tiny.Pi) == pytest.approx(objective(balanced.Pi), abs=1e-5)

    def test_penalty_frozen_after_balancing_window(self, monkeypatch):
        rng = np.random.default_rng(12)
        m = sym(rng.standard_normal((10, 10)))
        # a start far below the balanced penalty, and a tolerance never met:
        # without the window tau would still be doubling after 20 iterations
        cfg = base_cfg(rho=0.1, admm_penalty=1e-9, admm_tol=1e-300, admm_max_iter=60)
        unlimited = fantope_admm(m, cfg)
        assert unlimited.penalty_updates > 20
        monkeypatch.setattr(sparse_mod, "BALANCE_ITERS", 20)
        at_window = fantope_admm(m, replace(cfg, admm_max_iter=20))
        after = fantope_admm(m, cfg)
        assert 1 <= at_window.penalty_updates <= 20
        assert after.penalty == at_window.penalty
        assert after.penalty_updates == at_window.penalty_updates

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SparseConfig(rho=-0.1, s_hat=2)
        with pytest.raises(ConfigError):
            SparseConfig(rho=0.1, s_hat=0)
        with pytest.raises(ConfigError):
            SparseConfig(rho=0.1, s_hat=2, admm_penalty=0.0)
        with pytest.raises(ConfigError):
            SparseConfig(rho=0.1, s_hat=2, admm_tol=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SparseConfig(rho=0.1, s_hat=2, admm_penalty=bad)
            with pytest.raises(ConfigError):
                SparseConfig(rho=0.1, s_hat=2, admm_tol=bad)


class TestSettleRule:
    """fantope_admm(settle=True): stop once the tracked leading direction settles."""

    def test_default_solver_never_settles(self):
        rng = np.random.default_rng(13)
        stops = set()
        for max_iter in (3, 50, 2000):
            for _ in range(4):
                m = sym(rng.standard_normal((8, 8)))
                sol = fantope_admm(m, base_cfg(rho=0.1, admm_max_iter=max_iter))
                assert sol.stop in ("residual", "cap")
                assert sol.converged == (sol.stop == "residual")
                stops.add(sol.stop)
        assert stops == {"residual", "cap"}

    @staticmethod
    def _project_onto(monkeypatch, *directions):
        """Make the k-th Fantope projection d d^T for the k-th of ``directions``
        (in a cycle), scaled by 1.5 and 1 in turn: the directions are exact,
        while the iterates, and so the dual residual, keep moving and the
        residual rule cannot fire."""
        calls = []

        def project(a):
            calls.append(None)
            d = directions[(len(calls) - 1) % len(directions)]
            return np.outer(d, d) * (1.0 + 0.5 * (len(calls) % 2))

        monkeypatch.setattr(sparse_mod, "fantope_project", project)

    @pytest.mark.parametrize("runs", [1, 3, sparse_mod.SETTLE_RUNS, 8])
    def test_never_settles_before_runs_plus_one(self, runs, monkeypatch):
        monkeypatch.setattr(sparse_mod, "SETTLE_RUNS", runs)
        self._project_onto(monkeypatch, np.array([0.0, 1.0, 0.0]))
        sol = fantope_admm(np.eye(3), base_cfg(rho=0.0, admm_tol=1e-300), settle=True)
        assert (sol.stop, sol.iterations, sol.converged) == ("settled", runs + 1, True)

    def test_settled_stops_come_late_enough(self):
        rng = np.random.default_rng(14)
        settled = 0
        for _ in range(10):
            m = sym(rng.standard_normal((8, 8)))
            sol = fantope_admm(m, base_cfg(rho=0.1, admm_tol=1e-9), settle=True)
            if sol.stop == "settled":
                settled += 1
                assert sol.iterations >= sparse_mod.SETTLE_RUNS + 1
        assert settled >= 5

    def test_residual_rule_wins_a_tie(self, monkeypatch):
        # rho = 0 and a gap above 1: every iterate is exactly e1 e1^T, so at
        # iteration 2 both residuals are 0 and the tracked direction has held
        # for one step; with SETTLE_RUNS = 1 both rules hold there
        monkeypatch.setattr(sparse_mod, "SETTLE_RUNS", 1)
        tie = fantope_admm(np.diag([3.0, 1.0]), base_cfg(rho=0.0), settle=True)
        assert (tie.stop, tie.iterations, tie.converged) == ("residual", 2, True)
        assert tie.primal_residual == 0.0 and tie.dual_residual == 0.0

    @pytest.mark.parametrize("ratio, stop, iterations", [
        (0.5, "settled", sparse_mod.SETTLE_RUNS + 1), (2.0, "cap", 30)])
    def test_sine_threshold(self, ratio, stop, iterations, monkeypatch):
        # the direction swings between e1 and a vector at sine ratio * SETTLE_SIN
        # from it, on the same top-1 support
        sine = ratio * sparse_mod.SETTLE_SIN
        self._project_onto(monkeypatch, np.array([1.0, 0.0]),
                           np.array([math.sqrt(1.0 - sine**2), sine]))
        cfg = base_cfg(rho=0.0, s_hat=1, admm_tol=1e-300, admm_max_iter=30)
        sol = fantope_admm(np.eye(2), cfg, settle=True)
        assert (sol.stop, sol.iterations) == (stop, iterations)

    def test_support_change_resets_the_count(self, monkeypatch):
        # two directions 1e-5 apart whose top-2 supports differ: {0, 1}, {0, 2}
        eps = 1e-5
        self._project_onto(monkeypatch, np.array([1.0, 0.5 + eps, 0.5 - eps]) / math.sqrt(1.5),
                           np.array([1.0, 0.5 - eps, 0.5 + eps]) / math.sqrt(1.5))
        cfg = base_cfg(rho=0.0, s_hat=2, admm_tol=1e-300, admm_max_iter=30)
        sol = fantope_admm(np.eye(3), cfg, settle=True)
        assert (sol.stop, sol.iterations) == ("cap", 30)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_annihilated_direction_leaves_the_other_rules(self, monkeypatch):
        # Pi v = 0 at iteration 2: the rule can no longer fire, so the run
        # ends at the cap
        self._project_onto(monkeypatch, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        cfg = base_cfg(rho=0.0, s_hat=1, admm_tol=1e-300, admm_max_iter=20)
        sol = fantope_admm(np.eye(2), cfg, settle=True)
        assert (sol.stop, sol.iterations, sol.converged) == ("cap", 20, False)

    def test_accuracy_matches_full_admm(self):
        # p = 50, s = 3, sigma^2 = 0.1, four instances at each n; the full
        # solver runs to its residual tolerance
        errs = {False: [], True: []}
        iters = {False: [], True: []}
        for k in range(12):
            rng = np.random.default_rng([60, k])
            n = (500, 1000, 2000)[k % 3]
            truth = sample_beta_sparse(50, 3, rng)
            m = second_moment(generate_dataset(OneBitCS(math.sqrt(0.1)), truth, n, rng))
            cfg = SparseConfig(rho=math.sqrt(math.log(50) / n), s_hat=6)
            for settle in (False, True):
                sol = fantope_admm(m, cfg, settle=settle)
                assert sol.stop == ("settled" if settle else "residual")
                beta0 = truncate(top_two_eigs(sol.Pi)[2], cfg.s_hat)
                beta = truncated_power_method(m, beta0, cfg).beta_hat
                errs[settle].append(min(np.linalg.norm(beta - truth.beta_star),
                                        np.linalg.norm(beta + truth.beta_star)))
                iters[settle].append(sol.iterations)
        assert abs(np.median(errs[True]) - np.median(errs[False])) <= 0.02
        assert np.median(iters[True]) <= np.median(iters[False]) / 5


class TestTruncate:
    def test_keeps_top_two(self):
        np.testing.assert_allclose(
            truncate(np.array([0.6, -0.8, 0.1]), 2), [0.6, -0.8, 0.0], atol=1e-15
        )

    def test_full_width_is_normalization(self):
        v = np.array([3.0, 4.0, 0.0])
        np.testing.assert_allclose(truncate(v, 3), v / 5.0, atol=1e-15)

    def test_tie_breaks_to_lower_index(self):
        np.testing.assert_allclose(truncate(np.array([1.0, 1.0, 0.0]), 1), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(truncate(np.array([-1.0, 1.0]), 1), [-1.0, 0.0])

    def test_rejects_annihilation(self):
        with pytest.raises(NumericalError, match="annihilated"):
            truncate(np.array([0.0, 0.0, 1.0e-300 * 0.0]), 2)

    @settings(max_examples=200, deadline=None)
    @given(
        # few distinct magnitudes, so |.| ties are common
        v=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                   min_size=1, max_size=8),
        data=st.data(),
    )
    def test_tie_rule_property(self, v, data):
        s_hat = data.draw(st.integers(1, len(v)))
        v = np.array(v)
        keep = sorted(range(len(v)), key=lambda i: (-abs(v[i]), i))[:s_hat]
        kept_norm = float(np.linalg.norm(v[keep]))
        if kept_norm == 0.0:
            with pytest.raises(NumericalError):
                truncate(v, s_hat)
            return
        out = truncate(v, s_hat)
        dropped = np.setdiff1d(np.arange(len(v)), keep)
        assert np.all(out[dropped] == 0.0)
        np.testing.assert_allclose(out[keep], v[keep] / kept_norm, rtol=0.0, atol=1e-15)
        assert float(np.linalg.norm(out)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf, 0.5], [np.inf, np.inf]])
    def test_rejects_infinite_entry(self, v):
        with pytest.raises(NumericalError):
            truncate(np.array(v), 1)

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            truncate(np.array([1.0, 0.0]), 0)
        with pytest.raises(ConfigError):
            truncate(np.array([1.0, 0.0]), 3)


class TestTruncatedPower:
    def test_locked_support_fixed_point(self):
        m = np.diag([4.0, 2.0, 1.0])
        report = truncated_power_method(m, np.array([0.0, 1.0, 0.0]), base_cfg(s_hat=1))
        assert report.converged and report.iterations == 1
        np.testing.assert_allclose(report.beta_hat, [0.0, 1.0, 0.0], atol=1e-15)

    def test_dense_start_converges_to_top(self):
        m = np.diag([4.0, 2.0, 1.0])
        b0 = np.full(3, 1.0 / math.sqrt(3.0))
        report = truncated_power_method(m, b0, base_cfg(s_hat=2))
        np.testing.assert_allclose(report.beta_hat, [1.0, 0.0, 0.0], atol=1e-9)

    def test_full_width_matches_power_method_bitwise(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8))
        m = a @ a.T
        b0 = rng.standard_normal(8)
        b0 /= np.linalg.norm(b0)
        dense = power_method(m, b0, t_max=60, tol=1e-10)
        sparse = truncated_power_method(m, b0, base_cfg(s_hat=8, t_max=60, tol=1e-10))
        np.testing.assert_array_equal(dense.beta_hat, sparse.beta_hat)
        np.testing.assert_array_equal(dense.rayleigh_trace, sparse.rayleigh_trace)
        assert dense.iterations == sparse.iterations

    def test_output_always_sparse_unit(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((10, 10))
            m = a @ a.T
            b0 = rng.standard_normal(10)
            b0 /= np.linalg.norm(b0)
            s_hat = int(rng.integers(1, 10))
            report = truncated_power_method(m, b0, base_cfg(s_hat=s_hat, t_max=50))
            assert np.count_nonzero(report.beta_hat) <= s_hat
            assert np.linalg.norm(report.beta_hat) == pytest.approx(1.0, abs=1e-12)


class TestSparseRecover:
    def _cs_dataset(self, s, p, n, seed):
        rng = np.random.default_rng(seed)
        truth = sample_beta_sparse(p, s, rng)
        data = generate_dataset(OneBitCS(0.0), truth, n, rng)
        return truth, data

    def test_recovers_planted_direction(self):
        errs = []
        for t in range(20):
            truth, data = self._cs_dataset(5, 100, 2000, [40, t])
            cfg = SparseConfig(rho=math.sqrt(math.log(100) / 2000), s_hat=10,
                               admm_max_iter=100)
            report = sparse_recover(data, cfg)
            errs.append(min(np.linalg.norm(report.beta_hat - truth.beta_star),
                            np.linalg.norm(report.beta_hat + truth.beta_star)))
        assert np.median(errs) < 0.6
        assert np.count_nonzero(report.beta_hat) <= 10

    def test_stage_diagnostics_present(self):
        truth, data = self._cs_dataset(3, 30, 400, 41)
        cfg = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50)
        report = sparse_recover(data, cfg)
        stages = report.stages
        assert set(stages) == {"admm_iterations", "admm_primal_residual",
                               "admm_dual_residual", "admm_converged", "init_eigengap",
                               "admm_final_penalty", "admm_penalty_updates", "admm_stop"}
        assert stages["admm_stop"] in ("residual", "settled", "cap")
        assert stages["init_eigengap"] >= -1e-9
        # tau only ever doubles or halves, once per counted update
        exponent = math.log2(stages["admm_final_penalty"] / cfg.admm_penalty)
        assert exponent == round(exponent)
        assert abs(exponent) <= stages["admm_penalty_updates"] <= stages["admm_iterations"]

    def test_degenerate_width_matches_dense_path(self):
        truth, data = self._cs_dataset(20, 20, 2000, 42)
        cfg = SparseConfig(rho=0.0, s_hat=20, admm_max_iter=200)
        report = sparse_recover(data, cfg)
        rng = np.random.default_rng(43)
        b0 = rng.standard_normal(20)
        b0 /= np.linalg.norm(b0)
        dense = power_method(second_moment(data), b0)
        assert np.linalg.norm(report.beta_hat - dense.beta_hat) <= 1e-6

    def test_identical_labels_surface_power_stage_error(self):
        rng = np.random.default_rng(44)
        data = Dataset(labels=np.ones(40, dtype=np.int64),
                       covariates=rng.standard_normal((40, 6)))
        cfg = SparseConfig(rho=0.01, s_hat=3, admm_max_iter=50)
        with pytest.raises(NumericalError, match="zero"):
            sparse_recover(data, cfg)

    def test_stop_tolerance_reaches_truncated_power(self):
        truth, data = self._cs_dataset(3, 30, 400, 47)
        loose = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50, tol=0.5)
        report = sparse_recover(data, loose)
        m = second_moment(data)
        beta0 = truncate(top_two_eigs(fantope_admm(m, loose, settle=True).Pi)[2], loose.s_hat)
        direct = truncated_power_method(m, beta0, loose)
        np.testing.assert_array_equal(report.beta_hat, direct.beta_hat)
        assert report.iterations == direct.iterations
        default = sparse_recover(data, replace(loose, tol=SparseConfig.tol))
        assert report.iterations < default.iterations

    def test_rejects_oversized_width(self):
        truth, data = self._cs_dataset(3, 10, 200, 45)
        with pytest.raises(ConfigError):
            sparse_recover(data, SparseConfig(rho=0.1, s_hat=11))

    def test_sum_kind_accepted(self):
        truth, data = self._cs_dataset(3, 12, 400, 46)
        cfg = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50)
        report = sparse_recover(data, cfg, kind="sum")
        assert np.linalg.norm(report.beta_hat) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ConfigError):
            sparse_recover(data, cfg, kind="best")
