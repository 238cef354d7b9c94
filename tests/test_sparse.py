"""Fantope projection, ADMM relaxation, and the truncated power pipeline."""

import ctypes
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitspectral.sparse as sparse_mod
from bitspectral import _lapack
from bitspectral import (
    ConfigError,
    Dataset,
    FlippedLogistic,
    GroundTruth,
    NumericalError,
    OneBitCS,
    OneBitPR,
    SparseConfig,
    expected_moment,
    fantope_admm,
    fantope_project,
    generate_dataset,
    power_method,
    sample_beta_sparse,
    sample_moment,
    second_moment,
    select_matrix_kind,
    sign_normalize,
    soft_threshold,
    sparse_recover,
    top_two_eigs,
    truncate,
    truncated_power_method,
)

from _oracles import exact_fantope_projection, random_fantope_point, reference_fantope_admm


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
        with pytest.raises(ConfigError):
            soft_threshold(np.eye(2), math.nan)

    def test_out_holds_the_same_result(self):
        a = np.random.default_rng(16).standard_normal((5, 5))
        out = np.empty_like(a)
        assert soft_threshold(a, 0.3, out=out) is out
        np.testing.assert_array_equal(out, soft_threshold(a, 0.3))


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

    def test_large_eigenvalues_return(self):
        # adjacent doubles near 1e4 are 1.8e-12 apart: an absolute bisection
        # bracket of 1e-12 never closed on this input
        np.testing.assert_allclose(
            fantope_project(np.diag(np.linspace(0.0, 1e4, 10))),
            np.diag([0.0] * 9 + [1.0]), atol=1e-12,
        )

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


def eigh_fallback(a):
    """fantope_project with the LAPACK binding absent, as on a numpy build without it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lapack, "_LAPACKE", None)
        return fantope_project(a)


def count_eigh(monkeypatch):
    """Count the calls of np.linalg.eigh from here on; returns the counter list."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(None) or eigh(a))
    return calls


def rotated(lam, rng):
    """A symmetric matrix with eigenvalues ``lam`` in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    return sym((q * lam) @ q.T)


def block_diagonal(blocks):
    """The matrix with the given square blocks on its diagonal and exact zeros
    elsewhere, and the boolean mask of the entries off the blocks."""
    owner = np.repeat(np.arange(len(blocks)), [b.shape[0] for b in blocks])
    a = np.zeros((owner.size, owner.size))
    for i, b in enumerate(blocks):
        a[np.ix_(owner == i, owner == i)] = b
    return a, owner[:, None] != owner[None, :]


@pytest.mark.skipif(_lapack._LAPACKE is None, reason="numpy's bundled LAPACK is not present")
class TestFantopeLapackPath:
    """fantope_project's eigenpairs from numpy's LAPACK, against the np.linalg.eigh path."""

    def test_random_input_takes_lapack_path(self, monkeypatch):
        a = sym(np.random.default_rng(15).standard_normal((30, 30)))
        calls = count_eigh(monkeypatch)
        out = fantope_project(a)
        assert calls == []
        np.testing.assert_allclose(out, eigh_fallback(a), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(fantope_project(np.asfortranarray(a)), out)

    # k = 3 splits the tied 1.5 triple after rounding
    SPLIT_CLUSTER = rotated(np.array([0.5, 1.5, 1.5, 1.5, 2.0, 2.0]), np.random.default_rng(0))

    def test_split_cluster_takes_lapack_path(self, monkeypatch):
        a = self.SPLIT_CLUSTER
        calls = count_eigh(monkeypatch)
        out = fantope_project(a)
        assert calls == []
        np.testing.assert_allclose(out, exact_fantope_projection(a), atol=1e-8)

    def test_split_cluster_falls_back(self, monkeypatch):
        # a dstein that reports failure, or success with a non-finite entry,
        # hands this one call to np.linalg.eigh; LAPACKE's own NaN check
        # would stop a NaN at dormtr, but not an inf
        def failing(*args):
            return 1

        def writing(value):
            def stub(*args):
                info = dstein(*args)
                args[8][0, 0] = value  # z
                return info
            return stub

        a, dstein = self.SPLIT_CLUSTER, _lapack._LAPACKE["dstein"]
        for stub in (failing, writing(np.nan), writing(np.inf)):
            monkeypatch.setitem(_lapack._LAPACKE, "dstein", stub)
            calls = count_eigh(monkeypatch)
            out = fantope_project(a)
            assert len(calls) == 1
            np.testing.assert_allclose(out, exact_fantope_projection(a), atol=1e-8)
            monkeypatch.undo()

    def test_diagonal_input(self, monkeypatch):
        # a fully split tridiagonal: every off-diagonal entry is zero, so
        # np.linalg.eigh takes the call
        a = np.diag([0.3, 2.0, -1.0, 1.6, 1.2, 0.0])
        assert _lapack.spectrum(a) == (None, None)
        calls = count_eigh(monkeypatch)
        out = fantope_project(a)
        assert len(calls) == 1
        np.testing.assert_allclose(out, np.diag([0, 0.7, 0, 0.3, 0, 0]), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("sizes", [(3, 1, 4), (60, 1, 80, 59), (5, 5)])
    def test_block_diagonal_input(self, sizes, monkeypatch):
        # dense blocks with exact zero coupling split the tridiagonal, so
        # np.linalg.eigh takes the call; two equal sizes repeat one block, so
        # every eigenvalue is tied across the blocks
        rng = np.random.default_rng(21)
        blocks = [rotated(rng.uniform(0.0, 2.0, m), rng) for m in sizes]
        if len(set(sizes)) == 1:
            blocks = blocks[:1] * len(sizes)
        a, off = block_diagonal(blocks)
        expected = exact_fantope_projection(a)
        calls = count_eigh(monkeypatch)
        out = fantope_project(a)
        assert len(calls) == 1
        assert np.all(out[off] == 0.0)
        weight = np.add.reduceat(np.diag(out), np.cumsum((0,) + sizes[:-1]))
        assert np.count_nonzero(weight) >= 2  # the k weighted vectors span blocks
        np.testing.assert_allclose(out, expected, rtol=0.0,
                                   atol=1e-12 * max(1.0, float(np.linalg.norm(a))))

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((0, 0))], ids=["1-d", "0x0"])
    def test_malformed_shape_is_refused_before_lapack(self, a):
        # LAPACK would read an n x n matrix past the end of these buffers
        assert _lapack.spectrum(a) == (None, None)
        with pytest.raises(ConfigError):
            fantope_project(a)

    def test_missing_library_falls_back(self, monkeypatch):
        monkeypatch.setattr(_lapack, "_LAPACKE", None)
        assert _lapack.spectrum(np.eye(2)) == (None, None)
        calls = count_eigh(monkeypatch)
        out = fantope_project(np.diag([0.6, 0.6, 0.0]))
        assert len(calls) == 1
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0]), atol=1e-11)

    @settings(max_examples=300, deadline=None)
    @given(
        # dyadic values repeat often and make max(lam) - 1 exact; the float
        # draws give untied spectra
        lam=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
                               st.floats(-3.0, 3.0)), min_size=1, max_size=12),
        at_cut=st.integers(0, 3),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        # more than one block splits the spectrum into dense diagonal blocks
        # with exact zero coupling
        blocks=st.integers(1, 3),
    )
    def test_agrees_with_eigh_path(self, lam, at_cut, scale, seed, blocks):
        lam = np.array(lam) * scale
        lam = np.append(lam, [lam.max() - 1.0] * at_cut)
        rng = np.random.default_rng(seed)
        parts = [rotated(part, rng) for part in np.array_split(lam, blocks) if part.size]
        a, off = block_diagonal(parts)
        # exact zero coupling splits the tridiagonal; so may a tie within one block
        split = _lapack.spectrum(a)[0] is None
        assert split or len(parts) == 1
        expected = exact_fantope_projection(a) if split else eigh_fallback(a)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_eigh(mp)
            out = fantope_project(a)
        assert len(calls) == split  # np.linalg.eigh takes a split call, and only that
        assert np.all(out[off] == 0.0)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(a)))
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=tol)


def test_suite_runs_one_blas_thread():
    # tests/conftest.py sets the thread count before numpy is imported;
    # numpy ignores a change made after that
    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        pytest.skip("the environment sets another BLAS thread count")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not found:
        pytest.skip("numpy's bundled OpenBLAS is not present")
    get = ctypes.CDLL(str(found[0])).scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    assert get() == 1


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
        m = expected_moment(OneBitCS(0.0), truth) + 0.05 * sym(rng.standard_normal((3, 3)))
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
        m = second_moment(generate_dataset(OneBitCS(math.sqrt(0.1)), truth, 1000, rng))
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

    @pytest.mark.parametrize("start", [1e-9, 1e6])
    def test_in_place_rescale_repeats_dividing_m_afresh(self, start):
        # the instance above: from 1e-9 tau doubles more than 20 times; from 1e6 it halves
        m = sym(np.random.default_rng(12).standard_normal((10, 10)))
        cfg = base_cfg(rho=0.1, admm_penalty=start, admm_tol=1e-300, admm_max_iter=60)
        sol = fantope_admm(m, cfg)
        pi, tau, iterations, updates = reference_fantope_admm(
            m, cfg, sparse_mod.BALANCE_RATIO, sparse_mod.BALANCE_ITERS)
        assert np.array_equal(sol.Pi, pi)
        assert (sol.penalty, sol.iterations, sol.penalty_updates) == (tau, iterations, updates)
        assert updates > 20 if start < 1.0 else tau < start

    def test_threshold_beyond_the_largest_float_runs_as_one_above_every_entry(self):
        # rho / tau overflows to +inf at rho = 1e10; rho = 1e-280 keeps it finite and above
        # every entry of Pi + U, so both runs zero Z at every iteration
        m = sym(np.random.default_rng(12).standard_normal((6, 6)))
        runs = [fantope_admm(m, base_cfg(rho=rho, admm_penalty=1e-300, admm_tol=1e-300,
                                         admm_max_iter=30)) for rho in (1e10, 1e-280)]
        assert np.array_equal(runs[0].Pi, runs[1].Pi)
        assert [(r.penalty, r.penalty_updates, r.stop) for r in runs] == \
            [(runs[1].penalty, runs[1].penalty_updates, "cap")] * 2

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        rho=st.sampled_from([0.0, 0.05, 0.3]),
        max_iter=st.integers(1, 40),
        settle=st.booleans(),
        lapack=st.booleans(),
        data=st.data(),
    )
    def test_solution_carries_the_last_projections_eigenpairs(self, p, seed, rho, max_iter,
                                                             settle, lapack, data):
        # the weights and vectors rebuild Pi, and give sparse_recover what a
        # full eigendecomposition of Pi would
        m = sym(np.random.default_rng(seed).standard_normal((p, p)))
        cfg = base_cfg(rho=rho, s_hat=data.draw(st.integers(1, p)), admm_max_iter=max_iter)
        with pytest.MonkeyPatch.context() as mp:
            if not lapack:
                mp.setattr(_lapack, "_LAPACKE", None)
            sol = fantope_admm(m, cfg, settle=settle)
        w, v = sol.weights, sol.vectors
        assert w.ndim == 1 and v.shape == (p, w.size) and np.all(w > 0.0)
        assert np.all(np.diff(w) >= 0.0)
        np.testing.assert_allclose((v * w) @ v.T, sol.Pi, rtol=0.0, atol=1e-12)
        lam1, lam2, v1 = top_two_eigs(sol.Pi)
        assert w[-1] == pytest.approx(lam1, abs=1e-12)
        assert (w[-2] if w.size > 1 else 0.0) == pytest.approx(lam2, abs=1e-12)
        if lam1 - lam2 > 1e-4:  # else the leading eigenvector is not determined
            np.testing.assert_allclose(sign_normalize(v[:, -1]), v1, rtol=0.0, atol=1e-10)

    def test_non_finite_projection_argument_is_a_numerical_error(self, monkeypatch):
        # the first projection returns a NaN Pi, so the second argument, Z - U + M/tau, is NaN
        calls = []

        def nan_once(a):
            if calls:
                raise AssertionError("a non-finite argument was projected")
            calls.append(a)
            return np.full(a.shape, np.nan), np.ones(1), np.eye(a.shape[0], 1)

        monkeypatch.setattr(sparse_mod, "_fantope_project", nan_once)
        with pytest.raises(NumericalError, match="^fantope_project requires a finite matrix$"):
            fantope_admm(np.eye(3), base_cfg())
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_m_over_penalty_is_refused_by_name(self, monkeypatch):
        # M is finite, but M / tau overflows at a start penalty of 1e-300: no warning,
        # and the error names the call and the setting, before any iteration
        def no_iteration(*args):
            raise AssertionError("ADMM iterated")

        monkeypatch.setattr(sparse_mod, "_fantope_project", no_iteration)
        with pytest.raises(NumericalError, match=r"^fantope_admm requires a finite "
                                                 r"M / admm_penalty, got admm_penalty = 1e-300$"):
            fantope_admm(1e10 * np.eye(3), base_cfg(admm_penalty=1e-300))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_a_halved_penalty_is_refused_by_name(self):
        # M / admm_penalty is finite, but residual balancing halves tau at the
        # first iteration and M / tau overflows: no warning, and the error names
        # the call and the penalty reached
        with pytest.raises(NumericalError, match=r"^fantope_admm requires a finite "
                                                 r"M / penalty, got penalty = 0.5$"):
            fantope_admm(1.7e308 * np.diag([1.0, 0.5, 0.25]), base_cfg(admm_max_iter=200))

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

    @pytest.mark.parametrize("field", ["s_hat", "t_max", "admm_max_iter"])
    @pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["fraction", "bool", "string"])
    def test_integer_settings_refuse_fractions_and_bools(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            SparseConfig(**{"rho": 0.1, "s_hat": 2, field: bad})
        SparseConfig(**{"rho": 0.1, "s_hat": 2, field: np.int64(2)})  # numpy integers pass


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

    def test_support_wider_than_p_is_refused_before_the_first_iteration(self, monkeypatch):
        # such a support never changes, so the rule would settle on nothing
        m = sym(np.random.default_rng(15).standard_normal((4, 4)))
        cfg = base_cfg(s_hat=9)
        unsettled = fantope_admm(m, cfg)  # s_hat is not read without the settle rule
        assert unsettled.iterations == fantope_admm(m, replace(cfg, s_hat=1)).iterations

        def no_iteration(*args):
            raise AssertionError("an ADMM iteration ran")

        monkeypatch.setattr(sparse_mod, "_fantope_project", no_iteration)
        with pytest.raises(ConfigError, match=r"^s_hat must be <= 4, got 9$"):
            fantope_admm(m, cfg, settle=True)

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
            c = 1.0 + 0.5 * (len(calls) % 2)
            return np.outer(d, d) * c, np.array([c]), d[:, None]

        monkeypatch.setattr(sparse_mod, "_fantope_project", project)

    @pytest.mark.parametrize("runs", sorted({1, 3, 5, sparse_mod.SETTLE_RUNS, 8}))
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

    @pytest.mark.parametrize("sine", [5e-3, 2e-2, 0.5])
    def test_swing_on_one_support_settles(self, sine, monkeypatch):
        # the direction swings between e1 and a vector at this sine from it,
        # on the same top-1 support: only the support counts, so every swing
        # settles as early as the rule allows
        self._project_onto(monkeypatch, np.array([1.0, 0.0]),
                           np.array([math.sqrt(1.0 - sine**2), sine]))
        cfg = base_cfg(rho=0.0, s_hat=1, admm_tol=1e-300, admm_max_iter=30)
        sol = fantope_admm(np.eye(2), cfg, settle=True)
        assert (sol.stop, sol.iterations) == ("settled", sparse_mod.SETTLE_RUNS + 1)

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

    def test_settled_start_reaches_the_residual_endpoint(self):
        # A criterion 5 point (cs, sigma = 0, p = 100, s = 5, n = 4000), run as
        # sparse_recover runs it.  The truncated power method, started from the
        # settled initializer and from one run to the residual rule, ends at
        # the same vector (to 1e-8, sign-free) in at least 5 of 8 instances.
        # The share was fixed before this seed was run: it is the lowest seen
        # over 40 batches of 8 at seeds 7000-7039, whose mean share was 0.87
        # under the sine settle rule.  Under the support-only rule at
        # SETTLE_RUNS = 2 the mean share there is 0.55, 23 of the 40 batches
        # fall below 5, and this seed gives exactly 5.
        p, s, n = 100, 5, 4000
        cfg = SparseConfig(rho=math.sqrt(math.log(p) / n), s_hat=2 * s)
        same = 0
        for k in range(8):
            rng = np.random.default_rng([63, k])
            truth = sample_beta_sparse(p, s, rng)
            m = second_moment(generate_dataset(OneBitCS(0.0), truth, n, rng))
            scale = np.trace(m) / p
            ends = []
            for settle in (True, False):
                sol = fantope_admm(m / scale, replace(cfg, rho=cfg.rho / scale), settle=settle)
                assert sol.stop == ("settled" if settle else "residual")
                beta0 = truncate(top_two_eigs(sol.Pi)[2], cfg.s_hat)
                ends.append(truncated_power_method(m, beta0, cfg).beta_hat)
            same += min(np.linalg.norm(ends[0] - ends[1]),
                        np.linalg.norm(ends[0] + ends[1])) <= 1e-8
        assert same >= 5


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

    # a NaN is refused too, though the |.| ordering would drop it
    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf, 0.5], [np.inf, np.inf],
                                   [np.nan, 1.0, 0.0]])
    def test_rejects_infinite_entry(self, v):
        with pytest.raises(NumericalError):
            truncate(np.array(v), 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_vector_beyond_the_range_of_a_norm(self):
        # v @ v overflows above about 1e154: the kept part is rescaled by its
        # largest entry first, and numpy's overflow warning stays silent
        kept = np.array([1e200, 1e199, 0.0]) / 1e200
        np.testing.assert_array_equal(truncate(np.array([1e200, 1e199, 1.0]), 2),
                                      kept / math.sqrt(kept @ kept))

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
            report = sparse_recover(second_moment(data), cfg)
            errs.append(min(np.linalg.norm(report.beta_hat - truth.beta_star),
                            np.linalg.norm(report.beta_hat + truth.beta_star)))
        assert np.median(errs) < 0.6
        assert np.count_nonzero(report.beta_hat) <= 10

    def test_stage_diagnostics_present(self):
        truth, data = self._cs_dataset(3, 30, 400, 41)
        cfg = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50)
        report = sparse_recover(second_moment(data), cfg)
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
        report = sparse_recover(second_moment(data), cfg)
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
            sparse_recover(second_moment(data), cfg)

    def test_vanishing_covariates_are_a_numerical_error(self):
        # tr(M)/p is subnormal here, so rho / (tr(M)/p) overflows
        truth, data = self._cs_dataset(3, 20, 400, 48)
        tiny = Dataset(labels=data.labels, covariates=1e-160 * data.covariates)
        with pytest.raises(NumericalError, match="too small"):
            sparse_recover(second_moment(tiny), SparseConfig(rho=0.05, s_hat=3))

    def test_stop_tolerance_reaches_truncated_power(self):
        truth, data = self._cs_dataset(3, 30, 400, 47)
        loose = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50, tol=0.5)
        m = second_moment(data)
        report = sparse_recover(m, loose)
        scale = np.trace(m) / data.p  # sparse_recover's ADMM runs on (M/s, rho/s)
        init = fantope_admm(m / scale, replace(loose, rho=loose.rho / scale), settle=True)
        beta0 = truncate(sign_normalize(init.vectors[:, -1]), loose.s_hat)
        direct = truncated_power_method(m, beta0, loose)
        np.testing.assert_array_equal(report.beta_hat, direct.beta_hat)
        assert report.iterations == direct.iterations
        default = sparse_recover(m, replace(loose, tol=SparseConfig.tol))
        assert report.iterations < default.iterations

    @pytest.mark.skipif(_lapack._LAPACKE is None, reason="numpy's bundled LAPACK is not present")
    def test_no_eigendecomposition_runs_after_admm(self, monkeypatch):
        # the initializer and the eigengap come from the last projection's
        # eigenpairs, which the LAPACK path computes without np.linalg.eigh.
        # The two sample_moment draws are benchmark points (sparse-capped at
        # s = 10, p = 200; sparse-default at sigma^2 = 0.1, s = 5, p = 100): none
        # of their projections may split the tridiagonal or take the fallback
        truth, data = self._cs_dataset(3, 30, 400, 49)
        cases = [(second_moment(data), SparseConfig(rho=0.05, s_hat=6))]
        for sigma, s, p, max_iter in [(0.0, 10, 200, 75),
                                      (math.sqrt(0.1), 5, 100, SparseConfig.admm_max_iter)]:
            rng = np.random.default_rng([49, s])
            m, _ = sample_moment(OneBitCS(sigma), sample_beta_sparse(p, s, rng), 1000,
                                 "difference", rng)
            cases.append((m, SparseConfig(rho=math.sqrt(math.log(p) / 1000), s_hat=2 * s,
                                          admm_max_iter=max_iter)))
        expected = [sparse_recover(m, cfg) for m, cfg in cases]

        def refuse(*args):
            raise AssertionError("an eigendecomposition ran")

        calls, check = [], sparse_mod.check_matrix
        monkeypatch.setattr(sparse_mod, "top_two_eigs", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(sparse_mod, "check_matrix",
                            lambda *args: calls.append(args[1]) or check(*args))
        for (m, cfg), want in zip(cases, expected):
            calls.clear()
            report = sparse_recover(m, cfg)
            np.testing.assert_array_equal(report.beta_hat, want.beta_hat)
            assert report.stages == want.stages
            assert report.stages["admm_iterations"] > 1
            assert calls == ["sparse_recover", "fantope_admm", "truncated_power_method"]

    def test_rejects_oversized_width(self):
        truth, data = self._cs_dataset(3, 10, 200, 45)
        with pytest.raises(ConfigError):
            sparse_recover(second_moment(data), SparseConfig(rho=0.1, s_hat=11))

    def test_sum_kind_accepted(self):
        truth, data = self._cs_dataset(3, 12, 400, 46)
        cfg = SparseConfig(rho=0.05, s_hat=6, admm_max_iter=50)
        report = sparse_recover(second_moment(data, "sum"), cfg)
        assert np.linalg.norm(report.beta_hat) == pytest.approx(1.0, abs=1e-12)

    # pr at theta = 0.4 has phi < 0, so it takes the sum kind; the others the difference kind
    @pytest.mark.parametrize("model", [OneBitCS(0.0), OneBitCS(0.5),
                                       FlippedLogistic(zeta=0.0, pe=0.1),
                                       OneBitPR(1.0), OneBitPR(0.4)], ids=repr)
    def test_recovers_truth_from_population_moment(self, model):
        # E M has beta* as its top eigenvector, so only the truncated power
        # method's stop rule (tol 1e-10) separates the estimate from it; the
        # worst error over these 20 seeds was 9.1e-10
        p, s = 100, 5
        kind = select_matrix_kind(model)
        cfg = SparseConfig(rho=math.sqrt(math.log(p) / 1000), s_hat=2 * s)
        for seed in range(20):
            truth = sample_beta_sparse(p, s, [64, seed])
            beta = sparse_recover(expected_moment(model, truth, kind), cfg).beta_hat
            assert min(np.linalg.norm(beta - truth.beta_star),
                       np.linalg.norm(beta + truth.beta_star)) <= 1e-8

    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_matrix_refused_before_admm(self, bad, at, monkeypatch):
        def no_iteration(*args):
            raise AssertionError("an ADMM iteration ran")

        monkeypatch.setattr(sparse_mod, "_fantope_project", no_iteration)
        m = np.eye(4)
        m[at] = m[at[::-1]] = bad
        with pytest.raises(NumericalError, match="finite"):
            sparse_recover(m, SparseConfig(rho=0.1, s_hat=2))

    def test_scalar_dimension_refused_before_admm(self, monkeypatch):
        def no_iteration(*args):
            raise AssertionError("an ADMM iteration ran")

        monkeypatch.setattr(sparse_mod, "_fantope_project", no_iteration)
        with pytest.raises(ConfigError, match="^p must be >= 2, got 1$"):
            sparse_recover(np.ones((1, 1)), SparseConfig(rho=0.1, s_hat=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_matrix_beyond_the_range_of_a_norm(self):
        # entries above about 1e154 overflow a Frobenius norm and v @ v, yet
        # are finite: each stage takes them, and still sees an asymmetry
        m = np.diag([1e200, 1e199, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        report = sparse_recover(m, SparseConfig(rho=0.1, s_hat=2))
        np.testing.assert_array_equal(report.beta_hat, e1)
        np.testing.assert_array_equal(fantope_project(m), np.outer(e1, e1))
        assert fantope_admm(m, SparseConfig(rho=0.1, s_hat=2)).stop == "residual"
        m[0, 1] = 1e195
        with pytest.raises(ConfigError, match="symmetric"):
            fantope_project(m)
