"""Equivariance of the estimators under pair swaps, rotations and signed permutations.

Swapping the two members of a pair negates its covariate difference, so the
second moments do not change at all.  Rotating the covariates by an orthogonal
Q rotates the moment to Q M Q^T, and the power method's iterates with it.  The
sparse path's l1 penalty and truncation are invariant only under signed
permutations, so that is the group its property is stated for.  The iterative
stages run a fixed number of steps (zero tolerances), so both sides of each
comparison take the same path.  The settle rule of ``fantope_admm`` decides
its own stop, so its property also checks that both sides stop alike.
Scaling the covariates by a power of two c scales M by c^2 exactly, and
``sparse_recover`` runs ADMM on M/s with s = tr(M)/p, so with rho scaled by
c^2 the whole sparse path repeats itself bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitspectral import (
    Dataset,
    NumericalError,
    OneBitCS,
    SparseConfig,
    fantope_admm,
    generate_dataset,
    power_method,
    sample_beta_dense,
    sample_beta_sparse,
    second_moment,
    second_moment_sum,
    sparse_recover,
)

# Worst distance between the two sides, measured over 30 dense and 430 sparse
# seeded runs in ranges like those drawn below: 1.5e-14 (dense) and 9.9e-16
# (sparse); 7.5e-15 for the entries of Pi over 400 runs of the settle rule.
DENSE_ATOL = 1e-9
SPARSE_ATOL = 1e-10


def unit(v):
    return v / np.linalg.norm(v)


def signfree_distance(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.integers(1, 40),
    p=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pair_swap_leaves_moments_bit_identical(pairs, p, seed, data):
    rng = np.random.default_rng(seed)
    labels = rng.choice(np.array([-1, 1]), 2 * pairs)
    x = rng.standard_normal((2 * pairs, p))
    swap = data.draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    order = np.arange(2 * pairs).reshape(pairs, 2)
    order[swap] = order[swap][:, ::-1]
    order = order.ravel()
    plain = Dataset(labels=labels, covariates=x)
    swapped = Dataset(labels=labels[order], covariates=x[order])
    for build in (second_moment, second_moment_sum):
        assert np.array_equal(build(plain), build(swapped))


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(2, 8),
    pairs=st.integers(5, 60),
    t_max=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_path_rotates_with_the_covariates(p, pairs, t_max, seed):
    rng = np.random.default_rng(seed)
    data = generate_dataset(OneBitCS(0.3), sample_beta_dense(p, rng), 2 * pairs, rng)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    rotated = Dataset(labels=data.labels, covariates=data.covariates @ q.T)
    m = second_moment(data)
    m_rot = second_moment(rotated)
    scale = float(np.linalg.norm(m))
    assert np.max(np.abs(m_rot - q @ m @ q.T)) <= 1e-12 * scale
    b0 = unit(rng.standard_normal(p))
    try:
        beta = power_method(m, b0, t_max=t_max, tol=0.0).beta_hat
    except NumericalError:  # every pair has equal labels: M = 0 on both sides
        assert not np.any(m_rot)
        return
    beta_rot = power_method(m_rot, q @ b0, t_max=t_max, tol=0.0).beta_hat
    assert signfree_distance(beta_rot, q @ beta) <= DENSE_ATOL


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 12),
    s=st.integers(1, 4),
    pairs=st.integers(10, 150),
    rho=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sparse_path_follows_a_signed_permutation(p, s, pairs, rho, seed, data):
    s = min(s, p)
    s_hat = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    sample = generate_dataset(OneBitCS(0.3), sample_beta_sparse(p, s, rng), 2 * pairs, rng)
    perm = rng.permutation(p)
    signs = rng.choice(np.array([-1.0, 1.0]), p)
    moved = Dataset(labels=sample.labels, covariates=sample.covariates[:, perm] * signs)
    # a fixed number of ADMM and truncated-power steps: neither tolerance can be met
    cfg = SparseConfig(rho=rho, s_hat=s_hat, t_max=20, tol=0.0,
                       admm_tol=1e-300, admm_max_iter=30)
    try:
        beta = sparse_recover(second_moment(sample), cfg).beta_hat
    except NumericalError:  # every pair has equal labels
        return
    beta_moved = sparse_recover(second_moment(moved), cfg).beta_hat
    assert signfree_distance(beta_moved, beta[perm] * signs) <= SPARSE_ATOL


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 12),
    s=st.integers(1, 4),
    pairs=st.integers(10, 150),
    rho=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_settle_rule_follows_a_signed_permutation(p, s, pairs, rho, seed, data):
    s = min(s, p)
    s_hat = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    sample = generate_dataset(OneBitCS(0.3), sample_beta_sparse(p, s, rng), 2 * pairs, rng)
    perm = rng.permutation(p)
    signs = rng.choice(np.array([-1.0, 1.0]), p)
    moved = Dataset(labels=sample.labels, covariates=sample.covariates[:, perm] * signs)
    m = second_moment(sample)
    if not np.any(m):  # every pair has equal labels
        return
    cfg = SparseConfig(rho=rho, s_hat=s_hat)
    sol = fantope_admm(m, cfg, settle=True)
    sol_moved = fantope_admm(second_moment(moved), cfg, settle=True)
    assert (sol_moved.stop, sol_moved.iterations) == (sol.stop, sol.iterations)
    expected = sol.Pi[np.ix_(perm, perm)] * np.outer(signs, signs)
    assert np.max(np.abs(sol_moved.Pi - expected)) <= SPARSE_ATOL


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 12),
    s=st.integers(1, 4),
    pairs=st.integers(10, 150),
    rho=st.just(0.0) | st.floats(1e-6, 0.2),  # rho * c**2 stays exact: no subnormals
    c=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sparse_path_ignores_the_scale_of_the_covariates(p, s, pairs, rho, c, seed, data):
    s = min(s, p)
    s_hat = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    sample = generate_dataset(OneBitCS(0.3), sample_beta_sparse(p, s, rng), 2 * pairs, rng)
    scaled = Dataset(labels=sample.labels, covariates=c * sample.covariates)
    cfg = SparseConfig(rho=rho, s_hat=s_hat)
    try:
        report = sparse_recover(second_moment(sample), cfg)
    except NumericalError:  # every pair has equal labels
        return
    report_scaled = sparse_recover(second_moment(scaled), replace(cfg, rho=rho * c**2))
    np.testing.assert_array_equal(report_scaled.beta_hat, report.beta_hat)
    for key in ("admm_iterations", "admm_stop"):
        assert report_scaled.stages[key] == report.stages[key]
