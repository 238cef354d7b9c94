"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a ``[criterion N]`` line with the measured quantities before
asserting, so a plain ``pytest tests/test_acceptance.py -v -rA`` gives one
pass/fail line per criterion plus the numbers behind it.

Criteria 1, 3b and 4 compare sample quantities with population values, which
the estimator reaches only once n is large enough for the link at hand; each
derives its n from ``moments``, ``theory_diagnostics`` or the spiked-Wishart
oracle instead of pinning one n for every link.

Budget notes: the heavy experiments (criteria 4 and 5) run once in
module-scoped fixtures and are shared by the tests that grade them.  Wall
times measured on a 2-vCPU machine with OpenBLAS on one thread (the
conftest's default) and nothing else running: criterion 3b 0.5 s,
the criterion 5 fixture 8.4-9.1 s, and this file 14.9-15.9 s, in three runs
alternated with three of the same code drawing a full ``Dataset`` for each
sparse trial, which took 10.2-10.5 s and 16.1-16.7 s.  Earlier, with that
draw, the support-only settle rule had measured 8.7-10.8 s and 14-17.5 s,
against 18.8-20.5 s and 24-27 s for the settle rule before it (a sine below
1e-2 as well, five runs); with a sine below 1e-3 it had taken about twice
that.  Criteria 1 and 4
draw their moment matrices through ``sample_moment``: measured separately on
the same machine, criterion 1 took 2.0-2.2 s.  The criterion 4 fixture,
whose power loop steps by M^16, took 2.9-3.6 s in three runs alternated with
three of the one-multiply loop before it, which took 7.1-8.0 s; inside a
whole-suite run it took 2.2 s.  Since the labels and weighted pairs are
drawn in branch-free passes it took 1.6-2.7 s, in six runs alternated
with six of the draw before, which took 2.5-2.8 s.  The same machine has run the same code
about twice as slowly, and a second job sharing its cores slows it further.
Since that machine got faster, the fixture took 0.85-1.25 s with steps of
M^16 and 0.67-1.09 s with steps of M^64, then M^16, then M, and labels drawn
into the buffer of f(z), in twelve runs of each side alternated (faster in
11 of the 12 pairs).  With ``lowdim``'s one exact ``eigh`` in place of that
power loop it took 1.4-2.0 s, against 1.4-2.1 s for the loop, in four runs
of each side alternated: the draw, not the solve, sets its time.
With ``sparse_recover``'s Fantope stage run on the K = 4 s_hat largest-diagonal
block of M (K = 40 or 80 on this grid), not on all p coordinates, the
criterion 5 fixture took 2.3 s in each of three runs, against 6.6-7.3 s for
the unscreened program, in three runs alternated with them; its R^2 read
0.9774 against 0.9069.  With the truncated power method finished by one
s_hat x s_hat eigensolve once its support settles, the grid's
truncated-power multiplies fell from 17,795 to 1,308 and its R^2 stayed
0.9774 (0.9762 at seed 70003), but the fixture's time did not move beyond
the host's spread: 1.3-1.8 s against 1.6-1.8 s for the plain loop, in four
runs of each alternated.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bitspectral import (
    FlippedLogistic,
    select_matrix_kind,
    OneBitCS,
    OneBitPR,
    RunConfig,
    SparseConfig,
    default_config,
    estimation_error,
    expected_moment,
    fantope_project,
    generate_dataset,
    moments,
    power_method,
    rows_to_csv,
    run_experiment,
    sample_beta_dense,
    sample_beta_sparse,
    second_moment,
    sparse_recover,
    theory_diagnostics,
    theta_median,
)
from bitspectral.harness import _make_model, eigs_trial, trial_rng

from _oracles import (
    exact_fantope_projection,
    random_fantope_point,
    spiked_wishart_top_two,
    split_domain_moment,
)

SEED = 0

MODEL_DEFAULTS = {
    "flr": dict(pe=(0.1,)),
    "cs": dict(sigma=(math.sqrt(0.1),)),
    "pr": dict(theta=(1.0,)),
}


def cfg_with(experiment, model, **kw):
    base = default_config(experiment, model)
    merged = {**base.__dict__, "seed": SEED, **MODEL_DEFAULTS[model], **kw}
    return RunConfig(**merged)


def op_norm(a):
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def median_signfree(rows, **match):
    vals = [r.err_signfree for r in rows
            if all(getattr(r, k) == v for k, v in match.items())]
    return float(np.median(vals))


# ---------------------------------------------------------------- criterion 1

EIGS_PINNED_N = 3000
ORACLE_DRAWS = 2000


def eigs_summary(grid, n, p, trials):
    """Per-pe means of lambda2/4 and of the gap (lambda1 - lambda2)/4, and the run time."""
    started = time.perf_counter()
    rows = run_experiment(cfg_with("eigs", "flr", pe=grid, n=(n,), p=(p,), trials=trials))
    elapsed = time.perf_counter() - started
    lam2, gap = [], []
    for pe in grid:
        sub = [r for r in rows if r.param_value == pe]
        lam2.append(float(np.mean([r.lambda2_over4 for r in sub])))
        gap.append(float(np.mean([r.lambda1_over4 - r.lambda2_over4 for r in sub])))
    return lam2, gap, elapsed


def test_criterion_01_eigenstructure_replication():
    grid = (0.0, 0.1, 0.2, 0.3, 0.4)
    p = 20
    summaries = [moments(FlippedLogistic(0.0, pe)) for pe in grid]

    def oracle(n):
        rng = np.random.default_rng([SEED, 1, n])
        return [spiked_wishart_top_two(n, p, s.mu0, s.phi, ORACLE_DRAWS, rng)
                for s in summaries]

    # Only the n(1 - mu0^2)/4 pairs with differing labels carry weight, so
    # lambda2/4 sits near the Marchenko-Pastur edge (1 + sqrt((p-1)/n_eff))^2
    # times (1 - mu0^2), not at (1 - mu0^2).  Grow the pinned n by factors of
    # 4 (halving sqrt(p/n)) until that edge lies inside the band for every pe.
    def worst_edge(n):
        bases = [1.0 - s.mu0**2 for s in summaries]
        return max(b * (1.0 + math.sqrt((p - 1) / (n * b / 4.0))) ** 2 for b in bases)

    n = EIGS_PINNED_N
    while worst_edge(n) > 1.1:
        n *= 4
    # 40 trials: with 10, the standard error of the weakest gaps is 15-25% of the gap.
    pinned_lam2, _, pinned_elapsed = eigs_summary(grid, EIGS_PINNED_N, p, trials=10)
    lam2_means, gap_means, elapsed = eigs_summary(grid, n, p, trials=40)
    elapsed += pinned_elapsed

    pinned_oracle_lam2 = [l2 for _, l2 in oracle(EIGS_PINNED_N)]
    pinned_dev = [abs(m - o) / o for m, o in zip(pinned_lam2, pinned_oracle_lam2)]
    oracle_gaps = [l1 - l2 for l1, l2 in oracle(n)]
    rel = [abs(g - o) / o for g, o in zip(gap_means, oracle_gaps)]
    must_drop = [b < 0.75 * a for a, b in zip(oracle_gaps, oracle_gaps[1:])]
    print(f"[criterion 1] pinned n={EIGS_PINNED_N}: lambda2/4 means="
          f"{np.round(pinned_lam2, 4).tolist()} oracle={np.round(pinned_oracle_lam2, 4).tolist()} "
          f"rel dev={np.round(pinned_dev, 4).tolist()}; n={n} (edge {worst_edge(n):.4f}): "
          f"lambda2/4 means={np.round(lam2_means, 4).tolist()} "
          f"gap means={np.round(gap_means, 4).tolist()} "
          f"oracle gaps={np.round(oracle_gaps, 4).tolist()} rel gap err={np.round(rel, 3).tolist()} "
          f"phi={np.round([s.phi for s in summaries], 4).tolist()} "
          f"ordered where oracle drops >25%: {must_drop} elapsed={elapsed:.1f}s")
    assert elapsed < 60.0
    assert all(d <= 0.03 for d in pinned_dev), \
        f"pinned-n second eigenvalue off the spiked-Wishart oracle: {pinned_dev}"
    assert all(0.9 <= m <= 1.1 for m in lam2_means), \
        f"second-eigenvalue band violated: {lam2_means}"
    assert all(r <= 0.25 for r in rel), \
        f"gap not within 25% of the oracle gap: rel errors {rel}"
    assert all(a > b for a, b, drop in zip(gap_means, gap_means[1:], must_drop) if drop), \
        f"gap means not strictly decreasing where the oracle drops: {gap_means}"


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_population_oracle_concentration():
    started = time.perf_counter()
    n, p = 50_000, 10
    cases = [
        (FlippedLogistic(0.0, 0.1), "difference"),
        (OneBitCS(math.sqrt(0.1)), "difference"),
        (OneBitPR(theta_median() / 2.0), "sum"),
    ]
    ratios = []
    for i, (model, kind) in enumerate(cases):
        rng = np.random.default_rng([SEED, 2, i])
        truth = sample_beta_dense(p, rng)
        data = generate_dataset(model, truth, n, rng)
        m = second_moment(data, kind)
        em = expected_moment(model, truth, kind=kind)
        ratios.append(op_norm(m - em) / op_norm(em))
    elapsed = time.perf_counter() - started
    print(f"[criterion 2] relative operator errors={np.round(ratios, 4).tolist()} "
          f"elapsed={elapsed:.1f}s")
    assert elapsed < 30.0
    assert all(r <= 0.1 for r in ratios), ratios


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_phi_sign_flip():
    tm = theta_median()
    assert tm == pytest.approx(0.6744897501960817, abs=1e-9)
    below = [moments(OneBitPR(tm - d)).phi for d in (0.05, 0.5)]
    above = [moments(OneBitPR(tm + d)).phi for d in (0.05, 0.5)]
    print(f"[criterion 3a] phi below median threshold={np.round(below, 5).tolist()} "
          f"above={np.round(above, 5).tolist()}")
    assert all(v < 0 for v in below) and all(v > 0 for v in above)


def admissible_xi(phi, base):
    """The perturbation level xi of ``theory_diagnostics`` for E[M]/4 = phi bb^T + base I."""
    gamma = (base / (phi + base) + 1.0) / 2.0
    return (gamma * phi + (gamma - 1.0) * base) / ((1.0 + gamma) * (phi + base))


def test_criterion_03_recovery_on_both_sides():
    tm = theta_median()
    n_above, p = 20_000, 10
    # False-alarm rule, fixed before the trial count was sized: each side runs
    # the smallest odd number of trials whose median error exceeds the 0.15
    # bound with probability below 1% on working code.  That probability is
    # estimated by resampling 300 trials per side, drawn outside this test's
    # streams, and the larger of the two counts serves both sides.  Measured:
    # 5 trials below (0.96%) and 19 above (0.80%; 5 trials there gave 10%).
    trials = 19
    # The error scales like sqrt(p/n)/xi.  The sum-kind matrix below theta_m
    # has gap |phi| over a base 1 + mu0^2, hence a smaller xi than the above
    # side; give it the n that matches the above side's sqrt(p/n)/xi.
    above = moments(OneBitPR(1.0))
    below = moments(OneBitPR(tm / 2.0))
    xi_above = theory_diagnostics(OneBitPR(1.0), p).xi
    assert admissible_xi(above.phi, 1.0 - above.mu0**2) == pytest.approx(xi_above, rel=1e-12)
    xi_below = admissible_xi(abs(below.phi), 1.0 + below.mu0**2)
    n_below = 2 * round(n_above * (xi_above / xi_below) ** 2 / 2)
    results = {}
    for side, theta, n in (("below", tm / 2.0, n_below), ("above", 1.0, n_above)):
        kind_errs = []
        for t in range(trials):
            rng = np.random.default_rng([SEED, 3, int(side == "above"), t])
            model = OneBitPR(theta)
            truth = sample_beta_dense(p, rng)
            data = generate_dataset(model, truth, n, rng)
            kind = select_matrix_kind(model)
            mtx = second_moment(data, kind)
            b0 = rng.standard_normal(p)
            b0 /= np.linalg.norm(b0)
            report = power_method(mtx, b0)
            kind_errs.append(estimation_error(report.beta_hat, truth.beta_star, True))
        results[side] = float(np.median(kind_errs))
    print(f"[criterion 3b] median sign-invariant errors: "
          f"theta<theta_m -> {results['below']:.4f} at n={n_below} "
          f"(xi {xi_below:.4f}, (xi_above/xi_below)^2={(xi_above / xi_below) ** 2:.3f}), "
          f"theta>theta_m -> {results['above']:.4f} at n={n_above} (xi {xi_above:.4f})")
    assert results["above"] < 0.15, results
    assert results["below"] < 0.15, results


# ---------------------------------------------------------------- criterion 4

LOWDIM_P = 20


def rate_grid(model):
    """xi and n = p/xi^2 x {1/4, 1, 4}, rounded to even, for the model's link.

    The sqrt(p/n) rate sets in once the relative perturbation sqrt(p/n) of
    the moment matrix is below the admissible level xi; the grid straddles
    that point by a factor of 4 each way.
    """
    (value,), = MODEL_DEFAULTS[model].values()
    xi = theory_diagnostics(_make_model(cfg_with("lowdim", model), value), LOWDIM_P).xi
    core = LOWDIM_P / xi**2
    return xi, tuple(2 * round(core * f / 2) for f in (0.25, 1.0, 4.0))


@pytest.fixture(scope="module")
def lowdim_results():
    started = time.perf_counter()
    grids = {model: rate_grid(model) for model in ("flr", "cs", "pr")}
    slope_rows = {
        model: run_experiment(cfg_with("lowdim", model, n=ns, p=(LOWDIM_P,), trials=100))
        for model, (_, ns) in grids.items()
    }
    collapse_rows = {
        model: (
            run_experiment(cfg_with("lowdim", model, n=(2500,), p=(10,), trials=100)),
            run_experiment(cfg_with("lowdim", model, n=(5000,), p=(20,), trials=100)),
        )
        for model in ("flr", "cs", "pr")
    }
    return grids, slope_rows, collapse_rows, time.perf_counter() - started


@pytest.mark.parametrize("model", ["cs", "pr", "flr"])
def test_criterion_04_lowdim_rate(model, lowdim_results):
    grids, slope_rows, _, _ = lowdim_results
    xi, ns = grids[model]
    medians = [median_signfree(slope_rows[model], n=n) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    print(f"[criterion 4:{model}] xi={xi:.4f} n grid={ns} medians={np.round(medians, 4).tolist()} "
          f"log-log slope={slope:.3f}")
    assert -0.6 <= slope <= -0.4, (model, ns, medians, slope)


@pytest.mark.parametrize("model", ["cs", "pr", "flr"])
def test_criterion_04_equal_ratio_collapse(model, lowdim_results):
    _, _, collapse_rows, _ = lowdim_results
    a, b = collapse_rows[model]
    m1, m2 = median_signfree(a), median_signfree(b)
    ratio = max(m1, m2) / min(m1, m2)
    print(f"[criterion 4:{model}] equal p/n medians {m1:.4f} vs {m2:.4f} "
          f"(ratio {ratio:.3f})")
    assert ratio <= 1.25, (model, m1, m2)


@pytest.mark.parametrize("model", ["cs", "flr"])
def test_criterion_04_sign_from_first_moment(model, lowdim_results):
    # mu1 > 0 for these links, so <beta_hat, X^T y> fixes the sign once n >= p/xi^2
    grids, slope_rows, _, _ = lowdim_results
    _, ns = grids[model]
    rows = [r for r in slope_rows[model] if r.n >= ns[1]]
    agree = sum(r.err == r.err_signfree for r in rows) / len(rows)
    print(f"[criterion 4:{model}] err == err_signfree on {agree:.1%} of "
          f"{len(rows)} trials at n={ns[1:]}")
    assert agree >= 0.99, (model, agree)


def test_criterion_04_runtime(lowdim_results):
    *_, elapsed = lowdim_results
    print(f"[criterion 4] total experiment time {elapsed:.1f}s")
    assert elapsed < 180.0


# ---------------------------------------------------------------- criterion 5

SPARSE_ADMM_CAP = 75  # initializer budget; it only has to reach the basin


@pytest.fixture(scope="module")
def sparse_results():
    started = time.perf_counter()
    shared = dict(sigma=(0.0,), n=(1000, 4000), trials=50,
                  admm_max_iter=SPARSE_ADMM_CAP)
    rows = run_experiment(cfg_with("sparse", "cs", s=(5,), p=(100, 200), **shared))
    rows += run_experiment(cfg_with("sparse", "cs", s=(10,), p=(200,), **shared))
    return rows, time.perf_counter() - started


def test_criterion_05_sparse_rate_linear_in_abscissa(sparse_results):
    rows, elapsed = sparse_results
    points = sorted({(r.s, r.p, r.n) for r in rows})
    xs, ys = [], []
    for s, p, n in points:
        xs.append(math.sqrt(s * math.log(p) / n))
        ys.append(median_signfree(rows, s=s, p=p, n=n))
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(ys), rcond=None)
    resid = np.asarray(ys) - design @ coef
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((ys - np.mean(ys)) ** 2))
    print(f"[criterion 5] grid={points} medians={np.round(ys, 4).tolist()} "
          f"fit={coef[0]:.3f}x+{coef[1]:.3f} R2={r2:.4f} elapsed={elapsed:.1f}s")
    assert len(points) == 6
    assert r2 >= 0.9, (points, ys, r2)


def test_criterion_05_degenerate_width_matches_dense(sparse_results):
    _, elapsed_grid = sparse_results
    started = time.perf_counter()
    p = 20
    cfg = SparseConfig(rho=0.0, s_hat=p, admm_max_iter=200)
    run_cfg = cfg_with("sparse", "cs", sigma=(0.0,), s=(p,), p=(p,), n=(2000,), trials=10)
    worst = 0.0
    for t in range(run_cfg.trials):
        rng = trial_rng(run_cfg, 0.0, 2000, p, p, t)
        truth = sample_beta_sparse(p, p, rng)
        data = generate_dataset(OneBitCS(0.0), truth, 2000, rng)
        via_pipeline = sparse_recover(second_moment(data), cfg).beta_hat
        b0 = rng.standard_normal(p)
        b0 /= np.linalg.norm(b0)
        via_power = power_method(second_moment(data), b0).beta_hat
        worst = max(worst, float(np.linalg.norm(via_pipeline - via_power)))
    elapsed = time.perf_counter() - started
    print(f"[criterion 5] degenerate-width max deviation from the dense path: "
          f"{worst:.2e}; total sparse time {elapsed_grid + elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed_grid + elapsed < 300.0


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_fantope_projection_oracle():
    rng = np.random.default_rng([SEED, 6])
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((8, 8)) * rng.uniform(0.2, 4.0)
        a = 0.5 * (a + a.T)
        worst = max(worst, float(np.max(np.abs(
            fantope_project(a) - exact_fantope_projection(a)))))
    idem = 0.0
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        proj = fantope_project(0.5 * (a + a.T))
        idem = max(idem, float(np.max(np.abs(fantope_project(proj) - proj))))
    kkt = -math.inf
    for _ in range(50):
        a = rng.standard_normal((6, 6)) * 2.0
        a = 0.5 * (a + a.T)
        proj = fantope_project(a)
        for _ in range(200):
            other = random_fantope_point(6, rng)
            kkt = max(kkt, float(np.sum((a - proj) * (other - proj))))
    print(f"[criterion 6] oracle deviation={worst:.2e} idempotence={idem:.2e} "
          f"worst KKT inner product={kkt:.2e}")
    assert worst <= 1e-8
    assert idem <= 1e-10
    assert kkt <= 1e-8


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_power_method_contract():
    rng = np.random.default_rng([SEED, 7])
    worst_drop = 0.0
    for _ in range(20):
        a = rng.standard_normal((20, 20))
        m = a @ a.T / 20.0
        b0 = rng.standard_normal(20)
        b0 /= np.linalg.norm(b0)
        r = power_method(m, b0, t_max=100, tol=0.0).rayleigh_trace
        drops = np.diff(r) + 1e-10 * np.abs(r[:-1])
        worst_drop = min(worst_drop, float(np.min(drops)))
    m = np.diag([3.0, 1.0, 1.0])
    b0 = np.array([0.8, 0.6, 0.0])
    envelope = math.sqrt((1.0 - 0.8**2) / 0.8**2)
    e1 = np.array([1.0, 0.0, 0.0])
    margins = []
    for t in range(1, 9):
        bt = power_method(m, b0, t_max=t, tol=0.0).beta_hat
        margins.append(envelope * (1.0 / 3.0) ** t - float(np.linalg.norm(bt - e1)))
    print(f"[criterion 7] worst Rayleigh decrease={worst_drop:.2e}; "
          f"envelope margins per iterate={np.round(margins, 6).tolist()}")
    assert worst_drop >= 0.0
    assert all(m >= 0.0 for m in margins)


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_determinism_and_order_independence():
    cfg = cfg_with("eigs", "flr", pe=(0.0, 0.2), n=(600,), p=(8,), trials=6)
    first = rows_to_csv(run_experiment(cfg))
    second = rows_to_csv(run_experiment(cfg))
    jobs = [(v, t) for v in cfg.pe for t in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        computed = list(pool.map(lambda j: eigs_trial(cfg, j[0], None, cfg.p[0], cfg.n[0], j[1]),
                                 reversed(jobs)))
    parallel = rows_to_csv(list(reversed(computed)))
    print(f"[criterion 8] rerun identical={first == second} "
          f"parallel identical={parallel == first}")
    assert first == second
    assert parallel == first


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_moment_crosschecks():
    worst_flr = 0.0
    for pe in (0.0, 0.1, 0.2, 0.3, 0.4):
        lo = moments(FlippedLogistic(0.0, pe), quad_order=64)
        hi = moments(FlippedLogistic(0.0, pe), quad_order=200)
        worst_flr = max(worst_flr, abs(lo.phi - hi.phi), abs(lo.mu1 - hi.mu1),
                        abs(lo.mu0 - hi.mu0), abs(lo.mu2 - hi.mu2))
    worst_cs = 0.0
    for sigma in (0.5, 1.0, 2.0):
        closed = moments(OneBitCS(sigma)).mu1
        split = split_domain_moment(
            lambda z: 2.0 * 0.5 * (1.0 + math.erf(z / sigma / math.sqrt(2.0))) - 1.0, 1)
        worst_cs = max(worst_cs, abs(closed - split))
    print(f"[criterion 9] quadrature-order disagreement={worst_flr:.2e}; "
          f"closed-form vs split quadrature={worst_cs:.2e}")
    assert worst_flr <= 1e-6
    assert worst_cs <= 1e-8
