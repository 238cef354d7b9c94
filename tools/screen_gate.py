"""Paired gates for the sparse path's shortcuts, and the records they write.

    python tools/screen_gate.py gate [--out BENCH_screen.json]
    python tools/screen_gate.py finish [--out BENCH_tpm_finish.json]
    python tools/screen_gate.py lapack [--out BENCH_screen.json]
    python tools/screen_gate.py bench BASE HEAD [--out BENCH_screen.json]

Run from the root of a checkout; the package is imported from its ``src/``,
with one BLAS thread.  Each subcommand rewrites one key of the JSON record
(``gate``, ``finish``, ``lapack`` or ``benchmark``) and keeps the others, so
a record holds everything in one layout.  ``gate`` names its record
``screen``, ``finish`` names its own ``tpm_finish``; each writes its rule
beside it.  ``bench`` runs ``PAIRS`` (10) alternated pairs per workload.
``gate``, ``finish`` and the counts of ``lapack`` are deterministic: run
again, ``gate`` and ``finish`` write the same bytes.

The rule of ``gate``, fixed before any run:

* Arms.  K = p, the Fantope stage on all of M (``sparse_recover`` as it ran
  before screening, got here by setting ``sparse.SCREEN_FACTOR`` so large that
  K = p), and K = min(p, 4 s_hat), ``sparse_recover`` as shipped.  Both arms
  run ``harness.sparse_trial`` on the same ``sample_moment`` draw for each
  ``harness.trial_rng`` key, with s_hat = 2s, rho = sqrt(log p / n) and the
  truncated power method's defaults.  The paired value is each row's
  ``err_signfree``.
* Points (14), all ``cs`` unless named, s = 5 and p = 100 unless named:
  the criterion 5 grid, sigma = 0 and ``admm_max_iter`` 75, (s, p) in
  {(5, 100), (5, 200), (10, 200)} x n in {1000, 4000}; the ``sparse-default``
  grid, sigma = sqrt(0.1) and n in {1000, 2000, 4000}; ``pr`` theta = 1 at
  n in {4000, 16000}; ``pr`` theta = 0.4 with the sum kind at n = 16000;
  ``flr`` pe = 0.1 at n in {40000, 160000}.  Outside criterion 5, ADMM runs
  at the program's defaults.
* Seeds 170000-170003, 50 trials per point per seed: 200 pairs per point,
  2,800 in all.
* Test.  A pair is worse when the screened arm's error is above the
  unscreened one's, better when below, and a tie (equal floats) is dropped.
  The one-sided sign test of "screened worse" has the p-value
  P(X >= worse), X ~ Binomial(worse + better, 1/2), computed exactly.  It
  rejects at level a when that p-value is at most a.
* Decision.  Pass only if the test does not reject at 0.05 pooled over all
  pairs, and does not reject at 0.05/14 at any single point.  If the gate
  fails, no other K is tried, and no screening ships.

The rule of ``finish``, fixed before any run:

* Arms.  The plain truncated power loop, which multiplies and truncates
  until ``tol`` or ``t_max`` (composed here from ``spectral._power_iterate``
  and ``sparse.truncate`` and set in place of
  ``sparse.truncated_power_method``), and ``truncated_power_method`` as
  shipped, which replaces the iterate by the top eigenvector of M[S, S] once
  its support S has settled.  Both arms run ``harness.sparse_trial`` on the
  same ``sample_moment`` draw for each ``harness.trial_rng`` key, with
  s_hat = 2s, rho = sqrt(log p / n), ``tol`` 1e-10 and ``t_max`` 500; the
  start beta0 that ADMM hands to either arm is checked to be the same bytes.
  The paired value is each row's ``err_signfree``; each arm's ``iters``
  (truncated-power multiplies) are summed per point and pooled.
* Points: the 14 of ``gate``.
* Seeds 180000-180003, 50 trials per point per seed: 200 pairs per point,
  2,800 in all.
* Test.  A pair is moved when |finished - plain| > 1e-8 in ``err_signfree``.
  A moved pair is worse when the finished arm's error is above the plain
  one's, better when below.  Over the moved pairs, the one-sided exact sign
  test of "finish worse" is the test of ``gate``.  The largest |difference|
  over the unmoved pairs is reported too.
* Decision.  Pass only if the test does not reject at 0.05 pooled over all
  moved pairs, and does not reject at 0.05/14 at any single point.  If the
  gate fails, no finish ships.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # imported as a module, the caller's environment and path stand
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bitspectral import _lapack, cli, harness, sample_moment, sparse, spectral  # noqa: E402

SQRT_01 = math.sqrt(0.1)
CAPPED = {"admm_max_iter": 75}
# (model, noise field, noise value, s, p, n, extra RunConfig fields)
POINTS = [
    *[("cs", "sigma", 0.0, s, p, n, CAPPED)
      for s, p in [(5, 100), (5, 200), (10, 200)] for n in (1000, 4000)],
    *[("cs", "sigma", SQRT_01, 5, 100, n, {}) for n in (1000, 2000, 4000)],
    *[("pr", "theta", 1.0, 5, 100, n, {}) for n in (4000, 16000)],
    ("pr", "theta", 0.4, 5, 100, 16000, {"matrix": "sum"}),
    *[("flr", "pe", 0.1, 5, 100, n, {}) for n in (40000, 160000)],
]
SEEDS = (170000, 170001, 170002, 170003)
TRIALS = 50
PAIRS = 10  # alternated base/head pairs per workload in ``bench``
LEVEL = 0.05
RULE = {
    "arms": {"unscreened": "K = p", "screened": "K = min(p, 4 s_hat), s_hat = 2s"},
    "value": "err_signfree of harness.sparse_trial's row",
    "points": [{"model": m, noise: v, "s": s, "p": p, "n": n, **extra}
               for m, noise, v, s, p, n, extra in POINTS],
    "seeds": list(SEEDS),
    "trials_per_seed": TRIALS,
    "test": "one-sided exact sign test of screened worse, ties dropped; rejects at p <= level",
    "pass": f"no rejection at {LEVEL} pooled, none at {LEVEL}/{len(POINTS)} at any point",
}
FINISH_SEEDS = (180000, 180001, 180002, 180003)
MOVED = 1e-8  # |difference| in err_signfree above which a finish pair counts as moved
FINISH_RULE = {
    "arms": {"plain": "multiply and truncate until tol or t_max",
             "finish": "truncated_power_method as shipped: the block solve on a settled support"},
    "value": "err_signfree of harness.sparse_trial's row; iters summed per arm",
    "points": RULE["points"],
    "seeds": list(FINISH_SEEDS),
    "trials_per_seed": TRIALS,
    "moved": f"|finish - plain| > {MOVED}",
    "test": "one-sided exact sign test of finish worse over moved pairs; rejects at p <= level",
    "pass": RULE["pass"],
}


@contextmanager
def unscreened():
    """``sparse_recover`` with K = p at every p: the Fantope stage on all of M."""
    factor = sparse.SCREEN_FACTOR
    sparse.SCREEN_FACTOR = sys.maxsize
    try:
        yield
    finally:
        sparse.SCREEN_FACTOR = factor


def sign_test(worse: int, better: int) -> float:
    """P(X >= worse) for X ~ Binomial(worse + better, 1/2), exactly, then rounded to float."""
    total = worse + better
    tail = sum(math.comb(total, k) for k in range(worse, total + 1))
    return float(Fraction(tail, 2**total))


def _paired_rows(points, seeds, trials, plain):
    """For each point, its config fields and every (seed, trial, row before, row after):
    the row under the ``plain()`` context, then as shipped, on one trial key."""
    for model, noise, value, s, p, n, extra in points:
        pairs = []
        for seed in seeds:
            cfg = harness.RunConfig(experiment="sparse", model=model, **{noise: (value,)},
                                    s=(s,), p=(p,), n=(n,), trials=trials, seed=seed, **extra)
            for t in range(trials):
                with plain():
                    before = harness.sparse_trial(cfg, value, s, p, n, t)
                pairs.append((seed, t, before, harness.sparse_trial(cfg, value, s, p, n, t)))
        yield {"model": model, noise: value, "s": s, "p": p, "n": n, **extra}, pairs


def _decide(rows, worse, better, **pooled) -> dict:
    """The pooled sign test over the per-point ``rows`` and the decision of the rule."""
    p_value = sign_test(worse, better)
    per_point = LEVEL / len(rows)
    passed = p_value > LEVEL and all(r["p_value"] > per_point for r in rows)
    return {"points": rows,
            "pooled": {"worse": worse, "better": better, **pooled, "p_value": p_value},
            "levels": {"pooled": LEVEL, "per_point": per_point},
            "decision": "pass" if passed else "fail"}


def run_gate(points=POINTS, seeds=SEEDS, trials=TRIALS) -> dict:
    """Every pair of the rule's arms, the counts and p-values per point and pooled, and
    the decision."""
    rows, worse, better = [], 0, 0
    for point, rowpairs in _paired_rows(points, seeds, trials, unscreened):
        pairs = [[seed, t, b.err_signfree, a.err_signfree] for seed, t, b, a in rowpairs]
        w = sum(a > b for *_, b, a in pairs)
        b = sum(a < b for *_, b, a in pairs)
        worse, better = worse + w, better + b
        s, p = point["s"], point["p"]
        rows.append({"point": point,
                     "screen_size": min(p, sparse.SCREEN_FACTOR * min(2 * s, p)),
                     "median_unscreened": statistics.median(pair[2] for pair in pairs),
                     "median_screened": statistics.median(pair[3] for pair in pairs),
                     "worse": w, "better": b, "ties": len(pairs) - w - b,
                     "p_value": sign_test(w, b),
                     "pairs_seed_trial_unscreened_screened": pairs})
    return _decide(rows, worse, better, ties=sum(r["ties"] for r in rows))


def run_finish(points=POINTS, seeds=FINISH_SEEDS, trials=TRIALS) -> dict:
    """Every pair of the finish rule's arms with both arms' iterations, the counts and
    p-values per point and pooled, the largest unmoved |difference|, and the decision."""
    shipped, starts, plain_arm = sparse.truncated_power_method, [], False

    def either(mtx, beta0, cfg):  # the plain loop inside plain(), else the shipped method
        starts.append(beta0.tobytes())
        if not plain_arm:
            return shipped(mtx, beta0, cfg)
        report = spectral._power_iterate(mtx, beta0, cfg.t_max, cfg.tol,
                                         lambda mb: sparse.truncate(mb, cfg.s_hat))
        return replace(report, stages={"block_solves": 0})

    @contextmanager
    def plain():
        nonlocal plain_arm
        plain_arm = True
        try:
            yield
        finally:
            plain_arm = False

    rows, worse, better = [], 0, 0
    sparse.truncated_power_method = either
    try:
        for point, rowpairs in _paired_rows(points, seeds, trials, plain):
            if starts[0::2] != starts[1::2]:
                raise AssertionError(f"the two arms started from different vectors at {point}")
            starts.clear()
            pairs = [[seed, t, b.err_signfree, a.err_signfree, b.iters, a.iters]
                     for seed, t, b, a in rowpairs]
            change = [abs(pair[3] - pair[2]) for pair in pairs]
            moved = [pair for pair, d in zip(pairs, change) if d > MOVED]
            w = sum(a > b for _, _, b, a, *_ in moved)
            b = sum(a < b for _, _, b, a, *_ in moved)
            worse, better = worse + w, better + b
            rows.append({"point": point,
                         "iters_plain": sum(pair[4] for pair in pairs),
                         "iters_finish": sum(pair[5] for pair in pairs),
                         "moved": len(moved), "worse": w, "better": b,
                         "largest_unmoved_change": max((d for d in change if d <= MOVED),
                                                       default=0.0),
                         "p_value": sign_test(w, b),
                         "pairs_seed_trial_plain_finish_iters_plain_finish": pairs})
    finally:
        sparse.truncated_power_method = shipped
    return _decide(rows, worse, better, moved=sum(r["moved"] for r in rows),
                   iters_plain=sum(r["iters_plain"] for r in rows),
                   iters_finish=sum(r["iters_finish"] for r in rows),
                   largest_unmoved_change=max(r["largest_unmoved_change"] for r in rows))


def _workload_argv() -> list:
    """The benchmark's sparse CLI calls at their --seconds 30 trial counts, seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [grid.argv(w.trials_for(30.0), 0, os.devnull)
            for w in WORKLOADS.values() for grid in w.grids if grid.experiment == "sparse"]


def _golden_argv() -> list:
    sys.path.insert(0, str(ROOT / "tools"))
    from golden import CONFIGS

    return [argv for argv in CONFIGS if argv[:1] == ["sparse"]]


def count_projections(calls) -> dict:
    """Projections, split tridiagonals and failed inverse iterations over the CLI calls."""
    counts = {"projections": 0, "split": 0, "fallback": 0}
    spectrum = _lapack.spectrum

    def counted(a):
        counts["projections"] += 1
        lam, top = spectrum(a)
        if lam is None:
            counts["split"] += 1
            return lam, top

        def top_counted(k):
            vecs = top(k)
            counts["fallback"] += vecs is None
            return vecs

        return lam, top_counted

    _lapack.spectrum = counted
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            for argv in calls:
                cli.main(argv)
    finally:
        _lapack.spectrum = spectrum
    return counts


def project_ms(k: int, calls: int = 400) -> float:
    """Median ms of one ``_fantope_project`` on the first ADMM argument of a K x K block."""
    s = k // 8
    cfg = harness.RunConfig(experiment="sparse", sigma=(0.0,), s=(s,), p=(200,), n=(1000,),
                            seed=93000)
    rng, model, truth, kind = harness._draw(cfg, 0.0, s, 200, 1000, 0)
    m, _ = sample_moment(model, truth, 1000, kind, rng)
    keep = np.sort(np.argsort(-np.diag(m), kind="stable")[:k])
    block = m[np.ix_(keep, keep)]
    block /= abs(np.trace(block)) / k
    arg, out, times = np.empty((k, k)), np.empty((k, k)), []
    for _ in range(calls + 1):  # the first call is the warm-up
        np.copyto(arg, block)
        started = time.perf_counter()
        sparse._fantope_project(arg, out, lambda: np.copyto(arg, block) or arg)
        times.append(time.perf_counter() - started)
    return round(1e3 * statistics.median(times[1:]), 4)


def run_lapack() -> dict:
    timings = {}
    for k in (40, 80):
        lapacke = _lapack._LAPACKE
        with_lapack = project_ms(k)
        _lapack._LAPACKE = None
        try:
            fallback = project_ms(k)
        finally:
            _lapack._LAPACKE = lapacke
        timings[str(k)] = {"lapack_ms": with_lapack, "eigh_fallback_ms": fallback,
                           "fallback_over_lapack": round(fallback / with_lapack, 3)}
    return {"counts": {"workloads_seed0": count_projections(_workload_argv()),
                       "golden_sparse": count_projections(_golden_argv())},
            "project_median_of_400_calls": timings}


def _perfbench(checkout: str, workload: str) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "30", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def run_bench(base: str, head: str) -> dict:
    """``PAIRS`` alternated seed-0 runs of each workload in BASE and HEAD, and their medians."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    out = {}
    for workload in WORKLOADS:
        runs = []
        for i in range(PAIRS):
            order = [("base", base), ("head", head)][:: 1 if i % 2 == 0 else -1]
            runs.append({side: _perfbench(path, workload) for side, path in order})
        summary = {}
        for metric in ("setup_s", "trials_per_s", "peak_rss_mb"):
            sides = {side: sorted(r[side][metric] for r in runs) for side in ("base", "head")}
            summary[metric] = {side: {"median": statistics.median(v),
                                      "quartiles": statistics.quantiles(v, n=4)}
                               for side, v in sides.items()}
            summary[metric]["head_above_base"] = sum(r["head"][metric] > r["base"][metric]
                                                     for r in runs)
        out[workload] = {"runs": runs, "summary": summary}
    return {"command": "perfbench/run.py --seed 0 --seconds 30 --trace 0, base and head "
                       "alternated, base first in even pairs", "pairs": PAIRS,
            "workloads": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("gate", "finish", "lapack", "bench"))
    ap.add_argument("checkouts", nargs="*", help="bench: BASE and HEAD checkout roots")
    ap.add_argument("--out", help="the JSON record (default BENCH_tpm_finish.json for "
                                  "finish, BENCH_screen.json otherwise)")
    args = ap.parse_args(argv)
    if (args.what == "bench") != (len(args.checkouts) == 2):
        ap.error("bench takes BASE and HEAD, the others no checkout")
    default = "BENCH_tpm_finish.json" if args.what == "finish" else "BENCH_screen.json"
    path = Path(args.out or ROOT / default)
    record = json.loads(path.read_text()) if path.exists() else {"name": "screen", "rule": RULE}
    if args.what == "gate":
        record.update(name="screen", rule=RULE, gate=run_gate())
    elif args.what == "finish":
        record.update(name="tpm_finish", rule=FINISH_RULE, finish=run_finish())
    elif args.what == "lapack":
        record["lapack"] = run_lapack()
    else:
        record["benchmark"] = run_bench(*args.checkouts)
    order = ("name", "rule", "gate", "finish", "lapack", "benchmark")
    path.write_text(json.dumps({k: record[k] for k in order if k in record}, indent=1) + "\n")
    if args.what in ("gate", "finish"):
        print(record[args.what]["decision"], record[args.what]["pooled"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
