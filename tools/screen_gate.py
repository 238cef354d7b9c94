"""Paired gate for the screened sparse initializer, and the record it writes.

    python tools/screen_gate.py gate [--out BENCH_screen.json]
    python tools/screen_gate.py lapack [--out BENCH_screen.json]
    python tools/screen_gate.py bench BASE HEAD [--out BENCH_screen.json]

Run from the root of a checkout; the package is imported from its ``src/``,
with one BLAS thread.  Each subcommand rewrites one key of the JSON record
(``gate``, ``lapack`` or ``benchmark``) and keeps the others, so the record
holds everything in one layout.  ``bench`` runs ``PAIRS`` (10) alternated
pairs per workload.  ``gate`` and the counts of ``lapack`` are
deterministic: run again, ``gate`` writes the same bytes.

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
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # imported as a module, the caller's environment and path stand
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bitspectral import _lapack, cli, harness, sample_moment, sparse  # noqa: E402

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


def run_gate(points=POINTS, seeds=SEEDS, trials=TRIALS) -> dict:
    """Every pair of the rule's arms, the counts and p-values per point and pooled, and
    the decision."""
    rows, worse, better = [], 0, 0
    for model, noise, value, s, p, n, extra in points:
        pairs = []
        for seed in seeds:
            cfg = harness.RunConfig(experiment="sparse", model=model, **{noise: (value,)},
                                    s=(s,), p=(p,), n=(n,), trials=trials, seed=seed, **extra)
            for t in range(trials):
                with unscreened():
                    before = harness.sparse_trial(cfg, value, s, p, n, t).err_signfree
                after = harness.sparse_trial(cfg, value, s, p, n, t).err_signfree
                pairs.append([seed, t, before, after])
        w = sum(a > b for *_, b, a in pairs)
        b = sum(a < b for *_, b, a in pairs)
        worse, better = worse + w, better + b
        rows.append({"point": {"model": model, noise: value, "s": s, "p": p, "n": n, **extra},
                     "screen_size": min(p, sparse.SCREEN_FACTOR * min(2 * s, p)),
                     "median_unscreened": statistics.median(pair[2] for pair in pairs),
                     "median_screened": statistics.median(pair[3] for pair in pairs),
                     "worse": w, "better": b, "ties": len(pairs) - w - b,
                     "p_value": sign_test(w, b),
                     "pairs_seed_trial_unscreened_screened": pairs})
    pooled = sign_test(worse, better)
    per_point = LEVEL / len(points)
    passed = pooled > LEVEL and all(r["p_value"] > per_point for r in rows)
    return {"points": rows,
            "pooled": {"worse": worse, "better": better,
                       "ties": sum(r["ties"] for r in rows), "p_value": pooled},
            "levels": {"pooled": LEVEL, "per_point": per_point},
            "decision": "pass" if passed else "fail"}


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
    ap.add_argument("what", choices=("gate", "lapack", "bench"))
    ap.add_argument("checkouts", nargs="*", help="bench: BASE and HEAD checkout roots")
    ap.add_argument("--out", default=str(ROOT / "BENCH_screen.json"))
    args = ap.parse_args(argv)
    if (args.what == "bench") != (len(args.checkouts) == 2):
        ap.error("bench takes BASE and HEAD, the others no checkout")
    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(name="screen", rule=RULE)
    if args.what == "gate":
        record["gate"] = run_gate()
    elif args.what == "lapack":
        record["lapack"] = run_lapack()
    else:
        record["benchmark"] = run_bench(*args.checkouts)
    order = ("name", "rule", "gate", "lapack", "benchmark")
    path.write_text(json.dumps({k: record[k] for k in order if k in record}, indent=1) + "\n")
    if args.what == "gate":
        print(record["gate"]["decision"], record["gate"]["pooled"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
