"""Benchmark worker: imports `bitspectral`, warms up, then runs one workload.

Started by `run.py`, which puts the checkout's `src/` first on PYTHONPATH and
sets one BLAS thread before numpy loads.  Prints `READY` once imports and the
warm-up call are done (the end of set-up), human-readable lines while it
runs, and one JSON object as its last line.  With `--setup-only` it exits
after `READY`.
"""

import argparse
import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import bitspectral
from bitspectral import cli
from tracing import Tracer
from workloads import WARMUP, WORKLOADS, check_row

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def blas_info() -> str:
    """BLAS name, version and the number of threads it runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = str(get())
    return f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads}"


def source_id() -> str:
    """git SHA when the checkout is a repository, and a hash of src/ always."""
    sha = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref = ROOT / ".git" / sha[5:]
            sha = ref.read_text().strip() if ref.is_file() else "unresolved"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return f"git_sha={sha} src_sha256={digest.hexdigest()[:16]}"


def machine_line() -> str:
    return (f"machine: {source_id()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} {blas_info()} "
            f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()}")


def run_grid(grid, trials, seed, out, call):
    """One timed `cli.main` call and the row checks on its CSV.

    Returns (seconds, rows in the CSV, rows that pass, failed trials, problems).
    """
    argv = grid.argv(trials, seed, str(out))
    started = perf_counter()
    try:
        code = call(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:  # a crash fails every trial of the grid, as a non-zero exit does
        traceback.print_exc()
        code = "exception"
    seconds = perf_counter() - started
    expected = {(s, p, n, t) for s, p, n in grid.points() for t in range(trials)}
    if code != 0:
        return seconds, 0, [], len(expected), [f"{' '.join(argv)}: exit {code}"]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out.unlink()
    problems, good, seen = [], [], set()
    for row in rows:
        try:
            key = (None if row["s"] == "" else int(row["s"]), int(row["p"]),
                   int(row["n"]), int(row["trial"]))
            if row["experiment"] != grid.experiment or row["model"] != grid.model:
                problem = f"row of {row['experiment']}/{row['model']}"
            elif key not in expected or key in seen:
                problem = "unexpected or repeated row"
            else:
                problem = check_row(row, grid)
        except (KeyError, ValueError) as exc:
            key, problem = None, f"malformed row: {exc!r}"
        seen.add(key)
        if problem is None:
            good.append(row)
        else:
            problems.append(f"{grid.model} s,p,n,trial={key}: {problem}")
    if expected - seen:
        problems.append(f"{grid.model}: {len(expected - seen)} rows missing")
    return seconds, len(rows), good, len(expected) - len(good), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(bitspectral.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bitspectral imported from {bitspectral.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    work = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{work.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"

    warm = OUT / f"{tag}-warmup.csv"
    if cli.main(WARMUP[work.grids[0].experiment] + ["--out", str(warm)]) != 0:
        print("warm-up call failed", file=sys.stderr)
        return 1
    warm.unlink()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    print(machine_line())
    trials = work.trials_for(args.seconds)
    print(f"workload: {work.name} seed={args.seed} trials per grid point={trials} "
          f"grid points={sum(len(g.points()) for g in work.grids)}")
    tracer = Tracer()
    call = functools.partial(tracer.call, "cli.main", cli.main) if args.trace else cli.main
    timed = produced = attempted = failed = 0
    rows_by_grid, problems = {}, []
    with tracer.install() if args.trace else contextlib.nullcontext():
        for k, grid in enumerate(work.grids):
            seconds, n_rows, good, n_failed, grid_problems = run_grid(
                grid, trials, args.seed, OUT / f"{tag}-{k}.csv", call)
            timed += seconds
            produced += n_rows
            attempted += len(grid.points()) * trials
            failed += n_failed
            rows_by_grid[grid] = good
            problems += grid_problems
    # The grid checks judge the trials that did not fail.
    try:
        grid_problems = work.grid_check(rows_by_grid)
    except KeyError as exc:
        grid_problems = [f"no passing rows at grid point {exc}"]
    for problem in (problems + grid_problems)[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    trials_per_s = produced / timed
    if args.trace:
        trace_path = OUT / f"trace-{work.name}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        print(f"traced trials_per_s: {trials_per_s!r} 1/s")
        if tracer.trials < 100:
            print(f"harness.trial_p90_s is over {tracer.trials} trials: no tail below 100")
        metrics = tracer.layer_metrics()
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"trials_per_s": (trials_per_s, "1/s"), "peak_rss_mb": (rss_mib, "MiB")}
    print(f"timed cli.main calls: {timed:.3f} s for {produced} rows")
    print(json.dumps({"correct": not grid_problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
