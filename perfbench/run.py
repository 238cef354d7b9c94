"""Benchmark of the `bitspectral` CLI: one workload per run, timed end to end.

    python3 perfbench/run.py --workload dense-lowdim --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  This launcher imports no numpy: it sets
one BLAS thread in the environment, starts `worker.py` several times to time
set-up (interpreter start, imports, one small warm-up call), then lets the
last worker run the workload.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # worker starts per run; setup_s is their median
TIME_LIMIT_S = 170.0  # a worker still running by then is killed and the run fails

# One BLAS thread: on a 2-core host a second OpenBLAS thread doubled CPU time
# for no wall-time gain, and only adds contention (see README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(args, env, setup_only):
    """Start a worker; return it with its set-up time, read at its READY line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = perf_counter()
    proc = subprocess.Popen(cmd + ["--setup-only"] * setup_only, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - started
    return proc, setup_s if line.strip() == "READY" else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bitspectral" / "__init__.py").is_file():
        print(f"no bitspectral sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}

    started = perf_counter()
    setups, lines, proc = [], [], None
    try:
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            proc, setup_s = start_worker(args, env, setup_only=not last)
            if setup_s is None:
                break
            setups.append(setup_s)
            if not last:
                proc.wait(timeout=TIME_LIMIT_S)
                proc.stdout.close()
        if len(setups) == SETUP_SAMPLES:
            timer = threading.Timer(max(1.0, TIME_LIMIT_S - (perf_counter() - started)),
                                    proc.kill)
            timer.start()
            try:
                for line in proc.stdout:
                    lines.append(line.rstrip("\n"))
            finally:
                timer.cancel()
        code = proc.wait()
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    for line in lines[:-1]:
        print(line)
    if len(setups) < SETUP_SAMPLES or code != 0 or not lines:
        print(f"worker failed (exit {code}) for workload {args.workload!r}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(f"attempted {result['attempted']} trials, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
