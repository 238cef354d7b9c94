"""Time a fixed calibration kernel, so benchmark records from different hosts compare.

    python tools/calibrate.py

Prints one JSON object: the median wall time, in ms, of one 200 x 200
``np.linalg.eigh`` and of 10^6 ``standard_normal`` draws, each over
``REPEATS`` runs on one BLAS thread, with the host's core count and numpy's
BLAS.  The inputs are fixed, so only the host's speed moves the times.
"""

import json
import os
import statistics

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

REPEATS = 21


def _median_ms(fn) -> float:
    fn()  # warm-up: first-call costs are not the host's speed
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return round(1e3 * statistics.median(times), 4)


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    a = 0.5 * (a + a.T)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "eigh_200_ms": _median_ms(lambda: np.linalg.eigh(a)),
        "standard_normal_1e6_ms": _median_ms(lambda: rng.standard_normal(10**6)),
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "blas": f"{blas['name']} {blas['version']}, one thread",
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
