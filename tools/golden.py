"""Fingerprint the CLI's output on a fixed list of configs, for refactor checks.

    python tools/golden.py CHECKOUT > golden.txt

CHECKOUT is the root of a checkout; the package is imported from its
``src/`` and every config runs in this one process through ``cli.main``, with
one BLAS thread.  Each run prints one line: the exit code, the sha256 of
stdout + stderr (+ the file an ``--out`` run writes), the argv and the first
line of stderr.  A run that raises prints ``exc``, the exception's class name
and the argv instead, with the traceback on this script's stderr, and the
next run goes on.  A change that must keep the output byte-identical runs
this on its parent and on itself and ``diff``s the two outputs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

EIGS = ["--n", "600", "--p", "6", "--trials", "3", "--seed", "4"]
LOWDIM = ["--n", "400,1600", "--p", "5,10", "--trials", "3", "--seed", "4"]
SPARSE = ["--p", "20", "--n", "400,800", "--trials", "2", "--seed", "4",
          "--admm-max-iter", "60"]

# file name -> JSON content, written to the working directory before the runs
FILES = {
    "str_grids.json": {"model": "cs", "sigma": "0,0.5", "n": "400", "p": "5", "trials": 2},
    "list_grids.json": {"model": "pr", "theta": [0.4], "n": [400, 800], "p": [5], "trials": 2},
    "num_grids.json": {"sigma": 0.5, "n": 400, "p": 5, "trials": 2},
    "null_model.json": {"model": None, "n": 400, "p": 5, "trials": 1},
    "unknown_key.json": {"bogus": 1},
    "not_object.json": [1, 2],
    "bad_grid.json": {"n": ["a"]},
    "bad_scalar.json": {"trials": "x"},
    "bool_float.json": {"sigma": True},
    "bad_matrix.json": {"matrix": "foo"},
    "out_number.json": {"out": 5, "n": 400, "p": 5, "trials": 1},
}

CONFIGS = [
    # eigenstructure
    ["eigs", "--model", "flr", "--pe", "0,0.2,0.4", *EIGS],
    ["eigs", "--model", "cs", "--sigma", "0,0.5,1", *EIGS],
    ["eigs", "--model", "pr", "--theta", "0.4,1", *EIGS],
    ["eigs", "--model", "cs"],
    # dense recovery
    ["lowdim", "--model", "flr", *LOWDIM],
    ["lowdim", "--model", "cs", "--sigma", "0.31622776601683794", *LOWDIM],
    ["lowdim", "--model", "cs", *LOWDIM],
    ["lowdim", "--model", "pr", "--theta", "0.4", *LOWDIM],
    ["lowdim", "--model", "pr", "--theta", "1", "--matrix", "sum", *LOWDIM],
    # --tmax and --tol do not reach lowdim, which solves exactly: these four print the
    # hash of the plain cs config above
    ["lowdim", "--model", "cs", "--tol", "0", "--tmax", "7", *LOWDIM],
    ["lowdim", "--model", "cs", "--tol", "0", "--tmax", "37", *LOWDIM],
    ["lowdim", "--model", "cs", "--tol", "0", "--tmax", "64", *LOWDIM],
    ["lowdim", "--model", "cs", "--tol", "0", "--tmax", "83", *LOWDIM],
    # a small eigengap (flr, pe 0.1), where a 500-multiply power iteration can stop on its cap
    ["lowdim", "--model", "flr", "--pe", "0.1", "--n", "7840", "--p", "5", "--trials", "2",
     "--seed", "4"],
    # odd n (trimmed), too few rows, and one pair per trial, so k = 0 weighted pairs can occur
    ["lowdim", "--model", "flr", "--n", "401", "--p", "5", "--trials", "3", "--seed", "4"],
    ["lowdim", "--model", "cs", "--n", "1", "--p", "5", "--trials", "1"],
    ["lowdim", "--model", "cs", "--n", "2", "--p", "3", "--trials", "4", "--seed", "4"],
    ["eigs", "--model", "cs", "--sigma", "0", "--n", "2", "--p", "3", "--trials", "4"],
    # more coordinates than weighted pairs: the Wishart part of G^T G has 0 < k - 2 < p
    ["lowdim", "--model", "cs", "--n", "24", "--p", "30", "--trials", "3", "--seed", "4"],
    # the sampled draw's branches: the noiseless sign link, a nonzero intercept,
    # the equal-label pairs of flr, and the largest n of the dense benchmark
    ["lowdim", "--model", "cs", "--sigma", "0", *LOWDIM],
    ["lowdim", "--model", "flr", "--zeta", "0.5", "--pe", "0.1", *LOWDIM],
    ["eigs", "--model", "flr", "--pe", "0,0.2", "--matrix", "sum", *EIGS],
    ["lowdim", "--model", "flr", "--pe", "0.1", "--n", "125448", "--p", "20", "--trials", "2",
     "--seed", "4"],
    # sparse recovery
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "2,3", *SPARSE],
    ["sparse", "--model", "flr", "--s", "2", "--shat", "3", "--rho-const", "0.5", *SPARSE],
    ["sparse", "--model", "pr", "--theta", "0.4", "--s", "2", *SPARSE],
    # odd n: the draw trims its last row, and the abscissa keeps n
    ["sparse", "--model", "cs", "--s", "2", "--p", "20", "--n", "401", "--trials", "2",
     "--seed", "4", "--admm-max-iter", "60"],
    ["sparse", "--model", "cs", "--s", "2", "--admm-penalty", "0.3", "--admm-tol", "1e-4",
     *SPARSE],
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "2", "--p", "20", "--n", "400",
     "--trials", "2", "--admm-max-iter", "30", "--tol", "0.5"],
    # the ADMM initializer at its default stop rules, and settling before a cap of 75
    ["sparse", "--model", "cs", "--s", "2", "--p", "20", "--n", "400,800", "--trials", "2",
     "--seed", "4"],
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "3", "--p", "60", "--n", "1000,4000",
     "--trials", "4", "--seed", "3", "--admm-max-iter", "75"],
    # a criterion 5 point whose ADMM stops by settling, well before any cap
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "5", "--p", "100", "--n", "4000",
     "--trials", "2", "--seed", "5"],
    # the sparse-capped benchmark's two calls at 2 trials: the largest p of any config
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "5", "--p", "100,200", "--n", "1000,4000",
     "--trials", "2", "--admm-max-iter", "75"],
    ["sparse", "--model", "cs", "--sigma", "0", "--s", "10", "--p", "200", "--n", "1000,4000",
     "--trials", "2", "--admm-max-iter", "75"],
    # p = 33, the smallest size at which dsytrd's blocked reduction (crossover 32) runs
    # and gives another tridiagonal than the unblocked one, and the sparse-default
    # benchmark's noise at its p = 100
    ["sparse", "--model", "cs", "--sigma", "0.31622776601683794", "--s", "5", "--p", "33,100",
     "--n", "1000", "--trials", "2", "--seed", "4", "--admm-max-iter", "75"],
    # a start penalty that puts up to 45 of 60 eigenvalues in the projection's active set
    ["sparse", "--model", "cs", "--s", "3", "--p", "60", "--n", "1000", "--trials", "2",
     "--seed", "5", "--admm-max-iter", "40", "--admm-penalty", "100"],
    # each moment kind forced against the sign of phi, in a sparse and an eigs run
    ["sparse", "--model", "cs", "--matrix", "sum", "--s", "2", *SPARSE],
    ["sparse", "--model", "pr", "--theta", "0.4", "--matrix", "diff", "--s", "2", *SPARSE],
    ["eigs", "--model", "pr", "--theta", "0.4,1", "--matrix", "sum", *EIGS],
    # s crossed with p, and an s grid that the dense experiments ignore
    ["sparse", "--model", "cs", "--s", "2,3", "--p", "12,20", "--n", "400", "--trials", "2",
     "--seed", "4", "--admm-max-iter", "60"],
    ["lowdim", "--model", "cs", "--s", "2,3", *LOWDIM],
    ["eigs", "--model", "cs", "--sigma", "0,0.5", "--s", "2,3", *EIGS],
    # moment summary and theory constants
    ["diag", "--model", "cs", "--sigma", "0.5", "--p", "20", "--s", "5"],
    ["diag", "--model", "pr", "--theta", "1", "--p", "20"],
    ["diag", "--model", "pr", "--theta", "0.3", "--p", "100", "--s", "5"],
    ["diag", "--model", "flr", "--pe", "0.1", "--p", "20"],
    ["diag", "--model", "cs", "--sigma", "0", "--p", "100", "--s", "5"],
    ["diag", "--model", "flr", "--pe", "0.49", "--p", "10", "--s", "2"],
    ["diag", "--model", "flr", "--zeta", "0.5", "--quad-order", "32", "--p", "10"],
    ["diag"],
    # config files, flag precedence and --out
    ["eigs", "--config", "str_grids.json"],
    ["lowdim", "--config", "list_grids.json"],
    ["lowdim", "--config", "list_grids.json", "--n", "200"],
    ["lowdim", "--config", "num_grids.json"],
    ["lowdim", "--config", "null_model.json"],
    ["lowdim", "--n", "400", "--p", "5", "--trials", "2", "--out", "out.csv"],
    # error paths
    ["lowdim", "--model", "flr", "--pe", "0.6"],
    ["lowdim", "--model", "pr", "--theta", "50", "--n", "100", "--p", "5", "--trials", "1"],
    ["lowdim", "--sigma", "0.1,0.2"],
    ["sparse", "--s", ","],
    ["lowdim", "--n", "1x"],
    ["lowdim", "--trials", "x"],
    ["lowdim", "--zeta", "abc"],
    ["lowdim", "--trials", "0"],
    ["lowdim", "--model", "xyz"],
    ["lowdim", "--matrix", "foo"],
    ["eigs", "--n", "100,200"],
    ["sparse", "--s", "50", "--p", "10"],
    ["diag", "--p", "5,10"],
    ["lowdim", "--n", ","],
    ["lowdim", "--config", "unknown_key.json"],
    ["lowdim", "--config", "not_object.json"],
    ["lowdim", "--config", "missing.json"],
    ["lowdim", "--config", "bad_grid.json"],
    ["lowdim", "--config", "bad_scalar.json"],
    [],
    ["--help"],
    ["lowdim", "--help"],
    # settings that no experiment may ignore, and a JSON boolean for a float
    ["diag", "--admm-penalty", "nan", "--tol", "nan"],
    ["eigs", "--tol", "nan", "--n", "200", "--p", "4", "--trials", "1"],
    ["diag", "--config", "bool_float.json"],
    # real settings refused out of their range, each named as typed
    ["lowdim", "--sigma", "-1"],
    ["lowdim", "--model", "pr", "--theta", "0"],
    ["lowdim", "--model", "flr", "--zeta", "inf"],
    ["sparse", "--s", "2", "--rho-const", "-1"],
    ["diag", "--admm-tol", "0"],
    # integer settings refused below their range
    ["sparse", "--s", "2", "--shat", "0"],
    ["lowdim", "--quad-order", "7"],
    ["lowdim", "--tmax", "0"],
    # settings the chosen model or estimator cannot use
    ["lowdim", "--model", "cs", "--matrix", "sum", "--quad-order", "3", *LOWDIM],
    ["lowdim", "--model", "flr", "--sigma", "0.5", *LOWDIM],
    ["lowdim", "--config", "bad_matrix.json"],
    # a JSON number for a string field: a file named 5 once took the CSV
    ["lowdim", "--config", "out_number.json"],
    # grid values checked against every point they are crossed with, before any trial
    ["sparse", "--s", "3", "--p", "5,2"],
    ["sparse", "--s", "2", "--shat", "4", "--p", "5,3"],
    ["sparse", "--s", "1", "--p", "3,1"],
    ["lowdim", "--n", "40,1", "--p", "3"],
    ["diag", "--p", "0"],
    ["diag", "--p", "5", "--s", "9"],
    # an --out path that cannot be opened, and the intercept under a model without one
    ["lowdim", "--n", "400", "--p", "5", "--trials", "2", "--out", "missing/out.csv"],
    ["lowdim", "--n", "400", "--p", "5", "--trials", "2", "--out", "."],
    ["lowdim", "--model", "cs", "--zeta", "0.5", *LOWDIM],
    ["lowdim", "--model", "pr", "--zeta", "0.5", *LOWDIM],
    # a flag value typed as a JSON string is, and grids an experiment reads with one value
    ["lowdim", "--tmax", "2.5"],
    ["eigs", "--p", "5,10"],
    ["diag", "--s", "2,3"],
]


def run(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code or 0
        except Exception as exc:  # a crash is a line too, so a crashing checkout can be diffed
            crash = exc
    blob = out.getvalue() + err.getvalue()
    if os.path.exists("out.csv"):
        with open("out.csv") as fh:
            blob += fh.read()
        os.remove("out.csv")
    if crash is not None:
        traceback.print_exception(crash)  # to this script's stderr, which is not fingerprinted
        return f"exc {type(crash).__name__} {' '.join(argv) or '(none)'}"
    digest = hashlib.sha256(blob.encode()).hexdigest()
    first = (err.getvalue().splitlines() or [""])[0]
    return f"{code} {digest} {' '.join(argv) or '(none)'} | {first}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy is first imported
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    src = os.path.join(os.path.abspath(args[0]), "src")
    sys.path.insert(0, src)
    import bitspectral.cli

    if not bitspectral.cli.__file__.startswith(src + os.sep):
        print(f"bitspectral imported from {bitspectral.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative file names keep argv and messages the same on every run
        try:
            for name, content in FILES.items():
                with open(name, "w") as fh:
                    json.dump(content, fh)
            for config in CONFIGS:
                print(run(bitspectral.cli.main, config), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
