"""Command-line interface.

Subcommands: ``eigs``, ``lowdim``, ``sparse``, ``diag``.  There is one flag
per field of ``harness.RunConfig`` but ``experiment`` (``rho_const`` is
``--rho-const``); grids are comma separated.  ``--config FILE`` supplies the
same settings as JSON, with explicit flags taking precedence over the file.
argparse only splits the command line: a flag's value reaches ``_parse`` as a
string, as a JSON string does, and is typed there by the field's annotation.
Exit codes: 0 success, 2 configuration error (an ``--out`` path that cannot be
opened for writing is one, found before any trial), 3 numerical failure.
"""

import argparse
import ctypes
import json
import os
import sys
from dataclasses import fields

from .errors import ConfigError, NumericalError
from .harness import (_EXPERIMENTS, _MATRIX_KINDS, _MODELS, RunConfig, _field_type,
                      check_csv_path, default_config, run_experiment, write_csv)

# the choice lists --help shows; RunConfig judges the values
_METAVARS = {name: "{" + ",".join(choices) + "}"
             for name, choices in (("model", _MODELS), ("matrix", _MATRIX_KINDS))}
_HELP = {
    "pe": "flip probability (comma grid for eigs)",
    "sigma": "noise standard deviation; variance v means sigma=sqrt(v)",
    "theta": "quantization threshold (> 0)",
    "zeta": "logistic intercept",
    "n": "sample-size grid, comma separated",
    "p": "dimension grid, comma separated",
    "s": "sparsity grid, comma separated",
    "tmax": "iteration cap of the sparse path's truncated power method",
    "tol": "stop tolerance of the sparse path's truncated power method",
    "rho_const": "rho = rho_const * sqrt(log p / n)",
    "shat": "truncation sparsity (default min(2 s, p))",
    "matrix": "force the difference or sum estimator",
    "out": "output CSV path (default stdout)",
}


_FIELDS = {f.name: _field_type(f.type) for f in fields(RunConfig)[1:]}  # all but experiment


def _cast(raw, cast):
    """One flag or JSON value; no field takes a bool, an int field no fraction, and a string
    field nothing but a string."""
    if (isinstance(raw, bool) or (cast is int and isinstance(raw, float) and not raw.is_integer())
            or (cast is str and not isinstance(raw, str))):
        expected = {int: "an integer", float: "a number"}.get(cast, "a string")
        raise ValueError(f"expected {expected}, got {raw!r}")
    return cast(raw)


def _parse(name: str, raw):
    """A flag string or JSON value as its field's type; grid strings split on commas."""
    cast, grid = _FIELDS[name]
    if grid and isinstance(raw, str):
        items = [tok for tok in raw.split(",") if tok != ""]
    else:
        items = raw if grid and isinstance(raw, (list, tuple)) else [raw]
    try:
        values = tuple(_cast(v, cast) for v in items)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        what = f"grid value {raw!r}" if grid else f"value for {name}"
        raise ConfigError(f"bad {what}: {exc}") from None
    return values if grid else values[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitspectral",
        description="Spectral recovery experiments for one-bit single-index data",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, spec in _EXPERIMENTS.items():
        sub = subs.add_parser(name, help=spec.help)
        for field in _FIELDS:  # every value stays a string for _parse, as a JSON string does
            sub.add_argument("--" + field.replace("_", "-"), dest=field,
                             metavar=_METAVARS.get(field), help=_HELP.get(field))
        sub.add_argument("--config", help="JSON file mirroring these flags")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
    updates = {}
    for name in _FIELDS:
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name)
        if raw is not None:
            updates[name] = _parse(name, raw)
    return default_config(args.experiment, **updates)


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds at the ceilings of its dynamic rule; a no-op elsewhere.

    Under the dynamic rule a trial's freed n-length and p x p arrays, a few MiB at the
    top of the heap, pass the trim threshold, go back to the kernel and are faulted in
    again, page by page, by the next trial.  With the thresholds fixed the next trial
    reuses them.  Setting either threshold turns the rule off, so both are set.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name: not glibc
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD at DEFAULT_MMAP_THRESHOLD_MAX (64-bit)
    mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD at twice that, the ratio the rule keeps


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    It first fixes glibc's malloc thresholds (``_keep_freed_heap``) for the whole
    process, a process that embeds this call included, and they stay set after it
    returns.  The library itself, ``run_experiment`` included, leaves the allocator
    alone.
    """
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        check_csv_path(cfg.out)
        rows = run_experiment(cfg)
        if rows or cfg.out is not None:
            write_csv(rows, cfg.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
