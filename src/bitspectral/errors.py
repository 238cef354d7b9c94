"""Exception types shared across the package and one rule per kind of input: ``_check_int``
(sizes, counts, orders, seeds), ``_check_real`` (real settings, range included),
``_check_array`` (arrays), ``_check_choice`` (named choices); imports nothing of the package."""

import math

import numpy as np


class ConfigError(ValueError):
    """Invalid user-supplied configuration (bad parameter, bad grid, bad flag)."""


class NumericalError(RuntimeError):
    """Numerical failure: zero matrix, vanished iterate, annihilated truncation."""


def _check_int(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """ConfigError unless ``value`` is an int or numpy integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{what} must be <= {high}, got {value}")


def _check_real(value, what: str, low: float | None = None, high: float | None = None, *,
                above: bool = False) -> None:
    """ConfigError unless ``value`` is an int, a float or a numpy real, not a bool, finite
    as a float, >= low (> low with ``above``) and < high."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range, too long to print in full
        raise ConfigError(f"{what} must be finite, got an int too large for a float") from None
    if not finite:
        raise ConfigError(f"{what} must be finite, got {value}")
    if low is not None and (value <= low if above else value < low):
        raise ConfigError(f"{what} must be {'>' if above else '>='} {low}, got {value}")
    if high is not None and value >= high:
        raise ConfigError(f"{what} must be < {high}, got {value}")


def _check_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as float64; ConfigError unless a rectangular int or float array, ndim-D if set."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nested list
        raise ConfigError(f"{what} must be a rectangular array, got a ragged sequence") from None
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be real, got dtype {a.dtype}")
    if ndim is not None and a.ndim != ndim:
        raise ConfigError(f"{what} must be {ndim}-D, got shape {a.shape}")
    return a.astype(float, copy=False)


def _check_choice(value, what: str, choices) -> None:
    """ConfigError unless ``value`` is a str among ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{what} must be one of {tuple(choices)}, got {value!r}")
