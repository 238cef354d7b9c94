"""Exception types shared across the package, ``_check_int``, the one rule for every size,
count, order and seed argument, and ``_check_real``, the one rule for every real-valued
setting, its range included (this module imports nothing from the package)."""

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
    """ConfigError unless ``value`` is an int, a float or a numpy real, not a bool, finite,
    >= low (> low with ``above``) and < high."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value}")
    if low is not None and (value <= low if above else value < low):
        raise ConfigError(f"{what} must be {'>' if above else '>='} {low}, got {value}")
    if high is not None and value >= high:
        raise ConfigError(f"{what} must be < {high}, got {value}")
