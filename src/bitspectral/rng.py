"""Derived random streams for reproducible, order-independent experiments.

Every unit of work (one trial of one grid point) pulls its own generator from
``derive_rng(seed, *path)``, where ``path`` identifies the work unit by value
(experiment name, model tag, parameter values, trial index).  Streams are
independent of the order in which work units run, and adding or removing grid
points never changes the draws of the remaining ones.
"""

import hashlib

import numpy as np

from .errors import _check_int


def _canonical(part) -> bytes:
    # Floats go through hex() so the key is exact, not a rounded decimal.
    if isinstance(part, float):
        return f"f:{part.hex()}".encode()
    if isinstance(part, (int, np.integer)):
        return f"i:{int(part)}".encode()
    if isinstance(part, str):
        return f"s:{part}".encode()
    if part is None:
        return b"none"
    raise TypeError(f"unsupported stream key part: {part!r}")


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Return an independent generator keyed by the integer ``seed`` and a value path."""
    _check_int(seed, "seed")
    h = hashlib.sha256()
    h.update(_canonical(seed))
    for part in path:
        h.update(b"\x1f")
        h.update(_canonical(part))
    words = np.frombuffer(h.digest(), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy=words.tolist()))
