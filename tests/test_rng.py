"""Derived streams: one key, one stream; keys that differ, streams that differ."""

import numpy as np
import pytest

from bitspectral import derive_rng


def draws(seed, *path):
    return derive_rng(seed, *path).random(8)


def test_same_key_same_stream():
    np.testing.assert_array_equal(draws(3, "eigs", 0.5, 2), draws(3, "eigs", 0.5, 2))
    np.testing.assert_array_equal(draws(3, np.int64(2)), draws(3, 2))
    np.testing.assert_array_equal(draws(np.int64(3), 2), draws(3, 2))


def test_part_types_give_distinct_streams():
    streams = [draws(0, part) for part in (1, 1.0, "1", None)]
    for i, a in enumerate(streams):
        for b in streams[:i]:
            assert not np.array_equal(a, b)


def test_part_boundaries_are_kept():
    assert not np.array_equal(draws(0, "ab", "c"), draws(0, "a", "bc"))


def test_seed_and_path_both_key_the_stream():
    assert not np.array_equal(draws(0, 1), draws(1, 1))
    assert not np.array_equal(draws(0), draws(0, 0))


@pytest.mark.parametrize("part", [[1], (1,), b"1", {"a": 1}])
def test_unsupported_part_raises(part):
    with pytest.raises(TypeError):
        derive_rng(0, part)
