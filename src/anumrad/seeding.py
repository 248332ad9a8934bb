# src/anumrad/seeding.py

"""Deterministic 64-bit seed derivation and the one integer rule.

``splitmix64(seed, index)`` is the published child-seed function: seeded
trials produce the same streams in whatever order they run, because every
consumer derives its own seed through this mix rather than sharing a
generator.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def check_integer(value, name: str, low=None, high=None) -> int:
    """``value`` as an int, once it is an integer (numpy integers included,
    bools not) in [low, high), a None bound left open: the one integer rule.
    Anything else raises a ValueError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value >= high):
        bounds = f"lie in [{low}, {high})" if high is not None else f"be at least {low}"
        raise ValueError(f"{name} must {bounds}, got {value}")
    return value


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int, once it is a seed in [0, 2**64): splitmix64 would
    run any other integer under the seed of its residue mod 2**64."""
    return check_integer(value, name, 0, 2**64)


def splitmix64(seed: int, index: int = 0) -> int:
    """Mix (seed, index) into a well-scrambled 64-bit child seed."""
    z = (int(seed) + (int(index) + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def label_seed(seed: int, label: str) -> int:
    """Child seed namespaced by a string label (stable across runs)."""
    return splitmix64(seed, zlib.crc32(label.encode("utf-8")))
