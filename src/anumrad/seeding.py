# src/anumrad/seeding.py

"""Deterministic 64-bit seed derivation.

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


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int, once it is a seed: an integer (numpy integers
    included, bools not) in [0, 2**64). Anything else raises ValueError:
    int() would run a float or a string under another seed than the one
    given, and splitmix64 would run any other integer under the seed of its
    residue mod 2**64."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


def splitmix64(seed: int, index: int = 0) -> int:
    """Mix (seed, index) into a well-scrambled 64-bit child seed."""
    z = (int(seed) + (int(index) + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def label_seed(seed: int, label: str) -> int:
    """Child seed namespaced by a string label (stable across runs)."""
    return splitmix64(seed, zlib.crc32(label.encode("utf-8")))
