"""Deterministic seed derivation for parallel trials.

Every sampler in this package is a pure function of (config, seed). Trials,
replicates and per-source randomness streams use child seeds derived here so
that parallel and serial runs consume identical random streams.

The derivation is a fixed, documented hash and must never change:
child = first 8 bytes (big-endian) of SHA-256(master as 8-byte LE || each key
as 8-byte LE), with negative keys mapped through two's complement. Python's
built-in hash() is unsuitable (salted per process).
"""

import hashlib
import operator

import numpy as np

_MASK = (1 << 64) - 1


def derive_seed(master, *keys):
    """Derive a 64-bit child seed from a master seed and integer keys."""
    h = hashlib.sha256()
    h.update((operator.index(master) & _MASK).to_bytes(8, "little"))
    for k in keys:
        h.update((operator.index(k) & _MASK).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(master, *keys):
    """PCG64 generator seeded by derive_seed(master, *keys)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *keys)))
