"""Splittable deterministic RNG streams.

All randomness in the project flows from a single 64-bit master seed.
Independent streams are derived from (seed, purpose string, integer
indices) so that parallel or reordered work still produces identical
results.  Batched draws take one stream per (seed, purpose) and fill
arrays from it: numpy fills an array in order, so element i is the i-th
draw of the stream at any array length.  Generation draws its noise and
its sub-modes this way; one stream per sample would cost a SeedSequence
build per sample.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _purpose_key(purpose: str) -> int:
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return the generator for a named stream of the master seed.

    The same (seed, purpose, indices) always yields the same stream,
    independent of call order or thread schedule.
    """
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, _purpose_key(purpose)]
    entropy.extend(int(i) & 0xFFFFFFFFFFFFFFFF for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))
