"""Deterministic, splittable random streams.

Every random choice in the library flows from a single 64-bit seed.
Independent substreams are derived by hashing string labels into numpy
``SeedSequence`` spawn keys, so components can re-derive exactly the
stream they need without replaying anyone else's draws.
"""
from __future__ import annotations

import hashlib

import numpy as np


def child_rng(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the substream identified by ``labels`` under ``seed``.

    Labels are stringified and hashed, so any hashable-ish descriptive
    values (strings, ints, tuples) work and the mapping is stable across
    processes and platforms.
    """
    key = tuple(
        int.from_bytes(hashlib.sha256(str(lab).encode()).digest()[:4], "big")
        for lab in labels
    )
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    return np.random.default_rng(ss)


def complex_normal(rng: np.random.Generator, size=None):
    """Standard complex Gaussian draws of shape ``size``: every real part is
    drawn before any imaginary part, the order that fixes each seed's
    bytes."""
    return rng.normal(size=size) + 1j * rng.normal(size=size)
