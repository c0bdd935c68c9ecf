"""Seeded, splittable random streams.

Every random draw in the package flows through `stream`, which keys a
counter-based Philox generator with a SHA-256 digest of the caller's
(seed, label, ...) parts.  Distinct part tuples give statistically
independent streams, and the same tuple reproduces the same stream on any
machine, which is what makes corpora, training runs, and decodes
reproducible end to end.  Parts should be ints or strings; float repr is
not a stable key.
"""

import hashlib

import numpy as np


def derive_key(*parts) -> int:
    """128-bit stream key from a stable hash of the parts."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "little")


def derive_seed(*parts) -> int:
    """Nonnegative 63-bit integer seed derived like `derive_key`."""
    return derive_key(*parts) & 0x7FFF_FFFF_FFFF_FFFF


def stream(*parts) -> np.random.Generator:
    """Independent Philox stream for the given part tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def rekey(generator: np.random.Generator, *parts) -> np.random.Generator:
    """Rewind a Philox-backed generator to the start of `stream(*parts)`.

    Setting the bit generator's state to the key's two little-endian
    64-bit words, with a zero counter and an empty buffer, is the state
    `Philox(key=...)` starts from, so a reused generator draws the same
    numbers as a fresh stream at a fraction of the construction cost.
    """
    key = derive_key(*parts)
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator
