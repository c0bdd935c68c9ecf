"""Seeded, splittable random streams.

Every random draw in the package comes from `stream`: numpy's
Philox4x64-10 counter-based generator (Salmon et al. 2011) keyed with a
SHA-256 digest of the caller's (seed, label, ...) parts.  Distinct part
tuples give statistically independent streams, and the same tuple
reproduces the same stream on any machine, which is what makes corpora,
training runs, and decodes reproducible end to end.  A stream's first n
draws do not depend on how many are drawn after them, so one stream can
hold a sequence of draws laid out by index.  Parts should be ints or
strings; float repr is not a stable key.
"""

import hashlib

import numpy as np


def derive_key(*parts) -> int:
    """128-bit stream key from a stable hash of the parts."""
    blob = "\x1f".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "little")


def derive_seed(*parts) -> int:
    """Nonnegative 63-bit integer seed derived like `derive_key`."""
    return derive_key(*parts) & 0x7FFF_FFFF_FFFF_FFFF


def stream(*parts) -> np.random.Generator:
    """Independent Philox stream for the given part tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))
