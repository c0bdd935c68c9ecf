"""Seeded, splittable random streams.

Every random draw in the package comes from one stream definition: the
Philox4x64-10 counter-based generator (Salmon et al. 2011) keyed with a
SHA-256 digest of the caller's (seed, label, ...) parts.  Distinct part
tuples give statistically independent streams, and the same tuple
reproduces the same stream on any machine, which is what makes corpora,
training runs, and decodes reproducible end to end.  Parts should be ints
or strings; float repr is not a stable key.

A stream is drawn by one of two routes that give the same bits, which the
tests check against each other:

  stream          numpy's Philox generator, fastest for one long stream
  philox_random   the first n doubles of many keys' streams in one batch of
                  uint64 array arithmetic, fastest for many short streams
"""

import hashlib

import numpy as np


_SEP = "\x1f"
_SEED_BITS = 0x7FFF_FFFF_FFFF_FFFF


def _blob(parts) -> bytes:
    return _SEP.join(map(str, parts)).encode("utf-8")


def derive_key(*parts) -> int:
    """128-bit stream key from a stable hash of the parts."""
    return int.from_bytes(hashlib.sha256(_blob(parts)).digest()[:16], "little")


def derive_seed(*parts) -> int:
    """Nonnegative 63-bit integer seed derived like `derive_key`."""
    return derive_key(*parts) & _SEED_BITS


def derive_seeds(head, keys, tail=()) -> list[int]:
    """[derive_seed(*head, key, *tail) for key in keys] for a non-empty
    head: the head is hashed once, and each key and the tail go on from a
    copy of that hash state."""
    state = hashlib.sha256(_blob(head) + _SEP.encode())
    end = _blob(("", *tail))
    out = []
    for key in keys:
        h = state.copy()
        h.update(str(key).encode("utf-8") + end)
        out.append(int.from_bytes(h.digest()[:16], "little") & _SEED_BITS)
    return out


def stream(*parts) -> np.random.Generator:
    """Independent Philox stream for the given part tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


# Philox4x64-10 round multipliers and Weyl key increments, as numpy uses them.
_M0 = np.uint64(0xD2E7_470E_E14C_6C93)
_M1 = np.uint64(0xCA5A_8263_9512_1157)
_W0 = np.uint64(0x9E37_79B9_7F4A_7C15)
_W1 = np.uint64(0xBB67_AE85_84CA_A73B)
_LOW32 = np.uint64(0xFFFF_FFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray):
    """Low and high 64-bit words of the 128-bit products m * x, the high
    word assembled from 32-bit halves so no partial product overflows."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = ((m_lo * x_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return m * x, hi


def philox_random(keys, n: int) -> np.ndarray:
    """The first n doubles of each 128-bit key's stream, shape (keys, n).

    Row i equals `np.random.Generator(np.random.Philox(key=keys[i]))
    .random(n)` bit for bit: numpy bumps the counter before it encrypts a
    block, so block b of 4 words is encrypted at counter (b + 1, 0, 0, 0),
    and each word w becomes the double (w >> 11) * 2**-53.
    """
    k0 = np.array([k & 0xFFFF_FFFF_FFFF_FFFF for k in keys], dtype=np.uint64)[:, None]
    k1 = np.array([k >> 64 for k in keys], dtype=np.uint64)[:, None]
    blocks = -(-n // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(k0), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0 = k0 + _W0
            k1 = k1 + _W1
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k0), 4 * blocks)[:, :n]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
