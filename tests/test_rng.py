"""The package's one draw route, `stream`, against its documented
definition (numpy's Philox keyed with a SHA-256 digest of the parts),
`dropout_mask` on arrays of seeds, and a guard that no other module makes
a generator of its own."""

import ast
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcal.model import DROPOUT_RATE, dropout_mask
from seqcal.rng import derive_key, derive_seed, stream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def key_oracle(*parts):
    """The stream key as the rng docstring defines it: the first 16 bytes,
    little-endian, of the SHA-256 of the parts joined by U+001F."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "little")


def numpy_draws(key, n):
    return np.random.Generator(np.random.Philox(key=key)).random(n)


class TestPhiloxRandom:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 32, 33, 3392])
    def test_matches_numpy_philox_bit_for_bit(self, n):
        """A stream is numpy's Philox keyed by the parts' digest, and its
        first n draws are the start of any longer draw: Philox makes four
        words per counter block, so n runs across block boundaries."""
        rs = np.random.default_rng(11)
        parts = [(0, "dropout-mask"), (2**64 - 1, "mcd", "例子"), ("", ""),
                 *((int(s), "x") for s in rs.integers(0, 2**63, 40))]
        for part in parts:
            got = stream(*part).random(n)
            want = numpy_draws(key_oracle(*part), n + 7)
            assert np.array_equal(got.view(np.uint64), want[:n].view(np.uint64))

    def test_derived_keys_match_their_streams(self):
        for i in range(64):
            assert derive_key(i, "dropout-mask") == key_oracle(i, "dropout-mask")
            assert np.array_equal(stream(i, "dropout-mask").random(9),
                                  numpy_draws(key_oracle(i, "dropout-mask"), 9))

    def test_no_keys(self):
        assert dropout_mask([], 5).shape == (0, 5)
        assert dropout_mask(np.empty((0, 2), dtype=object), (3, 4)).shape == (0, 2, 3, 4)


class TestBatchedDropoutMask:
    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6),
        samples=st.integers(1, 3),
        shape=st.one_of(st.integers(1, 40),
                        st.tuples(st.integers(1, 5), st.integers(1, 9))),
    )
    def test_batched_masks_equal_per_seed_masks(self, seeds, samples, shape):
        grid = [[derive_seed(s, "mcd", m) for s in seeds] for m in range(samples)]
        got = dropout_mask(grid, shape)
        per_shape = (shape,) if isinstance(shape, int) else shape
        assert got.shape == (samples, len(seeds)) + per_shape
        assert got.dtype == bool
        for m in range(samples):
            for i, seed in enumerate(grid[m]):
                assert np.array_equal(got[m, i], dropout_mask(seed, shape))


PART = st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                 st.text(min_size=0, max_size=8))


class TestDeriveSeeds:
    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(PART, min_size=1, max_size=6))
    def test_equals_derive_seed_per_key(self, parts):
        """derive_seed is the key oracle's low 63 bits."""
        assert derive_seed(*parts) == key_oracle(*parts) & (2**63 - 1)

    def test_mask_seed_shape_with_non_ascii_ids(self):
        """The decoder's (run_seed, "mcd", example id) seeds, ids outside
        ASCII and holding the separator included, and the masks they key."""
        ids = ["ex-0", "ünï-¢ødé", "例子", "emoji-🙂", "", "a\x1fb", "x" * 300]
        for run_seed in (0, 2**63 - 1, 2**64 - 1):
            seeds = [derive_seed(run_seed, "mcd", eid) for eid in ids]
            assert seeds == [key_oracle(run_seed, "mcd", eid) & (2**63 - 1) for eid in ids]
            assert len(set(seeds)) == len(ids)
            masks = dropout_mask(seeds, (3, 2, 5))
            for seed, mask in zip(seeds, masks):
                draws = numpy_draws(key_oracle(seed, "dropout-mask"), 30)
                assert np.array_equal(mask.ravel(), draws >= DROPOUT_RATE)


def _generator_uses():
    """Where a package module other than rng.py calls numpy.random or
    imports from it: every generator and bit generator is made by
    `rng.stream`."""
    uses = []
    src = os.path.join(ROOT, "src", "seqcal")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "rng.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func.value) in ("np.random", "numpy.random")):
                uses.append(f"{name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
                    or isinstance(node, ast.Import)
                    and any(alias.name == "numpy.random" for alias in node.names)):
                uses.append(f"{name}:{node.lineno}")
    return uses


def test_generators_are_made_only_in_rng():
    assert _generator_uses() == []
