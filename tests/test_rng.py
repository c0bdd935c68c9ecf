"""The batched Philox kernel against numpy's Philox generator, and the
batched seed derivation against the one-seed one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcal.model import dropout_mask
from seqcal.rng import derive_key, derive_seed, derive_seeds, philox_random, stream

EDGE_KEYS = [0, 2**64 - 1, 2**64, 2**128 - 1]


def numpy_draws(key, n):
    return np.random.Generator(np.random.Philox(key=key)).random(n)


class TestPhiloxRandom:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 32, 33, 3392])
    def test_matches_numpy_philox_bit_for_bit(self, n):
        rs = np.random.default_rng(11)
        keys = EDGE_KEYS + [int.from_bytes(rs.bytes(16), "little") for _ in range(40)]
        got = philox_random(keys, n)
        assert got.shape == (len(keys), n)
        want = np.stack([numpy_draws(k, n) for k in keys])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_derived_keys_match_their_streams(self):
        keys = [derive_key(i, "dropout-mask") for i in range(64)]
        got = philox_random(keys, 9)
        for i, row in enumerate(got):
            assert np.array_equal(row, stream(i, "dropout-mask").random(9))

    def test_no_keys(self):
        assert philox_random([], 5).shape == (0, 5)


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
        for m in range(samples):
            for i, seed in enumerate(grid[m]):
                assert np.array_equal(got[m, i], dropout_mask(seed, shape))


PART = st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                 st.text(min_size=0, max_size=8))


class TestDeriveSeeds:
    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(PART, min_size=1, max_size=3),
           keys=st.lists(PART, max_size=6),
           tail=st.lists(PART, max_size=3))
    def test_equals_derive_seed_per_key(self, head, keys, tail):
        assert derive_seeds(head, keys, tail) == [derive_seed(*head, k, *tail) for k in keys]

    def test_mask_seed_shape_with_non_ascii_ids(self):
        """The decoder's (run_seed, "mcd", example id, step, sample) seeds,
        ids outside ASCII and holding the separator included."""
        ids = ["ex-0", "ünï-¢ødé", "例子", "emoji-🙂", "", "a\x1fb", "x" * 300]
        for run_seed in (0, 2**63 - 1, 2**64 - 1):
            for step, sample in ((0, 0), (3, 9), (12, 1)):
                assert derive_seeds((run_seed, "mcd"), ids, (step, sample)) == [
                    derive_seed(run_seed, "mcd", eid, step, sample) for eid in ids]
