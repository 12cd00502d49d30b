"""The vectorised SeedSequence and Philox4x64-10 against numpy's own."""

import zlib

import numpy as np
import pytest

from streamdp.rng import (
    _lemire63,
    first_integers,
    make_rng,
    philox_random,
    philox_uint64,
    seed_sequence_keys,
    stream_keys,
)

MASK64 = 2**64 - 1
RANGE63 = 2**63 - 1


def numpy_key(seed, *labels):
    """The key numpy derives for make_rng(seed, *labels), one SeedSequence at a time."""
    entropy = [seed & MASK64] + [x & 0xFFFFFFFF if isinstance(x, int) else
                                 zlib.crc32(str(x).encode()) for x in labels]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def random_seeds(rng, n):
    """Seeds of every entropy length and sign: 0, below 2**32, at and above
    2**32, up to 2**64 - 1, and negative (masked to 64 bits)."""
    kind = rng.integers(0, 6, size=n)
    seeds = []
    for k in kind:
        if k == 0:
            seeds.append(int(rng.choice([0, 1, 2**32 - 1, 2**32, 2**64 - 1])))
        elif k == 1:
            seeds.append(int(rng.integers(0, 2**32)))
        elif k == 2:
            seeds.append(int(rng.integers(0, 2**32)) + 2**32)
        elif k == 3:
            seeds.append(int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2)))
        elif k == 4:
            seeds.append(-int(rng.integers(1, 2**63)))
        else:
            seeds.append(int(rng.integers(0, 2**63)))
    return seeds


class TestAgainstNumpy:
    N = 100_000

    LABELS = ("train", "noise", "sample", "laplace")

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(2024)
        seeds = random_seeds(rng, self.N)
        # model ids at and above 2**32 are masked to 32 bits, like any int label
        ids = rng.integers(0, 2**40, size=self.N)
        ids[::7] = rng.integers(0, 2**20, size=len(ids[::7]))
        labels = [self.LABELS[i % len(self.LABELS)] for i in range(self.N)]
        return seeds, labels, ids

    def test_keys_and_first_integers_match_numpy(self, draws):
        seeds, labels, ids = draws
        for label in self.LABELS:
            pos = [i for i, x in enumerate(labels) if x == label]
            keys = stream_keys([seeds[i] for i in pos], label, ids[pos])
            expect = np.array([numpy_key(seeds[i], label, int(ids[i])) for i in pos])
            assert np.array_equal(keys, expect)
            assert first_integers(keys).tolist() == [
                np.random.Generator(np.random.Philox(key=k)).integers(0, RANGE63)
                for k in expect]

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 7, 60, 61])
    def test_uniforms_match_numpy(self, draws, count):
        # counts that are not a multiple of a Philox block (4 outputs)
        seeds, _, ids = draws
        n = 2_000
        keys = stream_keys(seeds[:n], "laplace", ids[:n])
        u = philox_random(keys, count)
        for row, key in zip(u, keys):
            expect = np.random.Generator(np.random.Philox(key=key)).random(count)
            assert np.array_equal(row, expect)

    def test_raw_outputs_cross_chunks(self, monkeypatch):
        from streamdp import rng as rng_module

        monkeypatch.setattr(rng_module, "_CHUNK_BLOCKS", 3)
        keys = stream_keys([5, 2**40, 0, 7, 2**64 - 1, 11, 12], "laplace")  # 3 chunks
        assert philox_uint64(keys).tolist() == [
            np.random.Philox(key=key).random_raw() for key in keys]

    @pytest.mark.parametrize("seed,labels", [
        (7, ("laplace",)), (2**33, ("sgd",)), (0, ("train", 2**32 + 5)), (-3, ("noise", 12)),
        (2**64 - 1, ("a", "b", "c", "d")),  # five entropy words: more than the pool
    ])
    def test_matches_make_rng(self, seed, labels):
        key = stream_keys([seed], *labels)[0]
        assert np.array_equal(key, make_rng(seed, *labels).bit_generator.state["state"]["key"])
        assert first_integers(key[None])[0] == make_rng(seed, *labels).integers(0, RANGE63)
        assert np.array_equal(philox_random(key[None], 9)[0], make_rng(seed, *labels).random(9))

    def test_seed_sequence_pool_overflow(self):
        # entropy longer than the pool of 4 words takes SeedSequence's last loop
        entropy = np.random.default_rng(3).integers(0, 2**32, size=(50, 7), dtype=np.uint64)
        keys = seed_sequence_keys(entropy.astype(np.uint32))
        for row, key in zip(entropy, keys):
            expect = np.random.SeedSequence([int(x) for x in row]).generate_state(2, np.uint64)
            assert np.array_equal(key, expect)


class TestLemireRejection:
    def test_rejected_outputs_fall_back_to_numpy(self):
        # u * (2**63 - 1) has low word 0 at u = 0 and 1 at u = inverse;
        # both are below numpy's threshold of 2 and are drawn again
        inverse = pow(RANGE63, -1, 2**64)
        u = np.array([0, inverse, 1, 2**64 - 1, 12345], dtype=np.uint64)
        keys = stream_keys([11, 12, 13, 14, 15], "train")
        got = _lemire63(u, keys).tolist()
        for i in (0, 1):
            gen = np.random.Generator(np.random.Philox(key=keys[i]))
            assert got[i] == gen.integers(0, RANGE63)
        for i in (2, 3, 4):
            assert got[i] == (int(u[i]) * RANGE63) >> 64
            assert (int(u[i]) * RANGE63) & MASK64 >= 2

    def test_low_word_two_is_accepted(self):
        inverse = pow(RANGE63, -1, 2**64)
        u = np.array([2 * inverse % 2**64], dtype=np.uint64)
        assert (int(u[0]) * RANGE63) & MASK64 == 2
        got = _lemire63(u, stream_keys([1], "train"))
        assert got[0] == (int(u[0]) * RANGE63) >> 64
