"""Seeded, splittable random number generation.

All randomness in the package flows from an explicit integer seed plus
stream labels, so that every run is reproducible from (data, config, seed)
and independent draws never share a stream. `make_rng(seed, *labels)` is a
numpy Generator over Philox keyed by numpy's `SeedSequence` of the entropy
words (seed, label, ...).

A run also draws from thousands of tiny streams: one subseed per (seed,
event, label) and one Laplace draw per trained model. Building a Generator
for each costs more than its draws, so `stream_keys` and `first_integers`
compute the same keys and first values for a whole array of streams with a
few array operations: a numpy port of `SeedSequence`'s mixing (uint32
hashmix, pool size 4) and of Philox4x64-10 (Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3"). Philox is counter-based: output
block j of a stream is its key pushed through ten rounds with counter
j + 1, so a stream's first output comes straight from its key.
`philox_random`, whose streams are few and each draws many values, re-keys
one numpy Philox to each stream in turn by setting its state. The results
are numpy's own, bit for bit; tests check them against numpy.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence (numpy/random/bit_generator.pyx), pool size 4
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10: round multipliers and the Weyl increments of the key
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_ROUNDS = 10

# Keys whose first Philox block is computed per array operation; bounds the
# generator's working set at about a dozen arrays of this many uint64s.
_CHUNK_BLOCKS = 1 << 12

_RANGE63 = 2**63 - 1  # integers(0, 2**63 - 1) draws from [0, 2**63 - 2]


def _label_entropy(label) -> int:
    if isinstance(label, int):
        return label & 0xFFFFFFFF
    return zlib.crc32(str(label).encode())


def make_rng(seed: int, *labels) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by seed and stream labels."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_entropy(x) for x in labels]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _hashmix(value, hash_const):
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = hash_const[0] * _MULT_A & _MASK32
    value = value * np.uint32(hash_const[0])
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(e).generate_state(2, np.uint64)` for each row e of an
    (N, L) array of uint32 entropy words, as an (N, 2) uint64 array: the
    Philox key `Philox(SeedSequence(e))` uses."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, width = entropy.shape
    hash_const = [_INIT_A]
    zero = np.zeros(n, dtype=np.uint32)
    pool = [_hashmix(entropy[:, i] if i < width else zero, hash_const) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], hash_const))
    # generate_state: four uint32 words, read pairwise as little-endian uint64
    hash_const = _INIT_B
    words = []
    for i in range(4):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([words[0] | words[1] << np.uint64(32),
                     words[2] | words[3] << np.uint64(32)], axis=1)


def _as_uint64(values) -> np.ndarray:
    """Integers modulo 2**64, as make_rng masks a seed."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)  # two's complement: the same as & _MASK64
    return np.array([int(v) & _MASK64 for v in values], dtype=np.uint64)


def stream_keys(seeds, *labels) -> np.ndarray:
    """The Philox key of `make_rng(seed, *labels)` for each of N seeds, as an
    (N, 2) uint64 array.

    Each label is a str or int shared by every seed, or an integer array
    with one int label per seed. numpy turns a seed below 2**32 into one
    entropy word and a larger one into two, and a label into one word, so
    the keys are computed per entropy length.
    """
    seeds = _as_uint64(seeds)
    label_words = [np.broadcast_to(
        np.uint64(_label_entropy(x)) if isinstance(x, (int, str))
        else _as_uint64(np.asarray(x)) & np.uint64(_MASK32), seeds.shape) for x in labels]
    low, high = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    wide = high > 0
    keys = np.empty((len(seeds), 2), dtype=np.uint64)
    for rows, seed_words in ((~wide, [low]), (wide, [low, high])):
        if rows.any():
            keys[rows] = seed_sequence_keys(
                np.stack([w[rows] for w in seed_words + label_words], axis=1))
    return keys


def _mulhilo(a: np.ndarray, m: int):
    """High and low 64 bits of the 128-bit products of uint64 a with m."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    a_lo, a_hi = a & np.uint64(_MASK32), a >> np.uint64(32)
    hi_lo = a_hi * m_lo
    # (a_lo * m) >> 32 plus the low half of hi_lo: at most
    # 2 * (2**32 - 1) + (2**32 - 1)**2 = 2**64 - 1, so the sum does not wrap
    mid = (a_lo * m_lo >> np.uint64(32)) + (hi_lo & np.uint64(_MASK32)) + a_lo * m_hi
    hi = a_hi * m_hi + (hi_lo >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, a * np.uint64(m)


def philox_uint64(keys: np.ndarray) -> np.ndarray:
    """The first raw output of `Philox(key=k)` for each row k of an (N, 2)
    uint64 key array, as an (N,) uint64 array: the first word of
    Philox4x64-10 of the counter (1, 0, 0, 0), as numpy's Philox starts at
    counter 0 and increments it before each block."""
    out = np.empty(len(keys), dtype=np.uint64)
    for start in range(0, len(keys), _CHUNK_BLOCKS):
        k0, k1 = keys[start:start + _CHUNK_BLOCKS].T
        zero = np.zeros_like(k0)
        c0, c1, c2, c3 = np.ones_like(k0), zero, zero, zero
        for r in range(_ROUNDS):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        out[start:start + len(c0)] = c0
    return out


def philox_random(keys: np.ndarray, count: int) -> np.ndarray:
    """`Generator(Philox(key=k)).random(count)` for each key row, as an (N,
    count) float64 array. One numpy Philox draws them all, re-keyed to each
    key in turn by setting its state, which costs a tenth of building a
    generator; at the few hundred keys of a stack's noise that costs less
    than the ten array rounds of `philox_uint64`."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((len(keys), count))
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": None},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(out=row)
    return out


def first_integers(keys: np.ndarray) -> np.ndarray:
    """`Generator(Philox(key=k)).integers(0, 2**63 - 1)` for each key row,
    as an int64 array."""
    return _lemire63(philox_uint64(keys), keys)


def _lemire63(u: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """numpy's 64-bit Lemire draw from [0, 2**63 - 2] given each key's first
    output u: the high word of the 128-bit product u * (2**63 - 1). numpy
    rejects u when the low word is below 2**64 mod (2**63 - 1) = 2 and draws
    again; those keys, about one in 2**63, are left to numpy's own sampler.
    """
    hi, lo = _mulhilo(u, _RANGE63)
    out = hi.astype(np.int64)
    for i in np.flatnonzero(lo < 2):
        out[i] = np.random.Generator(np.random.Philox(key=keys[i])).integers(0, _RANGE63)
    return out
