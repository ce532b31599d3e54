"""Seeded PCG64 streams, one per seed or one per (seed, replicate).

Replicate r of a Monte Carlo run draws from the generator numpy builds from
`SeedSequence(seed, spawn_key=(r,))`.  Building that SeedSequence costs more
than the replicate's own draws, so `spawned_words` computes the four seeding
words of a whole block of replicates at once: it starts from the pool of one
real `SeedSequence(seed)` and repeats numpy's uint32 hash mixing of the spawn
word and of `generate_state` as array arithmetic.  The words, and so every
draw, are bit for bit those of the per-replicate construction.

Each replicate's `PCG64` takes its row of words through `_seed_words()`, a
real subclass of numpy's `ISeedSequence` (PCG64 checks its seed against that
class), so a replicate costs one `PCG64`, one `Generator` and its own draws.
"""
from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import ValidationError

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4


def check_seed(seed) -> None:
    """A seed is a non-negative integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def generator(seed) -> np.random.Generator:
    """The generator `Generator(PCG64(SeedSequence(seed)))`."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _hash_consts(init: int, mult: int, first: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiply) constants of hash calls first..first+count-1: call c
    xors with init * mult^c and multiplies by init * mult^(c+1), mod 2^32."""
    h = [init * pow(mult, c, 1 << 32) & _MASK32 for c in range(first, first + count + 1)]
    return list(zip(h, h[1:]))


def _shift_xor(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def spawned_words(seed, first: int, count: int) -> np.ndarray:
    """Row j is `SeedSequence(seed, spawn_key=(first + j,)).generate_state(4,
    np.uint64)`: the words that seed replicate first + j's PCG64."""
    check_seed(seed)
    if first < 0 or count < 0 or first + count > 1 << 32:
        # an index of 2**32 or more is two spawn words, not mixed here
        raise ValidationError(f"spawn indices {first}..{first + count - 1} "
                              "must lie in 0..2**32 - 1")
    seq = np.random.SeedSequence(seed)
    run_words = max(1, -(-int(seed).bit_length() // 32))
    # mixing SeedSequence(seed)'s run words made 4 initial, 12 cross and 4 per
    # extra run word hash calls; the spawn word continues that sequence
    call = 16 + 4 * max(run_words - _POOL_SIZE, 0)
    spawn = (np.arange(count, dtype=np.uint64) + np.uint64(first)).astype(np.uint32)
    mixer = []
    for v, (xor, mul) in zip(seq.pool, _hash_consts(_INIT_A, _MULT_A, call, _POOL_SIZE)):
        hashed = _shift_xor((spawn ^ np.uint32(xor)) * np.uint32(mul))
        mixer.append(_shift_xor(_MIX_MULT_L * np.full(count, v, dtype=np.uint32)
                                - _MIX_MULT_R * hashed))
    state = np.empty((count, 8), dtype=np.uint32)
    for i, (xor, mul) in enumerate(_hash_consts(_INIT_B, _MULT_B, 0, 8)):
        state[:, i] = _shift_xor((mixer[i % _POOL_SIZE] ^ np.uint32(xor)) * np.uint32(mul))
    # generate_state pairs the uint32 words little-endian into uint64 words
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words() -> type:
    """The class of precomputed seeding words, handed to PCG64 as its seed
    sequence.  It subclasses numpy's `ISeedSequence`, which PCG64 checks its
    seed against: a real subclass passes that check faster than a registered
    one.  Built on first use so that importing lacsim does not load
    numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint64):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError("precomputed words serve PCG64's 4 uint64 words only")
            return self.words

    return SeedWords


def replicate_generators(seed, first: int, count: int):
    """The generators of replicates first..first+count-1, in order, each the
    one `Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))` gives."""
    # maps build each generator without a Python frame per replicate
    words = map(_seed_words(), spawned_words(seed, first, count))
    return map(np.random.Generator, map(np.random.PCG64, words))
