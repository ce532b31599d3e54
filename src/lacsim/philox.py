"""numpy's Philox draws for whole arrays of counters, bit for bit.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011) is a keyed function from a 4-word counter to 4 random words: ten
rounds of two 64 x 64 -> 128-bit products and xors, with the key bumped by
two Weyl constants between rounds.  numpy's `Philox` adds one to its counter
before it computes a block, so a fresh generator whose counter is c returns
word 0 of Philox(c + 1) first.  `Philox.first_words` computes that word for
many counters at once in uint64 arithmetic, the high product words from
32-bit halves.

From a word w numpy's `Generator` draws
- `uniform(low, high)`: low + (high - low) * ((w >> 11) * 2**-53), exactly;
- `standard_normal()`: by its 256-layer ziggurat (Marsaglia and Tsang, "The
  Ziggurat Method for Generating Random Variables", J. Stat. Softw. 2000).
  With idx = w & 0xff and rabs = (w >> 9) & (2**52 - 1), the draw is
  +-rabs * wi[idx], its sign bit (w >> 8) & 1, whenever rabs < ki[idx].  The
  other 1.5-2 % of words start the wedge or tail test, which draws more
  words; `normal_accepts` leaves those points to a scalar generator.
"""
from __future__ import annotations

import numpy as np

from ._ziggurat import KI, WI

MASK64 = (1 << 64) - 1
ROUNDS = 10
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key bumps

# uint64 scalars only: a uint64 array mixed with an int64 one becomes float64
_U = np.uint64
_9, _11, _32 = _U(9), _U(11), _U(32)
_SIGN, _BYTE, _LOW32, _LOW52 = _U(0x100), _U(0xFF), _U(0xFFFFFFFF), _U((1 << 52) - 1)
_KI = np.array(KI, dtype=np.uint64)
_WI = np.array(WI, dtype=np.float64)

# A round multiplies words 0 and 2 by M0 and M1 and maps (x0, x1, x2, x3) to
# (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0).  The state is two pairs of rows:
# the words to multiply, P, and the words passed on, Q.  Before an even round
# (0, 2, ..) P = [x0, x2] and Q = [x1, x3]; before an odd one P = [x2, x0]
# and Q = [x3, x1].  Either way one round is P <- hi(P m) ^ reversed(Q) ^ key
# and Q <- lo(P m), with m = [M0, M1] in even rounds and [M1, M0] in odd
# ones, and the key's two words in the order of the new P's rows.


def _column(*words: int) -> np.ndarray:
    return np.array(words, dtype=np.uint64).reshape(-1, 1)


def _multiplier(m0: int, m1: int) -> tuple:
    """Rows m0 and m1: whole, low halves, high halves."""
    return _column(m0, m1), _column(m0 & 0xFFFFFFFF, m1 & 0xFFFFFFFF), _column(m0 >> 32, m1 >> 32)


_MULTIPLIERS = (_multiplier(_M0, _M1), _multiplier(_M1, _M0))


def _round_keys(seed: int) -> list[np.ndarray]:
    """Round r's key for the key (seed low word, seed high word), as a column
    in the order of the rows that round writes: [x2, x0] after an even round,
    [x0, x2] after an odd one.  The bumps are summed as Python ints, since a
    uint64 scalar sum that wraps warns."""
    k0, k1 = seed & MASK64, (seed >> 64) & MASK64
    keys = [((k0 + r * _W0) & MASK64, (k1 + r * _W1) & MASK64) for r in range(ROUNDS)]
    return [_column(*(key[::-1] if r % 2 == 0 else key)) for r, key in enumerate(keys)]


def _mulhilo(a, m, lo, hi, t, u) -> None:
    """lo, hi = the low and high words of a * m for a `_multiplier` m, by
    Warren's 32-bit-halves product ("Hacker's Delight", 8-2), in which no
    partial sum wraps; t and u are scratch, a is kept."""
    whole, m_lo, m_hi = m
    np.bitwise_and(a, _LOW32, out=t)
    np.right_shift(a, _32, out=u)
    np.multiply(t, m_lo, out=hi)
    hi >>= _32
    np.multiply(u, m_lo, out=lo)
    hi += lo              # a_hi m_lo + the carry word of a_lo m_lo
    t *= m_hi
    np.bitwise_and(hi, _LOW32, out=lo)
    t += lo               # a_lo m_hi + that sum's low half
    hi >>= _32
    t >>= _32
    hi += t
    u *= m_hi
    hi += u
    np.multiply(a, whole, out=lo)


class Philox:
    """Word 0 of Philox4x64-10 at counters [c0, c1, 0, 0] under one key, for
    up to `size` counters per call, in buffers reused from call to call."""

    def __init__(self, seed: int, size: int):
        self.keys = _round_keys(seed)
        self._buf = np.empty((6, 2, size), dtype=np.uint64)

    def first_words(self, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
        """Word 0 of Philox(counter [c0, c1, 0, 0]) for uint64 arrays c0 and
        c1 of one length; a view of a buffer the next call overwrites."""
        p, q, lo, hi, t, u = self._buf[:, :, :len(c0)]
        p[0], p[1], q[0], q[1] = c0, 0, c1, 0
        for r, key in enumerate(self.keys):
            _mulhilo(p, _MULTIPLIERS[r % 2], lo, hi, t, u)
            np.bitwise_xor(hi, q[::-1], out=hi)
            hi ^= key
            p, q, lo, hi = hi, lo, p, q
        return p[0]  # an even number of rounds leaves P = [x0, x2]


def uniform(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """`Generator.uniform(low, high)` from each word."""
    u = (words >> _11).astype(np.float64)
    u *= 2.0 ** -53
    u *= high - low
    u += low
    return u


def normal_accepts(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`Generator.standard_normal()` into `out` where the ziggurat accepts
    the word's draw at once; returns the mask of the other points, whose
    `out` values are not draws."""
    idx = (words & _BYTE).astype(np.intp)
    rabs = words >> _9
    rabs &= _LOW52
    rejected = rabs >= np.take(_KI, idx)
    np.multiply(rabs, np.take(_WI, idx), out=out)  # rabs < 2**52 converts exactly
    np.negative(out, out=out, where=(words & _SIGN).astype(bool))
    return rejected
