"""`'%.17g' % v` for whole arrays of float64, as fixed-width byte rows.

Each value becomes one row of `WIDTH` bytes; the bytes between its
characters are nul, so deleting every nul byte (`bytes.translate(None,
b"\\0")`) leaves exactly the text `'%.17g' % v`.

Values with 1e-4 <= |v| < 1e15, and zeros, are converted with array
arithmetic only, after Adams, "Ryu revisited: printf floating point
conversion" (OOPSLA 2019).  With d the decimal exponent, the 17 significant
digits are |v| * 10**s for s = 16 - d, rounded half to even.  Dekker's
product (Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 1971) of the doubles |v| and 10**s gives it exactly
as ph + pl; ph >= 2**53 is an even integer, so the digits are ph + rint(pl).
%g prints all these values in fixed notation, so the text follows from the
digits, d and the sign alone.  Every other value (inf, nan, the smallest and
largest magnitudes, and the few near a power of ten whose log10 estimate of d
is off by one) is formatted by Python, one at a time.

A row is five native uint64 words.  Each word is built for the whole array
as one contiguous row: a table lookup of its group of four digits, masked to
the digits the text keeps and overlaid with the sign, "0.000" and the point,
by a layout key of d, the significant-digit count and the sign.  Each row is
then stored into its column of the output.  `TEXT4`, the digits of the
groups "0000".."9999", also builds labels.
"""
from __future__ import annotations

import numpy as np

# bytes per value: sign | "0.000" | 17 x (digit, point slot).  The point
# slot after the 17th digit is never used, so the last byte is always nul.
WIDTH = 40
_DIGITS = slice(6, WIDTH, 2)

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
# 10**s for s = 16 - d = 20 - e, indexed by e = d + 4 in [0, 18]: exact, since 5**20 < 2**53
_SCALE = np.array([float(10 ** (20 - e)) for e in range(19)])


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = hi + lo exactly, each half of at most 26 bits."""
    t = v * _SPLIT
    hi = t - v
    np.subtract(t, hi, out=hi)
    return hi, np.subtract(v, hi, out=t)


_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _quads() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit group "0000".."9999": its digits in the even bytes
    of a native uint64 word, odd bytes nul; and, for the group at digits
    4j - 3 .. 4j (j = 1..4, the first digit being 0), the count of
    significant digits up to its last nonzero digit, at least 1."""
    g = np.arange(10000)
    text = np.zeros((10000, 8), dtype=np.uint8)
    for k, p in enumerate((3, 2, 1, 0)):
        text[:, 2 * k] = g // 10 ** p % 10 + ord("0")
    used = 4 - sum((g % 10 ** p == 0).astype(np.int8) for p in (1, 2, 3, 4))
    counts = np.array([np.where(used > 0, used + 4 * j - 3, 1) for j in (1, 2, 3, 4)])
    return text.view(np.uint64).ravel(), counts.astype(np.int8)


def _layout() -> tuple[np.ndarray, np.ndarray]:
    """For each key ((d + 4) * 18 + c) * 2 + negative, with decimal exponent
    d in [-4, 14] and significant-digit count c in [0, 17]: the mask of the
    digit bytes kept, and the other bytes of the text (sign, "0.000",
    point), each as a column of WIDTH // 8 native uint64 words, so that
    row j holds word j of every key."""
    template = np.frombuffer(b"-0.000" + b"\0." * 17, dtype=np.uint8)
    keep = np.zeros((19, 18, 2, WIDTH), dtype=bool)
    keep[:, :, 1, 0] = True  # the sign
    for d in range(-4, 15):
        for c in range(1, 18):
            row = keep[d + 4, c]
            if d >= 0:  # d + 1 integer digits, then a point only before a fraction
                row[:, _DIGITS][:, :max(d + 1, c)] = True
                row[:, 7 + 2 * d] = c > d + 1
            else:  # "0." and -d - 1 zeros, then the digits
                row[:, 1:2 - d] = True
                row[:, _DIGITS][:, :c] = True
    keep = keep.reshape(-1, WIDTH)
    rows = (np.where(keep & (template == 0), 0xFF, 0), np.where(keep, template, 0))
    return tuple(np.ascontiguousarray(r.astype(np.uint8).view(np.uint64).T) for r in rows)


_QUADS, _COUNTS = _quads()
_KEEP, _OVERLAY = _layout()
# word 0 of the digits, "000" and the first digit, keeps that digit alone
# under every key with c >= 1 (key 2 is d = -4, c = 1); 100 entries, as a
# wrong estimate of d can give a first "digit" up to 99
_FIRST = _QUADS[:100] & _KEEP[0, 2]
# "0000".."9999", 4 bytes each
TEXT4 = np.ascontiguousarray(_QUADS.view(np.uint8).reshape(-1, 8)[:, ::2])


def _digits17(a: np.ndarray):
    """(q, e, exact) for 1e-4 <= a < 1e15: q the 17 significant digits of a
    as an int64 in [10**16, 10**17) and e = d + 4 for d its decimal exponent,
    with `exact` False where the estimate of d was wrong and q means nothing."""
    f = np.log10(a)
    np.floor(f, out=f)
    np.clip(f, -4.0, 14.0, out=f)
    f += 4.0
    e = f.astype(np.intp)
    # a * 10**s = ph + pl exactly, by Dekker's product of the split halves,
    # summed in the order ((ah bh - ph) + ah bl + al bh) + al bl
    ah, al = _split(a)
    bh, bl = _SCALE_HI.take(e), _SCALE_LO.take(e)
    ph = _SCALE.take(e)
    ph *= a
    pl = ah * bh
    pl -= ph
    pl += np.multiply(ah, bl, out=ah)
    pl += np.multiply(al, bh, out=bh)
    pl += np.multiply(al, bl, out=al)
    # a * 10**s >= 10**16, since ph - 1e16 is exact near 1e16 and outweighs pl
    # elsewhere; then ph >= 2**53 is even, and rint(pl) rounds the sum half to even
    sign = np.subtract(ph, 1e16, out=bl)
    sign += pl
    exact = sign >= 0.0
    q = ph.astype(np.int64)
    q += np.rint(pl, out=pl).astype(np.int64)  # < 10**18
    # q < 10**17 also after rounding: no double in the window lies within half
    # a unit of the 17th digit below a power of ten, so no carry to an 18th
    exact &= q < 10 ** 17
    return q, e, exact


def write_g17(values: np.ndarray, out: np.ndarray) -> None:
    """Write `'%.17g' % v` for each v of the float64 array `values` into the
    matching row of `out`, a uint8 array of shape values.shape + (WIDTH,)
    whose rows are contiguous and 8-byte aligned, with nul bytes between the
    characters and in the last byte of each row."""
    v = values.ravel()
    a = np.abs(v)
    done = a >= 1e-4
    done &= a < 1e15
    zero = v == 0.0
    np.copyto(a, 1.0, where=~done)  # 1.0 gives q = 10**16, d = 0
    q, key, exact = _digits17(a)
    done &= exact
    done |= zero
    np.copyto(q, 0, where=zero)  # "0": d = 0 and one significant digit
    # 20 digits in 5 words; the first 3 are always "0" and fall on the sign
    # and "0.000" bytes, whose keep-mask is clear
    top = q // 10 ** 16
    q -= top * 10 ** 16
    high = q // 10 ** 8
    q -= high * 10 ** 8
    quads = [top]
    for half in (high, q):
        first = half // 10 ** 4
        half -= first * 10 ** 4
        quads += [first, half]
    count = _COUNTS[0].take(quads[1])
    for counts, quad in zip(_COUNTS[1:], quads[2:]):
        np.maximum(count, counts.take(quad), out=count)
    key *= 18
    key += count
    key *= 2
    key += np.signbit(v)
    # each word is built as a contiguous row, then stored into its column of
    # `out`: bitwise ops on strided rows run several times slower.  Every
    # index is in range; "clip" only lets `take` write into `out=` unbuffered
    words = out.view(np.uint64)
    word, mask = np.empty_like(q, dtype=np.uint64), np.empty_like(q, dtype=np.uint64)
    for j, quad in enumerate(quads):
        if j:
            _QUADS.take(quad, out=word, mode="clip")
            word &= _KEEP[j].take(key, out=mask, mode="clip")
        else:
            _FIRST.take(quad, out=word, mode="clip")
        word |= _OVERLAY[j].take(key, out=mask, mode="clip")
        words[..., j] = word.reshape(values.shape)
    if not done.all():
        slow = np.nonzero(~done.reshape(values.shape))
        text = [("%.17g" % x).encode() for x in values[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
