"""Bulk "%.17g": numpy formats a block of doubles exactly as "%.17g" does.

A value v with 1e-6 < |v| < 1e17 has a decade X = floor(log10 |v|) and 17
significant digits D = round-half-even(|v| * 10**p), p = 16 - X.  The
product is taken exactly, as hi + lo (Dekker's TwoProduct: p <= 22, and
10**22 is the largest power of ten a double holds exactly), so float64 alone
gives D.  Each value's text is laid out in a 24-byte slot by its decade,
NUL where empty; every other value gets MARK for the "%.17g" template.

io imports this module on its first bulk block, so a process that writes
only small tables never compiles it or builds its tables.
"""
from __future__ import annotations

import numpy as np

SLOT = 24        # text bytes per value: at most 23, then a separator
MARK = b"\x01"   # a slot that the "%.17g" template fills


def _halves(a):
    """Veltkamp's split: a == hi + lo exactly, each half of at most 26 bits."""
    c = a * 134217729.0   # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _digit_tables():
    """Each k < 10**4 as four digits in the low bytes of a word, and its
    count of trailing zero digits (4 for 0), built from 100-entry tables."""
    two = np.array([_word(b"%02d" % k) for k in range(100)], np.uint64)
    zeros2 = np.array([2 - len((b"%02d" % k).rstrip(b"0")) for k in range(100)], np.uint8)
    digits = (two[:, None] | two << np.uint64(16)).ravel()   # k = 100 * hi + lo
    zeros = np.where(np.arange(100) == 0, zeros2[:, None] + np.uint8(2), zeros2).ravel()
    return digits, zeros


def _layouts():
    """One layout per decade X in -6..16 of a 24-byte slot, NUL where empty:
    its constant bytes, by key 4 * (X + 6) + 2 * (a fraction shows) + (sign),
    and the mask of the digits that move down a byte to make room for the
    point, by X + 6, each as three words: arrays (3, 92) and (3, 23).

    Digit j starts at byte 6 + j and the sign takes byte 0.  In fixed notation
    (X >= -4) digits 0..X move down and the point takes byte 6 + X, or "0." and
    -X - 1 zeros end at byte 5.  In exponent notation digit 0 moves down, then
    every digit four bytes more, and "e-0N" takes bytes 19-22.  Byte 23 holds
    a comma.
    """
    const, move = [], []
    for x in range(-6, 17):
        for frac in (0, 1):
            for neg in (0, 1):
                t = bytearray(SLOT)
                t[0], t[-1] = ord("-") * neg, ord(",")
                if x >= 0:
                    t[6 + x] = ord(".") * frac
                elif x >= -4:
                    t[5 + x:6] = b"0." + b"0" * (-x - 1)
                else:
                    t[2] = ord(".") * frac
                    t[19:23] = b"e-0%d" % -x
                const.append(t)
        top = 6 + x if x >= 0 else 6 if x < -4 else -1
        move.append(b"\xff" * (top + 1) + b"\0" * (SLOT - top - 1))
    return tuple(np.array([[_word(t[i:i + 8]) for t in ts] for i in range(0, SLOT, 8)], np.uint64)
                 for ts in (const, move))


_POW10 = np.array([float(10 ** p) for p in range(23)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_DIGITS4, _ZEROS4 = _digit_tables()
_LEAD = np.array([_word(b"\0" * 6 + b"%d" % d) for d in range(10)], np.uint64)   # at byte 6
# digits 1-8 and 9-16 fill two words, A and B; these masks keep the first K digits
_KEEP_A = np.array([(1 << 8 * min(max(k - 1, 0), 8)) - 1 for k in range(18)], np.uint64)
_KEEP_B = np.array([(1 << 8 * min(max(k - 9, 0), 8)) - 1 for k in range(18)], np.uint64)
_CONST, _MOVE = _layouts()
_MARK_SLOT = np.frombuffer(MARK.ljust(SLOT - 1, b"\0") + b",", np.uint8)


def _times_pow10(a, p):
    """hi + lo == a * 10**p exactly: Dekker's TwoProduct, in float64 alone."""
    hi = a * _POW10[p]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _decade_digits(a):
    """X = floor(log10 a) and the 17 digits D = round-half-even(a * 10**(16 - X)),
    for 1e-6 < a < 1e17."""
    X = np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)   # log10 may round to 17
    hi, lo = _times_pow10(a, 16 - X)
    # log10 may miss by one next to a power of ten, either way: for the right
    # X the exact product hi + lo lies in [1e16, 1e17)
    if len(near := np.flatnonzero((hi <= 1e16) | (hi >= 1e17))):
        h, l = hi[near], lo[near]
        X[near] += (h > 1e17) | (h == 1e17) & (l >= 0)
        X[near] -= (h < 1e16) | (h == 1e16) & (l < 0)
        hi[near], lo[near] = _times_pow10(a[near], 16 - X[near])
    # hi is an even integer above 2**53, so rint rounds hi + lo half to even.
    # No double in the range rounds up to 10**17: only the one just below a
    # power of ten could, and each of those lies more than 8 units below.
    return X, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _divmod(x, d: int):
    # floor division by a constant is fast, numpy's % and divmod are not
    q = x // d
    return q, x - q * d


def in_range(v) -> np.ndarray:
    """Where format_slots formats v itself: 1e-6 < |v| < 1e17."""
    a = np.abs(v)
    return (a > 1e-6) & (a < 1e17)


def format_slots(v, ok) -> np.ndarray:
    """(len(v), SLOT) uint8: each value of v as "%.17g" writes it, in the
    layout of its decade with a comma in the last byte, or MARK where ok,
    in_range(v), is false."""
    a = np.abs(v)
    if not (full := ok.all()):
        a[~ok] = 1.1   # formatted, then marked (17 digits, no zero last)
    X, D = _decade_digits(a)
    del a
    d0, D = _divmod(D, 10 ** 16)
    hi8, lo8 = _divmod(D, 10 ** 8)
    g = [*_divmod(hi8, 10 ** 4), *_divmod(lo8, 10 ** 4)]   # four digits each
    del D, hi8, lo8
    # K digits kept: trailing zeros go, but not the integer digits of fixed notation
    zeros = _ZEROS4[g[3]]
    if len(z := np.flatnonzero(g[3] == 0)):
        more = np.ones(len(z), bool)
        for j in (2, 1, 0):
            zeros[z] += more * _ZEROS4[g[j][z]]
            more &= g[j][z] == 0
    K = 17 - zeros.astype(np.int64)
    xi = X + 6   # the decade's row of the layout tables
    key = 4 * xi + 2 * (K > np.maximum(X, 0) + 1) + (v < 0)
    np.maximum(K, X + 1, out=K)
    A = (_DIGITS4[g[0]] | _DIGITS4[g[1]] << np.uint64(32)) & _KEEP_A[K]
    B = (_DIGITS4[g[2]] | _DIGITS4[g[3]] << np.uint64(32)) & _KEEP_B[K]
    del g
    w = [_LEAD[d0] | A << np.uint64(56), A >> np.uint64(8) | B << np.uint64(56), B >> np.uint64(8)]
    del A, B
    low = w[0] & _MOVE[0][xi]
    for i in range(3):
        w[i] ^= low
        w[i] |= low >> np.uint64(8)
        if i < 2:
            low = w[i + 1] & _MOVE[i + 1][xi]
            w[i] |= low << np.uint64(56)
    del low
    if len(e := np.flatnonzero(X < -4)):   # exponent notation: four bytes further down
        we = [w[i][e] for i in range(3)] + [0]
        for i in range(3):
            w[i][e] = we[i] >> np.uint64(32) | we[i + 1] << np.uint64(32)
    words = np.empty((len(v), 3), np.uint64)
    for i in range(3):
        np.bitwise_or(w[i], _CONST[i][key], out=words[:, i])
    slots = words.astype("<u8", copy=False).view(np.uint8)   # the words are little-endian
    if not full:
        slots[~ok] = _MARK_SLOT
    return slots


