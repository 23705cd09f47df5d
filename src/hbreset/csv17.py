"""CSV rows of floats in the bytes of `"%.17g" % v`, formatted in numpy.

`format_rows(a)` returns exactly

    "".join(",".join("%.17g" % v for v in row) + "\\n" for row in a)

as bytes, and `write_rows` streams the same bytes for columns laid side
by side. Python's `%` operator costs about a microsecond per float; this
module does the correctly rounded conversion for a chunk of `CHUNK` values
at a time instead (Steele & White, PLDI 1990; Adams, OOPSLA 2019):

1. Split |v| = m 2**e (`frexp`), estimate the decimal exponent
   X = floor(log10 |v|) and multiply m by 10**(16 - X), held as a
   double-double with its binary exponent apart. Dekker's exact product
   keeps the scaled value S = |v| 10**(16 - X) within about 1e-14 of
   the truth, so its 17 digits are round(S) wherever the fraction of S
   is more than `TIE_BAND` from one half.
2. Look the digits up four at a time as little-endian words and build
   each value's 32-byte slot from four 64-bit words: the sign, a `0.000`
   prefix and the first digit; the other 16 digits up to the decimal
   point; the same digits shifted a byte, with the point, up to the last
   digit that prints; the exponent and the separator. The masks come
   from a layout table indexed by X and the count of digits that print.
   Bytes outside them are NUL, and `bytes.translate` drops them.

Every value the fast path cannot decide takes CPython's own `'%.17g'`:
nan, +-inf, a fraction within `TIE_BAND` of one half (exact ties such as
2**-25 round half to even), a misestimated exponent and a rounding that
carries to 10**17. So exactness does not rest on the error bound alone.
Zeros print as `0` or `-0`.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

# values formatted per pass: 128 rows of a 10-d arc. The temporaries take
# a few hundred bytes per value; larger chunks save little time and raise
# the peak memory.
CHUNK = 3072
# fractions of S closer than this to one half are left to '%.17g'
TIE_BAND = 1e-6

XMIN, XMAX = -324, 308  # floor(log10 |v|) over the finite nonzero doubles
FIXED_LO, FIXED_HI = -4, 16  # exponents that '%.17g' writes without "e"
# layout classes: 0 is X < -4, 1..21 are X = -4..16, 22 is X > 16
CLASSES = FIXED_HI - FIXED_LO + 3


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian integer whose bytes are text from byte offset at."""
    return int.from_bytes(text, "little") << 8 * at


def _bytes(lo: int, hi: int) -> int:
    """The mask of bytes lo..hi-1 of a little-endian integer."""
    return (1 << 8 * hi) - (1 << 8 * lo) if hi > lo else 0


def _words(n: int) -> tuple[int, int, int]:
    """The three low 64-bit words of n, lowest first."""
    return n & (1 << 64) - 1, n >> 64 & (1 << 64) - 1, n >> 128 & (1 << 64) - 1


@cache
def _tables():
    """Power-of-ten, four-digit and layout tables, built on first use.

    powers: for each X, 10**(16 - X) = (H + L) 2**s to about 2**-106
    relative, with H in [1, 2) split in halves for Dekker's product
    (Hh + Hl = H); computed from plain ints.
    """
    hs, hh, hl, lo, shift = [], [], [], [], []
    for x in range(XMIN, XMAX + 1):
        k = 16 - x
        if k >= 0:
            num, t = 10 ** k, 0
        else:  # num = floor(2**bits / 10**-k) has about 128 bits
            bits = (10 ** -k).bit_length() + 128
            num, t = (1 << bits) // 10 ** -k, -bits
        over = max(num.bit_length() - 120, 0)  # H and L need 106 of them
        num, t = num >> over, t + over
        b = num.bit_length()
        top = max(b - 53, 0)
        head = num >> top
        h = math.ldexp(head, -min(b - 1, 52))
        c = h * 134217729.0
        hs.append(h)
        hh.append(c - (c - h))
        hl.append(h - hh[-1])
        lo.append(math.ldexp(float(num - (head << top)), -(b - 1)))
        shift.append(t + b - 1)
    powers = tuple(map(np.array, (hs, hh, hl, lo))) + (np.array(shift, np.int32),)

    g = np.arange(10000, dtype=np.uint32)
    # the four ASCII digits of g as a little-endian word
    quads = sum((g // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)).astype(np.uint64)
    # sig[j, g]: how many of the 17 digits print when group j of four
    # (digits 2+4j..5+4j) is g and the later groups are zero
    shown = 4 - sum((g % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    sig = np.where(g > 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + shown, 1)
    expo = np.array([_word(b"e%+03d" % x, 1) if not FIXED_LO <= x <= FIXED_HI else 0
                     for x in range(XMIN, XMAX + 1)], np.uint64)

    # layout[:, cls * 18 + k], for k significant digits (the integer
    # digits of a fixed value always print): the prefix word, and the masks
    # and point of the slot's middle words (see _format)
    layout = np.zeros((8, CLASSES * 18), np.uint64)
    for cls in range(CLASSES):
        x = cls + FIXED_LO - 1
        for k in range(1, 18):
            if x < FIXED_LO or x > FIXED_HI:
                point, keep, prefix = 0, k if k > 1 else 0, b""
            elif x < 0:
                point, keep, prefix = 16, k - 1, b"0." + b"0" * (-x - 1)
            else:
                point, keep, prefix = x, k if k > x + 1 else x, b""
            # byte b of the 17 after the first digit: digit b + 2 before
            # the point, the point, digit b + 1 after it; kept if b < keep
            kl, kh, _ = _words(_bytes(0, min(point, keep)))
            al, ah, ae = _words(_bytes(point + 1, keep))
            dl, dh, _ = _words(_word(b".", point) if point < keep else 0)
            layout[:, cls * 18 + k] = _word(prefix, 1), kl, al, dl, kh, ah, dh, ae
    return powers, quads, sig, expo, layout


def _format(a: np.ndarray) -> bytes:
    """The '%.17g' CSV bytes of the rows of one 2-D float chunk."""
    rows, cols = a.shape
    v = a.ravel()
    (hs, hh, hl, lo, shift), quads, sig, expo, layout = _tables()
    zero = v == 0
    nonzero = np.isfinite(v) & ~zero
    mag = np.where(nonzero, np.abs(v), 1.0)  # zeros and non-finite format 1.0
    x = np.floor(np.log10(mag)).astype(np.int32)
    i = x - XMIN
    m, e = np.frexp(mag)
    h_hi, h_lo = hh.take(i), hl.take(i)
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    p = m * hs.take(i)
    err = ((mh * h_hi - p) + mh * h_lo + ml * h_hi) + ml * h_lo
    e += shift.take(i)
    s_hi = np.ldexp(p, e)  # an integer: S >= 2**53 wherever X is right
    s_lo = np.ldexp(err + m * lo.take(i), e)
    floor_lo = np.floor(s_lo)
    frac = s_lo - floor_lo
    d = s_hi.astype(np.int64) + floor_lo.astype(np.int64)
    fast = np.abs(frac - 0.5) > TIE_BAND
    fast &= d >= 10 ** 16  # else X was estimated too high
    d += frac > 0.5
    fast &= d < 10 ** 17  # else X too low, or the rounding carried
    fast = fast & nonzero | zero

    # d = lead 10**16 + g1 10**12 + g2 10**8 + g3 10**4 + g4
    lead, rest = np.divmod(d, 10 ** 16)
    g1, rest = np.divmod(rest, 10 ** 12)
    g2, rest = np.divmod(rest, 10 ** 8)
    g3, g4 = np.divmod(rest, 10 ** 4)
    k = np.maximum(np.maximum(sig[0].take(g1), sig[1].take(g2)),
                   np.maximum(sig[2].take(g3), sig[3].take(g4)))
    cls = np.clip(x, FIXED_LO - 1, FIXED_HI + 1) - (FIXED_LO - 1)
    prefix, kl, al, dl, kh, ah, dh, ae = layout.take(cls * 18 + k, axis=1)
    low = quads.take(g1) | quads.take(g2) << 32  # digits 2..9
    high = quads.take(g3) | quads.take(g4) << 32  # digits 10..17

    # each value's slot: sign, prefix, first digit | digits 2..9 | digits
    # 10..17, kept (k*) before the point, and shifted a byte (a*) after it |
    # digit 17 shifted out, exponent, separator. Zeros format 1 as 0.
    out = np.empty((len(v), 4), "<u8")
    out[:, 0] = (np.signbit(v) * np.uint64(45) | prefix
                 | (lead - zero + 48).astype(np.uint64) << 48)
    out[:, 1] = low & kl | low << 8 & al | dl
    out[:, 2] = high & kh | (high << 8 | low >> 56) & ah | dh
    seps = np.full((rows, cols), 44 << 56, np.uint64)
    seps[:, -1] = 10 << 56
    out[:, 3] = high >> 56 & ae | expo.take(i) | seps.ravel()
    text = out.view(np.uint8)
    for j in np.flatnonzero(~fast).tolist():
        text[j, :-1] = np.frombuffer(("%.17g" % v[j]).encode().ljust(31, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def _step(cols: int) -> int:
    return max(CHUNK // cols, 1)


def format_rows(a) -> bytes:
    """The bytes of `"".join(",".join("%.17g" % v for v in row) + "\\n"
    for row in a)` for a 2-D float array a."""
    a = np.asarray(a, dtype=float)
    step = _step(a.shape[1])
    return b"".join(_format(a[lo:lo + step]) for lo in range(0, len(a), step))


def write_rows(fh, columns) -> None:
    """Write `format_rows` of the columns laid side by side (1-D columns
    and 2-D blocks of equal length) to the binary file fh, stacking one
    chunk of rows at a time."""
    n = len(columns[0])
    cols = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = _step(cols)
    for lo in range(0, n, step):
        part = [np.asarray(c[lo:lo + step], dtype=float) for c in columns]
        fh.write(_format(np.column_stack(part)))
