"""Floats as text in the bytes of Python's `%`, formatted in numpy.

`format_rows(a)` returns exactly

    "".join(",".join("%.17g" % v for v in row) + "\\n" for row in a)

as bytes, and `write_rows` streams the same bytes for columns laid side
by side: the CSV rows of `discrete` and `hybrid`. `format_fixed(a)`
returns exactly

    " ".join(",".join("%.3f" % v for v in row) for row in a)

as bytes, which for (n, 2) points is the `points` text of an SVG
polyline, `" ".join("%.3f,%.3f" % pair for pair in a)`. Python's `%`
operator costs a few hundred nanoseconds per float even inside one
format string; this module converts a chunk of `CHUNK` values at a time
instead.

`%.17g`, correctly rounded (Steele & White, PLDI 1990; Adams, OOPSLA
2019):

1. Split |v| = m 2**e (`frexp`), estimate the decimal exponent
   X = floor(log10 |v|) and multiply m by 10**(16 - X), held as a
   double-double with its binary exponent apart. Dekker's exact product
   keeps the scaled value S = |v| 10**(16 - X) within about 1e-14 of
   the truth, so its 17 digits are round(S) wherever the fraction of S
   is more than `TIE_BAND` from one half. `log10` rounds X up for
   doubles a few ulps below a power of ten; their S is below 10**16,
   and they are scaled again with X - 1. An S that rounds up to 10**17
   prints as 10**(X + 1).
2. Look the digits up four at a time as little-endian words and build
   each value's 32-byte slot from four 64-bit words: the sign, a `0.000`
   prefix and the first digit; the other 16 digits up to the decimal
   point; the same digits shifted a byte, with the point, up to the last
   digit that prints; the exponent and the separator. The masks come
   from a layout table indexed by X and the count of digits that print.
   Bytes outside them are NUL, and `bytes.translate` drops them.

`%.3f` of |v| < 1e7: Dekker's TwoProduct (1971) gives S = |v| 1000 as
p + err exactly, p the double nearest S. As p < 2**34, its ulp divides
1/2, so the fraction f = p - floor(p) is either 1/2 or at least an ulp
from it, while |err| is at most half an ulp. S thus rounds, half to
even, to floor(p) + 1 when f > 1/2, or f = 1/2 and err > 0, or f = 1/2,
err = 0 and floor(p) is odd; and to floor(p) otherwise. Only the values
with f = 1/2 need err. Every value in range is decided, with no tie
band. Its eight integer digits and three
decimals come from the same four-digit table, in a 16-byte slot of two
words: the sign and the integer digits but the last, with leading zeros
masked to NUL; the last integer digit, the point, the decimals and the
separator. So -0.0001 prints `-0.000`, as `%` prints it.

Every value that a fast path cannot decide takes CPython's own format
through `_python`: nan and +-inf for both; for `%.17g` a fraction within
`TIE_BAND` of one half (exact ties such as 2**-25 round half to even);
for `%.3f` every |v| >= 1e7, whatever its length. So exactness does not
rest on the error bound alone. Zeros print as `0` or `-0` under `%.17g`.
"""
from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

# values formatted per pass: 128 rows of a 10-d arc. The temporaries take
# a few hundred bytes per value; larger chunks save little time and raise
# the peak memory.
CHUNK = 3072
# fractions of S closer than this to one half are left to '%.17g'
TIE_BAND = 1e-6
# '%.3f' values at or above this magnitude are left to '%': S < 2**34
FIXED_LIMIT = 1e7

XMIN, XMAX = -324, 308  # floor(log10 |v|) over the finite nonzero doubles
FIXED_LO, FIXED_HI = -4, 16  # exponents that '%.17g' writes without "e"
# layout classes: 0 is X < -4, 1..21 are X = -4..16, 22 is X > 16
CLASSES = FIXED_HI - FIXED_LO + 3
ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0's


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
def _quads() -> np.ndarray:
    """The four ASCII digits of g < 10000, zero-padded, as a little-endian word."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    quads = digit
    for j in range(1, 4):  # each digit of g appends a byte
        quads = (quads[:, None] | digit << 8 * j).ravel()
    return quads


@cache
def _tables():
    """The '%.17g' power-of-ten, digit-count and layout tables, built on
    first use.

    powers[X - XMIN] = (H, Hh, Hl, L) and shift[X - XMIN] = s: 10**(16 - X)
    = (H + L) 2**s to about 2**-106 relative, with H in [1, 2) split in
    halves for Dekker's product (Hh + Hl = H); computed from plain ints.
    """
    powers, shift = [], []
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
        hh = c - (c - h)
        powers.append((h, hh, h - hh, math.ldexp(float(num - (head << top)), -(b - 1))))
        shift.append(t + b - 1)

    g = np.arange(10000, dtype=np.uint32)
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
    return np.array(powers), np.array(shift, np.int32), sig, expo, layout


@lru_cache(maxsize=8)
def _seps(rows: int, cols: int, end: int, at: int) -> np.ndarray:
    """The separator words of a (rows, cols) chunk, flattened and read-only:
    byte `at` holds ',' after a value and `end` after the last of a row."""
    seps = np.full((rows, cols), ord(",") << 8 * at, np.uint64)
    seps[:, -1] = end << 8 * at
    seps = seps.ravel()
    seps.flags.writeable = False
    return seps


def _python(fmt: str, values: np.ndarray) -> list[bytes]:
    """CPython's `fmt % v` of each value that a fast path leaves."""
    return [(fmt % v).encode() for v in values.tolist()]


def _scaled(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(S), S - floor(S)) for S = m 2**e 10**(16 - x), S within about
    1e-14 of the truth, and floor(S) < 2**63."""
    powers, shift = _tables()[:2]
    i = x - XMIN
    h, h_hi, h_lo, low = powers.take(i, axis=0).T
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    p = m * h
    err = ((mh * h_hi - p) + mh * h_lo + ml * h_hi) + ml * h_lo
    e = e + shift.take(i)
    s_lo = np.ldexp(err + m * low, e)
    floor_lo = np.floor(s_lo)
    return np.ldexp(p, e).astype(np.int64) + floor_lo.astype(np.int64), s_lo - floor_lo


def _format(a: np.ndarray) -> bytes:
    """The '%.17g' CSV bytes of the rows of one 2-D float chunk."""
    rows, cols = a.shape
    v = a.ravel()
    sig, expo, layout = _tables()[2:]
    quads = _quads()
    zero = v == 0
    nonzero = np.isfinite(v) & ~zero
    mag = np.where(nonzero, np.abs(v), 1.0)  # zeros and non-finite format 1.0
    x = np.floor(np.log10(mag)).astype(np.int32)
    m, e = np.frexp(mag)
    d, frac = _scaled(m, e, x)
    # X was estimated one too high (the smallest double has S > 10**16, so
    # X - 1 stays in the tables)
    high = np.flatnonzero(d < 10 ** 16)
    if high.size:
        x[high] -= 1
        d[high], frac[high] = _scaled(m[high], e[high], x[high])
    fast = np.abs(frac - 0.5) > TIE_BAND
    fast &= d >= 10 ** 16
    d += frac > 0.5
    # S rounded up to 10**17: its one digit is that of 10**(X + 1)
    carry = np.flatnonzero(d == 10 ** 17)
    if carry.size:
        d[carry] = 10 ** 16
        x[carry] += 1
    fast &= d < 10 ** 17  # else X was estimated too low
    fast = fast & nonzero | zero

    # d = lead 10**16 + g1 10**12 + g2 10**8 + g3 10**4 + g4
    lead = d // 10 ** 16
    g4 = d - lead * 10 ** 16
    g1 = g4 // 10 ** 12
    g4 -= g1 * 10 ** 12
    g2 = g4 // 10 ** 8
    g4 -= g2 * 10 ** 8
    g3 = g4 // 10 ** 4
    g4 -= g3 * 10 ** 4
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
    out[:, 3] = high >> 56 & ae | expo.take(x - XMIN) | _seps(rows, cols, ord("\n"), 7)
    text = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    for j, s in zip(slow.tolist(), _python("%.17g", v[slow])):
        text[j, :-1] = np.frombuffer(s.ljust(31, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def _fixed(a: np.ndarray) -> bytes:
    """The '%.3f' bytes of the rows of one 2-D float chunk, each value
    followed by ',' and each row by ' '."""
    rows, cols = a.shape
    v = a.ravel()
    quads = _quads()
    mag = np.abs(v)
    slow = np.flatnonzero(~(mag < FIXED_LIMIT))  # nan too
    mag[slow] = 0.0
    p = mag * 1000.0
    floor = np.floor(p)
    frac = p - floor
    n = floor.astype(np.int64)
    n += frac > 0.5
    tie = np.flatnonzero(frac == 0.5)
    if tie.size:
        # S = p + err: 1000 has 7 significant bits, so Dekker's product
        # needs only the split of |v|
        m = mag[tie]
        c = m * 134217729.0
        head = c - (c - m)
        err = (head * 1000.0 - p[tie]) + (m - head) * 1000.0
        n[tie] += (err > 0.0) | (err == 0.0) & (n[tie] % 2 == 1)

    whole = n // 1000
    top = whole // 10000
    digits = quads.take(top) | quads.take(whole - top * 10000) << 32  # 8 digits
    # the lowest set bit of the digits' values marks the first nonzero digit
    # (the first byte is the first digit); negating it masks the bytes before
    values = digits - ZEROS
    out = np.empty((len(v), 2), "<u8")
    out[:, 0] = np.signbit(v) * np.uint64(45) | (digits & -(values & -values)) << 8
    out[:, 1] = (digits >> 56 | ord(".") << 8 | quads.take(n - whole * 1000) >> 8 << 16
                 | _seps(rows, cols, ord(" "), 5))
    text = out.view(np.uint8)
    if not slow.size:
        return text.tobytes().translate(None, b"\0")
    # a value that is left to '%' keeps only its separator, and its text goes before it
    out[slow] &= np.array([0, 255 << 40], np.uint64)
    parts = np.split(text, slow)
    spliced = [parts[0].tobytes()]
    for s, part in zip(_python("%.3f", v[slow]), parts[1:]):
        spliced += (s, part.tobytes())
    return b"".join(spliced).translate(None, b"\0")


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


def format_fixed(a) -> bytes:
    """The bytes of `" ".join(",".join("%.3f" % v for v in row) for row
    in a)` for a 2-D float array a; for (n, 2) points, those of
    `" ".join("%.3f,%.3f" % pair for pair in a)`."""
    a = np.asarray(a, dtype=float)
    step = _step(a.shape[1])
    # every row ends in ' ', the last one too
    return b"".join(_fixed(a[lo:lo + step]) for lo in range(0, len(a), step))[:-1]
