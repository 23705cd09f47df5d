"""Floats as text in the bytes of Python's `%`, formatted in numpy.

`write_rows(fh, columns)` writes the bytes of

    "".join(",".join("%.17g" % v for v in row) + "\\n" for row in a)

for a the columns laid side by side: the CSV rows of `discrete` and
`hybrid`. `format_fixed(a)` returns the bytes of

    " ".join(",".join("%.3f" % v for v in row) for row in a)

which for (n, 2) points is the `points` text of an SVG polyline. Python's
`%` costs a few hundred nanoseconds per float; this module converts
`CHUNK` values at a time instead.

`%.17g`, correctly rounded (Steele & White, PLDI 1990; Adams, OOPSLA
2019): with |v| = m 2**e (`frexp`), two lookups by e give X, the
exponent of |v| rounded to 17 digits, so that S = |v| 10**(16 - X) lies
in [10**16 - 1/2, 10**17 - 1/2). |v|, scaled by a power of two, times
10**(16 - X) held as a double-double is Dekker's exact product: S is
known to about 1e-14, and its digits are round(S) wherever the fraction
of S is more than `TIE_BAND` from one half. The digits, looked up four
at a time as little-endian words, fill each value's 32-byte slot of four
words: the sign, a `0.000` prefix and the first digit; the other 16
digits up to the decimal point; the same shifted a byte, with the point,
up to the last digit that prints; the exponent and the separator. The
masks come from a layout table indexed by X and the count of digits
that print; the bytes outside them are NUL, and `bytes.translate` drops
them.

`%.3f` of |v| < 1e7: Dekker's TwoProduct (1971) gives S = |v| 1000 as
p + err exactly, p the double nearest S. As p < 2**34, its ulp divides
1/2, so the fraction of p is 1/2 or at least an ulp from it, while |err|
is at most half an ulp: `rint(p)` is round(S) unless the fraction is
1/2, where the sign of err decides and err = 0 rounds half to even.
Eight integer digits and three decimals fill a 16-byte slot of two
words: the sign and the integer digits but the last, leading zeros
masked to NUL; the last integer digit, the point, the decimals and the
separator. So -0.0001 prints `-0.000`.

Every value that a fast path cannot decide takes CPython's own format
through `_python`: nan and +-inf for both; for `%.17g` a fraction within
`TIE_BAND` of one half (exact ties such as 2**-25 round half to even);
for `%.3f` every |v| >= 1e7. So exactness does not rest on the error
bound alone. Zeros print as `0` or `-0` under `%.17g`.
"""
from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

# values formatted per pass: 128 rows of a 10-d arc. A '%.17g' chunk's
# temporaries take about 110 bytes a value, none over 96 KiB (the slots
# and their bytes). Larger chunks save some time per value but raised the
# bench's peak RSS; test_write_rows_memory_stays_within_budget guards it.
CHUNK = 3072
# fractions of S closer than this to one half are left to '%.17g'
TIE_BAND = 1e-6
# '%.3f' values at or above this magnitude are left to '%': S < 2**34
FIXED_LIMIT = 1e7

XMIN, XMAX = -324, 308  # the exponents X of the finite nonzero doubles
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
    """The '%.17g' tables, built on first use. For |v| = m 2**e and r = e
    + offset, X = XMIN + x0[r] + (|v| >= thr[r]): 10**(XMIN + x0[r]) <=
    2**(e - 1), and thr[r] is the least double that rounds to 10**(XMIN +
    x0[r] + 1) at 17 digits. scale[:, X - XMIN] = (H, Hh, Hl, L) and
    shift[X - XMIN] = s: 10**(16 - X) = (H + L) 2**s to about 2**-106
    relative, H in (0.5, 2) split in halves (Hh + Hl = H)."""
    up, powers = [], []  # from plain ints
    for x in range(XMIN, XMAX + 1):
        # half a unit of the 17th digit below 10**x
        num, den = (10 ** 18 - 5) * 10 ** max(x - 18, 0), 10 ** max(18 - x, 0)
        t = num / den
        tn, td = t.as_integer_ratio()
        up.append(t if tn * den >= num * td else math.nextafter(t, math.inf))
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        s = num.bit_length() - den.bit_length()
        num, den = num << max(-s, 0), den << max(s, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        powers.append((h, (num * hd - hn * den) / (den * hd), s))
    h, low, shift = np.array(powers).T
    c = h * 134217729.0
    split = c - (c - h)
    emin = math.frexp(math.ulp(0.0))[1]  # 5e-324 = 0.5 2**-1073
    # (e - 1) log10(2) is 0 or at least 4e-4 from an integer: the floor is exact
    x0 = np.floor(np.arange(emin - 1, 1024) * math.log10(2)).astype(np.int64) - XMIN
    xs = np.arange(XMIN, XMAX + 1)
    cls18 = (np.clip(xs, FIXED_LO - 1, FIXED_HI + 1) - (FIXED_LO - 1)) * 18
    expo = np.array([_word(b"e%+03d" % x, 1) if not FIXED_LO <= x <= FIXED_HI else 0
                     for x in xs.tolist()], np.uint64)

    g = np.arange(10000, dtype=np.uint32)
    # sig[j, g]: how many of the 17 digits print when group j of four
    # (digits 2+4j..5+4j) is g and the later groups are zero
    shown = 4 - sum((g % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    sig = np.where(g > 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + shown, 1)

    # layout[:, cls * 18 + k], for k significant digits (the integer
    # digits of a fixed value always print): the prefix word with the first
    # digit's '0', and the masks and point of the slot's other words
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
            layout[:, cls * 18 + k] = (_word(prefix, 1) | ord("0") << 48, kl, kh, al, ah,
                                       dl, dh, ae)
    return (-emin, np.take(up, x0 + 1), x0, np.stack((h, split, h - split, low)),
            shift.astype(np.int32), cls18, expo, sig, np.split(layout, [1, 3, 5, 7]))


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


def _scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, d, slow): i = X - XMIN (X = 0 for zeros), d = round(S), and the
    values whose S is within TIE_BAND of a tie, or nan."""
    offset, thr, x0, scale, shift = _tables()[:5]
    t = np.abs(v)
    m, e = np.frexp(t)
    e += v == 0  # zeros (m = 0) print at X = 0
    i = np.add(e, offset, dtype=np.int64)
    b = t >= thr.take(i)
    i = x0.take(i)
    i += b
    big, big_hi, big_lo, low = scale.take(i, axis=1)
    with np.errstate(invalid="ignore"):  # nan and +-inf make S nan
        # S = m (H + L) for m = |v| 2**s, exact; m H = p + err exactly, with
        # m split by its bits, and p is an integer as S > 2**53
        np.ldexp(t, shift.take(i), out=m)
        m_hi = (m.view(np.uint64) & np.uint64(-1 << 27 & (1 << 64) - 1)).view(np.float64)
        p = m * big
        np.multiply(m, low, out=low)
        m -= m_hi
        err = m_hi * big_hi
        err -= p
        err += np.multiply(m_hi, big_lo, out=m_hi)
        err += np.multiply(m, big_hi, out=big_hi)
        err += np.multiply(m, big_lo, out=big_lo)
        err += low
        # the fraction of S + 1/2 + TIE_BAND (exact to 2**-48) is below
        # 2 TIE_BAND only near a tie; elsewhere its floor is round(S)
        err += 0.5 + TIE_BAND
        d = p.astype(np.int64)
        np.add(d, np.floor(err, out=t), out=d, dtype=np.int64, casting="unsafe")
    err -= t
    return i, d, (~(err >= 2 * TIE_BAND)).nonzero()[0]


def _format(a: np.ndarray) -> bytes:
    """The '%.17g' CSV bytes of the rows of one 2-D float chunk."""
    rows, cols = a.shape
    v = a.ravel()
    cls18, expo, sig, (prefix, keep, after, dot, last) = _tables()[5:]
    quads = _quads()
    i, d, slow = _scaled(v)
    # d = lead 10**16 + g1 10**12 + g2 10**8 + g3 10**4 + g4, as the groups
    # q = (g1, g3) and r = (g2, g4) of the words of digits 2..9 and 10..17
    groups = np.empty((2, 2, len(v)), np.int64)
    q, r = groups
    np.floor_divide(d, 10 ** 8, out=r[0])
    np.subtract(d, r[0] * 10 ** 8, out=r[1])
    lead = r[0] // 10 ** 8
    r[0] -= lead * 10 ** 8
    np.floor_divide(r, 10 ** 4, out=q)
    r -= q * 10 ** 4
    k = sig[0].take(q[0], mode="clip")
    for row, g in zip(sig[1:], (r[0], q[1], r[1])):
        np.maximum(k, row.take(g, mode="clip"), out=k)
    idx = cls18.take(i)
    idx += k
    digits = quads.take(q, mode="clip")
    r = quads.take(r, mode="clip")
    r <<= 32
    digits |= r
    del groups, q, r, d, k
    # each value's slot: the sign, the prefix and the first digit | digits
    # 2..17, kept before the point and shifted a byte after it | digit 17
    # shifted out, the exponent and the separator
    out = np.empty((len(v), 4), np.uint64)
    w0 = v.view(np.uint64) >> 63
    w0 *= 45
    w0 |= prefix[0].take(idx)
    lead = lead.view(np.uint64)
    lead <<= 48
    np.bitwise_or(w0, lead, out=out[:, 0])
    shifted = digits << 8
    shifted[1] |= digits[0] >> 56
    shifted &= after.take(idx, axis=1)
    shifted |= dot.take(idx, axis=1)
    w0 = digits[1] >> 56
    digits &= keep.take(idx, axis=1)
    np.bitwise_or(digits, shifted, out=out[:, 1:3].T)
    w0 &= last[0].take(idx)
    w0 |= expo.take(i)
    np.bitwise_or(w0, _seps(rows, cols, ord("\n"), 7), out=out[:, 3])
    del i, lead, digits, shifted, w0, idx
    text = out.view(np.uint8)
    if slow.size:
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
    slow = (~(mag < FIXED_LIMIT)).nonzero()[0]  # nan too
    mag[slow] = 0.0
    p = mag * 1000.0
    n = np.rint(p)
    tie = (np.abs(p - n) == 0.5).nonzero()[0]
    n = n.astype(np.int64)
    if tie.size:
        # S = p + err: 1000 has 7 significant bits, so Dekker's product
        # needs only the split of |v|
        m = mag[tie]
        c = m * 134217729.0
        head = c - (c - m)
        err = (head * 1000.0 - p[tie]) + (m - head) * 1000.0
        n[tie] = np.rint(p[tie] + np.sign(err) / 4)  # p + 1/4 is exact: p < 2**34

    whole = n // 1000
    top = whole // 10000
    digits = quads.take(top, mode="clip") | quads.take(whole - top * 10000, mode="clip") << 32
    # the lowest set bit of the digits' values marks the first nonzero digit
    # (the first byte is the first digit); negating it masks the bytes before
    values = digits - ZEROS
    out = np.empty((len(v), 2), np.uint64)
    out[:, 0] = (v.view(np.uint64) >> 63) * 45 | (digits & -(values & -values)) << 8
    # the decimals' quad starts with '0' (they are < 1000), and '0' ^ 0x1e is '.'
    out[:, 1] = (digits >> 56 | quads.take(n - whole * 1000, mode="clip") << 8 ^ 0x1E00
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


def write_rows(fh, columns) -> None:
    """Write `"".join(",".join("%.17g" % v for v in row) + "\\n" for row
    in a)` to the binary file fh, for a the columns laid side by side (1-D
    columns and 2-D blocks of equal length), one chunk of rows at a time."""
    n = len(columns[0])
    columns = [np.reshape(c, (n, 1)) if np.ndim(c) == 1 else c for c in columns]
    at = np.cumsum([0] + [np.shape(c)[1] for c in columns]).tolist()
    block = np.empty((_step(at[-1]), at[-1]))
    for lo in range(0, n, len(block)):
        rows = block[:n - lo]
        for c, start, end in zip(columns, at, at[1:]):
            rows[:, start:end] = c[lo:lo + len(rows)]
        fh.write(_format(rows))


def format_fixed(a) -> bytes:
    """The bytes of `" ".join(",".join("%.3f" % v for v in row) for row
    in a)` for a 2-D float array a; for (n, 2) points, those of
    `" ".join("%.3f,%.3f" % pair for pair in a)`."""
    a = np.asarray(a, dtype=float)
    step = _step(a.shape[1])
    # every row ends in ' ', the last one too
    return b"".join(_fixed(a[lo:lo + step]) for lo in range(0, len(a), step))[:-1]
