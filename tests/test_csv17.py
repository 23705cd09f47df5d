import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
from hbreset import csv17


def per_value(a):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in a).encode()


def check(a):
    a = np.asarray(a, dtype=float)
    got, want = ref.format_rows(a), per_value(a)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:1]}")


def edge_values():
    vals = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            2.0 ** -25, 3 * 2.0 ** -25, 3 * 2.0 ** -24,  # exact ties, half to even
            9.9999999999999991e-05,  # log10 rounds its exponent up to -4
            2.0 ** 53 - 1, -(2.0 ** 53 - 1), -1.0, 1.0,
            math.nan, math.inf, -math.inf]
    for p in [10.0 ** k for k in range(-320, 309)] + [1e16, 1e17]:
        vals += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    return vals


def test_edge_values():
    vals = edge_values()
    check(np.array(vals)[:, None])
    check(-np.array(vals)[:, None])


def fallbacks(monkeypatch, fmt):
    """The values that csv17 leaves to CPython's fmt."""
    seen, lone = [], csv17._python

    def counted(f, values):
        if f == fmt:
            seen.extend(values.tolist())
        return lone(f, values)

    monkeypatch.setattr(csv17, "_python", counted)
    return seen


def exact_tie(v):
    """Whether |v| lies exactly half-way between two 17-digit decimals."""
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_powers_of_ten_and_neighbours_fall_back_only_on_exact_ties(monkeypatch):
    # log10 rounds the exponent up for doubles a few ulps below a power of
    # ten, and some of those round up to the next power at 17 digits; both
    # stay in numpy
    seen = fallbacks(monkeypatch, "%.17g")
    powers = [10.0 ** k for k in range(-323, 309)]
    vals = np.array([w for p in powers for w in (p, np.nextafter(p, 0.0),
                                                 np.nextafter(p, math.inf))])
    check(np.concatenate((vals, -vals))[:, None])
    assert all(exact_tie(v) for v in seen)
    assert seen == [999999999999999.9, -999999999999999.9]
    seen.clear()
    check(np.array([2.0 ** -25, 3 * 2.0 ** -24])[:, None])
    assert seen == [2.0 ** -25, 3 * 2.0 ** -24]


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (40, 1),
                                   (csv17.CHUNK // 24 + 1, 24), (csv17.CHUNK + 1, 1)])
def test_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    a.ravel()[::7] = 0.0  # zeros print from the fast path
    check(a)


def test_write_rows_memory_stays_within_budget():
    # an arc of the benchmark's shape, 10,002 rows of t, j, a 10-d q and p,
    # tau and energy, with the tables built afresh. The budget is what the
    # kernel with an (8, 414) mask gather took here, 1,078 KiB; this one
    # takes about 0.73 MiB, and at twice the chunk 1.2 MiB. A larger chunk
    # or table shows here before it shows in the benchmark's peak_rss_mb.
    rng = np.random.default_rng(11)
    t = np.arange(10_002) * 1e-3
    q = rng.standard_normal((len(t), 10)) * np.exp(-t)[:, None]
    arc = (t, np.floor(t / 0.7), q, np.diff(q, axis=0, prepend=0.0) / 1e-3, t % 0.7,
           np.einsum("ij,ij->i", q, q))
    for built in (csv17._tables, csv17._quads, csv17._seps):
        built.cache_clear()
    tracemalloc.start()
    try:
        with open(os.devnull, "wb") as fh:
            csv17.write_rows(fh, arc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1078 * 1024, f"{peak / 1024:.0f} KiB"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_matches_per_value_formatting(a):
    check(a)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       st.lists(st.tuples(st.integers(1, 2 ** 24), st.integers(0, 80)), min_size=1, max_size=32))
def test_random_bits_and_dyadic_ties(bits, dyadic):
    # whole bit patterns reach every exponent; small dyadic rationals m 2**-k
    # have short exact decimals, so many sit exactly half-way at 17 digits
    check(np.array(bits, dtype=np.uint64).view(np.float64)[:, None])
    check(np.array([math.ldexp(m, -k) for m, k in dyadic])[:, None])


# ---------------------------------------------------------------------------
# '%.3f' points


def per_value_fixed(a):
    return " ".join(",".join("%.3f" % v for v in row) for row in a).encode()


def check_fixed(a):
    a = np.asarray(a, dtype=float)
    got, want = csv17.format_fixed(a), per_value_fixed(a)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b" "), want.split(b" ")) if g != w]
        pytest.fail(f"{len(bad)} points differ, first {bad[:1]}")


def fixed_edge_values():
    lim = csv17.FIXED_LIMIT
    vals = [0.0, -0.0, 1e-4, -1e-4, -4e-4, -5e-4, 5e-4, 5e-324, -5e-324,
            0.0625, 0.1875, 2.5e-3, 9.9995, 999.9995,  # ties and near-ties
            lim, 2.0 ** 53 / 1000, 1e300, -1.7976931348623157e308,
            math.nan, math.inf, -math.inf]
    for p in (lim, 2.0 ** 53 / 1000):
        vals += [np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    return vals


def test_fixed_edge_values():
    vals = np.array(fixed_edge_values())
    check_fixed(np.stack((vals, -vals), axis=1))
    check_fixed(vals[:, None])
    assert csv17.format_fixed(np.array([[-1e-4, 7e6]])) == b"-0.000,7000000.000"


@pytest.mark.parametrize("n", [0, 1, csv17.CHUNK // 2, csv17.CHUNK // 2 + 1,
                               3 * csv17.CHUNK // 2 + 1])
def test_fixed_lengths_across_chunks(n):
    # chunk edges: n points are 2n values, and one column of 2n - 1 values
    # reaches 3 CHUNK + 1; a value that '%' prints, last in the last
    # chunk, is spliced in there
    rng = np.random.default_rng(n)
    a = rng.uniform(-800.0, 800.0, (n, 2))
    check_fixed(a)
    check_fixed(a.reshape(-1, 1)[:max(2 * n - 1, 0)])
    if n:
        a.ravel()[-1] = 1e300
        check_fixed(a)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       st.lists(st.tuples(st.integers(-2 ** 30, 2 ** 30), st.integers(0, 14)),
                min_size=1, max_size=64),
       st.lists(st.sampled_from(fixed_edge_values()), max_size=16))
def test_fixed_matches_per_value_formatting(bits, dyadic, edges):
    # whole bit patterns reach every exponent, nan and +-inf; dyadic
    # rationals m 2**-k, k <= 14, have exact decimals, so many are exact
    # ties at the third decimal
    check_fixed(np.array(bits, dtype=np.uint64).view(np.float64)[:, None])
    values = [math.ldexp(m, -k) for m, k in dyadic] + edges
    check_fixed(np.array(values)[:, None])
    check_fixed(np.array(values[:len(values) // 2 * 2]).reshape(-1, 2))


def test_fixed_leaves_only_values_outside_the_exact_range(monkeypatch):
    seen = fallbacks(monkeypatch, "%.3f")
    vals = np.array(fixed_edge_values())
    check_fixed(vals[:, None])
    out = [v for v in vals.tolist() if not abs(v) < csv17.FIXED_LIMIT]
    assert len(seen) == len(out) and np.array_equal(seen, out, equal_nan=True)
