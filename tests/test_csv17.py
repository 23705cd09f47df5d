import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hbreset import csv17


def per_value(a):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in a).encode()


def check(a):
    a = np.asarray(a, dtype=float)
    got, want = csv17.format_rows(a), per_value(a)
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


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (40, 1),
                                   (csv17.CHUNK // 24 + 1, 24), (csv17.CHUNK + 1, 1)])
def test_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    a.ravel()[::7] = 0.0  # zeros print from the fast path
    check(a)


@settings(max_examples=300, deadline=None, database=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_matches_per_value_formatting(a):
    check(a)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       st.lists(st.tuples(st.integers(1, 2 ** 24), st.integers(0, 80)), min_size=1, max_size=32))
def test_random_bits_and_dyadic_ties(bits, dyadic):
    # whole bit patterns reach every exponent; small dyadic rationals m 2**-k
    # have short exact decimals, so many sit exactly half-way at 17 digits
    check(np.array(bits, dtype=np.uint64).view(np.float64)[:, None])
    check(np.array([math.ldexp(m, -k) for m, k in dyadic])[:, None])
