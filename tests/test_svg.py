"""SVG line charts: the array renderer against the scalar one it replaced."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbreset.svg import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE,
                         WIDTH, _decade_ticks, _escape, _fmt, _nice_ticks,
                         render_line_chart)


def reference_line_chart(series, title="", x_label="", y_label="", log_y=False,
                         y_floor=None):
    """The point-by-point renderer, kept as the byte reference."""
    pts = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                pts.append((float(x), float(y)))
    if not pts:
        pts = [(0.0, 1.0)]

    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    if log_y:
        positive = [p[1] for p in pts if p[1] > 0.0]
        floor = y_floor if y_floor is not None else (min(positive) if positive else 1e-16)
        floor = max(floor, 1e-300)
        y_vals = [max(p[1], floor) for p in pts]
        y_lo = min(y_vals)
        y_hi = max(y_vals)
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
        ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
        if ly_hi - ly_lo < 1e-9:
            ly_hi = ly_lo + 1.0

        def y_pix(y):
            ly = math.log10(max(y, floor))
            frac = (ly - ly_lo) / (ly_hi - ly_lo)
            return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

        y_ticks = [t for t in _decade_ticks(y_lo, y_hi) if y_lo / 1.001 <= t <= y_hi * 1.001]
    else:
        y_lo = min(p[1] for p in pts)
        y_hi = max(p[1] for p in pts)
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def y_pix(y):
            frac = (y - y_lo) / (y_hi - y_lo)
            return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

        y_ticks = _nice_ticks(y_lo, y_hi)

    def x_pix(x):
        frac = (x - x_lo) / (x_hi - x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    if title:
        out.append('<text x="%s" y="22" font-family="sans-serif" font-size="15" '
                   'text-anchor="middle">%s</text>' % (_fmt(WIDTH / 2), _escape(title)))
    out.append('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
               'stroke="black" stroke-width="1"/>' % (
                   _fmt(MARGIN_L), _fmt(MARGIN_T),
                   _fmt(WIDTH - MARGIN_L - MARGIN_R),
                   _fmt(HEIGHT - MARGIN_T - MARGIN_B)))
    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        px = x_pix(t)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>' % (
            _fmt(px), _fmt(HEIGHT - MARGIN_B), _fmt(px), _fmt(HEIGHT - MARGIN_B + 5)))
        out.append('<text x="%s" y="%s" font-family="sans-serif" font-size="11" '
                   'text-anchor="middle">%s</text>' % (
                       _fmt(px), _fmt(HEIGHT - MARGIN_B + 18), "%g" % t))
    for t in y_ticks:
        py = y_pix(t)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>' % (
            _fmt(MARGIN_L - 5), _fmt(py), _fmt(MARGIN_L), _fmt(py)))
        out.append('<text x="%s" y="%s" font-family="sans-serif" font-size="11" '
                   'text-anchor="end">%s</text>' % (
                       _fmt(MARGIN_L - 8), _fmt(py + 4), "%g" % t))
    if x_label:
        out.append('<text x="%s" y="%s" font-family="sans-serif" font-size="13" '
                   'text-anchor="middle">%s</text>' % (
                       _fmt((MARGIN_L + WIDTH - MARGIN_R) / 2),
                       _fmt(HEIGHT - 10), _escape(x_label)))
    if y_label:
        cy = (MARGIN_T + HEIGHT - MARGIN_B) / 2
        out.append('<text x="14" y="%s" font-family="sans-serif" font-size="13" '
                   'text-anchor="middle" transform="rotate(-90 14 %s)">%s</text>' % (
                       _fmt(cy), _fmt(cy), _escape(y_label)))
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if log_y and y <= 0.0:
                y = y_ticks[0] if y_ticks else 1e-16
            coords.append("%s,%s" % (_fmt(x_pix(x)), _fmt(y_pix(y))))
        if coords:
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (" ".join(coords), color))
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 + 16 * i
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                   'stroke-width="1.5"/>' % (
                       _fmt(lx), _fmt(ly - 4), _fmt(lx + 22), _fmt(ly - 4), color))
        out.append('<text x="%s" y="%s" font-family="sans-serif" '
                   'font-size="12">%s</text>' % (_fmt(lx + 28), _fmt(ly), _escape(label)))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def outcome(render, series, **kwargs):
    """The rendered text, or the type and message of what was raised."""
    try:
        return render(series, **kwargs)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_well_formed(text):
    """The chart parses as XML, and every coordinate and tick label is a
    finite number, with each polyline point inside the canvas."""
    for el in ET.fromstring(text).iter():
        for name, value in el.attrib.items():
            if name in ("x", "y", "x1", "y1", "x2", "y2", "width", "height"):
                assert math.isfinite(float(value)), (name, value)
            elif name == "points":
                for point in value.split():
                    x, y = map(float, point.split(","))
                    assert 0.0 <= x <= WIDTH and 0.0 <= y <= HEIGHT, point
        if el.get("font-size") == "11":
            assert math.isfinite(float(el.text)), el.text


def assert_same_bytes(series, **kwargs):
    """The array renderer gives the scalar reference's text wherever the
    reference renders. Where the reference raises on finite data (some
    huge or subnormal ranges), the array renderer draws a well-formed
    chart instead."""
    want = outcome(reference_line_chart, series, **kwargs)
    got = render_line_chart(series, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert_well_formed(got)
    return got


NONFINITE = (math.nan, math.inf, -math.inf)
_values = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-12, 1e3),
    st.sampled_from((0.0, -0.0, -1.0, 1.0) + NONFINITE))


@st.composite
def _series(draw, i):
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(("random", "int_x", "constant", "nonfinite")))
    if kind == "int_x":
        xs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n))
    else:
        xs = draw(st.lists(_values, min_size=n, max_size=n))
    if kind == "constant":
        ys = [draw(_values)] * n
    elif kind == "nonfinite":
        ys = draw(st.lists(st.sampled_from(NONFINITE), min_size=n, max_size=n))
    else:
        ys = draw(st.lists(_values, min_size=n, max_size=n))
    if draw(st.booleans()):
        xs, ys = np.array(xs), np.array(ys)
    return f"s{i}", xs, ys


@st.composite
def _charts(draw):
    count = draw(st.integers(1, 6))
    series = [draw(_series(i)) for i in range(count)]
    y_floor = draw(st.one_of(st.none(), st.floats(1e-200, 1e3)))
    return series, draw(st.booleans()), y_floor


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_charts())
def test_array_renderer_matches_scalar_reference_bytes(chart):
    series, log_y, y_floor = chart
    assert_same_bytes(series, title="t <&>", x_label="x", y_label="y",
                      log_y=log_y, y_floor=y_floor)


_k = np.arange(1, 2001)
# x and y pixels land next to a %.3f rounding midpoint: the linear axes map
# x in [0, 640] to 64 + x and y in [18, 378] to 432 - y, so a change in the
# last bit of a coordinate shows in the text
_MIDPOINTS = [("a", np.concatenate(([0.0, 640.0], _k * 0.3 + 0.0005)),
               np.concatenate(([18.0, 378.0], 18.0 + _k * 0.17 + 0.0005)))]

EDGE_SERIES = {
    "midpoints": _MIDPOINTS,
    "ulps_apart": [("a", [0.0, 1.0], [1.0, 1.0 + 2.0 ** -52]),
                   ("b", [1e300, 1e300 * (1.0 + 2.0 ** -52)], [1.0, 2.0])],
    "single_point": [("a", [3.0], [2.0])],
    "all_nonfinite": [("a", [0.0, math.nan, 1.0], [math.inf, 1.0, -math.inf])],
    "constant": [("a", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])],
    "nonpositive": [("a", [0, 1, 2, 3], [1.0, 0.0, -2.0, 1e-3]),
                    ("b", np.arange(3), np.array([0.0, 0.0, 0.0]))],
    "huge": [("a", [-1e300, 1e300], [1e300, -1e300]),
             ("b", [0.0, 5e299], [1e-300, 1e300])],
    "huge_single_x": [("a", [1e300], [1.0])],
    "single_x_2_53": [("a", [2.0 ** 53], [1.0])],
    "x_past_float_range": [("a", [-1.7e308, 1.7e308], [1.0, 2.0])],
    "y_past_float_range": [("a", [0.0, 1.0], [-1.7e308, 1.7e308])],
    "y_pad_past_float_range": [("a", [0.0, 1.0], [0.0, 1.7e308])],
    "huge_single_y": [("a", [0.0], [1.7e308])],
    # y +- 0.5 rounds back to y, so the reference divides by a zero height
    "single_y_2_52": [("a", [0.0], [2.0 ** 52 + 2.0])],
    "subnormal_width": [("a", [0.0, 5e-324], [0.0, 5e-324])],
}
# the scalar renderer raised on these finite inputs
REFERENCE_RAISES = {"huge_single_x": False, "single_x_2_53": False,
                    "x_past_float_range": False, "y_past_float_range": False,
                    "y_pad_past_float_range": False, "huge_single_y": True,
                    "single_y_2_52": False, "subnormal_width": False}


@pytest.mark.parametrize("log_y", [False, True])
@pytest.mark.parametrize("y_floor", [None, 1e-3])
@pytest.mark.parametrize("name", sorted(EDGE_SERIES))
def test_edge_series_match_scalar_reference_bytes(name, log_y, y_floor):
    assert_same_bytes(EDGE_SERIES[name], log_y=log_y, y_floor=y_floor)


@pytest.mark.parametrize("name, log_y", sorted(REFERENCE_RAISES.items()))
def test_finite_inputs_the_scalar_renderer_rejects_draw_a_chart(name, log_y):
    series = EDGE_SERIES[name]
    assert not isinstance(outcome(reference_line_chart, series, log_y=log_y), str)
    assert_well_formed(render_line_chart(series, log_y=log_y))


def test_log_axis_midpoints_match_scalar_reference_bytes():
    # y in [1, 1e6] maps to 432 - 66 log10(y); each midpoint's y and the
    # 60 ulps either side of it put some pixels where the last bit of
    # log10(y) decides the %.3f rounding
    mid = 10.0 ** ((432.0 - (36.0005 + np.arange(0.0, 396.0, 0.8))) / 66.0)
    ys = np.concatenate(([1.0, 1e6],
                         (mid[:, None] * (1.0 + np.arange(-60, 61) * 2.0 ** -52)).ravel()))
    assert_same_bytes([("a", np.arange(len(ys)), ys)], log_y=True)


def test_bench_scale_charts_match_scalar_reference_bytes():
    # the sizes the benchmark draws, which span several csv17 chunks: a
    # 10,014-sample energy arc on a log axis, and six 1,501-iterate gap
    # series (each with a zero gap, moved to the lowest tick), on a log
    # axis and a linear one
    rng = np.random.default_rng(29)
    t = np.linspace(0.0, 40.0, 10014)
    energy = 1e3 * np.exp(-0.6 * t) * (1.5 + np.cos(3.0 * t)) + 1e-14
    assert_same_bytes([("hhb", t, energy)], log_y=True)
    k = np.arange(1501)
    gaps = []
    for i in range(6):
        gap = 1e4 * (0.97 + 0.004 * i) ** k * (1.0 + 0.5 * np.sin(k / (3.0 + i)))
        gap[rng.integers(1, 1501)] = 0.0
        gaps.append((f"m{i}", k, gap * rng.uniform(0.9, 1.1, 1501)))
    for log_y in (True, False):
        assert_same_bytes(gaps, title="phi gap, K=1", log_y=log_y)


def test_empty_series_list_draws_frame_without_polylines():
    for log_y in (False, True):
        text = assert_same_bytes([], log_y=log_y)
        assert "<polyline" not in text and text.endswith("</svg>\n")


def test_mismatched_lengths_raise():
    for series in ([("a", [0.0, 1.0], [1.0])],
                   [("a", [0.0], [1.0]), ("b", np.arange(3), np.ones(2))]):
        with pytest.raises(ValueError, match="lengths differ"):
            render_line_chart(series)
        assert outcome(reference_line_chart, series) == outcome(render_line_chart, series)
