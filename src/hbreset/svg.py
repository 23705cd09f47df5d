"""Minimal deterministic SVG line charts.

Hand-rolled emission so figure bytes are a pure function of the data:
no plotting dependency, fixed coordinate formatting, no timestamps.
Polyline points go through `csv17.format_fixed`, the bytes of `'%.3f'`
for a whole series formatted in numpy; ticks and labels use `%` itself.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

Series = tuple[str, Sequence[float], Sequence[float]]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

WIDTH = 720
HEIGHT = 480
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 48


def _fmt(v: float) -> str:
    # fixed decimals keep output byte-stable across equal inputs
    return "%.3f" % v


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (hi > lo):
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            # a range a few ulps wide: the step rounds away and t would stall
            break
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    # cap label clutter on very tall ranges
    stride = max(1, (hi_e - lo_e) // 8)
    # 1e309 is past the float range
    return [10.0 ** e for e in range(lo_e, min(hi_e, 308) + 1, stride)]


def _linear_axis(lo: float, hi: float, below: float, above: float,
                 pad: float) -> tuple[float, float, float]:
    """(s, lo, hi): the ends of a linear axis over data in [lo, hi], in
    units of the data times s. A range of zero width first grows by below
    and above, then each end moves out by pad times the width. s is 1
    whenever that arithmetic leaves a width whose fifth, the tick step's
    scale, is positive and finite. Otherwise the data are huge (a zero
    width at |lo| >= 2**53, or a width past the float range) and s = 1/16,
    where a width that is still zero grows by |lo| each side; or the width
    is a few subnormals, and s = 2**64."""
    for s in (1.0, 2.0 ** -4 if max(abs(lo), abs(hi)) > 1.0 else 2.0 ** 64):
        a, b = lo * s, hi * s
        if b <= a:
            a, b = a - below, b + above
        if b <= a:
            a, b = a - abs(a), b + abs(b)
        w = pad * (b - a)
        a, b = a - w, b + w
        if 0.0 < (b - a) / 5 < math.inf:
            break
    return s, a, b


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(series: Sequence[Series], title: str = "",
                      x_label: str = "", y_label: str = "",
                      log_y: bool = False,
                      y_floor: Optional[float] = None) -> str:
    """Render labelled (x, y) series to an SVG string.

    Points where x or y is not finite are dropped. log_y plots y on a
    log10 axis. There, a nonpositive y is first moved to the lowest
    decade tick shown (1e-16 when no tick is shown), and every y is then
    raised to at least y_floor (default: the smallest positive y present,
    or 1e-16; never below 1e-300).
    """
    arrays = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        arrays.append((x[keep], y[keep]))
    all_x = np.concatenate([x for x, _ in arrays] + [np.empty(0)])
    all_y = np.concatenate([y for _, y in arrays] + [np.empty(0)])
    if not all_x.size:
        all_x, all_y = np.array([0.0]), np.array([1.0])

    x_s, x_lo, x_hi = _linear_axis(float(all_x.min()), float(all_x.max()),
                                   0.0, 1.0, 0.0)

    # Pixel maps take arrays. They keep the operations, and their order,
    # of the scalar expressions they replaced, so every coordinate keeps
    # its bits (a linear axis's scale s is 1 but on huge or subnormal
    # ranges, and x * 1.0 == x). On the log axis math.log10 stays:
    # np.log10 can differ from libm in the last bit, which can flip a %.3f
    # rounding.
    if log_y:
        positive = all_y[all_y > 0.0]
        floor = y_floor if y_floor is not None else (
            float(positive.min()) if positive.size else 1e-16)
        floor = max(floor, 1e-300)
        # max(., floor) is monotone, so it commutes with min and max
        y_lo = max(float(all_y.min()), floor)
        y_hi = max(float(all_y.max()), floor)
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
            if y_hi == math.inf:
                y_lo, y_hi = y_lo / 10.0, y_lo
        ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
        if ly_hi - ly_lo < 1e-9:
            ly_hi = ly_lo + 1.0

        def y_pix(y: np.ndarray) -> np.ndarray:
            clamped = np.maximum(y, floor).tolist()
            ly = np.fromiter(map(math.log10, clamped), float, len(clamped))
            return HEIGHT - MARGIN_B - (ly - ly_lo) / (ly_hi - ly_lo) * (
                HEIGHT - MARGIN_T - MARGIN_B)

        y_ticks = [t for t in _decade_ticks(y_lo, y_hi) if y_lo / 1.001 <= t <= y_hi * 1.001]
    else:
        y_s, y_lo, y_hi = _linear_axis(float(all_y.min()), float(all_y.max()),
                                       0.5, 0.5, 0.05)

        def y_pix(y: np.ndarray) -> np.ndarray:
            return HEIGHT - MARGIN_B - (y * y_s - y_lo) / (y_hi - y_lo) * (
                HEIGHT - MARGIN_T - MARGIN_B)

        # a tick whose value, unscaled, is past the float range is dropped
        y_ticks = [t / y_s for t in _nice_ticks(y_lo, y_hi) if abs(t / y_s) < math.inf]

    def x_pix(x: np.ndarray) -> np.ndarray:
        return MARGIN_L + (x * x_s - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    x_ticks = [t / x_s for t in _nice_ticks(x_lo, x_hi)
               if x_lo - 1e-12 <= t <= x_hi + 1e-12 and abs(t / x_s) < math.inf]

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    if title:
        out.append('<text x="%s" y="22" font-family="sans-serif" font-size="15" '
                   'text-anchor="middle">%s</text>' % (_fmt(WIDTH / 2), _escape(title)))

    # frame
    out.append('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
               'stroke="black" stroke-width="1"/>' % (
                   _fmt(MARGIN_L), _fmt(MARGIN_T),
                   _fmt(WIDTH - MARGIN_L - MARGIN_R),
                   _fmt(HEIGHT - MARGIN_T - MARGIN_B)))

    for t, px in zip(x_ticks, x_pix(np.array(x_ticks)).tolist()):
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>' % (
            _fmt(px), _fmt(HEIGHT - MARGIN_B), _fmt(px), _fmt(HEIGHT - MARGIN_B + 5)))
        out.append('<text x="%s" y="%s" font-family="sans-serif" font-size="11" '
                   'text-anchor="middle">%s</text>' % (
                       _fmt(px), _fmt(HEIGHT - MARGIN_B + 18), "%g" % t))
    for t, py in zip(y_ticks, y_pix(np.array(y_ticks)).tolist()):
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

    for i, ((label, _, _), (x, y)) in enumerate(zip(series, arrays)):
        color = PALETTE[i % len(PALETTE)]
        if x.size:
            if log_y:
                y = np.where(y <= 0.0, y_ticks[0] if y_ticks else 1e-16, y)
            from .csv17 import format_fixed  # compiled at the first polyline, not at import
            points = format_fixed(np.column_stack((x_pix(x), y_pix(y)))).decode()
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (points, color))
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 + 16 * i
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                   'stroke-width="1.5"/>' % (
                       _fmt(lx), _fmt(ly - 4), _fmt(lx + 22), _fmt(ly - 4), color))
        out.append('<text x="%s" y="%s" font-family="sans-serif" '
                   'font-size="12">%s</text>' % (_fmt(lx + 28), _fmt(ly), _escape(label)))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, series: Sequence[Series], **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(render_line_chart(series, **kwargs))
