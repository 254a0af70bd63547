"""Dependency-free SVG plots for method comparisons and horizon sweeps.

Figures are simple polylines/rects with fixed margins, intended for visual
inspection; all quantitative checks live on the CSV/JSON outputs. Every file
embeds the generating command line as an XML comment.
"""

from __future__ import annotations

import html
import math
from array import array
from bisect import bisect_left
from itertools import islice, pairwise
from operator import le

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# the width in pixels of comparison_figure's error panels, which m4 bins for
ERROR_PANEL_WIDTH = 430


def escape(text: str) -> str:
    """Escape &, < and > for XML text; quotes are left as they are."""
    return html.escape(text, quote=False)


def m4(xs, ys) -> tuple[array, array]:
    """The M4 points of the line series (xs, ys) (Jugel et al., "M4: A
    Visualization-Oriented Time Series Data Aggregation", PVLDB 2014), for an
    error panel W = ERROR_PANEL_WIDTH pixel columns wide over [0, x_max],
    x_max the series' last x: in each column its first and last point and a
    lowest-y and a highest-y point, in series order and without repeats. In
    a panel over [0, x_max], a line through them covers the pixels that the
    whole series does; in a wider panel each column is narrower than a pixel.
    The points have the series' x and y ranges.

    Column c holds the points with x_max c / W <= x < x_max (c + 1) / W;
    a point below 0 is in the first column, so a series that ends below 0
    is one column. A series whose x ever falls is returned whole.
    """
    if not xs or not all(map(le, xs, islice(xs, 1, None))):
        return array("d", xs), array("d", ys)
    x_max = xs[-1]
    bounds = [0, *(bisect_left(xs, x_max * c / ERROR_PANEL_WIDTH)
                   for c in range(1, ERROR_PANEL_WIDTH)), len(xs)]
    keep = []
    for a, b in pairwise(bounds):
        if a < b:
            keep += sorted({a, b - 1, min(range(a, b), key=ys.__getitem__),
                            max(range(a, b), key=ys.__getitem__)})
    return array("d", map(xs.__getitem__, keep)), array("d", map(ys.__getitem__, keep))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round ticks over [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    t0 = math.ceil(lo / step) * step
    ticks = []
    t = t0
    while t <= hi + 1e-12:
        ticks.append(round(t, 12))
        t += step
    return ticks


class Panel:
    """One axes area mapping data coordinates to pixel coordinates."""

    def __init__(self, x, y, w, h, xlim, ylim, xlabel="", ylabel="", title=""):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.xlim, self.ylim = xlim, ylim
        self.xlabel, self.ylabel, self.title = xlabel, ylabel, title
        self.elements: list[str] = []

    def px(self, xd):
        x0, x1 = self.xlim
        return self.x + (xd - x0) / (x1 - x0) * self.w

    def py(self, yd):
        y0, y1 = self.ylim
        return self.y + self.h - (yd - y0) / (y1 - y0) * self.h

    def frame(self):
        out = [f'<rect x="{self.x}" y="{self.y}" width="{self.w}" height="{self.h}" '
               'fill="white" stroke="#333" stroke-width="1"/>']
        for t in _nice_ticks(*self.xlim):
            xp = self.px(t)
            out.append(f'<line x1="{xp:.1f}" y1="{self.y + self.h}" x2="{xp:.1f}" '
                       f'y2="{self.y + self.h + 4}" stroke="#333"/>')
            out.append(f'<text x="{xp:.1f}" y="{self.y + self.h + 16}" font-size="10" '
                       f'text-anchor="middle">{t:g}</text>')
        for t in _nice_ticks(*self.ylim):
            yp = self.py(t)
            out.append(f'<line x1="{self.x - 4}" y1="{yp:.1f}" x2="{self.x}" '
                       f'y2="{yp:.1f}" stroke="#333"/>')
            out.append(f'<text x="{self.x - 6}" y="{yp + 3:.1f}" font-size="10" '
                       f'text-anchor="end">{t:g}</text>')
        if self.xlabel:
            out.append(f'<text x="{self.x + self.w / 2}" y="{self.y + self.h + 32}" '
                       f'font-size="11" text-anchor="middle">{escape(self.xlabel)}</text>')
        if self.ylabel:
            xp, yp = self.x - 38, self.y + self.h / 2
            out.append(f'<text x="{xp}" y="{yp}" font-size="11" text-anchor="middle" '
                       f'transform="rotate(-90 {xp} {yp})">{escape(self.ylabel)}</text>')
        if self.title:
            out.append(f'<text x="{self.x + self.w / 2}" y="{self.y - 6}" font-size="12" '
                       f'text-anchor="middle" font-weight="bold">{escape(self.title)}</text>')
        return out

    def polyline(self, xs, ys, color, width=1.5):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.elements.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             f'stroke-width="{width}"/>')

    def vline(self, xd, color="#999", dash="4,3"):
        xp = self.px(xd)
        self.elements.append(f'<line x1="{xp:.1f}" y1="{self.y}" x2="{xp:.1f}" '
                             f'y2="{self.y + self.h}" stroke="{color}" stroke-dasharray="{dash}"/>')

    def band(self, xs, lo, hi, color):
        fwd = [f"{self.px(x):.2f},{self.py(v):.2f}" for x, v in zip(xs, hi)]
        back = [f"{self.px(x):.2f},{self.py(v):.2f}" for x, v in zip(reversed(xs), reversed(lo))]
        self.elements.append(f'<polygon points="{" ".join(fwd + back)}" fill="{color}" '
                             f'fill-opacity="0.25" stroke="none"/>')

    def box(self, xd, q25, med, q75, whisk_hi, color, half_width):
        xl, xr = self.px(xd - half_width), self.px(xd + half_width)
        self.elements.append(
            f'<rect x="{xl:.1f}" y="{self.py(q75):.1f}" width="{xr - xl:.1f}" '
            f'height="{self.py(q25) - self.py(q75):.1f}" fill="{color}" fill-opacity="0.5" '
            f'stroke="{color}"/>')
        self.elements.append(f'<line x1="{xl:.1f}" y1="{self.py(med):.1f}" x2="{xr:.1f}" '
                             f'y2="{self.py(med):.1f}" stroke="{color}" stroke-width="2"/>')
        xc = self.px(xd)
        self.elements.append(f'<line x1="{xc:.1f}" y1="{self.py(q75):.1f}" x2="{xc:.1f}" '
                             f'y2="{self.py(whisk_hi):.1f}" stroke="{color}"/>')

    def text(self, xd, yd, s):
        """A note at (xd, yd), in the colour that marks the sweep's best horizon."""
        self.elements.append(f'<text x="{self.px(xd):.1f}" y="{self.py(yd):.1f}" '
                             f'font-size="11" fill="{PALETTE[1]}">{escape(s)}</text>')

    def render(self):
        return self.frame() + self.elements


def render_svg(width: int, height: int, panels: list[Panel], command_line: str,
               legend: list[tuple[str, str]] | None = None) -> str:
    body = []
    for p in panels:
        body.extend(p.render())
    if legend:
        ly = 14
        for i, (label, color) in enumerate(legend):
            lx = 80 + i * 170
            body.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                        f'stroke="{color}" stroke-width="2"/>')
            body.append(f'<text x="{lx + 30}" y="{ly + 4}" font-size="11">{escape(label)}</text>')
    comment = command_line.replace("--", "- -")  # "--" is invalid inside XML comments
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<!-- generated by: {escape(comment)} -->\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#fcfcfc"/>\n'
        + "\n".join(body) + "\n</svg>\n"
    )


def comparison_figure(per_placement: dict[str, dict], junctions: tuple[float, ...],
                      command_line: str) -> str:
    """Two stacked error-vs-s panels (front / rear) plus a box-plot panel.

    per_placement maps placement -> {method: {"s": ..., "e": ..., "summary": dict}}.
    """
    panels = []
    legend = []
    for row, (placement, runs) in enumerate(per_placement.items()):
        smax = max(max(r["s"]) for r in runs.values())
        evals = [v for r in runs.values() for v in r["e"]]
        lo, hi = min(evals), max(evals)
        pad = 0.05 * (hi - lo or 1.0)
        panel = Panel(70, 50 + row * 310, ERROR_PANEL_WIDTH, 240, (0, smax),
                      (lo - pad, hi + pad),
                      xlabel="s [m]", ylabel="e_I [m]", title=f"implement {placement}")
        for i, (method, r) in enumerate(runs.items()):
            color = PALETTE[i % len(PALETTE)]
            panel.polyline(r["s"], r["e"], color)
            if row == 0:
                legend.append((method, color))
        for sj in junctions:
            panel.vline(sj)
        panels.append(panel)
        # box-plot panel beside each error panel
        stats = {m: r["summary"] for m, r in runs.items()}
        top = max(s["max_abs_e_m"] for s in stats.values())
        bp = Panel(560, 50 + row * 310, 150, 240, (0, len(stats)), (0, top * 1.05 or 1.0),
                   xlabel="", ylabel="|e_I| [m]", title="distribution")
        for i, (method, s) in enumerate(stats.items()):
            bp.box(i + 0.5, s["q25_m"], s["median_abs_e_m"], s["q75_m"],
                   s["max_abs_e_m"], PALETTE[i % len(PALETTE)], 0.3)
        panels.append(bp)
    return render_svg(760, 60 + 310 * len(per_placement), panels, command_line, legend)


def sweep_figure(points: list[dict], command_line: str) -> str:
    """Median |e_I| vs prediction horizon with a shaded interquartile band."""
    xs = [p["s_h_m"] for p in points]
    med = [p["median_abs_e_m"] for p in points]
    q25 = [p["q25_m"] for p in points]
    q75 = [p["q75_m"] for p in points]
    hi = max(q75) * 1.1 or 1.0
    panel = Panel(70, 40, 540, 280, (min(xs) - 0.2, max(xs) + 0.2), (0, hi),
                  xlabel="prediction horizon s_h [m]", ylabel="median |e_I| [m]",
                  title="impact of the prediction horizon")
    panel.band(xs, q25, q75, PALETTE[0])
    panel.polyline(xs, med, PALETTE[0], width=2)
    best = min(points, key=lambda p: p["median_abs_e_m"])
    panel.vline(best["s_h_m"], color=PALETTE[1], dash="2,2")
    panel.text(best["s_h_m"], hi * 0.95, f' argmin s_h = {best["s_h_m"]:g} m')
    return render_svg(660, 380, [panel], command_line)
