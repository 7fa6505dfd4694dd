"""CSV and SVG emission for traces, scatter plots, and the correlation table.

SVG output is self-contained and text-based so reports stay diffable and
carry no plotting dependency; CSV files are the stable machine interface.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


class _Canvas:
    def __init__(self, x_range, y_range, x_label, y_label, title=""):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{_W / 2:.1f}" y="14" text-anchor="middle">{title}</text>')
        self._frame(x_label, y_label)

    def px(self, x):
        return _ML + (x - self.x_lo) / (self.x_hi - self.x_lo) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.y_lo) / (self.y_hi - self.y_lo) * (_H - _MT - _MB)

    def _frame(self, x_label, y_label):
        self.parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
        for t in _ticks(self.x_lo, self.x_hi):
            x = self.px(t)
            self.parts.append(
                f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                f'y2="{_H - _MB + 4}" stroke="black"/>')
            self.parts.append(
                f'<text x="{x:.1f}" y="{_H - _MB + 16}" '
                f'text-anchor="middle">{t:g}</text>')
        for t in _ticks(self.y_lo, self.y_hi):
            y = self.py(t)
            self.parts.append(
                f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" '
                f'y2="{y:.1f}" stroke="black"/>')
            self.parts.append(
                f'<text x="{_ML - 7}" y="{y + 4:.1f}" text-anchor="end">{t:g}</text>')
        self.parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
            f'text-anchor="middle">{x_label}</text>')
        self.parts.append(
            f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{y_label}</text>')

    def polyline(self, xs, ys, color="#1f77b4"):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')

    def marker(self, x, y, color="#d62728", radius=4.0, filled=True, label=None):
        fill = color if filled else "none"
        self.parts.append(
            f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{radius}" '
            f'fill="{fill}" stroke="{color}" stroke-width="1.4"/>')
        if label:
            self.parts.append(
                f'<text x="{self.px(x) + 7:.1f}" y="{self.py(y) - 7:.1f}">{label}</text>')

    def save(self, path):
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts))


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trace_files(path_base, trace, tau: float) -> None:
    """CSV + SVG for one `FidelityTrace` with the refined minimum marked.

    `tau` is seconds per normalized time unit; the CSV also gives each time
    in milliseconds.
    """
    base = Path(path_base)
    # Python floats format faster than numpy scalars, to the same text
    times, errors, t_physical_ms = (
        np.asarray(a, dtype=float).tolist()
        for a in (trace.times, trace.errors, trace.times * tau * 1e3))
    write_csv(base.with_suffix(".csv"),
              ["t_normalized", "t_physical_ms", "fidelity_error"],
              zip(times, t_physical_ms, errors))
    canvas = _Canvas((float(times[0]), float(times[-1])),
                     (0.0, float(max(np.max(errors), 1e-12))),
                     "time (normalized units)", "fidelity error")
    canvas.polyline(times, errors)
    canvas.marker(trace.t_min, trace.e_min, label=f"min {trace.e_min:.2e}")
    canvas.save(base.with_suffix(".svg"))


def scatter_files(path_base, points, x_keys, y_key, y_label) -> None:
    """Scatter CSV + one SVG per abscissa; filled blue / open red detuning."""
    base = Path(path_base)
    header = ["id", *x_keys, y_key, "color"]
    rows = [[p["id"], *(p[k] for k in x_keys), p[y_key], p["color"]] for p in points]
    write_csv(base.with_suffix(".csv"), header, rows)
    labels = {"min_gap": "distance to singularity", "e": "fidelity error",
              "T_ms": "transfer time (ms)"}
    for pos, k in enumerate(x_keys):
        xs = [p[k] for p in points]
        ys = [p[y_key] for p in points]
        canvas = _Canvas((min(xs), max(xs)), (0.0, max(ys) if ys else 1.0),
                         labels.get(k, k), y_label)
        for p in points:
            canvas.marker(p[k], p[y_key],
                          color="#1f77b4" if p["color"] == "blue" else "#d62728",
                          filled=p["color"] == "blue")
        name = base.with_suffix(".svg") if pos == 0 \
            else base.parent / f"{base.name}_vs_{k}.svg"
        canvas.save(name)


def correlation_table(path, table_rows) -> None:
    """Correlation CSV: one row per quantity, r and rho per drift channel.

    A correlation undefined because a column is constant is written as
    ``nan``.
    """
    write_csv(path, ["quantity", "r_x_drift", "rho_x_drift",
                     "r_power_drift", "rho_power_drift"], table_rows)
