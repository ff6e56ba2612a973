"""SVG figures rendered straight from the artifact files.

Plain string assembly, no plotting library: identical inputs give identical
bytes, which the reproducibility guarantee extends to figures. Coordinates
are written at two decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.panel import GOAL_COLUMNS, N_GOALS

CLUSTER_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#bcbd22", "#8c564b",
)
NOISE_COLOR = "#999999"
YEAR_EARLY = "#b2182b"  # dark red
YEAR_LATE = "#2166ac"   # blue
CORR_NEG = "#2166ac"
CORR_POS = "#b2182b"

FONT = "font-family='Helvetica,Arial,sans-serif'"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _num(value: float) -> str:
    return f"{value:.2f}"


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    color = color.lstrip("#")
    return tuple(int(color[i : i + 2], 16) for i in (0, 2, 4))


def _mix(c1: str, c2: str, t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    r1, g1, b1 = _hex_to_rgb(c1)
    r2, g2, b2 = _hex_to_rgb(c2)
    return "#{:02x}{:02x}{:02x}".format(
        round(r1 + (r2 - r1) * t),
        round(g1 + (g2 - g1) * t),
        round(b1 + (b2 - b1) * t),
    )


def year_color(position: float) -> str:
    """Gradient color for a year at fractional position in [0, 1]."""
    return _mix(YEAR_EARLY, YEAR_LATE, position)


def cluster_color(cluster_id: int) -> str:
    if cluster_id < 0:
        return NOISE_COLOR
    return CLUSTER_PALETTE[cluster_id % len(CLUSTER_PALETTE)]


def corr_color(value: float) -> str:
    if value >= 0:
        return _mix("#ffffff", CORR_POS, value)
    return _mix("#ffffff", CORR_NEG, -value)


@dataclass(frozen=True)
class Frame:
    """Maps a data rectangle onto a pixel rectangle (y axis flipped)."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float
    top: float
    width: float
    height: float

    def x(self, value: float) -> float:
        return self.left + (value - self.x_lo) / (self.x_hi - self.x_lo) * self.width

    def y(self, value: float) -> float:
        return self.top + (self.y_hi - value) / (self.y_hi - self.y_lo) * self.height


def _padded(lo: float, hi: float, frac: float = 0.06) -> tuple[float, float]:
    if hi == lo:
        pad = max(abs(hi), 1.0) * frac
    else:
        pad = (hi - lo) * frac
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    out = []
    value = first
    while value <= hi + 1e-9 * span:
        out.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return out


def _tick_label(value: float) -> str:
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return f"{value:g}"


def _svg_open(width: int, height: int) -> list[str]:
    return [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='white'/>",
    ]


def _axes(parts: list[str], frame: Frame, x_label: str, y_label: str,
          x_ticks: list[float] | None = None, y_ticks: list[float] | None = None,
          x_fmt=_tick_label, y_fmt=_tick_label) -> None:
    right = frame.left + frame.width
    bottom = frame.top + frame.height
    parts.append(
        f"<rect x='{_num(frame.left)}' y='{_num(frame.top)}' width='{_num(frame.width)}' "
        f"height='{_num(frame.height)}' fill='none' stroke='#333333' stroke-width='1'/>"
    )
    for tick in x_ticks if x_ticks is not None else _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(tick)
        parts.append(
            f"<line x1='{_num(px)}' y1='{_num(bottom)}' x2='{_num(px)}' "
            f"y2='{_num(bottom + 4)}' stroke='#333333' stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{_num(px)}' y='{_num(bottom + 15)}' {FONT} font-size='10' "
            f"fill='#333333' text-anchor='middle'>{_esc(x_fmt(tick))}</text>"
        )
    for tick in y_ticks if y_ticks is not None else _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(tick)
        parts.append(
            f"<line x1='{_num(frame.left - 4)}' y1='{_num(py)}' x2='{_num(frame.left)}' "
            f"y2='{_num(py)}' stroke='#333333' stroke-width='1'/>"
        )
        parts.append(
            f"<text x='{_num(frame.left - 7)}' y='{_num(py + 3)}' {FONT} font-size='10' "
            f"fill='#333333' text-anchor='end'>{_esc(y_fmt(tick))}</text>"
        )
    parts.append(
        f"<text x='{_num(frame.left + frame.width / 2)}' y='{_num(bottom + 30)}' {FONT} "
        f"font-size='11' fill='#333333' text-anchor='middle'>{_esc(x_label)}</text>"
    )
    mid_y = frame.top + frame.height / 2
    parts.append(
        f"<text x='{_num(frame.left - 34)}' y='{_num(mid_y)}' {FONT} font-size='11' "
        f"fill='#333333' text-anchor='middle' "
        f"transform='rotate(-90 {_num(frame.left - 34)} {_num(mid_y)})'>{_esc(y_label)}</text>"
    )


def _polyline(points: list[tuple[float, float]], color: str, width: float,
              opacity: float = 1.0, dash: str | None = None) -> str:
    coords = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
    dash_attr = f" stroke-dasharray='{dash}'" if dash else ""
    return (
        f"<polyline points='{coords}' fill='none' stroke='{color}' "
        f"stroke-width='{width}' stroke-opacity='{opacity}'{dash_attr}/>"
    )


def _circle(x: float, y: float, r: float, color: str, opacity: float = 1.0) -> str:
    return (
        f"<circle cx='{_num(x)}' cy='{_num(y)}' r='{r}' fill='{color}' "
        f"fill-opacity='{opacity}'/>"
    )


def _title(parts: list[str], width: int, text: str) -> None:
    parts.append(
        f"<text x='{_num(width / 2)}' y='18' {FONT} font-size='13' fill='#111111' "
        f"text-anchor='middle'>{_esc(text)}</text>"
    )


# ---------------------------------------------------------------------------
# individual figures


def fig_parallel(years: list[int], means: list[list[float]]) -> str:
    width, height = 760, 460
    parts = _svg_open(width, height)
    _title(parts, width, "Yearly mean score per goal")
    flat = [v for row in means for v in row]
    y_lo, y_hi = _padded(min(flat), max(flat))
    frame = Frame(1, N_GOALS, y_lo, y_hi, 60, 40, width - 180, height - 90)
    _axes(parts, frame, "goal", "mean score",
          x_ticks=list(range(1, N_GOALS + 1)))
    n = len(years)
    for i, (year, row) in enumerate(zip(years, means)):
        color = year_color(i / (n - 1) if n > 1 else 0.0)
        points = [(frame.x(g + 1), frame.y(v)) for g, v in enumerate(row)]
        parts.append(_polyline(points, color, 1.4, opacity=0.9))
    # year gradient legend
    legend_x = width - 95
    for i, year in enumerate(years):
        t = i / (n - 1) if n > 1 else 0.0
        y_px = 50 + t * (height - 140)
        parts.append(
            f"<rect x='{legend_x}' y='{_num(y_px)}' width='14' "
            f"height='{_num((height - 140) / max(n - 1, 1) + 0.5)}' "
            f"fill='{year_color(t)}'/>"
        )
    parts.append(
        f"<text x='{legend_x + 20}' y='56' {FONT} font-size='10' fill='#333333'>"
        f"{years[0]}</text>"
    )
    parts.append(
        f"<text x='{legend_x + 20}' y='{_num(50 + (height - 140))}' {FONT} "
        f"font-size='10' fill='#333333'>{years[-1]}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _trajectory_lines(meta: list[list[str]], coords: list[list[float]]
                      ) -> dict[str, list[tuple[int, float, float]]]:
    by_country: dict[str, list[tuple[int, float, float]]] = {}
    for (country, year), row in zip(((m[0], int(m[1])) for m in meta), coords):
        by_country.setdefault(country, []).append((year, row[0], row[1]))
    for series in by_country.values():
        series.sort()
    return by_country


def fig_pca_scatter(meta: list[list[str]], coords: list[list[float]],
                    ideal: list[float]) -> str:
    width, height = 720, 560
    parts = _svg_open(width, height)
    _title(parts, width, "Observations in the first two components")
    xs = [row[0] for row in coords] + [ideal[0]]
    ys = [row[1] for row in coords] + [ideal[1]]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    frame = Frame(x_lo, x_hi, y_lo, y_hi, 60, 40, width - 100, height - 100)
    _axes(parts, frame, "component 1", "component 2")
    by_country = _trajectory_lines(meta, coords)
    years = sorted({int(m[1]) for m in meta})
    span = max(len(years) - 1, 1)
    for country in sorted(by_country):
        pts = [(frame.x(x), frame.y(y)) for _, x, y in by_country[country]]
        parts.append(_polyline(pts, "#bbbbbb", 0.6, opacity=0.5))
    for country in sorted(by_country):
        for year, x, y in by_country[country]:
            t = years.index(year) / span
            parts.append(_circle(frame.x(x), frame.y(y), 2.0, year_color(t), 0.75))
    parts.append(_circle(frame.x(ideal[0]), frame.y(ideal[1]), 5.0, "#000000"))
    parts.append(
        f"<text x='{_num(frame.x(ideal[0]) + 8)}' y='{_num(frame.y(ideal[1]) + 4)}' "
        f"{FONT} font-size='10' fill='#000000'>ideal</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def fig_pca_biplot(meta: list[list[str]], coords: list[list[float]],
                   loadings: list[tuple[float, float]]) -> str:
    width, height = 720, 560
    parts = _svg_open(width, height)
    _title(parts, width, "Component plane with goal loading vectors")
    xs = [row[0] for row in coords]
    ys = [row[1] for row in coords]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    frame = Frame(x_lo, x_hi, y_lo, y_hi, 60, 40, width - 100, height - 100)
    _axes(parts, frame, "component 1", "component 2")
    for row in coords:
        parts.append(_circle(frame.x(row[0]), frame.y(row[1]), 1.6, "#aaaaaa", 0.45))
    # scale arrows so the longest reaches 40% of the shorter half-span
    longest = max(math.hypot(x, y) for x, y in loadings)
    reach = 0.4 * min(x_hi - x_lo, y_hi - y_lo)
    scale = reach / longest if longest > 0 else 1.0
    for g, (lx, ly) in enumerate(loadings):
        x_px, y_px = frame.x(lx * scale), frame.y(ly * scale)
        ox, oy = frame.x(0.0), frame.y(0.0)
        parts.append(
            f"<line x1='{_num(ox)}' y1='{_num(oy)}' x2='{_num(x_px)}' y2='{_num(y_px)}' "
            f"stroke='#b2182b' stroke-width='1.2'/>"
        )
        parts.append(
            f"<text x='{_num(x_px)}' y='{_num(y_px - 3)}' {FONT} font-size='9' "
            f"fill='#b2182b' text-anchor='middle'>{g + 1}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def fig_tsne_clusters(meta: list[list[str]], coords: list[list[float]],
                      labels: list[int], switch_countries: list[str]) -> str:
    width, height = 760, 600
    parts = _svg_open(width, height)
    _title(parts, width, "Embedded observations by cluster")
    xs = [row[0] for row in coords]
    ys = [row[1] for row in coords]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    frame = Frame(x_lo, x_hi, y_lo, y_hi, 60, 40, width - 160, height - 100)
    _axes(parts, frame, "map x", "map y")
    switch_set = set(switch_countries)
    by_country = _trajectory_lines(meta, coords)
    for country in sorted(switch_set & set(by_country)):
        pts = [(frame.x(x), frame.y(y)) for _, x, y in by_country[country]]
        parts.append(_polyline(pts, "#444444", 0.9, opacity=0.8, dash="3,3"))
    for (row, label, m) in zip(coords, labels, meta):
        hot = m[0] in switch_set
        parts.append(
            _circle(
                frame.x(row[0]), frame.y(row[1]),
                2.6 if hot else 2.0,
                cluster_color(label),
                0.95 if hot else 0.5,
            )
        )
    # legend
    present = sorted(set(labels))
    legend_x = width - 92
    for i, cid in enumerate(present):
        y_px = 50 + i * 18
        parts.append(_circle(legend_x, y_px, 4, cluster_color(cid)))
        name = "noise" if cid < 0 else f"cluster {cid}"
        parts.append(
            f"<text x='{legend_x + 10}' y='{_num(y_px + 3.5)}' {FONT} font-size='10' "
            f"fill='#333333'>{_esc(name)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def fig_cluster_profiles(rows: list[tuple[str, int, int, list[float]]]) -> str:
    """rows: (country, year, cluster, 17 z-scores)."""
    clusters = sorted({cluster for _, _, cluster, _ in rows})
    n_cols = min(3, max(len(clusters), 1))
    n_rows = math.ceil(len(clusters) / n_cols)
    panel_w, panel_h, margin = 300, 230, 20
    width = n_cols * (panel_w + margin) + margin
    height = n_rows * (panel_h + margin) + margin + 20
    parts = _svg_open(width, height)
    flat = [v for _, _, _, z in rows for v in z]
    y_lo, y_hi = _padded(min(flat), max(flat))
    years = sorted({year for _, year, _, _ in rows})
    span = max(len(years) - 1, 1)
    for i, cid in enumerate(clusters):
        col, row_i = i % n_cols, i // n_cols
        left = margin + col * (panel_w + margin) + 40
        top = margin + row_i * (panel_h + margin) + 24
        frame = Frame(1, N_GOALS, y_lo, y_hi, left, top, panel_w - 50, panel_h - 56)
        sub = [(c, y, z) for c, y, k, z in rows if k == cid]
        name = "noise" if cid < 0 else f"cluster {cid}"
        countries = len({c for c, _, _ in sub})
        parts.append(
            f"<text x='{_num(left + (panel_w - 50) / 2)}' y='{_num(top - 7)}' {FONT} "
            f"font-size='11' fill='#111111' text-anchor='middle'>"
            f"{_esc(f'{name} ({countries} countries)')}</text>"
        )
        _axes(parts, frame, "goal", "z-score",
              x_ticks=[1, 5, 9, 13, 17])
        for _, _, z in sub:
            pts = [(frame.x(g + 1), frame.y(v)) for g, v in enumerate(z)]
            parts.append(_polyline(pts, "#999999", 0.5, opacity=0.22))
        by_year: dict[int, list[list[float]]] = {}
        for _, year, z in sub:
            by_year.setdefault(year, []).append(z)
        for year in sorted(by_year):
            block = by_year[year]
            mean = [sum(col_v) / len(col_v) for col_v in zip(*block)]
            t = years.index(year) / span
            pts = [(frame.x(g + 1), frame.y(v)) for g, v in enumerate(mean)]
            parts.append(_polyline(pts, year_color(t), 1.3, opacity=0.95))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def fig_correlation_heatmap(values: list[list[float]], subtitle: str) -> str:
    cell = 26
    left, top = 70, 60
    width = left + N_GOALS * cell + 90
    height = top + N_GOALS * cell + 40
    parts = _svg_open(width, height)
    _title(parts, width, f"Goal correlations ({subtitle})")
    for i in range(N_GOALS):
        for j in range(N_GOALS):
            v = values[i][j]
            x_px = left + j * cell
            y_px = top + i * cell
            parts.append(
                f"<rect x='{x_px}' y='{y_px}' width='{cell}' height='{cell}' "
                f"fill='{corr_color(v)}' stroke='#ffffff' stroke-width='0.5'/>"
            )
    for i in range(N_GOALS):
        parts.append(
            f"<text x='{left - 6}' y='{_num(top + i * cell + cell * 0.65)}' {FONT} "
            f"font-size='9' fill='#333333' text-anchor='end'>{i + 1}</text>"
        )
        parts.append(
            f"<text x='{_num(left + i * cell + cell / 2)}' y='{top - 6}' {FONT} "
            f"font-size='9' fill='#333333' text-anchor='middle'>{i + 1}</text>"
        )
    # color bar
    bar_x = left + N_GOALS * cell + 20
    steps = 40
    bar_h = N_GOALS * cell
    for s in range(steps):
        v = 1.0 - 2.0 * s / (steps - 1)
        parts.append(
            f"<rect x='{bar_x}' y='{_num(top + s * bar_h / steps)}' width='14' "
            f"height='{_num(bar_h / steps + 0.5)}' fill='{corr_color(v)}'/>"
        )
    for v, label in ((1.0, "+1"), (0.0, "0"), (-1.0, "-1")):
        y_px = top + (1.0 - v) / 2.0 * bar_h
        parts.append(
            f"<text x='{bar_x + 20}' y='{_num(y_px + 3)}' {FONT} font-size='10' "
            f"fill='#333333'>{label}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def fig_distributions(fits: list[tuple[int, int, float, float, int]],
                      years: list[int]) -> str:
    """fits: (cluster, year, mean, std, n)."""
    panel_w, panel_h, margin = 340, 260, 24
    n_cols = min(3, max(len(years), 1))
    n_rows = math.ceil(len(years) / n_cols) if years else 1
    width = n_cols * (panel_w + margin) + margin
    height = n_rows * (panel_h + margin) + margin + 20
    parts = _svg_open(width, height)
    for i, year in enumerate(years):
        col, row_i = i % n_cols, i // n_cols
        left = margin + col * (panel_w + margin) + 42
        top = margin + row_i * (panel_h + margin) + 26
        sub = [f for f in fits if f[1] == year]
        if not sub:
            continue
        x_lo = max(0.0, min(m - 3.5 * max(s, 1e-3) for _, _, m, s, _ in sub))
        x_hi = max(m + 3.5 * max(s, 1e-3) for _, _, m, s, _ in sub)
        peak = max(
            1.0 / (s * math.sqrt(2 * math.pi)) if s > 0 else 0.0
            for _, _, _, s, _ in sub
        )
        peak = peak if peak > 0 else 1.0
        frame = Frame(x_lo, x_hi, 0.0, peak * 1.08,
                      left, top, panel_w - 56, panel_h - 60)
        parts.append(
            f"<text x='{_num(left + (panel_w - 56) / 2)}' y='{_num(top - 8)}' {FONT} "
            f"font-size='12' fill='#111111' text-anchor='middle'>{year}</text>"
        )
        _axes(parts, frame, "distance to ideal", "density",
              y_fmt=lambda v: f"{v:.2f}")
        for cid, _, mean, std, _ in sorted(sub):
            color = cluster_color(cid)
            if std == 0.0:
                px = frame.x(mean)
                parts.append(
                    f"<line x1='{_num(px)}' y1='{_num(frame.y(0))}' x2='{_num(px)}' "
                    f"y2='{_num(frame.top)}' stroke='{color}' stroke-width='1.4'/>"
                )
                continue
            pts = []
            samples = 120
            for s in range(samples + 1):
                x_val = x_lo + (x_hi - x_lo) * s / samples
                dens = math.exp(-0.5 * ((x_val - mean) / std) ** 2) / (
                    std * math.sqrt(2 * math.pi)
                )
                pts.append((frame.x(x_val), frame.y(dens)))
            parts.append(_polyline(pts, color, 1.5, opacity=0.95))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


EXTRAP_PANEL = dict(left=420.0, top=46.0, width=330.0, height=430.0)
EXTRAP_SAMPLE_STEP = 0.25


def extrapolation_frame(first_year: int, extrapolate_to: int,
                        y_lo: float, y_hi: float) -> Frame:
    """Pixel mapping of the extrapolation panel; tests reuse it."""
    return Frame(first_year, extrapolate_to, y_lo, y_hi, **EXTRAP_PANEL)


def fig_trajectories(tables: dict[int, list[tuple[int, float, float]]],
                     fits: dict[int, dict], extrapolate_to: int) -> str:
    """tables: cluster -> [(year, mean, std)]; fits: cluster -> fit payload."""

    def curve(fit: dict, year: float) -> float:
        return fit["a"] + fit["b"] * year + fit["c"] * year * year

    width, height = 780, 540
    parts = _svg_open(width, height)
    _title(parts, width, "Mean distance to ideal: observed and extrapolated")
    all_years = sorted({y for rows in tables.values() for y, _, _ in rows})
    first_year, last_year = all_years[0], all_years[-1]
    observed = [m for rows in tables.values() for _, m, _ in rows]
    o_lo, o_hi = _padded(min(observed), max(observed))
    left_frame = Frame(first_year, last_year, o_lo, o_hi, 60, 46, 310, 430)
    _axes(parts, left_frame, "year", "mean distance to ideal")
    for cid in sorted(tables):
        color = cluster_color(cid)
        fit = fits[cid]
        excluded = set(fit.get("excluded_years", []))
        for year, mean, _ in tables[cid]:
            if year in excluded:
                parts.append(
                    f"<circle cx='{_num(left_frame.x(year))}' cy='{_num(left_frame.y(mean))}' "
                    f"r='2.4' fill='none' stroke='{color}' stroke-width='1'/>"
                )
            else:
                parts.append(_circle(left_frame.x(year), left_frame.y(mean), 2.4, color))
        pts = []
        year = float(first_year)
        while year <= last_year + 1e-9:
            pts.append((left_frame.x(year), left_frame.y(curve(fit, year))))
            year += EXTRAP_SAMPLE_STEP
        parts.append(_polyline(pts, color, 1.3, opacity=0.9))

    # right panel: extrapolation down to zero
    curve_min = 0.0
    curve_max = o_hi
    for fit in fits.values():
        probe = [float(first_year), float(extrapolate_to)]
        if fit["c"] != 0.0:
            vertex = -fit["b"] / (2.0 * fit["c"])
            if first_year <= vertex <= extrapolate_to:
                probe.append(vertex)
        for y in probe:
            curve_max = max(curve_max, curve(fit, y))
    e_lo, e_hi = _padded(min(curve_min, 0.0), curve_max)
    frame = extrapolation_frame(first_year, extrapolate_to, e_lo, e_hi)
    _axes(parts, frame, "year", "mean distance to ideal")
    zero_y = frame.y(0.0)
    parts.append(
        f"<line x1='{_num(frame.left)}' y1='{_num(zero_y)}' "
        f"x2='{_num(frame.left + frame.width)}' y2='{_num(zero_y)}' "
        f"stroke='#777777' stroke-width='0.8' stroke-dasharray='5,4'/>"
    )
    if first_year <= 2030 <= extrapolate_to:
        px = frame.x(2030)
        parts.append(
            f"<line x1='{_num(px)}' y1='{_num(frame.top)}' x2='{_num(px)}' "
            f"y2='{_num(frame.top + frame.height)}' stroke='#777777' "
            f"stroke-width='0.8' stroke-dasharray='2,3'/>"
        )
        parts.append(
            f"<text x='{_num(px + 3)}' y='{_num(frame.top + 12)}' {FONT} font-size='9' "
            f"fill='#555555'>2030</text>"
        )
    for cid in sorted(fits):
        fit = fits[cid]
        color = cluster_color(cid)
        pts = []
        year = float(first_year)
        while year <= extrapolate_to + 1e-9:
            pts.append((frame.x(year), frame.y(max(curve(fit, year), e_lo))))
            year += EXTRAP_SAMPLE_STEP
        parts.append(_polyline(pts, color, 1.3, opacity=0.9))
        attained = fit.get("attainment_year")
        crossing = fit.get("zero_crossing")
        if attained is not None and crossing is not None and crossing <= extrapolate_to:
            parts.append(
                f"<text x='{_num(frame.x(crossing))}' y='{_num(zero_y - 5)}' {FONT} "
                f"font-size='9' fill='{color}' text-anchor='middle'>{attained}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# artifact plumbing


def emit_figures(out: str | Path, written: list[Path] | None = None) -> list[Path]:
    """Render every figure from the artifacts in out; returns written paths."""
    out = Path(out)
    produced: list[Path] = written if written is not None else []

    def emit(name: str, svg: str) -> None:
        path = out / name
        artifacts.write_text(path, svg)
        produced.append(path)

    _, mean_rows = artifacts.read_csv(out / artifacts.YEARLY_MEANS)
    years = [int(row[0]) for row in mean_rows]
    means = [[float(v) for v in row[1:]] for row in mean_rows]
    emit("parallel.svg", fig_parallel(years, means))

    _, proj_rows = artifacts.read_csv(out / artifacts.PCA_PROJECTION)
    proj_meta = [row[:2] for row in proj_rows]
    proj = [[float(v) for v in row[2:4]] for row in proj_rows]
    _, ideal_rows = artifacts.read_csv(out / artifacts.PCA_IDEAL)
    ideal = [float(v) for v in ideal_rows[0][:2]]
    emit("pca_scatter.svg", fig_pca_scatter(proj_meta, proj, ideal))

    _, loading_rows = artifacts.read_csv(out / artifacts.PCA_LOADINGS)
    vectors = [(float(row[1]), float(row[2])) for row in loading_rows]
    emit("pca_biplot.svg", fig_pca_biplot(proj_meta, proj, vectors))

    _, embed_rows = artifacts.read_csv(out / artifacts.EMBEDDING)
    embed_meta = [row[:2] for row in embed_rows]
    embed = [[float(v) for v in row[2:4]] for row in embed_rows]
    _, label_rows = artifacts.read_csv(out / artifacts.LABELS)
    labels = [int(row[2]) for row in label_rows]
    _, switch_rows = artifacts.read_csv(out / artifacts.SWITCHES)
    switchers = sorted({row[0] for row in switch_rows})
    emit("tsne_clusters.svg", fig_tsne_clusters(embed_meta, embed, labels, switchers))

    _, profile_rows = artifacts.read_csv(out / artifacts.CLUSTER_STANDARDIZED)
    profiles = [
        (row[0], int(row[1]), int(row[2]), [float(v) for v in row[3:]])
        for row in profile_rows
    ]
    emit("cluster_profiles.svg", fig_cluster_profiles(profiles))

    _, corr_rows = artifacts.read_csv(out / artifacts.CORRELATION_GLOBAL)
    values = [[float(v) for v in row[1:]] for row in corr_rows]
    emit("correlation_global.svg", fig_correlation_heatmap(values, "all countries"))
    for path in sorted(out.glob("correlation_cluster*.csv")):
        cid = path.stem.removeprefix("correlation_cluster")
        _, rows = artifacts.read_csv(path)
        values = [[float(v) for v in row[1:]] for row in rows]
        emit(f"correlation_cluster{cid}.svg",
             fig_correlation_heatmap(values, f"cluster {cid}"))

    _, fit_rows = artifacts.read_csv(out / artifacts.GAUSSIAN_FITS)
    fits = [
        (int(r[0]), int(r[1]), float(r[2]), float(r[3]), int(r[4])) for r in fit_rows
    ]
    fit_years = sorted({f[1] for f in fits})
    emit("distributions.svg", fig_distributions(fits, fit_years))

    payload = artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
    trajectory_fits = {int(k): v for k, v in payload.items()}
    tables: dict[int, list[tuple[int, float, float]]] = {}
    for cid in sorted(trajectory_fits):
        _, rows = artifacts.read_csv(out / artifacts.trajectory_name(cid))
        tables[cid] = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
    if trajectory_fits:
        extrapolate_to = max(v.get("extrapolate_to", 2100) for v in trajectory_fits.values())
        emit("trajectories.svg",
             fig_trajectories(tables, trajectory_fits, extrapolate_to))
    else:
        # nothing but noise: still render a (labeled) empty figure
        parts = _svg_open(500, 120)
        _title(parts, 500, "Mean distance to ideal: no clusters found")
        parts.append("</svg>")
        emit("trajectories.svg", "\n".join(parts) + "\n")

    return produced
