"""SVG figures rendered straight from the artifact files.

Plain string assembly, no plotting library: identical inputs give identical
bytes, which the reproducibility guarantee extends to figures. Coordinates
are written at two decimals.

Points are mapped to pixels a whole array at a time and a polyline's
coordinates are formatted with one % template. That gives the bytes of a
point-by-point loop: numpy's elementwise + - * / round exactly as Python
float arithmetic does, in the same order, and "%.2f" formats exactly as the
f-string spec ".2f". Transcendental functions (the Gaussian's exp) stay
scalar Python calls, since numpy's may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

from sdgpipe import artifacts
from sdgpipe.dbscan import NOISE, cluster_ids, cluster_name
from sdgpipe.errors import MissingArtifactError
from sdgpipe.panel import N_GOALS, country_rows

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


# (start, end) RGB of each gradient, parsed once.
Gradient = tuple[tuple[int, int, int], tuple[int, int, int]]
YEAR_GRADIENT = (_hex_to_rgb(YEAR_EARLY), _hex_to_rgb(YEAR_LATE))
CORR_NEG_GRADIENT = (_hex_to_rgb("#ffffff"), _hex_to_rgb(CORR_NEG))
CORR_POS_GRADIENT = (_hex_to_rgb("#ffffff"), _hex_to_rgb(CORR_POS))


def _mix(gradient: Gradient, t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    (r1, g1, b1), (r2, g2, b2) = gradient
    return "#%02x%02x%02x" % (
        round(r1 + (r2 - r1) * t),
        round(g1 + (g2 - g1) * t),
        round(b1 + (b2 - b1) * t),
    )


def year_color(position: float) -> str:
    """Gradient color for a year at fractional position in [0, 1]."""
    return _mix(YEAR_GRADIENT, position)


def _year_positions(years: list[int]) -> dict[int, float]:
    """Position in [0, 1] of each of the sorted years; a lone year sits at 0."""
    return {year: i / max(len(years) - 1, 1) for i, year in enumerate(years)}


def cluster_color(cluster_id: int) -> str:
    if cluster_id == NOISE:
        return NOISE_COLOR
    return CLUSTER_PALETTE[cluster_id % len(CLUSTER_PALETTE)]


def corr_color(value: float) -> str:
    if value >= 0:
        return _mix(CORR_POS_GRADIENT, value)
    return _mix(CORR_NEG_GRADIENT, -value)


@dataclass(frozen=True)
class Frame:
    """Maps a data rectangle onto a pixel rectangle (y axis flipped).

    x and y take a number or a numpy array; an array maps elementwise to
    the same values as one call per element.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float
    top: float
    width: float
    height: float

    def x(self, value: float | np.ndarray) -> float | np.ndarray:
        return self.left + (value - self.x_lo) / (self.x_hi - self.x_lo) * self.width

    def y(self, value: float | np.ndarray) -> float | np.ndarray:
        return self.top + (self.y_hi - value) / (self.y_hi - self.y_lo) * self.height


# Axis ranges are padded by this share of their span on each side.
PAD_FRACTION = 0.06
# An axis gets at most this many tick intervals.
TICK_TARGET = 5


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        pad = max(abs(hi), 1.0) * PAD_FRACTION
    else:
        pad = (hi - lo) * PAD_FRACTION
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / TICK_TARGET
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if span / step <= TICK_TARGET:
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


def _svg(width: int, height: int, parts: list[str], title: str | None = None) -> str:
    """Whole document: white background, optional centred title, then parts."""
    head = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='white'/>",
    ]
    if title is not None:
        head.append(_text(_num(width / 2), 18, title, 13, fill="#111111", anchor="middle"))
    return "\n".join([*head, *parts, "</svg>"]) + "\n"


def _text(x: str | int, y: str | int, label: object, size: int, fill: str = "#333333",
          anchor: str | None = None, extra: str = "") -> str:
    """A <text> element; x and y are written as given (_num(...) or a raw int)."""
    attrs = f" text-anchor='{anchor}'" if anchor else ""
    attrs += f" {extra}" if extra else ""
    return (
        f"<text x='{x}' y='{y}' {FONT} font-size='{size}' fill='{fill}'{attrs}>"
        f"{_esc(label)}</text>"
    )


def _line(x1: float, y1: float, x2: float, y2: float, color: str, width: float,
          dash: str | None = None) -> str:
    dash_attr = f" stroke-dasharray='{dash}'" if dash else ""
    return (
        f"<line x1='{_num(x1)}' y1='{_num(y1)}' x2='{_num(x2)}' y2='{_num(y2)}' "
        f"stroke='{color}' stroke-width='{width}'{dash_attr}/>"
    )


def _axes(parts: list[str], frame: Frame, x_label: str, y_label: str,
          x_ticks: list[float] | None = None, y_fmt=_tick_label) -> None:
    bottom = frame.top + frame.height
    parts.append(
        f"<rect x='{_num(frame.left)}' y='{_num(frame.top)}' width='{_num(frame.width)}' "
        f"height='{_num(frame.height)}' fill='none' stroke='#333333' stroke-width='1'/>"
    )
    for tick in x_ticks if x_ticks is not None else _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(tick)
        parts.append(_line(px, bottom, px, bottom + 4, "#333333", 1))
        parts.append(_text(_num(px), _num(bottom + 15), _tick_label(tick), 10, anchor="middle"))
    for tick in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(tick)
        parts.append(_line(frame.left - 4, py, frame.left, py, "#333333", 1))
        parts.append(_text(_num(frame.left - 7), _num(py + 3), y_fmt(tick), 10, anchor="end"))
    parts.append(_text(_num(frame.left + frame.width / 2), _num(bottom + 30), x_label, 11,
                       anchor="middle"))
    mid_x, mid_y = _num(frame.left - 34), _num(frame.top + frame.height / 2)
    parts.append(_text(mid_x, mid_y, y_label, 11, anchor="middle",
                       extra=f"transform='rotate(-90 {mid_x} {mid_y})'"))


def _scatter_frame(parts: list[str], points: np.ndarray, width: int, height: int,
                   inset: int, x_label: str, y_label: str) -> Frame:
    """Axes around padded (x, y) points, an (n, 2) array, in a plot area
    inset from the right."""
    (x_min, y_min), (x_max, y_max) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    x_lo, x_hi = _padded(x_min, x_max)
    y_lo, y_hi = _padded(y_min, y_max)
    frame = Frame(x_lo, x_hi, y_lo, y_hi, 60, 40, width - inset, height - 100)
    _axes(parts, frame, x_label, y_label)
    return frame


def _grid(count: int, panel_w: int, panel_h: int, margin: int
          ) -> tuple[int, int, list[tuple[int, int]]]:
    """Small multiples, up to three per row: (width, height, panel origins)."""
    n_cols = min(3, max(count, 1))
    n_rows = math.ceil(count / n_cols) if count else 1
    origins = [
        (margin + (i % n_cols) * (panel_w + margin), margin + (i // n_cols) * (panel_h + margin))
        for i in range(count)
    ]
    return (n_cols * (panel_w + margin) + margin,
            n_rows * (panel_h + margin) + margin + 20, origins)


def _polyline(xs: ArrayLike, ys: ArrayLike, color: str, width: float,
              opacity: float = 1.0, dash: str | None = None) -> str:
    """Polylines of one style through pixel coordinates: a 1-d ys draws one
    line, a 2-d ys one line per row, newline-separated, every line through
    the x positions xs. The xs are formatted once into a % template that
    then formats all the ys at once (color and dash hold no %)."""
    ys = np.atleast_2d(ys)
    points = " ".join([f"{x:.2f},%.2f" for x in np.asarray(xs).tolist()])
    dash_attr = f" stroke-dasharray='{dash}'" if dash else ""
    line = (
        f"<polyline points='{points}' fill='none' stroke='{color}' "
        f"stroke-width='{width}' stroke-opacity='{opacity}'{dash_attr}/>"
    )
    return "\n".join([line] * len(ys)) % tuple(ys.ravel().tolist())


def _circle(x: float, y: float, r: float, color: str, opacity: float = 1.0) -> str:
    return (
        f"<circle cx='{x:.2f}' cy='{y:.2f}' r='{r}' fill='{color}' "
        f"fill-opacity='{opacity}'/>"
    )


def _goal_positions(frame: Frame) -> np.ndarray:
    """Pixel x of goals 1..17 on a goal axis."""
    return frame.x(np.arange(1, N_GOALS + 1))


# ---------------------------------------------------------------------------
# individual figures


def fig_parallel(years: list[int], means: ArrayLike) -> str:
    """means: (years, 17) array or nested lists of yearly goal means."""
    width, height = 760, 460
    parts: list[str] = []
    means = np.asarray(means, dtype=float)
    y_lo, y_hi = _padded(means.min().item(), means.max().item())
    frame = Frame(1, N_GOALS, y_lo, y_hi, 60, 40, width - 180, height - 90)
    _axes(parts, frame, "goal", "mean score", x_ticks=list(range(1, N_GOALS + 1)))
    n = len(years)
    positions = _year_positions(years)
    xs = _goal_positions(frame)
    for year, ys in zip(years, frame.y(means)):
        parts.append(_polyline(xs, ys, year_color(positions[year]), 1.4, opacity=0.9))
    # year gradient legend
    legend_x = width - 95
    for year in years:
        t = positions[year]
        y_px = 50 + t * (height - 140)
        parts.append(
            f"<rect x='{legend_x}' y='{_num(y_px)}' width='14' "
            f"height='{_num((height - 140) / max(n - 1, 1) + 0.5)}' "
            f"fill='{year_color(t)}'/>"
        )
    parts.append(_text(legend_x + 20, 56, years[0], 10))
    parts.append(_text(legend_x + 20, _num(50 + (height - 140)), years[-1], 10))
    return _svg(width, height, parts, "Yearly mean score per goal")


def fig_pca_scatter(meta: list[list[str]], coords: ArrayLike, ideal: list[float]) -> str:
    """coords: (rows, 2) array or nested lists, in meta's row order."""
    width, height = 720, 560
    parts: list[str] = []
    coords = np.asarray(coords, dtype=float)
    frame = _scatter_frame(parts, np.vstack((coords, ideal)), width, height, 100,
                           "component 1", "component 2")
    px, py = frame.x(coords[:, 0]), frame.y(coords[:, 1])
    by_country = country_rows([(c, int(y)) for c, y in meta])
    for rows in by_country.values():
        parts.append(_polyline(px[rows], py[rows], "#bbbbbb", 0.6, opacity=0.5))
    years = [int(m[1]) for m in meta]
    colors = {year: year_color(t) for year, t in _year_positions(sorted(set(years))).items()}
    xs, ys = px.tolist(), py.tolist()
    for rows in by_country.values():
        for i in rows:
            parts.append(_circle(xs[i], ys[i], 2.0, colors[years[i]], 0.75))
    ideal_x, ideal_y = frame.x(ideal[0]), frame.y(ideal[1])
    parts.append(_circle(ideal_x, ideal_y, 5.0, "#000000"))
    parts.append(_text(_num(ideal_x + 8), _num(ideal_y + 4), "ideal", 10, fill="#000000"))
    return _svg(width, height, parts, "Observations in the first two components")


def fig_pca_biplot(coords: ArrayLike, loadings: list[tuple[float, float]]) -> str:
    width, height = 720, 560
    parts: list[str] = []
    coords = np.asarray(coords, dtype=float)
    frame = _scatter_frame(parts, coords, width, height, 100, "component 1", "component 2")
    for x, y in zip(frame.x(coords[:, 0]).tolist(), frame.y(coords[:, 1]).tolist()):
        parts.append(_circle(x, y, 1.6, "#aaaaaa", 0.45))
    # scale arrows so the longest reaches 40% of the shorter half-span
    longest = max(math.hypot(x, y) for x, y in loadings)
    reach = 0.4 * min(frame.x_hi - frame.x_lo, frame.y_hi - frame.y_lo)
    scale = reach / longest if longest > 0 else 1.0
    for g, (lx, ly) in enumerate(loadings):
        x_px, y_px = frame.x(lx * scale), frame.y(ly * scale)
        parts.append(_line(frame.x(0.0), frame.y(0.0), x_px, y_px, "#b2182b", 1.2))
        parts.append(_text(_num(x_px), _num(y_px - 3), g + 1, 9, fill="#b2182b",
                           anchor="middle"))
    return _svg(width, height, parts, "Component plane with goal loading vectors")


def fig_tsne_clusters(meta: list[list[str]], coords: ArrayLike,
                      labels: list[int], switch_countries: list[str]) -> str:
    width, height = 760, 600
    parts: list[str] = []
    coords = np.asarray(coords, dtype=float)
    frame = _scatter_frame(parts, coords, width, height, 160, "map x", "map y")
    px, py = frame.x(coords[:, 0]), frame.y(coords[:, 1])
    switch_set = set(switch_countries)
    for country, rows in country_rows([(c, int(y)) for c, y in meta]).items():
        if country in switch_set:
            parts.append(_polyline(px[rows], py[rows], "#444444", 0.9, opacity=0.8, dash="3,3"))
    for x, y, label, m in zip(px.tolist(), py.tolist(), labels, meta):
        hot = m[0] in switch_set
        parts.append(_circle(x, y, 2.6 if hot else 2.0, cluster_color(label),
                             0.95 if hot else 0.5))
    # legend
    legend_x = width - 92
    for i, cid in enumerate(sorted(set(labels))):
        y_px = 50 + i * 18
        parts.append(_circle(legend_x, y_px, 4, cluster_color(cid)))
        parts.append(_text(legend_x + 10, _num(y_px + 3.5), cluster_name(cid), 10))
    return _svg(width, height, parts, "Embedded observations by cluster")


def fig_cluster_profiles(rows: list[tuple[str, int, int, list[float]]]) -> str:
    """rows: (country, year, cluster, 17 z-scores)."""
    clusters = sorted({cluster for _, _, cluster, _ in rows})
    panel_w, panel_h = 300, 230
    width, height, origins = _grid(len(clusters), panel_w, panel_h, 20)
    parts: list[str] = []
    z = np.asarray([z for _, _, _, z in rows], dtype=float)
    row_countries = np.array([country for country, _, _, _ in rows])
    row_years = np.array([year for _, year, _, _ in rows], dtype=int)
    row_clusters = np.array([cluster for _, _, cluster, _ in rows], dtype=int)
    y_lo, y_hi = _padded(z.min().item(), z.max().item())
    positions = _year_positions(sorted({year for _, year, _, _ in rows}))
    for cid, (x0, y0) in zip(clusters, origins):
        left, top = x0 + 40, y0 + 24
        frame = Frame(1, N_GOALS, y_lo, y_hi, left, top, panel_w - 50, panel_h - 56)
        members = row_clusters == cid
        sub, years = z[members], row_years[members]
        countries = len(set(row_countries[members].tolist()))
        parts.append(_text(_num(left + (panel_w - 50) / 2), _num(top - 7),
                           f"{cluster_name(cid)} ({countries} countries)", 11, fill="#111111",
                           anchor="middle"))
        _axes(parts, frame, "goal", "z-score", x_ticks=[1, 5, 9, 13, 17])
        xs = _goal_positions(frame)
        parts.append(_polyline(xs, frame.y(sub), "#999999", 0.5, opacity=0.22))
        for year in sorted(set(years.tolist())):
            block = sub[years == year]
            # sum() adds the rows in order, as Python sums each goal's column
            mean = sum(block) / len(block)
            parts.append(_polyline(xs, frame.y(mean), year_color(positions[year]), 1.3,
                                   opacity=0.95))
    return _svg(width, height, parts)


def fig_correlation_heatmap(values: ArrayLike, subtitle: str) -> str:
    """values: 17 x 17 correlations, array or nested lists."""
    cell = 26
    left, top = 70, 60
    width = left + N_GOALS * cell + 90
    height = top + N_GOALS * cell + 40
    parts: list[str] = []
    values = np.asarray(values, dtype=float).tolist()
    # the matrix is symmetric: each distinct value is coloured once
    colors = {v: corr_color(v) for v in {v for row in values for v in row}}
    for i in range(N_GOALS):
        for j in range(N_GOALS):
            parts.append(
                f"<rect x='{left + j * cell}' y='{top + i * cell}' width='{cell}' "
                f"height='{cell}' fill='{colors[values[i][j]]}' stroke='#ffffff' "
                f"stroke-width='0.5'/>"
            )
    for i in range(N_GOALS):
        parts.append(_text(left - 6, _num(top + i * cell + cell * 0.65), i + 1, 9,
                           anchor="end"))
        parts.append(_text(_num(left + i * cell + cell / 2), top - 6, i + 1, 9,
                           anchor="middle"))
    # color bar
    bar_x = left + N_GOALS * cell + 20
    steps = 40
    bar_h = N_GOALS * cell
    for s in range(steps):
        v = 1.0 - 2.0 * s / (steps - 1)
        parts.append(
            f"<rect x='{bar_x}' y='{top + s * bar_h / steps:.2f}' width='14' "
            f"height='{bar_h / steps + 0.5:.2f}' fill='{corr_color(v)}'/>"
        )
    for v, label in ((1.0, "+1"), (0.0, "0"), (-1.0, "-1")):
        y_px = top + (1.0 - v) / 2.0 * bar_h
        parts.append(_text(bar_x + 20, _num(y_px + 3), label, 10))
    return _svg(width, height, parts, f"Goal correlations ({subtitle})")


def fig_distributions(fits: list[tuple[int, int, float, float, int]]) -> str:
    """fits: (cluster, year, mean, std, n), at least one; one panel per year."""
    years = sorted({f[1] for f in fits})
    panel_w, panel_h = 340, 260
    width, height, origins = _grid(len(years), panel_w, panel_h, 24)
    parts: list[str] = []
    samples = 120
    for year, (x0, y0) in zip(years, origins):
        left, top = x0 + 42, y0 + 26
        sub = [f for f in fits if f[1] == year]
        x_lo = max(0.0, min(m - 3.5 * max(s, 1e-3) for _, _, m, s, _ in sub))
        x_hi = max(m + 3.5 * max(s, 1e-3) for _, _, m, s, _ in sub)
        peak = max(
            1.0 / (s * math.sqrt(2 * math.pi)) if s > 0 else 0.0
            for _, _, _, s, _ in sub
        )
        peak = peak if peak > 0 else 1.0
        frame = Frame(x_lo, x_hi, 0.0, peak * 1.08,
                      left, top, panel_w - 56, panel_h - 60)
        parts.append(_text(_num(left + (panel_w - 56) / 2), _num(top - 8), year, 12,
                           fill="#111111", anchor="middle"))
        _axes(parts, frame, "distance to ideal", "density", y_fmt=lambda v: f"{v:.2f}")
        x_values = x_lo + (x_hi - x_lo) * np.arange(samples + 1) / samples
        xs, x_list = frame.x(x_values), x_values.tolist()
        for cid, _, mean, std, _ in sorted(sub):
            color = cluster_color(cid)
            if std == 0.0:
                px = frame.x(mean)
                parts.append(_line(px, frame.y(0), px, frame.top, color, 1.4))
                continue
            dens = [math.exp(-0.5 * ((x_val - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
                    for x_val in x_list]
            parts.append(_polyline(xs, frame.y(np.array(dens)), color, 1.5, opacity=0.95))
    return _svg(width, height, parts)


EXTRAPOLATE_TO = 2100  # the trajectories are extrapolated to this year
EXTRAP_PANEL = dict(left=420.0, top=46.0, width=330.0, height=430.0)
EXTRAP_SAMPLE_STEP = 0.25


def _sample_years(first: int, last: int) -> list[float]:
    """first, first + step, ... up to last, by repeated addition of the step."""
    years = []
    year = float(first)
    while year <= last + 1e-9:
        years.append(year)
        year += EXTRAP_SAMPLE_STEP
    return years


def fig_trajectories(tables: dict[int, list[tuple[int, float, float]]],
                     fits: dict[int, dict]) -> str:
    """tables: cluster -> [(year, mean, std)], at least one; fits: cluster ->
    fit payload, for some of those clusters. A point that no fit used is
    hollow, and only a fitted cluster gets a curve. The extrapolation panel
    is drawn only when some cluster has a fit and the tables end before
    EXTRAPOLATE_TO; an attainment year past it is labelled "2207 →" at the
    panel's right edge, on the zero line."""

    def curve(fit: dict, year: float | np.ndarray) -> float | np.ndarray:
        return fit["a"] + fit["b"] * year + fit["c"] * year * year

    all_years = sorted({y for rows in tables.values() for y, _, _ in rows})
    first_year, last_year = all_years[0], all_years[-1]
    extrapolate = bool(fits) and last_year < EXTRAPOLATE_TO
    width, height = (780 if extrapolate else 420), 540
    parts: list[str] = []
    observed = [m for rows in tables.values() for _, m, _ in rows]
    o_lo, o_hi = _padded(min(observed), max(observed))
    # a lone year, of a cluster that has no fit, sits at the left edge
    left_frame = Frame(first_year, max(last_year, first_year + 1), o_lo, o_hi, 60, 46, 310, 430)
    _axes(parts, left_frame, "year", "mean distance to ideal")
    observed_years = np.array(_sample_years(first_year, last_year))
    observed_xs = left_frame.x(observed_years)
    for cid in sorted(tables):
        color = cluster_color(cid)
        fit = fits.get(cid)
        used = set(fit["years_used"]) if fit else set()
        for year, mean, _ in tables[cid]:
            if year not in used:
                parts.append(
                    f"<circle cx='{left_frame.x(year):.2f}' cy='{left_frame.y(mean):.2f}' "
                    f"r='2.4' fill='none' stroke='{color}' stroke-width='1'/>"
                )
            else:
                parts.append(_circle(left_frame.x(year), left_frame.y(mean), 2.4, color))
        if fit:
            parts.append(_polyline(observed_xs, left_frame.y(curve(fit, observed_years)),
                                   color, 1.3, opacity=0.9))
    if not extrapolate:
        return _svg(width, height, parts, "Mean distance to ideal: observed")

    # right panel: extrapolation down to zero
    curve_max = o_hi
    for fit in fits.values():
        probe = [float(first_year), float(EXTRAPOLATE_TO)]
        if fit["c"] != 0.0:
            vertex = -fit["b"] / (2.0 * fit["c"])
            if first_year <= vertex <= EXTRAPOLATE_TO:
                probe.append(vertex)
        for y in probe:
            curve_max = max(curve_max, curve(fit, y))
    e_lo, e_hi = _padded(0.0, curve_max)
    frame = Frame(first_year, EXTRAPOLATE_TO, e_lo, e_hi, **EXTRAP_PANEL)
    _axes(parts, frame, "year", "mean distance to ideal")
    zero_y = frame.y(0.0)
    parts.append(_line(frame.left, zero_y, frame.left + frame.width, zero_y,
                       "#777777", 0.8, dash="5,4"))
    if first_year <= 2030 <= EXTRAPOLATE_TO:
        px = frame.x(2030)
        parts.append(_line(px, frame.top, px, frame.top + frame.height,
                           "#777777", 0.8, dash="2,3"))
        parts.append(_text(_num(px + 3), _num(frame.top + 12), 2030, 9, fill="#555555"))
    extrapolated_years = np.array(_sample_years(first_year, EXTRAPOLATE_TO))
    extrapolated_xs = frame.x(extrapolated_years)
    beyond = 0  # crossings past the horizon so far, labelled up the right edge
    for cid in sorted(fits):
        fit = fits[cid]
        color = cluster_color(cid)
        ys = frame.y(np.maximum(curve(fit, extrapolated_years), e_lo))
        parts.append(_polyline(extrapolated_xs, ys, color, 1.3, opacity=0.9))
        crossing = fit["zero_crossing"]  # None exactly when attainment_year is
        if crossing is None:
            continue
        if crossing <= EXTRAPOLATE_TO:
            parts.append(_text(_num(frame.x(crossing)), _num(zero_y - 5),
                               fit["attainment_year"], 9, fill=color, anchor="middle"))
        else:
            parts.append(_text(_num(frame.left + frame.width), _num(zero_y - 5 - 11 * beyond),
                               f"{fit['attainment_year']} →", 9, fill=color, anchor="end"))
            beyond += 1
    return _svg(width, height, parts, "Mean distance to ideal: observed and extrapolated")


# ---------------------------------------------------------------------------
# artifact plumbing


def emit_figures(out: str | Path, dest: str | Path) -> list[Path]:
    """Draw every figure from the artifacts in out into dest; returns the paths."""
    out, dest = Path(out), Path(dest)
    produced: list[Path] = []

    def emit(name: str, svg: str) -> None:
        path = dest / name
        artifacts.write_text(path, svg)
        produced.append(path)

    # The t-SNE figure pairs embedding.csv with labels.csv by position, and
    # the PCA and t-SNE scatters must show the same observations.
    proj_meta, (proj, embed, labels) = artifacts.read_aligned(
        out, (artifacts.PCA_PROJECTION, artifacts.EMBEDDING, artifacts.LABELS))

    years_meta, means = artifacts.read_matrix(out / artifacts.YEARLY_MEANS, 1)
    emit(artifacts.PARALLEL_SVG, fig_parallel([int(row[0]) for row in years_meta], means))

    proj = proj[:, :2]
    _, ideal = artifacts.read_matrix(out / artifacts.PCA_IDEAL, 0)
    emit(artifacts.PCA_SCATTER_SVG, fig_pca_scatter(proj_meta, proj, ideal[0, :2].tolist()))
    _, vectors = artifacts.read_matrix(out / artifacts.PCA_LOADINGS, 1)
    emit(artifacts.PCA_BIPLOT_SVG, fig_pca_biplot(proj, vectors.tolist()))

    _, switch_rows = artifacts.read_csv(out / artifacts.SWITCHES)
    switchers = sorted({row[0] for row in switch_rows})
    labels = labels[:, 0].astype(int)
    emit(artifacts.TSNE_CLUSTERS_SVG, fig_tsne_clusters(
        proj_meta, embed[:, :2], labels.tolist(), switchers))

    def nothing_to_draw(title: str, missing: str) -> str:
        """The labeled empty figure of a figure with nothing to plot."""
        return _svg(500, 120, [],
                    f"{title}: {missing if cluster_ids(labels) else 'no clusters found'}")

    profile_meta, z = artifacts.read_matrix(out / artifacts.CLUSTER_STANDARDIZED, 3)
    profiles = [(c, int(y), int(k), row) for (c, y, k), row in zip(profile_meta, z.tolist())]
    emit(artifacts.CLUSTER_PROFILES_SVG, fig_cluster_profiles(profiles))

    heatmaps = {out / artifacts.CORRELATION_GLOBAL: "all countries"}
    for kind, name_of in (("cluster", artifacts.correlation_cluster_name),
                          ("year", artifacts.correlation_year_name)):
        for key, path in artifacts.numbered_files(out, name_of).items():
            heatmaps[path] = f"{kind} {key}"
    for path, subtitle in heatmaps.items():
        _, values = artifacts.read_matrix(path, 1)
        emit(artifacts.svg_name(path.name), fig_correlation_heatmap(values, subtitle))

    fit_meta, fit_values = artifacts.read_matrix(out / artifacts.GAUSSIAN_FITS, 2)
    fits = [(int(c), int(y), m, s, int(n))
            for (c, y), (m, s, n) in zip(fit_meta, fit_values.tolist())]
    emit(artifacts.DISTRIBUTIONS_SVG,
         fig_distributions(fits) if fits
         else nothing_to_draw("Distance-to-ideal distributions", "no Gaussian fits"))

    tables = {}
    for cid, path in artifacts.numbered_files(out, artifacts.trajectory_name).items():
        _, rows = artifacts.read_matrix(path, 0)
        tables[cid] = [(int(year), mean, std) for year, mean, std, _ in rows.tolist()]
    payload = artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
    trajectory_fits = {int(k): v for k, v in payload.items()}
    missing = sorted(trajectory_fits.keys() - tables.keys())
    if missing:  # a fit whose table is gone
        raise MissingArtifactError(artifacts.trajectory_name(missing[0]))
    emit(artifacts.TRAJECTORIES_SVG,
         fig_trajectories(tables, trajectory_fits) if tables
         else nothing_to_draw("Mean distance to ideal", "no trajectory tables"))
    return produced
