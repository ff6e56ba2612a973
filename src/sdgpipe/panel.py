"""Loading, validation, and standardization of country-by-year score panels.

The input is a long-format CSV with one row per (country, year) observation
and 17 goal-score columns on a 0..100 scale. Rows are held in a canonical
(country, year) sort order so that every downstream artifact is reproducible
byte for byte.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from sdgpipe import artifacts
from sdgpipe.errors import (
    DuplicateObservationError,
    EmptyResultError,
    MalformedHeaderError,
    NonNumericScoreError,
    ScoreRangeError,
    ShapeMismatchError,
    ZeroVarianceError,
)

N_GOALS = 17
GOAL_COLUMNS = tuple(f"goal{i:02d}" for i in range(1, N_GOALS + 1))
PANEL_HEADER = ("country", "year") + GOAL_COLUMNS
GDP_HEADER = ("country", "gdp_per_capita")

# Cells parsed as missing, compared case-insensitively after stripping.
_MISSING_MARKERS = frozenset({"", "na", "nan", "null"})

# Scores this far past [0, 100] are treated as rounding residue and clamped;
# anything further out is rejected.
PARSE_TOLERANCE = 1e-6

# Spreads at or below this are treated as zero variance.
_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class ScorePanel:
    """Validated panel in canonical (country, year) row order.

    scores is (n_observations, 17) float64 with NaN marking missing cells;
    index pairs each row with its (country, year), and the sorted countries
    and years are read off it.
    """

    index: tuple[tuple[str, int], ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.scores.flags.writeable = False

    @cached_property
    def countries(self) -> tuple[str, ...]:
        return tuple(sorted({country for country, _ in self.index}))

    @cached_property
    def years(self) -> tuple[int, ...]:
        return tuple(sorted({year for _, year in self.index}))

    @property
    def n_observations(self) -> int:
        return len(self.index)

    @property
    def is_complete(self) -> bool:
        if np.isnan(self.scores).any():
            return False
        return self.n_observations == len(self.countries) * len(self.years)

    def dense(self) -> np.ndarray:
        """Scores reshaped to (n_countries, n_years, 17); complete panels only."""
        if not self.is_complete:
            raise EmptyResultError("panel has gaps; filter_complete it first")
        return self.scores.reshape(len(self.countries), len(self.years), N_GOALS)

    def row_years(self) -> np.ndarray:
        return np.array([year for _, year in self.index], dtype=int)


@dataclass(frozen=True)
class StandardizedPanel:
    """Z-scored panel plus the pooled moments used to produce it."""

    index: tuple[tuple[str, int], ...]
    z: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _parse_score(cell: str, row: int, column: str) -> float:
    text = cell.strip()
    if text.lower() in _MISSING_MARKERS:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise NonNumericScoreError(row, column, cell) from None
    if not math.isfinite(value):
        raise NonNumericScoreError(row, column, cell)
    if value < -PARSE_TOLERANCE or value > 100.0 + PARSE_TOLERANCE:
        raise ScoreRangeError(row, column, value)
    return min(max(value, 0.0), 100.0)


def _records(path: Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each data row of a CSV that must start with
    header. Blank rows are skipped; a row with the wrong cell count, an
    empty first (country) cell or a line break in it raises: every artifact
    holds one record per line. A leading UTF-8 byte-order mark, as
    spreadsheet "CSV UTF-8" exports write, is dropped."""
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            got = tuple(cell.strip().lower() for cell in next(reader))
        except StopIteration:
            raise MalformedHeaderError(f"{path}: empty file") from None
        if got != header:
            raise MalformedHeaderError(
                f"{path}: expected header {','.join(header)}, got {','.join(got)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise MalformedHeaderError(
                    f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}"
                )
            country = row[0].strip()
            if not country:
                raise MalformedHeaderError(f"{path}: row {line_no} has an empty country")
            if "\n" in country or "\r" in country:
                raise MalformedHeaderError(
                    f"{path}: row {line_no} has a line break in its country")
            yield line_no, row


def load_panel(path: str | Path) -> ScorePanel:
    """Read and validate a long-format panel CSV.

    Header must be country,year,goal01..goal17. Blank and NA-style cells
    become missing values; scores within 1e-6 of the [0, 100] bounds are
    clamped, anything further out raises. Duplicate (country, year) rows are
    rejected. Rows come back sorted by (country, year).
    """
    path = Path(path)
    rows: dict[tuple[str, int], list[float]] = {}
    for line_no, row in _records(path, PANEL_HEADER):
        country = row[0].strip()
        try:
            year = int(row[1].strip())
        except ValueError:
            raise NonNumericScoreError(line_no, "year", row[1]) from None
        key = (country, year)
        if key in rows:
            raise DuplicateObservationError(country, year)
        rows[key] = [
            _parse_score(cell, line_no, column)
            for cell, column in zip(row[2:], GOAL_COLUMNS)
        ]
    if not rows:
        raise EmptyResultError(f"{path}: no data rows")
    keys = tuple(sorted(rows))
    return ScorePanel(keys, np.array([rows[key] for key in keys], dtype=float))


def write_panel_csv(panel: ScorePanel, path: str | Path) -> None:
    """Write a panel back out in the input schema."""
    rows = artifacts.format_rows(panel.index, panel.scores)
    artifacts.write_csv(Path(path), PANEL_HEADER, rows)


def filter_complete(panel: ScorePanel) -> ScorePanel:
    """Keep only countries observed in every panel year with no missing scores.

    The year grid is the union of years present in the input. Raises
    EmptyResultError when no country survives.
    """
    complete = ~np.isnan(panel.scores).any(axis=1)
    counts = Counter(country for (country, _), ok in zip(panel.index, complete) if ok)
    # index holds each (country, year) once, so a country is kept exactly
    # when it has a complete row in every year
    mask = np.array([counts[country] == len(panel.years) for country, _ in panel.index],
                    dtype=bool)
    if not mask.any():
        raise EmptyResultError("no country has complete coverage")
    index = tuple(key for key, hit in zip(panel.index, mask) if hit)
    return ScorePanel(index, panel.scores[mask])


def goal_moments(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each goal's mean and population std over the rows of scores, and
    whether the goal is flat there (std at or below _VARIANCE_FLOOR).
    Raises EmptyResultError when a score is missing."""
    if np.isnan(scores).any():
        raise EmptyResultError("panel has missing scores; filter_complete it first")
    mean, std = scores.mean(axis=0), scores.std(axis=0)
    return mean, std, std <= _VARIANCE_FLOOR


def one_per_row(values: np.ndarray, n_rows: int) -> np.ndarray:
    """values as an array; raises ShapeMismatchError unless it holds one
    entry per panel row."""
    values = np.asarray(values)
    if values.shape != (n_rows,):
        raise ShapeMismatchError(f"shape {values.shape} for {n_rows} panel rows, need one per row")
    return values


def country_rows(index: Sequence[tuple[str, int]]) -> dict[str, list[int]]:
    """The row positions of each country in index, in year order, countries
    sorted. index may be in any order and need not cover every year."""
    rows: dict[str, list[int]] = {}
    for i in sorted(range(len(index)), key=index.__getitem__):
        rows.setdefault(index[i][0], []).append(i)
    return rows


def standardize(panel: ScorePanel) -> StandardizedPanel:
    """Z-score each goal column against moments pooled over all observations.

    Country-year rows are pooled jointly, so a single mean and spread per
    goal covers the whole panel. Population denominator. A flat goal
    column raises ZeroVarianceError.
    """
    mean, std, flat = goal_moments(panel.scores)
    if flat.any():
        raise ZeroVarianceError(GOAL_COLUMNS[int(np.argmax(flat))])
    z = (panel.scores - mean) / std
    return StandardizedPanel(
        index=panel.index,
        z=_freeze(z),
        mean=_freeze(mean),
        std=_freeze(std),
    )


def destandardize(standardized: StandardizedPanel) -> np.ndarray:
    """Invert standardize, recovering raw scores from z-scores."""
    return standardized.z * standardized.std + standardized.mean


def standardize_within_cluster(panel: ScorePanel, labels: np.ndarray) -> np.ndarray:
    """Z-score each observation against its own cluster's pooled moments.

    labels holds one integer cluster id per observation; noise (-1) forms its
    own group. A goal flat within some cluster (every goal of a one-member
    cluster) has z = 0 on that cluster's rows.
    """
    labels = one_per_row(labels, panel.n_observations)
    z = np.empty_like(panel.scores)
    for label in set(labels.tolist()):
        rows = labels == label
        mean, std, flat = goal_moments(panel.scores[rows])
        z[rows] = np.where(flat, 0.0, (panel.scores[rows] - mean) / np.where(flat, 1.0, std))
    return _freeze(z)


def yearly_goal_means(panel: ScorePanel) -> tuple[np.ndarray, np.ndarray]:
    """Per-year mean of each goal over all countries; (years, n_years x 17)."""
    dense = panel.dense()
    years = np.array(panel.years, dtype=int)
    return years, dense.mean(axis=0)


def load_gdp(path: str | Path) -> dict[str, float]:
    """Read a country,gdp_per_capita CSV; missing cells are skipped entirely."""
    path = Path(path)
    table: dict[str, float] = {}
    for line_no, row in _records(path, GDP_HEADER):
        country, cell = row[0].strip(), row[1].strip()
        if cell.lower() in _MISSING_MARKERS:
            continue
        try:
            value = float(cell)
        except ValueError:
            raise NonNumericScoreError(line_no, "gdp_per_capita", row[1]) from None
        if not math.isfinite(value) or value <= 0:
            raise ScoreRangeError(line_no, "gdp_per_capita", value)
        if country in table:
            raise DuplicateObservationError(country)
        table[country] = value
    return table


def write_gdp_csv(gdp: dict[str, float], path: str | Path) -> None:
    """Write a country -> GDP table in the load_gdp schema, countries sorted."""
    rows = [[country, artifacts.fmt(gdp[country], 2)] for country in sorted(gdp)]
    artifacts.write_csv(Path(path), GDP_HEADER, rows)
