"""Distance-to-ideal dynamics: per-cluster distributions, trends, horizons.

Each observation's distance to the ideal point (all goals at 100) is the
Euclidean norm of (1 - score/100) over the 17 goals, so it lives in
[0, sqrt(17)]. Cluster trajectories are quadratic fits of mean distance
against calendar year; extrapolating the fitted parabola to its zero gives
the projected attainment year.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from sdgpipe.dbscan import cluster_ids, final_year_labels
from sdgpipe.errors import (
    ShapeMismatchError,
    SingularFitError,
    TooFewMembersError,
)
from sdgpipe.panel import N_GOALS, ScorePanel, one_per_row

IDEAL_DISTANCE_MAX = math.sqrt(N_GOALS)

# A quadratic trend needs this many distinct fit years; from 4 on, the
# design matrix always has full rank.
MIN_FIT_YEARS = 4


def distance_to_ideal(scores: np.ndarray) -> np.ndarray:
    """Euclidean distance from 0..100 goal scores to the all-100 ideal.

    Applies along the last axis, so a single 17-vector gives a scalar array
    and an (n, 17) block gives n distances.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape[-1] != N_GOALS:
        raise ShapeMismatchError(f"last axis is {scores.shape[-1]}, expected {N_GOALS}")
    gap = 1.0 - scores / 100.0
    return np.sqrt(np.einsum("...g,...g->...", gap, gap, optimize=False))


def distance_series(panel: ScorePanel) -> np.ndarray:
    """Distance to ideal for every observation, in panel row order."""
    return distance_to_ideal(panel.scores)


@dataclass(frozen=True)
class GaussianFit:
    """Gaussian summary of one cluster's distances in one year."""

    cluster: int
    year: int
    mean: float
    std: float
    n_members: int


def cluster_distance_distribution(
    panel: ScorePanel,
    labels: np.ndarray,
    cluster_id: int,
    year: int,
) -> GaussianFit:
    """Fit a Gaussian to the distances of one cluster's members in one year.

    Membership is per observation (the label of that country-year row), so a
    country that switches clusters contributes to different clusters in
    different years. Needs at least 2 members; std uses the population
    denominator, matching a maximum-likelihood overlay.
    """
    labels = one_per_row(labels, panel.n_observations)
    mask = (labels == cluster_id) & (panel.row_years() == year)
    count = int(mask.sum())
    if count < 2:
        raise TooFewMembersError(cluster_id, year, count)
    distances = distance_to_ideal(panel.scores[mask])
    return GaussianFit(cluster=int(cluster_id), year=int(year), mean=float(distances.mean()),
                       std=float(distances.std()), n_members=count)


@dataclass(frozen=True)
class TrajectoryFit:
    """Quadratic r(t) = a + b t + c t^2 in raw calendar years."""

    a: float
    b: float
    c: float
    rms_residual: float
    years_used: tuple[int, ...]

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.a + self.b * t + self.c * t * t


def fit_trajectory(
    mean_by_year: Mapping[int, float],
    excluded_years: Iterable[int] = (),
) -> TrajectoryFit:
    """Least-squares quadratic through (year, mean distance) points.

    excluded_years are dropped before fitting (shock years typically).
    Needs at least MIN_FIT_YEARS remaining years. The solve runs in a
    centered-year basis for conditioning and the coefficients are converted
    back to raw calendar years, which is exact algebra.
    """
    excluded = set(int(y) for y in excluded_years)
    years = sorted(int(y) for y in mean_by_year if int(y) not in excluded)
    if len(years) < MIN_FIT_YEARS:
        raise SingularFitError(f"only {len(years)} usable years, need at least {MIN_FIT_YEARS}")
    t = np.array(years, dtype=float)
    r = np.array([float(mean_by_year[y]) for y in years])
    t0 = t.mean()
    tau = t - t0
    design = np.stack([np.ones_like(tau), tau, tau * tau], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, r, rcond=None)
    if rank < 3:
        raise SingularFitError("design matrix is rank deficient")
    alpha, beta, gamma = (float(v) for v in coef)
    c = gamma
    b = beta - 2.0 * gamma * t0
    a = alpha - beta * t0 + gamma * t0 * t0
    residual = design @ coef - r
    rms = float(np.sqrt(np.mean(residual**2)))
    return TrajectoryFit(a=a, b=b, c=c, rms_residual=rms, years_used=tuple(years))


def future_root(fit: TrajectoryFit, last_data_year: int) -> float | None:
    """Earliest zero of the fitted curve strictly after last_data_year.

    None when the curve never reaches zero there (complex roots, a constant
    curve, or every crossing at or before last_data_year).
    """
    a, b, c = fit.a, fit.b, fit.c
    if c == 0.0:
        roots = [] if b == 0.0 else [-a / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        sq = math.sqrt(disc)
        roots = [(-b - sq) / (2.0 * c), (-b + sq) / (2.0 * c)]
    future = [root for root in roots if root > last_data_year]
    return min(future) if future else None


def attainment_year(fit: TrajectoryFit, last_data_year: int) -> int | None:
    """First integer year at or after the fitted curve's zero crossing.

    Only roots strictly beyond last_data_year count; None when future_root
    finds none.
    """
    root = future_root(fit, last_data_year)
    return None if root is None else math.ceil(root)


def displacement_table(
    panel: ScorePanel,
    labels: np.ndarray,
) -> dict[int, list[tuple[int, float, float, int]]]:
    """(year, mean, std, n) of distance to ideal, per cluster that holds some
    country in its final year.

    Membership is frozen to each country's final-year label, so the same
    countries are followed across all years; noise countries are excluded.
    """
    final_labels = final_year_labels(labels, list(panel.index))
    distances = distance_series(panel)
    years = panel.row_years()
    tables = {}
    for cluster_id in cluster_ids(final_labels):
        rows = final_labels == cluster_id
        table = []
        for year in sorted(set(years[rows].tolist())):
            values = distances[rows & (years == year)]
            table.append((year, float(values.mean()), float(values.std()), values.size))
        tables[cluster_id] = table
    return tables
