"""Pearson correlation matrices over pooled country-year observations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sdgpipe.dbscan import final_year_labels
from sdgpipe.errors import (
    ShapeMismatchError,
    TooFewObservationsError,
    ZeroVarianceError,
)
from sdgpipe.panel import _VARIANCE_FLOOR, GOAL_COLUMNS, ScorePanel


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric 17x17 Pearson matrix with the subset it was computed on."""

    values: np.ndarray
    basis: str
    n_observations: int


def _pearson(X: np.ndarray, basis: str) -> CorrelationMatrix:
    n = X.shape[0]
    if n < 3:
        raise TooFewObservationsError(f"{basis}: {n} observation(s), need at least 3")
    centered = X - X.mean(axis=0)
    sumsq = np.einsum("ng,ng->g", centered, centered, optimize=False)
    for g, s in enumerate(sumsq):
        if s <= _VARIANCE_FLOOR:
            raise ZeroVarianceError(GOAL_COLUMNS[g], group=basis)
    cross = np.einsum("ni,nj->ij", centered, centered, optimize=False)
    corr = cross / np.sqrt(np.outer(sumsq, sumsq))
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    corr.flags.writeable = False
    return CorrelationMatrix(values=corr, basis=basis, n_observations=n)


def pearson_matrix(panel: ScorePanel, rows: np.ndarray | None = None,
                   basis: str = "global") -> CorrelationMatrix:
    """Goal-by-goal Pearson correlations over the selected observations.

    rows is an optional boolean mask over panel rows; by default every
    country-year observation is pooled. Needs at least 3 rows and nonzero
    spread in every goal.
    """
    X = panel.scores
    if rows is not None:
        rows = np.asarray(rows, dtype=bool)
        if rows.shape != (panel.n_observations,):
            raise ShapeMismatchError(
                f"mask shape {rows.shape} does not match {panel.n_observations} rows"
            )
        X = X[rows]
    return _pearson(np.asarray(X, dtype=float), basis)


def cluster_correlations(
    panel: ScorePanel, labels: np.ndarray
) -> dict[int, CorrelationMatrix]:
    """One matrix per cluster, pooling all years of that cluster's countries.

    Membership is taken from each country's final-year label; noise (-1)
    countries are left out.
    """
    final_labels = final_year_labels(labels, list(panel.index))
    result: dict[int, CorrelationMatrix] = {}
    for cluster_id in sorted(c for c in set(final_labels.tolist()) if c >= 0):
        result[cluster_id] = pearson_matrix(panel, final_labels == cluster_id,
                                            basis=f"cluster {cluster_id}")
    return result


def yearly_correlations(panel: ScorePanel) -> dict[int, CorrelationMatrix]:
    """One matrix per panel year, pooling that year's countries."""
    years = panel.row_years()
    result: dict[int, CorrelationMatrix] = {}
    for year in panel.years:
        mask = years == year
        result[int(year)] = pearson_matrix(panel, mask, basis=f"year {year}")
    return result
