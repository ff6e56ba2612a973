"""Pearson correlation matrices over pooled country-year observations."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from sdgpipe.dbscan import cluster_ids, final_year_labels
from sdgpipe.errors import TooFewObservationsError
from sdgpipe.panel import ScorePanel, goal_moments, one_per_row

# The fewest rows a matrix is computed from; a smaller cluster or year gets none.
MIN_OBSERVATIONS = 3


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric 17x17 Pearson matrix with the subset it was computed on."""

    values: np.ndarray
    basis: str
    n_observations: int


def _pearson(X: np.ndarray, basis: str) -> CorrelationMatrix:
    n = X.shape[0]
    if n < MIN_OBSERVATIONS:
        raise TooFewObservationsError(
            f"{basis}: {n} observation(s), need at least {MIN_OBSERVATIONS}")
    mean, _, flat = goal_moments(X)
    centered = X - mean
    sumsq = np.einsum("ng,ng->g", centered, centered, optimize=False)
    cross = np.einsum("ni,nj->ij", centered, centered, optimize=False)
    # A flat goal's z-scores are 0 (standardize_within_cluster), so it
    # correlates 0 with every other goal.
    sumsq[flat] = 1.0
    corr = cross / np.sqrt(np.outer(sumsq, sumsq))
    corr[flat] = 0.0
    corr[:, flat] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    corr.flags.writeable = False
    return CorrelationMatrix(values=corr, basis=basis, n_observations=n)


def pearson_matrix(panel: ScorePanel, rows: np.ndarray | None = None,
                   basis: str = "global") -> CorrelationMatrix:
    """Goal-by-goal Pearson correlations over the selected observations.

    rows is an optional boolean mask over panel rows; by default every
    country-year observation is pooled. Needs at least MIN_OBSERVATIONS
    rows. A goal flat over them correlates 0 with every other goal.
    """
    X = panel.scores
    if rows is not None:
        X = X[one_per_row(np.asarray(rows, dtype=bool), panel.n_observations)]
    return _pearson(np.asarray(X, dtype=float), basis)


def _per_group(panel: ScorePanel, groups: np.ndarray, ids: Iterable[int],
               kind: str) -> dict[int, CorrelationMatrix]:
    """A matrix for each id that at least MIN_OBSERVATIONS entries of groups hold."""
    result: dict[int, CorrelationMatrix] = {}
    for group in ids:
        rows = groups == group
        if rows.sum() >= MIN_OBSERVATIONS:
            result[int(group)] = pearson_matrix(panel, rows, basis=f"{kind} {group}")
    return result


def cluster_correlations(
    panel: ScorePanel, labels: np.ndarray
) -> dict[int, CorrelationMatrix]:
    """One matrix per cluster, pooling all years of that cluster's countries.

    Membership is taken from each country's final-year label; noise
    countries, and a cluster with fewer than MIN_OBSERVATIONS rows, are
    left out.
    """
    final_labels = final_year_labels(labels, list(panel.index))
    return _per_group(panel, final_labels, cluster_ids(final_labels), "cluster")


def yearly_correlations(panel: ScorePanel) -> dict[int, CorrelationMatrix]:
    """One matrix per panel year, pooling that year's countries; a year with
    fewer than MIN_OBSERVATIONS rows is left out."""
    return _per_group(panel, panel.row_years(), panel.years, "year")
