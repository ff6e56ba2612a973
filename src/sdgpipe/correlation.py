"""Pearson correlation matrices over pooled country-year observations."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from sdgpipe.dbscan import cluster_ids, final_year_labels
from sdgpipe.errors import TooFewObservationsError
from sdgpipe.panel import ScorePanel, goal_moments

# The fewest rows a matrix is computed from; a smaller cluster or year gets none.
MIN_OBSERVATIONS = 3


def pearson_matrix(scores: np.ndarray) -> np.ndarray:
    """Goal-by-goal Pearson correlations pooled over the rows of scores, as a
    read-only symmetric matrix with a unit diagonal.

    Needs at least MIN_OBSERVATIONS rows. A goal flat over them correlates 0
    with every other goal.
    """
    X = np.asarray(scores, dtype=float)
    n = X.shape[0]
    if n < MIN_OBSERVATIONS:
        raise TooFewObservationsError(
            f"{n} observation(s), need at least {MIN_OBSERVATIONS}")
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
    return corr


def _per_group(panel: ScorePanel, groups: np.ndarray,
               ids: Iterable[int]) -> dict[int, np.ndarray]:
    """A matrix for each id that at least MIN_OBSERVATIONS entries of groups hold."""
    result: dict[int, np.ndarray] = {}
    for group in ids:
        rows = groups == group
        if rows.sum() >= MIN_OBSERVATIONS:
            result[int(group)] = pearson_matrix(panel.scores[rows])
    return result


def cluster_correlations(panel: ScorePanel, labels: np.ndarray) -> dict[int, np.ndarray]:
    """One matrix per cluster, pooling all years of that cluster's countries.

    Membership is taken from each country's final-year label; noise
    countries, and a cluster with fewer than MIN_OBSERVATIONS rows, are
    left out.
    """
    final_labels = final_year_labels(labels, list(panel.index))
    return _per_group(panel, final_labels, cluster_ids(final_labels))


def yearly_correlations(panel: ScorePanel) -> dict[int, np.ndarray]:
    """One matrix per panel year, pooling that year's countries; a year with
    fewer than MIN_OBSERVATIONS rows is left out."""
    return _per_group(panel, panel.row_years(), panel.years)
