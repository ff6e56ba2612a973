"""Density clustering over map points, plus label utilities.

A point is core when its closed eps-ball (itself included) holds at least
min_pts points. Each cluster is grown from its seed, the lowest-index core
point not yet labelled, by adding the eps-neighbours of every core point it
has reached until no new core point joins. So id 0 goes to the cluster of
the lowest-index core point, and a border point within reach of several
clusters keeps the lowest id. Unreachable points get the noise label -1.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from sdgpipe.errors import ShapeMismatchError
from sdgpipe.panel import country_rows, one_per_row

NOISE = -1


def cluster_name(cluster_id: int) -> str:
    """How figures and the run summary name a cluster id."""
    return "noise" if cluster_id == NOISE else f"cluster {cluster_id}"


def cluster_ids(labels: np.ndarray) -> list[int]:
    """The sorted ids of the clusters that labels holds, noise left out."""
    return sorted(set(np.asarray(labels).tolist()) - {NOISE})


DEFAULT_MIN_PTS = 5


def check_settings(eps: float | None = None, min_pts: int | None = None,
                   eps_grid: tuple[float, ...] | None = None) -> None:
    """Raise ValueError for the first of the given settings that breaks its rule."""
    if eps is not None and not 0 < eps < math.inf:  # NaN fails every comparison
        raise ValueError("eps must be finite and positive")
    if min_pts is not None and min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    if eps_grid is not None and not (eps_grid and all(0 < e < math.inf for e in eps_grid)):
        raise ValueError("eps grid must be nonempty, finite and positive")


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point integer labels, noise = -1."""

    labels: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max(initial=NOISE) + 1)

    @property
    def noise_fraction(self) -> float:
        return float(np.mean(self.labels == NOISE))


@dataclass(frozen=True)
class ClusterSwitch:
    """A country whose label changes between consecutive panel years."""

    country: str
    year: int
    from_cluster: int
    to_cluster: int


def _checked_distances(points: np.ndarray, min_pts: int) -> np.ndarray:
    """Pairwise distances of a nonempty 2-d array of finite points; min_pts >= 1."""
    # Imported here so that stages computing no distance skip scipy.spatial's
    # import, which took a CLI process about 0.4 s on a 2-CPU Linux VM.
    from scipy.spatial.distance import cdist

    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-d array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    check_settings(min_pts=min_pts)
    return cdist(points, points)


def _label(dist: np.ndarray, eps: float, min_pts: int) -> ClusterLabels:
    """Cluster ids by frontier expansion from each unlabelled core seed."""
    near = dist <= eps
    core = near.sum(axis=1) >= min_pts
    labels = np.full(dist.shape[0], NOISE, dtype=int)
    cluster_id = 0
    for seed in np.flatnonzero(core):
        if labels[seed] != NOISE:
            continue
        reached = near[seed].copy()
        frontier = reached & core
        while frontier.any():
            new = near[frontier].any(axis=0) & ~reached
            reached |= new
            frontier = new & core
        # border points already claimed by a lower id keep it
        labels[reached & (labels == NOISE)] = cluster_id
        cluster_id += 1
    labels.flags.writeable = False
    return ClusterLabels(labels)


def cluster(points: np.ndarray, eps: float, min_pts: int = DEFAULT_MIN_PTS) -> ClusterLabels:
    """Label every row of points; eps and min_pts must pass check_settings."""
    check_settings(eps=eps)
    return _label(_checked_distances(points, min_pts), eps, min_pts)


def scan_eps(
    points: np.ndarray,
    eps_values: np.ndarray,
    min_pts: int = DEFAULT_MIN_PTS,
) -> list[tuple[float, int, float]]:
    """(eps, n_clusters, noise_fraction) for each eps; no winner is picked."""
    eps_values = tuple(float(e) for e in np.asarray(eps_values, dtype=float).ravel())
    check_settings(eps_grid=eps_values)
    dist = _checked_distances(points, min_pts)
    rows = []
    for eps in eps_values:
        labels = _label(dist, eps, min_pts)
        rows.append((eps, labels.n_clusters, labels.noise_fraction))
    return rows


def final_year_membership(labels: np.ndarray, index: list[tuple[str, int]]) -> dict[str, int]:
    """Each country's label in its last panel year (noise included, as -1)."""
    labels = one_per_row(labels, len(index))
    return {country: int(labels[rows[-1]]) for country, rows in country_rows(index).items()}


def final_year_labels(labels: np.ndarray, index: list[tuple[str, int]]) -> np.ndarray:
    """Each row's country's final_year_membership label, in index order."""
    membership = final_year_membership(labels, index)
    return np.array([membership[country] for country, _ in index], dtype=int)


def cluster_members(membership: Mapping[str, int]) -> dict[int, list[str]]:
    """The sorted countries of each cluster id in membership, ids sorted, so
    noise comes first."""
    members: dict[int, list[str]] = {}
    for country in sorted(membership):
        members.setdefault(membership[country], []).append(country)
    return dict(sorted(members.items()))


def detect_switches(
    labels: np.ndarray, index: list[tuple[str, int]]
) -> list[ClusterSwitch]:
    """Label changes between consecutive years, per country.

    The reported year is the first year of the new label. Countries are
    scanned in sorted order, years ascending.
    """
    labels = one_per_row(labels, len(index))
    switches = []
    for country, rows in country_rows(index).items():
        for prev_row, row in zip(rows, rows[1:]):
            prev, cur = int(labels[prev_row]), int(labels[row])
            if cur != prev:
                switches.append(ClusterSwitch(country=country, year=index[row][1],
                                              from_cluster=prev, to_cluster=cur))
    return switches


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two labelings of the same points.

    Noise labels participate as ordinary groups. Returns 1.0 when the
    pair-counting denominator vanishes (both labelings trivial and equal).
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"label arrays {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise ValueError("need at least one point")

    def comb2(x: np.ndarray) -> float:
        return float((x * (x - 1) // 2).sum())

    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    table = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(table, (a_ids, b_ids), 1)
    sum_cells = comb2(table)
    sum_rows = comb2(table.sum(axis=1))
    sum_cols = comb2(table.sum(axis=0))
    total = n * (n - 1) / 2
    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)
