import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgpipe.dbscan import (
    NOISE,
    ClusterLabels,
    ClusterSwitch,
    adjusted_rand_index,
    cluster,
    cluster_members,
    detect_switches,
    final_year_labels,
    final_year_membership,
    scan_eps,
)
from sdgpipe.errors import ShapeMismatchError


def oracle_labels(points, eps, min_pts):
    """Reference labeling via boolean transitive closure, no BFS.

    Cores are points whose closed eps-ball holds >= min_pts points. Core
    components come from repeated boolean matrix squaring of the core-core
    adjacency; component ids follow the smallest core index in each
    component. A border point takes the smallest id among components whose
    cores reach it, matching the sequential seed-scan of the implementation.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    near = dist <= eps
    core = near.sum(axis=1) >= min_pts

    reach = near & core[:, None] & core[None, :]
    np.fill_diagonal(reach, core)
    while True:
        grown = reach | (reach @ reach)
        if np.array_equal(grown, reach):
            break
        reach = grown

    labels = np.full(n, NOISE, dtype=int)
    next_id = 0
    for i in range(n):
        if core[i] and labels[i] == NOISE:
            labels[reach[i]] = next_id
            next_id += 1
    for i in range(n):
        if core[i] or labels[i] != NOISE:
            continue
        touching = [labels[j] for j in range(n) if core[j] and near[i, j]]
        if touching:
            labels[i] = min(touching)
    return labels


def random_points(seed, n, dim=2):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(rng.integers(1, 5), dim))
    picks = rng.integers(0, centers.shape[0], size=n)
    return centers[picks] + rng.normal(scale=rng.uniform(0.2, 2.0), size=(n, dim))


def lattice_points(seed, n, side=6):
    """Integer points on a side x side grid; n > side**2 forces duplicates."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, side, size=(n, 2)).astype(float)


class TestHandCases:
    def test_two_line_clusters(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        got = cluster(pts, eps=1.5, min_pts=2)
        assert got.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert got.n_clusters == 2
        assert got.noise_fraction == 0.0

    def test_noise_point(self):
        pts = np.array([[0.0], [1.0], [2.0], [50.0]])
        got = cluster(pts, eps=1.5, min_pts=2)
        assert got.labels.tolist() == [0, 0, 0, NOISE]
        assert got.noise_fraction == pytest.approx(0.25)

    def test_border_tie_goes_to_lower_id(self):
        # (2, 0) touches the cores of both clusters but is core of neither
        pts = np.array(
            [
                [0.0, 0.0],
                [0.0, 1.0],
                [0.0, -1.0],
                [4.0, 0.0],
                [4.0, 1.0],
                [4.0, -1.0],
                [2.0, 0.0],
            ]
        )
        got = cluster(pts, eps=2.2, min_pts=4)
        assert got.labels.tolist() == [0, 0, 0, 1, 1, 1, 0]

    def test_closed_ball_counts_self(self):
        # min_pts=1 makes every point core, even an isolated one
        pts = np.array([[0.0], [100.0]])
        got = cluster(pts, eps=1.0, min_pts=1)
        assert got.labels.tolist() == [0, 1]

    def test_all_noise(self):
        pts = np.array([[0.0], [10.0], [20.0]])
        got = cluster(pts, eps=1.0, min_pts=2)
        assert got.labels.tolist() == [NOISE, NOISE, NOISE]
        assert got.n_clusters == 0
        assert got.noise_fraction == 1.0

    def test_ids_follow_input_order(self):
        # the block listed first seeds cluster 0 regardless of position
        right = np.array([[10.0], [10.5], [11.0]])
        left = np.array([[0.0], [0.5], [1.0]])
        got = cluster(np.vstack([right, left]), eps=1.0, min_pts=2)
        assert got.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_input_validation(self):
        pts = np.array([[0.0], [1.0]])
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                cluster(pts, eps=eps)
        with pytest.raises(ValueError):
            cluster(pts, eps=1.0, min_pts=0)
        with pytest.raises(ValueError):
            cluster(np.empty((0, 2)), eps=1.0)
        with pytest.raises(ValueError):
            cluster(np.array([0.0, 1.0]), eps=1.0)
        with pytest.raises(ValueError):
            cluster(np.array([[0.0], [np.nan]]), eps=1.0)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_exact_labels_random_mixtures(self, seed):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(8, 60))
        pts = random_points(seed, n)
        eps = float(rng.uniform(0.5, 4.0))
        min_pts = int(rng.integers(1, 6))
        got = cluster(pts, eps=eps, min_pts=min_pts)
        want = oracle_labels(pts, eps, min_pts)
        assert got.labels.tolist() == want.tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_exact_labels_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        pts = random_points(seed, n, dim=int(rng.integers(1, 4)))
        eps = float(rng.uniform(0.3, 5.0))
        min_pts = int(rng.integers(1, 7))
        got = cluster(pts, eps=eps, min_pts=min_pts)
        assert got.labels.tolist() == oracle_labels(pts, eps, min_pts).tolist()

    # Lattice neighbours sit at exactly 1, sqrt(2) and 2, so these eps hit the
    # closed-ball tie that Gaussian fixtures never do.
    @pytest.mark.parametrize("min_pts", range(1, 7))
    @pytest.mark.parametrize("eps", [1.0, np.sqrt(2.0), 2.0])
    def test_exact_labels_lattice_ties(self, eps, min_pts):
        for seed in range(6):
            pts = lattice_points(seed, n=20 + 8 * seed)
            got = cluster(pts, eps=eps, min_pts=min_pts)
            want = oracle_labels(pts, eps, min_pts)
            assert got.labels.tolist() == want.tolist(), seed


class TestPartitionProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_label_values_contiguous(self, seed):
        pts = random_points(seed, 30)
        got = cluster(pts, eps=1.5, min_pts=3)
        ids = set(got.labels.tolist())
        ids.discard(NOISE)
        assert ids == set(range(got.n_clusters))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_noise_shrinks_as_eps_grows(self, seed):
        pts = random_points(seed, 25)
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        fractions = [cluster(pts, eps=e, min_pts=3).noise_fraction for e in grid]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_partition_invariant_under_permutation(self, seed):
        pts = random_points(seed, 20)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(pts))
        base = cluster(pts, eps=1.5, min_pts=3).labels
        shuffled = cluster(pts[perm], eps=1.5, min_pts=3).labels
        # ids may differ; the grouping may not
        assert adjusted_rand_index(base[perm], shuffled) == pytest.approx(1.0)


class TestScanEps:
    def test_rows_match_individual_runs(self):
        pts = random_points(5, 40)
        grid = [0.5, 1.0, 2.0, 3.0]
        rows = scan_eps(pts, grid, min_pts=3)
        assert [r[0] for r in rows] == grid
        for eps, n_clusters, noise_frac in rows:
            single = cluster(pts, eps=eps, min_pts=3)
            assert n_clusters == single.n_clusters
            assert noise_frac == single.noise_fraction

    def test_rejects_bad_grid(self):
        pts = random_points(6, 10)
        with pytest.raises(ValueError):
            scan_eps(pts, [])
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                scan_eps(pts, [1.0, bad])

    def test_rejects_nonfinite_points(self):
        pts = random_points(7, 20)
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scan_eps(pts, [0.5, 1.0])
        with pytest.raises(ValueError, match="2-d"):
            scan_eps(np.empty((0, 2)), [1.0])

    def test_rejects_min_pts_below_one(self):
        with pytest.raises(ValueError, match="min_pts"):
            scan_eps(random_points(7, 20), [0.5, 1.0], min_pts=0)


class TestMembership:
    INDEX = [
        ("AAA", 2000),
        ("AAA", 2001),
        ("BBB", 2000),
        ("BBB", 2001),
        ("CCC", 2001),
    ]

    def test_final_year_membership(self):
        labels = np.array([0, 1, 0, 0, NOISE])
        got = final_year_membership(labels, self.INDEX)
        assert got == {"AAA": 1, "BBB": 0, "CCC": NOISE}

    def test_membership_ignores_row_order(self):
        labels = np.array([1, 0, 0, 0, NOISE])
        index = [self.INDEX[1], self.INDEX[0]] + self.INDEX[2:]
        got = final_year_membership(labels, index)
        assert got["AAA"] == 1

    def test_membership_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            final_year_membership(np.array([0, 1]), self.INDEX)

    def test_final_year_labels_spread_membership_over_rows(self):
        labels = np.array([0, 1, 0, 0, NOISE])
        got = final_year_labels(labels, self.INDEX)
        assert got.tolist() == [1, 1, 0, 0, NOISE]
        with pytest.raises(ShapeMismatchError):
            final_year_labels(np.array([0, 1]), self.INDEX)

    def test_cluster_members_noise_first_countries_sorted(self):
        got = cluster_members({"CCC": 0, "AAA": 1, "DDD": NOISE, "BBB": 0})
        assert list(got.items()) == [(NOISE, ["DDD"]), (0, ["BBB", "CCC"]), (1, ["AAA"])]


class TestSwitches:
    def test_reports_first_year_of_new_label(self):
        index = [("AAA", y) for y in (2000, 2001, 2002)] + [
            ("BBB", y) for y in (2000, 2001)
        ]
        labels = np.array([0, 0, 1, 0, 0])
        got = detect_switches(labels, index)
        assert got == [
            ClusterSwitch(country="AAA", year=2002, from_cluster=0, to_cluster=1)
        ]

    def test_sorted_by_country_then_year(self):
        index = [("BBB", 2000), ("BBB", 2001), ("AAA", 2000), ("AAA", 2001)]
        labels = np.array([0, 1, 0, NOISE])
        got = detect_switches(labels, index)
        assert [s.country for s in got] == ["AAA", "BBB"]
        assert got[0].to_cluster == NOISE

    def test_no_switches(self):
        index = [("AAA", 2000), ("AAA", 2001)]
        assert detect_switches(np.array([0, 0]), index) == []

    def test_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            detect_switches(np.array([0]), [("AAA", 2000), ("AAA", 2001)])


def oracle_ari(a, b):
    """Pairwise-agreement ARI, counted pair by pair."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    together_both = together_a = together_b = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            together_a += sa
            together_b += sb
            together_both += sa and sb
    expected = together_a * together_b / pairs
    maximum = 0.5 * (together_a + together_b)
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        a = np.array([0, 0, 1, 1, 2])
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)

    def test_known_value(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        # all cross pairs disagree; expected index equals the observed one
        assert adjusted_rand_index(a, b) == pytest.approx(oracle_ari(a, b))
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5)

    def test_relabeling_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 3, 3, 9, 9])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a = rng.integers(-1, 4, size=n)
        b = rng.integers(-1, 4, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a), abs=1e-12
        )

    def test_shape_and_empty_checks(self):
        with pytest.raises(ShapeMismatchError):
            adjusted_rand_index(np.array([0, 1]), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([]), np.array([]))


class TestClusterLabels:
    def test_properties(self):
        labels = ClusterLabels(np.array([0, 0, 1, NOISE]))
        assert labels.n_clusters == 2
        assert labels.noise_fraction == pytest.approx(0.25)

    def test_labels_frozen(self):
        got = cluster(np.array([[0.0], [0.5]]), eps=1.0, min_pts=1)
        with pytest.raises(ValueError):
            got.labels[0] = 5
