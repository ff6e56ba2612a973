import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgpipe.correlation import cluster_correlations, pearson_matrix, yearly_correlations
from sdgpipe.errors import TooFewObservationsError
from sdgpipe.panel import N_GOALS, ScorePanel, standardize_within_cluster


def panel_from_scores(scores, countries_per_year=None):
    """Wrap a score matrix; rows become (C000, y0), (C000, y1), ... blocks."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if countries_per_year is None:
        index = [(f"C{i:03d}", 2020) for i in range(n)]
    else:
        index = []
        country = year = 0
        for i in range(n):
            index.append((f"C{country:03d}", 2000 + year))
            year += 1
            if year == countries_per_year:
                country, year = country + 1, 0
    index = tuple(sorted(index))
    return ScorePanel(
        index=index,
        scores=scores,
    )


def oracle_pearson(X):
    """Entrywise two-pass Pearson, one pair at a time."""
    X = np.asarray(X, dtype=float)
    m = X.shape[1]
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            xi = X[:, i] - X[:, i].mean()
            xj = X[:, j] - X[:, j].mean()
            r = (xi * xj).sum() / np.sqrt((xi**2).sum() * (xj**2).sum())
            out[i, j] = out[j, i] = r
    return out


def spread_scores(rng, n):
    """Random scores with guaranteed per-column spread."""
    base = rng.uniform(10, 90, size=(n, N_GOALS))
    base += np.linspace(0, 5, n)[:, None] * (1 + np.arange(N_GOALS)) / N_GOALS
    return base


class TestHandCases:
    def test_perfect_positive_and_negative(self):
        X = np.tile(np.array([[10.0], [20.0], [30.0]]), (1, N_GOALS))
        X[:, 1] = [30.0, 20.0, 10.0]  # goal 2 runs exactly opposite
        got = pearson_matrix(X)
        assert got[0, 2] == pytest.approx(1.0)
        assert got[0, 1] == pytest.approx(-1.0)
        assert got[1, 2] == pytest.approx(-1.0)

    def test_orthogonal_columns(self):
        X = np.full((4, N_GOALS), 50.0)
        X += np.random.default_rng(0).normal(scale=3.0, size=X.shape)
        X[:, 0] = [40.0, 60.0, 40.0, 60.0]
        X[:, 1] = [40.0, 40.0, 60.0, 60.0]
        assert pearson_matrix(X)[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        X = spread_scores(rng, 25)
        got = pearson_matrix(X)
        assert got.shape == (N_GOALS, N_GOALS)
        assert np.allclose(got, oracle_pearson(X), atol=1e-12)


class TestValidation:
    def test_too_few_observations(self):
        X = spread_scores(np.random.default_rng(6), 2)
        with pytest.raises(TooFewObservationsError):
            pearson_matrix(X)

    def test_zero_variance_column(self):
        # goal05 is flat within the first 10 rows (cluster 0), a goal already
        # met there: it correlates 0 with every other goal and 1 with itself,
        # and its within-cluster z-scores are 0
        X = spread_scores(np.random.default_rng(7), 14)
        X[:10, 4] = 55.0
        labels = np.repeat([0, 1], [10, 4])
        panel = panel_from_scores(X)
        got = cluster_correlations(panel, labels)[0]
        assert got[4].tolist() == got[:, 4].tolist() == [0.0] * 4 + [1.0] + [0.0] * 12
        others = np.delete(np.arange(N_GOALS), 4)
        want = oracle_pearson(X[:10, others])
        assert np.allclose(got[np.ix_(others, others)], want, atol=1e-12)
        z = standardize_within_cluster(panel, labels)
        assert z[:10, 4].tolist() == [0.0] * 10
        assert np.all(z[10:, 4] != 0.0)


class TestMatrixProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_symmetric_unit_diagonal_bounded(self, seed):
        rng = np.random.default_rng(seed)
        X = spread_scores(rng, int(rng.integers(3, 40)))
        got = pearson_matrix(X)
        assert np.array_equal(got, got.T)
        assert np.array_equal(np.diag(got), np.ones(N_GOALS))
        assert np.all(got >= -1.0) and np.all(got <= 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = spread_scores(rng, 15)
        scale = rng.uniform(0.5, 20.0, size=N_GOALS)
        shift = rng.uniform(-100.0, 100.0, size=N_GOALS)
        base = pearson_matrix(X)
        moved = pearson_matrix(X * scale + shift)
        assert np.allclose(base, moved, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_matches_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        X = spread_scores(rng, int(rng.integers(3, 25)))
        assert np.allclose(pearson_matrix(X), oracle_pearson(X), atol=1e-12)

    def test_values_frozen(self):
        got = pearson_matrix(spread_scores(np.random.default_rng(9), 5))
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


class TestClusterCorrelations:
    def test_final_year_membership_pools_all_years(self):
        rng = np.random.default_rng(10)
        X = spread_scores(rng, 24)  # 8 countries x 3 years
        panel = panel_from_scores(X, countries_per_year=3)
        # countries 0-3 end in cluster 0, countries 4-6 in cluster 1,
        # country 7 ends as noise; earlier years disagree on purpose
        labels = np.zeros(24, dtype=int)
        for row, (country, year) in enumerate(panel.index):
            idx = int(country[1:])
            labels[row] = 0 if idx < 4 else 1
            if idx == 7:
                labels[row] = -1 if year == 2002 else 1
            elif idx == 0 and year == 2000:
                labels[row] = 1  # early stray must not matter
        got = cluster_correlations(panel, labels)
        assert sorted(got) == [0, 1]
        in_zero = np.array([int(c[1:]) < 4 for c, _ in panel.index])
        assert np.allclose(got[0], oracle_pearson(panel.scores[in_zero]), atol=1e-12)
        # country 7 is left out entirely
        in_one = np.array([4 <= int(c[1:]) < 7 for c, _ in panel.index])
        assert np.allclose(got[1], oracle_pearson(panel.scores[in_one]), atol=1e-12)

    def test_cluster_under_three_rows_left_out(self):
        # country 2 alone ends in cluster 1: two rows, too few for a matrix
        X = spread_scores(np.random.default_rng(13), 6)
        panel = panel_from_scores(X, countries_per_year=2)
        got = cluster_correlations(panel, np.array([0, 0, 0, 0, 1, 1]))
        assert sorted(got) == [0]
        assert np.allclose(got[0], oracle_pearson(X[:4]), atol=1e-12)

    def test_all_noise_gives_empty_dict(self):
        X = spread_scores(np.random.default_rng(11), 6)
        panel = panel_from_scores(X, countries_per_year=2)
        assert cluster_correlations(panel, np.full(6, -1)) == {}


class TestYearlyCorrelations:
    def test_one_matrix_per_year(self):
        rng = np.random.default_rng(12)
        X = spread_scores(rng, 30)  # 10 countries x 3 years
        panel = panel_from_scores(X, countries_per_year=3)
        got = yearly_correlations(panel)
        assert sorted(got) == [2000, 2001, 2002]
        years = panel.row_years()
        for year, matrix in got.items():
            assert isinstance(matrix, np.ndarray)
            want = oracle_pearson(panel.scores[years == year])
            assert np.allclose(matrix, want, atol=1e-12)
