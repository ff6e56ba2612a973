import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgpipe.dynamics import (
    IDEAL_DISTANCE_MAX,
    TrajectoryFit,
    attainment_year,
    cluster_distance_distribution,
    displacement_table,
    distance_series,
    distance_to_ideal,
    fit_trajectory,
    future_root,
)
from sdgpipe.errors import (
    ShapeMismatchError,
    SingularFitError,
    TooFewMembersError,
)
from sdgpipe.panel import N_GOALS, ScorePanel


def panel_of(rows):
    """rows: list of (country, year, scores)."""
    keys = sorted((c, y) for c, y, _ in rows)
    lookup = {(c, y): s for c, y, s in rows}
    return ScorePanel(
        index=tuple(keys),
        scores=np.array([lookup[k] for k in keys], dtype=float),
    )


class TestDistance:
    def test_ideal_point_is_zero(self):
        assert distance_to_ideal(np.full(N_GOALS, 100.0)) == pytest.approx(0.0)

    def test_origin_is_max(self):
        d = distance_to_ideal(np.zeros(N_GOALS))
        assert d == pytest.approx(IDEAL_DISTANCE_MAX)
        assert IDEAL_DISTANCE_MAX == pytest.approx(math.sqrt(17))

    def test_hand_value(self):
        scores = np.full(N_GOALS, 100.0)
        scores[0] = 70.0  # gap 0.3
        scores[1] = 60.0  # gap 0.4
        assert distance_to_ideal(scores) == pytest.approx(0.5)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(12, N_GOALS))
        batch = distance_to_ideal(X)
        for row, got in zip(X, batch):
            want = math.sqrt(sum((1 - v / 100.0) ** 2 for v in row))
            assert got == pytest.approx(want, abs=1e-12)

    def test_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            distance_to_ideal(np.zeros(5))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, size=(8, N_GOALS))
        d = distance_to_ideal(X)
        assert np.all(d >= 0.0)
        assert np.all(d <= IDEAL_DISTANCE_MAX + 1e-12)

    def test_series_in_row_order(self):
        rows = [
            ("AAA", 2000, np.full(N_GOALS, 100.0)),
            ("BBB", 2000, np.zeros(N_GOALS)),
        ]
        got = distance_series(panel_of(rows))
        assert got == pytest.approx([0.0, IDEAL_DISTANCE_MAX])


class TestDistribution:
    def make_panel(self):
        rows = []
        # cluster 0: three countries near the ideal; cluster 1: two far away
        for i, base in enumerate((90.0, 92.0, 94.0)):
            rows.append((f"N{i}", 2020, np.full(N_GOALS, base)))
        for i, base in enumerate((30.0, 40.0)):
            rows.append((f"F{i}", 2020, np.full(N_GOALS, base)))
        return panel_of(rows)

    def labels_for(self, panel):
        return np.array([0 if c.startswith("F") else 1 for c, _ in panel.index])

    def test_population_std_and_mean(self):
        panel = self.make_panel()
        labels = self.labels_for(panel)
        fit = cluster_distance_distribution(panel, labels, 0, 2020)
        want = np.sqrt(N_GOALS) * np.array([0.7, 0.6])
        assert fit.mean == pytest.approx(want.mean())
        assert fit.std == pytest.approx(np.sqrt(np.mean((want - want.mean()) ** 2)))
        assert fit.n_members == 2
        assert fit.cluster == 0 and fit.year == 2020

    def test_labels_are_per_observation(self):
        # a country that switches clusters counts where its row says, per year
        rows = [
            ("AAA", 2000, np.full(N_GOALS, 90.0)),
            ("AAA", 2001, np.full(N_GOALS, 90.0)),
            ("BBB", 2000, np.full(N_GOALS, 80.0)),
            ("BBB", 2001, np.full(N_GOALS, 80.0)),
            ("CCC", 2000, np.full(N_GOALS, 70.0)),
            ("CCC", 2001, np.full(N_GOALS, 70.0)),
        ]
        panel = panel_of(rows)
        labels = np.array([0, 0, 0, 1, 1, 1])  # BBB moves 0 -> 1 in 2001
        fit_2000 = cluster_distance_distribution(panel, labels, 0, 2000)
        assert fit_2000.n_members == 2
        fit_2001 = cluster_distance_distribution(panel, labels, 1, 2001)
        assert fit_2001.n_members == 2
        with pytest.raises(TooFewMembersError):
            cluster_distance_distribution(panel, labels, 0, 2001)

    def test_too_few_members_reports_count(self):
        panel = self.make_panel()
        labels = self.labels_for(panel)
        with pytest.raises(TooFewMembersError) as err:
            cluster_distance_distribution(panel, labels, 7, 2020)
        assert "0" in str(err.value)

    def test_label_shape_check(self):
        panel = self.make_panel()
        with pytest.raises(ShapeMismatchError):
            cluster_distance_distribution(panel, np.array([0, 1]), 0, 2020)


class TestTrajectory:
    @given(
        st.floats(-5.0, 5.0),
        st.floats(-0.5, 0.5),
        st.floats(-0.01, 0.01),
        st.integers(6, 20),
    )
    @settings(max_examples=60)
    def test_exact_quadratic_recovery(self, a, b, c, n_years):
        years = range(2000, 2000 + n_years)
        curve = {y: a + b * y + c * y * y for y in years}
        fit = fit_trajectory(curve)
        scale = max(1.0, abs(a), abs(b) * 2000, abs(c) * 2000**2)
        assert fit.a == pytest.approx(a, abs=1e-6 * scale)
        assert fit.b == pytest.approx(b, abs=1e-9 * scale)
        assert fit.c == pytest.approx(c, abs=1e-12 * scale)
        assert fit.rms_residual < 1e-9 * scale

    def test_evaluate_roundtrip(self):
        curve = {y: 3.0 - 0.01 * (y - 2000) for y in range(2000, 2010)}
        fit = fit_trajectory(curve)
        years = np.array(sorted(curve))
        assert fit.evaluate(years) == pytest.approx(
            [curve[y] for y in sorted(curve)], abs=1e-9
        )
        assert fit.years_used == tuple(range(2000, 2010))

    def test_excluded_years_dropped(self):
        curve = {y: 2.0 - 0.02 * (y - 2000) for y in range(2000, 2010)}
        curve[2005] = 99.0  # shock year
        fit = fit_trajectory(curve, excluded_years=[2005])
        assert 2005 not in fit.years_used
        assert fit.rms_residual < 1e-9
        assert fit.b == pytest.approx(-0.02, abs=1e-9)

    def test_needs_four_years(self):
        curve = {2000: 1.0, 2001: 0.9, 2002: 0.8}
        with pytest.raises(SingularFitError):
            fit_trajectory(curve)
        with pytest.raises(SingularFitError):
            fit_trajectory({**curve, 2003: 0.7}, excluded_years=[2003])

    def test_noisy_fit_residual(self):
        rng = np.random.default_rng(1)
        years = range(2000, 2020)
        curve = {y: 2.0 - 0.03 * (y - 2000) + rng.normal(scale=0.01) for y in years}
        fit = fit_trajectory(curve)
        assert fit.rms_residual < 0.02
        # slope at the panel midpoint, not the raw b (which lives at year 0)
        slope_mid = fit.b + 2 * fit.c * 2010
        assert slope_mid == pytest.approx(-0.03, abs=0.01)


class TestAttainmentYear:
    def attained(self, fit, last_data_year):
        """attainment_year, checked against future_root of the same fit."""
        got = attainment_year(fit, last_data_year=last_data_year)
        root = future_root(fit, last_data_year=last_data_year)
        assert (root is None) == (got is None)
        if root is not None:
            assert root > last_data_year
            assert math.ceil(root) == got
        return got

    def linear(self, root):
        # r(t) = root - t: crosses zero exactly at `root`
        return TrajectoryFit(a=float(root), b=-1.0, c=0.0, rms_residual=0.0,
                             years_used=(2000, 2001, 2002, 2003))

    def test_linear_exact_integer_root(self):
        assert self.attained(self.linear(2030), last_data_year=2020) == 2030

    def test_linear_fractional_root_rounds_up(self):
        fit = TrajectoryFit(a=2030.2, b=-1.0, c=0.0, rms_residual=0.0,
                            years_used=(2000,))
        assert self.attained(fit, last_data_year=2020) == 2031
        assert future_root(fit, last_data_year=2020) == pytest.approx(2030.2)

    def test_quadratic_earliest_future_root(self):
        # roots at 2025 and 2040; parabola opens upward
        a, b, c = 2025.0 * 2040.0, -(2025.0 + 2040.0), 1.0
        fit = TrajectoryFit(a=a, b=b, c=c, rms_residual=0.0, years_used=(2000,))
        assert self.attained(fit, last_data_year=2020) == 2025
        # with the first root already in the past, the later one is reported
        assert self.attained(fit, last_data_year=2030) == 2040

    def test_no_real_roots(self):
        fit = TrajectoryFit(a=1.0, b=0.0, c=1.0, rms_residual=0.0, years_used=(2000,))
        assert self.attained(fit, last_data_year=2020) is None

    def test_crossings_all_in_past(self):
        fit = TrajectoryFit(a=2010.0, b=-1.0, c=0.0, rms_residual=0.0,
                            years_used=(2000,))
        assert self.attained(fit, last_data_year=2020) is None

    def test_constant_curve(self):
        fit = TrajectoryFit(a=1.0, b=0.0, c=0.0, rms_residual=0.0, years_used=(2000,))
        assert self.attained(fit, last_data_year=2020) is None

    def test_root_on_boundary_excluded(self):
        # crossing exactly at the last data year is not a future crossing
        assert self.attained(self.linear(2020), last_data_year=2020) is None

    @given(st.floats(2021.0, 2200.0))
    @settings(max_examples=50)
    def test_ceiling_convention(self, root):
        got = self.attained(self.linear(root), last_data_year=2020)
        assert got == math.ceil(root)
        assert got - root > -1e-9
        assert got - root < 1.0 or got == root


class TestDisplacement:
    def make_panel(self):
        rows = []
        for year in (2000, 2001, 2002):
            rows.append(("AAA", year, np.full(N_GOALS, 80.0 + year - 2000)))
            rows.append(("BBB", year, np.full(N_GOALS, 60.0 + year - 2000)))
            rows.append(("SWI", year, np.full(N_GOALS, 70.0)))
            rows.append(("NOI", year, np.full(N_GOALS, 20.0)))
        return panel_of(rows)

    def labels_with_switcher(self, panel):
        labels = []
        for country, year in panel.index:
            if country == "NOI":
                labels.append(-1)
            elif country == "SWI":
                labels.append(1 if year < 2002 else 0)  # ends in cluster 0
            else:
                labels.append(0)
        return np.array(labels)

    def test_final_year_membership_follows_countries(self):
        panel = self.make_panel()
        labels = self.labels_with_switcher(panel)
        table = displacement_table(panel, labels)[0]
        assert [row[0] for row in table] == [2000, 2001, 2002]
        # SWI is tracked in every year because it ends in cluster 0
        assert all(n == 3 for _, _, _, n in table)
        d = distance_series(panel)
        by = {(c, y): v for v, (c, y) in zip(d, panel.index)}
        want_2000 = np.array([by[("AAA", 2000)], by[("BBB", 2000)], by[("SWI", 2000)]])
        assert table[0][1] == pytest.approx(want_2000.mean())
        assert table[0][2] == pytest.approx(
            np.sqrt(np.mean((want_2000 - want_2000.mean()) ** 2))
        )

    def test_noise_countries_excluded(self):
        panel = self.make_panel()
        labels = self.labels_with_switcher(panel)
        tables = displacement_table(panel, labels)
        assert -1 not in tables
        table = tables[0]
        d_noise = distance_to_ideal(np.full(N_GOALS, 20.0))
        for _, mean, _, _ in table:
            assert mean < d_noise  # the far noise country never contributes

    def test_empty_cluster(self):
        # cluster 1 holds SWI before 2002 but no country in its final year,
        # so it gets no table
        panel = self.make_panel()
        labels = self.labels_with_switcher(panel)
        assert list(displacement_table(panel, labels)) == [0]

    def test_curve_matches_table(self):
        # the (year, mean) curve the dynamics stage fits: per-year mean over
        # the final-year members, every year
        panel = self.make_panel()
        labels = self.labels_with_switcher(panel)
        curve = {year: mean for year, mean, _, _ in displacement_table(panel, labels)[0]}
        members = {"AAA", "BBB", "SWI"}
        for year in (2000, 2001, 2002):
            want = [
                float(distance_to_ideal(scores))
                for (country, y), scores in zip(panel.index, panel.scores)
                if y == year and country in members
            ]
            assert curve[year] == pytest.approx(np.mean(want))

    def test_distances_shrink_as_scores_rise(self):
        panel = self.make_panel()
        labels = self.labels_with_switcher(panel)
        means = [mean for _, mean, _, _ in displacement_table(panel, labels)[0]]
        assert means[0] > means[1] > means[2]
