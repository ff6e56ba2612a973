import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdgpipe.dbscan import detect_switches, final_year_labels, final_year_membership
from sdgpipe.dynamics import cluster_distance_distribution
from sdgpipe.errors import (
    DuplicateObservationError,
    EmptyResultError,
    MalformedHeaderError,
    NonNumericScoreError,
    ScoreRangeError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from sdgpipe.panel import (
    GOAL_COLUMNS,
    N_GOALS,
    ScorePanel,
    country_rows,
    destandardize,
    filter_complete,
    load_gdp,
    load_panel,
    standardize,
    standardize_within_cluster,
    write_gdp_csv,
    write_panel_csv,
    yearly_goal_means,
)

HEADER = "country,year," + ",".join(GOAL_COLUMNS)


def make_panel(rows):
    """rows: list of (country, year, scores) in any order."""
    keys = sorted((c, y) for c, y, _ in rows)
    lookup = {(c, y): s for c, y, s in rows}
    scores = np.array([lookup[k] for k in keys], dtype=float)
    return ScorePanel(
        index=tuple(keys),
        scores=scores,
    )


def goal_row(value, **overrides):
    row = [float(value)] * N_GOALS
    for idx, v in overrides.items():
        row[int(idx)] = float(v)
    return row


def write_csv(path, lines):
    path.write_text("\n".join([HEADER, *lines]) + "\n")


def full_line(country, year, values):
    return ",".join([country, str(year), *[str(v) for v in values]])


class TestLoadPanel:
    def test_round_trip_values_and_order(self, tmp_path):
        p = tmp_path / "panel.csv"
        write_csv(p, [
            full_line("BBB", 2001, range(10, 27)),
            full_line("AAA", 2000, range(20, 37)),
            full_line("AAA", 2001, range(30, 47)),
        ])
        panel = load_panel(p)
        assert panel.index == (("AAA", 2000), ("AAA", 2001), ("BBB", 2001))
        assert panel.countries == ("AAA", "BBB")
        assert panel.years == (2000, 2001)
        assert panel.scores[0, 0] == 20.0
        assert panel.scores[2, 16] == 26.0

    def test_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("country,year,g1\nAAA,2000,1\n")
        with pytest.raises(MalformedHeaderError):
            load_panel(p)

    def test_header_case_and_spaces_accepted(self, tmp_path):
        p = tmp_path / "panel.csv"
        header = "Country, Year," + ",".join(c.upper() for c in GOAL_COLUMNS)
        p.write_text(header + "\n" + full_line("AAA", 2000, range(17)) + "\n")
        assert load_panel(p).n_observations == 1

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "panel.csv"
        values = list(range(17))
        values[3] = "wat"
        write_csv(p, [full_line("AAA", 2000, values)])
        with pytest.raises(NonNumericScoreError) as err:
            load_panel(p)
        assert err.value.row == 2
        assert err.value.column == "goal04"

    def test_bad_year(self, tmp_path):
        p = tmp_path / "panel.csv"
        write_csv(p, [full_line("AAA", "20x0", range(17))])
        with pytest.raises(NonNumericScoreError):
            load_panel(p)

    def test_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        values = list(range(17))
        values[0] = 100.1
        write_csv(p, [full_line("AAA", 2000, values)])
        with pytest.raises(ScoreRangeError,
                           match=r"^row 2, column goal01: score 100\.1 outside \[0, 100\]$"):
            load_panel(p)

    def test_infinite_score_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        values = list(range(17))
        values[2] = "inf"
        write_csv(p, [full_line("AAA", 2000, values)])
        with pytest.raises(NonNumericScoreError) as err:
            load_panel(p)
        assert (err.value.row, err.value.column, err.value.raw) == (2, "goal03", "inf")

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "panel.csv"
        blank = ",".join([" "] * 19)
        write_csv(p, ["", full_line("AAA", 2000, range(17)), blank, ",,",
                      full_line("AAA", 2001, range(17))])
        assert load_panel(p).index == (("AAA", 2000), ("AAA", 2001))

    def test_wrong_cell_count_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        write_csv(p, [full_line("AAA", 2000, range(17)), full_line("AAA", 2001, range(16))])
        message = f"{p}: row 3 has 18 cells, expected 19"
        with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
            load_panel(p)

    def test_header_without_rows_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        write_csv(p, [])
        with pytest.raises(EmptyResultError, match=f"^{re.escape(f'{p}: no data rows')}$"):
            load_panel(p)

    def test_rounding_residue_clamped(self, tmp_path):
        p = tmp_path / "panel.csv"
        values = list(range(17))
        values[0] = "100.0000005"
        values[1] = "-0.0000004"
        write_csv(p, [full_line("AAA", 2000, values)])
        panel = load_panel(p)
        assert panel.scores[0, 0] == 100.0
        assert panel.scores[0, 1] == 0.0

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        write_csv(p, [
            full_line("AAA", 2000, range(17)),
            full_line("AAA", 2000, range(17)),
        ])
        with pytest.raises(DuplicateObservationError):
            load_panel(p)

    def test_missing_markers_become_nan(self, tmp_path):
        p = tmp_path / "panel.csv"
        values = [str(v) for v in range(17)]
        values[0], values[1], values[2] = "", "NA", "nan"
        write_csv(p, [full_line("AAA", 2000, values)])
        panel = load_panel(p)
        assert np.isnan(panel.scores[0, :3]).all()
        assert panel.scores[0, 3] == 3.0

    @pytest.mark.parametrize("name", ['"A\nB"', '"A\r\nB"', '"A\rB"', '" A\n B "'],
                             ids=["lf", "crlf", "cr", "padded"])
    def test_line_break_in_country_rejected(self, tmp_path, name):
        p = tmp_path / "panel.csv"
        write_csv(p, [full_line("AAA", 2000, range(17)), full_line(name, 2000, range(17))])
        message = f"{p}: row 3 has a line break in its country"
        with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
            load_panel(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("")
        with pytest.raises(MalformedHeaderError):
            load_panel(p)

    def test_byte_order_mark_accepted(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("\ufeff" + HEADER + "\n" + full_line("AAA", 2000, range(17)) + "\n",
                     encoding="utf-8")
        assert load_panel(p).index == (("AAA", 2000),)

    def test_write_then_load_round_trip(self, tmp_path, fixture_panel):
        p = tmp_path / "rt.csv"
        write_panel_csv(fixture_panel, p)
        back = load_panel(p)
        assert back.index == fixture_panel.index
        assert np.allclose(back.scores, fixture_panel.scores, atol=5e-7)


class TestWriterGoldenBytes:
    # sha256 of write_panel_csv's output for the panel below. A change means
    # the bytes of every panel CSV the package writes changed.
    PANEL_SHA256 = "054019f4e31feff6adba0214383124ec72f6410a984d31e01224812d21ca1d15"

    def test_write_panel_csv(self, tmp_path):
        # Blank (NaN), 0 and 100 cells; values on the six-decimal rounding
        # edge, rounded down (5e-7, 12.3456785) and up (1.0000005,
        # 99.9999995); a country name that the writer must quote.
        edge = {"0": 0, "1": 100, "2": 5e-7, "3": 12.3456785, "4": 1.0000005,
                "5": 99.9999995}
        panel = make_panel([
            ("Korea, Rep.", 2001, goal_row(50.5, **edge)),
            ("Korea, Rep.", 2000, goal_row(math.nan, **{"6": 33.25})),
            ("AAA", 2000, goal_row(1 / 3)),
        ])
        p = tmp_path / "panel.csv"
        write_panel_csv(panel, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.PANEL_SHA256


class TestFilterComplete:
    def test_drops_gappy_countries(self):
        panel = make_panel([
            ("AAA", 2000, goal_row(10)),
            ("AAA", 2001, goal_row(11)),
            ("BBB", 2000, goal_row(20)),  # missing 2001
            ("CCC", 2000, goal_row(30)),
            ("CCC", 2001, goal_row(math.nan)),  # has a missing score
        ])
        kept = filter_complete(panel)
        assert kept.countries == ("AAA",)
        assert kept.years == (2000, 2001)
        assert kept.n_observations == 2
        assert kept.is_complete

    def test_empty_result(self):
        panel = make_panel([
            ("AAA", 2000, goal_row(10)),
            ("BBB", 2001, goal_row(20)),
        ])
        with pytest.raises(EmptyResultError):
            filter_complete(panel)

    def test_complete_panel_unchanged(self, fixture_panel):
        kept = filter_complete(fixture_panel)
        assert kept.index == fixture_panel.index
        assert np.array_equal(kept.scores, fixture_panel.scores)


class TestStandardize:
    def test_hand_computed_moments(self):
        # goal01 column {70,45,45,45,45}: mean 50, population sigma exactly 10,
        # so the 70 standardizes to exactly +2.
        rows = []
        for i, v in enumerate([70, 45, 45, 45, 45]):
            rows.append((f"C{i}", 2000, goal_row(10 * (i + 1), **{"0": v})))
        std = standardize(make_panel(rows))
        assert std.mean[0] == pytest.approx(50.0, abs=1e-12)
        assert std.std[0] == pytest.approx(10.0, abs=1e-12)
        row_c0 = std.index.index(("C0", 2000))
        assert std.z[row_c0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_moments_pool_years_and_countries(self):
        # goal01 values 1,2,3,4 across the country-year grid pool jointly:
        # mean 2.5, population sigma sqrt(1.25).
        rows = [
            ("AAA", 2000, goal_row(50, **{"0": 1})),
            ("AAA", 2001, goal_row(60, **{"0": 2})),
            ("BBB", 2000, goal_row(70, **{"0": 3})),
            ("BBB", 2001, goal_row(80, **{"0": 4})),
        ]
        std = standardize(make_panel(rows))
        assert std.mean[0] == pytest.approx(2.5)
        assert std.std[0] == pytest.approx(math.sqrt(1.25))
        assert std.z[0, 0] == pytest.approx((1 - 2.5) / math.sqrt(1.25))

    def test_constant_column_raises(self):
        rows = [("AAA", 2000, goal_row(50)), ("BBB", 2000, goal_row(50))]
        with pytest.raises(ZeroVarianceError):
            standardize(make_panel(rows))

    def test_incomplete_panel_rejected(self):
        rows = [("AAA", 2000, goal_row(math.nan, **{"1": 3}))]
        with pytest.raises(EmptyResultError):
            standardize(make_panel(rows))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(4, 12), st.just(N_GOALS)),
            elements=st.floats(0, 100, allow_nan=False),
        )
    )
    def test_round_trip_and_unit_moments(self, scores):
        # a per-row ramp rules out constant columns without filtering
        ramp = np.linspace(0.0, 1.0, scores.shape[0])[:, None] * (
            1.0 + np.arange(N_GOALS)
        )
        scores = scores + ramp
        assume((scores.std(axis=0) > 1e-6).all())
        rows = [(f"C{i:02d}", 2000, scores[i]) for i in range(scores.shape[0])]
        panel = make_panel(rows)
        std = standardize(panel)
        assert np.allclose(std.z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(np.sqrt((std.z**2).mean(axis=0)), 1.0, atol=1e-9)
        assert np.allclose(destandardize(std), panel.scores, atol=1e-9)


class TestStandardizeWithinCluster:
    def test_cluster_local_moments(self):
        rows = [
            ("AAA", 2000, goal_row(10, **{"0": 0})),
            ("BBB", 2000, goal_row(20, **{"0": 10})),
            ("CCC", 2000, goal_row(30, **{"0": 50})),
            ("DDD", 2000, goal_row(40, **{"0": 70})),
        ]
        panel = make_panel(rows)
        labels = np.array([0, 0, 1, 1])
        z = standardize_within_cluster(panel, labels)
        # cluster 0 on goal01: values {0,10}, mean 5, sigma 5
        assert z[0, 0] == pytest.approx(-1.0)
        assert z[1, 0] == pytest.approx(1.0)
        # cluster 1 on goal01: values {50,70}, mean 60, sigma 10
        assert z[2, 0] == pytest.approx(-1.0)
        assert z[3, 0] == pytest.approx(1.0)

    def test_noise_is_its_own_group(self):
        rows = [
            ("AAA", 2000, goal_row(10, **{"0": 0})),
            ("BBB", 2000, goal_row(20, **{"0": 10})),
            ("CCC", 2000, goal_row(30, **{"0": 40})),
            ("DDD", 2000, goal_row(40, **{"0": 60})),
        ]
        labels = np.array([-1, -1, 0, 0])
        z = standardize_within_cluster(make_panel(rows), labels)
        # noise on goal01: values {0,10}, mean 5, sigma 5
        assert z[:2, 0] == pytest.approx([-1.0, 1.0])
        assert z[2:, 0] == pytest.approx([-1.0, 1.0])

    def test_constant_within_cluster_gives_zero(self):
        rows = [
            ("AAA", 2000, goal_row(10, **{"0": 7})),
            ("BBB", 2000, goal_row(20, **{"0": 7})),
            ("CCC", 2000, goal_row(30, **{"0": 40})),
            ("DDD", 2000, goal_row(40, **{"0": 60})),
            ("EEE", 2000, goal_row(90)),
        ]
        z = standardize_within_cluster(make_panel(rows), np.array([0, 0, 1, 1, -1]))
        # goal01 is constant within cluster 0; the other goals are not
        assert z[:2, 0].tolist() == [0.0, 0.0]
        assert z[:2, 1].tolist() == [-1.0, 1.0]
        # a one-member group is constant on every goal
        assert z[4].tolist() == [0.0] * N_GOALS
        assert z[2:4, 0].tolist() == [-1.0, 1.0]

    def test_label_shape_checked(self, fixture_panel):
        with pytest.raises(ShapeMismatchError):
            standardize_within_cluster(fixture_panel, np.zeros(3, dtype=int))


# Every reader of per-row labels, each given the panel and the labels.
LABEL_READERS = {
    "final_year_membership": lambda p, labels: final_year_membership(labels, list(p.index)),
    "final_year_labels": lambda p, labels: final_year_labels(labels, list(p.index)),
    "detect_switches": lambda p, labels: detect_switches(labels, list(p.index)),
    "standardize_within_cluster": standardize_within_cluster,
    "cluster_distance_distribution":
        lambda p, labels: cluster_distance_distribution(p, labels, 0, 2000),
}


class TestOneEntryPerRow:
    @pytest.mark.parametrize("reader", sorted(LABEL_READERS))
    def test_short_labels_raise_one_message(self, fixture_panel, reader):
        n = fixture_panel.n_observations
        message = f"shape ({n - 1},) for {n} panel rows, need one per row"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            LABEL_READERS[reader](fixture_panel, np.zeros(n - 1, dtype=int))


class TestCountryRows:
    def test_rows_in_year_order_countries_sorted(self):
        # any row order, and CCC has no 2000 row
        index = [("BBB", 2001), ("AAA", 2001), ("CCC", 2001), ("BBB", 2000), ("AAA", 2000)]
        got = country_rows(index)
        assert list(got.items()) == [("AAA", [4, 1]), ("BBB", [3, 0]), ("CCC", [2])]


class TestYearlyMeans:
    def test_hand_computed(self):
        rows = [
            ("AAA", 2000, goal_row(10)),
            ("BBB", 2000, goal_row(30)),
            ("AAA", 2001, goal_row(50)),
            ("BBB", 2001, goal_row(70)),
        ]
        years, means = yearly_goal_means(make_panel(rows))
        assert years.tolist() == [2000, 2001]
        assert means[0, 0] == pytest.approx(20.0)
        assert means[1, 0] == pytest.approx(60.0)

    def test_requires_complete(self):
        rows = [("AAA", 2000, goal_row(10)), ("BBB", 2001, goal_row(20))]
        with pytest.raises(EmptyResultError):
            yearly_goal_means(make_panel(rows))


class TestGdp:
    def test_load_and_skip_missing(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,1234.5\nBBB,\nCCC,NA\nDDD,99\n")
        table = load_gdp(p)
        assert table == {"AAA": 1234.5, "DDD": 99.0}

    def test_bad_value(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,rich\n")
        with pytest.raises(NonNumericScoreError):
            load_gdp(p)

    def test_nonpositive_rejected(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,-3\n")
        with pytest.raises(ScoreRangeError):
            load_gdp(p)

    @pytest.mark.parametrize("cell, value", [("-3", "-3.0"), ("0", "0.0")])
    def test_nonpositive_message_states_the_rule(self, tmp_path, cell, value):
        p = tmp_path / "gdp.csv"
        p.write_text(f"country,gdp_per_capita\nAAA,{cell}\n")
        message = f"row 2, column gdp_per_capita: GDP per capita must be positive, got {value}"
        with pytest.raises(ScoreRangeError, match=f"^{re.escape(message)}$"):
            load_gdp(p)

    def test_infinite_gdp_reported_as_not_a_number(self, tmp_path):
        # as an infinite score is
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,5\nBBB, inf\n")
        with pytest.raises(NonNumericScoreError,
                           match=r"^row 3, column gdp_per_capita: not a number: ' inf'$"):
            load_gdp(p)

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\n\nAAA,5\n , \n,\nBBB,7.5\n")
        assert load_gdp(p) == {"AAA": 5.0, "BBB": 7.5}

    def test_duplicate_country_rejected(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,5\nBBB,6\nAAA,7\n")
        with pytest.raises(DuplicateObservationError) as err:
            load_gdp(p)
        assert err.value.country == "AAA"

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("nation,gdp\nAAA,5\n")
        with pytest.raises(MalformedHeaderError):
            load_gdp(p)

    def test_empty_country_rejected(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("country,gdp_per_capita\nAAA,5\n,1234.5\n")
        message = f"{p}: row 3 has an empty country"  # load_panel's wording
        with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
            load_gdp(p)

    def test_line_break_in_country_rejected(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text('country,gdp_per_capita\nAAA,5\n"A\nB",1234.5\n')
        message = f"{p}: row 3 has a line break in its country"
        with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
            load_gdp(p)

    def test_byte_order_mark_accepted(self, tmp_path):
        p = tmp_path / "gdp.csv"
        p.write_text("\ufeffcountry,gdp_per_capita\nAAA,5\n", encoding="utf-8")
        assert load_gdp(p) == {"AAA": 5.0}

    def test_write_round_trip(self, tmp_path):
        p = tmp_path / "gdp.csv"
        table = {"BBB": 1234.5, "AAA": 99.25, "CCC": 40000.0}
        write_gdp_csv(table, p)
        assert p.read_text().splitlines() == [
            "country,gdp_per_capita", "AAA,99.25", "BBB,1234.50", "CCC,40000.00"
        ]
        assert load_gdp(p) == table
