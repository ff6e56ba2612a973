import hashlib
import json
import math
import shutil
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sdgpipe import artifacts
from sdgpipe.dynamics import TrajectoryFit, attainment_year, future_root
from sdgpipe.errors import MissingArtifactError
from sdgpipe.figures import (
    EXTRAP_PANEL,
    EXTRAPOLATE_TO,
    Frame,
    NOISE_COLOR,
    _padded,
    _tick_label,
    _ticks,
    cluster_color,
    corr_color,
    emit_figures,
    fig_cluster_profiles,
    fig_correlation_heatmap,
    fig_distributions,
    fig_parallel,
    fig_pca_biplot,
    fig_pca_scatter,
    fig_trajectories,
    fig_tsne_clusters,
    year_color,
)
from sdgpipe.panel import GOAL_COLUMNS, N_GOALS
from sdgpipe.pipeline import run_stage

SVG_NS = "{http://www.w3.org/2000/svg}"

finite = st.floats(-1e6, 1e6, allow_nan=False)


def svg_root(text: str) -> ET.Element:
    return ET.fromstring(text)


def text_elements(root: ET.Element):
    return root.iter(f"{SVG_NS}text")


class TestPrimitives:
    def test_frame_linear_and_flipped(self):
        frame = Frame(0.0, 10.0, 0.0, 1.0, left=100, top=20, width=200, height=100)
        assert frame.x(0.0) == 100
        assert frame.x(10.0) == 300
        assert frame.x(5.0) == 200
        assert frame.y(0.0) == 120  # bottom of the panel
        assert frame.y(1.0) == 20
        assert frame.y(0.5) == 70

    @given(bounds=st.lists(finite, min_size=8, max_size=8),
           values=st.lists(st.one_of(finite, st.integers(-3000, 3000)), max_size=40))
    def test_frame_on_an_array_equals_scalar_calls(self, bounds, values):
        x_lo, x_hi, y_lo, y_hi = bounds[:4]
        assume(x_hi != x_lo and y_hi != y_lo)
        frame = Frame(x_lo, x_hi, y_lo, y_hi, *bounds[4:])
        array = np.array(values, dtype=float)
        with np.errstate(all="ignore"):
            for axis in (frame.x, frame.y):
                want = np.array([axis(float(v)) for v in values], dtype=float)
                got = np.asarray(axis(array), dtype=float)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_integer_frame_on_an_integer_range(self):
        # the goal axis: integer bounds and positions, as fig_parallel uses them
        frame = Frame(1, N_GOALS, -3.5, 2.25, 60, 40, 580, 370)
        goals = np.arange(1, N_GOALS + 1)
        assert frame.x(goals).tolist() == [frame.x(g) for g in range(1, N_GOALS + 1)]

    def test_tick_ladder(self):
        assert _ticks(0.0, 10.0) == pytest.approx([0, 2, 4, 6, 8, 10])
        assert _ticks(2000.0, 2022.0) == pytest.approx([2000, 2005, 2010, 2015, 2020])
        assert _ticks(0.0, 1.0) == pytest.approx([0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert _ticks(5.0, 5.0) == [5.0]

    def test_colors_are_hex(self):
        for color in (year_color(0.0), year_color(0.5), cluster_color(0),
                      cluster_color(-1), corr_color(0.3), corr_color(-0.8)):
            assert len(color) == 7 and color.startswith("#")
            int(color[1:], 16)

    def test_year_gradient_endpoints(self):
        assert year_color(0.0) == "#b2182b"
        assert year_color(1.0) == "#2166ac"
        assert year_color(-5.0) == year_color(0.0)  # clamped

    def test_noise_and_cycling_cluster_colors(self):
        assert cluster_color(-1) == NOISE_COLOR
        assert cluster_color(0) != cluster_color(1)
        assert cluster_color(0) == cluster_color(10)  # palette wraps

    def test_corr_color_poles(self):
        assert corr_color(0.0) == "#ffffff"
        assert corr_color(1.0) == "#b2182b"
        assert corr_color(-1.0) == "#2166ac"


class TestRenderedArtifacts:
    def test_all_svgs_are_wellformed_xml(self, pipeline_run):
        paths = sorted(pipeline_run.out.glob("*.svg"))
        assert len(paths) >= 9
        for path in paths:
            root = svg_root(path.read_text())
            assert root.tag == f"{SVG_NS}svg"
            assert root.get("width") and root.get("height")

    def test_reemit_is_byte_identical(self, pipeline_run, tmp_path):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        before = {p.name: p.read_bytes() for p in copied.glob("*.svg")}
        emit_figures(copied, dest=copied)
        after = {p.name: p.read_bytes() for p in copied.glob("*.svg")}
        assert before == after

    def test_missing_artifact_is_reported(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            emit_figures(tmp_path, dest=tmp_path)

    def test_tsne_figure_marks_every_observation(self, pipeline_run):
        _, rows = artifacts.read_csv(pipeline_run.out / artifacts.EMBEDDING)
        root = svg_root((pipeline_run.out / "tsne_clusters.svg").read_text())
        circles = list(root.iter(f"{SVG_NS}circle"))
        assert len(circles) >= len(rows)


def label_pixel_checks(out):
    """Yield (cluster, label x attr, independently computed pixel)."""
    payload = json.loads((out / artifacts.TRAJECTORY_FITS).read_text())
    fits = {int(k): v for k, v in payload.items()}
    years = []
    for cid in fits:
        _, rows = artifacts.read_csv(out / artifacts.trajectory_name(cid))
        years.extend(int(r[0]) for r in rows)
    first_year = min(years)
    root = svg_root((out / "trajectories.svg").read_text())
    for cid, fit in fits.items():
        if fit["attainment_year"] is None or fit["zero_crossing"] is None:
            continue
        if fit["zero_crossing"] > EXTRAPOLATE_TO:
            continue
        # find the root again with a generic solver, not the package's algebra
        candidates = np.roots([fit["c"], fit["b"], fit["a"]])
        real = [float(r.real) for r in candidates if abs(r.imag) < 1e-9]
        future = sorted(r for r in real if r > fit["last_data_year"])
        assert future, "fit payload claims a crossing the solver cannot find"
        expected_px = Frame(first_year, EXTRAPOLATE_TO, 0.0, 1.0, **EXTRAP_PANEL).x(future[0])
        color = cluster_color(cid)
        labels = [
            el
            for el in text_elements(root)
            if el.text == str(fit["attainment_year"]) and el.get("fill") == color
        ]
        assert len(labels) == 1
        yield cid, float(labels[0].get("x")), expected_px


class TestTrajectoryFigure:
    def synthetic_inputs(self):
        # two clusters with known parabolas; roots chosen off the grid
        def payload(root1, root2, last_year):
            a, b, c = root1 * root2, -(root1 + root2), 1.0
            scale = 1e-3  # keep distances in a plausible range
            zero = min(r for r in (root1, root2) if r > last_year)
            return {
                "a": a * scale, "b": b * scale, "c": c * scale,
                "rms_residual": 0.0,
                "years_used": list(range(2000, last_year + 1)),
                "last_data_year": last_year,
                "zero_crossing": zero,
                "attainment_year": math.ceil(zero),
            }

        fits = {0: payload(2043.37, 2172.0, 2019), 1: payload(2061.91, 2130.0, 2019)}
        tables = {}
        for cid, fit in fits.items():
            tables[cid] = [
                (y, fit["a"] + fit["b"] * y + fit["c"] * y * y, 0.01)
                for y in range(2000, 2020)
            ]
        return tables, fits

    def test_zero_crossing_label_within_one_pixel(self, tmp_path):
        tables, fits = self.synthetic_inputs()
        svg = fig_trajectories(tables, fits)
        out = tmp_path
        (out / "trajectories.svg").write_text(svg)
        (out / artifacts.TRAJECTORY_FITS).write_text(
            json.dumps({str(k): v for k, v in fits.items()})
        )
        for cid, fit in fits.items():
            artifacts.write_csv(
                out / artifacts.trajectory_name(cid),
                ["year", "mean", "std", "n"],
                [[str(y), f"{m:.6f}", f"{s:.6f}", "3"] for y, m, s in tables[cid]],
            )
        checks = list(label_pixel_checks(out))
        assert len(checks) == 2
        for _, got_px, want_px in checks:
            assert abs(got_px - want_px) <= 1.0

    def test_pipeline_run_labels_also_within_one_pixel(self, pipeline_run):
        # opportunistic: only meaningful when the fixture's clusters attain
        for _, got_px, want_px in label_pixel_checks(pipeline_run.out):
            assert abs(got_px - want_px) <= 1.0

    def test_every_attainment_year_is_labelled(self, pipeline_run):
        # the demo run's cluster 0 attains in 2207, past the horizon
        payload = json.loads((pipeline_run.out / artifacts.TRAJECTORY_FITS).read_text())
        years = [fit["attainment_year"] for fit in payload.values()]
        assert any(year is not None and year > EXTRAPOLATE_TO for year in years)
        root = svg_root((pipeline_run.out / "trajectories.svg").read_text())
        shown = {el.text.removesuffix(" →") for el in text_elements(root)}
        assert {str(year) for year in years if year is not None} <= shown

    def test_crossing_past_the_horizon_labelled_at_right_edge(self):
        # the labels follow the payload's crossings, not the curves
        tables, fits = self.synthetic_inputs()
        fits[0]["zero_crossing"], fits[0]["attainment_year"] = 2140.5, 2141
        fits[1]["zero_crossing"], fits[1]["attainment_year"] = 2170.5, 2171
        root = svg_root(fig_trajectories(tables, fits))
        labels = [el for el in text_elements(root) if el.text.endswith(" →")]
        assert [el.text for el in labels] == ["2141 →", "2171 →"]
        right = EXTRAP_PANEL["left"] + EXTRAP_PANEL["width"]
        assert [float(el.get("x")) for el in labels] == [right, right]
        assert float(labels[0].get("y")) > float(labels[1].get("y"))  # stacked upwards

    def test_extrapolation_frame_uses_panel_constants(self):
        # the dashed zero line spans the extrapolation panel, first year to horizon
        tables, fits = self.synthetic_inputs()
        root = svg_root(fig_trajectories(tables, fits))
        zero = [el for el in root.iter(f"{SVG_NS}line") if el.get("stroke-dasharray") == "5,4"]
        assert len(zero) == 1
        left, width = EXTRAP_PANEL["left"], EXTRAP_PANEL["width"]
        assert (float(zero[0].get("x1")), float(zero[0].get("x2"))) == (left, left + width)

    def test_2030_marker_present(self):
        tables, fits = self.synthetic_inputs()
        root = svg_root(fig_trajectories(tables, fits))
        markers = [el for el in text_elements(root) if el.text == "2030"]
        assert len(markers) == 1

    def test_unfitted_cluster_gets_hollow_points_only(self):
        tables, fits = self.synthetic_inputs()
        both = svg_root(fig_trajectories(tables, fits))
        root = svg_root(fig_trajectories(tables, {0: fits[0]}))

        def marks(root, cid):
            color = cluster_color(cid)
            circles = [el for el in root.iter(f"{SVG_NS}circle")
                       if color in (el.get("fill"), el.get("stroke"))]
            lines = [el.get("points") for el in root.iter(f"{SVG_NS}polyline")
                     if el.get("stroke") == color]
            labels = [el for el in text_elements(root) if el.get("fill") == color]
            return [el.get("fill") == "none" for el in circles], lines, labels

        hollow, lines, labels = marks(root, 0)
        assert hollow == [False] * len(tables[0])
        # the observed panel's curve is unchanged; the extrapolation follows
        assert len(lines) == 2 and lines[0] == marks(both, 0)[1][0]
        assert [el.text for el in labels] == [str(fits[0]["attainment_year"])]
        hollow, lines, labels = marks(root, 1)
        assert hollow == [True] * len(tables[1])
        assert lines == [] and labels == []

    def test_no_fit_leaves_out_the_extrapolation(self):
        tables, _ = self.synthetic_inputs()
        root = svg_root(fig_trajectories(tables, {}))
        assert list(root.iter(f"{SVG_NS}polyline")) == []
        hollow = [el for el in root.iter(f"{SVG_NS}circle") if el.get("fill") == "none"]
        assert len(hollow) == sum(len(rows) for rows in tables.values())
        assert [el.text for el in text_elements(root)][0] == "Mean distance to ideal: observed"
        assert "2030" not in [el.text for el in text_elements(root)]

    def test_extrapolation_spans_the_highest_drawn_point(self):
        # r(t) = 3 - 0.01 (t - 2050.1)^2 peaks between the samples 2050.0 and
        # 2050.25, so the panel tops out at the higher sample, below 3
        c = -0.01
        years = tuple(range(2000, 2020))
        trend = TrajectoryFit(a=3.0 + c * 2050.1 * 2050.1, b=-2.0 * c * 2050.1, c=c,
                              rms_residual=0.0, years_used=years)
        fit = {**asdict(trend), "last_data_year": 2019,
               "zero_crossing": future_root(trend, 2019),
               "attainment_year": attainment_year(trend, 2019)}
        tables = {0: [(y, 1.0 + 0.01 * (y - 2000), 0.1) for y in years]}
        highest = float(trend.evaluate(np.arange(2000.0, EXTRAPOLATE_TO + 0.125, 0.25)).max())
        assert 2.99 < highest < float(trend.evaluate(2050.1))
        frame = Frame(2000, EXTRAPOLATE_TO, *_padded(0.0, highest), **EXTRAP_PANEL)
        root = svg_root(fig_trajectories(tables, {0: fit}))
        tick_x = f"{EXTRAP_PANEL['left'] - 7:.2f}"
        drawn = [(el.text, el.get("y")) for el in text_elements(root) if el.get("x") == tick_x]
        assert drawn == [(_tick_label(tick), f"{frame.y(tick) + 3:.2f}")
                         for tick in _ticks(frame.y_lo, frame.y_hi)]

    def test_lone_year_gets_a_point(self):
        # a one-year panel's table; no fit needs fewer than 4 years
        root = svg_root(fig_trajectories({0: [(2010, 1.5, 0.25)]}, {}))
        circles = list(root.iter(f"{SVG_NS}circle"))
        assert [(el.get("cx"), el.get("fill")) for el in circles] == [("60.00", "none")]


@pytest.fixture(scope="module")
def noise_run(pipeline_run, tmp_path_factory):
    """A rerun of the back half of the pipeline where every point is noise."""
    copied = tmp_path_factory.mktemp("noise") / "out"
    shutil.copytree(pipeline_run.out, copied)
    config = replace(pipeline_run, out=copied, min_pts=1000)
    for stage in ("cluster", "correlate", "dynamics", "figures"):
        run_stage(stage, config)
    return config


class TestNoiseOnlyRun:
    def test_everything_is_noise(self, noise_run):
        _, rows = artifacts.read_csv(noise_run.out / artifacts.LABELS)
        assert {row[2] for row in rows} == {"-1"}

    def test_placeholder_trajectory_figure(self, noise_run):
        text = (noise_run.out / "trajectories.svg").read_text()
        root = svg_root(text)
        assert "no clusters found" in text
        assert root.tag == f"{SVG_NS}svg"

    def test_empty_tables_still_render(self, noise_run):
        for name in ("distributions.svg", "tsne_clusters.svg",
                     "cluster_profiles.svg"):
            svg_root((noise_run.out / name).read_text())

    def test_trajectory_fits_empty(self, noise_run):
        payload = artifacts.read_json(noise_run.out / artifacts.TRAJECTORY_FITS)
        assert payload == {}


class TestNothingToDraw:
    def test_clusters_without_fits_or_tables_are_not_called_missing(self, tmp_path):
        # "no clusters found" is kept for a labels.csv without a cluster (the
        # noise-only digests); here the placeholders name what is missing. No
        # table is what a run gets when every country is noise in its final year.
        inputs = {**golden_inputs(), "gaussian_fits": [], "tables": {},
                  "trajectory_fits": {}}
        write_golden_artifacts(tmp_path, inputs)
        emit_figures(tmp_path, dest=tmp_path)
        titles = {name: next(text_elements(svg_root((tmp_path / name).read_text()))).text
                  for name in (artifacts.DISTRIBUTIONS_SVG, artifacts.TRAJECTORIES_SVG)}
        assert titles == {
            artifacts.DISTRIBUTIONS_SVG: "Distance-to-ideal distributions: no Gaussian fits",
            artifacts.TRAJECTORIES_SVG: "Mean distance to ideal: no trajectory tables",
        }


# ---------------------------------------------------------------------------
# golden bytes: hand-built inputs, no t-SNE, every value a multiple of a power
# of two so it survives the six-decimal artifact round trip exactly

GOLDEN_YEARS = [2000, 2001, 2002, 2003, 2004, 2005]
GOLDEN_COUNTRIES = ["AAA", "BBB", "CCC", "DDD", "EEE"]


def cycle(k: int, modulus: int, step: float, shift: float) -> float:
    return shift + (k % modulus) * step


def golden_label(country: str, year: int) -> int:
    # BBB switches from cluster 0 to 1 in 2003; EEE is noise throughout
    fixed = {"AAA": 0, "CCC": 1, "DDD": 1, "EEE": -1}
    return fixed.get(country, 0 if year < 2003 else 1)


def golden_inputs(noise_only: bool = False) -> dict:
    index = [(c, y) for c in GOLDEN_COUNTRIES for y in GOLDEN_YEARS]
    meta = [[c, str(y)] for c, y in index]
    labels = [-1 if noise_only else golden_label(c, y) for c, y in index]
    trajectory_fits = {
        0: {  # linear, crosses zero in 2060: labelled; 2004 excluded
            "a": 1030.0, "b": -0.5, "c": 0.0, "rms_residual": 0.25,
            "years_used": [2000, 2001, 2002, 2003, 2005],
            "last_data_year": 2005, "zero_crossing": 2060.0, "attainment_year": 2060,
        },
        1: {  # parabola with its vertex (2050, 5) inside the panel: no crossing
            "a": 42030.0, "b": -41.0, "c": 0.01, "rms_residual": 0.5,
            "years_used": GOLDEN_YEARS,
            "last_data_year": 2005, "zero_crossing": None, "attainment_year": None,
        },
    }
    correlations = {
        "all countries": [[1.0 if i == j else cycle(i * j + i + j, 9, 0.25, -1.0)
                           for j in range(N_GOALS)] for i in range(N_GOALS)],
    }
    if not noise_only:
        correlations["cluster 0"] = [[1.0 if i == j else cycle(2 * i * j + i + j, 5, 0.5, -1.0)
                                      for j in range(N_GOALS)] for i in range(N_GOALS)]
    return {
        "years": GOLDEN_YEARS,
        "meta": meta,
        "labels": labels,
        "switchers": [] if noise_only else ["BBB"],
        "means": [[cycle(7 * i + 13 * g, 29, 1.25, 40.0) for g in range(N_GOALS)]
                  for i in range(len(GOLDEN_YEARS))],
        "proj": [[cycle(5 * i + 3, 17, 0.25, -2.0), cycle(11 * i + 7, 19, 0.25, -2.5)]
                 for i in range(len(index))],
        "ideal": [6.5, -1.25],
        "loadings": [(cycle(3 * g + 1, 7, 0.125, -0.375), cycle(5 * g + 2, 9, 0.125, -0.5))
                     for g in range(N_GOALS)],
        "embed": [[cycle(13 * i + 1, 23, 0.5, -5.0), cycle(7 * i + 4, 21, 0.5, -5.0)]
                  for i in range(len(index))],
        "profiles": [(c, y, lab, [cycle(3 * i + 5 * g, 11, 0.5, -2.5) for g in range(N_GOALS)])
                     for i, ((c, y), lab) in enumerate(zip(index, labels))],
        # heatmap subtitle -> matrix
        "correlations": correlations,
        # (cluster, year, mean, std, n); cluster 1 in 2000 has std 0
        "gaussian_fits": [] if noise_only else [
            (0, 2000, 30.0, 2.5, 2), (0, 2005, 26.25, 3.0, 2),
            (1, 2000, 22.5, 0.0, 3), (1, 2005, 20.0, 1.5, 3),
        ],
        "tables": {} if noise_only else {
            0: [(y, 30.0 - 0.5 * (y - 2000) + 0.25 * (y % 2), 1.0) for y in GOLDEN_YEARS],
            1: [(y, 30.0 - 0.75 * (y - 2000), 0.5) for y in GOLDEN_YEARS],
        },
        "trajectory_fits": {} if noise_only else trajectory_fits,
    }


# The study shape: 30 countries x 23 years, six clusters plus noise, so seven
# heatmaps, seven profile panels over three grid rows and four distribution
# panels over two.
STUDY_YEARS = list(range(2000, 2023))
STUDY_COUNTRIES = [f"C{i:02d}" for i in range(30)]
STUDY_DISTRIBUTION_YEARS = (2000, 2007, 2014, 2021)


def study_label(i: int, year: int) -> int:
    # C28 and C29 are noise; C09 moves from 3 to 0 in 2011; C14 visits 5
    # from 2016 to 2018
    if i >= 28:
        return -1
    if i == 9 and year >= 2011:
        return 0
    if i == 14 and 2016 <= year < 2019:
        return 5
    return i % 6


def study_fit(a: float, b: float, c: float, zero: float | None, excluded=()) -> dict:
    return {
        "a": a, "b": b, "c": c, "rms_residual": 0.125,
        "years_used": [y for y in STUDY_YEARS if y not in excluded],
        "last_data_year": 2022,
        "zero_crossing": zero, "attainment_year": None if zero is None else math.ceil(zero),
    }


def study_inputs() -> dict:
    index = [(c, y) for c in STUDY_COUNTRIES for y in STUDY_YEARS]
    labels = [study_label(STUDY_COUNTRIES.index(c), y) for c, y in index]
    shocks = (2020, 2021, 2022)
    correlations = {
        "all countries": [[1.0 if i == j else cycle(i * j + i + j, 9, 0.25, -1.0)
                           for j in range(N_GOALS)] for i in range(N_GOALS)],
        **{f"cluster {k}": [[1.0 if i == j else cycle((k + 1) * i * j + i + 2 * j + k, 9,
                                                      0.25, -1.0)
                             for j in range(N_GOALS)] for i in range(N_GOALS)]
           for k in range(6)},
    }
    return {
        "years": STUDY_YEARS,
        "meta": [[c, str(y)] for c, y in index],
        "labels": labels,
        "switchers": ["C09", "C14"],
        "means": [[cycle(5 * i + 11 * g, 31, 1.25, 35.0) for g in range(N_GOALS)]
                  for i in range(len(STUDY_YEARS))],
        "proj": [[cycle(5 * i + 3, 37, 0.25, -4.5), cycle(11 * i + 7, 41, 0.25, -5.0)]
                 for i in range(len(index))],
        "ideal": [9.5, -1.25],
        "loadings": [(cycle(3 * g + 2, 11, 0.125, -0.625), cycle(5 * g + 1, 13, 0.125, -0.75))
                     for g in range(N_GOALS)],
        "embed": [[cycle(13 * i + 1, 53, 0.5, -13.0), cycle(7 * i + 4, 47, 0.5, -11.5)]
                  for i in range(len(index))],
        "profiles": [(c, y, lab, [cycle(3 * i + 5 * g, 23, 0.25, -2.75) for g in range(N_GOALS)])
                     for i, ((c, y), lab) in enumerate(zip(index, labels))],
        "correlations": correlations,
        # cluster 3 in 2007 has std 0
        "gaussian_fits": [
            (k, y, 20.0 + 1.25 * k + 0.5 * (y % 7),
             0.0 if (k, y) == (3, 2007) else 0.25 * (k + 1) + 0.125 * (y % 3), 4 + k)
            for k in range(6) for y in STUDY_DISTRIBUTION_YEARS
        ],
        "tables": {k: [(y, 30.0 - 0.25 * k - 0.5 * (y - 2000) + 0.125 * (y % 3),
                        0.5 + 0.125 * k) for y in STUDY_YEARS] for k in range(6)},
        "trajectory_fits": {
            0: study_fit(1030.0, -0.5, 0.0, 2060.0, shocks),  # crossing, labelled
            1: study_fit(42030.0, -41.0, 0.01, None),  # vertex above zero: no crossing
            2: study_fit(4396.75, -4.195, 0.001, 2045.0, shocks),  # roots 2045 and 2150
            3: study_fit(21.5, -0.01, 0.0, 2150.0),  # crosses after EXTRAPOLATE_TO
            4: study_fit(-20.0, 0.02, 0.0, None, shocks),  # rising: no future zero
            5: study_fit(1038.75, -0.5, 0.0, 2077.5),  # fractional crossing
        },
    }


def heatmap_name(subtitle: str) -> str:
    if subtitle == "all countries":
        return artifacts.CORRELATION_GLOBAL
    return artifacts.correlation_cluster_name(int(subtitle.removeprefix("cluster ")))


def golden_renders(inputs: dict) -> dict[str, str]:
    """The figures emit_figures would draw from these inputs, by file name."""
    svgs = {
        "parallel.svg": fig_parallel(inputs["years"], inputs["means"]),
        "pca_scatter.svg": fig_pca_scatter(inputs["meta"], inputs["proj"], inputs["ideal"]),
        "pca_biplot.svg": fig_pca_biplot(inputs["proj"], inputs["loadings"]),
        "tsne_clusters.svg": fig_tsne_clusters(
            inputs["meta"], inputs["embed"], inputs["labels"], inputs["switchers"]),
        "cluster_profiles.svg": fig_cluster_profiles(inputs["profiles"]),
        **{artifacts.svg_name(heatmap_name(subtitle)): fig_correlation_heatmap(matrix, subtitle)
           for subtitle, matrix in inputs["correlations"].items()},
        "distributions.svg": fig_distributions(inputs["gaussian_fits"]),
    }
    if inputs["tables"]:
        svgs["trajectories.svg"] = fig_trajectories(inputs["tables"], inputs["trajectory_fits"])
    return svgs


def write_golden_artifacts(out, inputs: dict) -> None:
    """The artifact files the figures stage reads, holding the same values."""
    out.mkdir(parents=True, exist_ok=True)

    def table(name, header, rows):
        artifacts.write_csv(out / name, header,
                            [[v if isinstance(v, str) else artifacts.fmt(v) for v in row]
                             for row in rows])

    table(artifacts.YEARLY_MEANS, ["year", *GOAL_COLUMNS],
          [[str(y), *row] for y, row in zip(inputs["years"], inputs["means"])])
    # a third component the figures must ignore
    table(artifacts.PCA_PROJECTION, ["country", "year", "pc01", "pc02", "pc03"],
          [[*m, *row, 0.5] for m, row in zip(inputs["meta"], inputs["proj"])])
    table(artifacts.PCA_IDEAL, ["pc01", "pc02", "pc03"], [[*inputs["ideal"], 0.5]])
    table(artifacts.PCA_LOADINGS, ["goal", "x", "y"],
          [[g, *xy] for g, xy in zip(GOAL_COLUMNS, inputs["loadings"])])
    table(artifacts.EMBEDDING, ["country", "year", "x", "y"],
          [[*m, *row] for m, row in zip(inputs["meta"], inputs["embed"])])
    table(artifacts.LABELS, ["country", "year", "cluster"],
          [[*m, str(lab)] for m, lab in zip(inputs["meta"], inputs["labels"])])
    table(artifacts.SWITCHES, ["country", "year", "from_cluster", "to_cluster"],
          [[c, "2003", "0", "1"] for c in inputs["switchers"]])
    table(artifacts.CLUSTER_STANDARDIZED, ["country", "year", "cluster", *GOAL_COLUMNS],
          [[c, str(y), str(k), *z] for c, y, k, z in inputs["profiles"]])
    for subtitle, matrix in inputs["correlations"].items():
        table(heatmap_name(subtitle), ["goal", *GOAL_COLUMNS],
              [[g, *row] for g, row in zip(GOAL_COLUMNS, matrix)])
    table(artifacts.GAUSSIAN_FITS, ["cluster", "year", "mean", "std", "n_members"],
          [[str(k), str(y), m, s, str(n)] for k, y, m, s, n in inputs["gaussian_fits"]])
    for cid, rows in inputs["tables"].items():
        table(artifacts.trajectory_name(cid), ["year", "mean", "std", "n"],
              [[str(y), m, s, "2"] for y, m, s in rows])
    artifacts.write_json(out / artifacts.TRAJECTORY_FITS,
                         {str(k): v for k, v in inputs["trajectory_fits"].items()})


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the renderer before figures.py was rebuilt around shared
# SVG helpers; any change to these bytes is a change to the figures.
GOLDEN_DIGESTS = {
    "cluster_profiles.svg": "2875a853c3c99e6880cdbaa1c34a40d1215561717187fb44ee3c99dbb47b7c0f",
    "correlation_cluster0.svg": "f7a52377aa1cf1ba3dfd79334f43a66deccbe5e1fcc7202dee5d1e4dbb001d3c",
    "correlation_global.svg": "387d0e903c3112e2e4ce4b8576746c22dbeb032a064f33ab131fe2519b631f69",
    "distributions.svg": "5ed147d8e7d4fbcbdee58ac22f87ee320c0f54f5aa57e9fea4ef927cb05b95ad",
    "parallel.svg": "274fec99709cc558271d677efbb42581c97897000b52f55fe5cd4e6ea62079c9",
    "pca_biplot.svg": "900d321d4e476f9f09b30e8b88f307cec29b98f3e5f7e4031edce8fa5fa1d236",
    "pca_scatter.svg": "bb03bac5106e2a91d2035e485c07ae52a332dd9c7035ba8ca15bf6392d51b2ec",
    "trajectories.svg": "7f71fb5050d7f1c472197bd7baf2ef4060b358ddcc8a4a7c46c99f1568e82167",
    "tsne_clusters.svg": "378d0f7bded14302792723e13cfa6ca61da6da2bff14263fd428347118920fd6",
}
# The noise-only rerun: every label -1, no fits, the placeholder distributions
# and trajectory figures.
NOISE_DIGESTS = {
    **{name: GOLDEN_DIGESTS[name] for name in (
        "correlation_global.svg", "parallel.svg", "pca_biplot.svg", "pca_scatter.svg")},
    "cluster_profiles.svg": "b5a9443b86d94b5cd163480ab0dee77e84e36039008a89a1c1b51805b84c10fa",
    "distributions.svg": "84ecd12add1f0461418636402f3e033c17096f5328097331667d2405e39de18f",
    "trajectories.svg": "a4fe2eb56dd1496b616f3a06f4ae655dcd522594577684b4c1025cb1c3aa97ea",
    "tsne_clusters.svg": "b195cfc0f697c26d92e36d264739445bf0a2b3db34c08b2c8ad7a2a597dc23e6",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_figure_functions(self, name):
        svg = golden_renders(golden_inputs())[name]
        assert sha256_text(svg) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("noise_only", [False, True], ids=["clusters", "noise-only"])
    def test_emit_figures_from_artifacts(self, tmp_path, noise_only):
        inputs = golden_inputs(noise_only)
        write_golden_artifacts(tmp_path, inputs)
        written = emit_figures(tmp_path, dest=tmp_path)
        got = {path.name: sha256_text(path.read_text()) for path in written}
        assert got == (NOISE_DIGESTS if noise_only else GOLDEN_DIGESTS)
        if not noise_only:
            renders = golden_renders(inputs)
            assert {n: sha256_text(s) for n, s in renders.items()} == got


# Recorded from the renderer before the figures learned to format whole
# polylines and to map whole coordinate arrays at once. trajectories.svg was
# recorded again when attainment years past the horizon got their label.
STUDY_DIGESTS = {
    "cluster_profiles.svg": "fee3e50409d87a3d4f5832252d5bfd0822332002fa38af2b18589422a7a62d36",
    "correlation_cluster0.svg": "89d8ddfa8c770a34b7c7d0ddaf20ae2083e444ecc84427eb65679fa4edc73673",
    "correlation_cluster1.svg": "78b1b66a9ff3f9c7eb5e8446729795e95529e3a6802c2da1d6c50cd481d606a6",
    "correlation_cluster2.svg": "cbe3d3009c89988a410aa979b01a26edbdbf1bea06024de0fa945c3f31b58330",
    "correlation_cluster3.svg": "874afdee14eda95d48485061a8c20554c6de8826209a42116c8b8ba2bd5b71ba",
    "correlation_cluster4.svg": "882a9b235733ac82f31a2fd664f6b2c1f28b7870730c55dbea6e333b1cc3be73",
    "correlation_cluster5.svg": "320ad7b6925b89a6a416d7536b94e7a28501b84d8922572ad6f68eb584a5a5dc",
    "correlation_global.svg": "387d0e903c3112e2e4ce4b8576746c22dbeb032a064f33ab131fe2519b631f69",
    "distributions.svg": "2736f07f63c6a1be8f9b53da40aa50a2d694b36a7f36df3a8acd2a2fd998ff81",
    "parallel.svg": "a126b058db715c7a7753bc029e279c0be81ef8591163b43978201dbfc581356e",
    "pca_biplot.svg": "20d7af0519ebd55aaede16421150d5859b23ce366fcdaa5fc190dd7ca7899f90",
    "pca_scatter.svg": "021247279e331118b096bff6acc0786585eaf8ee84db464266f7f7d235f33672",
    "trajectories.svg": "8dbffd7e16d948e9ab5ce679364cd20b482f1f421828a9869c1a0ec7bbc9f48c",
    "tsne_clusters.svg": "fcf6d5df821ffde1a3e0e3ab140cd87d1abc0268ff581d525e25829ff289ed57",
}


class TestStudyShapedGoldenBytes:
    @pytest.fixture(scope="class")
    def renders(self):
        return golden_renders(study_inputs())

    @pytest.mark.parametrize("name", sorted(STUDY_DIGESTS))
    def test_figure_functions(self, renders, name):
        assert sha256_text(renders[name]) == STUDY_DIGESTS[name]

    def test_emit_figures_from_artifacts(self, tmp_path, renders):
        write_golden_artifacts(tmp_path, study_inputs())
        written = emit_figures(tmp_path, dest=tmp_path)
        got = {path.name: sha256_text(path.read_text()) for path in written}
        assert got == {name: sha256_text(svg) for name, svg in renders.items()}
        assert got == STUDY_DIGESTS
