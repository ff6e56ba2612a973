import argparse
import ast
import contextlib
import fnmatch
import hashlib
import io
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdgpipe
from sdgpipe import artifacts, dbscan, tsne
from sdgpipe.cli import _config_from_args, build_parser, main
from sdgpipe.dynamics import TrajectoryFit, future_root
from sdgpipe.errors import ConfigError, MissingArtifactError, StageError
from sdgpipe.figures import EXTRAPOLATE_TO, cluster_color
from sdgpipe.panel import GOAL_COLUMNS, ScorePanel, load_gdp, write_gdp_csv, write_panel_csv
from sdgpipe.pipeline import (
    DEFAULT_EPS_GRID,
    FIELD_PARSERS,
    FULL_RUN,
    STAGES,
    SCAN_RUN,
    PipelineConfig,
    apply_overrides,
    config_snapshot,
    load_config,
    numeric_path,
    run_pipeline,
    run_stage,
    write_manifest,
)
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

from conftest import DEMO_SETTINGS, child_env, two_blobs


def masked_manifest(path: Path) -> dict:
    """Manifest with run-specific fields (timings, out path) blanked."""
    payload = json.loads(Path(path).read_text())
    for stage in payload["stages"]:
        stage["seconds"] = None
    payload["config"]["out"] = None
    return payload


class TestConfigFile:
    def test_parse_full_file(self, tmp_path):
        text = """
        # demo settings
        panel = data/panel.csv
        out = results

        perplexity = 35.5
        iterations = 300
        eps = 2.5
        eps_grid = 1.0, 2.0, 3.0
        seed = 7
        per_year_correlations = true
        """
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(line.strip() for line in text.splitlines()))
        config = load_config(path)
        assert config.panel == Path("data/panel.csv")
        assert config.out == Path("results")
        assert config.perplexity == 35.5
        assert config.iterations == 300
        assert config.eps == 2.5
        assert config.eps_grid == (1.0, 2.0, 3.0)
        assert config.seed == 7
        assert config.per_year_correlations is True
        # untouched keys keep their defaults
        assert config.min_pts == 5
        assert config.eps_grid != DEFAULT_EPS_GRID

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        # the t-SNE schedule is fixed but for iterations, and the study design is
        # fixed, so learning_rate and the design's retired keys are unknown
        for key, value in (("bogus", 1), ("learning_rate", 20), ("pca_components", 8),
                           ("embed_dim", 3), ("exclude_years", "2020,2021"),
                           ("distribution_years", "2000"), ("extrapolate_to", 2150)):
            path.write_text(f"panel = a.csv\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=f":2: unknown key '{key}'"):
                load_config(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the first key
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffperplexity = 35.5\nseed = 2\n", encoding="utf-8")
        assert load_config(path) == PipelineConfig(perplexity=35.5, seed=2)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eps = 1.0\n\neps = 5.0\n")
        with pytest.raises(ConfigError, match=":3: eps already set on line 1"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("perplexity = fast\n")
        with pytest.raises(ConfigError, match="perplexity"):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("perplexity\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_boolean_spellings(self, tmp_path):
        for text, want in (("yes", True), ("off", False), ("1", True)):
            path = tmp_path / "b.cfg"
            path.write_text(f"per_year_correlations = {text}\n")
            assert load_config(path).per_year_correlations is want
        path.write_text("per_year_correlations = maybe\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOverrides:
    def test_none_values_skipped(self):
        base = PipelineConfig(perplexity=40.0)
        got = apply_overrides(base, perplexity=None, seed=3)
        assert got.perplexity == 40.0
        assert got.seed == 3

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), turbo=True)

    def test_no_overrides_returns_same_config(self):
        base = PipelineConfig()
        assert apply_overrides(base, seed=None) is base


def non_default_text(f) -> str:
    """Text form of a value other than the field's default."""
    if "Path" in f.type:
        return f"elsewhere/{f.name}"
    if f.type == "bool":
        return str(not f.default).lower()
    if f.type == "tuple[float, ...]":
        return "1.5,2.5"
    if "int" in f.type:
        return str(f.default + 1)
    return str((f.default or 1.0) * 1.5)


class TestSingleSource:
    def test_flag_and_config_line_agree(self, tmp_path):
        parser = build_parser()
        for f in fields(PipelineConfig):
            text = non_default_text(f)
            cfg = tmp_path / f"{f.name}.cfg"
            cfg.write_text(f"{f.name} = {text}\n")
            from_file = load_config(cfg)
            if f.name == "per_year_correlations":
                argv = ["--per-year" if text == "true" else "--no-per-year"]
            else:
                argv = ["--" + f.name.replace("_", "-"), text]
            from_flag = _config_from_args(parser.parse_args(["ingest", *argv]))
            assert from_flag == from_file, f.name
            assert getattr(from_file, f.name) != f.default, f.name
            assert replace(from_file, **{f.name: f.default}) == PipelineConfig()

    def test_readme_settings_table_matches_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n| key | flag | default |\n", 1)[1].split("\n\n", 1)[0]
        rows = []
        for line in table.splitlines()[1:]:  # past the |---| line
            key, flag, default = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            # a default is a config-file value in backticks, or "none; <what that means>"
            value = None if default.startswith("none; ") else FIELD_PARSERS[key](default)
            rows.append((key, flag, value))
        assert rows == [(f.name, f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                         f.default) for f in fields(PipelineConfig)]

    def test_snapshot_has_exactly_the_fields(self):
        config = PipelineConfig(panel=Path("p.csv"), out=Path("o"))
        snapshot = config_snapshot(config)
        assert list(snapshot) == [f.name for f in fields(PipelineConfig)]
        assert snapshot["panel"] == "p.csv" and snapshot["gdp"] is None
        assert snapshot["eps_grid"] == list(DEFAULT_EPS_GRID)
        json.dumps(snapshot)


BAD_SETTINGS = [
    dict(panel=None),
    dict(out=None),
    dict(perplexity=1.0),
    dict(eps=0.0),
    dict(eps_grid=(2.0, 0.0)),
    dict(eps_grid=(1.0, math.inf)),
    dict(perplexity=-math.inf),
    dict(iterations=0),
    dict(eps=-1.0),
    dict(min_pts=0),
    dict(eps_grid=()),
    dict(eps_grid=(1.0, -2.0)),
    dict(perplexity=math.nan),
    dict(perplexity=math.inf),
    dict(eps=math.nan),
    dict(eps=math.inf),
    dict(eps_grid=(math.nan,)),
    dict(seed=-1),
]

# The library call that takes each setting, given a value for it.
LIBRARY_CALLS = {
    "perplexity": lambda value: tsne.run(two_blobs(0), value, iterations=1),
    "iterations": lambda value: tsne.run(two_blobs(0), 10.0, iterations=value),
    "seed": lambda value: tsne.run(two_blobs(0), 10.0, iterations=1, seed=value),
    "eps": lambda value: dbscan.cluster(np.zeros((3, 2)), value),
    "min_pts": lambda value: dbscan.cluster(np.zeros((3, 2)), 1.0, value),
    "eps_grid": lambda value: dbscan.scan_eps(np.zeros((3, 2)), value),
}


class TestValidate:
    def base(self, **kw):
        defaults = dict(panel=Path("p.csv"), out=Path("o"))
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_valid(self):
        self.base().validate()

    @pytest.mark.parametrize("kw", BAD_SETTINGS)
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            self.base(**kw).validate()

    @pytest.mark.parametrize("kw", [kw for kw in BAD_SETTINGS
                                    if kw.keys() <= LIBRARY_CALLS.keys()],
                             ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_message_is_the_library_rule(self, kw):
        [(name, value)] = kw.items()
        with pytest.raises(ConfigError) as usage:
            self.base(**kw).validate()
        with pytest.raises(ValueError) as library:
            LIBRARY_CALLS[name](value)
        assert str(usage.value) == str(library.value)

    def test_holds_no_rule_of_its_own(self):
        # beyond the required paths, validate only calls the library's rules
        tree = ast.parse(textwrap.dedent(inspect.getsource(PipelineConfig.validate)))
        compared = {type(op) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                    for op in node.ops}
        assert compared <= {ast.Is, ast.IsNot}

    def test_defaults_come_from_the_stages(self):
        assert PipelineConfig().iterations == tsne.ITERATIONS
        assert PipelineConfig().min_pts == dbscan.DEFAULT_MIN_PTS


class TestFullRunArtifacts:
    def test_expected_files_exist(self, pipeline_run):
        # the fixture run has --gdp, so it writes every fixed name of its stages
        out = pipeline_run.out
        always = [name for stage in FULL_RUN for name in STAGES[stage].writes if "*" not in name]
        for name in [*always, artifacts.MANIFEST]:
            assert (out / name).exists(), name

    def test_no_temporary_files_left(self, pipeline_run):
        leftovers = [p.name for p in pipeline_run.out.iterdir()
                     if p.name.startswith(".") or p.name.endswith(".tmp")]
        assert leftovers == []

    def test_per_cluster_files_cover_every_cluster(self, pipeline_run):
        out = pipeline_run.out
        _, rows = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
        ids = sorted({int(c) for _, c in rows if int(c) >= 0})
        assert ids, "fixture run found no clusters"
        for cluster_id in ids:
            assert (out / artifacts.correlation_cluster_name(cluster_id)).exists()
            assert (out / artifacts.trajectory_name(cluster_id)).exists()
        fits = artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
        assert sorted(int(k) for k in fits) == ids

    def test_fit_entries_hold_only_the_fit(self, pipeline_run):
        fits = artifacts.read_json(pipeline_run.out / artifacts.TRAJECTORY_FITS)
        assert fits
        for payload in fits.values():
            assert sorted(payload) == sorted([
                "a", "b", "c", "rms_residual", "years_used", "last_data_year",
                "zero_crossing", "attainment_year"])

    def test_zero_crossing_is_future_root(self, pipeline_run):
        fits = artifacts.read_json(pipeline_run.out / artifacts.TRAJECTORY_FITS)
        assert fits
        for payload in fits.values():
            fit = TrajectoryFit(
                a=payload["a"], b=payload["b"], c=payload["c"],
                rms_residual=payload["rms_residual"],
                years_used=tuple(payload["years_used"]),
            )
            root = future_root(fit, payload["last_data_year"])
            assert payload["zero_crossing"] == root

    def test_labels_align_with_panel(self, pipeline_run):
        out = pipeline_run.out
        _, panel_rows = artifacts.read_csv(out / artifacts.PANEL_FILTERED)
        _, label_rows = artifacts.read_csv(out / artifacts.LABELS)
        assert [r[:2] for r in panel_rows] == [r[:2] for r in label_rows]

    def test_manifest_structure(self, pipeline_run):
        out = pipeline_run.out
        payload = json.loads((out / artifacts.MANIFEST).read_text())
        assert set(payload) == {"config", "environment", "inputs", "stages", "outputs"}
        environment = {"python", "numpy", "scipy", "platform", "numeric_path"}
        if "NPY_DISABLE_CPU_FEATURES" in os.environ:
            environment.add("NPY_DISABLE_CPU_FEATURES")
        assert set(payload["environment"]) == environment
        assert payload["environment"]["python"] == platform.python_version()
        assert payload["environment"]["numpy"] == np.__version__
        assert payload["environment"]["numeric_path"] == numeric_path()
        assert [s["name"] for s in payload["stages"]] == list(FULL_RUN)
        assert payload["config"]["perplexity"] == DEMO_SETTINGS["perplexity"]
        assert payload["inputs"]["panel"]["sha256"] == artifacts.sha256_of(
            pipeline_run.panel
        )
        for name, digest in payload["outputs"].items():
            assert name != artifacts.MANIFEST  # it cannot checksum itself
            assert artifacts.sha256_of(out / name) == digest

    def test_manifest_records_disabled_cpu_features(self, demo_config, tmp_path, monkeypatch):
        # numpy reads the variable at import, so setting it here changes only the manifest
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "X86_V4")
        path = write_manifest(replace(demo_config, out=tmp_path), [], [])
        environment = json.loads(path.read_text())["environment"]
        assert environment["NPY_DISABLE_CPU_FEATURES"] == "X86_V4"

    def test_correlation_artifact_shape(self, pipeline_run):
        header, rows = artifacts.read_csv(
            pipeline_run.out / artifacts.CORRELATION_GLOBAL
        )
        assert header == ["goal", *GOAL_COLUMNS]
        assert len(rows) == len(GOAL_COLUMNS)
        for i, row in enumerate(rows):
            assert row[0] == GOAL_COLUMNS[i]
            assert row[i + 1] == "+1.0000"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline_run, tmp_path):
        again = replace(pipeline_run, out=tmp_path / "again")
        run_pipeline(again)
        first = json.loads((pipeline_run.out / artifacts.MANIFEST).read_text())
        second = json.loads((again.out / artifacts.MANIFEST).read_text())
        # checksums cover every artifact; equality means identical bytes
        assert first["outputs"] == second["outputs"]
        assert masked_manifest(
            pipeline_run.out / artifacts.MANIFEST
        ) == masked_manifest(again.out / artifacts.MANIFEST)

    def test_staged_run_matches_all(self, pipeline_run, tmp_path):
        staged = replace(pipeline_run, out=tmp_path / "staged")
        for name in FULL_RUN:
            run_stage(name, staged)
        want = json.loads((pipeline_run.out / artifacts.MANIFEST).read_text())
        for name, digest in want["outputs"].items():
            assert artifacts.sha256_of(staged.out / name) == digest, name

    def test_seed_changes_embedding(self, pipeline_run, tmp_path):
        reseeded = replace(pipeline_run, out=tmp_path / "reseeded", seed=1)
        run_stage("ingest", reseeded)
        run_stage("pca", reseeded)
        run_stage("tsne", reseeded)
        original = (pipeline_run.out / artifacts.EMBEDDING).read_bytes()
        assert (reseeded.out / artifacts.EMBEDDING).read_bytes() != original


def copy_run(pipeline_run, destination) -> PipelineConfig:
    shutil.copytree(pipeline_run.out, destination)
    return replace(pipeline_run, out=destination)


@pytest.fixture(scope="module")
def late_runs(demo_config, tmp_path_factory):
    """last_year -> a run, through correlate, of the fixture's scores dated to
    end in last_year, at or past the figures' extrapolation horizon; built
    once each."""
    runs = {}

    def run(last_year: int) -> PipelineConfig:
        if last_year not in runs:
            base = tmp_path_factory.mktemp(f"ends{last_year}")
            write_panel_csv(synthetic_panel(years=tuple(range(last_year - 22, last_year + 1))),
                            base / "panel.csv")
            config = replace(demo_config, panel=base / "panel.csv", out=base / "out", gdp=None)
            for stage in ("ingest", "pca", "tsne", "cluster", "correlate"):
                run_stage(stage, config)
            runs[last_year] = config
        return runs[last_year]

    return run


def assert_observed_trajectories(out: Path) -> None:
    """trajectories.svg of a run whose panel reaches the horizon: fits, but
    only the observed panel, with every table's points."""
    assert artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
    root = ET.fromstring((out / artifacts.TRAJECTORIES_SVG).read_text())
    svg = "{http://www.w3.org/2000/svg}"
    texts = [el.text for el in root.iter(f"{svg}text")]
    assert texts[0] == "Mean distance to ideal: observed"
    assert "2030" not in texts
    circles = [el.get("fill") if el.get("fill") != "none" else el.get("stroke")
               for el in root.iter(f"{svg}circle")]
    tables = artifacts.numbered_files(out, artifacts.trajectory_name)
    assert tables
    for cluster_id, path in tables.items():
        _, rows = artifacts.read_csv(path)
        assert circles.count(cluster_color(cluster_id)) == len(rows) > 0


class TestFailureHandling:
    def test_unknown_stage(self, demo_config):
        with pytest.raises(ConfigError):
            run_stage("polish", demo_config)

    def test_cluster_requires_eps(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        config = replace(config, eps=None)
        with pytest.raises(StageError, match="cluster"):
            run_stage("cluster", config)

    def test_stage_error_names_stage_and_cause(self, demo_config, tmp_path):
        config = replace(demo_config, out=tmp_path / "fresh")
        with pytest.raises(StageError, match="pca"):
            run_stage("pca", config)  # nothing ingested yet

    def test_failed_stage_keeps_previous_outputs(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        names = [artifacts.LABELS, artifacts.SWITCHES, artifacts.CLUSTER_COUNTRIES,
                 artifacts.CLUSTER_STANDARDIZED, artifacts.CLUSTER_GDP]
        before = {name: (config.out / name).read_bytes() for name in names}
        config = replace(config, gdp=tmp_path / "missing_gdp.csv")
        with pytest.raises(StageError, match="cluster"):
            run_stage("cluster", config)  # fails after writing the labels
        # the failed rerun commits nothing, so the previous run's files stay
        assert {name: (config.out / name).read_bytes() for name in names} == before
        assert [p.name for p in config.out.iterdir() if p.name.startswith(".")] == []

    def test_misaligned_labels_detected(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        path = config.out / artifacts.LABELS
        header, rows = artifacts.read_csv(path)
        rows[0], rows[1] = rows[1], rows[0]
        artifacts.write_csv(path, header, rows)
        with pytest.raises(StageError, match="correlate"):
            run_stage("correlate", config)

    def test_scan_eps_needs_embedding(self, demo_config, tmp_path):
        config = replace(demo_config, out=tmp_path / "fresh")
        with pytest.raises(StageError, match="scan-eps"):
            run_stage("scan-eps", config)

    @pytest.mark.parametrize("stage", ["cluster", "correlate", "dynamics"])
    def test_panel_artifact_header_checked(self, pipeline_run, tmp_path, stage):
        config = copy_run(pipeline_run, tmp_path / "copy")
        path = config.out / artifacts.PANEL_FILTERED
        header, rows = artifacts.read_csv(path)
        artifacts.write_csv(path, ["nation", *header[1:]], rows)
        with pytest.raises(StageError, match=f"{stage}.*expected header country,year,goal01"):
            run_stage(stage, config)

    # Each case is a horizon placed against a 2000-2022 panel, at or before
    # its last year; the panel is dated later by EXTRAPOLATE_TO - horizon so
    # the fixed horizon falls at the same place in it. The extrapolation
    # panel needs the horizon to follow the data; a panel that reaches it
    # is no failure, and its figure shows the observed panel only.
    @pytest.mark.parametrize("horizon", [1990, 2000, 2010, 2022])
    def test_extrapolate_to_must_follow_the_data(self, late_runs, horizon):
        config = late_runs(2022 + EXTRAPOLATE_TO - horizon)
        run_stage("dynamics", config)
        run_stage("figures", config)
        assert_observed_trajectories(config.out)


class TestNumberedFiles:
    def test_inverse_of_the_name_functions(self, tmp_path):
        for name in (artifacts.trajectory_name(2), artifacts.trajectory_name(10),
                     artifacts.trajectory_name(0), artifacts.correlation_cluster_name(3),
                     "trajectory_cluster01.csv", "trajectory_cluster-1.csv",
                     "trajectory_clusterx.csv"):
            (tmp_path / name).write_text("")
        found = artifacts.numbered_files(tmp_path, artifacts.trajectory_name)
        # keyed by id, in name order; only names the function builds count
        assert list(found.items()) == [
            (k, tmp_path / artifacts.trajectory_name(k)) for k in (0, 10, 2)]
        assert artifacts.numbered_files(tmp_path, artifacts.correlation_year_name) == {}


class TestReadMatrix:
    def test_leading_cells_kept_rest_parsed(self, tmp_path):
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, ["country", "year", "x", "y"],
                            [["AAA", "2000", "1.500000", "-2.000000"],
                             ["BBB", "2001", "0.250000", "3.000000"]])
        meta, data = artifacts.read_matrix(path, 2)
        assert meta == [["AAA", "2000"], ["BBB", "2001"]]
        assert data.tolist() == [[1.5, -2.0], [0.25, 3.0]]

    def test_header_only_gives_zero_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, ["cluster", "year", "mean", "std", "n"], [])
        meta, data = artifacts.read_matrix(path, 2)
        assert meta == [] and data.shape == (0, 3)

    def test_absent_or_empty_file_is_missing(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            artifacts.read_matrix(tmp_path / "absent.csv", 1)
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(MissingArtifactError):
            artifacts.read_matrix(tmp_path / "empty.csv", 1)

    @pytest.mark.parametrize("name", ["Korea, Rep.", 'The "Bahamas"', "Côte d'Ivoire",
                                      "#hash", '"quoted", and #"', "A\x0bB\x1cC\u2028D"],
                             ids=["comma", "doubled-quote", "non-ascii", "hash", "mixed",
                                  "splitlines-breaks"])
    def test_leading_cells_round_trip(self, tmp_path, name):
        path = tmp_path / "table.csv"
        rows = [[name, "2000", "1.500000", "-2.000000"], ["AAA", "2001", "0.250000", "3.0"],
                [name, "2002", "-0.000000", "1e300"]]
        artifacts.write_csv(path, ["country", "year", "x", "y"], rows)
        meta, data = artifacts.read_matrix(path, 2)
        assert meta == [row[:2] for row in rows]
        assert data.tolist() == [[1.5, -2.0], [0.25, 3.0], [-0.0, 1e300]]
        assert math.copysign(1.0, data[2, 0]) == -1.0

    @pytest.mark.parametrize("meta_columns", [0, 1, 2, 3])
    @pytest.mark.parametrize("rows", [[["1", "2", "3"]], [["1", "2", "3"], ["4", "5", "6"]]],
                             ids=["one-row", "two-rows"])
    def test_any_split_of_leading_and_numeric_columns(self, tmp_path, meta_columns, rows):
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, ["a", "b", "c"], rows)
        meta, data = artifacts.read_matrix(path, meta_columns, header=["a", "b", "c"])
        assert meta == [row[:meta_columns] for row in rows]
        assert data.shape == (len(rows), 3 - meta_columns)
        assert data.tolist() == [[float(cell) for cell in row[meta_columns:]] for row in rows]

    @pytest.mark.parametrize("line,message", [
        ("BBB,2001,0.5", "row 3 has 3 cells, expected 4"),
        ("BBB,2001,0.5,1.0,2.0", "row 3 has 5 cells, expected 4"),
        ('"B,B",2001,0.5', "row 3 has 3 cells, expected 4"),
        ("BBB,2001,,1.0", "row 3, column 3: could not convert string '' to float64"),
        ("BBB,2001,0.5,wat", "row 3, column 4: could not convert string 'wat' to float64"),
        ("", "row 3 is blank"),
    ], ids=["short", "long", "short-quoted", "blank-cell", "non-numeric", "blank-line"])
    def test_malformed_row_names_file_and_row(self, tmp_path, line, message):
        path = tmp_path / "table.csv"
        path.write_text(f"country,year,x,y\nAAA,2000,1.0,2.0\n{line}\nCCC,2002,3.0,4.0\n")
        with pytest.raises(ValueError, match=f"^table.csv: {re.escape(message)}"):
            artifacts.read_matrix(path, 2)


# Cells chosen where a formatter could go wrong: signed zero, values that
# round to a signed zero, exact binary halves at the last kept digit (round
# half to even), infinities and the extremes of the float range.
EDGE_FLOATS = [0.0, -0.0, -1e-9, 1e-9, -4e-5, 0.125, -0.125, 0.0078125, -0.0078125,
               0.03125, -0.03125, 2.5e-7, 1e300, -1e300, 5e-324, math.inf, -math.inf]
cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
NAN = math.nan


def cell_rows(min_columns: int = 1):
    """Rows of one width, with NaN cells mixed in by hypothesis."""
    return st.integers(min_columns, 6).flatmap(lambda width: st.lists(
        st.lists(st.one_of(cells, st.just(NAN)), min_size=width, max_size=width),
        max_size=5))


class TestBulkFormatOracle:
    """format_rows, read_matrix and their per-cell references agree exactly."""

    ORACLES = [(artifacts.fmt, artifacts.CELL), (artifacts.fmt_signed, artifacts.SIGNED_CELL)]

    @staticmethod
    def reference(meta, rows, fmt):
        return [[*m, *("" if math.isnan(v) else fmt(v) for v in row)]
                for m, row in zip(meta, rows)]

    @pytest.mark.parametrize("fmt,cell", ORACLES, ids=["fmt", "fmt_signed"])
    @given(rows=cell_rows())
    @settings(max_examples=150)
    def test_format_rows_matches_per_cell(self, fmt, cell, rows):
        meta = [("AAA", i) for i in range(len(rows))]
        got = artifacts.format_rows(meta, np.array(rows, dtype=float), cell)
        assert got == self.reference(meta, rows, fmt)

    @pytest.mark.parametrize("fmt,cell", ORACLES, ids=["fmt", "fmt_signed"])
    def test_format_rows_nan_positions(self, fmt, cell):
        rows = [[NAN, 1.5, -0.0], [0.125, NAN, -1e-9], [-0.0078125, 2.0, NAN],
                [NAN, NAN, NAN], EDGE_FLOATS[:3]]
        got = artifacts.format_rows(zip("abcde"), rows, cell)
        want = self.reference(zip("abcde"), rows, fmt)
        assert got == want
        assert got[3] == ["d", "", "", ""]
        assert artifacts.format_rows(zip("ab"), [[NAN], [NAN]], cell) == [["a", ""], ["b", ""]]

    def test_format_rows_takes_iterables_and_no_meta(self):
        # zips of arrays, a single row without leading cells, int leading cells
        mean, std = np.array([1.0, -2.5]), np.array([0.25, 3.0])
        assert artifacts.format_rows(zip(["g1", "g2"]), zip(mean, std)) == [
            ["g1", "1.000000", "0.250000"], ["g2", "-2.500000", "3.000000"]]
        assert artifacts.format_rows([()], [np.array([0.5, -0.0])]) == [
            ["0.500000", "-0.000000"]]
        assert artifacts.format_rows([], np.zeros((0, 3))) == []

    @given(rows=cell_rows())
    @settings(max_examples=150)
    def test_read_matrix_matches_per_cell_float(self, tmp_path_factory, rows):
        rows = [[0.0 if math.isnan(v) else v for v in row] for row in rows]
        width = len(rows[0]) if rows else 2
        path = tmp_path_factory.mktemp("matrix") / "table.csv"
        artifacts.write_csv(path, ["country", "year", *(f"v{j}" for j in range(width))],
                            artifacts.format_rows([("AAA", 2000)] * len(rows), rows))
        _, text_rows = artifacts.read_csv(path)
        want = np.array([[float(cell) for cell in row[2:]] for row in text_rows],
                        dtype=float).reshape(len(rows), width)
        meta, got = artifacts.read_matrix(path, 2)
        assert meta == [["AAA", "2000"]] * len(rows)
        assert got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestStaleOutputs:
    def test_per_year_heatmaps_come_and_go_with_the_flag(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        out = config.out
        before = {p.name: p.read_bytes() for p in out.glob("*.svg")}
        per_year = replace(config, per_year_correlations=True)
        for stage in ("correlate", "figures"):
            run_stage(stage, per_year)
        _, rows = artifacts.read_csv(out / artifacts.PANEL_FILTERED)
        years = sorted({int(row[1]) for row in rows})
        year_svgs = {artifacts.svg_name(artifacts.correlation_year_name(y)) for y in years}
        svgs = {p.name: p.read_bytes() for p in out.glob("*.svg")}
        assert set(svgs) == set(before) | year_svgs
        assert {name: svgs[name] for name in before} == before
        first = artifacts.svg_name(artifacts.correlation_year_name(years[0]))
        assert f"Goal correlations (year {years[0]})" in svgs[first].decode()
        for stage in ("correlate", "figures"):
            run_stage(stage, config)
        assert list(out.glob(artifacts.correlation_year_name("*"))) == []
        assert {p.name: p.read_bytes() for p in out.glob("*.svg")} == before

    def test_rerun_removes_outputs_it_no_longer_writes(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        out = config.out
        assert (out / artifacts.CLUSTER_GDP).exists()
        planted = [
            "correlation_cluster99.csv",
            "correlation_year1999.csv",
            "trajectory_cluster99.csv",
            "correlation_cluster99.svg",
        ]
        for name in planted:
            shutil.copy(out / artifacts.CORRELATION_GLOBAL, out / name)
        rerun = replace(config, gdp=None)
        for stage in ("cluster", "correlate", "dynamics", "figures"):
            run_stage(stage, rerun)
        for name in [*planted, artifacts.CLUSTER_GDP]:
            assert not (out / name).exists(), name
        assert (out / artifacts.CORRELATION_GLOBAL).exists()


class TestClusterGdp:
    def test_cluster_without_gdp_gets_blank_summary(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        _, rows = artifacts.read_csv(config.out / artifacts.CLUSTER_COUNTRIES)
        membership = {country: int(cluster) for country, cluster in rows}
        bare = min(k for k in membership.values() if k >= 0)
        gdp = load_gdp(pipeline_run.gdp)
        write_gdp_csv({c: v for c, v in gdp.items() if membership.get(c) != bare},
                      tmp_path / "gdp.csv")
        run_stage("cluster", replace(config, gdp=tmp_path / "gdp.csv"))
        _, summary = artifacts.read_csv(config.out / artifacts.CLUSTER_GDP)
        by_cluster = {int(row[0]): row[1:] for row in summary}
        n_bare = str(sum(k == bare for k in membership.values()))
        assert by_cluster.pop(bare) == [n_bare, "0", "", ""]
        assert by_cluster and all(row[1] != "0" and row[2] and row[3]
                                  for row in by_cluster.values())


def snapshot(directory: Path) -> dict[str, tuple[int, bytes]]:
    """Each file's inode and bytes: a rewrite with the same bytes still
    replaces the inode, since every artifact is renamed into place."""
    return {p.name: (p.stat().st_ino, p.read_bytes()) for p in directory.iterdir()}


def study_embedding(meta: list[list[str]]) -> list[list[float]]:
    """A hand-built map for the 690-row study panel (country i in latent group
    i % 6): six tight clouds, the first two 2.0 apart and the rest at least 17,
    two countries scattered as noise and two countries visiting another cloud."""
    centers = [(0.0, 0.0), (3.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0), (40.0, 40.0)]
    countries = sorted({country for country, _ in meta})
    points = []
    for country, year in meta:
        i, t = countries.index(country), int(year) - 2000
        cx, cy = centers[i % 6]
        if i >= 28:  # noise: every point at least 10 from any other
            points.append([100.0 + 10.0 * t, 100.0 + 10.0 * i])
            continue
        if i == 9 and t >= 11:  # moves into the first cloud
            cx, cy = centers[0]
        if i == 14 and 16 <= t <= 18:  # visits the last cloud
            cx, cy = centers[5]
        points.append([cx + 0.25 * (i // 6), cy + 0.125 * t])
    return points


@pytest.fixture(scope="module")
def study_stage_digests(tmp_path_factory):
    """(eps, stage) -> digest of every file the stage wrote, for the back half
    of the pipeline run twice on one study-shaped directory: eps 1.0 keeps the
    six clouds apart, eps 2.5 merges the first two."""
    base = tmp_path_factory.mktemp("study")
    panel = synthetic_panel(30, n_groups=6, seed=3)
    write_panel_csv(panel, base / "panel.csv")
    write_gdp_csv(synthetic_gdp(panel), base / "gdp.csv")
    config = PipelineConfig(panel=base / "panel.csv", gdp=base / "gdp.csv", out=base / "out")
    config.out.mkdir()
    for stage in ("ingest", "pca"):
        run_stage(stage, config)
    meta, _ = artifacts.read_matrix(config.out / artifacts.PANEL_FILTERED, 2)
    artifacts.write_csv(config.out / artifacts.EMBEDDING, ["country", "year", "x", "y"],
                        [[*m, artifacts.fmt(x), artifacts.fmt(y)]
                         for m, (x, y) in zip(meta, study_embedding(meta))])
    digests = {}
    for eps in (1.0, 2.5):
        for stage in ("cluster", "correlate", "dynamics", "figures"):
            written, _ = run_stage(stage, replace(config, eps=eps))
            total = hashlib.sha256()
            for path in sorted(written):
                total.update(path.name.encode() + bytes.fromhex(artifacts.sha256_of(path)))
            digests[eps, stage] = (len(written), total.hexdigest())
    return digests


# Recorded before the artifact writers and readers and the figures moved to
# whole-row formatting and parsing: (files written, digest over their names
# and bytes). The dynamics entries were recorded again when the entries of
# trajectory_fits.json lost excluded_years and extrapolate_to, and the figures
# entries when attainment years past the horizon got their label.
STUDY_STAGE_DIGESTS = {
    (1.0, 'cluster'): (5, '7af567b9ee756ebf63a6a362149aa37d73dbc222f57e31a9c1eb14799b4a47b1'),
    (1.0, 'correlate'): (7, 'f56c6b0c620f9be657b0e9454c408b66231b358126006ab872d6df2db716c9e9'),
    (1.0, 'dynamics'): (9, '5d2230f1fc478c103423b9883d211742fee27b4624ca698a289096c293ec1c66'),
    (1.0, 'figures'): (14, 'e1970b55e6cd7c44f40cd0a3faa4ec2de36ab9f67f0df3afcf074e3c1a35bdd5'),
    (2.5, 'cluster'): (5, 'bf99e69df52e6fe778dd791645b3247ded8f36115201f76fa1c416aad5f75704'),
    (2.5, 'correlate'): (6, '6b3080d0858c9784ad7915bbfd5bf4d8abdc1e6b1334e8d6396b779791708f92'),
    (2.5, 'dynamics'): (8, 'c844d31dec72cdaee50b37bae787979485a08637195e86a38349fe1aa04182cd'),
    (2.5, 'figures'): (13, '09f7b0b8b8e4305c3522dd9f36fc94d3c48fec846a477f15ddaf09227acc3c57'),
}


class TestStudyShapedStageDigests:
    @pytest.mark.parametrize("key", sorted(STUDY_STAGE_DIGESTS),
                             ids=lambda key: f"{key[1]}-eps{key[0]}")
    def test_stage_bytes(self, study_stage_digests, key):
        assert study_stage_digests[key] == STUDY_STAGE_DIGESTS[key]

    def test_two_eps_give_different_clusterings(self, study_stage_digests):
        # six clusters, then five: the per-cluster file counts differ
        assert study_stage_digests[1.0, "correlate"][0] == 7
        assert study_stage_digests[2.5, "correlate"][0] == 6


class TestStageCommit:
    @pytest.mark.parametrize("name", list(STAGES))
    def test_stage_writes_only_into_dest(self, pipeline_run, tmp_path, name):
        # run_stage commits what a stage wrote into dest; a stage that wrote
        # into out directly would bypass the commit
        config = copy_run(pipeline_run, tmp_path / "copy")
        before = snapshot(config.out)
        dest = tmp_path / "dest"
        dest.mkdir()
        STAGES[name].run(config, dest)
        assert snapshot(config.out) == before
        assert list(dest.iterdir())

    def test_leftover_staging_directory_is_discarded(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        staging = config.out / ".correlate.staging"
        staging.mkdir()
        (staging / "stray.csv").write_text("left by an interrupted run\n")
        written, _ = run_stage("correlate", config)
        assert "stray.csv" not in [p.name for p in written]
        assert not (config.out / "stray.csv").exists()
        assert not staging.exists()

    def test_each_file_is_renamed_once(self, pipeline_run, tmp_path, monkeypatch):
        # the files in a staging directory are complete before the commit's
        # rename, so no writer renames a file of its own
        config = copy_run(pipeline_run, tmp_path / "copy")
        calls = []
        rename = os.replace

        def counted(*args, **kwargs):
            calls.append(args)
            return rename(*args, **kwargs)

        monkeypatch.setattr(os, "replace", counted)
        written, seconds = run_stage("figures", config)
        assert written
        assert len(calls) == len(written)
        calls.clear()
        manifest = write_manifest(config, written, [{"name": "figures", "seconds": seconds}])
        assert manifest == config.out / artifacts.MANIFEST
        assert len(calls) == 1

    def test_write_failing_midway_leaves_out_as_it_was(self, pipeline_run, tmp_path,
                                                        monkeypatch):
        config = copy_run(pipeline_run, tmp_path / "copy")
        before = snapshot(config.out)
        write_csv = artifacts.write_csv
        calls = []

        def third_fails(path, header, rows):
            calls.append(path.name)
            if len(calls) == 3:
                rows = [*rows[:1], 3]  # 3 is not a row: fails after writing one
            write_csv(path, header, rows)

        monkeypatch.setattr(artifacts, "write_csv", third_fails)
        with pytest.raises(StageError, match="cluster"):
            run_stage("cluster", config)
        assert len(calls) == 3
        assert snapshot(config.out) == before
        assert [p.name for p in config.out.iterdir() if p.name.startswith(".")] == []

    def test_failed_manifest_write_keeps_previous_manifest(self, pipeline_run, tmp_path,
                                                           monkeypatch):
        config = copy_run(pipeline_run, tmp_path / "copy")
        before = (config.out / artifacts.MANIFEST).read_bytes()

        def fails_after_open(path, payload):
            with path.open("w", encoding="utf-8") as handle:
                handle.write("{")
                raise OSError("no space left on device")

        monkeypatch.setattr(artifacts, "write_json", fails_after_open)
        with pytest.raises(OSError, match="no space left"):
            write_manifest(config, [], [])
        assert (config.out / artifacts.MANIFEST).read_bytes() == before
        assert [p.name for p in config.out.iterdir() if p.name.startswith(".")] == []


class TestLoneNoisePoint:
    LONE = 10  # not a final-year row, so every country keeps a cluster

    # sha256 of the cluster stage's integer-only files on the map below. They
    # hold no floats, so the digests do not depend on the numpy build.
    MEMBERSHIP_SHA256 = {
        artifacts.LABELS:
            "b41b39400d4a835a24f4ab2015bf0de8daaf6bbea7e71c8959fe26f7cc2c529a",
        artifacts.SWITCHES:
            "f7478ae774691ebb44a6b8c776b914663283006a97dc3d4249a27e1252a4bcf5",
        artifacts.CLUSTER_COUNTRIES:
            "27c5c3804464b31904ac9d41eebb2dde208e831085cd1c146d3de8ae92e5134c",
    }

    def blob_run(self, demo_config, out: Path) -> PipelineConfig:
        # A hand-made map instead of t-SNE output: one tight blob per group of
        # four countries, plus one isolated row that is the only noise point.
        config = replace(demo_config, out=out)
        run_stage("ingest", config)
        run_stage("pca", config)
        _, rows = artifacts.read_csv(config.out / artifacts.PANEL_FILTERED)
        countries = sorted({row[0] for row in rows})
        embedding = []
        for i, (country, year, *_) in enumerate(rows):
            x = 50.0 * (countries.index(country) % 3) + 0.01 * (i % 7)
            y = 0.01 * (i % 5)
            if i == self.LONE:
                x = y = 500.0
            embedding.append([country, year, artifacts.fmt(x), artifacts.fmt(y)])
        artifacts.write_csv(
            config.out / artifacts.EMBEDDING, ["country", "year", "x", "y"], embedding
        )
        run_stage("cluster", config)
        return config

    def test_membership_files_golden_bytes(self, demo_config, tmp_path):
        config = self.blob_run(demo_config, tmp_path / "blobs")
        got = {name: artifacts.sha256_of(config.out / name)
               for name in self.MEMBERSHIP_SHA256}
        assert got == self.MEMBERSHIP_SHA256

    def test_downstream_stages_succeed(self, demo_config, tmp_path):
        config = self.blob_run(demo_config, tmp_path / "blobs")
        lone = self.LONE
        for stage in ("correlate", "dynamics", "figures"):
            run_stage(stage, config)

        _, labels = artifacts.read_csv(config.out / artifacts.LABELS)
        assert [int(row[2]) for row in labels].count(-1) == 1
        assert labels[lone][2] == "-1"
        assert {row[2] for row in labels} == {"-1", "0", "1", "2"}
        _, profile = artifacts.read_csv(config.out / artifacts.CLUSTER_STANDARDIZED)
        assert [float(cell) for cell in profile[lone][3:]] == [0.0] * len(GOAL_COLUMNS)
        for cluster_id in range(3):
            assert (config.out / artifacts.trajectory_name(cluster_id)).exists()


class TestEdgePanels:
    """Valid panels that a full run must carry through, or stop on at once."""

    def run_all(self, panel: ScorePanel, tmp_path: Path, *flags: str) -> tuple[int, Path]:
        write_panel_csv(panel, tmp_path / "panel.csv")
        out = tmp_path / "out"
        code = main(["all", "--panel", str(tmp_path / "panel.csv"), "--out", str(out),
                     *flags])
        return code, out

    def test_goal_met_by_a_whole_cluster(self, fixture_panel, tmp_path, capsys):
        # goal01 at 100 in every row of latent group 0 (every third country)
        scores = np.array(fixture_panel.scores)
        group = fixture_panel.countries[::3]
        scores[[country in group for country, _ in fixture_panel.index], 0] = 100.0
        code, out = self.run_all(ScorePanel(fixture_panel.index, scores), tmp_path,
                                 "--perplexity", "30", "--iterations", "400",
                                 "--eps", "5.0", "--seed", "0")
        assert code == 0, capsys.readouterr().err
        _, membership = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
        cluster_id = dict(membership)[group[0]]
        _, rows = artifacts.read_csv(out / artifacts.correlation_cluster_name(cluster_id))
        assert rows[0] == ["goal01", "+1.0000"] + ["+0.0000"] * (len(GOAL_COLUMNS) - 1)
        figures = [name for name in STAGES["figures"].writes if "*" not in name]
        figures += [artifacts.svg_name(path.name) for path in out.glob("correlation_*.csv")]
        assert [name for name in figures if not (out / name).exists()] == []

    def test_years_of_two_countries_get_no_matrix(self, tmp_path, capsys):
        code, out = self.run_all(synthetic_panel(n_countries=2, n_groups=2), tmp_path,
                                 "--perplexity", "10", "--iterations", "300",
                                 "--eps", "5.0", "--per-year")
        assert code == 0, capsys.readouterr().err
        assert list(out.glob("correlation_year*")) == []

    def test_perplexity_above_n_minus_one_fails_at_once(self, tmp_path, capsys):
        code, out = self.run_all(synthetic_panel(n_countries=2, n_groups=2), tmp_path,
                                 "--iterations", "300", "--eps", "5.0")
        assert code == STAGES["tsne"].exit_code == 4
        assert capsys.readouterr().err == (
            "error: stage 'tsne' failed: point 0: perplexity 50.0 exceeds n - 1 = 45\n")
        assert not (out / artifacts.EMBEDDING).exists()

    @pytest.mark.parametrize("years, eps", [
        ((2018, 2019, 2020, 2021, 2022), "30"),  # 2 fit years once 2020-2022 are left out
        ((2000, 2001, 2002), "50"),
    ], ids=["two-fit-years", "three-fit-years"])
    def test_cluster_under_min_fit_years_gets_no_fit(self, years, eps, tmp_path, capsys):
        code, out = self.run_all(synthetic_panel(n_countries=12, years=years), tmp_path,
                                 "--perplexity", "5", "--iterations", "300",
                                 "--eps", eps, "--seed", "0")
        assert code == 0, capsys.readouterr().err
        assert "projected attainment" not in capsys.readouterr().out
        assert artifacts.read_json(out / artifacts.TRAJECTORY_FITS) == {}
        _, membership = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
        ids = dbscan.cluster_ids([int(cluster_id) for _, cluster_id in membership])
        assert ids
        assert sorted(out.glob(artifacts.trajectory_name("*"))) == sorted(
            out / artifacts.trajectory_name(cluster_id) for cluster_id in ids)
        assert (out / artifacts.TRAJECTORIES_SVG).exists()

    def small_run(self, years: range, tmp_path: Path) -> Path:
        code, out = self.run_all(synthetic_panel(n_countries=12, years=tuple(years)), tmp_path,
                                 "--perplexity", "5", "--iterations", "300",
                                 "--eps", "30", "--seed", "0")
        assert code == 0
        _, rows = artifacts.read_csv(out / artifacts.LABELS)
        assert dbscan.cluster_ids([int(row[2]) for row in rows])
        return out

    def test_clusters_without_fits_are_drawn_hollow(self, tmp_path):
        out = self.small_run(range(2018, 2023), tmp_path)
        assert artifacts.read_json(out / artifacts.TRAJECTORY_FITS) == {}
        text = (out / artifacts.TRAJECTORIES_SVG).read_text()
        assert "no clusters found" not in text
        root = ET.fromstring(text)
        svg = "{http://www.w3.org/2000/svg}"
        assert list(root.iter(f"{svg}polyline")) == []
        hollow = [el.get("stroke") for el in root.iter(f"{svg}circle")
                  if el.get("fill") == "none"]
        tables = artifacts.numbered_files(out, artifacts.trajectory_name)
        assert len(tables) >= 2
        for cluster_id, path in tables.items():
            _, rows = artifacts.read_csv(path)
            assert hollow.count(cluster_color(cluster_id)) == len(rows) > 0
        assert len(hollow) == sum(len(artifacts.read_csv(p)[1]) for p in tables.values())

    def test_cluster_without_gaussian_fits_is_not_called_missing(self, tmp_path):
        # none of the distribution years 2000, 2010 and 2020 is in the panel
        out = self.small_run(range(2001, 2010), tmp_path)
        assert artifacts.read_csv(out / artifacts.GAUSSIAN_FITS)[1] == []
        text = (out / artifacts.DISTRIBUTIONS_SVG).read_text()
        assert "no clusters found" not in text
        assert "no Gaussian fits" in text


class TestScanEpsStage:
    def test_table_covers_grid(self, pipeline_run, tmp_path):
        config = copy_run(pipeline_run, tmp_path / "copy")
        config = replace(config, eps_grid=(1.0, 3.0, 5.0))
        run_stage("scan-eps", config)
        header, rows = artifacts.read_csv(config.out / artifacts.EPS_SCAN)
        assert header == ["eps", "n_clusters", "noise_fraction"]
        assert [r[0] for r in rows] == ["1.000000", "3.000000", "5.000000"]
        for _, n, frac in rows:
            assert int(n) >= 0
            assert 0.0 <= float(frac) <= 1.0


class TestCli:
    def run_cli(self, *args):
        return main([str(a) for a in args])

    def test_parser_covers_all_stages(self):
        parser = build_parser()
        for stage in (*FULL_RUN, "scan-eps", "all"):
            args = parser.parse_args([stage])
            assert args.command == stage

    def test_tuple_flags_parse(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["cluster", "--eps-grid", "1.0, 2.5", "--no-per-year"])
        assert args.eps_grid == (1.0, 2.5)
        assert args.per_year_correlations is False
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster", "--eps-grid", "1.0,x"])
        assert "argument --eps-grid: invalid float list value: '1.0,x'" in capsys.readouterr().err

    def test_config_file_plus_override(self, demo_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"panel = {demo_dir / 'panel.csv'}\nperplexity = 30.0\n")
        parser = build_parser()
        args = parser.parse_args(
            ["ingest", "--config", str(cfg), "--out", str(tmp_path / "out"),
             "--perplexity", "25.0"]
        )
        config = _config_from_args(args)
        assert config.panel == demo_dir / "panel.csv"
        assert config.perplexity == 25.0  # flag beats file
        assert config.out == tmp_path / "out"

    def test_ingest_stage_exit_zero(self, demo_dir, tmp_path, capsys):
        code = self.run_cli(
            "ingest", "--panel", demo_dir / "panel.csv", "--out", tmp_path / "out"
        )
        assert code == 0
        assert (tmp_path / "out" / artifacts.PANEL_FILTERED).exists()
        assert (tmp_path / "out" / artifacts.MANIFEST).exists()
        assert "stage ingest" in capsys.readouterr().out

    def test_line_break_in_country_fails_ingest(self, demo_dir, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        lines = (demo_dir / "panel.csv").read_text().splitlines(keepends=True)
        panel.write_text("".join('"AA\nA"' + line[3:] if line.startswith("AAA,") else line
                                 for line in lines))
        code = self.run_cli("ingest", "--panel", panel, "--out", tmp_path / "out")
        assert code == STAGES["ingest"].exit_code == 2
        assert "row 2 has a line break in its country" in capsys.readouterr().err
        assert not (tmp_path / "out" / artifacts.PANEL_FILTERED).exists()

    def test_usage_error_is_one(self, tmp_path, capsys):
        code = self.run_cli("ingest", "--out", tmp_path / "out")  # no panel
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_stage_exit_codes_map_failures(self, demo_dir, tmp_path, capsys):
        # pca before ingest dies inside the pca stage
        code = self.run_cli(
            "pca", "--panel", demo_dir / "panel.csv", "--out", tmp_path / "empty"
        )
        assert code == STAGES["pca"].exit_code == 3
        capsys.readouterr()

    def test_cluster_exit_code(self, pipeline_run, tmp_path, capsys):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        code = self.run_cli(
            "cluster", "--panel", pipeline_run.panel, "--out", copied
        )  # eps never set
        assert code == STAGES["cluster"].exit_code == 5
        capsys.readouterr()

    def test_panel_reaching_the_horizon_completes(self, late_runs, capsys):
        config = late_runs(EXTRAPOLATE_TO)
        for stage in ("dynamics", "figures"):
            assert self.run_cli(stage, "--panel", config.panel, "--out", config.out) == 0
        assert capsys.readouterr().err == ""
        assert_observed_trajectories(config.out)

    def test_stage_manifest_checksums_only_the_inputs_it_reads(self, pipeline_run, tmp_path,
                                                              capsys):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        # pca never reads the panel, so a missing one is not an error
        code = self.run_cli("pca", "--panel", tmp_path / "missing.csv", "--out", copied)
        assert code == 0
        payload = json.loads((copied / artifacts.MANIFEST).read_text())
        assert [s["name"] for s in payload["stages"]] == ["pca"]
        assert payload["inputs"] == {}
        code = self.run_cli("cluster", "--panel", tmp_path / "missing.csv",
                            "--gdp", pipeline_run.gdp, "--out", copied, "--eps", 5.0)
        assert code == 0
        payload = json.loads((copied / artifacts.MANIFEST).read_text())
        assert list(payload["inputs"]) == ["gdp"]
        assert payload["inputs"]["gdp"]["sha256"] == artifacts.sha256_of(pipeline_run.gdp)
        capsys.readouterr()

    def reingest_renamed(self, pipeline_run, tmp_path) -> tuple[Path, Path]:
        """A copy of the run re-ingested from its panel with AAA renamed ZZZ,
        so every later artifact lists other rows than panel_filtered.csv."""
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        renamed = tmp_path / "renamed.csv"
        lines = Path(pipeline_run.panel).read_text().splitlines(keepends=True)
        renamed.write_text("".join("ZZZ" + line[3:] if line.startswith("AAA,") else line
                                   for line in lines))
        assert self.run_cli("ingest", "--panel", renamed, "--out", copied) == 0
        return copied, renamed

    def test_misaligned_embedding_fails_cluster(self, pipeline_run, tmp_path, capsys):
        copied, renamed = self.reingest_renamed(pipeline_run, tmp_path)
        labels = (copied / artifacts.LABELS).read_bytes()
        code = self.run_cli("cluster", "--out", copied, "--panel", renamed, "--eps", 5.0)
        assert code == STAGES["cluster"].exit_code == 5
        assert "embedding.csv rows do not line up" in capsys.readouterr().err
        assert (copied / artifacts.LABELS).read_bytes() == labels

    def test_failed_stage_keeps_previous_per_cluster_files(self, pipeline_run, tmp_path,
                                                           capsys):
        copied, renamed = self.reingest_renamed(pipeline_run, tmp_path)
        pattern = artifacts.correlation_cluster_name("*")
        before = {p.name: p.read_bytes() for p in copied.glob(pattern)}
        assert before
        code = self.run_cli("correlate", "--out", copied, "--panel", renamed)
        assert code == STAGES["correlate"].exit_code == 6
        assert "labels.csv rows do not line up" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copied.glob(pattern)} == before

    def test_misaligned_inputs_fail_figures(self, pipeline_run, tmp_path, capsys):
        copied, renamed = self.reingest_renamed(pipeline_run, tmp_path)
        assert self.run_cli("pca", "--out", copied, "--panel", renamed) == 0
        before = {p.name: p.read_bytes() for p in copied.glob("*.svg")}
        capsys.readouterr()
        code = self.run_cli("figures", "--out", copied, "--panel", renamed)
        assert code == STAGES["figures"].exit_code == 8
        assert "rows do not line up" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copied.glob("*.svg")} == before

    def test_failed_figures_keeps_every_svg(self, pipeline_run, tmp_path, capsys):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        before = {p.name: p.read_bytes() for p in copied.glob("*.svg")}
        # figures reads the trajectory tables last, after drawing the others
        sorted(copied.glob(artifacts.trajectory_name("*")))[0].unlink()
        code = self.run_cli("figures", "--out", copied, "--panel", pipeline_run.panel)
        assert code == STAGES["figures"].exit_code == 8
        assert {p.name: p.read_bytes() for p in copied.glob("*.svg")} == before
        assert [p.name for p in copied.iterdir() if p.name.startswith(".")] == []
        capsys.readouterr()

    def test_all_runs_clean(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run_cli(
            "all",
            "--panel", demo_dir / "panel.csv",
            "--gdp", demo_dir / "gdp.csv",
            "--out", out,
            "--perplexity", DEMO_SETTINGS["perplexity"],
            "--iterations", DEMO_SETTINGS["iterations"],
            "--eps", DEMO_SETTINGS["eps"],
            "--min-pts", DEMO_SETTINGS["min_pts"],
            "--seed", DEMO_SETTINGS["seed"],
        )
        assert code == 0
        assert "manifest" in capsys.readouterr().out
        assert (out / artifacts.MANIFEST).exists()

    def test_cli_all_matches_api_run(self, pipeline_run, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run_cli(
            "all",
            "--panel", pipeline_run.panel,
            "--gdp", pipeline_run.gdp,
            "--out", out,
            "--perplexity", DEMO_SETTINGS["perplexity"],
            "--iterations", DEMO_SETTINGS["iterations"],
            "--eps", DEMO_SETTINGS["eps"],
            "--min-pts", DEMO_SETTINGS["min_pts"],
            "--seed", DEMO_SETTINGS["seed"],
        )
        assert code == 0
        capsys.readouterr()
        want = json.loads((pipeline_run.out / artifacts.MANIFEST).read_text())
        got = json.loads((out / artifacts.MANIFEST).read_text())
        assert want["outputs"] == got["outputs"]


class TestUsageErrors:
    """Usage errors exit 1: exit code 2 means the ingest stage failed. A
    blank path is an error, not the current directory."""

    @pytest.mark.parametrize("argv", [["all", "--eps", "abc"], ["all", "--bogus"], []])
    def test_argparse_errors_exit_one(self, argv, tmp_path):
        result = subprocess.run([sys.executable, "-m", "sdgpipe", *argv], env=child_env(),
                                cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "sdgpipe" in result.stderr and "error:" in result.stderr
        assert list(tmp_path.iterdir()) == []

    # The t-SNE optimizer schedule is fixed but for --iterations, and the study
    # design (components, map dimension, years, horizon) is fixed.
    @pytest.mark.parametrize("flag", ["--learning-rate", "--momentum-early", "--momentum-late",
                                      "--momentum-switch", "--exaggeration",
                                      "--exaggeration-until", "--record-every", "--init-scale",
                                      "--pca-components", "--embed-dim", "--exclude-years",
                                      "--distribution-years", "--extrapolate-to"])
    def test_removed_schedule_flags_exit_one(self, flag, demo_dir, tmp_path, capsys):
        argv = ["tsne", "--panel", demo_dir / "panel.csv", "--out", tmp_path / "out", flag, "20"]
        assert main([str(a) for a in argv]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_blank_out_writes_nothing(self, demo_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--panel", str(demo_dir / "panel.csv"), "--out", ""]) == 1
        assert "argument --out: invalid path value: ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_blank_config_value_names_its_line(self, demo_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"panel = {demo_dir / 'panel.csv'}\nout = {tmp_path / 'out'}\ngdp =\n")
        with pytest.raises(ConfigError, match=r"run.cfg:3: bad value for gdp: empty path"):
            load_config(cfg)
        assert main(["all", "--config", str(cfg), "--eps", "5.0"]) == 1
        assert "run.cfg:3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # no stage ran

    def test_blank_config_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["all", "--config", ""]) == 1
        assert "argument --config: invalid path value: ''" in capsys.readouterr().err

    def test_directory_config_path(self, tmp_path, capsys):
        assert main(["all", "--config", str(tmp_path)]) == 1
        assert f"config file not found: {tmp_path}" in capsys.readouterr().err

    def test_negative_seed_exits_one_before_the_stage(self, pipeline_run, tmp_path, capsys):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        before = snapshot(copied)
        argv = ["tsne", "--panel", pipeline_run.panel, "--out", copied, "--seed", -1]
        assert main([str(a) for a in argv]) == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert snapshot(copied) == before


class TestScanRun:
    """Without eps, `all` runs the stages before cluster plus scan-eps, writes
    their manifest and prints the scan table."""

    SETTINGS = {key: value for key, value in DEMO_SETTINGS.items() if key != "eps"}

    def argv(self, command: str, demo_dir: Path, out: Path) -> list[str]:
        settings = [f"--{key.replace('_', '-')}={value}" for key, value in self.SETTINGS.items()]
        return [command, f"--panel={demo_dir / 'panel.csv'}", f"--out={out}", *settings]

    @pytest.fixture(scope="class")
    def scan_run(self, demo_dir, tmp_path_factory) -> tuple[Path, int, str]:
        out = tmp_path_factory.mktemp("scan") / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(self.argv("all", demo_dir, out))
        return out, code, stdout.getvalue()

    def test_prints_the_scan(self, scan_run):
        out, code, stdout = scan_run
        assert code == 0
        assert (out / artifacts.EPS_SCAN).read_text() in stdout
        assert "re-run with --eps" in stdout

    def test_manifest_lists_the_scan_stages(self, scan_run):
        out, _, _ = scan_run
        payload = json.loads((out / artifacts.MANIFEST).read_text())
        assert [s["name"] for s in payload["stages"]] == ["ingest", "pca", "tsne", "scan-eps"]
        assert list(SCAN_RUN) == ["ingest", "pca", "tsne", "scan-eps"]
        assert not (out / artifacts.LABELS).exists()

    def test_matches_staged_run(self, scan_run, demo_dir, tmp_path, capsys):
        out, _, _ = scan_run
        staged = tmp_path / "staged"
        for stage in ("ingest", "pca", "tsne", "scan-eps"):
            assert main(self.argv(stage, demo_dir, staged)) == 0
        capsys.readouterr()

        def files(directory: Path) -> dict[str, bytes]:
            return {p.name: p.read_bytes() for p in directory.iterdir()
                    if p.name != artifacts.MANIFEST}

        assert files(staged) == files(out)

    def test_api_run_without_eps(self, scan_run, demo_config, tmp_path):
        out, _, _ = scan_run
        manifest = run_pipeline(replace(demo_config, out=tmp_path / "out", eps=None))
        assert manifest == tmp_path / "out" / artifacts.MANIFEST
        got, want = masked_manifest(manifest), masked_manifest(out / artifacts.MANIFEST)
        assert [s["name"] for s in got["stages"]] == list(SCAN_RUN)
        assert got["outputs"] == want["outputs"]


def test_public_names_resolve():
    assert [name for name in sdgpipe.__all__ if not hasattr(sdgpipe, name)] == []


def test_no_module_reaches_into_another():
    """A leading underscore keeps a name to its module: no other module of
    the package imports it or reads it off the module."""
    package = Path(sdgpipe.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sdgpipe"):
                found += [f"{path.stem} imports {node.module}.{alias.name}"
                          for alias in node.names if private(alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem} and private(node.attr)):
                found.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert found == []


def test_every_import_is_used():
    """No module of the package but __init__, which re-exports, imports a
    name that it never uses."""
    package = Path(sdgpipe.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem} imports {name}" for name in imported if name not in used]
    assert unused == []


class TestStartupImports:
    """scipy.spatial took a process about 0.4 s to import (2-CPU Linux VM), so
    only the stages that compute distances (tsne, scan-eps, cluster) may load it."""

    def run_python(self, code: str) -> str:
        result = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_import_leaves_scipy_spatial_unloaded(self):
        code = "import sdgpipe, sdgpipe.cli, sys; print('scipy.spatial' in sys.modules)"
        assert self.run_python(code) == "False\n"

    def test_stages_without_distances_leave_scipy_spatial_unloaded(self, pipeline_run,
                                                                  tmp_path):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)
        runs = [("ingest", tmp_path / "fresh"), ("pca", tmp_path / "fresh"),
                ("correlate", copied), ("dynamics", copied), ("figures", copied)]
        calls = [[stage, "--panel", str(pipeline_run.panel), "--out", str(out)]
                 for stage, out in runs]
        code = ("import sys\n"
                "from sdgpipe.cli import main\n"
                f"codes = [main(argv) for argv in {calls!r}]\n"
                "print(codes, 'scipy.spatial' in sys.modules)\n")
        assert self.run_python(code).splitlines()[-1] == "[0, 0, 0, 0, 0] False"


class TestStageTable:
    """The public CLI contract, written out: the README's exit codes, the
    subcommands in `sdgpipe --help` order with their help texts, and the
    stages of a full run."""

    def test_exit_codes(self):
        assert {name: stage.exit_code for name, stage in STAGES.items()} == {
            "ingest": 2,
            "pca": 3,
            "tsne": 4,
            "cluster": 5,
            "correlate": 6,
            "dynamics": 7,
            "figures": 8,
            "scan-eps": 9,
        }

    def test_inputs(self):
        # the manifest checksums the files named by a stage's path fields
        paths = {f.name for f in fields(PipelineConfig) if "Path" in f.type}
        declared = {name: tuple(f for f in stage.config if f in paths)
                    for name, stage in STAGES.items()}
        assert {name: found for name, found in declared.items() if found} == {
            "ingest": ("panel",),
            "cluster": ("gdp",),
        }

    def test_subcommands_and_help(self):
        (subparsers,) = [action for action in build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert [(a.dest, a.help) for a in subparsers._choices_actions] == [
            ("ingest", "load, validate, filter, and standardize the panel"),
            ("pca", "fit the component basis and project observations"),
            ("tsne", "embed component coordinates into the 2-d map"),
            ("cluster", "density-cluster the map and derive memberships"),
            ("scan-eps", "tabulate cluster count and noise share over an eps grid"),
            ("correlate", "goal correlation matrices, pooled and per cluster"),
            ("dynamics", "distance-to-ideal distributions, trends, extrapolation"),
            ("figures", "render SVG figures from existing artifacts"),
            ("all", "run every stage; without --eps, stop after scan-eps"),
        ]

    def test_full_run(self):
        assert FULL_RUN == ("ingest", "pca", "tsne", "cluster", "correlate", "dynamics",
                            "figures")

    # sha256 of `sdgpipe [<command>] --help` at COLUMNS=80. argparse's layout
    # changes between Python minor versions, so the digests hold for 3.11 only.
    HELP_SHA256 = {
        "": "5b16a3ab4b3c4b84b47112f5699bc7634e06e80c6e1bac1cd3c214acbc2ea2b6",
        "ingest": "98926b8f0acbd02d6e8547caf837148b04eac35b04acf4cefdb59e82d8e1d08d",
        "pca": "d38905dc25416798b3b22ee7c8d025d6ad8a1a0943f88905da0906bfe85b5824",
        "tsne": "7b958817b8f7cdb75703abb5fbeaeffc5ac1e5b3397df4cd50b5e80c50948526",
        "cluster": "fe9ce6ab7fbed15638c661ba5982ce3fcf7848448a2a8f11ba45365f6b55a1fe",
        "scan-eps": "613326d579539344549ccd7c9015d9e4e231d914e5e5415bd3d0ba19533f867d",
        "correlate": "f4f1e4c303fddc3b7edae41b130b409acd3014e87049cc7aecf42f9c8d538378",
        "dynamics": "3d6400ffcd9b3abc3e435334e02089bd7925345537c50bace957ee849ecf0586",
        "figures": "4aade0370e8fca6205bcba59a5de81a616a8735215c7f854244dc735a9fea2ea",
        "all": "124b096b681b787306cdbf39c619ed976b4b9b7259a7f21a2deae12496f5ae3f",
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="help digests were recorded under Python 3.11")
    @pytest.mark.parametrize("command", list(HELP_SHA256))
    def test_help_golden_bytes(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.HELP_SHA256[command]


class TestStageContract:
    """What STAGES declares of each stage holds: it writes exactly its
    `writes`, and the manifest of a run records only its `config`."""

    @pytest.fixture(scope="class")
    def written(self, demo_config, tmp_path_factory) -> dict[str, list[str]]:
        """Stage -> names it wrote, each stage run once with --gdp and
        --per-year, so every optional file is written."""
        config = replace(demo_config, out=tmp_path_factory.mktemp("contract") / "out",
                         per_year_correlations=True)
        return {name: [path.name for path in run_stage(name, config)[0]] for name in STAGES}

    @pytest.mark.parametrize("name", list(STAGES))
    def test_stage_writes_exactly_its_declared_files(self, written, name):
        declared = STAGES[name].writes
        unmatched = [p for p in declared if not fnmatch.filter(written[name], p)]
        undeclared = [w for w in written[name]
                      if not any(fnmatch.fnmatchcase(w, p) for p in declared)]
        assert (unmatched, undeclared) == ([], [])

    def test_no_file_is_declared_by_two_stages(self, written):
        names = {w for names in written.values() for w in names}
        names |= {p.replace("*", "7") for stage in STAGES.values() for p in stage.writes}
        for file in sorted(names):
            owners = [name for name, stage in STAGES.items()
                      if any(fnmatch.fnmatchcase(file, p) for p in stage.writes)]
            assert len(owners) == 1, (file, owners)

    def test_every_field_but_out_is_declared(self):
        declared = {f for stage in STAGES.values() for f in stage.config}
        assert declared == {f.name for f in fields(PipelineConfig)} - {"out"}

    def test_lone_stage_manifest_records_only_its_fields(self, pipeline_run, tmp_path, capsys):
        copied = tmp_path / "copy"
        shutil.copytree(pipeline_run.out, copied)

        def config_of(stage: str, *flags) -> dict:
            argv = [stage, "--panel", pipeline_run.panel, "--out", copied, *flags]
            assert main([str(a) for a in argv]) == 0
            return json.loads((copied / artifacts.MANIFEST).read_text())["config"]

        assert config_of("figures") == {"out": str(copied)}
        assert config_of("cluster", "--gdp", pipeline_run.gdp, "--eps", 5.0) == {
            "eps": 5.0,
            "min_pts": DEMO_SETTINGS["min_pts"],
            "gdp": str(pipeline_run.gdp),
            "out": str(copied),
        }
        assert config_of("tsne", "--iterations", 20) == {
            "perplexity": PipelineConfig.perplexity,
            "seed": PipelineConfig.seed,
            "iterations": 20,
            "out": str(copied),
        }
        capsys.readouterr()

    def test_readme_artifacts_table_matches_writes(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0] in STAGES:
                files = re.sub(r"\(only with [^)]*\)", "", cells[1])  # not a file name
                table[cells[0]] = tuple(re.sub(r"<[ky]>", "*", name)
                                        for name in re.findall(r"`([^`]+)`", files))
        assert table == {name: stage.writes for name, stage in STAGES.items()}


class TestUtf8Artifacts:
    """Input CSVs are decoded as UTF-8, so artifacts are written and read as
    UTF-8 too: under an ASCII locale a non-ASCII country name must survive
    the whole run."""

    def run_all(self, panel: Path, gdp: Path, out: Path, **env_overrides: str):
        settings = [f"--{key.replace('_', '-')}={value}" for key, value in DEMO_SETTINGS.items()]
        argv = [sys.executable, "-m", "sdgpipe", "all", f"--panel={panel}", f"--gdp={gdp}",
                f"--out={out}", *settings]
        return subprocess.run(argv, env=child_env(**env_overrides), capture_output=True,
                              text=True, timeout=300)

    def test_non_ascii_country_under_ascii_locale(self, demo_dir, tmp_path):
        for name in ("panel.csv", "gdp.csv"):
            text = (demo_dir / name).read_text(encoding="utf-8")
            assert "\nAAA," in text
            (tmp_path / name).write_text(text.replace("\nAAA,", "\nCôte d'Ivoire,"),
                                         encoding="utf-8")
        panel, gdp = tmp_path / "panel.csv", tmp_path / "gdp.csv"
        ascii_run = self.run_all(panel, gdp, tmp_path / "ascii", PYTHONUTF8="0",
                                 PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert ascii_run.returncode == 0, ascii_run.stderr
        utf8_run = self.run_all(panel, gdp, tmp_path / "utf8", PYTHONUTF8="1")
        assert utf8_run.returncode == 0, utf8_run.stderr

        def files(out: Path) -> dict[str, bytes]:
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != artifacts.MANIFEST}

        got = files(tmp_path / "ascii")
        assert "Côte d'Ivoire".encode() in got[artifacts.PANEL_FILTERED]
        assert got == files(tmp_path / "utf8")


class TestClosedStdout:
    """`sdgpipe all --eps ... | head -1`: a reader that has gone before the
    summary is printed must not turn a complete run into a traceback. The
    reader here closes the pipe before the child prints, since a reader that
    first waits for one line races the child's later prints."""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_exits_zero_without_traceback(self, demo_dir, tmp_path, unbuffered):
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "sdgpipe", "all", f"--panel={demo_dir / 'panel.csv'}",
                f"--out={out}", "--perplexity=30", "--iterations=50", "--eps=5.0"]
        child = subprocess.Popen(argv, env=child_env(PYTHONUNBUFFERED=unbuffered),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()
        with child.stderr:
            stderr = child.stderr.read().decode()
        assert child.wait(timeout=300) == 0, stderr
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
        assert (out / artifacts.MANIFEST).exists()


def load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as the module name, imported without writing bytecode."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps these (module, attribute) pairs; one that a
    # refactor removed makes Tracer.install raise AttributeError
    tracer = load_perfbench(monkeypatch, "tracer")
    assert tracer.PATCHES
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracer.PATCHES
               if not hasattr(module, attr)]
    assert missing == []


def test_traced_run_fits_the_tracer_hooks(monkeypatch, demo_dir, tmp_path):
    # the tracer's hooks read what the traced functions return; a return that
    # no longer fits its hook breaks only a traced run, so trace the demo run
    tracer_module = load_perfbench(monkeypatch, "tracer")
    tracer = tracer_module.Tracer()
    out = tmp_path / "out"
    argv = ["all", f"--panel={demo_dir / 'panel.csv'}", f"--gdp={demo_dir / 'gdp.csv'}",
            f"--out={out}",
            *(f"--{key.replace('_', '-')}={value}" for key, value in DEMO_SETTINGS.items())]
    tracer.install()
    try:
        span = tracer.open("cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        tracer.close(span)
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer.spans, tracer.spans)
    assert metrics["correlation.matrices"] == len(list(out.glob("correlation_*.csv")))
    assert metrics["dynamics.fits"] > 0


def test_benchmark_argv_are_valid_settings(monkeypatch, tmp_path):
    # perfbench/workloads.py drives the CLI with these argv; a settings change
    # that would break the benchmark (a flag dropped or a rule tightened)
    # fails here first
    load_perfbench(monkeypatch, "tracer")  # workloads imports it by this name
    workloads = load_perfbench(monkeypatch, "workloads")
    inputs = tmp_path / "inputs"
    (inputs / "map").mkdir(parents=True)
    # a scan with two plateaus, so that recluster also yields its --eps passes
    (inputs / "map" / artifacts.EPS_SCAN).write_text(
        "eps,n_clusters,noise_fraction\n1.0,3,0.1\n2.0,3,0.1\n3.0,2,0.0\n")
    parser = build_parser()
    kinds = []
    for workload in workloads.WORKLOADS.values():
        for op in workload.ops(0, inputs, tmp_path / "ops"):
            kinds.append(op.kind)
            for argv in op.calls:
                _config_from_args(parser.parse_args(argv)).validate()
    assert sorted(kinds) == ["pass", "pass", "run", "run", "scan", "scan"]
