"""Stage orchestration: config handling, stage commits, run manifest.

Every stage reads its inputs from files that earlier stages wrote into the
output directory, so running stages one at a time and all in one go gives
identical bytes. A stage writes into its own staging directory, which is
committed into the output directory only on success, one rename per file: a
failed stage leaves that directory as it was and surfaces as a StageError
naming the stage. The manifest is committed the same way.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from sdgpipe import artifacts, dbscan, dynamics, pca, tsne
from sdgpipe.correlation import cluster_correlations, pearson_matrix, yearly_correlations
from sdgpipe.errors import (
    ConfigError,
    PipelineError,
    SingularFitError,
    StageError,
    TooFewMembersError,
)
from sdgpipe.panel import (
    GOAL_COLUMNS,
    PANEL_HEADER,
    ScorePanel,
    filter_complete,
    load_gdp,
    load_panel,
    standardize,
    standardize_within_cluster,
    write_panel_csv,
    yearly_goal_means,
)

DEFAULT_EPS_GRID = tuple(round(0.5 * k, 1) for k in range(1, 17))

# The study design, fixed for the paper's 2000-2022 panel and the 10
# components that criterion 7 checks it with.
PCA_COMPONENTS = 10
EXCLUDED_YEARS = (2020, 2021, 2022)  # left out of the trajectory fits
DISTRIBUTION_YEARS = (2000, 2010, 2020)  # each gets a Gaussian fit per cluster


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; file values < CLI overrides.

    Each field is one config-file key and one CLI flag: `--` plus the name
    with `_` as `-`, unless metadata gives `flag`. Metadata `help` is the
    flag's help text.
    """

    panel: Path | None = field(default=None, metadata={"help": "input panel CSV"})
    out: Path | None = field(default=None, metadata={"help": "artifact output directory"})
    gdp: Path | None = field(default=None, metadata={"help": "optional country GDP table"})
    perplexity: float = 50.0
    iterations: int = tsne.ITERATIONS
    seed: int = 0
    eps: float | None = None
    min_pts: int = dbscan.DEFAULT_MIN_PTS
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    per_year_correlations: bool = field(
        default=False,
        metadata={"flag": "--per-year", "help": "also write one correlation matrix per year"},
    )

    def validate(self) -> None:
        if self.panel is None:
            raise ConfigError("panel CSV path is required")
        if self.out is None:
            raise ConfigError("output directory is required")
        try:
            tsne.check_settings(self.perplexity, self.iterations, self.seed)
            dbscan.check_settings(self.eps, self.min_pts, self.eps_grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_path(text: str) -> Path:
    """A path from its text; empty text is an error, not the current directory."""
    if not text:
        raise ValueError("empty path")
    return Path(text)


parse_path.__name__ = "path"  # argparse names it in errors


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; empty text gives ()."""
    text = text.strip()
    return tuple(float(part.strip()) for part in text.split(",")) if text else ()


_parse_floats.__name__ = "float list"  # argparse names it in errors


# Field annotation (without "| None") -> parser of its text form.
_TYPE_PARSERS = {
    "Path": parse_path,
    "float": float,
    "int": int,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_floats,
}

FIELD_PARSERS = {
    f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(PipelineConfig)
}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key=value config file (# comments and blank lines allowed; each
    key at most once; a leading UTF-8 byte-order mark is ignored)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    lines: dict[str, int] = {}  # key -> the line that set it
    for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in FIELD_PARSERS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{line_no}: {key} already set on line {lines[key]}")
        lines[key] = line_no
        try:
            values[key] = FIELD_PARSERS[key](value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return PipelineConfig(**values)


def apply_overrides(config: PipelineConfig, **overrides: object) -> PipelineConfig:
    """Replace fields with any non-None override values."""
    cleaned = {}
    for key, value in overrides.items():
        if key not in FIELD_PARSERS:
            raise ConfigError(f"unknown config field {key!r}")
        if value is not None:
            cleaned[key] = value
    return replace(config, **cleaned) if cleaned else config


# ---------------------------------------------------------------------------
# artifact readers and writers


def _read_aligned(out: Path, name: str) -> tuple[ScorePanel, np.ndarray]:
    """panel_filtered.csv as a panel, and the numeric columns of name, aligned with it."""
    meta, (scores, data) = artifacts.read_aligned(out, (artifacts.PANEL_FILTERED, name),
                                                  PANEL_HEADER)
    return ScorePanel(tuple((country, int(year)) for country, year in meta), scores), data


# ---------------------------------------------------------------------------
# stages


def stage_ingest(config: PipelineConfig, dest: Path) -> None:
    """Load, validate, filter, and standardize the input panel."""
    panel = filter_complete(load_panel(config.panel))
    zpanel = standardize(panel)
    years, means = yearly_goal_means(panel)

    write_panel_csv(panel, dest / artifacts.PANEL_FILTERED)
    artifacts.write_csv(dest / artifacts.MOMENTS, ["goal", "mean", "std"],
                        artifacts.format_rows(zip(GOAL_COLUMNS), zip(zpanel.mean, zpanel.std)))
    artifacts.write_csv(dest / artifacts.STANDARDIZED, PANEL_HEADER,
                        artifacts.format_rows(zpanel.index, zpanel.z))
    artifacts.write_csv(dest / artifacts.YEARLY_MEANS, ["year", *GOAL_COLUMNS],
                        artifacts.format_rows(zip(years.tolist()), means))


def stage_pca(config: PipelineConfig, dest: Path) -> None:
    """Fit the component basis on standardized scores and project everything."""
    out = config.out
    meta, Z = artifacts.read_matrix(out / artifacts.STANDARDIZED, 2)
    _, moment_data = artifacts.read_matrix(out / artifacts.MOMENTS, 1)
    mean, std = moment_data[:, 0], moment_data[:, 1]

    model = pca.fit(Z, PCA_COMPONENTS)
    coords = pca.project(model, Z)
    pc_names = [f"pc{j + 1:02d}" for j in range(coords.shape[1])]

    artifacts.write_json(dest / artifacts.PCA_MODEL, {
        "components": model.components.tolist(),
        "explained_variance": model.explained_variance.tolist(),
        "explained_variance_ratio": model.explained_variance_ratio.tolist(),
        "center": model.center.tolist(),
    })
    artifacts.write_csv(dest / artifacts.PCA_PROJECTION, ["country", "year", *pc_names],
                        artifacts.format_rows(meta, coords))

    # The ideal point (every goal at 100) expressed in the fitted basis.
    ideal_z = (100.0 - mean) / std
    ideal_coords = pca.project(model, ideal_z)[0]
    artifacts.write_csv(dest / artifacts.PCA_IDEAL, pc_names,
                        artifacts.format_rows([()], [ideal_coords]))

    artifacts.write_csv(dest / artifacts.PCA_LOADINGS, ["goal", "x", "y"],
                        artifacts.format_rows(zip(GOAL_COLUMNS), pca.loadings(model)))


def stage_tsne(config: PipelineConfig, dest: Path) -> None:
    """Embed the component coordinates into the 2-d map."""
    meta, X = artifacts.read_matrix(config.out / artifacts.PCA_PROJECTION, 2)
    embedding = tsne.run(X, config.perplexity, config.iterations, config.seed)

    artifacts.write_csv(dest / artifacts.EMBEDDING, ["country", "year", "x", "y"],
                        artifacts.format_rows(meta, embedding.Y))
    artifacts.write_csv(dest / artifacts.KL_HISTORY, ["iteration", "kl"],
                        [[str(step), artifacts.fmt(kl)] for step, kl in embedding.kl_history])


def stage_cluster(config: PipelineConfig, dest: Path) -> None:
    """Run density clustering on the map and derive membership artifacts."""
    out = config.out
    if config.eps is None:
        raise PipelineError("eps is not set; run scan-eps and pick a value")
    panel, Y = _read_aligned(out, artifacts.EMBEDDING)
    labels = dbscan.cluster(Y, config.eps, config.min_pts).labels
    index = list(panel.index)
    labelled = [(*key, label) for key, label in zip(index, labels.tolist())]

    artifacts.write_csv(dest / artifacts.LABELS, ["country", "year", "cluster"], labelled)

    switches = dbscan.detect_switches(labels, index)
    artifacts.write_csv(dest / artifacts.SWITCHES,
                        ["country", "year", "from_cluster", "to_cluster"],
                        [[s.country, s.year, s.from_cluster, s.to_cluster] for s in switches])

    membership = dbscan.final_year_membership(labels, index)
    artifacts.write_csv(dest / artifacts.CLUSTER_COUNTRIES, ["country", "cluster"],
                        sorted(membership.items()))

    z = standardize_within_cluster(panel, labels)
    artifacts.write_csv(dest / artifacts.CLUSTER_STANDARDIZED,
                        ["country", "year", "cluster", *GOAL_COLUMNS],
                        artifacts.format_rows(labelled, z))

    if config.gdp is not None:
        gdp = load_gdp(config.gdp)
        rows = []
        for cluster_id, members in dbscan.cluster_members(membership).items():
            values = np.array([gdp[c] for c in members if c in gdp])
            if values.size:
                mean = artifacts.fmt(float(values.mean()), 2)
                spread = artifacts.fmt(float(values.std()), 2)
            else:
                mean = spread = ""
            rows.append(
                [str(cluster_id), str(len(members)), str(values.size), mean, spread]
            )
        header = ["cluster", "n_countries", "n_with_gdp", "gdp_mean", "gdp_std"]
        artifacts.write_csv(dest / artifacts.CLUSTER_GDP, header, rows)


def stage_scan_eps(config: PipelineConfig, dest: Path) -> None:
    """Tabulate cluster count and noise share across the eps grid."""
    _, Y = artifacts.read_matrix(config.out / artifacts.EMBEDDING, 2)
    rows = dbscan.scan_eps(Y, np.array(config.eps_grid), config.min_pts)
    artifacts.write_csv(dest / artifacts.EPS_SCAN, ["eps", "n_clusters", "noise_fraction"],
                        [[artifacts.fmt(e), str(n), artifacts.fmt(f)] for e, n, f in rows])


def stage_correlate(config: PipelineConfig, dest: Path) -> None:
    """Pearson matrices: pooled, per cluster, optionally per year."""
    panel, cluster_column = _read_aligned(config.out, artifacts.LABELS)
    labels = cluster_column[:, 0].astype(int)

    matrices = {artifacts.CORRELATION_GLOBAL: pearson_matrix(panel.scores)}
    for cluster_id, matrix in cluster_correlations(panel, labels).items():
        matrices[artifacts.correlation_cluster_name(cluster_id)] = matrix
    if config.per_year_correlations:
        for year, matrix in yearly_correlations(panel).items():
            matrices[artifacts.correlation_year_name(year)] = matrix

    for name, matrix in matrices.items():
        rows = artifacts.format_rows(zip(GOAL_COLUMNS), matrix, artifacts.SIGNED_CELL)
        artifacts.write_csv(dest / name, ["goal", *GOAL_COLUMNS], rows)


def stage_dynamics(config: PipelineConfig, dest: Path) -> None:
    """Distance-to-ideal series, per-year Gaussian fits, trend extrapolation."""
    panel, cluster_column = _read_aligned(config.out, artifacts.LABELS)
    labels = cluster_column[:, 0].astype(int)
    last_year = max(panel.years)
    labelled = [(*key, label) for key, label in zip(panel.index, labels.tolist())]
    distances = dynamics.distance_series(panel)

    artifacts.write_csv(dest / artifacts.DISTANCES, ["country", "year", "cluster", "distance"],
                        artifacts.format_rows(labelled, distances[:, None]))

    dist_years = [y for y in DISTRIBUTION_YEARS if y in panel.years]
    fit_rows = []
    for cluster_id in dbscan.cluster_ids(labels):
        for year in dist_years:
            try:
                fit = dynamics.cluster_distance_distribution(panel, labels, cluster_id, year)
            except TooFewMembersError:
                continue  # cluster empty or singleton that year
            fit_rows.append(
                [
                    str(fit.cluster),
                    str(fit.year),
                    artifacts.fmt(fit.mean),
                    artifacts.fmt(fit.std),
                    str(fit.n_members),
                ]
            )
    artifacts.write_csv(dest / artifacts.GAUSSIAN_FITS,
                        ["cluster", "year", "mean", "std", "n_members"], fit_rows)

    fits_payload: dict[str, dict] = {}
    for cluster_id, table in dynamics.displacement_table(panel, labels).items():
        artifacts.write_csv(dest / artifacts.trajectory_name(cluster_id),
                            ["year", "mean", "std", "n"],
                            [[str(year), artifacts.fmt(mean), artifacts.fmt(std), str(n)]
                             for year, mean, std, n in table])

        curve = {year: mean for year, mean, _, _ in table}
        try:
            fit = dynamics.fit_trajectory(curve, EXCLUDED_YEARS)
        except SingularFitError:
            continue  # under dynamics.MIN_FIT_YEARS fit years: the series stays, no fit
        fits_payload[str(cluster_id)] = {
            **asdict(fit),
            "last_data_year": last_year,
            "zero_crossing": dynamics.future_root(fit, last_year),
            "attainment_year": dynamics.attainment_year(fit, last_year),
        }
    artifacts.write_json(dest / artifacts.TRAJECTORY_FITS, fits_payload)


# ---------------------------------------------------------------------------
# orchestration


def _stage_figures(config: PipelineConfig, dest: Path) -> None:
    from sdgpipe import figures

    figures.emit_figures(config.out, dest)


@dataclass(frozen=True)
class Stage:
    """One subcommand, declared once.

    run(config, dest) reads config.out and writes only into dest, plainly,
    since run_stage renames each finished file into config.out. exit_code is
    what the CLI returns when it fails, and help its help text.

    writes names every file the stage may write, with `*` for a cluster id or
    a year. Its commit deletes each match that the stage did not write
    again, so a rerun that writes fewer files (no --gdp, fewer clusters)
    leaves none behind.

    config names the PipelineConfig fields its outputs depend on. The
    manifest records their values and checksums the files that its path
    fields name.
    """

    run: Callable[[PipelineConfig, Path], None]
    exit_code: int
    help: str
    writes: tuple[str, ...]
    config: tuple[str, ...] = ()


# In `sdgpipe --help` order.
STAGES = {
    "ingest": Stage(stage_ingest, 2, "load, validate, filter, and standardize the panel",
                    writes=(artifacts.PANEL_FILTERED, artifacts.MOMENTS,
                            artifacts.STANDARDIZED, artifacts.YEARLY_MEANS),
                    config=("panel",)),
    "pca": Stage(stage_pca, 3, "fit the component basis and project observations",
                 writes=(artifacts.PCA_MODEL, artifacts.PCA_PROJECTION,
                         artifacts.PCA_LOADINGS, artifacts.PCA_IDEAL)),
    "tsne": Stage(stage_tsne, 4, "embed component coordinates into the 2-d map",
                  writes=(artifacts.EMBEDDING, artifacts.KL_HISTORY),
                  config=("perplexity", "seed", "iterations")),
    "cluster": Stage(stage_cluster, 5, "density-cluster the map and derive memberships",
                     writes=(artifacts.LABELS, artifacts.SWITCHES, artifacts.CLUSTER_COUNTRIES,
                             artifacts.CLUSTER_STANDARDIZED, artifacts.CLUSTER_GDP),
                     config=("eps", "min_pts", "gdp")),
    "scan-eps": Stage(stage_scan_eps, 9,
                      "tabulate cluster count and noise share over an eps grid",
                      writes=(artifacts.EPS_SCAN,),
                      config=("min_pts", "eps_grid")),
    "correlate": Stage(stage_correlate, 6, "goal correlation matrices, pooled and per cluster",
                       writes=(artifacts.CORRELATION_GLOBAL,
                               artifacts.correlation_cluster_name("*"),
                               artifacts.correlation_year_name("*")),
                       config=("per_year_correlations",)),
    "dynamics": Stage(stage_dynamics, 7,
                      "distance-to-ideal distributions, trends, extrapolation",
                      writes=(artifacts.DISTANCES, artifacts.GAUSSIAN_FITS,
                              artifacts.trajectory_name("*"), artifacts.TRAJECTORY_FITS)),
    "figures": Stage(_stage_figures, 8, "render SVG figures from existing artifacts",
                     writes=(artifacts.PARALLEL_SVG, artifacts.PCA_SCATTER_SVG,
                             artifacts.PCA_BIPLOT_SVG, artifacts.TSNE_CLUSTERS_SVG,
                             artifacts.CLUSTER_PROFILES_SVG,
                             artifacts.svg_name(artifacts.CORRELATION_GLOBAL),
                             artifacts.svg_name(artifacts.correlation_cluster_name("*")),
                             artifacts.svg_name(artifacts.correlation_year_name("*")),
                             artifacts.DISTRIBUTIONS_SVG, artifacts.TRAJECTORIES_SVG)),
}

# scan-eps only tabulates candidate radii for picking eps; a full run takes
# eps as given. A run without eps stops at the scan, so eps can be picked
# from eps_scan.csv.
FULL_RUN = tuple(name for name in STAGES if name != "scan-eps")
SCAN_RUN = (*FULL_RUN[: FULL_RUN.index("cluster")], "scan-eps")


def _commit(out: Path, name: str, write: Callable[[Path], None],
            writes: tuple[str, ...] = ()) -> list[Path]:
    """Call write(dest) on a fresh staging directory out/.<name>.staging. On
    success delete the files in out that match a name or glob of writes and
    were not written again, then rename each written file into out; returns
    their paths in out. The staging directory is removed on success and on
    failure, so a write that raises leaves out as it was."""
    dest = out / f".{name}.staging"
    shutil.rmtree(dest, ignore_errors=True)  # left by an interrupted run
    dest.mkdir(parents=True)
    try:
        write(dest)
        committed = [out / path.name for path in sorted(dest.iterdir())]
        for pattern in writes:
            for path in set(out.glob(pattern)).difference(committed):
                path.unlink()
        for path in committed:
            os.replace(dest / path.name, path)
    finally:
        shutil.rmtree(dest)
    return committed


def run_stage(name: str, config: PipelineConfig) -> tuple[list[Path], float]:
    """Run one stage into a staging directory and commit it into config.out,
    deleting the files of its writes that it did not write again. A failed
    stage leaves config.out as it was and raises StageError."""
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}")
    config.validate()
    stage = STAGES[name]
    start = time.perf_counter()
    try:
        committed = _commit(config.out, name, lambda dest: stage.run(config, dest),
                            stage.writes)
    except Exception as exc:
        raise StageError(name, exc) from exc
    return committed, time.perf_counter() - start


def run_pipeline(config: PipelineConfig) -> Path:
    """Run FULL_RUN if config.eps is set, else SCAN_RUN, in order, and write
    the manifest; returns its path."""
    config.validate()
    stages = FULL_RUN if config.eps is not None else SCAN_RUN
    all_written: list[Path] = []
    timings: list[dict[str, object]] = []
    for name in stages:
        written, seconds = run_stage(name, config)
        all_written.extend(written)
        timings.append({"name": name, "seconds": round(seconds, 3)})
    return write_manifest(config, all_written, timings)


def config_snapshot(config: PipelineConfig) -> dict[str, object]:
    """Field values in JSON form: paths as strings, tuples as lists."""
    snapshot = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        snapshot[f.name] = value
    return snapshot


def numeric_path() -> str:
    """A witness of how this numpy rounds exp and log: their SIMD paths
    differ by an ulp in some values from one CPU to the next, and the
    affinities, and so the embedding, follow them."""
    v = np.linspace(-60.0, 0.0, 4099)
    e = np.exp(v)
    return hashlib.sha256(e.tobytes() + np.log(e).tobytes()).hexdigest()


def write_manifest(
    config: PipelineConfig,
    written: list[Path],
    timings: list[dict[str, object]],
) -> Path:
    """Record the config fields the timed stages declare (and out), timings,
    output checksums, the checksums of the files named by the declared path
    fields, and the environment (the embedding, and so the clusters, can
    differ across Python, numpy and scipy builds and numpy's CPU paths)."""
    declared = {name for t in timings for name in STAGES[t["name"]].config}
    inputs = {}
    for name in sorted(declared):
        value = getattr(config, name)
        if isinstance(value, Path):
            inputs[name] = {"path": str(value), "sha256": artifacts.sha256_of(value)}
    outputs = {
        path.name: artifacts.sha256_of(path)
        for path in sorted(set(written), key=lambda p: p.name)
    }
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "numeric_path": numeric_path(),
    }
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        environment["NPY_DISABLE_CPU_FEATURES"] = os.environ["NPY_DISABLE_CPU_FEATURES"]
    payload = {
        "config": {name: value for name, value in config_snapshot(config).items()
                   if name == "out" or name in declared},
        "environment": environment,
        "inputs": inputs,
        "stages": timings,
        "outputs": outputs,
    }
    [path] = _commit(config.out, "manifest",
                     lambda dest: artifacts.write_json(dest / artifacts.MANIFEST, payload))
    return path
