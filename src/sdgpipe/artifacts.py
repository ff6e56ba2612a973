"""Artifact file names and small CSV/JSON helpers shared by the stages.

Numeric CSV cells are written at fixed six decimals (correlations at four,
always signed; a missing value as a blank cell) and JSON numbers at full
repr precision, so repeated runs of the same configuration produce
byte-identical files.

format_rows formats a whole row with one % template, and gives exactly the
bytes of the per-cell fmt / fmt_signed: a % template formats a float as the
f-string with the same spec does.

read_matrix reads its file once and splits records on "\n" alone, the line
ending write_csv writes; it does not use str.splitlines, which also splits
on \x0b, \x1c and \u2028. This is exact because no cell the pipeline
writes holds a line break: ingest rejects a country name with one. The
leading cells of a record come from str.split, or from csv.reader when the
record holds a quote, and every numeric column goes to one np.loadtxt call
(comments off, since a country name may start with "#"). numpy's parser
rounds a decimal string as float() does, so the array is bit for bit the
per-cell float() of the cells csv.reader gives. Nothing read is cached:
every call reads its file again.

Every file is written and read as UTF-8, whatever the locale. The writers
write straight to the path they are given: a stage writes into its own
staging directory, which the pipeline commits into the run directory with
one rename per file, so no reader of a run directory sees a half-written
artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

import numpy as np

from sdgpipe.errors import MalformedHeaderError, MissingArtifactError, PipelineError

PANEL_FILTERED = "panel_filtered.csv"
MOMENTS = "moments.csv"
STANDARDIZED = "standardized.csv"
YEARLY_MEANS = "yearly_means.csv"
PCA_MODEL = "pca_model.json"
PCA_PROJECTION = "pca_projection.csv"
PCA_LOADINGS = "pca_loadings.csv"
PCA_IDEAL = "pca_ideal.csv"
EMBEDDING = "embedding.csv"
KL_HISTORY = "kl_history.csv"
LABELS = "labels.csv"
SWITCHES = "switches.csv"
CLUSTER_COUNTRIES = "cluster_countries.csv"
CLUSTER_STANDARDIZED = "cluster_standardized.csv"
CLUSTER_GDP = "cluster_gdp.csv"
EPS_SCAN = "eps_scan.csv"
CORRELATION_GLOBAL = "correlation_global.csv"
DISTANCES = "distances.csv"
GAUSSIAN_FITS = "gaussian_fits.csv"
TRAJECTORY_FITS = "trajectory_fits.json"
MANIFEST = "manifest.json"
PARALLEL_SVG = "parallel.svg"
PCA_SCATTER_SVG = "pca_scatter.svg"
PCA_BIPLOT_SVG = "pca_biplot.svg"
TSNE_CLUSTERS_SVG = "tsne_clusters.svg"
CLUSTER_PROFILES_SVG = "cluster_profiles.svg"
DISTRIBUTIONS_SVG = "distributions.svg"
TRAJECTORIES_SVG = "trajectories.svg"


def correlation_cluster_name(cluster_id: int) -> str:
    return f"correlation_cluster{cluster_id}.csv"


def correlation_year_name(year: int) -> str:
    return f"correlation_year{year}.csv"


def trajectory_name(cluster_id: int) -> str:
    return f"trajectory_cluster{cluster_id}.csv"


def numbered_files(out: Path, name_of: Callable[[int | str], str]) -> dict[int, Path]:
    """The files in out that name_of names, keyed by their cluster id or
    year, in name order: the inverse of one of the name functions above."""
    prefix, suffix = name_of("*").split("*")
    files = {}
    for path in sorted(out.glob(name_of("*"))):
        key = path.name[len(prefix):len(path.name) - len(suffix)]
        if key.isdigit() and name_of(int(key)) == path.name:
            files[int(key)] = path
    return files


def svg_name(csv_name: str) -> str:
    """The figure drawn from one CSV artifact."""
    return csv_name.removesuffix(".csv") + ".svg"


def fmt(value: float, decimals: int = 6) -> str:
    return f"{value:.{decimals}f}"


def fmt_signed(value: float, decimals: int = 4) -> str:
    return f"{value:+.{decimals}f}"


# The % spec of one format_rows cell: fmt's default, and fmt_signed's for
# correlations.
CELL = "%.6f"
SIGNED_CELL = "%+.4f"

# A NaN cell as a % template writes it, sign included.
_NAN_CELL = re.compile(r"[+-]?nan")

# Where np.loadtxt says a cell failed: the reason, its 0-based row and its
# 1-based column.
_LOADTXT_WHERE = re.compile(r"(.*) at row (\d+), column (\d+)\.")


def format_rows(meta: Iterable, values: Iterable, cell: str = CELL) -> list[list]:
    """One CSV row per (leading cells, numbers) pair: the leading cells as
    given (csv.writer writes an int as str does), the numbers as one cell
    spec per number joined by commas, and a NaN as a blank cell. values
    is a 2-d array or an iterable of equal-length rows."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    numbers = np.asarray(values, dtype=float).tolist()
    if not numbers:
        return []
    template = ",".join([cell] * len(numbers[0]))
    rows = []
    for cells, row in zip(meta, numbers):
        text = template % tuple(row)
        if "nan" in text:
            text = _NAN_CELL.sub("", text)
        rows.append([*cells, *text.split(",")])
    return rows


def write_text(path: Path, text: str) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(text)


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise MissingArtifactError(path.name)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise MissingArtifactError(path.name)
    return rows[0], rows[1:]


def read_matrix(path: Path, meta_columns: int, header: Sequence[str] | None = None
                ) -> tuple[list[list[str]], np.ndarray]:
    """Rows of leading string cells plus the numeric remainder as a
    (rows, columns) array, also when the file holds only its header or no
    numeric column. With header given, a file whose header differs raises
    MalformedHeaderError. A blank row, a row whose cell count is not the
    header's, and a blank or non-numeric number raise ValueError."""
    if not path.exists():
        raise MissingArtifactError(path.name)
    lines = path.read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MissingArtifactError(path.name)
    got = next(csv.reader(lines[:1]))
    if header is not None and got != list(header):
        raise MalformedHeaderError(
            f"{path.name}: expected header {','.join(header)}, got {','.join(got)}"
        )
    width, rows = len(got), lines[1:]
    meta = []
    for row_no, line in enumerate(rows, start=2):
        if not line:
            raise ValueError(f"{path.name}: row {row_no} is blank")
        if '"' in line:
            cells = next(csv.reader([line]))
            count, lead = len(cells), cells[:meta_columns]
        else:
            count, lead = line.count(",") + 1, line.split(",", meta_columns)[:meta_columns]
        if count != width:
            raise ValueError(f"{path.name}: row {row_no} has {count} cells, expected {width}")
        meta.append(lead)
    if not rows or width == meta_columns:
        return meta, np.empty((len(rows), width - meta_columns))
    try:
        data = np.loadtxt(rows, delimiter=",", quotechar='"',
                          usecols=range(meta_columns, width), dtype=float, ndmin=2,
                          comments=None)
    except ValueError as exc:
        # numpy counts the rows it was given from 0; name the file's row
        found = _LOADTXT_WHERE.fullmatch(str(exc))
        if found is None:
            raise ValueError(f"{path.name}: {exc}") from exc
        reason, row, column = found.groups()
        raise ValueError(f"{path.name}: row {int(row) + 2}, column {column}: {reason}") from None
    return meta, data


def read_aligned(out: Path, names: Sequence[str], header: Sequence[str] | None = None
                 ) -> tuple[list[list[str]], list[np.ndarray]]:
    """The first named artifact's (country, year) rows, which each other one must
    list in the same order, and every one's numeric columns; header is the first's."""
    read = [read_matrix(out / name, 2, header if k == 0 else None)
            for k, name in enumerate(names)]
    for name, (rows, _) in zip(names[1:], read[1:]):
        if rows != read[0][0]:
            raise PipelineError(f"{name} rows do not line up with {names[0]}")
    return read[0][0], [data for _, data in read]


def write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: Path) -> dict:
    if not path.exists():
        raise MissingArtifactError(path.name)
    return json.loads(path.read_text(encoding="utf-8"))


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
