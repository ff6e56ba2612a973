"""Per-layer tracing of sdgpipe from outside the package.

Each public function is wrapped where its caller looks it up: a name bound
by `from x import f` lives in the caller's module, a name reached as
`module.f` lives in `module`. A wrapper records a span (name, start, end,
parent span, op id) plus a few counts taken from the arguments and result,
and keeps everything in memory. `layer_metrics` turns the spans of one op
into the per-layer figures the benchmark reports.

Nothing under `src/` is changed: `install` swaps module attributes and
`uninstall` puts the originals back, so untraced ops run the plain code.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import sdgpipe.artifacts
import sdgpipe.cli
import sdgpipe.dbscan
import sdgpipe.dynamics
import sdgpipe.figures
import sdgpipe.pca
import sdgpipe.pipeline
import sdgpipe.tsne


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _size(path) -> int:
    return Path(path).stat().st_size


def _stage(attrs, args, kwargs, result):
    attrs["stage"] = args[0]


def _path_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = _size(args[0])


def _tsne_run(attrs, args, kwargs, result):
    attrs["n"] = int(result.Y.shape[0])
    attrs["iterations"] = int(result.kl_history[-1][0]) if result.kl_history else 0
    attrs["final_kl"] = float(result.final_kl)


def _scan(attrs, args, kwargs, result):
    attrs["eps"] = len(result)


def _figures(attrs, args, kwargs, result):
    svgs = [Path(p) for p in result if str(p).endswith(".svg")]
    attrs["files"] = len(svgs)
    attrs["svg_bytes"] = sum(_size(p) for p in svgs)


def _panel(attrs, args, kwargs, result):
    attrs["rows"] = int(result.n_observations)


def _one_matrix(attrs, args, kwargs, result):
    attrs["matrices"] = 1


def _matrices(attrs, args, kwargs, result):
    attrs["matrices"] = len(result)


def _one_fit(attrs, args, kwargs, result):
    attrs["fits"] = 1


# (module, attribute, span name, result hook, take a tracemalloc peak)
PATCHES = (
    (sdgpipe.cli, "run_pipeline", "pipeline.run_pipeline", None, False),
    (sdgpipe.cli, "run_stage", "pipeline.stage", _stage, False),
    (sdgpipe.pipeline, "run_stage", "pipeline.stage", _stage, False),
    (sdgpipe.cli, "write_manifest", "pipeline.manifest", None, False),
    (sdgpipe.pipeline, "write_manifest", "pipeline.manifest", None, False),
    (sdgpipe.tsne, "run", "tsne.run", _tsne_run, True),
    (sdgpipe.tsne, "joint_affinities", "tsne.joint_affinities", None, False),
    (sdgpipe.tsne, "kl_divergence", "tsne.kl", None, False),
    (sdgpipe.tsne, "q_matrix", "tsne.q_matrix", None, False),
    (sdgpipe.dbscan, "scan_eps", "dbscan.scan_eps", _scan, True),
    (sdgpipe.dbscan, "cluster", "dbscan.cluster", None, True),
    (sdgpipe.artifacts, "write_csv", "artifacts.write", _path_bytes, False),
    (sdgpipe.artifacts, "write_json", "artifacts.write", _path_bytes, False),
    (sdgpipe.artifacts, "read_csv", "artifacts.read", _path_bytes, False),
    (sdgpipe.artifacts, "read_json", "artifacts.read", _path_bytes, False),
    (sdgpipe.artifacts, "sha256_of", "artifacts.hash", _path_bytes, False),
    (sdgpipe.figures, "emit_figures", "figures.emit", _figures, False),
    (sdgpipe.pipeline, "load_panel", "panel.load", _panel, False),
    (sdgpipe.pca, "fit", "pca.fit", None, False),
    (sdgpipe.pipeline, "pearson_matrix", "correlation", _one_matrix, False),
    (sdgpipe.pipeline, "cluster_correlations", "correlation", _matrices, False),
    (sdgpipe.pipeline, "yearly_correlations", "correlation", _matrices, False),
    (sdgpipe.dynamics, "distance_series", "dynamics", None, False),
    (sdgpipe.dynamics, "cluster_distance_distribution", "dynamics", _one_fit, False),
    (sdgpipe.dynamics, "displacement_table", "dynamics", None, False),
    (sdgpipe.dynamics, "fit_trajectory", "dynamics", _one_fit, False),
    (sdgpipe.dynamics, "attainment_year", "dynamics", None, False),
)


class Tracer:
    """Spans and counts of the traced ops, held in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, hook, memory):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            started_tracing = memory and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            if memory:
                tracemalloc.reset_peak()
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
                if memory:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                if started_tracing:
                    tracemalloc.stop()
            if hook is not None:
                hook(span.attrs, args, kwargs, result)
            return result

        return traced

    def install(self, memory: bool = False) -> None:
        """Wrap every entry of PATCHES; with memory, also take tracemalloc peaks
        around tsne.run and the dbscan calls. tracemalloc slows the Python
        parts of those calls several times over, so rounds that take peaks
        are not used for times."""
        for module, attr, name, hook, peak in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook, peak and memory))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


STAGES = ("ingest", "pca", "tsne", "scan-eps", "cluster", "correlate", "dynamics",
          "figures")
# Every figure layer_metrics can give, in report order.
LAYER_NAMES = (
    "tsne.iter_ms", "tsne.pairs_per_s", "tsne.calibrate_s", "tsne.kl_s", "tsne.kl_calls",
    "tsne.peak_mb", "tsne.final_kl",
    "dbscan.scan_s", "dbscan.per_eps_ms", "dbscan.cluster_s", "dbscan.eps_evaluated",
    "dbscan.peak_mb",
    "artifacts.write_s", "artifacts.read_s", "artifacts.hash_s", "artifacts.files_written",
    "artifacts.bytes_written", "artifacts.bytes_read", "artifacts.bytes_hashed",
    "figures.s", "figures.files", "figures.svg_bytes",
    "panel.load_s", "panel.load_calls", "panel.rows_parsed",
    "correlation.s", "correlation.matrices", "dynamics.s", "dynamics.fits",
    "pca.fit_s",
    *(f"pipeline.{stage}_s" for stage in STAGES),
    "pipeline.manifest_s", "cli.overhead_s",
)


def layer_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for one op (or one set-up) from its spans.

    Times of leaf layers (artifacts, panel, pca, dbscan, correlation,
    dynamics, t-SNE calibration and KL) are the spans' durations. `tsne.run`
    and `figures.emit` report self time: duration minus the wrapped calls
    inside them. `pipeline.<stage>_s` and `pipeline.manifest_s` are whole
    call durations, and `cli.overhead_s` is the `cli.main` time that no stage
    or manifest call covers, so the three add up to the op's CLI time.
    """
    index = {id(span): i for i, span in enumerate(all_spans)}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds

    def self_time(span: Span) -> float:
        return span.seconds - child_time.get(index[id(span)], 0.0)

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        # A layer calling itself (dynamics.displacement_table calls
        # distance_series) counts once, through its outermost span.
        return sum(s.seconds for s in by_name.get(name, ())
                   if s.parent is None or all_spans[s.parent].name != name)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    runs = by_name.get("tsne.run", [])
    if runs:
        loop_s = sum(self_time(s) for s in runs)
        iterations = sum(s.attrs["iterations"] for s in runs)
        pairs = sum(s.attrs["n"] * (s.attrs["n"] - 1) * s.attrs["iterations"] for s in runs)
        out["tsne.iter_ms"] = 1000.0 * loop_s / iterations
        out["tsne.pairs_per_s"] = pairs / loop_s
        out["tsne.calibrate_s"] = total("tsne.joint_affinities")
        out["tsne.kl_s"] = total("tsne.kl") + total("tsne.q_matrix")
        out["tsne.kl_calls"] = len(by_name.get("tsne.kl", []))
        if "peak_bytes" in runs[0].attrs:
            out["tsne.peak_mb"] = max(s.attrs["peak_bytes"] for s in runs) / 2**20
        out["tsne.final_kl"] = runs[-1].attrs["final_kl"]
    scans = by_name.get("dbscan.scan_eps", [])
    clusters = by_name.get("dbscan.cluster", [])
    if scans:
        out["dbscan.scan_s"] = total("dbscan.scan_eps")
        out["dbscan.eps_evaluated"] = attr_sum("dbscan.scan_eps", "eps")
        out["dbscan.per_eps_ms"] = 1000.0 * out["dbscan.scan_s"] / out["dbscan.eps_evaluated"]
    if clusters:
        out["dbscan.cluster_s"] = total("dbscan.cluster")
    if (scans or clusters) and "peak_bytes" in (scans + clusters)[0].attrs:
        out["dbscan.peak_mb"] = max(s.attrs["peak_bytes"] for s in scans + clusters) / 2**20
    for kind, name in (("write", "artifacts.write"), ("read", "artifacts.read"),
                       ("hash", "artifacts.hash")):
        if name in by_name:
            out[f"artifacts.{kind}_s"] = total(name)
    if "artifacts.write" in by_name:
        out["artifacts.files_written"] = len(by_name["artifacts.write"])
        out["artifacts.bytes_written"] = attr_sum("artifacts.write", "bytes")
    if "artifacts.read" in by_name:
        out["artifacts.bytes_read"] = attr_sum("artifacts.read", "bytes")
    if "artifacts.hash" in by_name:
        out["artifacts.bytes_hashed"] = attr_sum("artifacts.hash", "bytes")
    if "figures.emit" in by_name:
        out["figures.s"] = sum(self_time(s) for s in by_name["figures.emit"])
        out["figures.files"] = attr_sum("figures.emit", "files")
        out["figures.svg_bytes"] = attr_sum("figures.emit", "svg_bytes")
    if "panel.load" in by_name:
        out["panel.load_s"] = total("panel.load")
        out["panel.load_calls"] = len(by_name["panel.load"])
        out["panel.rows_parsed"] = attr_sum("panel.load", "rows")
    if "correlation" in by_name:
        out["correlation.s"] = total("correlation")
        out["correlation.matrices"] = attr_sum("correlation", "matrices")
    if "dynamics" in by_name:
        out["dynamics.s"] = total("dynamics")
        out["dynamics.fits"] = attr_sum("dynamics", "fits")
    if "pca.fit" in by_name:
        out["pca.fit_s"] = total("pca.fit")
    stage_s = 0.0
    for stage in STAGES:
        spans_of = [s for s in by_name.get("pipeline.stage", ()) if s.attrs["stage"] == stage]
        if spans_of:
            out[f"pipeline.{stage}_s"] = sum(s.seconds for s in spans_of)
            stage_s += out[f"pipeline.{stage}_s"]
    if "cli.main" in by_name:
        out["pipeline.manifest_s"] = total("pipeline.manifest")
        out["cli.overhead_s"] = total("cli.main") - stage_s - out["pipeline.manifest_s"]
    return out
