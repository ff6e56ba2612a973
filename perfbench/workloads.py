"""The sdgpipe workloads: generated inputs, set-up, ops and per-op checks.

Every op is one or more `sdgpipe.cli.main` calls, made in-process and timed
from outside. The workload seed goes to `synthetic_panel` only; the program
sees nothing but the CSV files written here.

Two defects of the program are worked around, not hidden:
- the staged CLI needs `--panel` on every call (`sdgpipe pca --out DIR`
  exits 1 with "panel CSV path is required"), so every call passes it;
- each single-stage call overwrites `manifest.json` with its own stage only,
  so no check relies on the manifest, and digests leave it out.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import sdgpipe.cli
import sdgpipe.dbscan
from sdgpipe.panel import write_panel_csv
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel
from tracer import layer_metrics

MIN_PTS = 5
# The default grid (0.5..8.0) sees one 6-cluster plateau at 690 rows; this
# one also reaches the merges around eps 13-16, so a plateau with fewer
# clusters sits next to the widest one.
RECLUSTER_GRID = ",".join(f"{k}.0" for k in range(1, 17))

STAGE_FILES = {
    "ingest": ("panel_filtered.csv", "moments.csv", "standardized.csv", "yearly_means.csv"),
    "pca": ("pca_model.json", "pca_projection.csv", "pca_loadings.csv", "pca_ideal.csv"),
    "tsne": ("embedding.csv", "kl_history.csv"),
    "cluster": ("labels.csv", "switches.csv", "cluster_countries.csv",
                "cluster_standardized.csv"),
    "scan-eps": ("eps_scan.csv",),
    "correlate": ("correlation_global.csv",),
    "dynamics": ("distances.csv", "gaussian_fits.csv", "trajectory_fits.json"),
    "figures": ("parallel.svg", "pca_scatter.svg", "pca_biplot.svg", "tsne_clusters.svg",
                "cluster_profiles.svg", "correlation_global.svg", "distributions.svg",
                "trajectories.svg"),
}
FULL_RUN = ("ingest", "pca", "tsne", "cluster", "correlate", "dynamics", "figures")
# Per-cluster files and the stage that writes each.
PER_CLUSTER = (("correlation_cluster{}.csv", "correlate"),
               ("trajectory_cluster{}.csv", "dynamics"),
               ("correlation_cluster{}.svg", "figures"))
PER_CLUSTER_RE = re.compile(r"(?:correlation|trajectory)_cluster(\d+)\.(?:csv|svg)")


# ---------------------------------------------------------------------------
# calling the program


@dataclass
class Call:
    stage: str
    code: int
    seconds: float
    output: str


def call_cli(argv: list[str], tracer=None) -> Call:
    """One `sdgpipe.cli.main` call with its output captured, timed from outside."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        span = tracer.open("cli.main") if tracer else None
        start = time.perf_counter()
        try:
            code = sdgpipe.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if span:
            tracer.close(span)
    return Call(argv[0], code, seconds, sink.getvalue())


# ---------------------------------------------------------------------------
# inputs and set-up


def write_inputs(dest: Path, seed: int, countries: int, groups: int,
                 bundled: bool) -> dict[str, int]:
    """panel.csv from the seed; returns country -> latent group.

    With bundled, the panel is the bundled fixture (synthetic_panel's own
    seed) and the seed draws gdp.csv instead. Drawing the fixture panel from
    the seed would make some seeds hit a known defect on every op: at eps 5.0
    a lone noise point makes `cluster` exit 5 (ROADMAP 4(a)).
    """
    dest.mkdir(parents=True, exist_ok=True)
    if bundled:
        panel = synthetic_panel(n_countries=countries, n_groups=groups)
    else:
        panel = synthetic_panel(n_countries=countries, n_groups=groups, seed=seed)
    write_panel_csv(panel, dest / "panel.csv")
    if bundled:
        table = synthetic_gdp(panel, seed=seed)
        with (dest / "gdp.csv").open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["country", "gdp_per_capita"])
            for country in sorted(table):
                writer.writerow([country, f"{table[country]:.2f}"])
    # synthetic_panel assigns country i (in generation order) to group i % groups
    return {country: i % groups for i, country in enumerate(panel.countries)}


def digest(directory: Path, names=None) -> str:
    """sha256 over the names and bytes of the given files (default: every
    file below directory), manifest.json left out."""
    if names is None:
        names = [str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file()]
    total = hashlib.sha256()
    for name in sorted(n for n in set(names) if Path(n).name != "manifest.json"):
        total.update(name.encode())
        total.update(hashlib.sha256((directory / name).read_bytes()).digest())
    return total.hexdigest()


# ---------------------------------------------------------------------------
# reading results back


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))[1:]


def scan_table(directory: Path) -> list[tuple[float, int]]:
    return [(float(row[0]), int(row[1])) for row in read_rows(directory / "eps_scan.csv")]


def pick_eps(table: list[tuple[float, int]]) -> list[float]:
    """The fixed eps rule: the middle of the widest plateau, then the middle of
    a neighbouring plateau with fewer (but at least one) clusters.

    A plateau is a run of consecutive grid values with the same cluster count
    of at least 2; ties go to the smaller eps. The neighbour after the widest
    plateau is preferred to the one before it. Returns [] without a plateau.
    """
    runs: list[tuple[int, list[float]]] = []
    for eps, count in table:
        if runs and runs[-1][0] == count:
            runs[-1][1].append(eps)
        else:
            runs.append((count, [eps]))
    plateaus = [i for i, (count, _) in enumerate(runs) if count >= 2]
    if not plateaus:
        return []
    widest = max(plateaus, key=lambda i: len(runs[i][1]))

    def middle(i: int) -> float:
        values = runs[i][1]
        return values[(len(values) - 1) // 2]

    chosen = [middle(widest)]
    for j in (widest + 1, widest - 1):
        if 0 <= j < len(runs) and 1 <= runs[j][0] < runs[widest][0]:
            chosen.append(middle(j))
            break
    return chosen


def labels_ari(directory: Path, truth: dict[str, int]) -> float:
    rows = read_rows(directory / "labels.csv")
    return sdgpipe.dbscan.adjusted_rand_index([int(r[2]) for r in rows],
                                              [truth[r[0]] for r in rows])


def plateau_ari(directory: Path, truth: dict[str, int]) -> float:
    """ARI of the labels at the widest plateau of eps_scan.csv, clustering the
    written map with the program's own DBSCAN (study stops before `cluster`)."""
    eps = pick_eps(scan_table(directory))
    if not eps:
        raise ValueError("eps_scan.csv has no plateau")
    rows = read_rows(directory / "embedding.csv")
    points = [[float(v) for v in r[2:]] for r in rows]
    labels = sdgpipe.dbscan.cluster(points, eps[0], MIN_PTS).labels
    return sdgpipe.dbscan.adjusted_rand_index(labels, [truth[r[0]] for r in rows])


def final_kl(directory: Path) -> float:
    return float(read_rows(directory / "kl_history.csv")[-1][1])


# ---------------------------------------------------------------------------
# ops and checks


@dataclass
class Op:
    kind: str              # what the op is, for grouping timings
    key: str               # repetitions with the same key must give the same bytes
    calls: list[list[str]]
    out: Path
    fresh: bool = False    # start from an empty directory
    scored: bool = False   # its label ARI is the workload's label_ari


@dataclass
class OpResult:
    kind: str
    key: str
    round: int
    traced: str            # "", "spans" or "memory" (spans plus tracemalloc peaks)
    seconds: float
    calls: list[tuple[str, float]]
    completed: bool
    reasons: list[str] = field(default_factory=list)
    digest: str | None = None  # of the op's artifacts, once the checks got that far
    kl: float | None = None
    ari: float | None = None
    scored: bool = False


def check(op: Op, calls: list[Call], truth: dict[str, int],
          digests: dict[str, str], gdp: bool) -> dict:
    """Failure reasons (empty when the op passed), artifact digest, final KL
    and label ARI of one op."""
    reasons = [f"{c.stage} exited {c.code}: {(c.output.strip().splitlines() or [''])[-1]}"
               for c in calls if c.code != 0]
    stages = [s for c in op.calls for s in (FULL_RUN if c[0] == "all" else (c[0],))]
    expected = {name for s in stages for name in STAGE_FILES[s]} | {"manifest.json"}
    if gdp and "cluster" in stages:
        expected.add("cluster_gdp.csv")
    try:
        countries = op.out / "cluster_countries.csv"
        if countries.exists():
            final = {int(r[1]) for r in read_rows(countries) if int(r[1]) >= 0}
            expected |= {pattern.format(k) for pattern, stage in PER_CLUSTER
                         if stage in stages for k in final}
        missing = sorted(name for name in expected if not (op.out / name).exists())
        if missing:
            reasons.append(f"missing artifacts: {', '.join(missing)}")
        if "cluster" in stages and (op.out / "labels.csv").exists():
            present = {int(r[2]) for r in read_rows(op.out / "labels.csv")}
            stale = sorted(p.name for p in op.out.iterdir()
                           if (m := PER_CLUSTER_RE.fullmatch(p.name))
                           and int(m.group(1)) not in present)
            if stale:
                reasons.append("stale per-cluster files for clusters not in labels.csv: "
                               + ", ".join(stale))
    except (ValueError, IndexError) as exc:
        reasons.append(f"cluster_countries.csv or labels.csv unreadable: {exc!r}")
    if reasons:
        return {"reasons": reasons}
    got = digest(op.out, expected)
    if digests.setdefault(op.key, got) != got:
        reasons.append("artifact digests differ from an earlier repetition")
    kl = ari = None
    try:
        if "tsne" in stages:
            kl = final_kl(op.out)
        if "cluster" in stages:
            ari = labels_ari(op.out, truth)
        elif "tsne" in stages and "scan-eps" in stages:
            ari = plateau_ari(op.out, truth)
        elif "scan-eps" in stages and not scan_table(op.out):
            reasons.append("eps_scan.csv is empty")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        reasons.append(f"label_ari/embed_kl cannot be computed: {exc!r}")
    return {"reasons": reasons, "digest": got, "kl": kl, "ari": ari}


# ---------------------------------------------------------------------------
# the workloads


@dataclass
class Workload:
    name: str
    countries: int
    groups: int
    bundled: bool            # the bundled fixture panel plus a seeded gdp.csv
    op_kinds: tuple[str, ...]  # the ops of a round whose summed wall time is op_s
    builds_map: bool = False

    def setup(self, dest: Path, seed: int, tracer=None) -> dict[str, int]:
        """Inputs from the seed, plus (recluster) a converged map in dest/map."""
        truth = write_inputs(dest, seed, self.countries, self.groups, self.bundled)
        if self.builds_map:
            for stage in ("ingest", "pca", "tsne"):
                done = call_cli([stage, "--panel", str(dest / "panel.csv"),
                                 "--out", str(dest / "map"), "--seed", "0"], tracer)
                if done.code != 0:
                    raise RuntimeError(f"set-up {stage} exited {done.code}: {done.output}")
        return truth

    def ops(self, k: int, inputs: Path, ops_dir: Path) -> Iterator[Op]:
        """The ops of round k, in order; a recluster round reads its scan's
        table before it yields the passes."""
        panel = ["--panel", str(inputs / "panel.csv")]
        if self.name == "fixture":
            out = ops_dir / f"r{k}"
            common = [*panel, "--gdp", str(inputs / "gdp.csv"), "--out", str(out),
                      "--perplexity", "30", "--iterations", "400", "--eps", "5.0",
                      "--min-pts", str(MIN_PTS), "--seed", "0"]
            yield Op("run", "run", [["all", *common]], out, fresh=True, scored=True)
            yield Op("scan", "scan", [["scan-eps", *common]], out)
        elif self.name == "study":
            out = ops_dir / f"r{k}"
            common = [*panel, "--out", str(out), "--seed", "0"]
            yield Op("run", "run",
                     [[stage, *common] for stage in ("ingest", "pca", "tsne", "scan-eps")],
                     out, fresh=True, scored=True)
        else:
            out = inputs / "map"
            common = [*panel, "--out", str(out), "--seed", "0"]
            yield Op("scan", "scan", [["scan-eps", *common, "--eps-grid", RECLUSTER_GRID]], out)
            try:
                chosen = pick_eps(scan_table(out))
            except (OSError, ValueError, IndexError):
                chosen = []  # the scan op's own check reports why
            for i, eps in enumerate(chosen):
                with_eps = [*common, "--eps", f"{eps:g}"]
                yield Op("pass", f"pass@{eps:g}",
                         [["cluster", *with_eps], ["correlate", *with_eps],
                          ["dynamics", *with_eps], ["figures", *with_eps]],
                         out, scored=(i == 0))


WORKLOADS = {
    # the bundled 12-country fixture, `sdgpipe all` with the demo settings
    "fixture": Workload("fixture", countries=12, groups=3, bundled=True, op_kinds=("run",)),
    # 30 countries x 23 years = 690 rows, default config, staged up to scan-eps
    "study": Workload("study", countries=30, groups=6, bundled=False, op_kinds=("run",)),
    # the study shape; ops re-cluster one converged map built in set-up
    "recluster": Workload("recluster", countries=30, groups=6, bundled=False,
                          op_kinds=("scan", "pass"), builds_map=True),
}


def run_ops(workload: Workload, inputs: Path, ops_dir: Path, truth: dict[str, int],
            seconds: float, tracer=None) -> tuple[list[OpResult], list]:
    """The closed loop: rounds of ops until `seconds` have passed.

    With a tracer, rounds rotate between untraced, traced and traced with
    memory peaks, so one run gives both sides of the tracing overhead, and
    the loop stops no earlier than one round of each. Returns the op results
    and the per-layer figures of each traced round.
    """
    modes = ("", "spans", "memory") if tracer else ("",)
    results: list[OpResult] = []
    traced_layers: list[tuple[str, dict]] = []
    digests: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = modes[k % len(modes)]
        fresh_dirs = []
        for i, op in enumerate(workload.ops(k, inputs, ops_dir)):
            if op.fresh:
                shutil.rmtree(op.out, ignore_errors=True)
                op.out.mkdir(parents=True)
                fresh_dirs.append(op.out)
            if traced:
                tracer.op = (k, i)
                tracer.install(memory=traced == "memory")
            try:
                start = time.perf_counter()
                calls = [call_cli(argv, tracer if traced else None) for argv in op.calls]
                wall = time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            results.append(OpResult(op.kind, op.key, k, traced, wall,
                                    [(c.stage, c.seconds) for c in calls],
                                    completed=all(c.code == 0 for c in calls),
                                    scored=op.scored,
                                    **check(op, calls, truth, digests, workload.bundled)))
        if traced:
            spans = [s for s in tracer.spans if s.op[0] == k]
            traced_layers.append((traced, layer_metrics(spans, tracer.spans)))
        for directory in fresh_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        k += 1
        if time.perf_counter() >= deadline and k >= len(modes):
            return results, traced_layers
