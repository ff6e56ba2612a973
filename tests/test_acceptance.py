"""Acceptance gate: one test per release criterion, with pinned tolerances.

Each test records a PASS/FAIL line that the conftest terminal-summary hook
prints after the run, then asserts. The checks here are deliberately
independent of the module test suites: every expected value is either a
frozen constant or recomputed through a brute-force oracle written in this
file.

Criterion 7 needs the real indicator export, which is not bundled. Point
SDG_PANEL_CSV at the panel CSV (canonical long format) to enable it;
otherwise it reports SKIP.

Known red: criterion 1 fails on exactly one of the six reference rows (the
curve crossing zero at 2063.1287 is mapped to year 2064 by the
first-integer-at-or-after rule, while the reference year is 2063). The
other five rows reproduce exactly, and no single rounding convention
reproduces all six (nearest-integer matches only two). The failure is
left visible on purpose rather than special-cased away.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from conftest import ACCEPTANCE_RESULTS, BLOB_LEARNING_RATE, DEMO_SETTINGS, two_blobs
import sdgpipe
from sdgpipe import artifacts, dbscan, dynamics, pca, tsne
from sdgpipe.correlation import pearson_matrix
from sdgpipe.panel import (
    N_GOALS,
    filter_complete,
    load_panel,
    standardize,
    write_gdp_csv,
    write_panel_csv,
    yearly_goal_means,
)
from sdgpipe.pipeline import DEFAULT_EPS_GRID
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

# (a, b, c, expected attainment year) for the six reference trajectories.
REFERENCE_ROWS = (
    (-2799.59, 2.80247, -0.000700922, 2048),
    (-1881.52, 1.89254, -0.000475281, 2063),
    (-669.863, 0.686105, -0.000175162, 2066),
    (-269.743, 0.279532, -0.000072022, 2085),
    (-2903.6, 2.90572, -0.000726443, 2054),
    (-49.7872, 0.0622445, -0.00001835, 2101),
)

DATA_ENV = "SDG_PANEL_CSV"


def _record(number: int, name: str, status: str, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (name, status, detail)


def criterion(number: int, name: str):
    """Record the outcome for the summary block, then assert it."""

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except pytest.skip.Exception:
                raise
            except BaseException as exc:
                _record(number, name, "ERROR", f"{type(exc).__name__}: {exc}")
                raise
            _record(number, name, "PASS" if ok else "FAIL", detail)
            assert ok, f"criterion {number} ({name}): {detail}"

        return runner

    return wrap


# ---------------------------------------------------------------------------
# criterion 1


@criterion(1, "attainment-year round trip")
def test_criterion_1_attainment_round_trip():
    fits = [
        dynamics.TrajectoryFit(
            a=a, b=b, c=c, rms_residual=0.0, years_used=tuple(range(2000, 2020))
        )
        for a, b, c, _ in REFERENCE_ROWS
    ]
    dynamics.attainment_year(fits[0], 2019)  # warm-up, keep timing honest
    start = perf_counter()
    got = [dynamics.attainment_year(fit, 2019) for fit in fits]
    elapsed = perf_counter() - start

    mismatches = [
        f"(a={row[0]}) gave {year}, reference {row[3]}"
        for row, year in zip(REFERENCE_ROWS, got)
        if year != row[3]
    ]
    ok = not mismatches and elapsed < 1e-3
    detail = f"{6 - len(mismatches)}/6 years reproduced in {elapsed * 1e6:.0f} us"
    if mismatches:
        detail += "; " + "; ".join(mismatches)
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 2


@criterion(2, "principal components match brute-force eigendecomposition")
def test_criterion_2_pca_oracle():
    rng = np.random.default_rng(20260822)
    worst_angle = 0.0
    worst_ratio_gap = 0.0
    start = perf_counter()
    for _ in range(20):
        n = int(rng.integers(12, 51))
        k = int(rng.integers(2, 11))
        X = rng.normal(
            loc=rng.uniform(-5.0, 5.0), scale=rng.uniform(0.5, 3.0), size=(n, 17)
        )
        model = pca.fit(X, k)

        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]

        # Sine-based principal angles: arccos of singular values bottoms out
        # near one ulp of 1.0 (about 2e-8) and cannot certify a 1e-8 bound.
        mine = model.components.T
        reference = eigvecs[:, :k]
        residual = reference - mine @ (mine.T @ reference)
        sines = np.linalg.svd(residual, compute_uv=False)
        worst_angle = max(
            worst_angle, float(np.arcsin(np.clip(sines, 0.0, 1.0)).max())
        )
        ratios = eigvals[:k] / eigvals.sum()
        worst_ratio_gap = max(
            worst_ratio_gap,
            float(np.abs(model.explained_variance_ratio - ratios).max()),
        )
    elapsed = perf_counter() - start

    ok = worst_angle < 1e-8 and worst_ratio_gap < 1e-10 and elapsed < 1.0
    detail = (
        f"20 fixtures; worst principal angle {worst_angle:.2e}, "
        f"worst variance-ratio gap {worst_ratio_gap:.2e}, {elapsed:.2f}s"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 3


def blob_separated(Y: np.ndarray, n_per: int) -> bool:
    within = max(pdist(Y[:n_per]).max(), pdist(Y[n_per:]).max())
    return bool(within < cdist(Y[:n_per], Y[n_per:]).min())


@criterion(3, "map embedding correctness suite")
def test_criterion_3_tsne_suite():
    start = perf_counter()
    parts: list[tuple[str, bool, str]] = []

    # (a) achieved perplexity, recomputed from the returned sigmas with a
    # plain unshifted Gaussian formula.
    worst_gap = 0.0
    for seed, perplexity in ((101, 5.0), (102, 15.0), (103, 30.0)):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 8)) * rng.uniform(0.5, 2.0)
        affinity = tsne.joint_affinities(X, perplexity)
        sq = cdist(X, X, "sqeuclidean")
        for i in range(50):
            p = np.exp(-sq[i] / (2.0 * affinity.sigmas[i] ** 2))
            p[i] = 0.0
            p /= p.sum()
            positive = p[p > 0]
            achieved = 2.0 ** float(-(positive * np.log2(positive)).sum())
            worst_gap = max(worst_gap, abs(achieved - perplexity))
    parts.append(("perplexity", worst_gap <= 1e-5, f"max gap {worst_gap:.2e}"))

    # (b) analytic gradient vs central differences.
    worst_rel = 0.0
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 4))
        P = tsne.joint_affinities(X, 3.0).P
        Y = rng.normal(size=(10, 2))
        analytic = tsne.kl_gradient(P, Y)
        numeric = np.zeros_like(Y)
        for i in range(10):
            for j in range(2):
                plus = Y.copy()
                plus[i, j] += h
                minus = Y.copy()
                minus[i, j] -= h
                numeric[i, j] = (
                    tsne.kl_divergence(P, tsne.q_matrix(plus)[0])
                    - tsne.kl_divergence(P, tsne.q_matrix(minus)[0])
                ) / (2.0 * h)
        rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
        worst_rel = max(worst_rel, rel)
    parts.append(("gradient", worst_rel < 1e-4, f"max rel err {worst_rel:.2e}"))

    # (c) KL at the end below KL at step 50. Exaggeration holds until step
    # 250, so the run needs enough plain-objective steps afterwards.
    emb = tsne.run(
        two_blobs(7),
        perplexity=10.0,
        iterations=600,
        seed=7,
        learning_rate=BLOB_LEARNING_RATE,
    )
    kl_at_50 = emb.kl_history[0][1]
    kl_drops = emb.kl_history[0][0] == 50 and emb.final_kl < kl_at_50
    parts.append(("KL decrease", kl_drops, f"{emb.final_kl:.3f} < {kl_at_50:.3f}"))

    # (d) blob separation across seeds.
    separated = 0
    for seed in range(20):
        emb = tsne.run(two_blobs(seed), perplexity=10.0, seed=seed,
                       learning_rate=BLOB_LEARNING_RATE)
        separated += blob_separated(emb.Y, 20)
    parts.append(("separation", separated >= 18, f"{separated}/20 seeds"))

    elapsed = perf_counter() - start
    ok = all(good for _, good, _ in parts) and elapsed < 30.0
    detail = "; ".join(f"{name} {note}" for name, _, note in parts)
    detail += f"; {elapsed:.1f}s"
    failing = [name for name, good, _ in parts if not good]
    if failing:
        detail += "; FAILING: " + ", ".join(failing)
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 4


def closure_oracle(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Reachability-closure clustering, built on all-pairs transitive closure.

    Core points are connected through chains of eps-adjacent cores
    (Floyd-Warshall over core intermediates), components are numbered by
    their smallest core index, and a non-core point takes the smallest
    cluster id among cores adjacent to it.
    """
    distances = cdist(points, points)
    adjacent = distances <= eps
    core = adjacent.sum(axis=1) >= min_pts
    labels = np.full(len(points), dbscan.NOISE, dtype=int)
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return labels

    reach = adjacent[np.ix_(core_idx, core_idx)].copy()
    np.fill_diagonal(reach, True)
    for k in range(core_idx.size):
        reach |= reach[:, [k]] & reach[[k], :]

    representative = np.array(
        [core_idx[np.flatnonzero(row)[0]] for row in reach]
    )
    cluster_id = {rep: i for i, rep in enumerate(sorted(set(representative)))}
    labels[core_idx] = [cluster_id[rep] for rep in representative]

    for i in np.flatnonzero(~core):
        neighbor_cores = core_idx[adjacent[i, core_idx]]
        if neighbor_cores.size:
            labels[i] = min(labels[j] for j in neighbor_cores)
    return labels


@criterion(4, "density clustering equals reachability closure")
def test_criterion_4_dbscan_oracle():
    rng = np.random.default_rng(4242)
    grid = (0.3, 0.6, 1.0, 1.6, 2.5)
    cases = 0
    mismatches = []
    start = perf_counter()
    for fixture in range(50):
        n = int(rng.integers(20, 301))
        n_blobs = int(rng.integers(1, 5))
        centers = rng.uniform(-10.0, 10.0, size=(n_blobs, 2))
        points = centers[rng.integers(0, n_blobs, size=n)] + rng.normal(
            0.0, rng.uniform(0.3, 1.2), size=(n, 2)
        )
        n_scatter = n // 5
        points[:n_scatter] = rng.uniform(-12.0, 12.0, size=(n_scatter, 2))
        min_pts = int(rng.choice((3, 4, 5, 8)))
        for eps in grid:
            mine = dbscan.cluster(points, eps, min_pts).labels
            want = closure_oracle(points, eps, min_pts)
            cases += 1
            if not np.array_equal(mine, want):
                mismatches.append((fixture, eps))
    elapsed = perf_counter() - start

    ok = not mismatches and elapsed < 10.0
    detail = f"{cases} fixture/eps cases, label vectors identical (ARI 1), {elapsed:.1f}s"
    if mismatches:
        detail = f"mismatches at {mismatches[:5]}; " + detail
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 5


@criterion(5, "quadratic recovery on noiseless reference series")
def test_criterion_5_fit_recovery():
    worst = 0.0
    shapes_ok = True
    for a, b, c, _ in REFERENCE_ROWS:
        series = {year: a + b * year + c * year * year for year in range(2000, 2023)}
        fit = dynamics.fit_trajectory(series, excluded_years=(2020, 2021, 2022))
        shapes_ok = shapes_ok and fit.years_used == tuple(range(2000, 2020))
        worst = max(
            worst,
            abs(fit.a - a) / abs(a),
            abs(fit.b - b) / abs(b),
            abs(fit.c - c) / abs(c),
        )
    ok = shapes_ok and worst < 1e-6
    detail = f"six series over 2000-2019, worst coefficient rel err {worst:.2e}"
    if not shapes_ok:
        detail += "; exclusion window not applied"
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 6


def pearson_oracle(X: np.ndarray) -> np.ndarray:
    out = np.eye(X.shape[1])
    for i in range(X.shape[1]):
        for j in range(i + 1, X.shape[1]):
            xi = X[:, i] - X[:, i].mean()
            xj = X[:, j] - X[:, j].mean()
            r = (xi * xj).sum() / np.sqrt((xi**2).sum() * (xj**2).sum())
            out[i, j] = out[j, i] = r
    return out


@criterion(6, "correlation matrix properties")
def test_criterion_6_correlation_properties():
    rng = np.random.default_rng(606)
    worst = {"symmetry": 0.0, "diagonal": 0.0, "bounds": 0.0, "affine": 0.0, "oracle": 0.0}
    for _ in range(6):
        n = int(rng.integers(25, 61))
        scores = rng.uniform(0.0, 100.0, size=(n, N_GOALS))
        values = pearson_matrix(scores)

        worst["symmetry"] = max(worst["symmetry"], float(np.abs(values - values.T).max()))
        worst["diagonal"] = max(worst["diagonal"], float(np.abs(np.diag(values) - 1.0).max()))
        worst["bounds"] = max(worst["bounds"], float(np.abs(values).max()) - 1.0)

        slopes = rng.uniform(0.1, 3.0, size=N_GOALS)
        offsets = rng.uniform(-50.0, 50.0, size=N_GOALS)
        rescaled = pearson_matrix(scores * slopes + offsets)
        worst["affine"] = max(worst["affine"], float(np.abs(values - rescaled).max()))

        worst["oracle"] = max(
            worst["oracle"], float(np.abs(values - pearson_oracle(scores)).max())
        )

    ok = all(v <= 1e-12 for v in worst.values())
    detail = ", ".join(f"{name} {v:.1e}" for name, v in worst.items())
    return ok, f"6 fixtures; worst gaps: {detail}"


# ---------------------------------------------------------------------------
# criterion 7


def plateau_eps(rows: list[tuple[float, int, float]]) -> float | None:
    """Middle eps of the longest consecutive run with a constant cluster
    count, at least 2 clusters, and noise under 50 percent."""
    usable = [n if n >= 2 and noise < 0.5 else None for _, n, noise in rows]
    best_start, best_len = 0, 0
    i = 0
    while i < len(usable):
        if usable[i] is None:
            i += 1
            continue
        j = i
        while j < len(usable) and usable[j] == usable[i]:
            j += 1
        if j - i > best_len:
            best_start, best_len = i, j - i
        i = j
    if best_len == 0:
        return None
    return rows[best_start + (best_len - 1) // 2][0]


@criterion(7, "real-export structural checks")
def test_criterion_7_real_export():
    path = os.environ.get(DATA_ENV)
    if not path:
        _record(
            7,
            "real-export structural checks",
            "SKIP",
            f"set {DATA_ENV}=/path/to/panel.csv to run against the real export",
        )
        pytest.skip(f"{DATA_ENV} not set")

    start = perf_counter()
    checks: list[tuple[str, bool, str]] = []

    panel = filter_complete(load_panel(path))
    checks.append(
        ("107 countries", len(panel.countries) == 107, f"{len(panel.countries)}")
    )
    checks.append(
        ("2461 observations", panel.n_observations == 2461, f"{panel.n_observations}")
    )

    years, means = yearly_goal_means(panel)
    year_row = {int(y): i for i, y in enumerate(years)}
    goal9_2000 = float(means[year_row[2000], 8])
    goal9_2022 = float(means[year_row[2022], 8])
    checks.append(("goal 9 mean 2000 = 29.7 +/- 0.1", abs(goal9_2000 - 29.7) <= 0.1, f"{goal9_2000:.2f}"))
    checks.append(("goal 9 mean 2022 = 55.3 +/- 0.1", abs(goal9_2022 - 55.3) <= 0.1, f"{goal9_2022:.2f}"))

    standardized = standardize(panel)
    model = pca.fit(standardized.z, 10)
    evr = model.explained_variance_ratio * 100.0
    checks.append(("PC1 = 57.5 +/- 1.0 pp", abs(evr[0] - 57.5) <= 1.0, f"{evr[0]:.2f}"))
    checks.append(("PC2 = 8.7 +/- 1.0 pp", abs(evr[1] - 8.7) <= 1.0, f"{evr[1]:.2f}"))
    checks.append(("10 PCs >= 94%", float(evr.sum()) >= 94.0, f"{evr.sum():.2f}"))

    corr = pearson_matrix(panel.scores)
    pair_positive = corr[11, 12] > 0.0
    anti = all(corr[g, 11] < 0.0 and corr[g, 12] < 0.0 for g in range(11))
    checks.append(
        (
            "goals 12 and 13 positive together, negative vs goals 1-11",
            bool(pair_positive and anti),
            f"corr(12,13)={corr[11, 12]:+.2f}",
        )
    )

    coords = pca.project(model, standardized.z)
    labelings: list[np.ndarray | None] = []
    chosen: list[float | None] = []
    affinity = tsne.joint_affinities(coords, perplexity=50.0)  # calibrate once
    for seed in range(5):
        emb = tsne.embed(affinity, seed=seed)
        rows = dbscan.scan_eps(emb.Y, np.array(DEFAULT_EPS_GRID), min_pts=5)
        eps = plateau_eps(rows)
        chosen.append(eps)
        labelings.append(dbscan.cluster(emb.Y, eps, 5).labels if eps else None)

    seed0 = labelings[0]
    if seed0 is None:
        checks.append(("5-7 clusters plus noise", False, "no stable eps plateau"))
    else:
        n_clusters = int(seed0.max() + 1)
        n_noise = int((seed0 == dbscan.NOISE).sum())
        checks.append(
            (
                "5-7 clusters plus noise",
                5 <= n_clusters <= 7 and n_noise > 0,
                f"{n_clusters} clusters, {n_noise} noise points at eps={chosen[0]}",
            )
        )

    if any(lab is None for lab in labelings):
        checks.append(("mean pairwise ARI >= 0.6", False, "missing labelings"))
    else:
        pair_scores = [
            dbscan.adjusted_rand_index(a, b)
            for a, b in itertools.combinations(labelings, 2)
        ]
        mean_ari = float(np.mean(pair_scores))
        checks.append(("mean pairwise ARI >= 0.6", mean_ari >= 0.6, f"{mean_ari:.3f}"))

    elapsed = perf_counter() - start
    checks.append(("runtime under 300 s", elapsed < 300.0, f"{elapsed:.0f}s"))

    ok = all(good for _, good, _ in checks)
    detail = "; ".join(f"{name}: {note}" for name, _, note in checks)
    failing = [name for name, good, _ in checks if not good]
    if failing:
        detail += "; FAILING: " + ", ".join(failing)
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 8


def _digest_tree(out_dir) -> dict[str, str]:
    digests = {}
    for item in sorted(out_dir.iterdir()):
        if item.name == artifacts.MANIFEST:
            continue  # carries wall-clock timings by design
        digests[item.name] = hashlib.sha256(item.read_bytes()).hexdigest()
    return digests


@criterion(8, "byte-identical artifacts across runs and thread settings")
def test_criterion_8_determinism(tmp_path):
    panel = synthetic_panel()
    write_panel_csv(panel, tmp_path / "panel.csv")
    write_gdp_csv(synthetic_gdp(panel), tmp_path / "gdp.csv")
    config_path = tmp_path / "run.cfg"
    lines = [f"panel={tmp_path / 'panel.csv'}", f"gdp={tmp_path / 'gdp.csv'}"]
    lines += [f"{key}={value}" for key, value in DEMO_SETTINGS.items()]
    config_path.write_text("\n".join(lines) + "\n")

    runs = (("first", "1"), ("second", "1"), ("threaded", "4"))
    digests = {}
    for name, threads in runs:
        out_dir = tmp_path / f"out_{name}"
        env = dict(os.environ)
        # the child runs the same sdgpipe this process imported
        source_root = str(Path(sdgpipe.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source_root, env.get("PYTHONPATH")))
        )
        for var in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            env[var] = threads
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "sdgpipe",
                "all",
                "--config",
                str(config_path),
                "--out",
                str(out_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if result.returncode != 0:
            return False, f"run {name} exited {result.returncode}: {result.stderr[-300:]}"
        digests[name] = _digest_tree(out_dir)

    repeat_same = digests["first"] == digests["second"]
    threads_same = digests["first"] == digests["threaded"]
    n_files = len(digests["first"])
    ok = repeat_same and threads_same and n_files >= 15
    detail = (
        f"{n_files} artifacts; repeat run identical: {repeat_same}; "
        f"1-thread vs 4-thread identical: {threads_same}"
    )
    return ok, detail
