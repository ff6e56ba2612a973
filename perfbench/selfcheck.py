"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs `fixture` untraced and traced with no measuring time (so one round,
three when traced) and one shortened `study` op (300 t-SNE iterations). It
asserts that every metric of BENCHMARK.json comes out with its unit, that
the report names every end-to-end and per-layer metric of the notes, and
that the per-op checks run and catch planted faults. The shortened study op
changes the map (it has not expanded after 300 iterations), so none of its
figures is reported. Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

run.import_program()

from tracer import LAYER_NAMES  # noqa: E402
from workloads import WORKLOADS, call_cli, check, pick_eps  # noqa: E402

# What the report must print on fixture; op_s is printed as run_s there.
FIXTURE_NAMES = ("run_s (op_s)", "scan_s", "peak_rss_mb", "label_ari", "setup_s", "embed_kl")


def check_metrics(spec: dict, work) -> None:
    untraced = run.bench("fixture", 1, 0.0, False, work / "untraced")
    traced = run.bench("fixture", 1, 0.0, True, work / "traced")
    for result, listed in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert result["correct"], result["problems"]
        line = run.metrics_line(result, spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0, line
        assert [m["name"] for m in listed] == list(line["metrics"]), line["metrics"]
        for m in listed:
            assert line["metrics"][m["name"]]["unit"] == m["unit"] == run.unit_of(m["name"]), m
    assert all(m["name"] in LAYER_NAMES or m["name"] == "trace.overhead_s"
               for m in spec["per_layer"])
    assert spec["end_to_end"][-1]["name"] == "setup_s"
    text = "\n".join(run.report(untraced, spec))
    missing = [n for n in FIXTURE_NAMES if n not in text]
    assert not missing, missing
    text = "\n".join(run.report(traced, spec))
    missing = [n for n in (*LAYER_NAMES, "trace.overhead_s", "accounting") if n not in text]
    assert not missing, missing


def check_checks(work) -> None:
    workload = WORKLOADS["fixture"]
    truth = workload.setup(work / "inputs", 1)
    op = next(workload.ops(0, work / "inputs", work / "ops"))
    op.out.mkdir(parents=True)
    calls = [call_cli(argv) for argv in op.calls]
    digests: dict[str, str] = {}
    clean = check(op, calls, truth, digests, workload.bundled)
    assert clean["reasons"] == [] and clean["digest"] and clean["kl"] > 0, clean
    assert 0.0 < clean["ari"] <= 1.0, clean

    (op.out / "moments.csv").write_text("goal,mean,std\n")
    assert "differ" in check(op, calls, truth, digests, workload.bundled)["reasons"][0]
    (op.out / "correlation_cluster99.svg").write_text("<svg/>")
    assert "stale" in check(op, calls, truth, digests, workload.bundled)["reasons"][0]
    (op.out / "embedding.csv").unlink()
    assert "missing artifacts: embedding.csv" in check(op, calls, truth, digests,
                                                        workload.bundled)["reasons"][0]
    # the staged CLI still needs --panel on every call
    failed = call_cli(["pca", "--out", str(op.out)])
    assert failed.code == 1 and "panel CSV path is required" in failed.output, failed

    table = [(1.0, 7), (2.0, 6), (3.0, 6), (4.0, 6), (5.0, 5), (6.0, 1)]
    assert pick_eps(table) == [3.0, 5.0]
    assert pick_eps([(1.0, 1), (2.0, 0)]) == []


def check_short_study(work) -> None:
    workload = WORKLOADS["study"]
    truth = workload.setup(work / "study", 1)
    op = next(workload.ops(0, work / "study", work / "study-ops"))
    op.calls = [[*argv, "--iterations", "300"] for argv in op.calls]
    op.out.mkdir(parents=True)
    calls = [call_cli(argv) for argv in op.calls]
    assert [c.stage for c in calls] == ["ingest", "pca", "tsne", "scan-eps"], calls
    result = check(op, calls, truth, {}, workload.bundled)
    assert result["reasons"] == [] and result["digest"], result
    assert result["kl"] is not None and result["ari"] is not None, result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.ROOT / ".bench_build" / "perfbench" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_metrics(spec, work)
        check_checks(work)
        check_short_study(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
