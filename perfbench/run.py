"""sdgpipe benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fixture|study|recluster \
        --seed N --seconds S --trace 0|1

One closed-loop client drives `sdgpipe.cli.main` in-process and times every
op from outside; the ops run in one child process, so `peak_rss_mb` leaves
the set-up out. With `--trace 0` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it carries the
per-layer metrics, taken from traced rounds that alternate with untraced
ones. The lines before it are a readable report. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or the op process.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have been
# spent on it, each time from the same seed.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
RUN_LIMIT_S = 170.0  # everything, set-up included, ends before this
# What op_s is called in the notes, per workload.
OP_NAMES = {"fixture": "run_s", "study": "time_to_scan_s", "recluster": "round_s"}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    return {"label_ari": "ratio", "embed_kl": "nats", "tsne.final_kl": "nats"}.get(name, "count")


def import_program():
    """Put the checkout's src/ first on the path and import sdgpipe from it."""
    if not (SRC / "sdgpipe" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdgpipe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdgpipe

    if Path(sdgpipe.__file__).resolve().parent != SRC / "sdgpipe":
        raise SystemExit(f"error: imported sdgpipe from {sdgpipe.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# op process


def worker(plan_path: Path | None) -> int:
    """The op process. Without a plan it stops once it has imported what it
    needs; set-up times that to count starting the op process."""
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, run_ops

    if plan_path is None:
        return 0
    plan = json.loads(plan_path.read_text())
    tracer = Tracer() if plan["trace"] else None
    results, layers = run_ops(WORKLOADS[plan["workload"]], Path(plan["inputs"]),
                              Path(plan["ops_dir"]), plan["truth"], plan["seconds"], tracer)
    Path(plan["out"]).write_text(json.dumps({
        "ops": [asdict(r) for r in results],
        "layers": layers,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [asdict(s) for s in tracer.spans] if tracer else [],
    }))
    return 0


# ---------------------------------------------------------------------------
# statistics and environment


def describe(values: list[float]) -> dict:
    """Median and quartiles with the sample count; a tail percentile only when
    at least ten samples lie beyond it."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return {"n": 0, "median": math.nan}
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (median, median, median)
    out = {"n": n, "min": values[0], "median": median, "q1": q1, "q3": q3}
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None  # e.g. an exported checkout
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one run


def op_process(args: list[str], started: float) -> None:
    """Run this script as the op process and wait for it, within the run limit.

    The wait blocks in waitpid and a timer kills the process at the limit:
    `Popen.wait(timeout)` polls at up to 50 ms intervals, which would add up
    to 50 ms to every timed set-up.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    limit = threading.Timer(max(1.0, RUN_LIMIT_S - (time.monotonic() - started)), proc.kill)
    limit.start()
    try:
        code = proc.wait()
    finally:
        limit.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def bench(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the op process, check and summarise. Returns the result."""
    started = time.monotonic()
    from tracer import LAYER_NAMES, Tracer, layer_metrics
    from workloads import WORKLOADS, digest, final_kl

    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    setup_s, setup_layers, digests = [], [], set()

    def set_up(i: int) -> dict[str, int]:
        """One timed set-up from the seed into work/setup<i>."""
        dest = work / f"setup{i}"
        mode = ("spans", "memory")[i % 2]
        if tracer:
            tracer.op = ("setup", i)
            tracer.install(memory=mode == "memory")
        try:
            start = time.perf_counter()
            truth = workload.setup(dest, seed, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        op_process(["--import-only"], started)
        setup_s.append(time.perf_counter() - start)
        digests.add(digest(dest))
        if tracer:
            spans = [s for s in tracer.spans if s.op == ("setup", i)]
            setup_layers.append((mode, layer_metrics(spans, tracer.spans)))
        return truth

    # The first set-up makes the inputs of the ops. The others run after the
    # ops, so the set-ups span the run and not all of them fall into one slow
    # spell of the machine.
    inputs = work / "setup0"
    plan = {"workload": workload_name, "inputs": str(inputs), "ops_dir": str(work / "ops"),
            "truth": set_up(0), "seconds": seconds, "trace": trace,
            "out": str(work / "results.json")}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    op_process(["--worker", str(plan_path)], started)
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        set_up(len(setup_s))
        shutil.rmtree(work / f"setup{len(setup_s) - 1}")
    done = json.loads((work / "results.json").read_text())
    ops = done["ops"]

    def op_per_round(traced: str) -> list[float]:
        """Wall time of the ops that make up op_s, per round of the given mode."""
        rounds: dict[int, list[dict]] = {}
        for r in ops:
            if r["kind"] in workload.op_kinds and r["traced"] == traced:
                rounds.setdefault(r["round"], []).append(r)
        return [sum(r["seconds"] for r in rs) for rs in rounds.values()
                if all(r["completed"] for r in rs)]

    untraced = [r for r in ops if not r["traced"] and r["completed"]]
    samples = {
        "op_s": op_per_round(""),
        "scan_s": [s for r in untraced for stage, s in r["calls"] if stage == "scan-eps"],
        **({"recluster_s": [r["seconds"] for r in untraced if r["kind"] == "pass"]}
           if workload.name == "recluster" else {}),
        "peak_rss_mb": [done["rss_kb"] / 1024.0],
        "label_ari": [r["ari"] for r in ops
                      if r["scored"] and not r["reasons"] and r["ari"] is not None],
        "setup_s": setup_s,
        "embed_kl": ([final_kl(inputs / "map")] if workload.builds_map else
                     [r["kl"] for r in ops if not r["reasons"] and r["kl"] is not None]),
    }
    stats = {name: describe(values) for name, values in samples.items()}

    layers: dict[str, float] = {}
    if trace:
        for name in LAYER_NAMES:
            # Peaks come from the memory rounds, everything else from the
            # plain traced ones. A layer no op runs (t-SNE on recluster) is
            # read from the set-ups, which take both.
            mode = "memory" if name.endswith("peak_mb") else "spans"
            values = ([d[name] for m, d in done["layers"] if m == mode and name in d]
                      or [d[name] for m, d in setup_layers if m == mode and name in d])
            layers[name] = statistics.median(values) if values else 0.0
        traced_op_s = op_per_round("spans")
        layers["trace.overhead_s"] = (statistics.median(traced_op_s) - stats["op_s"]["median"]
                                      if traced_op_s else math.nan)

    kinds = {r["kind"] for r in ops}
    passed = {r["kind"] for r in ops if not r["reasons"]}
    problems = []
    if len(digests) != 1:
        problems.append("repeated set-ups gave different bytes")
    if not kinds or kinds != passed:
        problems.append(f"op kinds {sorted(kinds - passed)} never passed their checks")
    reported = [stats[n]["median"] for n in samples] + list(layers.values())
    if not all(math.isfinite(v) for v in reported):
        problems.append("a metric could not be computed")
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(), "stats": stats, "layers": layers, "ops": ops,
        "spans": done["spans"], "setup_spans": [asdict(s) for s in tracer.spans] if tracer else [],
        "correct": not problems, "problems": problems,
        "attempted": len(ops), "failed": sum(1 for r in ops if r["reasons"]),
    }


# ---------------------------------------------------------------------------
# output


def report(result: dict, spec: dict) -> list[str]:
    alias = OP_NAMES[result["workload"]]
    lines = [f"sdgpipe benchmark: workload={result['workload']} seed={result['seed']} "
             f"seconds={result['seconds']} trace={int(result['trace'])}",
             "env: " + json.dumps(result["env"], sort_keys=True)]
    stats = result["stats"]
    lines.append("end-to-end (untraced ops):")
    for name, s in stats.items():
        label = f"{alias} (op_s)" if name == "op_s" else name
        extra = "".join(f" {k}={s[k]:.6g}" for k in ("min", "q1", "q3", "p90", "p99")
                        if k in s)
        lines.append(f"  {label:<26} {unit_of(name):<6} median={s['median']:.6g}{extra} n={s['n']}")
    if result["trace"]:
        lines.append("per-layer (median over traced rounds; * = also in BENCHMARK.json):")
        listed = {m["name"] for m in spec["per_layer"]}
        for name, value in result["layers"].items():
            mark = "*" if name in listed else " "
            lines.append(f"  {mark} {name:<28} {unit_of(name):<6} {value:.6g}")
        lines += accounting(result)
    lines.append(f"ops attempted {result['attempted']} failed {result['failed']}")
    reasons: dict[str, int] = {}
    for r in result["ops"]:
        for reason in r["reasons"]:
            key = f"{r['key']}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
    lines += [f"  failed {count}x {key}" for key, count in reasons.items()]
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def accounting(result: dict) -> list[str]:
    """Traced rounds: stage times + manifest + CLI overhead against op wall time."""
    walls: dict[int, float] = {}
    for r in result["ops"]:
        if r["traced"] == "spans":
            walls[r["round"]] = walls.get(r["round"], 0.0) + r["seconds"]
    parts = {"stages": 0.0, "manifest": 0.0, "cli": 0.0}
    for s in (s for s in result["spans"] if s["op"][0] in walls):
        if s["name"] == "cli.main":
            parts["cli"] += s["end"] - s["start"]
        elif s["name"] == "pipeline.manifest":
            parts["manifest"] += s["end"] - s["start"]
        elif s["name"] == "pipeline.stage":
            parts["stages"] += s["end"] - s["start"]
    wall = sum(walls.values())
    overhead = parts["cli"] - parts["stages"] - parts["manifest"]
    return [f"accounting over {len(walls)} traced rounds: op wall {wall:.4f} s = stages "
            f"{parts['stages']:.4f} + manifest {parts['manifest']:.4f} + cli overhead "
            f"{overhead:.4f} + benchmark glue {wall - parts['cli']:.4f}"]


def metrics_line(result: dict, spec: dict) -> dict:
    if result["trace"]:
        values = {m["name"]: (result["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        values = {m["name"]: (result["stats"][m["name"]]["median"], m["unit"])
                  for m in spec["end_to_end"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            # JSON has no NaN; a metric that could not be computed is null
            # and the line says correct: false.
            "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                        for k, (v, u) in values.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sdgpipe benchmark")
    parser.add_argument("--workload", choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker or args.import_only:
        return worker(args.worker)
    if args.workload is None:
        parser.error("--workload is required")
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        (base / f"trace-{args.workload}.json").write_text(json.dumps(
            {"setup": result["setup_spans"], "ops": result["spans"]}))
    for line in report(result, spec):
        print(line)
    print(json.dumps(metrics_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
