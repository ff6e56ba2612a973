"""Command line entry point.

One subcommand per stage plus `all` for the full run, which stops at the
eps scan and prints it when no eps is given, and otherwise ends by printing
each cluster's countries and projected attainment year. Values come from an
optional key=value config file, overridden by flags. Every stage failure
maps to its own exit code so shell callers can tell where a run died; usage
errors, argparse's included, exit USAGE_EXIT.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.dbscan import cluster_members, cluster_name
from sdgpipe.errors import PipelineError, StageError
from sdgpipe.pipeline import (
    FIELD_PARSERS,
    STAGES,
    PipelineConfig,
    apply_overrides,
    load_config,
    parse_path,
    run_pipeline,
    run_stage,
    write_manifest,
)

USAGE_EXIT = 1


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes: --config and one flag per config
    field. Built once and shared as a parent, not once per subcommand."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", type=parse_path, help="key=value config file")
    for f in fields(PipelineConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if f.type == "bool":
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            metavar = "V1,V2,..." if f.type.startswith("tuple") else None
            kind = {"type": FIELD_PARSERS[f.name], "metavar": metavar}
        parser.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **kind)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdgpipe",
        description="Panel standardization, PCA, t-SNE, density clustering, "
        "and distance-to-ideal dynamics over country indicator data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]
    for name, stage in STAGES.items():
        sub.add_parser(name, help=stage.help, parents=common)
    sub.add_parser("all", help="run every stage; without --eps, stop after scan-eps",
                   parents=common)
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    return apply_overrides(config, **overrides)


def _print_summary(out: Path) -> None:
    """The run's headline results: each cluster's final-year countries, noise
    first, then each cluster's projected attainment year. A character that
    stdout cannot encode (a country name under an ASCII locale) is printed
    as a backslash escape."""
    _, rows = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
    members = cluster_members({country: int(cluster_id) for country, cluster_id in rows})
    lines = []
    for cluster_id, countries in members.items():
        lines.append(f"  {cluster_name(cluster_id)}: {', '.join(countries)}")
    fits = artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
    for cluster_id in sorted(fits, key=int):
        year = fits[cluster_id]["attainment_year"]
        when = "never (no future zero)" if year is None else year
        lines.append(f"  cluster {cluster_id}: projected attainment {when}")
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    for line in lines:
        print(line.encode(encoding, "backslashreplace").decode(encoding))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed its message
        if stop.code == 0:  # --help
            raise
        return USAGE_EXIT
    try:
        config = _config_from_args(args)
        if args.command == "all":
            manifest = run_pipeline(config)
            if config.eps is None:
                print((config.out / artifacts.EPS_SCAN).read_text(encoding="utf-8"))
                print("pick an eps from the table above and re-run with --eps")
            else:
                print(f"pipeline complete; manifest at {manifest}")
                _print_summary(config.out)
        else:
            written, seconds = run_stage(args.command, config)
            write_manifest(config, written,
                           [{"name": args.command, "seconds": round(seconds, 3)}])
            print(
                f"stage {args.command}: wrote {len(written)} file(s) "
                f"in {seconds:.2f}s to {config.out}"
            )
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader has gone (`| head -1`); the run is complete
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGES[exc.stage].exit_code
    except (PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
