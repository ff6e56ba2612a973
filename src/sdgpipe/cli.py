"""Command line entry point.

One subcommand per stage plus `all` for the full run. Values come from an
optional key=value config file, overridden by flags. Every stage failure
maps to its own exit code so shell callers can tell where a run died.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from sdgpipe.errors import PipelineError, StageError
from sdgpipe.pipeline import (
    FIELD_PARSERS,
    PipelineConfig,
    apply_overrides,
    load_config,
    run_pipeline,
    run_stage,
    write_manifest,
)

USAGE_EXIT = 1
STAGE_EXIT = {
    "ingest": 2,
    "pca": 3,
    "tsne": 4,
    "cluster": 5,
    "correlate": 6,
    "dynamics": 7,
    "figures": 8,
    "scan-eps": 9,
}

_STAGE_HELP = {
    "ingest": "load, validate, filter, and standardize the panel",
    "pca": "fit the component basis and project observations",
    "tsne": "embed component coordinates into the 2-d or 3-d map",
    "cluster": "density-cluster the map and derive memberships",
    "scan-eps": "tabulate cluster count and noise share over an eps grid",
    "correlate": "goal correlation matrices, pooled and per cluster",
    "dynamics": "distance-to-ideal distributions, trends, extrapolation",
    "figures": "render SVG figures from existing artifacts",
    "all": "run every stage in order and write the manifest",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key=value config file")
    for f in fields(PipelineConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if f.type == "bool":
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            metavar = "V1,V2,..." if f.type.startswith("tuple") else None
            kind = {"type": FIELD_PARSERS[f.name], "metavar": metavar}
        parser.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdgpipe",
        description="Panel standardization, PCA, t-SNE, density clustering, "
        "and distance-to-ideal dynamics over country indicator data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _STAGE_HELP.items():
        stage_parser = sub.add_parser(name, help=blurb)
        _add_common(stage_parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    return apply_overrides(config, **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "all":
            manifest = run_pipeline(config)
            print(f"pipeline complete; manifest at {manifest}")
        else:
            written, seconds = run_stage(args.command, config)
            write_manifest(config, written,
                           [{"name": args.command, "seconds": round(seconds, 3)}])
            print(
                f"stage {args.command}: wrote {len(written)} file(s) "
                f"in {seconds:.2f}s to {config.out}"
            )
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT.get(exc.stage, USAGE_EXIT)
    except (PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
