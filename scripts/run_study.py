"""Full study run on a real panel CSV with the standard settings.

Expects the long-format input (country,year,goal01..goal17). Stops after
the embedding to print the eps scan unless --eps is given, since the
clustering radius has to be picked by eye from that table.
"""

import argparse
import sys
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.pipeline import FULL_RUN, PipelineConfig, run_pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--panel", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--gdp", type=Path, default=None)
    parser.add_argument("--eps", type=float, default=None,
                        help="clustering radius; omit to get the scan table")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = PipelineConfig(
        panel=args.panel,
        out=args.out,
        gdp=args.gdp,
        eps=args.eps,
        seed=args.seed,
    )
    if args.eps is None:
        manifest = run_pipeline(config, (*FULL_RUN[: FULL_RUN.index("cluster")], "scan-eps"))
        for stage in artifacts.read_json(manifest)["stages"]:
            print(f"{stage['name']}: {stage['seconds']:.1f}s")
        print((args.out / artifacts.EPS_SCAN).read_text())
        print("pick an eps from the table above and re-run with --eps")
        return 0
    manifest = run_pipeline(config)
    print(f"done; manifest at {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
