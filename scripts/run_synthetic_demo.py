"""End-to-end demo on the bundled synthetic fixture.

Generates the 12-country, 3-group panel, runs every stage, and prints the
headline results. The cluster count at eps=5.0 depends on the numpy/Python
build that computes the embedding: with numpy 2.4.6 on Python 3.11,
scan-eps gives 4 clusters for eps 2.5-5.5 and 3 for eps 6.0-8.0, so eps=5.0
is on the 4-cluster plateau (one noise country and one singleton cluster).
"""

import argparse
import tempfile
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.panel import write_gdp_csv, write_panel_csv
from sdgpipe.pipeline import PipelineConfig, run_pipeline
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

DEMO = dict(perplexity=30.0, iterations=400, eps=5.0, min_pts=5, seed=0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="working directory (default: a temp dir)")
    args = parser.parse_args()
    work = args.out or Path(tempfile.mkdtemp(prefix="sdgpipe-demo-"))
    work.mkdir(parents=True, exist_ok=True)

    panel = synthetic_panel()
    write_panel_csv(panel, work / "panel.csv")
    write_gdp_csv(synthetic_gdp(panel), work / "gdp.csv")

    config = PipelineConfig(
        panel=work / "panel.csv",
        out=work / "out",
        gdp=work / "gdp.csv",
        **DEMO,
    )
    manifest_path = run_pipeline(config)
    manifest = artifacts.read_json(manifest_path)
    print(f"artifacts in {config.out} ({len(manifest['outputs'])} files)")

    _, rows = artifacts.read_csv(config.out / artifacts.CLUSTER_COUNTRIES)
    by_cluster: dict[str, list[str]] = {}
    for country, cid in rows:
        by_cluster.setdefault(cid, []).append(country)
    for cid in sorted(by_cluster, key=int):
        name = "noise" if int(cid) < 0 else f"cluster {cid}"
        print(f"  {name}: {', '.join(by_cluster[cid])}")

    fits = artifacts.read_json(config.out / artifacts.TRAJECTORY_FITS)
    for cid in sorted(fits, key=int):
        year = fits[cid]["attainment_year"]
        when = str(year) if year is not None else "never (no future zero)"
        print(f"  cluster {cid}: projected attainment {when}")


if __name__ == "__main__":
    main()
