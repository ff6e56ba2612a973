"""Generate a synthetic panel CSV (plus GDP table) for trying the pipeline."""

import argparse
from pathlib import Path

from sdgpipe.panel import write_gdp_csv, write_panel_csv
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("data"),
                        help="directory for panel.csv and gdp.csv")
    parser.add_argument("--countries", type=int, default=12)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    panel = synthetic_panel(
        n_countries=args.countries, n_groups=args.groups, seed=args.seed
    )
    write_panel_csv(panel, args.out / "panel.csv")
    write_gdp_csv(synthetic_gdp(panel), args.out / "gdp.csv")
    print(f"wrote {args.out / 'panel.csv'} ({panel.n_observations} rows) and gdp.csv")


if __name__ == "__main__":
    main()
