"""The scripts in scripts/ run as their docstrings say."""

import subprocess
import sys
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.panel import write_gdp_csv, write_panel_csv
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

from conftest import child_env

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name: str, *args: str) -> str:
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=child_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_make_synthetic_panel_writes_the_fixture(tmp_path):
    out = tmp_path / "data"
    run_script("make_synthetic_panel.py", "--out", str(out))
    panel = synthetic_panel()
    write_panel_csv(panel, tmp_path / "panel.csv")
    write_gdp_csv(synthetic_gdp(panel), tmp_path / "gdp.csv")
    for name in ("panel.csv", "gdp.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_synthetic_demo_prints_every_cluster(tmp_path):
    lines = run_script("run_synthetic_demo.py", "--out", str(tmp_path)).splitlines()
    out = tmp_path / "out"
    assert lines[0].startswith(f"artifacts in {out} (")
    _, rows = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
    by_cluster: dict[int, list[str]] = {}
    for country, cid in rows:
        by_cluster.setdefault(int(cid), []).append(country)
    for cid, countries in by_cluster.items():
        name = "noise" if cid < 0 else f"cluster {cid}"
        assert f"  {name}: {', '.join(countries)}" in lines
