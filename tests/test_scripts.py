"""The scripts in scripts/ and the README quick start run as documented."""

import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from sdgpipe import artifacts
from sdgpipe.cli import _config_from_args, build_parser
from sdgpipe.panel import write_gdp_csv, write_panel_csv
from sdgpipe.pipeline import PipelineConfig
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

from conftest import DEMO_SETTINGS, child_env

REPO = Path(__file__).parents[1]
SCRIPTS = REPO / "scripts"


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


def quick_start_commands() -> list[list[str]]:
    """The commands of the README's first Quick start sh block, one argv each."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def expected_summary(out: Path) -> list[str]:
    """The lines `all --eps` prints after the manifest line, from the run's
    artifacts: final-year members per cluster, noise first, then the
    attainment year of every fitted cluster."""
    _, rows = artifacts.read_csv(out / artifacts.CLUSTER_COUNTRIES)
    lines = []
    for cid in sorted({int(cid) for _, cid in rows}):
        name = "noise" if cid < 0 else f"cluster {cid}"
        lines.append(f"  {name}: " + ", ".join(c for c, k in rows if int(k) == cid))
    fits = artifacts.read_json(out / artifacts.TRAJECTORY_FITS)
    for cid in sorted(fits, key=int):
        year = fits[cid]["attainment_year"]
        lines.append(f"  cluster {cid}: projected attainment "
                     + ("never (no future zero)" if year is None else str(year)))
    return lines


def test_readme_quick_start(tmp_path):
    """Each command of the block runs in a fresh directory, with scripts/
    taken from the repository and sdgpipe from this interpreter; the `all`
    line uses the suite's demo settings and prints the run's summary."""
    programs = {"python": [sys.executable], "sdgpipe": [sys.executable, "-m", "sdgpipe"]}
    runs = {}
    for program, *args in quick_start_commands():
        argv = [*programs[program],
                *(str(REPO / arg) if arg.startswith("scripts/") else arg for arg in args)]
        result = subprocess.run(argv, cwd=tmp_path, env=child_env(), capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, (argv, result.stderr)
        runs[args[0]] = (args, result.stdout)

    args, printed = runs["all"]
    config = _config_from_args(build_parser().parse_args(args))
    assert replace(config, panel=None, out=None, gdp=None) == PipelineConfig(**DEMO_SETTINGS)
    lines = printed.splitlines()
    assert lines[0] == f"pipeline complete; manifest at {config.out / artifacts.MANIFEST}"
    summary = expected_summary(tmp_path / config.out)
    assert lines[1:] == summary
    assert any(line.startswith("  cluster ") for line in summary)
