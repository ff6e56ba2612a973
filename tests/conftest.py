import faulthandler
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sdgpipe
from sdgpipe.panel import write_gdp_csv, write_panel_csv
from sdgpipe.pipeline import PipelineConfig, run_pipeline
from sdgpipe.synthetic import synthetic_gdp, synthetic_panel

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# Populated by test_acceptance.py: criterion number -> (name, status, detail).
# The terminal-summary hook below prints one line per criterion after the
# test results, where -s/capture settings cannot swallow it.
ACCEPTANCE_RESULTS: dict[int, tuple[str, str, str]] = {}


# Set at session end when the test process still has a child.
LEAKED_CHILD = pytest.StashKey[str]()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if LEAKED_CHILD in config.stash:
        terminalreporter.section("child processes", red=True)
        terminalreporter.write_line(f"FAIL  a child of the test process outlived its test "
                                    f"({config.stash[LEAKED_CHILD]})")
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        name, status, detail = ACCEPTANCE_RESULTS[number]
        line = f"{status}  criterion {number}: {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# No test should come near this; criterion 7 gates its own run at 300 s,
# so only a hang (say, a forked t-SNE worker whose pipe is never closed)
# reaches it.
TEST_TIMEOUT_S = 600
WATCHDOG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Tests run with fd 2 captured into a temporary file, where a dump would
    # be lost with the process; capture is off here, so this is the terminal.
    config.stash[WATCHDOG_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[WATCHDOG_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    """Dump every thread's traceback and end the run if one test, the set-up
    of its fixtures included, takes longer than TEST_TIMEOUT_S, so a hang
    fails tier-1 instead of stalling it. A hook rather than an autouse
    fixture, which would be armed only after the session and module
    fixtures that a test uses, and those run whole pipelines."""
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=item.config.stash[WATCHDOG_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(trylast=True)  # after the session fixtures are torn down
def pytest_sessionfinish(session):
    """Fail the run if the test process still has a child, running or
    exited but not waited for: a forked t-SNE worker, or any process a test
    started, that outlived its test."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
    session.config.stash[LEAKED_CHILD] = (
        f"pid {pid} exited with {os.waitstatus_to_exitcode(status)}" if pid else "running")


# Fixture settings for the bundled 12-country panel; 400 iterations are
# plenty at this size. The embedding, and so the plateau eps 5.0 lands on,
# depends on the numpy/Python build and the CPU: with numpy 2.4.6 on Python
# 3.11 and AVX-512, scan-eps gives 4 clusters for eps 3.5-4.5 and 3 for eps
# 5.0-8.0, so eps 5.0 is on the 3-cluster plateau. Tests must not assume a
# cluster count.
DEMO_SETTINGS = dict(perplexity=30.0, iterations=400, eps=5.0, min_pts=5, seed=0)

# The default learning rate suits maps in the low thousands of points;
# 40-point fixtures need a smaller step to stay stable.
BLOB_LEARNING_RATE = 20.0


def two_blobs(seed: int, n_per: int = 20, dim: int = 5, gap: float = 12.0) -> np.ndarray:
    """Two tight Gaussian blobs of n_per points each, gap apart along axis 0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n_per, dim))
    b = rng.normal(0.0, 0.3, size=(n_per, dim))
    b[:, 0] += gap
    return np.vstack([a, b])


def child_env(**overrides: str) -> dict[str, str]:
    """The environment plus overrides for a child process that runs the
    same sdgpipe this process imported."""
    env = dict(os.environ, **overrides)
    source_root = str(Path(sdgpipe.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def fixture_panel():
    return synthetic_panel()


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory, fixture_panel):
    base = tmp_path_factory.mktemp("demo")
    write_panel_csv(fixture_panel, base / "panel.csv")
    write_gdp_csv(synthetic_gdp(fixture_panel), base / "gdp.csv")
    return base


@pytest.fixture(scope="session")
def demo_config(demo_dir):
    return PipelineConfig(
        panel=demo_dir / "panel.csv",
        out=demo_dir / "out",
        gdp=demo_dir / "gdp.csv",
        **DEMO_SETTINGS,
    )


@pytest.fixture(scope="session")
def pipeline_run(demo_config):
    """Config whose output directory holds one complete pipeline run."""
    run_pipeline(demo_config)
    return demo_config
