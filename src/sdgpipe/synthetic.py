"""Deterministic synthetic panels for demos and self-contained tests.

Countries fall into a few well-separated groups, each with its own goal
profile and per-goal annual drift, plus small country offsets and
observation noise. Everything derives from one seed, so the bundled
fixture is reproducible from code instead of being checked in as data.
"""

from __future__ import annotations

import itertools
import string

import numpy as np

from sdgpipe.panel import N_GOALS, ScorePanel


def _country_codes(n: int) -> list[str]:
    codes = itertools.product(string.ascii_uppercase, repeat=3)
    return ["".join(code) for code in itertools.islice(codes, n)]


def synthetic_panel(
    n_countries: int = 12,
    years: tuple[int, ...] = tuple(range(2000, 2023)),
    n_groups: int = 3,
    seed: int = 7,
) -> ScorePanel:
    """Complete panel with n_groups latent country groups."""
    if n_countries < n_groups or n_groups < 1:
        raise ValueError("need at least one country per group")
    if len(years) < 1:
        raise ValueError("need at least one year")
    rng = np.random.default_rng(seed)
    # Keep base + 23 years of drift comfortably inside the clip range so no
    # goal column saturates into a constant within a group.
    group_base = rng.uniform(20.0, 75.0, size=(n_groups, N_GOALS))
    group_slope = rng.uniform(-0.2, 0.8, size=(n_groups, N_GOALS))
    countries = _country_codes(n_countries)
    assignment = [i % n_groups for i in range(n_countries)]
    offsets = rng.normal(0.0, 2.0, size=(n_countries, N_GOALS))

    years = tuple(int(y) for y in years)
    t0 = years[0]
    index = []
    rows = []
    for ci, country in enumerate(countries):
        g = assignment[ci]
        for year in years:
            drift = group_slope[g] * (year - t0)
            noise = rng.normal(0.0, 0.6, size=N_GOALS)
            row = group_base[g] + offsets[ci] + drift + noise
            rows.append(np.clip(row, 1.0, 99.0))
            index.append((country, year))
    return ScorePanel(tuple(index), np.array(rows))


def synthetic_gdp(panel: ScorePanel, seed: int = 11) -> dict[str, float]:
    """Per-country GDP per capita, loosely tied to mean panel score."""
    rng = np.random.default_rng(seed)
    table = {}
    dense = panel.dense().mean(axis=(1, 2))
    for country, level in zip(panel.countries, dense):
        table[country] = float(np.round(150.0 * level * rng.lognormal(0.0, 0.25), 2))
    return table
