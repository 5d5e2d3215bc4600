"""Helpers for benchmark table capture.

Every benchmark regenerates one reproduced table and persists it under
``results/`` (CSV + plain-text table) so EXPERIMENTS.md can be refreshed from the
bench run. Benchmarks also assert the paper's qualitative shape — a bench
run doubles as an integration check at full reproduction scale.
"""
from __future__ import annotations

import os

import pandas as pd

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def save(name: str, df: pd.DataFrame) -> pd.DataFrame:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    df.to_csv(os.path.join(RESULTS_DIR, f"{name}.csv"), index=False)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(df.to_string(index=False, float_format=lambda x: f"{x:.3f}") + "\n")
    return df
