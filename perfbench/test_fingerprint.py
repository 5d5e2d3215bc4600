"""Tests of the benchmark itself. Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider

Each workload's exact-count fingerprint (oracle calls, sum of |V̄_t|,
instances created, peak live edge copies, digest of the per-step
``(t, sorted S_t)`` trace) must repeat at one seed and change with the
seed, which shows the seed reaches the input generator.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def fingerprint(workload: str, seed: int) -> dict:
    p = _run(ROOT, workload, seed, trace=1)
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.splitlines()
    assert json.loads(lines[-1])["correct"]
    line = next(x for x in lines if " fingerprint = " in x)
    return json.loads(line.split(" fingerprint = ", 1)[1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats_and_follows_the_seed(workload):
    first, again, other = fingerprint(workload, 0), fingerprint(workload, 0), fingerprint(workload, 1)
    assert first == again
    assert other["trace_digest"] != first["trace_digest"]
    assert other["oracle_calls"] != first["oracle_calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, WORKLOADS[0], 0, trace=0)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
