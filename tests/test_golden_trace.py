"""Golden per-step trace of the trackers on small pinned streams.

Every tracker (HistApprox, BasicReduction and a bare SieveADN) is run on
three pinned streams — geometric, sliding-window and addition-only (ADN)
lifetimes — and each step is recorded as ``[sorted S_t, value,
cumulative oracle calls, live instances]``. The test requires the current
code to reproduce the committed trace exactly, so a refactor or an
optimisation that claims "same behaviour" is checked, not asserted.

A change that alters tracker behaviour on purpose regenerates the
fixture (and says so in its change log) with::

    PYTHONPATH=src python3 tests/test_golden_trace.py
"""
from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.core.basic_reduction import BasicReduction
from repro.core.histapprox import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.experiments.datasets import make_stream
from repro.tdn.lifetimes import ConstantLifetime, GeometricLifetime, InfiniteLifetime

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = "PYTHONPATH=src python3 tests/test_golden_trace.py"
K, EPS, N_STEPS = 5, 0.2, 200

#: name -> (dataset, interactions per step, lifetime sampler, tracker L)
STREAMS = {
    "geometric": ("brightkite", 2, lambda: GeometricLifetime(p=0.05, L=40, seed=3), 40),
    "window": ("stackoverflow-c2q", 1, lambda: ConstantLifetime(25), 25),
    "adn": ("twitter-hk", 1, InfiniteLifetime, 20),
}


class _BareSieveADN:
    """SieveADN as a tracker: lifetimes ignored, one instance forever."""

    n_instances = 1

    def __init__(self, k: int, eps: float, L: int) -> None:
        self.inst = SieveADN(k, eps)

    def step(self, edges):
        self.inst.process_batch([(u, v) for u, v, _ in edges])
        return self.inst.solution(refresh=True)

    @property
    def oracle_calls(self) -> int:
        return self.inst.oracle_calls


TRACKERS = {"histapprox": HistApprox, "basicreduction": BasicReduction, "sieveadn": _BareSieveADN}


def stream_steps(name: str) -> list[list[tuple[int, int, int]]]:
    dataset, per_step, lifetimes, _ = STREAMS[name]
    pdf = make_stream(dataset, N_STEPS * per_step, seed=11)
    ls = lifetimes().sample(len(pdf)).tolist()
    edges = list(zip(pdf["u"].tolist(), pdf["v"].tolist(), ls))
    return [edges[i : i + per_step] for i in range(0, len(edges), per_step)]


def trace(stream: str, tracker: str) -> list[list]:
    tr = TRACKERS[tracker](K, EPS, STREAMS[stream][3])
    out = []
    for batch in stream_steps(stream):
        s, val = tr.step(batch)
        out.append([sorted(s), val, tr.oracle_calls, tr.n_instances])
    return out


def write_fixture(stream: str) -> Path:
    """One JSON object per stream, one step per line (readable diffs)."""
    dumps = partial(json.dumps, separators=(",", ":"))
    parts = []
    for tracker in TRACKERS:
        rows = ",\n".join(dumps(r) for r in trace(stream, tracker))
        parts.append(f"{dumps(tracker)}:[\n{rows}\n]")
    path = GOLDEN / f"{stream}.json"
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")
    return path


@pytest.mark.parametrize("tracker", list(TRACKERS))
@pytest.mark.parametrize("stream", list(STREAMS))
def test_matches_golden_trace(stream, tracker):
    want = json.loads((GOLDEN / f"{stream}.json").read_text())[tracker]
    got = trace(stream, tracker)
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, (
            f"{tracker} on the {stream!r} stream left the golden trace at step {t}: "
            f"got {g}, want {w} ([S_t, value, oracle calls, instances]). If the "
            f"change in behaviour is intended, regenerate with `{REGENERATE}` and "
            "record it in CHANGES.md."
        )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in STREAMS:
        print(write_fixture(name), file=sys.stderr)
