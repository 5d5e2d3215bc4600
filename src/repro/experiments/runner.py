"""Shared simulation loop for every experiment table.

An experiment feeds one interaction per time step (paper §V-B) through a
method — ``step(edges, t)`` on every step, ``query()`` on query steps —
and records the *externally scored* value of the answer, ``f_t(S)`` on a
reference ``G_t`` the runner keeps independently, plus the method's
cumulative internal oracle calls. External scoring is never billed, so
values compare apples-to-apples across sieve, greedy, random and RR-set
baselines.
"""
from __future__ import annotations

import time
from functools import partial

import numpy as np
import pandas as pd

from repro.core.basic_reduction import BasicReduction
from repro.core.greedy import lazy_greedy, random_solution
from repro.core.histapprox import HistApprox
from repro.ic.probabilities import ic_probabilities_pandas
from repro.rrset.dim import DIMIndex
from repro.rrset.imm import imm_select
from repro.rrset.rr import ICGraph
from repro.rrset.timplus import tim_plus_select
from repro.streaming.driver import stream_steps
from repro.tdn.graph import TDNGraph
from repro.tdn.influence import CallCounter
from repro.tdn.lifetimes import GeometricLifetime


def assign_lifetimes(
    stream: pd.DataFrame, p: float, L: int, seed: int = 0
) -> pd.DataFrame:
    """Attach a truncated-geometric lifetime column ``l`` (paper §V-B)."""
    out = stream.sort_values("t", kind="stable").reset_index(drop=True).copy()
    out["l"] = GeometricLifetime(p, L, seed=seed).sample(len(out))
    return out


class _Reference:
    """An independent ``G_t``, kept by ``step(edges, t)``; scores seed sets."""

    def __init__(self) -> None:
        self.tdn = TDNGraph()

    def step(self, edges: list[tuple[int, int, int]], t: int) -> list[tuple[int, int]]:
        """Advance to ``t`` and add its edges; returns the expired pairs."""
        dropped = self.tdn.advance_to(t)
        self.tdn.add_edges(edges, t)
        return dropped

    def score(self, seeds) -> int:
        """Unbilled f_t(S) on the reference graph."""
        return len(self.tdn.g.reachable(seeds)) if seeds else 0


class _Tracker:
    """HistApprox or BasicReduction: the step answers, the query returns it."""

    def __init__(self, tracker) -> None:
        self.tracker = tracker

    def step(self, edges, t: int) -> None:
        self.seeds, _ = self.tracker.step(edges, t)

    def query(self) -> frozenset[int]:
        return self.seeds

    oracle_calls = property(lambda self: self.tracker.oracle_calls)
    n_instances = property(lambda self: self.tracker.n_instances)


class _Baseline(_Reference):
    """A baseline answering from its own ``G_t``, kept by the same steps.
    ``oracle_calls`` counts oracle calls, or RR sets sampled."""

    n_instances = oracle_calls = 0

    def __init__(self, k: int, eps: float, L: int, seed: int, rr_kwargs: dict) -> None:
        super().__init__()
        self.k, self.seed, self.rr_kwargs = k, seed, rr_kwargs

    def ic_probabilities(self) -> pd.DataFrame:
        """IC probabilities of the alive interactions (``u, v, x, p``)."""
        alive = [(u, v) for u, v, _ in self.tdn.edges_with_lifetime()]
        return ic_probabilities_pandas(pd.DataFrame(alive, columns=["u", "v"]))


class _Greedy(_Baseline):
    """Lazy greedy, rerun on ``G_t`` at every query."""

    def query(self) -> frozenset[int]:
        counter = CallCounter()
        seeds, _ = lazy_greedy(self.tdn.g, self.k, counter)
        self.oracle_calls += counter.calls
        return seeds


class _Random(_Baseline):
    """``k`` uniform nodes of ``G_t``."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed + 17)

    def query(self) -> frozenset[int]:
        return random_solution(sorted(self.tdn.nodes()), self.k, self.rng)


class _DIM(_Baseline):
    """DIM's RR index, updated with each step's added and expired pairs."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rr = self.rr_kwargs
        self.index = DIMIndex(rr.get("beta", 32), self.seed, rr.get("max_sets", 2000))

    def step(self, edges, t: int) -> None:
        removed = super().step(edges, t)
        self.index.update(self.ic_probabilities(), [(u, v) for u, v, _ in edges], removed)
        self.oracle_calls = self.index.n_resampled

    def query(self) -> frozenset[int]:
        return self.index.query(self.k)


class _StaticRR(_Baseline):
    """IMM or TIM+ (``select``): a fresh RR sample of the IC graph per query."""

    def __init__(self, select, *args) -> None:
        super().__init__(*args)
        self.select = select

    def query(self) -> frozenset[int]:
        graph = ICGraph(self.ic_probabilities())
        seed = self.seed + self.tdn.now
        seeds, used = self.select(graph, self.k, seed=seed, **self.rr_kwargs)
        self.oracle_calls += used
        return seeds


#: algo -> factory(k, eps, L, seed, rr_kwargs)
METHODS = {
    "histapprox": lambda k, eps, L, seed, rr: _Tracker(HistApprox(k, eps, L)),
    "basicreduction": lambda k, eps, L, seed, rr: _Tracker(BasicReduction(k, eps, L)),
    "greedy": _Greedy,
    "random": _Random,
    "dim": _DIM,
    "imm": partial(_StaticRR, imm_select),
    "tim+": partial(_StaticRR, tim_plus_select),
}


def run_tracker(
    stream: pd.DataFrame,
    algo: str,
    *,
    k: int,
    eps: float = 0.1,
    L: int = 100,
    query_every: int = 1,
    seed: int = 0,
    rr_kwargs: dict | None = None,
) -> pd.DataFrame:
    """Run one method over a lifetimed stream (columns ``u, v, t, l``).

    ``algo`` ∈ :data:`METHODS`. Returns one row per query step:
    ``t, value, calls, n_instances, wall_s`` (calls are cumulative
    internal oracle calls / RR-sets sampled; 0 for random). ``wall_s`` is
    the cumulative time spent inside the method's steps and queries.
    """
    try:
        make = METHODS[algo]
    except KeyError:
        raise ValueError(f"unknown algo {algo!r}; pick from {sorted(METHODS)}") from None
    method = make(k, eps, L, seed, rr_kwargs or {})
    ref = _Reference()
    records, wall, clock = [], 0.0, time.perf_counter
    for t, edges in stream_steps(stream):
        start = clock()
        method.step(edges, t)
        seeds = method.query() if t % query_every == 0 else None
        wall += clock() - start
        ref.step(edges, t)
        if seeds is not None:
            records.append((t, ref.score(seeds), method.oracle_calls, method.n_instances, wall))
    return pd.DataFrame(records, columns=["t", "value", "calls", "n_instances", "wall_s"])
