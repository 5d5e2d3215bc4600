"""Baselines: lazy greedy (CELF / Minoux) and Random (paper §V-C).

Greedy re-runs from scratch on the current ``G_t`` — the straightforward
(1−1/e)-approximate approach the paper compares against. Lazy evaluation
keeps the priority queue of stale upper bounds (submodularity makes a
previous marginal gain an upper bound on the current one), which is the
"lazy evaluation trick [32]" the paper grants Greedy.
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.tdn.graph import DiGraph
from repro.tdn.influence import CallCounter, InfluenceOracle


def lazy_greedy(
    graph: DiGraph, k: int, counter: CallCounter | None = None
) -> tuple[frozenset[int], float]:
    """CELF greedy on ``graph``: returns ``(S, f(S))``.

    Every marginal-gain evaluation is one oracle call on ``counter`` —
    the same accounting as the sieve algorithms.
    """
    oracle = InfluenceOracle(graph, counter)
    nodes = graph.nodes()
    if not nodes:
        return frozenset(), 0.0
    # Singleton values for every node (|V_t| oracle calls). A singleton
    # value IS the marginal gain w.r.t. the empty set, so these bounds are
    # already fresh for round 1 (stamp=1).
    heap: list[tuple[float, int, int]] = []  # (-bound, node, round_computed)
    for v in nodes:
        heap.append((-float(oracle.spread((v,))), v, 1))
    heapq.heapify(heap)
    chosen: frozenset[int] = frozenset()
    value = 0.0
    for rnd in range(1, min(k, len(nodes)) + 1):
        while True:
            neg_bound, v, stamp = heapq.heappop(heap)
            if v in chosen:
                continue
            if stamp == rnd:
                # Bound is fresh for this round — accept greedily.
                chosen = chosen | {v}
                value += -neg_bound
                break
            gain = float(oracle.marginal_gain(chosen, v))  # 1 oracle call
            heapq.heappush(heap, (-gain, v, rnd))
        if not heap:
            break
    return chosen, value


def random_solution(
    nodes: Sequence[int], k: int, rng: np.random.Generator
) -> frozenset[int]:
    """Uniformly sample ``min(k, |V_t|)`` distinct nodes — no oracle calls."""
    nodes = list(nodes)
    if len(nodes) <= k:
        return frozenset(nodes)
    return frozenset(int(x) for x in rng.choice(nodes, size=k, replace=False))
