"""Simplified TIM+ (Tang, Xiao, Shi — SIGMOD'14 "two-phase").

Phase 1 (parameter estimation): estimate ``KPT`` — the expected spread of
a size-k seed set — from the widths of a small pilot RR sample via the
paper's estimator ``kappa(R) = 1 - (1 - w(R)/m)^k`` (m = #edges), doubling
the pilot until the estimate stabilizes. Phase 2 (node selection): draw
``theta = lambda / KPT`` RR sets and return the greedy max-cover. The
statistical constants are folded into IMM's constant
:data:`~repro.rrset.imm.C` with a hard cap, as for IMM (DESIGN §2) — the
two-phase structure and the relative cost/quality behaviour are what the
reproduction preserves.
"""
from __future__ import annotations

import math

from repro.rrset.imm import C
from repro.rrset.rr import ICGraph, max_cover, sample_rr_sets


def _width(graph: ICGraph, rr: frozenset[int]) -> int:
    """w(R): number of edges pointing into R — TIM's width statistic."""
    return sum(len(graph.in_nbrs.get(v, ())) for v in rr)


def tim_plus_select(
    graph: ICGraph,
    k: int,
    eps: float = 0.3,
    seed: int = 0,
    max_sets: int = 20000,
) -> tuple[frozenset[int], int]:
    """Select ``<=k`` seeds; returns ``(seeds, n_rr_sets_used)``."""
    n = graph.n
    if n == 0 or k == 0:
        return frozenset(), 0
    m = max(1, sum(len(v) for v in graph.in_nbrs.values()))
    used = 0
    kpt = 1.0
    # Phase 1: KPT estimation with doubling pilot samples.
    for i in range(1, int(math.log2(max(n, 2))) + 1):
        n_pilot = min(max_sets, max(16, int(C * (math.log2(max(n, 2)) + 1) * 2**i / 2)))
        pilot = sample_rr_sets(graph, n_pilot, seed=seed + 1000 + i)
        used += n_pilot
        kappa = [1.0 - (1.0 - _width(graph, r) / m) ** k for r in pilot]
        est = n * sum(kappa) / len(kappa) / 2.0
        if est > n / 2.0**i:
            kpt = max(est, 1.0)
            break
        kpt = max(est, 1.0)
    # Phase 2: theta RR sets sized by KPT.
    lam = C * n * (math.log(max(n, 2)) + math.lgamma(k + 1) / max(k, 1)) / (eps**2)
    theta = min(max(int(lam / kpt) + 1, 2 * k), max_sets)
    rr = sample_rr_sets(graph, theta, seed=seed)
    used += theta
    seeds, _ = max_cover(rr, k)
    return seeds, used
