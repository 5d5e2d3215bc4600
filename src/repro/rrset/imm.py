"""Simplified IMM (Tang, Shi, Xiao — KDD/SIGMOD'15 "martingale approach").

IMM draws RR sets in geometrically growing batches; after each batch it
checks whether the greedy max-cover solution already certifies a large
enough lower bound on OPT to fix the final sample size theta, then tops
the sample up and returns the greedy cover. We keep the two-phase
skeleton (sampling-with-stopping + final selection) and the
``theta = lambda* / LB`` sizing rule, with the constants folded into the
single constant :data:`C` and a hard cap so the reproduction stays
laptop-sized; the paper's statistical constants target 1-1/e-eps whp at
n in the millions, which is out of scope for a shape-level reproduction
(DESIGN §2).
"""
from __future__ import annotations

import math

from repro.rrset.rr import ICGraph, max_cover, sample_rr_sets

#: The statistical constants of ``lambda*``, folded into one factor.
C = 8.0


def imm_select(
    graph: ICGraph,
    k: int,
    eps: float = 0.3,
    seed: int = 0,
    max_sets: int = 20000,
) -> tuple[frozenset[int], int]:
    """Select ``<=k`` seeds; returns ``(seeds, n_rr_sets_used)``.

    The RR-set count doubles until the certified lower bound
    ``LB = n * coverage / (1+eps)`` stabilizes theta below the current
    sample size (or the cap is hit).
    """
    n = graph.n
    if n == 0 or k == 0:
        return frozenset(), 0
    lam = C * n * (math.log(max(n, 2)) + math.lgamma(k + 1) / max(k, 1)) / (eps**2)
    n_sets = max(64, 2 * k)
    rr = sample_rr_sets(graph, n_sets, seed=seed)
    used = n_sets
    for _ in range(24):  # doubling rounds; 2^24 >> max_sets
        seeds, cov = max_cover(rr, k)
        lb = max(1.0, n * cov / (1.0 + eps))
        theta = min(int(lam / lb) + 1, max_sets)
        if used >= theta:
            return seeds, used
        extra = sample_rr_sets(graph, theta - used, seed=seed + 1 + used)
        rr.extend(extra)
        used = theta
        if used >= max_sets:
            break
    seeds, _ = max_cover(rr, k)
    return seeds, used
