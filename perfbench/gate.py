"""Correctness gate, run after the timed region.

The gate keeps its own :class:`TDNGraph` fed the same generated edges as
the tracker and checks every step and checkpoint against it. Each check
is one operation in the run's ``attempted`` / ``failed`` tally.
"""
from __future__ import annotations

import hashlib
import sys
import time

from repro.core.greedy import lazy_greedy
from repro.tdn.graph import TDNGraph

#: Approximation factor each tracker guarantees against OPT (paper
#: Theorems 3 and 5); lazy greedy <= OPT, so it bounds the checkpoints.
GUARANTEE = {"histapprox": 1.0 / 3.0, "basicreduction": 1.0 / 2.0}
SCORE_REPEATS = 30


class Gate:
    """Tally of correctness checks and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    def ops(self, n: int, failed: int) -> None:
        """Count ``n`` operations of the system (steps, batches, scoring
        passes), ``failed`` of which raised."""
        self.attempted += n
        self.failed += failed


def digest(outputs) -> str:
    """Digest of the per-step ``(t, sorted S_t)`` trace."""
    h = hashlib.sha256()
    for t, out in enumerate(outputs, start=1):
        seeds = sorted(out[0]) if out is not None else None
        h.update(repr((t, seeds)).encode())
    return h.hexdigest()[:16]


def bfs_levels(out: dict, seeds) -> int:
    """BFS iterations until the frontier empties — the number of
    semi-join levels :func:`repro.tdn.spark_graph.reachable_nodes` runs."""
    seen = set(seeds)
    frontier, levels = list(seen), 0
    while frontier:
        levels += 1
        nxt = []
        for u in frontier:
            for v in out.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return levels


def check_run(gate, steps, outputs, *, k, eps, algo, checkpoint_every, on_checkpoint=None):
    """Replay ``steps`` into a reference ``G_t`` and check the tracker's
    per-step ``outputs`` (``(S_t, value)`` or ``None`` for a failed step).

    Every step: ``|S_t| <= k`` and value ``<= f_t(S_t)`` (``==`` for
    BasicReduction, whose head instance holds exactly ``G_t``). Every
    ``checkpoint_every`` steps and at the end: ``f_t(S_t) >=
    (guarantee - eps) * f_t(lazy greedy)``. Returns the per-checkpoint
    quality ratios and ``(G_t copy, S_t)`` snapshots for
    :func:`score_round`. ``on_checkpoint(t, ref)`` runs at each
    checkpoint after the checks.
    """
    ref = TDNGraph()
    floor = GUARANTEE[algo] - eps
    ratios, snapshots = [], []
    n = len(steps)
    for t, (batch, out) in enumerate(zip(steps, outputs), start=1):
        ref.advance_to(t)
        ref.add_edges(batch, t)
        if out is None:
            continue
        seeds, value = out
        f = len(ref.g.reachable(seeds))
        gate.check(len(seeds) <= k, f"t={t}: |S|={len(seeds)} > k={k}")
        if algo == "basicreduction":
            gate.check(value == f, f"t={t}: value {value} != f_t(S) {f}")
        else:
            gate.check(value <= f, f"t={t}: value {value} > f_t(S) {f}")
        if t % checkpoint_every and t != n:
            continue
        greedy, _ = lazy_greedy(ref.g, k)
        f_greedy = len(ref.g.reachable(greedy))
        gate.check(
            f >= floor * f_greedy,
            f"t={t}: f(S)={f} < ({GUARANTEE[algo]:.3f}-{eps})*greedy {f_greedy}",
        )
        ratios.append(f / f_greedy if f_greedy else 1.0)
        snapshots.append((ref.g.copy(), seeds))
        if on_checkpoint is not None:
            on_checkpoint(t, ref)
    return ratios, snapshots


def score_round(snapshots, k: int) -> list[float]:
    """Times (ms) of reference scoring passes over the checkpoint
    snapshots: score ``S_t`` and recompute lazy greedy (the paper's Greedy
    baseline) on ``G_t``. Every snapshot is scored ``SCORE_REPEATS``
    times; one pass takes about a millisecond, so each is timed alone and
    a garbage-collector pause lands in few of them."""
    times = []
    pc = time.perf_counter
    for graph, seeds in snapshots:
        for _ in range(SCORE_REPEATS):
            t0 = pc()
            lazy_greedy(graph, k)
            graph.reachable(seeds)
            times.append(1e3 * (pc() - t0))
    return times
