"""Simplified DIM (Ohsaka, Akiba, Yoshida, Kawarabayashi — VLDB'16).

DIM maintains an *updatable* sketch: a pool of RR sets over the current
graph repaired incrementally as interactions arrive/expire, instead of
resampled from scratch. The update rules mirror the real DIM's:

- **Edge-probability increase** (an interaction ``(u, v)`` arrives,
  lifting ``p_uv`` from ``p_old`` to ``p_new``): for every RR set that
  contains ``v`` but not ``u``, the previously failed coin succeeds with
  probability ``(p_new − p_old)/(1 − p_old)``; on success the set *grows*
  by the reverse live-edge closure of ``u``. Sets only expand — no churn.
  (Naively resampling every touched set instead is size-biased: large
  sets are touched more often and collapse back to near-singletons,
  destroying hub membership — the pool drifts off the RR distribution.)
- **Edge-probability decrease / edge removal**: membership obtained
  through edge ``(u, v)`` requires both endpoints in the set, so exactly
  the sets containing both are resampled.
- A slow rolling refresh (~2% per update) keeps the pool's *root*
  distribution aligned with the drifting node universe (the real DIM
  keeps per-vertex sketches, so its roots never go stale), and the pool
  is topped up / trimmed as ``n`` changes (``beta`` sizing, β=32 as in
  the paper's setting §V-C).
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd

from repro.rrset.rr import ICGraph, max_cover


class DIMIndex:
    """Dynamically maintained RR-set index over an evolving IC graph."""

    def __init__(self, beta: int = 32, seed: int = 0, max_sets: int = 4000) -> None:
        self.beta = beta
        self.max_sets = max_sets
        self._rng = np.random.default_rng(seed)
        self.graph: ICGraph | None = None
        self.rr: list[frozenset[int]] = []
        self._probs: dict[tuple[int, int], float] = {}
        self.n_resampled = 0  # work metric: RR sets (re)generated/expanded

    # -- maintenance --------------------------------------------------------

    def _target_size(self) -> int:
        assert self.graph is not None
        return min(self.max_sets, max(self.beta, self.beta * self.graph.n // 8))

    def _sample_one(self) -> frozenset[int]:
        assert self.graph is not None and self.graph.n > 0
        root = self.graph.nodes[int(self._rng.integers(0, self.graph.n))]
        self.n_resampled += 1
        return self.graph.rr_set(root, self._rng)

    def update(
        self,
        edges: pd.DataFrame,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Refresh the index for the new snapshot ``edges`` given the
        interactions ``added``/``removed`` this step, as ``(u, v)`` pairs.
        Returns #sets regenerated or expanded. With an empty pool (the
        first snapshot, or after the graph emptied) the pool is rebuilt."""
        old_probs = self._probs
        self.graph = ICGraph(edges)
        self._probs = {
            (int(u), int(v)): float(p)
            for u, v, p in zip(edges["u"], edges["v"], edges["p"])
        }
        before = self.n_resampled
        if not self.rr or not self.graph.n:
            n = self._target_size() if self.graph.n else 0
            self.rr = [self._sample_one() for _ in range(n)]
            return self.n_resampled - before

        # 1) Additions: retry the (u, v) coin in sets holding v but not u.
        for u, v in {(int(u), int(v)) for u, v in added}:
            p_new = self._probs.get((u, v), 0.0)
            p_old = old_probs.get((u, v), 0.0)
            delta = (p_new - p_old) / max(1.0 - p_old, 1e-12)
            if delta <= 0:
                continue
            for i, s in enumerate(self.rr):
                if v in s and u not in s and self._rng.random() < delta:
                    # Grow the set by the reverse live-edge closure of u.
                    self.rr[i] = self.graph.rr_set(u, self._rng, seen=s)
                    self.n_resampled += 1

        # 2) Removals: only sets that could have used edge (u, v) — i.e.
        # containing both endpoints — are resampled.
        dirty_pairs = {(int(u), int(v)) for u, v in removed}
        if dirty_pairs:
            for i, s in enumerate(self.rr):
                if any(u in s and v in s for u, v in dirty_pairs):
                    self.rr[i] = self._sample_one()

        # 3) Rolling root refresh + pool sizing.
        n_roll = max(1, len(self.rr) // 50)
        for i in self._rng.integers(0, len(self.rr), n_roll):
            self.rr[int(i)] = self._sample_one()
        tgt = self._target_size()
        while len(self.rr) < tgt:
            self.rr.append(self._sample_one())
        del self.rr[tgt:]
        return self.n_resampled - before

    # -- query --------------------------------------------------------------

    def query(self, k: int) -> frozenset[int]:
        seeds, _ = max_cover(self.rr, k)
        return seeds
