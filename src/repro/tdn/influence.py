"""Counting influence-spread oracle ``f_t`` (paper Definition 3).

``f_t(S)`` = number of distinct nodes reachable from ``S`` in ``G_t``
(directed paths of length >= 0, so the seeds count themselves). Every
evaluation — a plain ``spread`` or a marginal gain — increments an oracle
call counter: the paper's hardware-independent efficiency metric (§V-C,
"an oracle call refers to an evaluation of f_t").

A :class:`CallCounter` can be shared by many oracles so an algorithm that
owns several SieveADN instances (BasicReduction, HistApprox) reports one
aggregate count.

The oracle memoizes the reached set of every evaluated set of the current
graph version; the first evaluation after a mutation empties the cache, so
it never holds a reach of an older graph. A marginal gain ``δ_S(v)`` is
therefore a set difference of two cached reaches: ``S``'s, and ``{v}``'s,
which the billed singleton ``spread`` that precedes every sieve/greedy
gain filled — still billed as exactly one oracle call, identically for
every algorithm.
"""
from __future__ import annotations

from typing import Iterable

from repro.tdn.graph import DiGraph


class CallCounter:
    """Mutable oracle-call tally shared across oracles of one algorithm."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CallCounter(calls={self.calls})"


class InfluenceOracle:
    """Wraps a :class:`DiGraph` with call counting and per-set caching."""

    def __init__(self, graph: DiGraph, counter: CallCounter | None = None) -> None:
        self.graph = graph
        self.counter = counter if counter is not None else CallCounter()
        # frozenset(S) -> reached set, all of graph version ``_version``
        self._cache: dict[frozenset[int], set[int]] = {}
        self._version = graph.version

    @property
    def oracle_calls(self) -> int:
        return self.counter.calls

    def spread(self, seeds: Iterable[int]) -> int:
        """``f_t(S)`` — one oracle call."""
        self.counter.calls += 1
        return len(self._reach(frozenset(seeds)))

    def marginal_gain(self, base: frozenset[int], v: int) -> int:
        """``f_t(S ∪ {v}) − f_t(S)`` — one oracle call.

        Uses the cached reaches of ``base`` and ``{v}`` (each recomputed
        only if the graph mutated since it was cached).
        """
        self.counter.calls += 1
        r_base = self._reach(base)
        if v in r_base:
            return 0
        return len(self._reach(frozenset((v,))) - r_base)

    def _reach(self, s: frozenset[int]) -> set[int]:
        if self._version != self.graph.version:
            self._cache.clear()
            self._version = self.graph.version
        r = self._cache.get(s)
        if r is None:
            r = self._cache[s] = self.graph.reachable(s)
        return r


def brute_force_opt(graph: DiGraph, k: int) -> tuple[frozenset[int], int]:
    """Exact optimum of ``f`` over all <=k-subsets — tests only (tiny graphs)."""
    from itertools import combinations

    nodes = sorted(graph.nodes())
    best, best_val = frozenset(), 0
    for r in range(1, min(k, len(nodes)) + 1):
        for combo in combinations(nodes, r):
            val = len(graph.reachable(combo))
            if val > best_val:
                best, best_val = frozenset(combo), val
    return best, best_val
