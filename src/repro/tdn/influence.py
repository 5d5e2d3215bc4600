"""Counting influence-spread oracles ``f_t`` (paper Definition 3).

``f_t(S)`` = number of distinct nodes reachable from ``S`` in ``G_t``
(directed paths of length >= 0, so the seeds count themselves). Every
evaluation — a plain ``spread`` or a marginal gain — increments an oracle
call counter: the paper's hardware-independent efficiency metric (§V-C,
"an oracle call refers to an evaluation of f_t").

A :class:`CallCounter` can be shared by many oracles so an algorithm that
owns several SieveADN instances (BasicReduction, HistApprox) reports one
aggregate count.

Two oracles answer the same calls with the same billing:

- :class:`ReachClosure` serves the SieveADN sieve. Its graph only grows,
  so it keeps the transitive closure as one bitmask per node, updated by
  the owner on every insert; a call is an OR and a popcount, with no BFS.
- :class:`InfluenceOracle` wraps any :class:`DiGraph`, including one that
  is mutated from outside (lazy Greedy, the reference scoring, tests). It
  memoizes the reached set of every evaluated set of the current graph
  version; the first evaluation after a mutation empties the cache, so it
  never holds a reach of an older graph. A marginal gain ``δ_S(v)`` is
  therefore a set difference of two cached reaches: ``S``'s, and
  ``{v}``'s, which the billed singleton ``spread`` that precedes every
  greedy gain filled — still billed as exactly one oracle call.
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
    """Wraps a :class:`DiGraph` with call counting and per-set caching;
    reads the graph afresh after every mutation, so the graph may also
    lose edges."""

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


class ReachClosure:
    """Counting ``f_t`` over a graph that only grows, answered from its
    transitive closure (DESIGN §6).

    ``reach`` maps each node to an ``int`` bitmask of the nodes it reaches,
    itself included; a node is given the next free bit the first time an
    edge names it, so a mask has at most as many bits as the graph has
    nodes. The owner reports every insert through :meth:`add_edge`.
    Masks are immutable ints, so a copy is a shallow ``dict`` copy.
    """

    __slots__ = ("reach", "counter", "_union")

    def __init__(self, counter: CallCounter | None = None) -> None:
        self.counter = counter if counter is not None else CallCounter()
        self.reach: dict[int, int] = {}
        # frozenset(S) -> OR of the masks of S, valid until the next change
        self._union: dict[frozenset[int], int] = {}

    def add_edge(self, u: int, v: int, gainers: set[int]) -> None:
        """Record the insert of ``(u, v)``. ``gainers`` must be the nodes
        that reached ``u`` but not ``v`` before it (``u`` included unless
        it reached ``v``): exactly those reach more afterwards, and each
        gains ``reach(v)``, which the insert leaves unchanged."""
        reach = self.reach
        for x in (u, v):
            if x not in reach:
                reach[x] = 1 << len(reach)
        r_v = reach[v]
        for x in gainers:
            reach[x] |= r_v
        if gainers:
            self._union.clear()

    def spread(self, seeds: Iterable[int]) -> int:
        """``f_t(S)`` — one oracle call. A seed the graph has never named
        reaches only itself."""
        self.counter.calls += 1
        reach, mask, unseen = self.reach, 0, 0
        for s in set(seeds):
            r = reach.get(s)
            if r is None:
                unseen += 1
            else:
                mask |= r
        return mask.bit_count() + unseen

    def marginal_gain(self, base: frozenset[int], v: int) -> int:
        """``f_t(S ∪ {v}) − f_t(S)`` — one oracle call."""
        self.counter.calls += 1
        r_v = self.reach.get(v)
        if r_v is None:
            return 0 if v in base else 1
        r_base = self._union.get(base)
        if r_base is None:
            reach, r_base = self.reach, 0
            for s in base:
                r_base |= reach.get(s, 0)
            self._union[base] = r_base
        return (r_v & ~r_base).bit_count()

    def copy(self) -> "ReachClosure":
        """An independent closure of the same graph, billing the same counter."""
        c = ReachClosure(self.counter)
        c.reach = dict(self.reach)
        return c


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
