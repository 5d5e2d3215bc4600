"""SieveADN (paper §III-A, Alg. 1): tracking influential nodes over an
addition-only dynamic interaction network.

The instance owns an ADN — a :class:`DiGraph` that only accumulates edges
— its transitive closure (a :class:`ReachClosure`, which is the sieve's
oracle) and a :class:`ThresholdSieve`. For each arriving batch it computes
the *affected nodes* ``V̄_t`` (every node whose influence spread may have
changed: all nodes that can reach a new edge's source but not its target,
plus a brand-new target; Theorem 2's proof needs exactly the nodes whose
marginal gain could have increased to be re-fed), updates the closure from
them and pushes them through the sieve.
"""
from __future__ import annotations

from typing import Iterable

from repro.core.sieve import ThresholdSieve
from repro.tdn.graph import DiGraph
from repro.tdn.influence import CallCounter, ReachClosure


class SieveADN:
    """One sieve instance over its own accumulated (addition-only) graph."""

    def __init__(self, k: int, eps: float, counter: CallCounter | None = None) -> None:
        self.k = k
        self.eps = eps
        self.counter = counter if counter is not None else CallCounter()
        self.graph = DiGraph()
        self.oracle = ReachClosure(self.counter)
        self.sieve = ThresholdSieve(k, eps, self.oracle)

    def process_batch(self, edges: Iterable[tuple[int, int]]) -> set[int]:
        """Add ``(u, v)`` edges, then sieve the affected nodes ``V̄_t``.

        A node's spread changes through new edge ``(u, v)`` iff it reached
        ``u`` but not ``v`` *before* the insert — so per edge the exact
        affected set is ``revReach(u) \\ revReach(v)`` on the pre-insert
        graph, plus ``v`` itself when it is a brand-new node (its spread
        appears). Those same nodes are the ones whose closure masks gain
        ``v``'s. Repeat interactions (``v`` already reachable from every
        ancestor of ``u``) therefore cost nothing, which is why the
        paper's ``b`` stays small on real streams. Returns ``V̄_t``.
        """
        affected: set[int] = set()
        graph = self.graph
        for u, v in edges:
            if u == v:
                continue
            changed = graph.reverse_reachable((u,)) - graph.reverse_reachable((v,))
            self.oracle.add_edge(u, v, changed)
            if v not in graph.out and v not in graph.in_:
                changed.add(v)  # new node: spread went from absent to 1
            graph.add_edge(u, v)
            affected |= changed
        # Deterministic feed order — node ids ascending.
        for v in sorted(affected):
            self.sieve.process_node(v)
        return affected

    def solution(self, refresh: bool = False) -> tuple[frozenset[int], float]:
        """Current ``(S_t, value)`` — the instance output ``g_t``.

        ``refresh=True`` re-evaluates candidate sets on the current graph
        (billed); used when this instance's output is *returned* as the
        algorithm's solution (Alg. 1 line 12)."""
        return self.sieve.best(refresh=refresh)

    @property
    def oracle_calls(self) -> int:
        return self.counter.calls

    def copy(self) -> "SieveADN":
        """Deep-enough copy for HistApprox (shares the call counter —
        oracle calls are an algorithm-level tally)."""
        c = SieveADN.__new__(SieveADN)
        c.k, c.eps, c.counter = self.k, self.eps, self.counter
        c.graph = self.graph.copy()
        c.oracle = self.oracle.copy()
        c.sieve = self.sieve.copy(c.oracle)
        return c
