"""Driver-side TDN multigraph with scheduled expiry and BFS reachability.

This is the in-memory substrate every streaming algorithm runs against —
the analogue of the paper's serial implementation's graph store. An edge
``(u, v)`` added at time ``tau`` with lifetime ``l`` is alive during
``tau <= t < tau + l`` and is dropped when the clock advances to
``tau + l``. Multi-edges are reference-counted; a node disappears when its
last incident edge expires (paper §II-B).
"""
from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Iterable

from repro.tdn.lifetimes import INFINITE

Edge = tuple[int, int]


class DiGraph:
    """Minimal directed multigraph with reference-counted edges.

    ``out``/``in_`` map a node to ``{neighbor: multiplicity}``. Reachability
    treats parallel edges as one arc; multiplicity only matters for clean
    removal.
    """

    __slots__ = ("out", "in_", "n_edges", "version")

    def __init__(self) -> None:
        self.out: dict[int, dict[int, int]] = defaultdict(dict)
        self.in_: dict[int, dict[int, int]] = defaultdict(dict)
        self.n_edges = 0  # multi-edge count
        self.version = 0  # bumped on every mutation (for caches)

    def add_edge(self, u: int, v: int) -> None:
        self.out[u][v] = self.out[u].get(v, 0) + 1
        self.in_[v][u] = self.in_[v].get(u, 0) + 1
        self.n_edges += 1
        self.version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove one multiplicity of ``(u, v)``; prune empty nodes."""
        c = self.out[u][v]
        if c == 1:
            del self.out[u][v]
            if not self.out[u] and not self.in_.get(u):
                self.out.pop(u, None)
                self.in_.pop(u, None)
        else:
            self.out[u][v] = c - 1
        c = self.in_[v][u]
        if c == 1:
            del self.in_[v][u]
            if not self.in_[v] and not self.out.get(v):
                self.in_.pop(v, None)
                self.out.pop(v, None)
        else:
            self.in_[v][u] = c - 1
        self.n_edges -= 1
        self.version += 1

    def nodes(self) -> set[int]:
        """Nodes with at least one incident alive edge."""
        ns = {u for u, nbrs in self.out.items() if nbrs}
        ns.update(v for v, nbrs in self.in_.items() if nbrs)
        return ns

    def reachable(self, seeds: Iterable[int]) -> set[int]:
        """All nodes reachable from ``seeds`` via directed paths (length
        >= 0). Seeds outside the graph still count as reached (they reach
        themselves) — matches ``f_t`` including the seed set."""
        seen = set(seeds)
        q = deque(seen)
        out = self.out
        while q:
            u = q.popleft()
            nbrs = out.get(u)
            if not nbrs:
                continue
            for v in nbrs:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    def reverse_reachable(self, seeds: Iterable[int]) -> set[int]:
        """All nodes that can reach ``seeds`` (BFS over reversed arcs)."""
        seen = set(seeds)
        q = deque(seen)
        in_ = self.in_
        while q:
            u = q.popleft()
            nbrs = in_.get(u)
            if not nbrs:
                continue
            for v in nbrs:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    def copy(self) -> "DiGraph":
        g = DiGraph.__new__(DiGraph)
        g.out = defaultdict(dict, {u: dict(n) for u, n in self.out.items()})
        g.in_ = defaultdict(dict, {u: dict(n) for u, n in self.in_.items()})
        g.n_edges = self.n_edges
        g.version = self.version
        return g


class TDNGraph:
    """The evolving TDN ``G_t``: a :class:`DiGraph` plus an expiry schedule.

    Usage per discrete time step ``t``::

        g.advance_to(t)          # drop every edge whose lifetime hit 0
        g.add_edges(batch, t)    # batch = [(u, v, lifetime), ...]

    ``edges_with_lifetime()`` exposes the residual lifetime of every alive
    edge; ``edges_with_residual(lo, hi)`` reads just the edges with residual
    lifetime in ``[lo, hi)``, which HistApprox needs when seeding a copied
    instance (Alg. 3 line 15).
    """

    def __init__(self) -> None:
        self.g = DiGraph()
        self._expiry: list[tuple[int, int, int]] = []  # (expire_t, u, v)
        self.now = 0

    def advance_to(self, t: int) -> list[Edge]:
        """Move the clock to ``t``; returns the edges that expired."""
        if t < self.now:
            raise ValueError(f"time moves forward only ({t} < {self.now})")
        self.now = t
        dropped = []
        h = self._expiry
        while h and h[0][0] <= t:
            _, u, v = heapq.heappop(h)
            self.g.remove_edge(u, v)
            dropped.append((u, v))
        return dropped

    def add_edges(self, batch: Iterable[tuple[int, int, int]], t: int) -> None:
        """Add ``(u, v, lifetime)`` edges arriving at time ``t``. Raises
        ``ValueError``, adding none of them, if a lifetime is not positive."""
        batch = list(batch)
        for u, v, l in batch:
            if l <= 0:
                raise ValueError(f"lifetime must be positive, got {l} for edge ({u}, {v})")
        for u, v, l in batch:
            if u == v:
                continue  # no self-loops (paper §II-B)
            self.g.add_edge(u, v)
            if l < INFINITE:
                heapq.heappush(self._expiry, (t + l, u, v))

    def edges_with_lifetime(self) -> list[tuple[int, int, int]]:
        """Alive edges as ``(u, v, residual_lifetime)`` at the current time.

        Multi-edges appear once per multiplicity (each scheduled expiry is
        one physical edge); infinite-lifetime edges report ``INFINITE``.
        """
        out = [(u, v, e - self.now) for e, u, v in self._expiry]
        # Edges with no scheduled expiry are infinite-lifetime.
        n_scheduled: dict[Edge, int] = defaultdict(int)
        for _, u, v in self._expiry:
            n_scheduled[(u, v)] += 1
        for u, nbrs in self.g.out.items():
            for v, mult in nbrs.items():
                extra = mult - n_scheduled.get((u, v), 0)
                out.extend([(u, v, INFINITE)] * extra)
        return out

    def edges_with_residual(self, lo: int, hi: int) -> list[Edge]:
        """Alive edges with residual lifetime in ``[lo, hi)`` as ``(u, v)``,
        one per multiplicity, read in one pass over the expiry schedule.

        Infinite-lifetime edges are never listed. Otherwise the result is
        ``edges_with_lifetime()`` filtered to that range, in the same order.
        """
        lo, hi = self.now + lo, self.now + hi
        return [(u, v) for e, u, v in self._expiry if lo <= e < hi]

    @property
    def n_edges(self) -> int:
        return self.g.n_edges

    def nodes(self) -> set[int]:
        return self.g.nodes()
