"""HistApprox (paper §IV, Alg. 3).

Instead of all ``L`` staggered SieveADN instances, keep only an index set
``x_t = {x_1 < x_2 < ...} ⊆ {1..L}`` forming a smooth histogram over the
instance outputs ``g_t(l)``:

- **ProcessEdges** (Alg. 3 l.8-18): an arriving lifetime group ``Ē_l``
  whose index is missing is given an instance — fresh if ``l`` has no
  successor in ``x_t``, otherwise a *copy of the successor* ``A_{l*}``
  back-filled with the alive edges whose residual lifetime is in
  ``[l, l*)``. The group is then fed to every instance with index ≤ l.
- **ReduceRedundancy** (l.19-22): whenever ``g_t(j) ≥ (1−ε)·g_t(i)`` for
  ``j > i``, the instances strictly between ``i`` and ``j`` are ε-redundant
  and are killed.
- **Shift** (l.4-7): after the query, index 1 (if present) expires and all
  surviving indices decrement. A step whose event time jumps by Δ > 1
  first shifts by the Δ−1 steps that had no batch, so over the jump every
  index ≤ Δ expires and the rest drop by Δ.

A master :class:`TDNGraph` tracks ``G_t`` with residual lifetimes so the
back-fill edge set ``{e ∈ E_t : l ≤ l_e < l*}`` is available; the master
graph is bookkeeping, not an oracle — only SieveADN-internal evaluations
are billed.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable

from repro.core.sieve_adn import SieveADN
from repro.tdn.graph import TDNGraph
from repro.tdn.influence import CallCounter
from repro.tdn.lifetimes import checked_step


class HistApprox:
    """Alg. 3 — the (1/3−ε)-approximate TDN tracker."""

    def __init__(self, k: int, eps: float, L: int) -> None:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        self.k = k
        self.eps = eps
        self.L = L
        self.counter = CallCounter()
        self.indices: list[int] = []  # x_t, ascending
        self.instances: dict[int, SieveADN] = {}
        self.master = TDNGraph()  # G_t with residual lifetimes; its clock is t

    # -- Alg. 3 main loop ---------------------------------------------------

    def step(
        self, edges: Iterable[tuple[int, int, int]], t: int | None = None
    ) -> tuple[frozenset[int], float]:
        """Process the ``(u, v, lifetime)`` batch that arrives at event time
        ``t`` (None: the step after the previous one); return ``(S_t,
        tracked value)`` = output of ``A_{x_1}``. Raises ``ValueError``,
        changing nothing, if a lifetime is not positive or ``t`` is not
        after the previous step's."""
        edges, t = checked_step(edges, self.master.now, t)
        if t - self.master.now > 1:
            self._shift(t - self.master.now - 1)
        self.master.advance_to(t)
        # Group by (clipped) lifetime; process groups in ascending l.
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for u, v, l in edges:
            if u == v:
                continue
            groups.setdefault(min(l, self.L), []).append((u, v, min(l, self.L)))
        for l in sorted(groups):
            self._process_group(l, groups[l])
        solution = (
            self.instances[self.indices[0]].solution(refresh=True)
            if self.indices
            else (frozenset(), 0.0)
        )
        self._shift()
        return solution

    # -- ProcessEdges -------------------------------------------------------

    def _process_group(self, l: int, batch: list[tuple[int, int, int]]) -> None:
        if l not in self.instances:
            self._create_instance(l)
        # The new batch joins G_t *after* instance creation so the
        # back-fill (which covers pre-existing edges) never double-feeds it.
        self.master.add_edges(batch, self.master.now)
        pairs = [(u, v) for u, v, _ in batch]
        for i in self.indices:
            if i <= l:
                self.instances[i].process_batch(pairs)
        self._reduce_redundancy()

    def _create_instance(self, l: int) -> None:
        pos = bisect_right(self.indices, l)
        if pos == len(self.indices):
            # Fig. 6(b): no successor — fresh instance.
            self.instances[l] = SieveADN(self.k, self.eps, self.counter)
        else:
            # Fig. 6(c): copy the successor and back-fill the alive edges
            # with residual lifetime in [l, l*). Lifetimes are clipped to L,
            # so every master edge is on the expiry schedule the range reads.
            succ = self.indices[pos]
            inst = self.instances[succ].copy()
            fill = self.master.edges_with_residual(l, succ)
            if fill:
                inst.process_batch(fill)
            self.instances[l] = inst
        insort(self.indices, l)

    # -- ReduceRedundancy ---------------------------------------------------

    def _reduce_redundancy(self) -> None:
        """Kill every index strictly between i and the largest j > i whose
        output is within (1−ε) of g(i). One left-to-right pass, as in
        Alg. 3 lines 20-22."""
        xs = self.indices
        g = {i: self.instances[i].solution()[1] for i in xs}
        keep: list[int] = []
        a = 0
        while a < len(xs):
            i = xs[a]
            keep.append(i)
            # Largest j > i with g(j) >= (1-eps) * g(i).
            j_pos = None
            for b in range(len(xs) - 1, a, -1):
                if g[xs[b]] >= (1.0 - self.eps) * g[i]:
                    j_pos = b
                    break
            if j_pos is None:
                a += 1
            else:
                a = j_pos  # indices strictly between are dropped
        dropped = set(xs) - set(keep)
        for l in dropped:
            del self.instances[l]
        self.indices = keep

    # -- Shift --------------------------------------------------------------

    def _shift(self, d: int = 1) -> None:
        """Advance the indices by ``d`` steps: every index ≤ d expires and
        the rest decrement by ``d``."""
        self.instances = {l - d: inst for l, inst in self.instances.items() if l > d}
        self.indices = [l - d for l in self.indices if l > d]

    # -- introspection ------------------------------------------------------

    @property
    def oracle_calls(self) -> int:
        return self.counter.calls

    @property
    def n_instances(self) -> int:
        return len(self.indices)
