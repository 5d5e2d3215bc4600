"""BasicReduction (paper §III-B, Alg. 2).

Maintains ``L`` staggered SieveADN instances ``A_1..A_L``. At each step,
an arriving edge with (assigned) lifetime ``l`` is fed to instances
``A_1..A_l`` — so ``A_i`` has processed exactly the edges whose residual
lifetime is ≥ i, and the head instance ``A_1`` has processed exactly the
edges alive in ``G_t``. After the query the head expires, everything
shifts left, and a fresh instance joins at the tail. A step whose event
time jumps by Δ > 1 first rotates out the heads of the Δ−1 steps that had
no batch (at most ``L``), so over the jump ``min(Δ, L)`` heads expire.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.sieve_adn import SieveADN
from repro.tdn.influence import CallCounter
from repro.tdn.lifetimes import checked_step


class BasicReduction:
    """Alg. 2 — the (1/2−ε)-approximate TDN tracker."""

    def __init__(self, k: int, eps: float, L: int) -> None:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        self.k = k
        self.eps = eps
        self.L = L
        self.counter = CallCounter()
        # _instances[0] is A_1 ... _instances[L-1] is A_L; appending a fresh
        # instance at the tail terminates the head.
        self._instances: deque[SieveADN] = deque(
            (SieveADN(k, eps, self.counter) for _ in range(L)), maxlen=L
        )
        self._t = 0

    def step(
        self, edges: Iterable[tuple[int, int, int]], t: int | None = None
    ) -> tuple[frozenset[int], float]:
        """Process the batch of ``(u, v, lifetime)`` edges that arrives at
        event time ``t`` (None: the step after the previous one) and return
        the solution ``(S_t, tracked value)`` for this step.

        Lifetimes are clipped to ``L`` (the model's upper bound). Raises
        ``ValueError``, changing nothing, if a lifetime is not positive or
        ``t`` is not after the previous step's.
        """
        edges, t = checked_step(edges, self._t, t)
        batch = [(u, v, min(l, self.L)) for u, v, l in edges]
        if t - self._t > 1:
            n = min(t - self._t - 1, self.L)
            self._instances.extend(SieveADN(self.k, self.eps, self.counter) for _ in range(n))
        self._t = t
        # Group per instance: A_i gets edges with lifetime >= i.
        for i, inst in enumerate(self._instances, start=1):
            sub = [(u, v) for u, v, l in batch if l >= i]
            if sub:
                inst.process_batch(sub)
        solution = self._instances[0].solution(refresh=True)
        self._instances.append(SieveADN(self.k, self.eps, self.counter))
        return solution

    @property
    def oracle_calls(self) -> int:
        return self.counter.calls

    @property
    def n_instances(self) -> int:
        return len(self._instances)

    def head_edge_count(self) -> int:
        """Edges processed by the *next* head — test hook for the
        invariant that the head has seen exactly the alive edges."""
        return self._instances[0].graph.n_edges
