"""BasicReduction (paper §III-B, Alg. 2).

Maintains ``L`` staggered SieveADN instances ``A_1..A_L``. At each step,
an arriving edge with (assigned) lifetime ``l`` is fed to instances
``A_1..A_l`` — so ``A_i`` has processed exactly the edges whose residual
lifetime is ≥ i, and the head instance ``A_1`` has processed exactly the
edges alive in ``G_t``. After the query the head expires, everything
shifts left, and a fresh instance joins at the tail.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.sieve_adn import SieveADN
from repro.tdn.influence import CallCounter
from repro.tdn.lifetimes import checked_batch


class BasicReduction:
    """Alg. 2 — the (1/2−ε)-approximate TDN tracker."""

    def __init__(self, k: int, eps: float, L: int) -> None:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        self.k = k
        self.eps = eps
        self.L = L
        self.counter = CallCounter()
        # _instances[0] is A_1 ... _instances[L-1] is A_L.
        self._instances: deque[SieveADN] = deque(
            SieveADN(k, eps, self.counter) for _ in range(L)
        )

    def step(self, edges: Iterable[tuple[int, int, int]]) -> tuple[frozenset[int], float]:
        """Process one time step's batch of ``(u, v, lifetime)`` edges and
        return the solution ``(S_t, tracked value)`` for this step.

        Lifetimes are clipped to ``L`` (the model's upper bound). Raises
        ``ValueError``, changing nothing, if a lifetime is not positive.
        """
        batch = [(u, v, min(l, self.L)) for u, v, l in checked_batch(edges)]
        # Group per instance: A_i gets edges with lifetime >= i.
        for i, inst in enumerate(self._instances, start=1):
            sub = [(u, v) for u, v, l in batch if l >= i]
            if sub:
                inst.process_batch(sub)
        solution = self._instances[0].solution(refresh=True)
        # Shift: terminate head, append fresh tail instance.
        self._instances.popleft()
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
