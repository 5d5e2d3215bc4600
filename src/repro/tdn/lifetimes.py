"""Lifetime assignment for TDN edges (paper §II-B, §V-B).

A lifetime assigner maps arriving edges to integer lifetimes in ``{1..L}``
(or unbounded for ADNs). The paper's experiments sample lifetimes from a
geometric distribution ``Pr(l) ∝ (1-p)^(l-1) p`` truncated at ``L``
(Example 5: equivalent to forgetting each live edge with probability ``p``
per step). Every assigner is a seeded NumPy sampler; the streaming job
calls it on the driver for each micro-batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

#: Sentinel lifetime for addition-only networks (edges never expire).
INFINITE = 2**62


def checked_step(
    edges: Iterable[tuple[int, int, int]], now: int, t: int | None
) -> tuple[list[tuple[int, int, int]], int]:
    """A tracker step's ``(u, v, lifetime)`` edges as a list and its event
    time (``now + 1`` when ``t`` is None), after checking that every
    lifetime is positive and that ``t`` is after ``now``. Trackers call it
    before touching any state, so a rejected step leaves them exactly as
    they were."""
    if t is None:
        t = now + 1
    elif t <= now:
        raise ValueError(f"event time must increase, got t={t} after t={now}")
    batch = list(edges)
    for u, v, l in batch:
        if l <= 0:
            raise ValueError(f"lifetime must be positive, got {l} for edge ({u}, {v})")
    return batch, t


@dataclass
class ConstantLifetime:
    """Every edge lives exactly ``w`` steps — the sliding-window model
    (paper Example 4)."""

    w: int

    def sample(self, n: int) -> np.ndarray:
        """Lifetimes for ``n`` arriving edges."""
        return np.full(n, self.w, dtype=np.int64)


@dataclass
class InfiniteLifetime:
    """Edges never expire — the addition-only (ADN) model (Example 3)."""

    def sample(self, n: int) -> np.ndarray:
        return np.full(n, INFINITE, dtype=np.int64)


@dataclass
class GeometricLifetime:
    """Truncated geometric lifetimes: ``Pr(l) ∝ (1-p)^(l-1) p``, ``l ≤ L``.

    Truncation renormalizes by conditioning on ``l ≤ L`` (sampling via
    inverse CDF restricted to the achievable quantile range), matching the
    paper's ``Geo(p)`` "truncated at the maximum lifetime L".
    """

    p: float
    L: int
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.p < 1:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        return self._from_uniform(u)

    def _from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF of the truncated geometric, vectorized.

        For untruncated Geo(p): ``l = ceil(log(1-u) / log(1-p))``. To
        truncate at L we rescale u into ``[0, F(L))`` where
        ``F(L) = 1-(1-p)^L`` — every sample then lands in ``{1..L}``.
        """
        cap = 1.0 - (1.0 - self.p) ** self.L
        u = u * cap
        l = np.ceil(np.log1p(-u) / math.log1p(-self.p)).astype(np.int64)
        return np.clip(l, 1, self.L)

    def mean(self) -> float:
        """Expected lifetime of the truncated distribution (closed form)."""
        q = 1.0 - self.p
        cap = 1.0 - q**self.L
        # E[l | l<=L] = (1/p - (L + 1/p) q^L) / (1 - q^L)  for Geo(p).
        return (1.0 / self.p - (self.L + 1.0 / self.p) * q**self.L) / cap
