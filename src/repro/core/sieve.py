"""SieveStreaming threshold sieve (Badanidiyuru et al., KDD'14) as used by
SieveADN (paper §III-A, Alg. 1 lines 4-11).

Lazily maintains thresholds ``Θ = {(1+ε)^i / (2k) : (1+ε)^i ∈ [Δ, 2kΔ]}``
where ``Δ`` is the largest singleton value seen so far. Each threshold
``θ`` owns a candidate set ``S_θ`` (≤ k nodes); an arriving node joins
every ``S_θ`` whose marginal gain clears ``θ``.

Value bookkeeping: the sieve tracks ``f(S_θ)`` incrementally — when ``v``
is accepted with gain ``δ`` the tracked value grows by ``δ``. On an ADN
the true ``f_t(S_θ)`` only grows afterwards, so tracked values are exact
at accept time and a lower bound later; :meth:`best` uses them without
extra oracle calls (HistApprox consults instance outputs every step, and
billing a full re-evaluation per consultation would charge the sieve for
work no implementation does).

A submodularity shortcut skips (without billing) thresholds that the
node's singleton value already fails: ``δ_S(v) ≤ f({v}) < θ`` implies
rejection, so no evaluation is needed. This changes no outcome.

Hot-path invariants: the keys of ``sets`` are contiguous and ascending
(Δ only rises, so new exponents are appended above and dropped ones cut
below), and ``_open`` lists, in the same order, the ``(i, θ_i)`` of every
set still below ``k`` nodes. A full set never changes again and every θ
above the first that fails ``f({v})`` fails too, so :meth:`process_node`
walks ``_open`` and stops there — the same evaluations the full walk
bills, without visiting the no-ops.
"""
from __future__ import annotations

import math
from operator import itemgetter

from repro.tdn.influence import InfluenceOracle


class ThresholdSieve:
    """One SieveStreaming state machine over a fixed oracle."""

    def __init__(self, k: int, eps: float, oracle: InfluenceOracle) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        self.k = k
        self.eps = eps
        self.oracle = oracle
        self.delta = 0.0  # max singleton value seen so far
        self._log1e = math.log1p(eps)
        # exponent i -> (S_i, tracked value of S_i)
        self.sets: dict[int, tuple[frozenset[int], float]] = {}
        self._open: list[tuple[int, float]] = []  # (i, θ_i) with |S_i| < k
        self._best: tuple[frozenset[int], float] | None = None  # unrefreshed max

    def theta(self, i: int) -> float:
        """Threshold associated with exponent ``i``."""
        return (1.0 + self.eps) ** i / (2.0 * self.k)

    def _exponent_range(self) -> range:
        """Exponents i with ``(1+ε)^i ∈ [Δ, 2kΔ]`` (paper's lazy Θ).

        A small relative tolerance keeps float log rounding from dropping
        the boundary exponents.
        """
        if self.delta <= 0:
            return range(0)
        lo = math.ceil(math.log(self.delta) / self._log1e - 1e-9)
        hi = math.floor(math.log(2 * self.k * self.delta) / self._log1e + 1e-9)
        return range(lo, hi + 1)

    def _update_thresholds(self, singleton: float) -> None:
        if singleton <= self.delta:
            return
        self.delta = singleton
        valid = self._exponent_range()
        kept = {i: sv for i, sv in self.sets.items() if i in valid}
        new = [i for i in valid if i not in kept]
        self.sets = kept | dict.fromkeys(new, (frozenset(), 0.0))
        self._open = [o for o in self._open if o[0] in valid] + [(i, self.theta(i)) for i in new]
        self._best = None

    def process_node(self, v: int) -> None:
        """Feed one (possibly repeated) node through every sieve."""
        f_v = self.oracle.spread((v,))  # 1 oracle call
        self._update_thresholds(f_v)
        filled = False
        for i, th in self._open:
            if f_v < th:
                break  # submodularity shortcut, no oracle call
            s, val = self.sets[i]
            if v in s:
                continue
            gain = self.oracle.marginal_gain(s, v)  # 1 oracle call
            if gain >= th:
                s = s | {v}
                self.sets[i] = (s, val + gain)
                self._best = None
                filled |= len(s) >= self.k
        if filled:
            self._open = [o for o in self._open if len(self.sets[o[0]][0]) < self.k]

    def best(self, refresh: bool = False) -> tuple[frozenset[int], float]:
        """Highest-value candidate set (``S_{θ*}``, Alg. 1 line 12).

        With ``refresh=True`` every non-empty candidate set is re-evaluated
        against the *current* graph (billed — this is exactly the
        ``argmax_θ f_t(S_θ)`` the paper's query performs; tracked values
        are updated in place). With ``refresh=False`` the tracked values
        are used unbilled — HistApprox's ReduceRedundancy consults outputs
        after every group and no implementation re-evaluates there; the
        max is cached until the next write to ``sets``. Ties go to the
        lowest exponent.
        """
        if refresh:
            # Neighbouring thresholds often hold the *same* set; evaluate
            # each distinct set once (one oracle call per distinct set).
            vals: dict[frozenset[int], float] = {}
            for i, (s, _) in list(self.sets.items()):
                if not s:
                    continue
                if s not in vals:
                    vals[s] = float(self.oracle.spread(s))
                self.sets[i] = (s, vals[s])
            self._best = None
        if self._best is None:
            self._best = max(self.sets.values(), key=itemgetter(1), default=(frozenset(), 0.0))
        return self._best

    def copy(self, oracle: InfluenceOracle) -> "ThresholdSieve":
        """Clone the sieve state onto a new oracle (HistApprox Alg.3 l.14)."""
        c = ThresholdSieve(self.k, self.eps, oracle)
        c.delta = self.delta
        c.sets = dict(self.sets)  # values are immutable (frozenset, float)
        c._open = list(self._open)
        c._best = self._best
        return c
