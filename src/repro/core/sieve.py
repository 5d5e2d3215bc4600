"""SieveStreaming++ threshold sieve (Badanidiyuru et al., KDD'14, with the
range pruning of Kazemi et al., ICML'19) as used by SieveADN (paper
§III-A, Alg. 1 lines 4-11).

Lazily maintains thresholds ``Θ = {(1+ε)^i / (2k) : (1+ε)^i ∈ [max(Δ, lb),
2kΔ]}`` where ``Δ`` is the largest singleton value seen so far and ``lb``
the highest tracked value of any candidate set. Each threshold ``θ`` owns
a candidate set ``S_θ`` (≤ k nodes); an arriving node joins every ``S_θ``
whose marginal gain clears ``θ``.

Pruning: ``lb ≤ OPT`` (tracked values are lower bounds, see below), so no
guess ``(1+ε)^i`` below ``lb`` can be the one near OPT that Thm 2's
argument needs; when Δ or ``lb`` rises the exponents below the range are
cut and, since the lower end only rises, never re-created. The one
exception is the *holder*, the set whose value is ``lb`` (ties: lowest
exponent): it is kept as the answer candidate — it alone is a
(1−ε)-approximation whenever the guess near OPT was cut — but, once below
the range, is closed to new nodes.

Value bookkeeping: the sieve tracks ``f(S_θ)`` incrementally — when ``v``
is accepted with gain ``δ`` the tracked value grows by ``δ``. On an ADN
the true ``f_t(S_θ)`` only grows afterwards, so tracked values are exact
at accept time and a lower bound later; :meth:`best` returns the holder
without extra oracle calls (HistApprox consults instance outputs every
step, and billing a full re-evaluation per consultation would charge the
sieve for work no implementation does).

A submodularity shortcut skips (without billing) thresholds that the
node's singleton value already fails: ``δ_S(v) ≤ f({v}) < θ`` implies
rejection, so no evaluation is needed. This changes no outcome.

Hot-path invariants: the keys of ``sets`` are ascending and contiguous
above the holder (both ends of the range only rise, so new exponents are
appended above and dropped ones cut from below; only the holder may sit
below the range), and ``_open`` lists, in the same order, the ``(i, θ_i)``
of every in-range set still below ``k`` nodes. A full set never changes
again and every θ above the first that fails ``f({v})`` fails too, so
:meth:`process_node` walks ``_open`` and stops there — the same
evaluations the full walk bills, without visiting the no-ops.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import takewhile

from repro.tdn.influence import InfluenceOracle


class ThresholdSieve:
    """One SieveStreaming++ state machine over a fixed oracle."""

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
        self._open: list[tuple[int, float]] = []  # (i, θ_i) in range with |S_i| < k
        self._holder: int | None = None  # exponent of the set valued lb

    @property
    def lb(self) -> float:
        """Highest tracked value of any candidate set (0 before any accept)."""
        return 0.0 if self._holder is None else self.sets[self._holder][1]

    def theta(self, i: int) -> float:
        """Threshold associated with exponent ``i``."""
        return (1.0 + self.eps) ** i / (2.0 * self.k)

    def _exponent_range(self) -> range:
        """Exponents i with ``(1+ε)^i ∈ [max(Δ, lb), 2kΔ]``.

        A small relative tolerance keeps float log rounding from dropping
        the boundary exponents.
        """
        if self.delta <= 0:
            return range(0)
        lo = math.ceil(math.log(max(self.delta, self.lb)) / self._log1e - 1e-9)
        hi = math.floor(math.log(2 * self.k * self.delta) / self._log1e + 1e-9)
        return range(lo, hi + 1)

    def _update_thresholds(self, singleton: float) -> None:
        if singleton > self.delta:
            self.delta = singleton
            self._rerange()

    def _rerange(self) -> None:
        """Cut the exponents below the range, except the holder, which is
        only closed, and append the new ones above. Costs O(#cut + #new)."""
        valid = self._exponent_range()
        lo, sets = valid.start, self.sets
        for i in [i for i in takewhile(lambda i: i < lo, sets) if i != self._holder]:
            del sets[i]
        del self._open[: bisect_left(self._open, (lo,))]
        top = next(reversed(sets), lo - 1)
        for i in range(max(lo, top + 1), valid.stop):
            sets[i] = (frozenset(), 0.0)
            self._open.append((i, self.theta(i)))

    def process_node(self, v: int) -> None:
        """Feed one (possibly repeated) node through every sieve."""
        f_v = self.oracle.spread((v,))  # 1 oracle call
        self._update_thresholds(f_v)
        lb = lb0 = self.lb
        filled = False
        for i, th in self._open:
            if f_v < th:
                break  # submodularity shortcut, no oracle call
            s, val = self.sets[i]
            if v in s:
                continue
            gain = self.oracle.marginal_gain(s, v)  # 1 oracle call
            if gain >= th:
                s, val = s | {v}, val + gain
                self.sets[i] = (s, val)
                if val > lb or (val == lb and i < self._holder):
                    lb, self._holder = val, i
                filled |= len(s) >= self.k
        if filled:
            self._open = [o for o in self._open if len(self.sets[o[0]][0]) < self.k]
        if lb > lb0:
            self._rerange()

    def best(self, refresh: bool = False) -> tuple[frozenset[int], float]:
        """Highest-value candidate set (``S_{θ*}``, Alg. 1 line 12): the
        holder, or ``(∅, 0)`` before any accept.

        With ``refresh=True`` every non-empty candidate set is re-evaluated
        against the *current* graph (billed — this is exactly the
        ``argmax_θ f_t(S_θ)`` the paper's query performs; tracked values
        are updated in place and the holder is chosen anew, which may
        raise ``lb``). With ``refresh=False`` the tracked values are used
        unbilled — HistApprox's ReduceRedundancy consults outputs after
        every group and no implementation re-evaluates there. Ties go to
        the lowest exponent.
        """
        if refresh:
            # Neighbouring thresholds often hold the *same* set; evaluate
            # each distinct set once (one oracle call per distinct set).
            vals: dict[frozenset[int], float] = {}
            sets, lb0 = self.sets, self.lb
            for i, (s, _) in list(sets.items()):
                if not s:
                    continue
                if s not in vals:
                    vals[s] = float(self.oracle.spread(s))
                sets[i] = (s, vals[s])
            nonempty = (i for i in sets if sets[i][0])
            self._holder = max(nonempty, key=lambda i: sets[i][1], default=None)
            if self.lb > lb0:
                self._rerange()
        return (frozenset(), 0.0) if self._holder is None else self.sets[self._holder]

    def copy(self, oracle: InfluenceOracle) -> "ThresholdSieve":
        """Clone the sieve state onto a new oracle (HistApprox Alg.3 l.14)."""
        c = ThresholdSieve(self.k, self.eps, oracle)
        c.delta = self.delta
        c.sets = dict(self.sets)  # values are immutable (frozenset, float)
        c._open = list(self._open)
        c._holder = self._holder
        return c
