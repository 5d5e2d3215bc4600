"""The sieve/oracle hot path against a reference sieve.

:class:`ReferenceSieve` is the threshold sieve as first written: every
``process_node`` walks all thresholds, every marginal gain runs a fresh
BFS from the candidate and every ``best()`` takes the max anew. The
kernel in :mod:`repro.core.sieve` and :mod:`repro.tdn.influence` must
match it exactly — sets, Δ, best set and value, and oracle calls — on
graphs that grow between node feeds, before and after ``copy()``.
"""
import math
from operator import itemgetter

import numpy as np
import pytest

from repro.core.sieve import ThresholdSieve
from repro.tdn.graph import DiGraph
from repro.tdn.influence import InfluenceOracle


class FreshBFSOracle(InfluenceOracle):
    """Marginal gains with a fresh BFS from the candidate, as first written."""

    def marginal_gain(self, base, v):
        self.counter.calls += 1
        r_base = self._reach(base)
        if v in r_base:
            return 0
        return len(self.graph.reachable((v,)) - r_base)


class ReferenceSieve:
    """The original ``ThresholdSieve`` loop, kept verbatim as the reference."""

    def __init__(self, k, eps, oracle):
        self.k, self.eps, self.oracle = k, eps, oracle
        self.delta = 0.0
        self._log1e = math.log1p(eps)
        self.sets = {}

    def theta(self, i):
        return (1.0 + self.eps) ** i / (2.0 * self.k)

    def _exponent_range(self):
        if self.delta <= 0:
            return range(0)
        lo = math.ceil(math.log(self.delta) / self._log1e - 1e-9)
        hi = math.floor(math.log(2 * self.k * self.delta) / self._log1e + 1e-9)
        return range(lo, hi + 1)

    def _update_thresholds(self, singleton):
        if singleton <= self.delta:
            return
        self.delta = singleton
        valid = self._exponent_range()
        self.sets = {i: sv for i, sv in self.sets.items() if i in valid}
        for i in valid:
            if i not in self.sets:
                self.sets[i] = (frozenset(), 0.0)

    def process_node(self, v):
        f_v = self.oracle.spread((v,))
        self._update_thresholds(f_v)
        for i, (s, val) in self.sets.items():
            if len(s) >= self.k or v in s:
                continue
            th = self.theta(i)
            if f_v < th:
                continue
            gain = self.oracle.marginal_gain(s, v)
            if gain >= th:
                self.sets[i] = (s | {v}, val + gain)

    def best(self, refresh=False):
        if not self.sets:
            return frozenset(), 0.0
        if refresh:
            vals = {}
            for i, (s, _) in list(self.sets.items()):
                if not s:
                    continue
                if s not in vals:
                    vals[s] = float(self.oracle.spread(s))
                self.sets[i] = (s, vals[s])
        s, val = max(self.sets.values(), key=lambda sv: sv[1])
        return s, val

    def copy(self, oracle):
        c = ReferenceSieve(self.k, self.eps, oracle)
        c.delta = self.delta
        c.sets = dict(self.sets)
        return c


def assert_same(new: ThresholdSieve, ref: ReferenceSieve) -> None:
    assert new.delta == ref.delta
    assert new.sets == ref.sets
    assert list(new.sets) == list(ref.sets)  # same (ascending) key order
    assert new.best() == ref.best()
    assert new.oracle.oracle_calls == ref.oracle.oracle_calls


def grow_and_feed(rng, new, ref, graphs, n_nodes: int, rounds: int) -> None:
    """Add the same random edge to both graphs, then feed both sieves the
    same random nodes, comparing them after every feed."""
    for _ in range(rounds):
        u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
        if u != v:
            for g in graphs:
                g.add_edge(u, v)
        for w in (int(x) for x in rng.integers(0, n_nodes, 3)):
            new.process_node(w)
            ref.process_node(w)
            assert_same(new, ref)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k,eps", [(1, 0.1), (3, 0.1), (4, 0.3)])
def test_matches_reference_on_growing_graph(seed, k, eps):
    rng = np.random.default_rng(seed)
    g_new, g_ref = DiGraph(), DiGraph()
    new = ThresholdSieve(k, eps, InfluenceOracle(g_new))
    ref = ReferenceSieve(k, eps, FreshBFSOracle(g_ref))
    grow_and_feed(rng, new, ref, (g_new, g_ref), 25, 40)
    assert new.best(refresh=True) == ref.best(refresh=True)
    assert_same(new, ref)

    # Copies grow on their own graphs; the originals must not move.
    before = (dict(new.sets), new.best(), new.oracle.oracle_calls)
    g_new2, g_ref2 = g_new.copy(), g_ref.copy()
    c_new = new.copy(InfluenceOracle(g_new2))
    c_ref = ref.copy(FreshBFSOracle(g_ref2))
    assert_same(c_new, c_ref)
    grow_and_feed(rng, c_new, c_ref, (g_new2, g_ref2), 35, 20)
    assert c_new.best(refresh=True) == c_ref.best(refresh=True)
    assert (dict(new.sets), new.best(), new.oracle.oracle_calls) == before
    grow_and_feed(rng, new, ref, (g_new, g_ref), 25, 10)
    assert new.best(refresh=True) == ref.best(refresh=True)
    assert_same(new, ref)


class TestBestCache:
    """``best()`` caches the unrefreshed max; every write to ``sets`` clears it."""

    @staticmethod
    def star_sieve():
        g = DiGraph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)  # f({0}) = 5
        g.add_edge(6, 7)  # f({6}) = 2
        sv = ThresholdSieve(2, 0.5, InfluenceOracle(g))
        sv.process_node(0)
        assert sv.best() == (frozenset({0}), 5.0)
        return g, sv

    def test_cleared_by_accept(self):
        _, sv = self.star_sieve()
        sv.process_node(6)
        assert sv.best() == (frozenset({0, 6}), 7.0)

    def test_cleared_by_delta_rise(self):
        _, sv = self.star_sieve()
        sv._update_thresholds(1000.0)  # every old exponent drops out
        assert sv.best() == (frozenset(), 0.0)

    def test_cleared_by_refresh(self):
        g, sv = self.star_sieve()
        g.add_edge(4, 8)
        assert sv.best() == (frozenset({0}), 5.0)  # tracked, unbilled
        assert sv.best(refresh=True) == (frozenset({0}), 6.0)
        assert sv.best() == (frozenset({0}), 6.0)

    def test_copy_accepts_leave_original(self):
        g, sv = self.star_sieve()
        g2 = g.copy()
        for a, b in [(9, 10), (10, 11), (11, 12)]:
            g2.add_edge(a, b)
        c = sv.copy(InfluenceOracle(g2))
        c.process_node(9)
        assert c.best() == (frozenset({0, 9}), 9.0)
        assert sv.best() == (frozenset({0}), 5.0)
        assert sv.best() == max(sv.sets.values(), key=itemgetter(1))
