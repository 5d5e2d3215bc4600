"""The sieve/oracle hot path against a reference sieve.

:class:`ReferenceSieve` is the threshold sieve as first written, with the
SieveStreaming++ pruning added naively: every ``process_node`` walks all
thresholds, every marginal gain runs a fresh BFS from the candidate, and
after every Δ rise, node and refresh ``lb`` and the holder are found anew
and the range is cut. The kernel in :mod:`repro.core.sieve` and
:mod:`repro.tdn.influence` must match it exactly — sets, Δ, ``lb``, best
set and value, and oracle calls — on graphs that grow between node feeds
and refreshes, before and after ``copy()``. :class:`UnprunedSieve` is the
same loop without the pruning (the kernel before it); the pruned kernel
never bills more than it on a node feed.
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
    """The original ``ThresholdSieve`` loop with the SieveStreaming++ rule
    added naively: after every Δ rise, node and refresh, ``lb`` is
    recomputed as the max over all sets and every exponent below
    ``max(Δ, lb)`` is cut, except the holder (the max set, ties to the
    lowest exponent), which is kept but takes no more nodes."""

    def __init__(self, k, eps, oracle):
        self.k, self.eps, self.oracle = k, eps, oracle
        self.delta = 0.0
        self.lb = 0.0
        self._log1e = math.log1p(eps)
        self.sets = {}

    def theta(self, i):
        return (1.0 + self.eps) ** i / (2.0 * self.k)

    def _low_end(self):
        return max(self.delta, self.lb)

    def _holder(self):
        i = max(self.sets, key=lambda i: self.sets[i][1], default=None)
        return i if i is not None and self.sets[i][0] else None

    def _exponent_range(self):
        if self.delta <= 0:
            return range(0)
        lo = math.ceil(math.log(self._low_end()) / self._log1e - 1e-9)
        hi = math.floor(math.log(2 * self.k * self.delta) / self._log1e + 1e-9)
        return range(lo, hi + 1)

    def _prune(self):
        self.lb = max((val for _, val in self.sets.values()), default=0.0)
        valid, holder = self._exponent_range(), self._holder()
        self.sets = {i: sv for i, sv in self.sets.items() if i in valid or i == holder}
        for i in valid:
            if i not in self.sets:
                self.sets[i] = (frozenset(), 0.0)

    def process_node(self, v):
        f_v = self.oracle.spread((v,))
        if f_v > self.delta:
            self.delta = f_v
            self._prune()
        valid = self._exponent_range()
        for i, (s, val) in self.sets.items():
            if i not in valid or len(s) >= self.k or v in s:
                continue
            th = self.theta(i)
            if f_v < th:
                continue
            gain = self.oracle.marginal_gain(s, v)
            if gain >= th:
                self.sets[i] = (s | {v}, val + gain)
        self._prune()

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
            self._prune()
        s, val = max(self.sets.values(), key=lambda sv: sv[1])
        return s, val

    def copy(self, oracle):
        c = type(self)(self.k, self.eps, oracle)
        c.delta, c.lb = self.delta, self.lb
        c.sets = dict(self.sets)
        return c


class UnprunedSieve(ReferenceSieve):
    """SieveStreaming without the ++ rule, as first written: the range's
    lower end is Δ and nothing below it is kept."""

    def _low_end(self):
        return self.delta

    def _holder(self):
        return None


def assert_same(new: ThresholdSieve, ref: ReferenceSieve) -> None:
    assert new.delta == ref.delta
    assert new.lb == ref.lb
    assert new.sets == ref.sets
    assert list(new.sets) == list(ref.sets)  # same (ascending) key order
    assert new.best() == ref.best()
    assert new.oracle.oracle_calls == ref.oracle.oracle_calls


def random_rounds(rng, n_nodes: int, rounds: int):
    """Per round: a random edge (None when it would be a self-loop) and
    three random nodes to feed."""
    for _ in range(rounds):
        u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
        yield ((u, v) if u != v else None), [int(x) for x in rng.integers(0, n_nodes, 3)]


def grow_and_feed(rng, new, ref, graphs, n_nodes: int, rounds: int) -> None:
    """Add the same random edge to both graphs, then feed both sieves the
    same random nodes, comparing them after every feed and after a
    refresh every fifth round."""
    for r, (edge, nodes) in enumerate(random_rounds(rng, n_nodes, rounds), start=1):
        if edge:
            for g in graphs:
                g.add_edge(*edge)
        for w in nodes:
            new.process_node(w)
            ref.process_node(w)
            assert_same(new, ref)
        if r % 5 == 0:
            assert new.best(refresh=True) == ref.best(refresh=True)
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
    """``best()`` returns the holder, the unrefreshed max; every write to
    ``sets`` keeps it current."""

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
        holder = min(sv.sets)  # {0} sits at every exponent; ties go lowest
        sv._update_thresholds(1000.0)  # every old exponent but the holder's drops out
        assert list(sv.sets) == [holder, *sv._exponent_range()]
        assert sv.best() == (frozenset({0}), 5.0)
        assert sv.best() == max(sv.sets.values(), key=itemgetter(1))

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


def fed_sieve_states(seed: int, k: int, eps: float, rounds: int = 60):
    """Yield a kernel sieve after every feed and every refresh (each fifth
    round) on a random growing graph."""
    rng = np.random.default_rng(seed)
    g = DiGraph()
    sv = ThresholdSieve(k, eps, InfluenceOracle(g))
    for r, (edge, nodes) in enumerate(random_rounds(rng, 25, rounds), start=1):
        if edge:
            g.add_edge(*edge)
        for w in nodes:
            sv.process_node(w)
            yield sv
        if r % 5 == 0:
            sv.best(refresh=True)
            yield sv


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k,eps", [(1, 0.1), (3, 0.1), (4, 0.3)])
class TestPruning:
    """SieveStreaming++: the range's lower end only rises, so what is cut
    stays cut, and the set holding ``lb`` survives every cut."""

    def test_cut_exponent_never_returns(self, seed, k, eps):
        seen: set[int] = set()
        cut: set[int] = set()
        for sv in fed_sieve_states(seed, k, eps):
            keys = set(sv.sets)
            cut |= seen - keys
            assert not cut & keys
            seen |= keys

    def test_holder_never_dropped(self, seed, k, eps):
        lb, holder, closed = 0.0, None, None
        for sv in fed_sieve_states(seed, k, eps):
            assert sv.lb >= lb  # lb only rises ...
            # ... and a cut keeps the holder
            assert sv.lb > lb or holder is None or holder in sv.sets
            lb, (s, val) = sv.lb, sv.best()
            assert val == lb == max(v for _, v in sv.sets.values())
            holder = next((i for i, sv_i in sv.sets.items() if sv_i == (s, val)), None)
            # Only the holder may sit below the range, and there it takes no nodes.
            below = [i for i in sv.sets if i < sv._exponent_range().start]
            assert below in ([], [holder])
            if below and closed is not None and closed[0] == holder:
                assert sv.sets[holder][0] == closed[1]
            closed = (holder, s) if below else None

    def test_bills_no_more_than_unpruned(self, seed, k, eps):
        """Every feed bills at most what the unpruned sieve bills: the open
        sets are the unpruned sieve's sets at the kept exponents, with the
        same members. A refresh may bill one more, for the closed holder,
        which the unpruned sieve can have cut or grown past."""
        rng = np.random.default_rng(seed)
        g_new, g_old = DiGraph(), DiGraph()
        new = ThresholdSieve(k, eps, InfluenceOracle(g_new))
        old = UnprunedSieve(k, eps, FreshBFSOracle(g_old))

        def billed(op):
            a, b = new.oracle.oracle_calls, old.oracle.oracle_calls
            op(new)
            op(old)
            return new.oracle.oracle_calls - a, old.oracle.oracle_calls - b

        for edge, nodes in random_rounds(rng, 25, 60):
            if edge:
                g_new.add_edge(*edge)
                g_old.add_edge(*edge)
            for w in nodes:
                n_new, n_old = billed(lambda sv: sv.process_node(w))
                assert n_new <= n_old
                for i, (s, _) in new.sets.items():
                    if i in new._exponent_range():
                        assert s == old.sets[i][0]
            n_new, n_old = billed(lambda sv: sv.best(refresh=True))
            assert n_new <= n_old + 1
