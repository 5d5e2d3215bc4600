"""Unit tests for the counting influence oracle (repro.tdn.influence)."""
import numpy as np
import pytest

from repro.tdn.graph import DiGraph
from repro.tdn.influence import CallCounter, InfluenceOracle, ReachClosure, brute_force_opt


def chain_graph(n: int) -> DiGraph:
    g = DiGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestOracle:
    def test_spread_counts_reachable(self):
        o = InfluenceOracle(chain_graph(5))
        assert o.spread((0,)) == 5
        assert o.spread((4,)) == 1
        assert o.spread((2, 3)) == 3

    def test_spread_of_missing_node_is_one(self):
        o = InfluenceOracle(chain_graph(3))
        assert o.spread((99,)) == 1

    def test_every_evaluation_billed(self):
        o = InfluenceOracle(chain_graph(4))
        o.spread((0,))
        o.spread((0,))  # cached BFS, still billed
        o.marginal_gain(frozenset((0,)), 3)
        assert o.oracle_calls == 3

    def test_shared_counter(self):
        c = CallCounter()
        o1 = InfluenceOracle(chain_graph(3), c)
        o2 = InfluenceOracle(chain_graph(4), c)
        o1.spread((0,))
        o2.spread((0,))
        assert c.calls == 2

    def test_marginal_gain_definition(self):
        g = chain_graph(6)
        o = InfluenceOracle(g)
        for base in [frozenset(), frozenset((0,)), frozenset((4,))]:
            for v in range(6):
                expect = len(g.reachable(base | {v})) - len(g.reachable(base))
                assert o.marginal_gain(base, v) == expect

    def test_marginal_gain_zero_if_already_reached(self):
        o = InfluenceOracle(chain_graph(5))
        assert o.marginal_gain(frozenset((0,)), 3) == 0

    def test_cache_invalidated_on_mutation(self):
        g = chain_graph(3)
        o = InfluenceOracle(g)
        assert o.spread((0,)) == 3
        g.add_edge(2, 7)
        assert o.spread((0,)) == 4

    def test_cache_holds_only_current_version(self):
        """After a mutation, the first evaluation drops every reach of the
        older graph: no stale entry is kept, since none can be hit."""
        g = chain_graph(4)
        o = InfluenceOracle(g)
        for s in [(0,), (1,), (2,), (0, 3)]:
            o.spread(s)
        g.add_edge(3, 4)
        assert o.spread((1,)) == 4
        assert o._cache == {frozenset((1,)): {1, 2, 3, 4}}

    def test_marginal_gain_reuses_singleton_reach(self, monkeypatch):
        """After the billed ``spread({v})`` the gain runs no BFS and
        bills exactly one call."""
        g = chain_graph(6)
        o = InfluenceOracle(g)
        base = frozenset((4,))
        o.spread(base)
        o.spread((1,))
        bfs = []
        orig = DiGraph.reachable
        monkeypatch.setattr(DiGraph, "reachable", lambda self, s: bfs.append(s) or orig(self, s))
        calls = o.oracle_calls
        assert o.marginal_gain(base, 1) == 3
        assert o.oracle_calls == calls + 1 and bfs == []

    def test_singleton_reach_not_reused_after_mutation(self):
        g = chain_graph(2)
        o = InfluenceOracle(g)
        assert o.spread((0,)) == 2
        g.add_edge(1, 2)
        assert o.marginal_gain(frozenset((5,)), 0) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_submodularity_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        g = DiGraph()
        for _ in range(40):
            u, v = (int(x) for x in rng.integers(0, 15, 2))
            if u != v:
                g.add_edge(u, v)
        o = InfluenceOracle(g)
        nodes = sorted(g.nodes())
        s = frozenset(nodes[:2])
        t = s | frozenset(nodes[2:4])
        for v in nodes[4:8]:
            assert o.marginal_gain(s, v) >= o.marginal_gain(t, v)  # submodular
        assert o.spread(t) >= o.spread(s)  # monotone


def chain_closure(n: int, counter: CallCounter | None = None) -> ReachClosure:
    """The closure of ``chain_graph(n)``, built by reporting each insert
    with the nodes that reached its source but not its target."""
    c = ReachClosure(counter)
    for i in range(n - 1):
        c.add_edge(i, i + 1, set(range(i + 1)))
    return c


class TestReachClosure:
    def test_spread_counts_reachable(self):
        c = chain_closure(5)
        assert c.spread((0,)) == 5
        assert c.spread((4,)) == 1
        assert c.spread((2, 3)) == 3
        assert c.spread(()) == 0

    def test_unseen_nodes_reach_only_themselves(self):
        c = chain_closure(3)
        assert c.spread((99,)) == 1
        assert c.spread((0, 99, 98)) == 5
        assert c.marginal_gain(frozenset((0,)), 99) == 1
        assert c.marginal_gain(frozenset((99,)), 99) == 0
        assert c.marginal_gain(frozenset((99,)), 1) == 2
        assert 99 not in c.reach

    def test_same_answers_and_billing_as_bfs_oracle(self):
        g, c = chain_graph(6), chain_closure(6, CallCounter())
        o = InfluenceOracle(g, CallCounter())
        for base in [frozenset(), frozenset((0,)), frozenset((4,)), frozenset((2, 7))]:
            for v in range(8):
                assert c.marginal_gain(base, v) == o.marginal_gain(base, v)
                assert c.spread(base | {v}) == o.spread(base | {v})
        assert c.counter.calls == o.oracle_calls == 64

    def test_cached_union_dropped_when_a_mask_grows(self):
        c = chain_closure(3)
        base = frozenset((1,))
        assert c.marginal_gain(base, 0) == 1
        c.add_edge(2, 5, {0, 1, 2})
        assert c.marginal_gain(base, 0) == 1 and c.spread(base) == 3

    def test_copy_is_independent(self):
        c = chain_closure(3)
        d = c.copy()
        d.add_edge(2, 3, {0, 1, 2})
        assert c.spread((0,)) == 3 and d.spread((0,)) == 4
        assert c.counter is d.counter and c.counter.calls == 2


class TestBruteForce:
    def test_chain_optimum(self):
        g = chain_graph(5)
        s, val = brute_force_opt(g, 1)
        assert s == frozenset((0,)) and val == 5

    def test_two_chains(self):
        g = DiGraph()
        for i in range(3):
            g.add_edge(i, i + 1)
        for i in range(10, 13):
            g.add_edge(i, i + 1)
        s, val = brute_force_opt(g, 2)
        assert s == frozenset((0, 10)) and val == 8

    def test_k_larger_than_nodes(self):
        g = chain_graph(3)
        _, val = brute_force_opt(g, 10)
        assert val == 3
