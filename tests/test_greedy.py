"""Unit tests for the Greedy/Random baselines (repro.core.greedy)."""
import numpy as np
import pytest

from repro.core.greedy import lazy_greedy, random_solution
from repro.tdn.graph import DiGraph
from repro.tdn.influence import CallCounter, InfluenceOracle, brute_force_opt


def naive_greedy(
    graph: DiGraph, k: int, counter: CallCounter | None = None
) -> tuple[frozenset[int], float]:
    """Textbook greedy without lazy evaluation — reference for tests."""
    oracle = InfluenceOracle(graph, counter)
    chosen: frozenset[int] = frozenset()
    value = 0.0
    nodes = sorted(graph.nodes())
    for _ in range(min(k, len(nodes))):
        best_v, best_gain = None, 0.0
        for v in nodes:
            if v in chosen:
                continue
            gain = float(oracle.marginal_gain(chosen, v))
            # Ties broken by node id (ascending) for determinism.
            if gain > best_gain or (gain == best_gain and best_v is not None and v < best_v):
                best_v, best_gain = v, gain
        if best_v is None or best_gain <= 0.0:
            break
        chosen = chosen | {best_v}
        value += best_gain
    return chosen, value


def random_graph(seed: int, n_nodes: int = 16, n_edges: int = 40) -> DiGraph:
    rng = np.random.default_rng(seed)
    g = DiGraph()
    made = 0
    while made < n_edges:
        u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
        if u != v:
            g.add_edge(u, v)
            made += 1
    return g


class TestGreedy:
    def test_empty_graph(self):
        assert lazy_greedy(DiGraph(), 3) == (frozenset(), 0.0)

    def test_single_edge(self):
        g = DiGraph()
        g.add_edge(1, 2)
        s, val = lazy_greedy(g, 1)
        assert s == frozenset((1,)) and val == 2.0

    def test_k_exceeds_nodes(self):
        g = DiGraph()
        g.add_edge(1, 2)
        s, val = lazy_greedy(g, 10)
        assert val == 2.0 and len(s) <= 2

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lazy_equals_naive_value(self, seed, k):
        g = random_graph(seed)
        assert lazy_greedy(g, k)[1] == pytest.approx(naive_greedy(g, k)[1])

    @pytest.mark.parametrize("n_hubs", [4, 6, 8])
    def test_lazy_uses_fewer_calls_on_skewed_graph(self, n_hubs):
        """CELF pays off when influence is skewed (the paper's regime):
        disjoint hub stars make stale bounds stay exact, so round >= 2
        needs O(1) evaluations instead of O(n)."""
        g = DiGraph()
        nid = 100
        for h in range(n_hubs):
            for _ in range(12 - h):  # strictly decreasing hub sizes
                g.add_edge(h, nid)
                nid += 1
        cl, cn = CallCounter(), CallCounter()
        lazy_greedy(g, 4, cl)
        naive_greedy(g, 4, cn)
        assert cl.calls < cn.calls

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_minus_inv_e_guarantee(self, seed, k):
        g = random_graph(seed, n_nodes=12, n_edges=28)
        _, val = lazy_greedy(g, k)
        _, opt = brute_force_opt(g, k)
        assert val >= (1 - 1 / np.e) * opt - 1e-9

    def test_value_equals_true_spread(self):
        g = random_graph(3)
        s, val = lazy_greedy(g, 3)
        assert val == len(g.reachable(s))

    def test_stops_at_zero_gain(self):
        g = DiGraph()
        g.add_edge(1, 2)
        s, val = naive_greedy(g, 5)
        # once everything is reached, no zero-gain nodes are added
        assert len(s) <= 2 and val == 2.0


class TestRandom:
    def test_size(self):
        rng = np.random.default_rng(0)
        s = random_solution(list(range(50)), 7, rng)
        assert len(s) == 7 and s <= set(range(50))

    def test_small_universe(self):
        rng = np.random.default_rng(0)
        assert random_solution([1, 2], 5, rng) == frozenset((1, 2))

    def test_deterministic_given_rng_state(self):
        a = random_solution(list(range(100)), 5, np.random.default_rng(42))
        b = random_solution(list(range(100)), 5, np.random.default_rng(42))
        assert a == b
