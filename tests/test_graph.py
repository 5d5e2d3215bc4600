"""Unit tests for the driver-side TDN multigraph (repro.tdn.graph)."""
import numpy as np
import pytest

from repro.tdn.graph import DiGraph, TDNGraph
from repro.tdn.lifetimes import INFINITE


def brute_reach(edges: set[tuple[int, int]], seeds) -> set[int]:
    """Reference reachability by fixpoint iteration."""
    reach = set(seeds)
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in reach and v not in reach:
                reach.add(v)
                changed = True
    return reach


class TestDiGraph:
    def test_add_edge_counts(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert g.n_edges == 3
        assert g.out[1][2] == 2

    def test_remove_edge_multiplicity(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        assert g.n_edges == 1
        assert 2 in g.out[1]
        g.remove_edge(1, 2)
        assert g.n_edges == 0
        assert g.nodes() == set()

    def test_node_removed_when_isolated(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_edge(1, 2)
        assert g.nodes() == {2, 3}

    def test_node_kept_while_other_direction_alive(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        g.remove_edge(1, 2)
        assert g.nodes() == {1, 2}

    def test_version_bumps(self):
        g = DiGraph()
        v0 = g.version
        g.add_edge(1, 2)
        assert g.version > v0
        v1 = g.version
        g.remove_edge(1, 2)
        assert g.version > v1

    def test_reachable_includes_seed(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert g.reachable((3,)) == {3}
        assert g.reachable((1,)) == {1, 2}

    def test_reachable_transitive(self):
        g = DiGraph()
        for u, v in [(1, 2), (2, 3), (3, 4), (9, 1)]:
            g.add_edge(u, v)
        assert g.reachable((1,)) == {1, 2, 3, 4}
        assert g.reachable((9,)) == {9, 1, 2, 3, 4}

    def test_reachable_cycle(self):
        g = DiGraph()
        for u, v in [(1, 2), (2, 3), (3, 1)]:
            g.add_edge(u, v)
        assert g.reachable((2,)) == {1, 2, 3}

    def test_reverse_reachable(self):
        g = DiGraph()
        for u, v in [(1, 2), (2, 3), (4, 3)]:
            g.add_edge(u, v)
        assert g.reverse_reachable((3,)) == {1, 2, 3, 4}
        assert g.reverse_reachable((1,)) == {1}

    @pytest.mark.parametrize("seed", range(10))
    def test_reachable_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        g = DiGraph()
        edges = set()
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, 20, 2))
            if u != v:
                g.add_edge(u, v)
                edges.add((u, v))
        seeds = [int(x) for x in rng.integers(0, 20, 3)]
        assert g.reachable(seeds) == brute_reach(edges, seeds)
        rev = {(v, u) for u, v in edges}
        assert g.reverse_reachable(seeds) == brute_reach(rev, seeds)

    def test_copy_independent(self):
        g = DiGraph()
        g.add_edge(1, 2)
        c = g.copy()
        c.add_edge(2, 3)
        assert g.n_edges == 1 and c.n_edges == 2
        assert g.reachable((1,)) == {1, 2}
        assert c.reachable((1,)) == {1, 2, 3}


class TestTDNGraph:
    def test_edge_alive_exactly_lifetime_steps(self):
        # lifetime 2 at t=1 -> alive at t=1,2, gone at t=3 (tau <= t < tau+l)
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, 2)], 1)
        assert g.n_edges == 1
        g.advance_to(2)
        assert g.n_edges == 1
        g.advance_to(3)
        assert g.n_edges == 0

    def test_lifetime_one(self):
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, 1)], 1)
        assert g.n_edges == 1
        g.advance_to(2)
        assert g.n_edges == 0

    def test_infinite_lifetime_never_expires(self):
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, INFINITE)], 1)
        g.advance_to(10_000)
        assert g.n_edges == 1

    def test_self_loops_skipped(self):
        g = TDNGraph()
        g.add_edges([(1, 1, 5)], 0)
        assert g.n_edges == 0

    def test_nonpositive_lifetime_rejected(self):
        g = TDNGraph()
        with pytest.raises(ValueError):
            g.add_edges([(1, 2, 0)], 0)

    def test_rejected_batch_adds_nothing(self):
        g = TDNGraph()
        g.add_edges([(5, 6, 4)], 0)
        before = (g.n_edges, g.g.version, g.edges_with_lifetime())
        with pytest.raises(ValueError):
            g.add_edges([(1, 2, 3), (3, 4, 0)], 0)
        assert (g.n_edges, g.g.version, g.edges_with_lifetime()) == before

    def test_time_moves_forward_only(self):
        g = TDNGraph()
        g.advance_to(5)
        with pytest.raises(ValueError):
            g.advance_to(4)

    def test_advance_returns_dropped(self):
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, 1), (3, 4, 2)], 1)
        dropped = g.advance_to(2)
        assert dropped == [(1, 2)]

    def test_multi_edge_expiry_is_per_edge(self):
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, 1), (1, 2, 3)], 1)
        g.advance_to(2)
        assert g.n_edges == 1  # long copy survives
        g.advance_to(4)
        assert g.n_edges == 0

    def test_edges_with_lifetime_residuals(self):
        g = TDNGraph()
        g.advance_to(1)
        g.add_edges([(1, 2, 5), (3, 4, 2)], 1)
        g.advance_to(2)
        res = sorted(g.edges_with_lifetime())
        assert res == [(1, 2, 4), (3, 4, 1)]

    def test_edges_with_lifetime_reports_infinite(self):
        g = TDNGraph()
        g.add_edges([(1, 2, INFINITE)], 0)
        assert g.edges_with_lifetime() == [(1, 2, INFINITE)]

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_with_residual_is_lifetime_filter(self, seed):
        """The range query equals the residual-lifetime filter of
        ``edges_with_lifetime()`` as a list (same edges, multiplicities and
        order), with multi-edges, infinite lifetimes and clock gaps."""
        rng = np.random.default_rng(seed)
        L = 9
        g, t = TDNGraph(), 0
        for _ in range(25):
            t += int(rng.integers(1, 4))  # gaps of up to two skipped steps
            g.advance_to(t)
            batch = []
            for _ in range(int(rng.integers(0, 4))):
                u, v = (int(x) for x in rng.integers(0, 5, 2))
                l = INFINITE if rng.random() < 0.1 else int(rng.integers(1, L + 1))
                batch.append((u, v, l))
            g.add_edges(batch, t)
            alive = g.edges_with_lifetime()
            for lo in range(1, L + 1):
                for hi in range(lo + 1, L + 2):
                    want = [(u, v) for u, v, rl in alive if lo <= rl < hi]
                    assert g.edges_with_residual(lo, hi) == want, (t, lo, hi)

    @pytest.mark.parametrize("seed", range(6))
    def test_alive_set_matches_bruteforce_over_time(self, seed):
        rng = np.random.default_rng(seed)
        events = []  # (t, u, v, l)
        for t in range(1, 40):
            u, v = (int(x) for x in rng.integers(0, 12, 2))
            if u != v:
                events.append((t, u, v, int(rng.integers(1, 8))))
        g = TDNGraph()
        for t in range(1, 45):
            g.advance_to(t)
            batch = [(u, v, l) for (tt, u, v, l) in events if tt == t]
            g.add_edges(batch, t)
            alive = [(u, v) for (tt, u, v, l) in events if tt <= t < tt + l]
            assert g.n_edges == len(alive)
            assert {(u, v) for u, nbrs in g.g.out.items() for v in nbrs} == set(alive)
