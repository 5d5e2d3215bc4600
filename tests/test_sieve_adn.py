"""Unit tests for SieveADN over addition-only streams (repro.core.sieve_adn)."""
import numpy as np
import pytest

from repro.core.sieve_adn import SieveADN
from repro.tdn.graph import DiGraph
from repro.tdn.influence import CallCounter, InfluenceOracle, brute_force_opt


def random_batches(seed: int, n_batches: int = 12, n_nodes: int = 16):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        size = int(rng.integers(1, 4))
        batch = []
        while len(batch) < size:
            u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
            if u != v:
                batch.append((u, v))
        out.append(batch)
    return out


class TestMechanics:
    def test_graph_accumulates(self):
        a = SieveADN(2, 0.1)
        a.process_batch([(1, 2)])
        a.process_batch([(2, 3)])
        assert a.graph.n_edges == 2

    def test_self_loops_filtered(self):
        a = SieveADN(2, 0.1)
        assert a.process_batch([(1, 1)]) == set()
        assert a.graph.n_edges == 0

    def test_empty_batch(self):
        a = SieveADN(2, 0.1)
        assert a.process_batch([]) == set()
        assert a.solution() == (frozenset(), 0.0)

    def test_affected_nodes_are_ancestors_plus_endpoints(self):
        a = SieveADN(2, 0.1)
        a.process_batch([(1, 2), (2, 3)])
        # new edge 3->4: ancestors of 3 are {1,2,3}, plus endpoint 4
        affected = a.process_batch([(3, 4)])
        assert affected == {1, 2, 3, 4}

    def test_shared_counter_across_instances(self):
        c = CallCounter()
        a1, a2 = SieveADN(2, 0.1, c), SieveADN(2, 0.1, c)
        a1.process_batch([(1, 2)])
        n1 = c.calls
        a2.process_batch([(1, 2)])
        assert c.calls > n1
        assert a1.oracle_calls == a2.oracle_calls == c.calls

    def test_copy_is_independent(self):
        a = SieveADN(2, 0.1)
        a.process_batch([(1, 2), (3, 4)])
        b = a.copy()
        b.process_batch([(4, 5)])
        assert a.graph.n_edges == 2 and b.graph.n_edges == 3
        assert a.solution()[1] <= b.solution()[1]

    def test_copy_shares_counter(self):
        a = SieveADN(2, 0.1)
        b = a.copy()
        b.process_batch([(1, 2)])
        assert a.oracle_calls == b.oracle_calls


class TestApproximation:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_guarantee_holds_at_every_step(self, seed, k):
        """(1/2-eps)-approx vs brute force after every batch (Theorem 2)."""
        eps = 0.1
        a = SieveADN(k, eps)
        ref = DiGraph()
        for batch in random_batches(seed):
            a.process_batch(batch)
            for u, v in batch:
                ref.add_edge(u, v)
            s, _ = a.solution(refresh=True)
            _, opt = brute_force_opt(ref, k)
            val = len(ref.reachable(s)) if s else 0
            assert val >= (0.5 - eps) * opt - 1e-9

    def test_duplicate_nodes_in_stream_ok(self):
        """Same node arriving many times (the ADN/SSO difference) is fine."""
        a = SieveADN(1, 0.1)
        for i in range(1, 8):
            a.process_batch([(0, i)])  # node 0 re-affected every batch
        s, _ = a.solution(refresh=True)
        assert s == frozenset((0,))
        assert len(a.graph.reachable(s)) == 8


def closure_sets(a: SieveADN) -> dict[int, set[int]]:
    """The closure of ``a`` as node -> reached nodes. Bits are handed out
    in first-sight order, so bit ``i`` is the ``i``-th key of the map."""
    order = list(a.oracle.reach)
    return {x: {order[i] for i in range(len(order)) if m >> i & 1} for x, m in a.oracle.reach.items()}


def growing_batches(rng, n_batches: int, n_nodes: int):
    """Small node range (so cycles and parallel edges are common), with
    self-loops and repeats of earlier edges mixed in."""
    seen: list[tuple[int, int]] = []
    for _ in range(n_batches):
        batch = []
        for _ in range(int(rng.integers(1, 5))):
            r = rng.random()
            if r < 0.1:
                u = int(rng.integers(0, n_nodes))
                batch.append((u, u))
            elif r < 0.25 and seen:
                batch.append(seen[int(rng.integers(0, len(seen)))])
            else:
                batch.append(tuple(int(x) for x in rng.integers(0, n_nodes, 2)))
        seen.extend(batch)
        yield batch


class TestClosure:
    """The sieve's oracle is the instance's transitive closure, kept up by
    ``process_batch``; it must answer and bill exactly as a BFS would."""

    def check(self, a: SieveADN, rng, n_nodes: int) -> None:
        g = a.graph
        assert set(a.oracle.reach) == g.nodes()
        for x, reached in closure_sets(a).items():
            assert reached == g.reachable((x,)), x
        ref = InfluenceOracle(g, CallCounter())
        queries = list(range(n_nodes + 3))  # the last three are never seen
        for _ in range(20):
            base = frozenset(int(x) for x in rng.choice(queries, int(rng.integers(0, 4)), replace=False))
            v = int(rng.choice(queries))
            calls, ref_calls = a.counter.calls, ref.counter.calls
            assert a.oracle.spread(base) == ref.spread(base)
            assert a.oracle.spread((v,)) == ref.spread((v,))
            assert a.oracle.marginal_gain(base, v) == ref.marginal_gain(base, v)
            assert a.counter.calls - calls == ref.counter.calls - ref_calls == 3

    @pytest.mark.parametrize("seed", range(30))
    def test_masks_and_answers_match_bfs_after_every_batch(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(4, 20))
        a = SieveADN(3, 0.1)
        copies: list[SieveADN] = []
        for i, batch in enumerate(growing_batches(rng, 25, n_nodes)):
            for inst in [a] + copies:
                inst.process_batch(batch if inst is a else batch[::-1][1:])
                self.check(inst, rng, n_nodes)
            if i in (5, 12):
                copies.append(a.copy())

    def test_copies_diverge(self):
        a = SieveADN(2, 0.1)
        a.process_batch([(1, 2)])
        b = a.copy()
        b.process_batch([(2, 3)])
        a.process_batch([(2, 4), (4, 1)])
        assert closure_sets(a) == {1: {1, 2, 4}, 2: {1, 2, 4}, 4: {1, 2, 4}}
        assert closure_sets(b) == {1: {1, 2, 3}, 2: {2, 3}, 3: {3}}

    def test_repeated_edge_leaves_closure_as_is(self):
        a = SieveADN(2, 0.1)
        a.process_batch([(1, 2), (2, 3)])
        reach = dict(a.oracle.reach)
        assert a.process_batch([(1, 2), (1, 3)]) == set()
        assert a.oracle.reach == reach and a.graph.n_edges == 4
