"""Unit tests for HistApprox (repro.core.histapprox)."""
from collections import Counter

import numpy as np
import pytest

from repro.core.basic_reduction import BasicReduction
from repro.core.greedy import lazy_greedy
from repro.core.histapprox import HistApprox
from repro.tdn.graph import TDNGraph
from repro.tdn.influence import brute_force_opt
from repro.tdn.lifetimes import ConstantLifetime, GeometricLifetime


def random_stream(seed: int, T: int = 30, n_nodes: int = 14, L: int = 8):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(1, T + 1):
        u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
        if u == v:
            v = (v + 1) % n_nodes
        out.append((t, u, v, int(rng.integers(1, L + 1))))
    return out


def gappy_stream(seed: int, lifetimes, L: int, T: int = 60, n_nodes: int = 12):
    """``(t, batch)`` steps whose event times jump by Δ ∈ {1..2L}, with
    1–3 interactions per step and lifetimes drawn from ``lifetimes``."""
    rng = np.random.default_rng(seed)
    ls = iter(lifetimes.sample(3 * T).tolist())
    t, out = 0, []
    for _ in range(T):
        t += int(rng.integers(1, 2 * L + 1))
        pairs = rng.integers(0, n_nodes, (int(rng.integers(1, 4)), 2)).tolist()
        out.append((t, [(u, v, next(ls)) for u, v in pairs]))
    return out


GAPPY_LIFETIMES = {
    "geometric": lambda L, seed: GeometricLifetime(0.15, L, seed=seed),
    "window": lambda L, seed: ConstantLifetime(L),
}


class TestMechanics:
    def test_indices_sorted_and_within_L(self):
        ha = HistApprox(2, 0.1, L=8)
        for t, u, v, l in random_stream(0):
            ha.step([(u, v, l)])
            assert ha.indices == sorted(set(ha.indices))
            assert all(1 <= x <= 8 for x in ha.indices)
            assert set(ha.indices) == set(ha.instances)

    def test_fewer_instances_than_L(self):
        L = 12
        ha = HistApprox(2, 0.2, L=L)
        counts = []
        for t, u, v, l in random_stream(1, T=60, L=L):
            ha.step([(u, v, l)])
            counts.append(ha.n_instances)
        assert max(counts) < L  # histogram keeps a strict subset

    def test_empty_step_ok(self):
        ha = HistApprox(2, 0.1, L=5)
        s, val = ha.step([])
        assert s == frozenset() and val == 0.0

    def test_master_graph_tracks_alive_edges(self):
        L = 6
        ha = HistApprox(2, 0.1, L=L)
        ref = TDNGraph()
        for t, u, v, l in random_stream(2, L=L):
            ref.advance_to(t)
            ref.add_edges([(u, v, min(l, L))], t)
            ha.step([(u, v, l)])
            assert ha.master.n_edges == ref.n_edges

    def test_self_loops_filtered(self):
        ha = HistApprox(2, 0.1, L=5)
        ha.step([(3, 3, 2)])
        assert ha.master.n_edges == 0 and ha.n_instances == 0

    def test_lifetime_clipped(self):
        ha = HistApprox(2, 0.1, L=4)
        ha.step([(1, 2, 100)])
        assert ha.indices == [3]  # created at 4, shifted to 3

    @staticmethod
    def check_rejected_without_state_change(batch, t, match):
        """A rejected step leaves the tracker equal to one that never saw
        it, through the rest of the stream."""
        stream = random_stream(4, L=8)
        seen, clean = HistApprox(2, 0.1, L=8), HistApprox(2, 0.1, L=8)
        for _, u, v, l in stream[:10]:
            seen.step([(u, v, l)])
            clean.step([(u, v, l)])
        with pytest.raises(ValueError, match=match):
            seen.step(batch, t)
        assert seen.indices == clean.indices
        assert seen.master.now == clean.master.now
        assert seen.oracle_calls == clean.oracle_calls
        for t, u, v, l in stream[10:]:
            assert seen.step([(u, v, l)], t) == clean.step([(u, v, l)], t)
            assert seen.indices == clean.indices
        assert seen.oracle_calls == clean.oracle_calls

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_lifetime_rejected_without_state_change(self, bad):
        self.check_rejected_without_state_change(
            [(5, 6, 2), (2, 3, bad)], None, "lifetime must be positive"
        )

    @pytest.mark.parametrize("t", [10, 4])
    def test_nonincreasing_time_rejected_without_state_change(self, t):
        """The last step was at t=10: t=10 again, or earlier, is refused."""
        self.check_rejected_without_state_change([(5, 6, 2)], t, "event time must increase")

    @pytest.mark.parametrize("seed", range(4))
    def test_instance_graph_is_master_residual_slice(self, seed):
        """After every step, the instance at index i holds exactly the
        master's alive edges with residual lifetime >= i + 1 (the shift has
        already lowered i for the next step), compared as a multiset."""
        L = 12
        rng = np.random.default_rng(seed)
        lifetimes = GeometricLifetime(0.15, L, seed=seed).sample(120)
        ha = HistApprox(2, 0.1, L=L)
        for l in lifetimes:
            u, v = (int(x) for x in rng.integers(0, 10, 2))
            ha.step([(u, v, int(l))])
            alive = ha.master.edges_with_lifetime()
            for i, inst in ha.instances.items():
                held = Counter(
                    {(u, v): m for u, nbrs in inst.graph.out.items() for v, m in nbrs.items()}
                )
                want = Counter((u, v) for u, v, rl in alive if rl >= i + 1)
                assert held == want, (i, ha.indices)

    def test_shift_terminates_index_one(self):
        ha = HistApprox(2, 0.1, L=3)
        ha.step([(1, 2, 1)])  # creates index 1, terminated at shift
        assert ha.indices == []

    def test_time_jump_shifts_by_delta(self):
        """Indices 3 and 7 after the step at t=1; a jump to t=5 (Δ=4)
        expires index 3 and lowers 7 to 4 (residual lifetime 4 at t=5)
        before the batch, and the post-query shift leaves 3."""
        ha = HistApprox(1, 0.1, L=10)
        ha.step([(1, 2, 4), (3, 4, 8), (3, 5, 8)], t=1)
        assert ha.indices == [3, 7]
        s, val = ha.step([], t=5)
        assert ha.master.n_edges == 2 and (s, val) == (frozenset({3}), 3.0)
        assert ha.indices == [3]

    @pytest.mark.parametrize("lifetimes", list(GAPPY_LIFETIMES))
    @pytest.mark.parametrize("seed", range(4))
    def test_event_time_gaps(self, seed, lifetimes):
        """With event-time jumps of up to 2L: the master holds exactly the
        alive edges of an independent G_t, each instance is the master's
        residual slice, and the answer is at most f_t(S_t) and at least
        (1/3−ε)·lazy greedy on G_t."""
        k, eps, L = 2, 0.1, 10
        ha, ref = HistApprox(k, eps, L), TDNGraph()
        for t, batch in gappy_stream(seed, GAPPY_LIFETIMES[lifetimes](L, seed), L):
            ref.advance_to(t)
            ref.add_edges(batch, t)
            s, val = ha.step(batch, t)
            f = len(ref.g.reachable(s)) if s else 0
            assert ha.master.n_edges == ref.n_edges, t
            assert val <= f, (t, val, f)
            assert f >= (1.0 / 3.0 - eps) * lazy_greedy(ref.g, k)[1] - 1e-9, t
            alive = ha.master.edges_with_lifetime()
            for i, inst in ha.instances.items():
                held = Counter(
                    {(u, v): m for u, nbrs in inst.graph.out.items() for v, m in nbrs.items()}
                )
                assert held == Counter((u, v) for u, v, rl in alive if rl >= i + 1), (t, i)


class TestRedundancy:
    def test_close_outputs_pruned(self):
        """Identical parallel edge batches at many lifetimes produce
        equal-valued instances; the histogram must collapse them."""
        ha = HistApprox(1, 0.1, L=10)
        batch = [(1, 2, l) for l in range(1, 11)]
        ha.step(batch)
        # outputs of all instances equal -> only endpoints survive
        assert ha.n_instances <= 2

    def test_reduce_redundancy_idempotent(self):
        """A second ReduceRedundancy pass right after a step must remove
        nothing — the histogram is already fully pruned w.r.t. the current
        outputs."""
        eps = 0.15
        ha = HistApprox(2, eps, L=10)
        for t, u, v, l in random_stream(4, T=50, L=10):
            ha.step([(u, v, l)])
            before = list(ha.indices)
            ha._reduce_redundancy()
            assert ha.indices == before


class TestApproximation:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2])
    def test_guarantee_on_tdn(self, seed, k):
        """(1/3-eps)-approx vs brute force at every step (Theorem 7)."""
        eps, L = 0.1, 8
        ha = HistApprox(k, eps, L)
        ref = TDNGraph()
        for t, u, v, l in random_stream(seed, L=L):
            ref.advance_to(t)
            ref.add_edges([(u, v, l)], t)
            s, _ = ha.step([(u, v, l)])
            _, opt = brute_force_opt(ref.g, k)
            val = len(ref.g.reachable(s)) if s else 0
            assert val >= (1.0 / 3.0 - eps) * opt - 1e-9, (t, val, opt)

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_basic_reduction(self, seed):
        """Fig. 7's headline: value within a few % of BasicReduction using
        far fewer oracle calls."""
        k, eps, L, T = 2, 0.1, 10, 60
        ha, br = HistApprox(k, eps, L), BasicReduction(k, eps, L)
        ref = TDNGraph()
        ha_vals, br_vals = [], []
        for t, u, v, l in random_stream(seed, T=T, L=L):
            ref.advance_to(t)
            ref.add_edges([(u, v, min(l, L))], t)
            s_ha, _ = ha.step([(u, v, l)])
            s_br, _ = br.step([(u, v, l)])
            ha_vals.append(len(ref.g.reachable(s_ha)) if s_ha else 0)
            br_vals.append(len(ref.g.reachable(s_br)) if s_br else 0)
        assert sum(ha_vals) >= 0.9 * sum(br_vals)
        assert ha.oracle_calls < br.oracle_calls
