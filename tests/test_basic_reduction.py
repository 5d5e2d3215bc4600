"""Unit tests for BasicReduction (repro.core.basic_reduction)."""
import numpy as np
import pytest

from repro.core.basic_reduction import BasicReduction
from repro.tdn.graph import TDNGraph
from repro.tdn.influence import brute_force_opt
from tests.test_histapprox import GAPPY_LIFETIMES, gappy_stream


def random_stream(seed: int, T: int = 30, n_nodes: int = 14, L: int = 6):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(1, T + 1):
        u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
        if u == v:
            v = (v + 1) % n_nodes
        out.append((t, u, v, int(rng.integers(1, L + 1))))
    return out


class TestMechanics:
    def test_instance_count_constant(self):
        br = BasicReduction(2, 0.1, L=5)
        assert br.n_instances == 5
        br.step([(1, 2, 3)])
        assert br.n_instances == 5

    def test_head_processed_exactly_alive_edges(self):
        """The paper's invariant: A_1^(t) has processed exactly E_t."""
        L = 6
        br = BasicReduction(2, 0.1, L=L)
        ref = TDNGraph()
        for t, u, v, l in random_stream(0, T=25, L=L):
            ref.advance_to(t)
            ref.add_edges([(u, v, l)], t)
            br.step([(u, v, l)])
            # after step+shift, the new head must hold exactly the edges
            # that are still alive at time t+1
            ref_next = [(uu, vv) for uu, vv, rl in ref.edges_with_lifetime() if rl > 1]
            assert br.head_edge_count() == len(ref_next)

    def test_lifetime_clipped_to_L(self):
        br = BasicReduction(1, 0.1, L=3)
        br.step([(1, 2, 999)])
        assert br.head_edge_count() == 1  # survived the shift => l>=2 after clip

    def test_invalid_L(self):
        with pytest.raises(ValueError):
            BasicReduction(2, 0.1, L=0)

    @staticmethod
    def check_rejected_without_state_change(batch, t, match):
        """A rejected step leaves the tracker equal to one that never saw
        it, through the rest of the stream."""
        stream = random_stream(4, L=6)
        seen, clean = BasicReduction(2, 0.1, L=6), BasicReduction(2, 0.1, L=6)
        for _, u, v, l in stream[:10]:
            seen.step([(u, v, l)])
            clean.step([(u, v, l)])
        with pytest.raises(ValueError, match=match):
            seen.step(batch, t)
        assert seen.oracle_calls == clean.oracle_calls
        assert seen.head_edge_count() == clean.head_edge_count()
        for t, u, v, l in stream[10:]:
            assert seen.step([(u, v, l)], t) == clean.step([(u, v, l)], t)
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

    @pytest.mark.parametrize("lifetimes", list(GAPPY_LIFETIMES))
    @pytest.mark.parametrize("seed", range(4))
    def test_event_time_gaps(self, seed, lifetimes):
        """With event-time jumps of up to 2L the head has processed exactly
        the alive edges, so the tracked value is exactly f_t(S_t); and the
        answers equal those on the same stream with every gap filled by
        empty batches."""
        k, eps, L = 2, 0.1, 6
        steps = gappy_stream(seed, GAPPY_LIFETIMES[lifetimes](L, seed), L)
        br, filled, ref = BasicReduction(k, eps, L), BasicReduction(k, eps, L), TDNGraph()
        prev = 0
        for t, batch in steps:
            ref.advance_to(t)
            ref.add_edges(batch, t)
            for _ in range(t - prev - 1):
                filled.step([])
            prev = t
            s, val = br.step(batch, t)
            assert filled.step(batch) == (s, val), t
            assert val == (len(ref.g.reachable(s)) if s else 0), t
            alive_next = [e for e in ref.edges_with_lifetime() if e[2] > 1]
            assert br.head_edge_count() == len(alive_next), t

    def test_solution_after_expiry_is_empty(self):
        br = BasicReduction(2, 0.1, L=3)
        br.step([(1, 2, 1)])
        s, val = br.step([])  # edge expired with the shift
        assert s == frozenset() and val == 0.0


class TestApproximation:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2])
    def test_guarantee_on_tdn(self, seed, k):
        """(1/2-eps)-approx vs brute force on the alive graph (Theorem 4)."""
        eps, L = 0.1, 6
        br = BasicReduction(k, eps, L)
        ref = TDNGraph()
        for t, u, v, l in random_stream(seed, L=L):
            ref.advance_to(t)
            ref.add_edges([(u, v, l)], t)
            s, _ = br.step([(u, v, l)])
            _, opt = brute_force_opt(ref.g, k)
            val = len(ref.g.reachable(s)) if s else 0
            assert val >= (0.5 - eps) * opt - 1e-9, (t, val, opt)

    def test_matches_sieve_adn_when_all_lifetimes_maximal(self):
        """With every lifetime = L the TDN is a sliding window of width L;
        within the first L steps it behaves addition-only and the head
        instance sees everything."""
        from repro.core.sieve_adn import SieveADN

        L = 10
        br = BasicReduction(2, 0.1, L=L)
        adn = SieveADN(2, 0.1)
        stream = random_stream(3, T=L - 1, L=1)  # lifetimes overridden below
        for t, u, v, _ in stream:
            s_br, _ = br.step([(u, v, L)])
            adn.process_batch([(u, v)])
        s_adn, _ = adn.solution()
        assert br.head_edge_count() == adn.graph.n_edges
