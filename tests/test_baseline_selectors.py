"""Tests for the IM baselines DIM / IMM / TIM+ (repro.rrset.*)."""
import numpy as np
import pandas as pd
import pytest

from repro.ic.probabilities import ic_probabilities_pandas
from repro.rrset.dim import DIMIndex
from repro.rrset.imm import imm_select
from repro.rrset.timplus import tim_plus_select


def hub_interactions(seed: int = 0, n: int = 600) -> pd.DataFrame:
    """Hubby graph: node 0 (strong) and node 1 (medium) dominate."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        r = rng.random()
        if r < 0.5:
            rows.append((0, int(rng.integers(10, 60))))
        elif r < 0.75:
            rows.append((1, int(rng.integers(60, 90))))
        else:
            rows.append((int(rng.integers(2, 10)), int(rng.integers(90, 140))))
    return pd.DataFrame(rows, columns=["u", "v"])


@pytest.fixture(scope="module")
def probs():
    return ic_probabilities_pandas(hub_interactions())


from repro.rrset.rr import ICGraph  # noqa: E402


class TestIMM:
    def test_returns_at_most_k(self, probs):
        seeds, used = imm_select(ICGraph(probs), 3, seed=1, max_sets=1500)
        assert len(seeds) <= 3 and used > 0

    def test_finds_dominant_hub(self, probs):
        seeds, _ = imm_select(ICGraph(probs), 2, seed=1, max_sets=1500)
        assert 0 in seeds

    def test_empty_graph(self):
        seeds, used = imm_select(ICGraph(pd.DataFrame(columns=["u", "v", "p"])), 3)
        assert seeds == frozenset() and used == 0

    def test_k_zero(self, probs):
        assert imm_select(ICGraph(probs), 0)[0] == frozenset()

    def test_respects_cap(self, probs):
        _, used = imm_select(ICGraph(probs), 3, seed=1, max_sets=200)
        assert used <= 200

    def test_deterministic(self, probs):
        a = imm_select(ICGraph(probs), 3, seed=5, max_sets=800)
        b = imm_select(ICGraph(probs), 3, seed=5, max_sets=800)
        assert a == b


class TestTIMPlus:
    def test_returns_at_most_k(self, probs):
        seeds, used = tim_plus_select(ICGraph(probs), 3, seed=1, max_sets=1500)
        assert len(seeds) <= 3 and used > 0

    def test_finds_dominant_hub(self, probs):
        seeds, _ = tim_plus_select(ICGraph(probs), 2, seed=1, max_sets=1500)
        assert 0 in seeds

    def test_empty_graph(self):
        seeds, used = tim_plus_select(ICGraph(pd.DataFrame(columns=["u", "v", "p"])), 3)
        assert seeds == frozenset() and used == 0

    def test_deterministic(self, probs):
        a = tim_plus_select(ICGraph(probs), 2, seed=5, max_sets=800)
        b = tim_plus_select(ICGraph(probs), 2, seed=5, max_sets=800)
        assert a == b


class TestDIM:
    def test_rebuild_and_query(self, probs):
        idx = DIMIndex(beta=16, seed=0, max_sets=500)
        idx.update(probs)
        seeds = idx.query(2)
        assert 0 in seeds and len(seeds) <= 2

    def test_update_touches_few_sets(self, probs):
        """Incremental contract: a small update regenerates far fewer sets
        than a rebuild."""
        idx = DIMIndex(beta=16, seed=0, max_sets=500)
        idx.update(probs)
        pool = len(idx.rr)
        added = pd.DataFrame({"u": [200], "v": [201]})
        extra = pd.concat([hub_interactions(), added], ignore_index=True)
        regen = idx.update(ic_probabilities_pandas(extra), added=[(200, 201)])
        assert regen < pool / 2

    def test_update_reflects_new_hub(self):
        """A new dominant hub must enter the query answer after updates."""
        base = hub_interactions()
        idx = DIMIndex(beta=16, seed=0, max_sets=500)
        idx.update(ic_probabilities_pandas(base))
        assert 500 not in idx.query(2)
        rows = [(500, int(v)) for v in range(10, 150)] * 3
        newint = pd.concat(
            [base, pd.DataFrame(rows, columns=["u", "v"])], ignore_index=True
        )
        idx.update(ic_probabilities_pandas(newint), added=rows)
        assert 500 in idx.query(2)

    def test_update_handles_removal_to_empty(self, probs):
        idx = DIMIndex(beta=8, seed=0, max_sets=100)
        idx.update(probs)
        out = idx.update(pd.DataFrame(columns=["u", "v", "p"]), removed=None)
        assert idx.rr == [] and out == 0
        assert idx.query(3) == frozenset()

    def test_first_update_acts_as_rebuild(self, probs):
        idx = DIMIndex(beta=8, seed=0, max_sets=100)
        n = idx.update(probs)
        assert n == len(idx.rr) > 0
