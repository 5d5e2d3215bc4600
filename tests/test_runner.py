"""Tests for the shared experiment runner (repro.experiments.runner)."""
import time

import numpy as np
import pandas as pd
import pytest

from repro.core.basic_reduction import BasicReduction
from repro.experiments.datasets import make_stream
from repro.experiments import runner
from repro.experiments.runner import METHODS, _Reference, assign_lifetimes, run_tracker
from repro.streaming.driver import stream_steps
from repro.tdn.graph import TDNGraph

STREAM = make_stream("brightkite", 80)
LIFETIMED = assign_lifetimes(STREAM, p=0.05, L=30, seed=0)


class TestAssignLifetimes:
    def test_adds_column_within_bounds(self):
        assert LIFETIMED["l"].between(1, 30).all()

    def test_deterministic(self):
        a = assign_lifetimes(STREAM, p=0.05, L=30, seed=1)
        b = assign_lifetimes(STREAM, p=0.05, L=30, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_original_untouched(self):
        assert "l" not in STREAM.columns


class TestReference:
    def test_tracks_alive_graph(self):
        ref = _Reference()
        check = TDNGraph()
        for t, batch in LIFETIMED.groupby("t", sort=True):
            ref.step(list(batch[["u", "v", "l"]].itertuples(index=False)), int(t))
            check.advance_to(int(t))
            check.add_edges(batch[["u", "v", "l"]].itertuples(index=False), int(t))
            assert ref.tdn.n_edges == check.n_edges

    def test_score_empty(self):
        assert _Reference().score(frozenset()) == 0


class TestMethods:
    def test_dim_gets_step_pairs(self):
        """DIM's index is updated with the step's arrivals in row order and
        the pairs that expired at it."""
        dim = METHODS["dim"](3, 0.1, 10, 0, {})
        seen = []
        dim.index.update = lambda probs, added, removed: seen.append((added, removed))
        dim.step([(1, 2, 1)], 1)
        dim.step([(3, 4, 5), (1, 3, 2)], 2)
        assert seen == [([(1, 2)], []), ([(3, 4), (1, 3)], [(1, 2)])]


class TestRunTracker:
    @pytest.mark.parametrize(
        "algo", ["histapprox", "basicreduction", "greedy", "random", "dim"]
    )
    def test_schema_and_rowcount(self, algo):
        res = run_tracker(LIFETIMED, algo, k=3, eps=0.2, L=30, query_every=10)
        assert list(res.columns) == ["t", "value", "calls", "n_instances", "wall_s"]
        assert len(res) == 8  # 80 steps / query_every 10
        assert (res["t"] % 10 == 0).all()

    def test_histapprox_queries_every_step(self):
        res = run_tracker(LIFETIMED, "histapprox", k=3, eps=0.2, L=30)
        assert len(res) == 80

    def test_calls_cumulative_nondecreasing(self):
        for algo in ("histapprox", "greedy"):
            res = run_tracker(LIFETIMED, algo, k=3, eps=0.2, L=30, query_every=5)
            assert res["calls"].is_monotonic_increasing

    def test_random_has_no_calls(self):
        res = run_tracker(LIFETIMED, "random", k=3, query_every=5)
        assert (res["calls"] == 0).all()

    def test_greedy_dominates_random(self):
        g = run_tracker(LIFETIMED, "greedy", k=3, query_every=5)
        r = run_tracker(LIFETIMED, "random", k=3, query_every=5, seed=1)
        assert g["value"].mean() > r["value"].mean()

    def test_values_bounded_by_node_count(self):
        res = run_tracker(LIFETIMED, "greedy", k=3, query_every=5)
        n_nodes = pd.concat([STREAM["u"], STREAM["v"]]).nunique()
        assert (res["value"] <= n_nodes).all()

    @pytest.mark.parametrize("algo", ["imm", "tim+"])
    def test_rr_baselines_run(self, algo):
        res = run_tracker(
            LIFETIMED, algo, k=3, query_every=20, rr_kwargs={"max_sets": 300}
        )
        assert len(res) == 4 and (res["value"] > 0).all()

    def test_unknown_algo_raises(self):
        with pytest.raises(ValueError):
            run_tracker(LIFETIMED, "nope", k=3)

    def test_deterministic_histapprox(self):
        a = run_tracker(LIFETIMED, "histapprox", k=3, eps=0.2, L=30)
        b = run_tracker(LIFETIMED, "histapprox", k=3, eps=0.2, L=30)
        pd.testing.assert_frame_equal(a.drop(columns="wall_s"), b.drop(columns="wall_s"))

    def test_event_time_reaches_the_tracker(self):
        """On a stream with gaps in t, BasicReduction's tracked value is
        f_t(S_t), so the scored values equal a direct feed's."""
        gappy = LIFETIMED.assign(t=LIFETIMED["t"] * 4)
        res = run_tracker(gappy, "basicreduction", k=3, eps=0.2, L=30)
        br = BasicReduction(3, 0.2, 30)
        want = [br.step(edges, t)[1] for t, edges in stream_steps(gappy)]
        assert res["t"].tolist() == list(range(4, 321, 4))
        assert res["value"].tolist() == want

    def test_wall_time_excludes_reference(self, monkeypatch):
        """``wall_s`` times the method only: 10 ms of reference upkeep and
        scoring per step (0.8 s in all) do not show in it."""

        def slow(f):
            return lambda *a: (time.sleep(0.005), f(*a))[1]

        ref = _Reference()
        monkeypatch.setattr(runner, "_Reference", lambda: ref)
        monkeypatch.setattr(ref, "step", slow(ref.step))
        monkeypatch.setattr(ref, "score", slow(ref.score))
        res = run_tracker(LIFETIMED, "random", k=3)
        assert res["wall_s"].is_monotonic_increasing
        assert 0 < res["wall_s"].iloc[-1] < 0.4
