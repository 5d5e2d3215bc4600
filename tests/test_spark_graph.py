"""Tests for the edges-DataFrame TDN + distributed BFS (repro.tdn.spark_graph).

The distributed reachability is checked two ways: against the driver-side
BFS and — via the DuckDB oracle — against a recursive CTE.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.tdn.graph import DiGraph
from repro.tdn.spark_graph import (
    REACHABILITY_SQL,
    alive_at,
    influence_spread,
    reachable,
    tdn_edges,
)


def random_interactions(seed: int, n: int = 120, n_nodes: int = 25) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n_nodes, n)
    v = (u + 1 + rng.integers(0, n_nodes - 1, n)) % n_nodes
    return pd.DataFrame(
        {"u": u.astype("int64"), "v": v.astype("int64"),
         "t": np.sort(rng.integers(1, 50, n)).astype("int64")}
    )


class TestTdnEdges:
    def test_schema(self, spark):
        e = tdn_edges(spark, random_interactions(0), F.lit(5))
        assert set(e.columns) == {"u", "v", "tau", "lifetime", "expiry"}

    def test_expiry_is_tau_plus_lifetime(self, spark):
        e = tdn_edges(spark, random_interactions(1), F.lit(5))
        pdf = e.toPandas()
        assert (pdf["expiry"] == pdf["tau"] + 5).all()

    @pytest.mark.parametrize("t", [1, 10, 30, 60])
    def test_alive_at_matches_pandas_filter(self, spark, t):
        pdf = random_interactions(3)
        e = tdn_edges(spark, pdf, F.lit(8))
        got = alive_at(e, t).count()
        expect = ((pdf["t"] <= t) & (t < pdf["t"] + 8)).sum()
        assert got == expect


class TestDistributedReachability:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_driver_bfs(self, spark, seed):
        pdf = random_interactions(seed, n=80, n_nodes=20)
        e = tdn_edges(spark, pdf, F.lit(1000))
        g = DiGraph()
        for u, v in zip(pdf["u"], pdf["v"]):
            g.add_edge(int(u), int(v))
        seeds = sorted(g.nodes())[:3]
        assert reachable(e, seeds) == g.reachable(seeds)

    def test_matches_duckdb_recursive_cte(self, spark):
        pdf = random_interactions(7, n=100, n_nodes=22)
        e = tdn_edges(spark, pdf, F.lit(1000))
        seeds = [0, 5]
        nodes = sorted(reachable(e, seeds))
        reach_df = spark.createDataFrame([(n,) for n in nodes], "node long")
        assert_equivalent(
            reach_df,
            REACHABILITY_SQL,
            edges=pdf[["u", "v"]],
            seeds=pd.DataFrame({"node": seeds}),
        )

    def test_seed_outside_graph(self, spark):
        pdf = pd.DataFrame({"u": [1], "v": [2], "t": [1]})
        e = tdn_edges(spark, pdf, F.lit(10))
        assert influence_spread(spark, e, [99]) == 1

    def test_empty_seed_set(self, spark):
        pdf = pd.DataFrame({"u": [1], "v": [2], "t": [1]})
        e = tdn_edges(spark, pdf, F.lit(10))
        assert influence_spread(spark, e, []) == 0

    def test_cycle_terminates(self, spark):
        pdf = pd.DataFrame({"u": [1, 2, 3], "v": [2, 3, 1], "t": [1, 1, 1]})
        e = tdn_edges(spark, pdf, F.lit(10))
        assert influence_spread(spark, e, [1]) == 3

    def test_spread_on_time_slice(self, spark):
        """f_t over the alive slice differs across t as edges expire."""
        pdf = pd.DataFrame(
            {"u": [1, 2, 3], "v": [2, 3, 4], "t": [1, 1, 20]}
        )
        e = tdn_edges(spark, pdf, F.lit(5))
        assert influence_spread(spark, alive_at(e, 2), [1]) == 3
        assert influence_spread(spark, alive_at(e, 21), [1]) == 1
        assert influence_spread(spark, alive_at(e, 21), [3]) == 2

    @pytest.mark.parametrize("seeds", [[4], [5], [1, 4], [2, 5]])
    def test_multi_edges_and_seeds_without_out_arcs(self, spark, seeds):
        """Parallel arcs reach the driver once per copy; a seed with no
        out-arcs (4 is a sink, 5 only a head) reaches just itself."""
        pairs = [(1, 2), (1, 2), (1, 2), (1, 3), (2, 3), (2, 3), (3, 4), (6, 5), (6, 5)]
        pdf = pd.DataFrame({"u": [u for u, _ in pairs], "v": [v for _, v in pairs], "t": 1})
        e = tdn_edges(spark, pdf, F.lit(10))
        g = DiGraph()
        for u, v in pairs:
            g.add_edge(u, v)
        want = g.reachable(seeds)
        assert influence_spread(spark, e, seeds) == len(want)
        assert reachable(e, seeds) == want

    def test_chain_deeper_than_max_iter_is_truncated(self, spark):
        """``max_iter`` bounds the levels past the seeds: nodes at distance
        <= max_iter are reached, the rest of the chain is not."""
        pdf = pd.DataFrame({"u": range(9), "v": range(1, 10), "t": 1})
        e = tdn_edges(spark, pdf, F.lit(10))
        assert influence_spread(spark, e, [0], max_iter=3) == 4
        assert reachable(e, [0], max_iter=3) == {0, 1, 2, 3}
        # The whole chain takes nine levels: a level's plan must not grow
        # with the levels before it.
        assert influence_spread(spark, e, [0]) == 10


def bfs_iterations(g: DiGraph, seeds) -> int:
    """BFS levels until the frontier empties, the empty one included."""
    seen, frontier, n = set(seeds), set(seeds), 0
    while frontier:
        n += 1
        frontier = {v for u in frontier for v in g.out.get(u, ())} - seen
        seen |= frontier
    return n


class TestJobsPerLevel:
    """The frontier stays on the driver: one Spark job per BFS level."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_influence_spread_runs_one_job_per_level(self, spark, seed):
        pdf = random_interactions(seed, n=60, n_nodes=30)
        e = tdn_edges(spark, pdf, F.lit(1000))
        g = DiGraph()
        for u, v in zip(pdf["u"], pdf["v"]):
            g.add_edge(int(u), int(v))
        seeds = sorted(g.nodes())[:2]
        sc = spark.sparkContext
        group = f"spread-{seed}"
        sc.setJobGroup(group, "influence_spread")
        try:
            assert influence_spread(spark, e, seeds) == len(g.reachable(seeds))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        # Job starts reach the status tracker through the listener bus.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        n_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
        assert 1 <= n_jobs <= bfs_iterations(g, seeds) + 1


def persisted_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


class TestCacheRelease:
    """The BFS caches the arc list for the call; nothing may outlive it."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_influence_spread_leaves_nothing_cached(self, spark, seed):
        pdf = random_interactions(seed, n=80, n_nodes=20)
        e = tdn_edges(spark, pdf, F.lit(1000))
        g = DiGraph()
        for u, v in zip(pdf["u"], pdf["v"]):
            g.add_edge(int(u), int(v))
        seeds = sorted(g.nodes())[:2]
        before = persisted_rdds(spark)
        assert influence_spread(spark, e, seeds) == len(g.reachable(seeds))
        assert persisted_rdds(spark) == before
