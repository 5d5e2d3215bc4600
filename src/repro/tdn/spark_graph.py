"""Edges-DataFrame TDN and distributed influence spread (DESIGN §3).

``G_t`` lives as a DataFrame ``(u, v, tau, lifetime, expiry)``; alive-ness
at ``t`` is the TDN condition ``tau <= t < tau + lifetime``. Influence
spread ``f_t(S)`` is computed with iterative semi-join BFS: each level is
one Catalyst plan (join + distinct + anti-join), the driver loops until
the frontier is empty. Checked in tests against both the driver-side BFS
and a DuckDB ``WITH RECURSIVE`` query via :func:`repro.oracle.assert_equivalent`.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: DuckDB ground-truth for reachability — `edges(u,v)` and `seeds(node)`.
REACHABILITY_SQL = """
WITH RECURSIVE reach AS (
    SELECT node FROM seeds
    UNION
    SELECT e.v AS node FROM edges e, reach r WHERE e.u = r.node
)
SELECT node FROM reach
"""


def tdn_edges(
    spark: SparkSession,
    interactions: pd.DataFrame | DataFrame,
    lifetime_col,
) -> DataFrame:
    """Attach lifetimes and expiry to an interaction stream.

    ``interactions`` has columns ``u, v, t`` (arrival step ``tau``);
    ``lifetime_col`` is a Spark Column (see
    :meth:`repro.tdn.lifetimes.GeometricLifetime.spark_column`).
    """
    sdf = (
        spark.createDataFrame(interactions)
        if isinstance(interactions, pd.DataFrame)
        else interactions
    )
    return (
        sdf.withColumnRenamed("t", "tau")
        .withColumn("lifetime", lifetime_col)
        .withColumn("expiry", F.col("tau") + F.col("lifetime"))
    )


def alive_at(edges: DataFrame, t: int) -> DataFrame:
    """Edges alive at time ``t``: ``tau <= t < tau + lifetime``."""
    return edges.where((F.col("tau") <= F.lit(t)) & (F.lit(t) < F.col("expiry")))


def _bfs_levels(
    spark: SparkSession, edges: DataFrame, seeds: Iterable[int], max_iter: int
) -> list[tuple[DataFrame, int]]:
    """Level-synchronous BFS: the cached, fully computed frames of the
    seeds and of every non-empty level, with their row counts.

    Each level joins the previous one to the edge list and anti-joins the
    union of all levels so far, so the levels are disjoint and their counts
    sum to ``f_t(S)``. Counting a level computes every partition of its
    cache, so releasing the edge list (or, later, the levels) never makes a
    cached frame that read them recompute. The loop exits on an empty level
    (or ``max_iter`` as a safety bound — reachability converges in at most
    |V| levels). The caller releases the returned frames.
    """
    seed_list = sorted(set(int(s) for s in seeds))
    if not seed_list:
        return []
    arcs = edges.select(F.col("u"), F.col("v")).distinct().cache()
    frontier = spark.createDataFrame(pd.DataFrame({"node": seed_list})).cache()
    levels = [(frontier, len(seed_list))]
    try:
        for _ in range(max_iter):
            reached = reduce(DataFrame.unionByName, (lv for lv, _ in levels))
            nxt = (
                arcs.join(frontier, arcs.u == frontier.node)
                .select(F.col("v").alias("node"))
                .distinct()
                .join(reached, on="node", how="left_anti")
                .cache()
            )
            n = nxt.count()
            if n == 0:
                nxt.unpersist()
                break
            levels.append((nxt, n))
            frontier = nxt
    except BaseException:
        _release(levels)
        raise
    finally:
        arcs.unpersist()
    return levels


def _release(levels: list[tuple[DataFrame, int]]) -> None:
    for lv, _ in levels:
        lv.unpersist()


def reachable_nodes(
    spark: SparkSession,
    edges: DataFrame,
    seeds: Iterable[int],
    max_iter: int = 64,
) -> DataFrame:
    """Distinct nodes reachable from ``seeds`` (paths of length >= 0) as a
    one-column DataFrame ``node`` — the distributed ``f_t`` evaluator.

    The result is the union of the BFS levels, cached and computed before
    the levels are released; the caller owns that cache and may
    ``unpersist()`` it when done.
    """
    levels = _bfs_levels(spark, edges, seeds, max_iter)
    if not levels:
        return spark.createDataFrame([], "node long")
    if len(levels) == 1:
        return levels[0][0]  # nothing beyond the seeds
    try:
        reached = reduce(DataFrame.unionByName, (lv for lv, _ in levels)).cache()
        reached.count()
        return reached
    finally:
        _release(levels)


def influence_spread(
    spark: SparkSession, edges: DataFrame, seeds: Iterable[int], max_iter: int = 64
) -> int:
    """``f_t(S)`` = |reachable set| via the distributed BFS: the sum of the
    disjoint level counts. Leaves nothing cached."""
    levels = _bfs_levels(spark, edges, seeds, max_iter)
    _release(levels)
    return sum(n for _, n in levels)
