"""Edges-DataFrame TDN and distributed influence spread (DESIGN §3).

``G_t`` lives as a DataFrame ``(u, v, tau, lifetime, expiry)``; alive-ness
at ``t`` is the TDN condition ``tau <= t < tau + lifetime``. Influence
spread ``f_t(S)`` is computed with a level-synchronous BFS in the manner
of Pregel: the frontier and the reached set stay on the driver, and each
level is one Spark job that scans the cached arc list for arcs out of the
frontier and collects their heads. :func:`reachable` returns the reached
set and :func:`influence_spread` its size; neither leaves anything cached.
Checked in tests against both the driver-side BFS and a DuckDB
``WITH RECURSIVE`` query via :func:`repro.oracle.assert_equivalent`.
"""
from __future__ import annotations

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
    ``lifetime_col`` is a Spark Column holding each edge's lifetime, such
    as ``F.col("l")`` for lifetimes sampled on the driver or ``F.lit(w)``
    for a window of ``w`` steps.
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


def reachable(edges: DataFrame, seeds: Iterable[int], max_iter: int = 64) -> set[int]:
    """Nodes reachable from ``seeds`` in ``edges`` (paths of length >= 0),
    the distributed ``f_t`` evaluator.

    Level-synchronous BFS with the frontier and the reached set on the
    driver: each level is one Spark job that scans the cached arc list for
    arcs out of the frontier (sent to the tasks as an ``InSet`` literal)
    and collects their heads. Stops on an empty level, or after
    ``max_iter`` levels as a safety bound (reachability converges in at
    most |V| levels). Releases the arc list before it returns."""
    reached = {int(s) for s in seeds}
    if not reached:
        return reached
    arcs = edges.select("u", "v").cache()
    try:
        frontier = set(reached)
        for _ in range(max_iter):
            rows = arcs.where(F.col("u").isin(frontier)).select("v").collect()
            frontier = {r[0] for r in rows} - reached
            if not frontier:
                break
            reached |= frontier
    finally:
        arcs.unpersist()
    return reached


def influence_spread(
    spark: SparkSession, edges: DataFrame, seeds: Iterable[int], max_iter: int = 64
) -> int:
    """``f_t(S)`` = ``len(reachable(edges, seeds, max_iter))``."""
    return len(reachable(edges, seeds, max_iter))
