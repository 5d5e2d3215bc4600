"""RR-set sampling under the independent-cascade model + greedy max-cover.

A reverse-reachable (RR) set for a uniformly random root ``z`` is the set
of nodes that reach ``z`` in a live-edge sample of the graph (each edge
``(u, v)`` live independently with probability ``p_uv``, traversed in
reverse from ``z``). Borgs et al.'s estimator: for any seed set S,
``sigma(S) ~= n * (fraction of RR sets hit by S)`` — maximizing coverage
of RR sets maximizes expected IC spread. This is the common substrate of
the DIM / IMM / TIM+ baselines. :meth:`ICGraph.rr_set` also grows an
existing set by the reverse closure of a new member (its ``seen``
argument), which is how DIM expands a set when an edge probability rises.

Two samplers, identical per-(seed, root) output:

- :func:`sample_rr_sets` — seeded NumPy/driver reference.
- :func:`spark_sample_rr_sets` — the same sampler fanned out with
  ``mapInPandas`` over a DataFrame of (index, seed) rows; the edge arrays
  ride along in the closure (small snapshot, broadcast by Spark).
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F


class ICGraph:
    """An IC-weighted directed graph snapshot, optimized for reverse walks.

    Built from a pandas frame ``(u, v, p)`` (one row per distinct edge —
    see :func:`repro.ic.ic_probabilities_pandas`). Node ids are arbitrary
    ints; ``nodes`` is their sorted universe (sources and targets).
    """

    def __init__(self, edges: pd.DataFrame) -> None:
        self.in_nbrs: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for u, v, p in zip(edges["u"], edges["v"], edges["p"]):
            self.in_nbrs[int(v)].append((int(u), float(p)))
        ns = set(int(x) for x in edges["u"]) | set(int(x) for x in edges["v"])
        self.nodes: list[int] = sorted(ns)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def rr_set(
        self, root: int, rng: np.random.Generator, seen: Iterable[int] = ()
    ) -> frozenset[int]:
        """One RR set: reverse BFS from ``root`` over live in-edges. Nodes
        in ``seen`` are already in the set: the walk draws no coin for arcs
        into them and returns them with what it reached."""
        seen = {*seen, root}
        stack = [root]
        while stack:
            z = stack.pop()
            for w, p in self.in_nbrs.get(z, ()):
                if w not in seen and rng.random() < p:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)


def sample_rr_sets(
    graph: ICGraph, n_sets: int, seed: int = 0
) -> list[frozenset[int]]:
    """``n_sets`` RR sets with uniformly random roots — reference sampler.

    Per-set determinism: set ``i`` uses ``default_rng((seed, i))``, the
    same per-index discipline as the Spark sampler, so both agree exactly.
    """
    if graph.n == 0:
        return []
    out = []
    for i in range(n_sets):
        rng = np.random.default_rng((seed, i))
        root = graph.nodes[int(rng.integers(0, graph.n))]
        out.append(graph.rr_set(root, rng))
    return out


def spark_sample_rr_sets(
    spark: SparkSession, graph: ICGraph, n_sets: int, seed: int = 0
) -> list[frozenset[int]]:
    """Distributed RR sampling: fan (index, seed) rows out with
    ``mapInPandas``; each task runs the reference sampler for its indices.

    Output is identical to :func:`sample_rr_sets` (same per-index seeds),
    so tests can assert exact equality.
    """
    if graph.n == 0:
        return []
    idx = spark.range(n_sets).withColumn("seed", F.lit(seed))
    in_nbrs = dict(graph.in_nbrs)  # plain dict → picklable closure
    nodes = graph.nodes

    def gen(batches):
        g = ICGraph.__new__(ICGraph)
        g.in_nbrs = defaultdict(list, in_nbrs)
        g.nodes = nodes
        for pdf in batches:
            rows = []
            for i, s in zip(pdf["id"], pdf["seed"]):
                rng = np.random.default_rng((int(s), int(i)))
                root = g.nodes[int(rng.integers(0, len(g.nodes)))]
                rows.append(
                    {"id": int(i), "members": list(g.rr_set(root, rng))}
                )
            yield pd.DataFrame(rows, columns=["id", "members"])

    res = idx.mapInPandas(gen, schema="id long, members array<long>").collect()
    by_id = {r["id"]: frozenset(int(m) for m in r["members"]) for r in res}
    return [by_id[i] for i in range(n_sets)]


def max_cover(
    rr_sets: list[frozenset[int]], k: int
) -> tuple[frozenset[int], float]:
    """Greedy max-coverage over RR sets (lazy/CELF): returns the seed set
    and the covered *fraction* of RR sets."""
    if not rr_sets:
        return frozenset(), 0.0
    owner: dict[int, list[int]] = defaultdict(list)  # node -> rr-set ids
    for i, s in enumerate(rr_sets):
        for v in s:
            owner[v].append(i)
    # CELF: stamp = |chosen| when the bound was computed; a bound computed
    # against the current chosen set is exact and can be accepted greedily.
    heap = [(-len(ids), v, 0) for v, ids in owner.items()]
    heapq.heapify(heap)
    covered: set[int] = set()
    chosen: set[int] = set()
    while heap and len(chosen) < k:
        neg, v, stamp = heapq.heappop(heap)
        if v in chosen:
            continue
        if stamp == len(chosen):
            if neg == 0:
                break  # nothing uncovered remains
            chosen.add(v)
            covered.update(owner[v])
        else:
            fresh = sum(1 for i in owner[v] if i not in covered)
            heapq.heappush(heap, (-fresh, v, len(chosen)))
    return frozenset(chosen), len(covered) / len(rr_sets)
