"""End-to-end Structured Streaming job: replay an interaction stream as
micro-batches and track influential nodes with HistApprox (DESIGN §3).

Pipeline: synthetic stream -> parquet chunks -> file streaming source
(``maxFilesPerTrigger=1``) -> ``foreachBatch`` -> lifetime assignment
-> ``HistApprox.step(edges, t)`` per event time ``t``. Also
prints the event-time windowed distinct-influencee aggregation for the
same stream (the windowed-aggregation path of the repro hint).
"""
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))
from _common import emit, get_spark

import pandas as pd

from repro.core.histapprox import HistApprox
from repro.experiments.datasets import make_stream
from repro.streaming.driver import replay_stream, stream_steps, write_stream_chunks
from repro.streaming.windowed_stats import windowed_influence_counts
from repro.tdn.lifetimes import GeometricLifetime
from repro.synth_data import interactions_df


def main(dataset: str = "brightkite", n_steps: int = 1000, k: int = 10):
    spark = get_spark("track_stream")
    stream = make_stream(dataset, n_steps)
    lifetimes = GeometricLifetime(p=0.005, L=500, seed=0)
    tracker = HistApprox(k=k, eps=0.2, L=500)
    latest: dict = {"t": 0, "seeds": frozenset()}

    def on_batch(pdf: pd.DataFrame, batch_id: int) -> None:
        for t, edges in stream_steps(pdf.assign(l=lifetimes.sample(len(pdf)))):
            seeds, _ = tracker.step(edges, t)
            latest["t"], latest["seeds"] = t, seeds

    with tempfile.TemporaryDirectory() as d:
        write_stream_chunks(stream, os.path.join(d, "in"), n_chunks=20)
        n = replay_stream(spark, os.path.join(d, "in"), on_batch)
    print(f"\nprocessed {n} micro-batches; t={latest['t']}")
    print(f"top-{k} influential nodes: {sorted(latest['seeds'])}")

    win = windowed_influence_counts(interactions_df(spark, stream), "120 seconds")
    emit(
        "windowed distinct-influencee counts (top rows)",
        win.orderBy("window_start", "u").limit(12).toPandas(),
    )


if __name__ == "__main__":
    main()
