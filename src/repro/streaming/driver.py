"""Structured Streaming replay harness (DESIGN §3, `distributed_dataflow`).

The paper's input is an interaction stream consumed in timestamp order.
Here the stream is materialized as one parquet file per time-chunk and
replayed with Spark's file streaming source (``maxFilesPerTrigger=1``), so
each chunk arrives as one micro-batch in ``foreachBatch``. The callback
receives the batch as a pandas frame sorted by ``t``; once lifetimes are
attached, :func:`stream_steps` decodes it into the ``(t, edges)`` steps
the trackers' ``step(edges, t)`` takes (see ``jobs/track_stream.py``).

File-source ordering caveat: Spark picks files by modification time. The
writer both writes chunks sequentially *and* bumps mtimes monotonically,
and the callback is handed ``batch_id`` so tests can assert in-order,
exactly-once delivery.
"""
from __future__ import annotations

import os
import time
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession

#: Parquet schema of a stream chunk (arrival step + endpoints).
STREAM_SCHEMA = "u long, v long, t long"


def stream_steps(pdf: pd.DataFrame) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Decode a lifetimed interaction frame (columns ``u, v, t, l``) into
    one ``(t, [(u, v, l), ...])`` step per distinct ``t``, ascending, with
    each step's edges in row order. Values are Python ints."""
    steps: dict[int, list[tuple[int, int, int]]] = {}
    for u, v, t, l in zip(*(pdf[c].tolist() for c in ("u", "v", "t", "l"))):
        steps.setdefault(t, []).append((u, v, l))
    return sorted(steps.items())


def write_stream_chunks(
    pdf: pd.DataFrame, out_dir: str, n_chunks: int
) -> list[str]:
    """Split an interaction frame (``u, v, t``; already time-ordered) into
    at most ``n_chunks`` contiguous parquet files with monotone mtimes.

    Chunks are cut only between time steps, so all rows of one ``t`` land
    in one chunk: each cut at an equal share of the rows moves back to the
    first row of its step, and a chunk left empty is not written. With one
    row per ``t`` every cut stays where the row count puts it."""
    os.makedirs(out_dir, exist_ok=True)
    pdf = pdf.sort_values("t", kind="stable").reset_index(drop=True)
    t = pdf["t"].to_numpy()
    bounds = [round(i * len(pdf) / n_chunks) for i in range(n_chunks + 1)]
    bounds = [int(t.searchsorted(t[b])) if b < len(t) else b for b in bounds]
    paths = []
    now = time.time()
    for i in range(n_chunks):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        path = os.path.join(out_dir, f"chunk_{i:05d}.parquet")
        pdf.iloc[lo:hi][["u", "v", "t"]].to_parquet(path, index=False)
        # Monotone mtimes => the file source replays chunks in order.
        os.utime(path, (now + i, now + i))
        paths.append(path)
    return paths


def replay_stream(
    spark: SparkSession,
    in_dir: str,
    on_batch: Callable[[pd.DataFrame, int], None],
    checkpoint_dir: str | None = None,
) -> int:
    """Replay parquet chunks as micro-batches; returns #batches delivered.

    ``on_batch(batch_pdf, batch_id)`` runs on the driver per micro-batch
    with rows sorted by ``t`` (ties broken by ``u, v`` for determinism).
    Uses ``availableNow`` so the query drains the directory and stops.
    """
    n_batches = 0

    def _sink(batch_df, batch_id: int) -> None:
        nonlocal n_batches
        pdf = batch_df.toPandas()
        if len(pdf):
            pdf = pdf.sort_values(["t", "u", "v"], kind="stable").reset_index(drop=True)
            on_batch(pdf, int(batch_id))
            n_batches += 1

    reader = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .option("latestFirst", "false")
        .parquet(in_dir)
    )
    writer = reader.writeStream.foreachBatch(_sink).trigger(availableNow=True)
    if checkpoint_dir is not None:
        writer = writer.option("checkpointLocation", checkpoint_dir)
    q = writer.start()
    q.awaitTermination()
    return n_batches
