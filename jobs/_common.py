"""Shared bits for spark-submit job entrypoints.

Each job builds (or reuses) a SparkSession, runs one experiment table,
and prints it as markdown so the output can be pasted into
EXPERIMENTS.md. Run as ``spark-submit jobs/<name>.py``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """The jobs' session, with one shuffle partition per core: the jobs'
    frames are small, and each partition costs a task per stage."""
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.conf.set(
        "spark.sql.shuffle.partitions", str(spark.sparkContext.defaultParallelism)
    )
    return spark


def emit(title: str, df: pd.DataFrame) -> None:
    print(f"\n## {title}\n")
    print(df.to_string(index=False, float_format=lambda x: f"{x:.3f}"))
