"""Synthetic interaction streams for the TDN reproduction (paper §V-A
substitutes).

The paper evaluates on six real interaction datasets (Table I). Offline,
we generate synthetic streams that preserve the structural features the
algorithms are sensitive to: heavy-tailed influencer popularity (hubs),
repeat interactions (multi-edges), shallow cascades (retweet chains), and
bipartite structure for the LBSN check-in data. One interaction per time
step, t = 1..n_steps, matching §V-B ("one interaction arrives at a time").
Generators are deterministic in ``seed``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def _zipf_choice(g: np.random.Generator, n: int, alpha: float, size: int) -> np.ndarray:
    """Zipf(alpha)-distributed ranks in [0, n) — popularity skew."""
    ranks = np.arange(1, n + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(n, size=size, p=w)


def lbsn_stream(
    *, n_steps: int, n_places: int = 200, n_users: int = 800,
    alpha: float = 1.1, seed: int = 0,
) -> pd.DataFrame:
    """Bipartite check-in stream ⟨place, user, t⟩ (Brightkite/Gowalla-like).

    A check-in means the place influenced the user (paper §V-A): edges run
    place -> user, so a place's spread is 1 + its distinct check-in users.
    Place ids are ``0..n_places-1``; user ids are offset above them.
    """
    g = np.random.default_rng(seed)
    places = _zipf_choice(g, n_places, alpha, n_steps)
    users = n_places + _zipf_choice(g, n_users, 0.6, n_steps)
    return pd.DataFrame(
        {"u": places.astype(np.int64), "v": users.astype(np.int64),
         "t": np.arange(1, n_steps + 1, dtype=np.int64)}
    )


def retweet_stream(
    *, n_steps: int, n_users: int = 1000, alpha: float = 1.2,
    chain_prob: float = 0.25, seed: int = 0,
) -> pd.DataFrame:
    """User->user retweet/mention stream (Twitter-Higgs/Twitter-HK-like).

    ⟨u, v, t⟩: v retweeted u, i.e. u influenced v. Sources are Zipf-skewed
    hubs; with probability ``chain_prob`` the source is instead a recent
    *influencee* (a user who just retweeted), which produces the shallow
    multi-hop cascades real retweet graphs show.
    """
    g = np.random.default_rng(seed)
    recent: list[int] = []
    us = np.empty(n_steps, dtype=np.int64)
    vs = np.empty(n_steps, dtype=np.int64)
    hub = _zipf_choice(g, n_users, alpha, n_steps)
    # Decorrelate source and target popularity: influencers are rarely
    # influencees in retweet data, so targets draw their (mild) skew over
    # an independent permutation of the user ids.
    perm = g.permutation(n_users)
    tgt = perm[_zipf_choice(g, n_users, 0.4, n_steps)]
    chain = g.random(n_steps) < chain_prob
    pick = g.integers(0, 1 << 30, n_steps)
    for i in range(n_steps):
        if chain[i] and recent:
            u = recent[pick[i] % len(recent)]
        else:
            u = int(hub[i])
        v = int(tgt[i])
        if v == u:
            v = (v + 1) % n_users
        us[i], vs[i] = u, v
        recent.append(v)
        if len(recent) > 50:  # cascades feed off *recent* activity only
            recent.pop(0)
    return pd.DataFrame(
        {"u": us, "v": vs, "t": np.arange(1, n_steps + 1, dtype=np.int64)}
    )


def qa_stream(
    *, n_steps: int, n_users: int = 2000, alpha: float = 0.8, seed: int = 0,
) -> pd.DataFrame:
    """Q&A comment stream (StackOverflow-c2q / c2a-like): ⟨asker, commenter,
    t⟩ with milder popularity skew and a broader node set than Twitter."""
    g = np.random.default_rng(seed)
    u = _zipf_choice(g, n_users, alpha, n_steps).astype(np.int64)
    # Askers and commenters have independent popularity rankings.
    perm = g.permutation(n_users)
    v = perm[_zipf_choice(g, n_users, 0.3, n_steps)].astype(np.int64)
    clash = u == v
    v[clash] = (v[clash] + 1) % n_users
    return pd.DataFrame(
        {"u": u, "v": v, "t": np.arange(1, n_steps + 1, dtype=np.int64)}
    )


def interactions_df(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Lift an interaction stream into Spark with a proper event timestamp
    (``ts``) derived from the integer step ``t`` — input to the Structured
    Streaming pipeline and the windowed aggregations."""
    sdf = spark.createDataFrame(pdf)
    return sdf.withColumn(
        "ts", F.to_timestamp(F.lit("2019-01-01").cast("timestamp")) + F.make_interval(secs=F.col("t").cast("double"))
    )
