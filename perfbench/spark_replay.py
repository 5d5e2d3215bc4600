"""spark-replay workload: the ``jobs/track_stream.py`` pipeline under load.

Set-up writes the generated stream as parquet chunks of
``CHUNK_STEPS`` time steps. ``replay_stream`` replays them one chunk per
micro-batch; the callback samples lifetimes and calls
``HistApprox.step`` per time step exactly as the job does. Every
``SCORE_EVERY`` batches, the current seed set is
scored on Spark (semi-join BFS spread, IC probabilities, ``mapInPandas``
RR sampling and max-cover). Scoring runs inside the callback, so its
time is taken out of the batch intervals and the throughput.

Before timing, an unscored warm-up replay of the first ``WARM_CHUNKS``
chunks lets the JVM compile the streaming path: a first replay ran ~25%
slower. The first scoring pass of a run is checked but left out of the
scoring times, as it compiles the BFS and sampling paths and took ~2x as
long as the next. The timed region then repeats whole replays (``N_CHUNKS``
batches each, at least 100 batch intervals for ``batch_p90_ms``) until
``--seconds`` have passed, at least one. Each starts from an empty Spark
cache, as a fresh job does: ``influence_spread`` leaves its BFS levels
cached (ROADMAP item 3(c)), so a replay that scored a snapshot already
scored would mostly time that cache.

``step_*`` time ``HistApprox.step`` on the first timed replay's lifetimed
steps fed straight to fresh trackers ``DIRECT_FEEDS`` times after it,
while the JVM is idle (the feeds the gate compares with the replay); a
step's latency is its median over the feeds. Timed inside the callbacks,
the tail swung 6x between runs (p99 2.3-13.8 ms over ten seeds) as the
JVM's threads and other tenants took the cores from the driver thread.
"""
from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from gate import Gate, bfs_levels, check_run, digest
from repro.core.histapprox import HistApprox
from repro.experiments.datasets import make_stream
from repro.ic import probabilities
from repro.rrset import rr
from repro.streaming import driver
from repro.tdn import spark_graph
from repro.tdn.lifetimes import GeometricLifetime
from tracing import Tracer, graph_layer_metrics
from workloads import TrackerWorkload, instances_of, iqm, pct, run_pass

DATASET, K, EPS, L, P = "brightkite", 10, 0.2, 500, 0.005
CHUNK_STEPS = 20  # one interaction per step: 20 interactions per micro-batch
N_CHUNKS = 101  # 100 batch intervals
WARM_CHUNKS = 10  # warm-up replay: a prefix of the stream
SCORE_EVERY = 25  # batches between Spark scoring passes
QUALITY_EVERY = 100  # steps between quality checkpoints; divides SCORE_EVERY * CHUNK_STEPS
RR_SETS = 1000
SETUP_REPEATS = 3
#: Driver-side feeds of the replayed steps that time ``step_*``.
DIRECT_FEEDS = 3
DIRECT = TrackerWorkload(
    DATASET, "histapprox", K, EPS, L, P, per_step=1,
    n_steps=N_CHUNKS * CHUNK_STEPS, checkpoint_every=QUALITY_EVERY,
)


def configure_spark_env(root: str, work: str) -> None:
    """Launch settings for the driver JVM (read once, at JVM start): a
    local master on at most 4 cores, every scratch path inside ``work``,
    and ``src/`` on the Python workers' path (``repro`` is not installed)."""
    cores = min(4, os.cpu_count() or 1)
    os.environ["TMPDIR"] = work
    # No hsperfdata from the launcher JVM either (it would go under /tmp).
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work}"
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{cores}]",
            "--driver-memory", "1g",
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.local.dir={work}",
            "--conf", f"spark.sql.warehouse.dir={work}/warehouse",
            # No hsperfdata: the JVM would write it under /tmp.
            "--driver-java-options", f"-Djava.io.tmpdir={work} -XX:-UsePerfData",
            "pyspark-shell",
        ]
    )


def start_spark(root: str):
    """Build the session the way the jobs do (``jobs/_common.get_spark``)."""
    sys.path.insert(0, os.path.join(root, "jobs"))
    try:
        from _common import get_spark
    finally:
        sys.path.pop(0)
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def persisted_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


class Replay:
    """One replay of the chunk directory through a fresh tracker."""

    def __init__(self, spark, in_dir: str, seed: int, tracer: Tracer | None, scoring: bool = True) -> None:
        self.spark, self.in_dir, self.seed, self.tracer = spark, in_dir, seed, tracer
        self.scoring = scoring
        self.tracker = HistApprox(K, EPS, L)
        self.lifetimes = GeometricLifetime(P, L, seed=seed)
        self.steps: list = []  # decoded (u, v, l) rows per step, for the gate
        self.outputs: list = []
        self.step_s: list[float] = []
        self.failed = 0
        self.batches = 0
        self.done: list[tuple[float, float]] = []  # (completed, scoring finished)
        self.callback_s: list[float] = []
        self.decode_s: list[float] = []
        self.scores: list[dict] = []
        self.start = 0.0
        self.instances: list[int] = []
        self.live_copies: list[int] = []

    def on_batch(self, pdf: pd.DataFrame, batch_id: int) -> None:
        t_in = time.perf_counter()
        stepped = 0.0
        try:
            # Decode and step as jobs/track_stream.py does.
            pdf = pdf.copy()
            pdf["l"] = self.lifetimes.sample(len(pdf))
            for _, grp in pdf.groupby("t", sort=True):
                edges = list(grp[["u", "v", "l"]].itertuples(index=False))
                if self.tracer is not None:
                    self.tracer.trace_id = len(self.steps) + 1
                a = time.perf_counter()
                try:
                    out = self.tracker.step(edges)
                except Exception:  # noqa: BLE001 - counted; the replay goes on
                    traceback.print_exc()
                    out = None
                    self.failed += 1
                b = time.perf_counter()
                stepped += b - a
                self.step_s.append(b - a)
                self.steps.append(edges)
                self.outputs.append(out)
                if self.tracer is not None:
                    live = instances_of(self.tracker)
                    self.instances.append(len(live))
                    self.live_copies.append(sum(x.graph.n_edges for x in live))
        except Exception:  # noqa: BLE001 - a failed batch is counted
            traceback.print_exc()
            self.failed += 1
        done = time.perf_counter()
        self.callback_s.append(done - t_in)
        self.decode_s.append(done - t_in - stepped)
        self.batches += 1
        if self.scoring and self.batches % SCORE_EVERY == 0:
            self.score()
        self.done.append((done, time.perf_counter()))

    def score(self) -> None:
        """One Spark scoring pass of the current seed set."""
        t = len(self.steps)
        out = self.outputs[-1]
        seeds = sorted(out[0]) if out is not None else []
        rows = [(u, v, tau, l) for tau, batch in enumerate(self.steps, 1) for u, v, l in batch]
        hist = pd.DataFrame(rows, columns=["u", "v", "t", "l"])
        spark = self.spark
        rec = {"t": t, "seeds": seeds, "ok": False}
        try:
            t0 = time.perf_counter()
            alive = spark_graph.alive_at(spark_graph.tdn_edges(spark, hist, F.col("l")), t)
            before = persisted_rdds(spark)
            rec["spread"] = spark_graph.influence_spread(spark, alive, seeds)
            rec["persisted_delta"] = persisted_rdds(spark) - before
            t1 = time.perf_counter()
            rec["probs"] = probabilities.ic_probabilities(alive).toPandas()
            t2 = time.perf_counter()
            rec["rr_seed"] = self.seed * 1000 + t
            rec["rr"] = rr.spark_sample_rr_sets(
                spark, rr.ICGraph(rec["probs"]), RR_SETS, seed=rec["rr_seed"]
            )
            t3 = time.perf_counter()
            rec["cover"] = rr.max_cover(rec["rr"], K)
            t4 = time.perf_counter()
            rec.update(spread_s=t1 - t0, ic_s=t2 - t1, rr_s=t3 - t2, cover_s=t4 - t3)
            rec.update(total_s=t4 - t0, ok=True)
        except Exception:  # noqa: BLE001 - a failed scoring pass is counted
            traceback.print_exc()
        self.scores.append(rec)

    def run(self) -> "Replay":
        """Replay every chunk (with the tracer installed, if any) from an
        empty Spark cache."""
        self.spark.catalog.clearCache()
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.start = time.perf_counter()
            driver.replay_stream(self.spark, self.in_dir, self.on_batch)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        return self

    def busy_s(self) -> float:
        """Replay time up to the last batch, without scoring."""
        last = self.done[-1][0]
        return last - self.start - sum(s - c for c, s in self.done[:-1])

    def intervals_ms(self) -> list[float]:
        """Time between consecutive batch completions, scoring excluded."""
        return [1e3 * (c - s_prev) for (_, s_prev), (c, _) in zip(self.done, self.done[1:])]


def _setup(root: str, work: str, seed: int):
    """Generate the stream, write its chunks (and the warm-up prefix's)
    and start Spark, ``SETUP_REPEATS`` times; the first start launches the
    JVM, the others restart the session on it."""
    spark, times, gen, write = None, [], [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        stream = make_stream(DATASET, N_CHUNKS * CHUNK_STEPS, seed)
        t1 = time.perf_counter()
        in_dir, warm_dir = os.path.join(work, f"in{i}"), os.path.join(work, f"warm{i}")
        for d in (in_dir, warm_dir):
            shutil.rmtree(d, ignore_errors=True)
        driver.write_stream_chunks(stream, in_dir, n_chunks=N_CHUNKS)
        prefix = stream[stream["t"] <= WARM_CHUNKS * CHUNK_STEPS]
        driver.write_stream_chunks(prefix, warm_dir, n_chunks=WARM_CHUNKS)
        t2 = time.perf_counter()
        if spark is not None:
            spark.stop()
        spark = start_spark(root)
        times.append(time.perf_counter() - t0)
        gen.append(t1 - t0)
        write.append(t2 - t1)
    return spark, in_dir, warm_dir, times, gen, write


def _check(gate: Gate, rep: Replay) -> tuple[list[float], list[float]]:
    """Gate for one replay; returns the quality ratios and, from the
    direct feeds, each step's median latency (ms)."""
    gate.ops(len(rep.step_s) + rep.batches + len(rep.scores), rep.failed)
    gate.ops(0, sum(not s["ok"] for s in rep.scores))
    gate.check(rep.batches == N_CHUNKS, f"{rep.batches} batches replayed, {N_CHUNKS} written")
    by_t = {s["t"]: s for s in rep.scores if s["ok"]}

    def on_checkpoint(t, ref):
        s = by_t.get(t)
        if s is None:
            return
        reach = ref.g.reachable(s["seeds"])
        gate.check(s["spread"] == len(reach), f"t={t}: Spark spread {s['spread']} != BFS {len(reach)}")
        s["levels"] = bfs_levels(ref.g.out, s["seeds"])
        alive = pd.DataFrame([(u, v) for u, v, _ in ref.edges_with_lifetime()], columns=["u", "v"])
        want = probabilities.ic_probabilities_pandas(alive).sort_values(["u", "v"]).reset_index(drop=True)
        got = s["probs"].sort_values(["u", "v"]).reset_index(drop=True)
        gate.check(
            got[["u", "v", "x"]].astype("int64").equals(want[["u", "v", "x"]].astype("int64"))
            and np.allclose(got["p"], want["p"]),
            f"t={t}: Spark IC probabilities differ from the pandas twin",
        )
        sets = rr.sample_rr_sets(rr.ICGraph(s["probs"]), RR_SETS, seed=s["rr_seed"])
        gate.check(sets == s["rr"], f"t={t}: Spark RR sets differ from the driver sampler")
        cover, frac = s["cover"]
        gate.check(len(cover) <= K and 0.0 <= frac <= 1.0, f"t={t}: bad max-cover result")

    ratios, _ = check_run(
        gate, rep.steps, rep.outputs, k=K, eps=EPS, algo="histapprox",
        checkpoint_every=QUALITY_EVERY, on_checkpoint=on_checkpoint,
    )
    gate.check(
        all("levels" in s for s in by_t.values()), "a scoring pass fell between checkpoints"
    )
    # Direct driver-side feeds of the same lifetimed steps must agree.
    feeds = [run_pass(DIRECT, rep.steps) for _ in range(DIRECT_FEEDS)]
    for f in feeds:
        gate.ops(len(f.step_s), f.failed)
        gate.check(f.digest == digest(rep.outputs), "replay differs from a direct feed")
    return ratios, list(1e3 * np.median([f.step_s for f in feeds], axis=0))


def _check_again(gate: Gate, rep: Replay, first: Replay) -> None:
    """Gate for a repeated replay: it must reproduce the first one."""
    gate.ops(len(rep.step_s) + rep.batches + len(rep.scores), rep.failed)
    gate.ops(0, sum(not s["ok"] for s in rep.scores))
    gate.check(rep.batches == N_CHUNKS, f"{rep.batches} batches replayed, {N_CHUNKS} written")
    gate.check(digest(rep.outputs) == digest(first.outputs), "a repeated replay changed the trace")
    gate.check(
        [(s["t"], s.get("spread")) for s in rep.scores]
        == [(s["t"], s.get("spread")) for s in first.scores],
        "a repeated replay scored other spreads",
    )


def run(name: str, seed: int, seconds: float, trace: bool, dump_path: str | None, root: str, work: str):
    """Run spark-replay; returns (metrics, gate, fingerprint).

    With ``trace`` one traced replay follows the warm-up, then an
    unscored, untraced replay for the tracing overhead.
    """
    del name
    configure_spark_env(root, work)
    spark, in_dir, warm_dir, setup_s, gen_s, write_s = _setup(root, work, seed)
    try:
        gate = Gate()
        t0 = time.perf_counter()
        warm = Replay(spark, warm_dir, seed, None, scoring=False).run()
        gate.ops(len(warm.step_s) + warm.batches, warm.failed)
        warm_s = time.perf_counter() - t0

        tracer = Tracer() if trace else None
        t_timed = time.perf_counter()
        deadline = t_timed + seconds
        replays = [Replay(spark, in_dir, seed, tracer).run()]
        while not trace and time.perf_counter() < deadline:
            replays.append(Replay(spark, in_dir, seed, None).run())
        t1 = time.perf_counter()
        rep = replays[0]
        ratios, step_ms = _check(gate, rep)
        for again in replays[1:]:
            _check_again(gate, again, rep)
        gate_s = time.perf_counter() - t1
        n = sum(len(b) for b in rep.steps)
        scored = [s for r in replays for s in r.scores if s["ok"]]
        scores = scored[1:]  # timed scoring passes: the first is warm-up
        if not trace:
            batch_ms = [x for r in replays for x in r.intervals_ms()]
            metrics = {
                "setup_s": iqm(setup_s),
                "throughput_ips": float(np.median([n / r.busy_s() for r in replays])),
                "step_p50_ms": pct(step_ms, 50),
                "step_p99_ms": pct(step_ms, 99),
                "batch_p50_ms": pct(batch_ms, 50),
                "batch_p90_ms": pct(batch_ms, 90),
                "score_p50_ms": float(np.median([1e3 * s["total_s"] for s in scores])),
                "oracle_calls_per_interaction": rep.tracker.oracle_calls / n,
                "quality_ratio": float(np.mean(ratios)),
            }
            print(
                f"samples: warm-up={warm_s:.1f}s timed={t1 - t_timed:.1f}s "
                f"gate={gate_s:.1f}s replays={len(replays)} steps={len(step_ms)} "
                f"batches={len(batch_ms)} scoring_passes={len(scores)}"
            )
            return metrics, gate, None

        if dump_path:
            tracer.dump(dump_path)
        plain = Replay(spark, in_dir, seed, None, scoring=False).run()
        gate.ops(len(plain.step_s) + plain.batches, plain.failed)
        gate.check(plain.batches == N_CHUNKS, "untraced replay lost batches")
        gate.check(digest(plain.outputs) == digest(rep.outputs), "tracing changed the replay")
        # Tracing slows only the callback; hold the Spark side at the
        # untraced replay's time so that its noise does not enter the gap.
        plain_busy = plain.busy_s()
        traced_busy = plain_busy - sum(plain.callback_s) + sum(rep.callback_s)
        intervals = rep.intervals_ms()
        callback = [1e3 * c for c in rep.callback_s]
        metrics = graph_layer_metrics(tracer)
        created = tracer.calls["sieve_adn.init"] + tracer.calls["sieve_adn.copy"]
        metrics.update({
            "histapprox.instances_mean": float(np.mean(rep.instances)),
            "histapprox.instances_created": created,
            "histapprox.live_edge_copies_peak": max(rep.live_copies),
            "replay.callback_ms": float(np.median(callback)),
            "replay.decode_ms": float(np.median([1e3 * d for d in rep.decode_s])),
            "replay.outside_callback_ms": float(np.median(
                [i - c for i, c in zip(intervals, callback[1:])])),
            "spark_graph.influence_spread_ms": float(np.median([1e3 * s["spread_s"] for s in scores])),
            "spark_graph.ms_per_level": float(np.median(
                [1e3 * s["spread_s"] / s["levels"] for s in scores if s.get("levels")])),
            "spark_graph.persisted_rdds_delta": sum(s["persisted_delta"] for s in scored),
            "ic.probabilities_ms": float(np.median([1e3 * s["ic_s"] for s in scores])),
            "rr.spark_sample.sets_per_s": float(np.median([RR_SETS / s["rr_s"] for s in scores])),
            "rr.max_cover_ms": float(np.median([1e3 * s["cover_s"] for s in scores])),
            "setup.make_stream_s": float(np.median(gen_s)),
            "setup.write_chunks_s": float(np.median(write_s)),
            "trace.overhead_pct": 100.0 * (1.0 - plain_busy / traced_busy),
        })
        fingerprint = {
            "oracle_calls": rep.tracker.oracle_calls,
            "affected_nodes": tracer.sizes["sieve_adn.affected_nodes"],
            "instances_created": created,
            "live_edge_copies_peak": max(rep.live_copies),
            "trace_digest": digest(rep.outputs),
        }
        return metrics, gate, fingerprint
    finally:
        stop_spark(spark)
