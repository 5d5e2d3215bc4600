"""Tracker workloads: closed-loop ``step()`` replay of decoded edge tuples.

Inputs are generated from the seed and decoded into per-step lists of
``(u, v, lifetime)`` tuples during set-up, so the timed region holds
nothing but ``tracker.step(batch)`` calls: the next step is fed when the
last returns (the paper's max-throughput setting, §V-C).

A run repeats a fixed-size *pass* (a fresh tracker over the whole
stream) until ``--seconds`` have elapsed and at least ``MIN_PASSES``
passes are done. Fixed work per pass keeps
oracle calls, quality and the per-step trace exact; repeating it turns
timing noise into medians. Every pass after the first must reproduce the
first pass's per-step trace exactly (one check each).
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from gate import Gate, check_run, digest, score_round
from repro.core.basic_reduction import BasicReduction
from repro.core.histapprox import HistApprox
from repro.experiments.datasets import make_stream
from repro.tdn.lifetimes import ConstantLifetime, GeometricLifetime
from tracing import Tracer, graph_layer_metrics

#: Interactions per micro-batch for ``batch_*`` metrics; spark-replay's
#: parquet chunks hold the same number.
BATCH_INTERACTIONS = 20
#: Set-ups per run; one takes milliseconds, so ``setup_s`` is the
#: interquartile mean of many.
SETUP_REPEATS = 100
#: Passes per untraced run at least.
MIN_PASSES = 2

Steps = list[list[tuple[int, int, int]]]


@dataclass(frozen=True)
class TrackerWorkload:
    dataset: str
    algo: str  # "histapprox" | "basicreduction"
    k: int
    eps: float
    L: int
    p: float | None  # geometric lifetime parameter; None = constant lifetime L
    per_step: int  # interactions per time step
    n_steps: int  # time steps per pass
    checkpoint_every: int  # steps between quality checkpoints

    def make_tracker(self):
        cls = HistApprox if self.algo == "histapprox" else BasicReduction
        return cls(self.k, self.eps, self.L)

    def lifetimes(self, n: int, seed: int) -> np.ndarray:
        if self.p is None:
            return ConstantLifetime(self.L).sample(n)
        return GeometricLifetime(self.p, self.L, seed=seed).sample(n)


WORKLOADS = {
    "ha-longlife": TrackerWorkload(
        "brightkite", "histapprox", k=10, eps=0.1, L=1000, p=0.001,
        per_step=1, n_steps=3000, checkpoint_every=250,
    ),
    "br-window": TrackerWorkload(
        "stackoverflow-c2q", "basicreduction", k=10, eps=0.1, L=100, p=None,
        per_step=1, n_steps=1200, checkpoint_every=50,
    ),
}


def make_inputs(w: TrackerWorkload, seed: int) -> tuple[Steps, float]:
    """Generate the stream and decode it into per-step edge lists.
    Returns the steps and the time ``make_stream`` took (s)."""
    t0 = time.perf_counter()
    stream = make_stream(w.dataset, w.n_steps * w.per_step, seed)
    gen_s = time.perf_counter() - t0
    edges = list(zip(stream["u"].tolist(), stream["v"].tolist(),
                     w.lifetimes(len(stream), seed).tolist()))
    return [edges[i : i + w.per_step] for i in range(0, len(edges), w.per_step)], gen_s


def instances_of(tracker) -> list:
    """The tracker's live SieveADN instances (read between steps)."""
    inst = getattr(tracker, "instances", None)
    return list(inst.values()) if inst is not None else list(tracker._instances)


@dataclass
class PassResult:
    oracle_calls: int
    outputs: list | None  # (S_t, value) per step, None for a failed step
    digest: str
    step_s: list[float]
    batch_s: list[float]
    failed: int
    interactions: int
    instances: list[int]  # live instances after each step (traced passes)
    live_copies: list[int]  # sum of instance edges after each step (traced passes)

    @property
    def throughput(self) -> float:
        return self.interactions / sum(self.step_s)


def run_pass(w: TrackerWorkload, steps: Steps, tracer: Tracer | None = None) -> PassResult:
    """One closed-loop pass over ``steps`` with a fresh tracker. With a
    tracer, the tracker layers are wrapped for the pass and the instance
    state is sampled after every step (outside the step time)."""
    spb = max(1, BATCH_INTERACTIONS // w.per_step)
    outputs, step_s, batch_s, inst, copies = [], [], [], [], []
    failed = 0
    pc = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        tracker = w.make_tracker()
        for i, batch in enumerate(steps):
            if tracer is not None:
                tracer.trace_id = i + 1
            a = pc()
            try:
                out = tracker.step(batch)
            except Exception:  # noqa: BLE001 - a failed step is counted, the run goes on
                traceback.print_exc()
                out, failed = None, failed + 1
            step_s.append(pc() - a)
            outputs.append(out)
            if (i + 1) % spb == 0:
                batch_s.append(sum(step_s[-spb:]))
            if tracer is not None:
                live = instances_of(tracker)
                inst.append(len(live))
                copies.append(sum(x.graph.n_edges for x in live))
    finally:
        if tracer is not None:
            tracer.uninstall()
    n = sum(len(b) for b in steps)
    return PassResult(
        tracker.oracle_calls, outputs, digest(outputs), step_s, batch_s, failed, n, inst, copies
    )


def pct(xs, q) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def iqm(xs) -> float:
    """Mean of the middle half of ``xs``. The host's speed flips between
    two states within a fraction of a second; the median of many equal
    pieces of work jumps from one state's value to the other's, where this
    mean moves with the share of time spent in each. The dropped quarters
    hold the garbage-collector pauses."""
    xs = sorted(xs)
    cut = round(len(xs) / 4)
    return float(np.mean(xs[cut : len(xs) - cut]))


def run(name: str, seed: int, seconds: float, trace: bool, dump_path: str | None):
    """Run one tracker workload; returns (metrics, gate, fingerprint)."""
    w = WORKLOADS[name]
    setup_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        steps, g = make_inputs(w, seed)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(g)

    gate = Gate()
    deadline = time.perf_counter() + seconds
    first = run_pass(w, steps)
    ratios, snapshots = check_run(
        gate, steps, first.outputs, k=w.k, eps=w.eps, algo=w.algo,
        checkpoint_every=w.checkpoint_every,
    )
    plain: list[PassResult] = [first]
    traced: list[PassResult] = []
    score_ms: list[float] = []  # one entry per reference scoring pass
    tracer = Tracer() if trace else None  # spans of the first traced pass
    while True:
        if trace:
            r = run_pass(w, steps, tracer if not traced else Tracer())
            r.outputs = None
            traced.append(r)
        else:
            # Scoring rounds are spread over the run, like the passes, so
            # the scoring times do not hang on one moment's machine speed.
            score_ms.extend(score_round(snapshots, w.k))
        if time.perf_counter() >= deadline and (trace or len(plain) >= MIN_PASSES):
            break
        r = run_pass(w, steps)
        r.outputs = None  # only the first pass is checked step by step
        plain.append(r)

    for r in plain + traced:
        gate.ops(len(r.step_s), r.failed)
    for r in plain[1:] + traced:
        gate.check(r.digest == first.digest, "a repeated pass changed the per-step trace")

    if not trace:
        # Latencies are pooled over all passes. The tail is mostly the
        # garbage collector's pauses, which every stream shares; the few
        # steps that are slow by themselves differ from seed to seed.
        step_ms = 1e3 * np.concatenate([r.step_s for r in plain])
        batch_ms = 1e3 * np.concatenate([r.batch_s for r in plain])
        metrics = {
            "setup_s": iqm(setup_s),
            "throughput_ips": float(np.median([r.throughput for r in plain])),
            "step_p50_ms": pct(step_ms, 50),
            "step_p99_ms": pct(step_ms, 99),
            "batch_p50_ms": pct(batch_ms, 50),
            "batch_p90_ms": pct(batch_ms, 90),
            "score_p50_ms": iqm(score_ms),
            "oracle_calls_per_interaction": first.oracle_calls / first.interactions,
            "quality_ratio": float(np.mean(ratios)),
        }
        print(
            f"samples: passes={len(plain)} steps={len(step_ms)} batches={len(batch_ms)} "
            f"checkpoints={len(snapshots)} scoring_passes={len(score_ms)}"
        )
        return metrics, gate, None

    r = traced[0]
    if dump_path:
        tracer.dump(dump_path)
    overhead = [100.0 * (1.0 - t.throughput / p.throughput) for p, t in zip(plain, traced)]
    metrics = graph_layer_metrics(tracer)
    created = tracer.calls["sieve_adn.init"] + tracer.calls["sieve_adn.copy"]
    prefix = "histapprox" if w.algo == "histapprox" else "basic_reduction"
    metrics[f"{prefix}.live_edge_copies_peak"] = max(r.live_copies)
    if w.algo == "histapprox":
        metrics["histapprox.instances_mean"] = float(np.mean(r.instances))
        metrics["histapprox.instances_created"] = created
    metrics["setup.make_stream_s"] = float(np.median(gen_s))
    metrics["trace.overhead_pct"] = float(np.median(overhead))
    fingerprint = {
        "oracle_calls": r.oracle_calls,
        "affected_nodes": tracer.sizes["sieve_adn.affected_nodes"],
        "instances_created": created,
        "live_edge_copies_peak": max(r.live_copies),
        "trace_digest": r.digest,
    }
    return metrics, gate, fingerprint
