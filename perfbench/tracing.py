"""In-memory span tracer that wraps the repro layers from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces the
public methods and functions listed in :data:`LAYERS` with timing
wrappers and :meth:`Tracer.uninstall` puts the originals back. Every
wrapped call becomes one span ``(index, name, start_ns, end_ns, parent,
trace_id)``; the trace id is the index of the time step being processed,
which the benchmark sets on :attr:`Tracer.trace_id`. Self time (span duration minus the time
its child spans cover) and call counts are accumulated as spans close,
so the per-layer totals need no second pass over the spans.

The span stack is shared by all threads. That is sound here because the
traced layers run one call at a time: Spark hands ``foreachBatch``
callbacks to the driver sequentially while the main thread waits.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np


def _by_refresh(name: str):
    """Span name of a ``(self, refresh=False)`` method: ``name`` or
    ``name_refresh``."""

    def pick(args, kwargs) -> str:
        refresh = kwargs.get("refresh", args[1] if len(args) > 1 else False)
        return f"{name}_refresh" if refresh else name

    return pick


#: (module, class or None, attribute, span name, result-size tally or None).
#: A callable span name picks the name from the call's arguments.
LAYERS = (
    ("repro.tdn.graph", "DiGraph", "reachable", "graph.reachable", "graph.reachable.nodes"),
    ("repro.tdn.graph", "DiGraph", "reverse_reachable", "graph.reverse_reachable", None),
    ("repro.tdn.graph", "DiGraph", "copy", "graph.copy", None),
    ("repro.tdn.graph", "TDNGraph", "advance_to", "tdn.advance_to", "tdn.expired_edges"),
    ("repro.tdn.graph", "TDNGraph", "add_edges", "tdn.add_edges", None),
    ("repro.tdn.graph", "TDNGraph", "edges_with_lifetime", "tdn.edges_with_lifetime", None),
    ("repro.tdn.influence", "InfluenceOracle", "spread", "oracle.spread", None),
    ("repro.tdn.influence", "InfluenceOracle", "marginal_gain", "oracle.marginal_gain", None),
    ("repro.core.sieve", "ThresholdSieve", "process_node", "sieve.process_node", None),
    ("repro.core.sieve", "ThresholdSieve", "best", _by_refresh("sieve.best"), None),
    ("repro.core.sieve_adn", "SieveADN", "__init__", "sieve_adn.init", None),
    ("repro.core.sieve_adn", "SieveADN", "process_batch", "sieve_adn.process_batch", "sieve_adn.affected_nodes"),
    ("repro.core.sieve_adn", "SieveADN", "solution", _by_refresh("sieve_adn.solution"), None),
    ("repro.core.sieve_adn", "SieveADN", "copy", "sieve_adn.copy", None),
    ("repro.core.histapprox", "HistApprox", "step", "histapprox.step", None),
    ("repro.core.basic_reduction", "BasicReduction", "step", "basic_reduction.step", None),
    ("repro.streaming.driver", None, "replay_stream", "replay.replay_stream", None),
    ("repro.tdn.spark_graph", None, "influence_spread", "spark_graph.influence_spread", None),
    ("repro.ic.probabilities", None, "ic_probabilities", "ic.probabilities", None),
    ("repro.rrset.rr", None, "spark_sample_rr_sets", "rr.spark_sample", None),
    ("repro.rrset.rr", None, "max_cover", "rr.max_cover", None),
)

ORACLE_SPANS = ("oracle.spread", "oracle.marginal_gain")


class Tracer:
    """Span recorder; install it around the traced region only."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # flattened rows (index, name, start, end, parent, trace)
        self._stack: list[list] = []  # [index, name, start ns, child ns]
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []
        self.trace_id = 0
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.pairs: Counter[tuple[str, str]] = Counter()  # (parent, child) calls
        self.sizes: Counter[str] = Counter()  # summed len() of results

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> list:
        frame = [self._next, name, 0, 0]
        self._next += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        dur = end - frame[2]
        name = frame[1]
        if stack:
            parent = stack[-1]
            parent[3] += dur
            pidx, pname = parent[0], parent[1]
        else:
            pidx, pname = -1, ""
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[3]
        self.pairs[(pname, name)] += 1
        self.spans.extend((frame[0], self._nid(name), frame[2], end, pidx, self.trace_id))

    def _wrapper(self, fn, name, size_key):
        pick = name if callable(name) else None
        open_, close, sizes = self._open, self._close, self.sizes

        def traced(*args, **kwargs):
            frame = open_(pick(args, kwargs) if pick else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if size_key is not None:
                sizes[size_key] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, cls_name, attr, name, size_key in LAYERS:
            module = importlib.import_module(mod_name)
            owner = getattr(module, cls_name) if cls_name else module
            fn = owner.__dict__[attr] if cls_name else getattr(module, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, size_key))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def dump(self, path: str) -> None:
        """Write every span (and the name table) as a compressed ``.npz``."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(
            path,
            spans=rows,
            columns=np.array(["index", "name", "start_ns", "end_ns", "parent", "trace_id"]),
            names=np.array(self.names),
        )


def graph_layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of the tracker layers (tdn.graph .. core.*)."""
    c, ms = tr.calls, tr.ms
    oracle_calls = sum(c[n] for n in ORACLE_SPANS)
    bfs_in_oracle = sum(tr.pairs[(n, "graph.reachable")] for n in ORACLE_SPANS)
    gain_evals = tr.pairs[("sieve.process_node", "oracle.marginal_gain")]
    return {
        "graph.reachable.calls": c["graph.reachable"],
        "graph.reachable.self_ms": ms("graph.reachable"),
        "graph.reachable.nodes_per_call": tr.sizes["graph.reachable.nodes"] / max(c["graph.reachable"], 1),
        "graph.reverse_reachable.calls": c["graph.reverse_reachable"],
        "graph.reverse_reachable.self_ms": ms("graph.reverse_reachable"),
        "graph.copy.calls": c["graph.copy"],
        "graph.copy.self_ms": ms("graph.copy"),
        "tdn.edges_with_lifetime.calls": c["tdn.edges_with_lifetime"],
        "tdn.edges_with_lifetime.self_ms": ms("tdn.edges_with_lifetime"),
        "tdn.advance_to.self_ms": ms("tdn.advance_to"),
        "tdn.add_edges.self_ms": ms("tdn.add_edges"),
        "tdn.expired_edges": tr.sizes["tdn.expired_edges"],
        "oracle.spread.calls": c["oracle.spread"],
        "oracle.marginal_gain.calls": c["oracle.marginal_gain"],
        "oracle.self_ms": sum(ms(n) for n in ORACLE_SPANS),
        "oracle.bfs_per_call": bfs_in_oracle / max(oracle_calls, 1),
        "sieve.process_node.calls": c["sieve.process_node"],
        "sieve.process_node.self_ms": ms("sieve.process_node"),
        "sieve.gain_evals_per_node": gain_evals / max(c["sieve.process_node"], 1),
        "sieve.best_refresh.calls": c["sieve.best_refresh"],
        "sieve.best_refresh.self_ms": ms("sieve.best_refresh"),
        "sieve_adn.process_batch.calls": c["sieve_adn.process_batch"],
        "sieve_adn.process_batch.self_ms": ms("sieve_adn.process_batch"),
        "sieve_adn.affected_nodes": tr.sizes["sieve_adn.affected_nodes"],
        "sieve_adn.copy.calls": c["sieve_adn.copy"],
        "sieve_adn.copy.self_ms": ms("sieve_adn.copy"),
        "sieve_adn.solution.calls": c["sieve_adn.solution"],
        "histapprox.step.self_ms": ms("histapprox.step"),
        "basic_reduction.step.self_ms": ms("basic_reduction.step"),
    }
