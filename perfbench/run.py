"""Benchmark of the TDN trackers: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload ha-longlife --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the repro layers wrapped by
:mod:`tracing` and prints every per-layer metric, the tracing overhead
and the exact-count fingerprint, and writes the spans to
``.perfbench/spans-<workload>.npz``. The last stdout line is the JSON
result; ``correct`` is false when any step, batch, scoring pass or
correctness check failed. Per-layer metrics of a layer the workload does
not exercise (Spark layers on the tracker workloads, say) read 0.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def run_workload(args, spec: dict) -> tuple[dict, object, dict | None]:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs").is_dir():
        sys.exit(f"perfbench: no src/repro or jobs/ under {ROOT}; run from a repository checkout")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; pick from {names}")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    WORK.mkdir(exist_ok=True)
    dump = str(WORK / f"spans-{args.workload}.npz") if args.trace else None
    trace = bool(args.trace)
    if args.workload == "spark-replay":
        import spark_replay

        scratch = WORK / "spark"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        try:
            return spark_replay.run(
                args.workload, args.seed, args.seconds, trace, dump, str(ROOT), str(scratch)
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, trace, dump)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, gate, fingerprint = run_workload(args, spec)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {}
    for m in wanted:
        if m["name"] not in metrics and not args.trace:
            raise RuntimeError(f"end-to-end metric {m['name']} was not measured")
        value = metrics.get(m["name"], 0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}")
    print(f"{args.workload} ops_failed_frac = {gate.failed / max(gate.attempted, 1):.6g} "
          f"({gate.failed} of {gate.attempted})")
    if fingerprint is not None:
        print(f"{args.workload} fingerprint = {json.dumps(fingerprint, sort_keys=True)}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": result,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
