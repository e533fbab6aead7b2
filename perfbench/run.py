#!/usr/bin/env python3
"""The ITSPQ stack's benchmark: one command, four workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload paper-cold --seed 3 --seconds 20
    python3 perfbench/run.py --workload paper-hot --trace 1   # per-layer metrics

With ``--trace 0`` a run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see ``perfbench/README.md`` for what each means and
which end-to-end metric it should move).  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table with
the environment block and the host-calibration figure.  The full record
(plus, when traced, the spans as JSON lines) is written under
``.perfbench/results/``.  The command exits 1 if any answer was wrong and 2
if it cannot run at all (for example outside a checkout with ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("example-routed", "paper-cold", "paper-hot", "batch-paper")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_qps": "queries/s",
    "peak_rss_mb": "MB",
}
#: Printed and recorded with the end-to-end metrics but not in the JSON line:
#: its run-to-run spread on a shared 2-CPU host exceeds any admissible bound
#: (see README.md, "Steadiness and bounds").
UNGATED_UNITS = {"latency_p99_ms": "ms"}
PER_LAYER_UNITS = {
    "shard.proxy_ms_p50": "ms",
    "shard.errors": "count",
    "server.outside_engine_ms_p50": "ms",
    "server.outside_engine_ms_p99": "ms",
    "server.admit_to_response_ms_p50": "ms",
    "server.mean_batch_size": "queries/batch",
    "server.shed": "count",
    "engine.search_us_p50": "us",
    "engine.search_us_p99": "us",
    "engine.heap_pops_per_query": "count",
    "engine.relaxations_per_query": "count",
    "cache.hit_ratio": "fraction",
    "cache.trees_built": "count",
    "cache.memory_mb": "MB",
    "cache.replay_us_p50": "us",
    "cache.record_ms_p50": "ms",
    "batch.plan_us_per_query": "us",
    "batch.execute_ms_per_batch": "ms",
    "batch.mean_group_size": "queries/group",
    "parallel.speedup": "x",
    "parallel.pool_share": "fraction",
    "parallel.retries_fallbacks": "count",
    "codec.load_ms": "ms",
    "codec.payload_kb": "KB",
    "loadgen.send_lag_ms_p99": "ms",
}
for _layer in ("shard", "server", "engine", "cache", "batch", "parallel", "codec", "loadgen"):
    PER_LAYER_UNITS[f"{_layer}.self_ms"] = "ms"
PER_LAYER_UNITS.update(
    {f"overhead.{name}": unit for name, unit in {**END_TO_END_UNITS, **UNGATED_UNITS}.items()}
)

#: Per-layer metrics of the shard router, reported only where there is one.
ROUTER_ONLY = ("shard.proxy_ms_p50", "shard.errors", "shard.self_ms")

#: The base of every ratio, printed next to it.
BASES = {
    "server.mean_batch_size": "answered / batches, /metrics delta",
    "cache.hit_ratio": "hits / lookups, /metrics delta",
    "batch.mean_group_size": "queries / groups, ExecutionReport",
    "parallel.speedup": "run_batch workers=2 vs in-process run_batch, same batches",
    "parallel.pool_share": "pool_seconds / total_seconds, ExecutionReport",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(workload: str, outcome, units) -> None:
    print(f"== {workload}")
    for name, unit in units.items():
        value = outcome.metrics[name]
        base = f"  (base: {BASES[name]})" if name in BASES else ""
        print(f"  {name:34s} {value:14.4f} {unit}{base}")
    rate = outcome.failed / outcome.attempted
    print(f"  {'error_rate':34s} {rate:14.4f} fraction  ({outcome.failed} of {outcome.attempted} failed)")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro package next to {HERE.name}/; run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The venue generators and the compiled-index builder iterate sets of
        # string ids, so inputs are byte-identical only under one hash seed.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import hostenv
    import suite

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    environment = hostenv.environment(ROOT)
    print("environment " + json.dumps(environment))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        if workload != "example-routed":
            units = {name: unit for name, unit in units.items() if name not in ROUTER_ONLY}
        shown = units if args.trace else {**units, **UNGATED_UNITS}
        run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}-{workload}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcome, tracer = suite.run_workload(
                workload, args.seed, args.seconds, bool(args.trace), ROOT, run_dir
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        _table(workload, outcome, shown)
        stem = f"{workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            tracer.dump(results / f"{stem}.spans.jsonl")
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        metrics = {
            prefix + name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
        }
        recorded = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in shown.items()}
        record = {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "wrong": outcome.wrong,
            "error_rate": outcome.failed / outcome.attempted,
            "metrics": recorded,
            "notes": outcome.notes,
        }
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        summary["correct"] = summary["correct"] and outcome.correct
        summary["attempted"] += outcome.attempted
        summary["failed"] += outcome.failed
        summary["metrics"].update(metrics)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
