"""Runs one workload end to end (and, traced, layer by layer).

``run_workload`` returns an :class:`Outcome`: requests attempted and failed,
answers that disagreed with the reference, and the metrics by name.  The
untraced pass gives the end-to-end metrics.  With ``trace`` a second pass
runs with spans on; the per-layer metrics come from it and from the
in-process probes, and ``overhead.<metric>`` is traced minus untraced.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import layers
import serving
from loadgen import percentile
from tracing import Tracer
from verify import Reference, answer_of_json
from workloads import body_of, build_inputs

END_TO_END = ("setup_s", "latency_p50_ms", "latency_p99_ms", "throughput_qps", "peak_rss_mb")
#: Layers whose self time the traced run reports (see README.md for the modules).
LAYERS = ("shard", "server", "engine", "cache", "batch", "parallel", "codec", "loadgen")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path, run_dir: Path
) -> Tuple[Outcome, Tracer]:
    if name == "batch-paper":
        return run_batch_paper(seed, seconds, trace, root, run_dir)
    return run_serving(name, seed, seconds, trace, root, run_dir)


def _finish(outcome: Outcome, untraced: Dict[str, float], traced: Dict[str, float], tracer: Tracer) -> None:
    """Per-layer self times and tracing overhead of a traced run."""
    self_times = tracer.self_times()
    for layer in LAYERS:
        outcome.metrics[f"{layer}.self_ms"] = self_times.get(layer, 0.0) * 1000.0
    for metric in END_TO_END:
        outcome.metrics[f"overhead.{metric}"] = traced[metric] - untraced[metric]


def run_serving(name: str, seed: int, seconds: float, trace: bool, root: Path, run_dir: Path):
    inputs = build_inputs(name, seed, serving.request_budget(name, seconds))
    passes = [asyncio.run(serving.measure_pass(name, inputs, seconds, root, run_dir, None))]
    tracer = Tracer()
    if trace:
        passes.append(asyncio.run(serving.measure_pass(name, inputs, seconds, root, run_dir, tracer)))

    reference = Reference(inputs.payloads, tracer if trace else None)
    outcome = Outcome()
    correct: Dict[int, bool] = {}
    failures = []
    for measured in passes:
        for phase, samples in measured.phases().items():
            for sample in samples:
                ok = reference.check(sample.body, sample.status, sample.payload)
                correct[id(sample)] = ok
                outcome.attempted += 1
                outcome.failed += not ok
                outcome.wrong += sample.status == 200 and not ok
                if not ok and len(failures) < 20:
                    failures.append(
                        {
                            "phase": phase,
                            "status": sample.status,
                            "body": sample.body.decode(),
                            "response": sample.payload.decode("utf-8", "replace")[:500],
                        }
                    )
    untraced = serving.end_to_end(passes[0], correct)
    outcome.notes = {
        "open_loop_requests": len(passes[0].open),
        "open_loop_rate_qps": serving.SPECS[name].rate,
        "saturation_requests": len(passes[0].saturation),
        "saturation_seconds": passes[0].saturation_seconds,
        "setup_seconds": passes[0].setup_seconds,
        "open_loop_latency_ms": {
            f"p{fraction * 100:g}": percentile([s.latency for s in passes[0].open], fraction) * 1000.0
            for fraction in (0.5, 0.9, 0.95, 0.98, 0.99, 0.999, 1.0)
        },
        "failures": failures,
    }
    if not trace:
        outcome.metrics = untraced
        return outcome, tracer

    traced = serving.end_to_end(passes[1], correct)
    outcome.metrics = serving.per_layer(name, passes[1])
    documents = [(document["method"], document) for document in serving.distinct_documents(inputs)]
    payload = next(iter(inputs.payloads.values()))
    outcome.metrics.update(layers.engine(reference, documents))
    outcome.metrics.update(layers.cache(payload, documents, tracer))
    outcome.metrics.update(layers.batch_and_parallel(payload, layers.serving_batches(documents), tracer))
    outcome.metrics.update(layers.codec(payload, tracer))
    _finish(outcome, untraced, traced, tracer)
    return outcome, tracer


def _batch_pass(inputs, seconds: float, trace: bool, root: Path, run_dir: Path) -> dict:
    payload_path = run_dir / "mall.bin"
    batches_path = run_dir / "batches.json"
    out_path = run_dir / "batch-result.json"
    payload_path.write_bytes(inputs.payloads["mall"])
    batches_path.write_text(json.dumps(inputs.batches))
    command = [
        sys.executable,
        str(root / "perfbench" / "batch_child.py"),
        str(payload_path),
        str(batches_path),
        repr(float(seconds)),
        str(out_path),
    ] + (["--trace"] if trace else [])
    subprocess.run(command, cwd=root, check=True, timeout=170, stdin=subprocess.DEVNULL)
    return json.loads(out_path.read_text())


def _batch_end_to_end(result: dict, wrong_per_round: int) -> Dict[str, float]:
    """``latency_p50_ms`` is the median over rounds of the mean call time: the
    median single call sits between the cheap night-time batches and the
    dear daytime ones, and jumped by a third between seeds."""
    calls_ms = [seconds * 1000.0 for seconds in result["call_seconds"]]
    calls_per_round = len(calls_ms) // len(result["round_seconds"])
    per_round = result["answers_per_round"] - wrong_per_round
    return {
        "setup_s": statistics.median(result["setup_seconds"]),
        "latency_p50_ms": statistics.median(
            seconds * 1000.0 / calls_per_round for seconds in result["round_seconds"]
        ),
        "latency_p99_ms": percentile(calls_ms, 0.99),
        "throughput_qps": statistics.median(per_round / seconds for seconds in result["round_seconds"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_batch_paper(seed: int, seconds: float, trace: bool, root: Path, run_dir: Path):
    inputs = build_inputs("batch-paper", seed)
    passes = [_batch_pass(inputs, seconds, False, root, run_dir)]
    if trace:
        passes.append(_batch_pass(inputs, seconds, True, root, run_dir))

    tracer = Tracer()
    reference = Reference(inputs.payloads, tracer if trace else None)
    outcome = Outcome()
    wrong_per_round = []
    first_method, first_documents = inputs.batches[0]
    for result in passes:
        expected_first = reference.expected(body_of(first_documents[0], first_method))
        first_wrong = sum(answer_of_json(answer) != expected_first for answer in result["first_answers"])
        wrong = 0
        for (method, documents), answers in zip(inputs.batches, result["reference_round"]):
            for document, answer in zip(documents, answers):
                wrong += answer_of_json(answer) != reference.expected(body_of(document, method))
        rounds = len(result["round_seconds"])
        answers = len(result["setup_seconds"]) + result["answers_per_round"] * (rounds + 1)
        bad = first_wrong + wrong * (rounds + 1) + result["mismatches"]
        outcome.attempted += answers
        outcome.failed += bad
        outcome.wrong += bad
        wrong_per_round.append(wrong)
    untraced = _batch_end_to_end(passes[0], wrong_per_round[0])
    outcome.notes = {
        "rounds": len(passes[0]["round_seconds"]),
        "batches_per_round": len(inputs.batches),
        "queries_per_round": passes[0]["answers_per_round"],
        "setup_seconds": passes[0]["setup_seconds"],
        "round_seconds": passes[0]["round_seconds"],
    }
    if not trace:
        outcome.metrics = untraced
        return outcome, tracer

    for span_name, start, end in passes[1]["spans"]:
        tracer.record(span_name, start, end)
    traced = _batch_end_to_end(passes[1], wrong_per_round[1])
    answers = [answer for batch in passes[1]["reference_round"] for answer in batch]
    outcome.metrics = {
        "shard.proxy_ms_p50": 0.0,
        "shard.errors": 0,
        "server.outside_engine_ms_p50": 0.0,
        "server.outside_engine_ms_p99": 0.0,
        "server.admit_to_response_ms_p50": 0.0,
        "server.mean_batch_size": 0.0,
        "server.shed": 0,
        "engine.heap_pops_per_query": statistics.fmean(answer[6] for answer in answers),
        "engine.relaxations_per_query": statistics.fmean(answer[4] for answer in answers),
        "cache.hit_ratio": 0.0,
        "cache.trees_built": 0,
        "cache.memory_mb": 0.0,
        "loadgen.send_lag_ms_p99": 0.0,
    }
    documents = [(method, document) for method, batch in inputs.batches for document in batch]
    payload = inputs.payloads["mall"]
    outcome.metrics.update(layers.engine(reference, documents))
    outcome.metrics.update(layers.cache(payload, documents, tracer))
    outcome.metrics.update(layers.batch_and_parallel(payload, inputs.batches, tracer))
    outcome.metrics.update(layers.codec(payload, tracer))
    _finish(outcome, untraced, traced, tracer)
    return outcome, tracer

