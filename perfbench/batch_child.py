"""The ``batch-paper`` process: holds only the codec payload and answers
Figure 6 fan-out batches through ``ITSPQEngine.run_batch``.

Usage (started by ``run.py``; paths are inside the checkout)::

    python perfbench/batch_child.py PAYLOAD BATCHES_JSON SECONDS OUT_JSON [--trace]

* set-up, ``SETUPS`` times and once more after every timed round (outside
  its interval): payload bytes in hand → ``from_compiled_payload`` → first
  answer;
* one untimed round over every batch (lazy set-up, and the answers the
  parent checks against its own engine);
* timed rounds until ``SECONDS`` of round time pass; between rounds,
  outside the timed interval, every answer is compared with the untimed
  round's.

Writes timings, answers, mismatch count and its own ``VmHWM`` to OUT_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parent.parent / "src")]

from deploy import vm_hwm_mb  # noqa: E402
from repro.core.engine import ITSPQEngine  # noqa: E402
from verify import answer_of_result  # noqa: E402
from workloads import document_query  # noqa: E402

SETUPS = 5


def main(argv) -> int:
    payload_path, batches_path, seconds, out_path = argv[:4]
    trace = "--trace" in argv[4:]
    spans = []
    payload = Path(payload_path).read_bytes()
    batches = [
        (method, [document_query(document) for document in documents])
        for method, documents in json.loads(Path(batches_path).read_text())
    ]
    first_method, first_queries = batches[0]

    setup_seconds = []
    first_answers = []

    def setup() -> ITSPQEngine:
        started = time.perf_counter()
        engine = ITSPQEngine.from_compiled_payload(payload)
        first = engine.run(first_queries[0], method=first_method)
        done = time.perf_counter()
        setup_seconds.append(done - started)
        first_answers.append(answer_of_result(first))
        if trace:
            spans.append(("engine.setup", started, done))
        return engine

    for _ in range(SETUPS):
        engine = setup()

    reference_round = [
        [answer_of_result(result) for result in engine.run_batch(queries, method=method)]
        for method, queries in batches
    ]

    round_seconds = []
    calls = []
    mismatches = 0
    while sum(round_seconds) < float(seconds):
        round_started = time.perf_counter()
        answers = []
        for method, queries in batches:
            started = time.perf_counter()
            answers.append(engine.run_batch(queries, method=method))
            done = time.perf_counter()
            calls.append(done - started)
            if trace:
                spans.append(("batch.run_batch", started, done))
        round_seconds.append(time.perf_counter() - round_started)
        setup()
        # Checked between rounds, outside the timed interval.
        for results, expected in zip(answers, reference_round):
            mismatches += sum(
                answer_of_result(result) != answer for result, answer in zip(results, expected)
            )
    per_round = sum(len(queries) for _method, queries in batches)
    Path(out_path).write_text(
        json.dumps(
            {
                "setup_seconds": setup_seconds,
                "first_answers": first_answers,
                "reference_round": reference_round,
                "round_seconds": round_seconds,
                "answers_per_round": per_round,
                "call_seconds": calls,
                "mismatches": mismatches,
                "peak_rss_mb": vm_hwm_mb("self"),
                "spans": spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
