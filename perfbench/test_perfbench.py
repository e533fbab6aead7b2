"""The benchmark's own tests: seeded inputs and the no-checkout failure.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from loadgen import Sample  # noqa: E402
from serving import Pass, throughput  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

DIGEST_SCRIPT = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
from workloads import WORKLOADS, build_inputs
print(" ".join(build_inputs(name, {seed}, 200).digest() for name in WORKLOADS))
"""


def digests(seed: int):
    """Input digests of every workload, generated in a fresh interpreter
    under the hash seed ``run.py`` pins."""
    script = DIGEST_SCRIPT.format(here=str(HERE), src=str(ROOT / "src"), seed=seed)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return completed.stdout.split()


def test_same_seed_gives_byte_identical_inputs():
    first, second = digests(5), digests(5)
    assert len(first) == len(WORKLOADS)
    assert first == second


def test_another_seed_gives_other_inputs():
    assert all(a != b for a, b in zip(digests(5), digests(6)))


def test_paper_cold_never_repeats_a_source_or_a_second():
    inputs = build_inputs("paper-cold", 3, 400)
    documents = [json.loads(body) for body in [inputs.setup] + inputs.requests]
    assert len({tuple(d["source"]) for d in documents}) == len(documents)
    assert len({d["time"] for d in documents}) == len(documents)


def test_paper_hot_has_24_cache_keys():
    inputs = build_inputs("paper-hot", 3, 2000)
    documents = [json.loads(body) for body in inputs.warmup]
    assert len(documents) == 8 * 40 * 3
    assert len({(tuple(d["source"]), d["time"]) for d in documents}) == 24
    assert set(inputs.requests) == set(inputs.warmup)


def test_batch_paper_is_the_fig6_fanout():
    inputs = build_inputs("batch-paper", 3)
    assert len(inputs.batches) == 2 * 12 * 2
    assert all(len(documents) == 64 for _method, documents in inputs.batches)


def test_throughput_ignores_a_stalled_window():
    """Ten 1 s windows of 100 answers, one of them stalled to 10: the
    middle half of the windows still reads 100 per second, while answers
    over the latency limit or wrong never count."""
    samples = []
    for window in range(10):
        for index in range(10 if window == 3 else 100):
            done = window + (index + 0.5) / 100
            samples.append(Sample(b"", done - 0.005, done - 0.005, done, 200, b""))
    slow = Sample(b"", 5.0, 5.0, 5.2, 200, b"")
    result = Pass(saturation=samples + [slow], saturation_start=0.0, saturation_seconds=10.01)
    correct = {id(sample): True for sample in result.saturation}
    assert throughput(result, correct) == 100.0
    correct = {id(sample): sample.done >= 1.0 for sample in result.saturation}
    assert throughput(result, correct) == 100.0
    correct = {id(sample): sample.done >= 5.0 for sample in result.saturation}
    assert throughput(result, correct) == 50.0


def test_fails_without_a_checkout(tmp_path):
    """Outside a checkout (only the benchmark's files) it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
