"""The environment block and host-calibration figure of every result."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional


def git_rev(root: Path) -> Optional[str]:
    """``HEAD`` of the checkout, or ``None`` where it is not a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (path and bytes of every ``.py`` file): names the
    code measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: tells a slower host apart
    from a regression (compare figures only between equal calibrations)."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1000.0


def environment(root: Path) -> Dict[str, object]:
    return {
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_ms": calibration_ms(),
    }
