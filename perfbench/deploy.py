"""Start and stop the shipped serving entry point, ``python -m repro.service``.

The benchmark passes only venues, the port and ``--shards``: every other
setting is the shipped default, so a change of default shows in the
figures.  Each process is started with a parent-death signal, so it does not
outlive the benchmark if the benchmark itself is killed.
"""

from __future__ import annotations

import ctypes
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB, 0.0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Deployment:
    """One running ``python -m repro.service`` (a server or a shard router)."""

    def __init__(self, root: Path, venue_args: Sequence[str], shards: int, log_path: Path):
        self.root = root
        self.command = [sys.executable, "-m", "repro.service", "--port", "0"]
        for venue in venue_args:
            self.command += ["--venue", venue]
        if shards:
            self.command += ["--shards", str(shards)]
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.shard_pids: List[int] = []
        self.shard_ports: Dict[str, int] = {}
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def spawn(self) -> None:
        env = dict(os.environ)
        source = str(self.root / "src")
        env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            self.command,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=_die_with_parent,
        )
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()

    def _pump(self) -> None:
        for raw in self.process.stdout:
            self._lines.put(raw.decode("utf-8", "replace").strip())
        self._lines.put(None)

    def wait_listening(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"no 'listening on' line within {timeout}s: {self.command}")
            if line is None:
                raise RuntimeError(f"server exited before listening (see {self.log_path})")
            if line.startswith("listening on "):
                host, _, port = line[len("listening on "):].rpartition(":")
                self.host, self.port = host, int(port)
                return

    def learn_shards(self, readyz: bytes) -> None:
        """Shard pids and ports from a router's ``/readyz`` document."""
        shards = json.loads(readyz)["shards"]
        self.shard_pids = [entry["pid"] for entry in shards.values() if entry.get("pid")]
        self.shard_ports = {
            venue: entry["port"] for entry in shards.values() for venue in entry["venues"]
        }

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the process tree that holds the engines."""
        pids = [self.process.pid] + self.shard_pids
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self, graceful: bool = True) -> None:
        """SIGINT (graceful drain), then SIGKILL whatever is left; with
        ``graceful=False`` SIGKILL at once (a router's drain waits out its
        shards' idle keep-alive reads, ~5 s, which set-up repeats need not pay)."""
        process = self.process
        if process is None:
            return
        if process.poll() is None and graceful:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                graceful = False
        if not graceful:
            process.kill()
            process.wait(timeout=20)
            self._kill_orphaned_shards()
        self._pump_thread.join(timeout=5)
        process.stdout.close()
        self._log.close()
        self.process = None

    def _kill_orphaned_shards(self) -> None:
        for pid in self.shard_pids:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"repro.service" not in handle.read():
                        continue
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
