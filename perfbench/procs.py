"""Server processes of one topology: launch, readiness, /proc sampling, drain.

Every server is a fresh ``repro serve ...`` process started with the
topology and input flags only; tuning knobs stay at their defaults.  A
server that fails to start, to become healthy, or to exit cleanly after
SIGTERM makes the run fail.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional
from urllib.parse import urlsplit

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

START_TIMEOUT = 90.0
DRAIN_TIMEOUT = 30.0

_ANNOUNCE = re.compile(r"serving (\w+) at (http://\S+)")
_SHARD = re.compile(r"shard (\d+) at (http://\S+)")


class TopologyError(RuntimeError):
    """A server failed to start, answer, or exit cleanly."""


def http_get(url: str, path: str, timeout: float = 5.0) -> tuple:
    """One GET on a fresh connection; returns ``(status, body)``."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One launched server process and its announced URL."""

    def __init__(self, name: str, proc: subprocess.Popen, log: Path):
        self.name = name
        self.proc = proc
        self.log = log
        self.url: Optional[str] = None
        self.shard_urls: Dict[int, str] = {}

    def log_text(self) -> str:
        try:
            return self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""

    def pids(self) -> List[int]:
        """This process and its descendants (spawned shard workers)."""
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            try:
                text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            except OSError:
                continue
            todo.extend(int(p) for p in text.split())
        return out


def proc_status(pid: int, field: str) -> Optional[int]:
    """An integer field of ``/proc/<pid>/status`` (kB for memory fields)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return None


class Topology:
    """The server processes of one workload run.

    Args:
        work: Directory for server logs (and spans files when traced).
        traced: Start servers through the span-recording launcher.
    """

    def __init__(self, work: Path, traced: bool = False):
        self.work = work
        self.traced = traced
        self.servers: List[Server] = []
        self.setup_s: Optional[float] = None
        self.ready_at: Optional[float] = None
        self._started: Optional[float] = None
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    # -- launch ---------------------------------------------------------------

    def start(self, name: str, args: List[str]) -> Server:
        """Launch ``repro <args>``; returns without waiting for readiness."""
        if self._started is None:
            self._started = time.perf_counter()
        log = self.work / f"{name}.log"
        if self.traced:
            command = [sys.executable, str(LAUNCHER),
                       str(self.spans_path(name)), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.Popen(
                command, stdout=fh, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=str(ROOT), env=self._env,
            )
        server = Server(name, proc, log)
        self.servers.append(server)
        return server

    def spans_path(self, name: str) -> Path:
        return self.work / f"{name}.spans.json"

    def wait_ready(self, server: Server) -> str:
        """Block until ``server`` announced its URL and ``/healthz`` is 200."""
        deadline = time.monotonic() + START_TIMEOUT
        while server.url is None:
            match = _ANNOUNCE.search(server.log_text())
            if match:
                server.url = match.group(2)
                break
            if server.proc.poll() is not None:
                raise TopologyError(
                    f"{server.name} exited with {server.proc.returncode} before "
                    f"serving:\n{server.log_text()[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise TopologyError(f"{server.name} did not announce a URL")
            time.sleep(0.005)
        server.shard_urls = {
            int(i): url for i, url in _SHARD.findall(server.log_text())
        }
        while True:
            try:
                status, __ = http_get(server.url, "/healthz", timeout=2.0)
                if status == 200:
                    return server.url
            except OSError:
                pass
            if server.proc.poll() is not None or time.monotonic() > deadline:
                raise TopologyError(f"{server.name} never became healthy")
            time.sleep(0.005)

    def ready(self) -> float:
        """Mark the topology fully up; returns the set-up time in seconds."""
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - self._started
        return self.setup_s

    # -- sampling -------------------------------------------------------------

    def pids(self) -> List[int]:
        return [pid for server in self.servers for pid in server.pids()]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over every server process, in MB."""
        kb = [proc_status(pid, "VmHWM") for pid in self.pids()]
        if any(v is None for v in kb):
            raise TopologyError("a server process vanished before sampling")
        return sum(kb) / 1024.0

    def threads(self) -> int:
        """Sum of live ``Threads`` over every server process."""
        return sum(proc_status(pid, "Threads") or 0 for pid in self.pids())

    # -- shutdown -------------------------------------------------------------

    def drain(self) -> List[str]:
        """SIGTERM every server (front processes first), wait, and report
        problems: non-zero exits, timeouts, or descendants left running."""
        problems: List[str] = []
        descendants = set(self.pids()) - {s.proc.pid for s in self.servers}
        for server in reversed(self.servers):
            if server.proc.poll() is None:
                server.proc.send_signal(signal.SIGTERM)
            try:
                code = server.proc.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                server.proc.kill()
                server.proc.wait()
                problems.append(f"{server.name} ignored SIGTERM")
                continue
            if code != 0:
                problems.append(
                    f"{server.name} exited with {code}:\n{server.log_text()[-1500:]}"
                )
        for pid in descendants:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                problems.append(f"descendant {pid} outlived its parent")
        self.servers = []
        return problems


def _alive(pid: int) -> bool:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0]
        except OSError:
            return False
        if state == "Z":
            return False
        time.sleep(0.02)
    return True
