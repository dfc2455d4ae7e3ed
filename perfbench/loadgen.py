"""Closed-loop load from one process: a fixed set of client threads, each
on its own keep-alive ``http.client`` connection with default socket
options.  Bodies are pre-encoded; raw responses are stored and decoded
only after the timed window.

Between its requests each client pauses for a seeded exponential think
time with mean :data:`THINK_MEAN_S`.  Without it the two clients keep
whatever phase they start with: they either overlap on the server's
interpreter lock or interleave, and rps and p50 differ by about 10%
between otherwise equal runs.  Random pauses keep the relative phase
moving, so every window averages over both.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from launch import BENCH_ID_HEADER

CLIENTS = 2
REQUEST_TIMEOUT = 60.0
THINK_MEAN_S = 0.010


@dataclass
class Sample:
    """One request: what was sent and what came back, with client times."""

    key: int  # index of the request in the workload's request list
    rid: int  # bench id, unique within the run
    start: float
    end: float
    status: int  # HTTP status, or -1 on a socket error
    sent: int  # request body bytes
    data: bytes  # raw response body

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class ClientPool:
    """``n`` persistent connections to one server."""

    def __init__(self, url: str, seed: int, n: int = CLIENTS,
                 tag_requests: bool = False):
        parts = urlsplit(url)
        self._think = [random.Random(f"{seed}-{i}") for i in range(n)]
        self._host, self._port = parts.hostname, parts.port
        self._conns = [self._connect() for __ in range(n)]
        self._tag = tag_requests
        self._next_rid = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self._host, self._port, timeout=REQUEST_TIMEOUT
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def _call(self, index: int, path: str, body: bytes, rid: int) -> Tuple[int, bytes, float, float]:
        headers = {"Content-Type": "application/json"}
        if self._tag:
            headers[BENCH_ID_HEADER] = str(rid)
        conn = self._conns[index]
        start = time.perf_counter()
        try:
            conn.request("POST", path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._conns[index] = self._connect()
            data, status = repr(exc).encode(), -1
        return status, data, start, time.perf_counter()

    def run(
        self,
        path: str,
        requests: Iterator[Tuple[int, bytes]],
        deadline: Optional[float] = None,
    ) -> List[Sample]:
        """Send ``(key, body)`` requests closed-loop on every connection
        until the iterator is exhausted or ``deadline`` (perf_counter) passes.
        """
        lock = threading.Lock()
        samples: List[Sample] = []

        def worker(index: int) -> None:
            think = self._think[index]
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                with lock:
                    item = next(requests, None)
                    rid = self._next_rid
                    self._next_rid += 1
                if item is None:
                    return
                key, body = item
                status, data, start, end = self._call(index, path, body, rid)
                with lock:
                    samples.append(
                        Sample(key, rid, start, end, status, len(body), data)
                    )
                time.sleep(think.expovariate(1.0 / THINK_MEAN_S))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(len(self._conns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT * 2)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        samples.sort(key=lambda s: s.rid)
        return samples
