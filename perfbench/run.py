"""The repository benchmark: one workload, one seed, one timed window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway_estimate_wide --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` launches the workload's topology of ``repro serve``
processes several times (set-up time is the median), drives a closed
loop from two keep-alive client connections for ``--seconds`` and checks
every answer against an in-process oracle; it prints the end-to-end
metrics.  ``--trace 1`` runs the same window untraced and then traced
(servers started through ``launch.py``) and prints the per-layer
metrics.  The last line of stdout is the JSON result.  Exit codes: 1 on
an oracle mismatch, 3 when a server fails to start, answer or exit, and
4 when too few reads lie beyond p95 to report it.  ``BENCHMARK.json`` at
the repository root lists the metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
#: p95 is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


if not (ROOT / "src" / "repro" / "cli.py").is_file():
    print(f"error: no repro sources under {ROOT / 'src'}; run from a full "
          f"checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
from loadgen import ClientPool  # noqa: E402
from procs import Topology, TopologyError, http_get  # noqa: E402
from workloads import WORKLOADS, read_failed  # noqa: E402


class ThinTail(Exception):
    """Too few latency samples beyond p95 to report it."""


class ThreadSampler:
    """Samples the summed ``Threads`` of every server process."""

    def __init__(self, topo: Topology, interval: float = 0.05):
        self.topo = topo
        self.interval = interval
        self.peak = topo.threads()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self.topo.threads())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        return False


def _scrape(urls):
    out = []
    for url in urls:
        status, body = http_get(url, "/metrics")
        if status != 200:
            raise TopologyError(f"{url}/metrics answered {status}")
        out.append(ledger.parse_prometheus(body.decode("utf-8")))
    return out


def _latencies(window):
    return [s.ms for s in window.reads if not read_failed(s)]


def _failures(window) -> int:
    return sum(1 for s in window.reads if read_failed(s)) + sum(
        1 for w in window.writes if not w.ok
    )


class Run:
    """One benchmark invocation; owns every topology it starts."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.wl = WORKLOADS[workload]()
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{time.time_ns()}"
        self.live: list = []
        self.problems: list = []
        self.windows: list = []

    def topology(self, name: str, traced: bool = False) -> Topology:
        path = self.work / name
        path.mkdir(parents=True)
        topo = Topology(path, traced=traced)
        self.live.append(topo)
        self.wl.launch(topo)
        return topo

    def drain(self, topo: Topology) -> None:
        self.live.remove(topo)
        self.problems.extend(topo.drain())

    def window(self, topo: Topology, traced: bool = False):
        """Warm up, then run the timed window.  A traced window tags reads
        with bench ids, diffs every server's ``/metrics`` across the window
        and samples thread counts; it returns ``(window, before, after,
        threads_peak)``."""
        pool = ClientPool(self.wl.front_url(topo), self.seed, tag_requests=traced)
        try:
            self.wl.warm(topo, pool)
            if not traced:
                window = self.wl.window(topo, pool, self.seconds)
            else:
                urls = self.wl.server_urls(topo)
                before = _scrape(urls)
                with ThreadSampler(topo) as sampler:
                    window = self.wl.window(topo, pool, self.seconds)
                after = _scrape(urls)
        finally:
            pool.close()
        self.windows.append(window)
        return window if not traced else (window, before, after, sampler.peak)

    def untraced(self) -> dict:
        setups = []
        for i in range(SETUPS):
            topo = self.topology(f"setup{i}")
            setups.append(topo.setup_s)
            if i < SETUPS - 1:
                self.drain(topo)
        window = self.window(topo)
        rss = topo.peak_rss_mb()
        self.drain(topo)
        latencies = _latencies(window)
        p95 = ledger.pct(latencies, 95)
        beyond = sum(1 for v in latencies if v > p95)
        if beyond < MIN_TAIL:
            raise ThinTail(
                f"only {beyond} of {len(latencies)} successful reads lie beyond "
                f"p95; at least {MIN_TAIL} are needed to report it"
            )
        print(
            f"{self.wl.name}: {len(window.reads)} reads, {len(window.writes)} "
            f"writes in {window.end - window.start:.2f}s; latency samples "
            f"{len(latencies)} ({beyond} beyond p95); set-ups {setups}",
            flush=True,
        )
        return {
            "setup_s": (statistics.median(setups), "s"),
            "rps": (len(latencies) / (window.end - window.start), "1/s"),
            "p50_ms": (ledger.p50(latencies), "ms"),
            "p95_ms": (p95, "ms"),
            "server_rss_mb": (rss, "MB"),
        }

    def traced(self) -> dict:
        topo = self.topology("untraced")
        untraced_p50 = ledger.p50(_latencies(self.window(topo)))
        self.drain(topo)

        topo = self.topology("traced", traced=True)
        window, before, after, threads_peak = self.window(topo, traced=True)
        self.drain(topo)
        if self.problems:
            raise TopologyError("traced servers did not drain cleanly")
        processes = ledger.load_processes(sorted(topo.work.glob("*.spans.json*")))
        metrics, rows, shard_rows, traced_p50 = ledger.compute(
            window, processes, before, after, threads_peak, topo.ready_at,
            untraced_p50,
        )
        metrics["failed_frac"] = (
            _failures(window) / max(1, len(window.reads) + len(window.writes)),
            "ratio",
        )
        print(f"layer ledger, {self.wl.name} (mean self ms over the median band):")
        for name, value in rows:
            print(f"  {name:32s} {value:9.3f}")
        total = sum(v for __, v in rows)
        print(f"  {'total':32s} {total:9.3f}   traced p50 {traced_p50:.3f} ms")
        for name, value, n in shard_rows:
            print(f"  shard {name:26s} {value:9.3f} p50 self ms over {n} spans")
        return metrics

    def verify(self, perturb: bool = False) -> list:
        mismatches = []
        for window in self.windows:
            mismatches.extend(self.wl.verify(window, perturb=perturb))
        return mismatches

    def close(self) -> None:
        for topo in list(self.live):
            self.drain(topo)
        shutil.rmtree(self.work, ignore_errors=True)


def _declared(trace: int) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json promises for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds)
    thin_tail = None
    try:
        run.wl.prepare(args.seed, run.work)
        metrics = run.traced() if args.trace else run.untraced()
        mismatches = run.verify()
    except TopologyError as exc:
        run.problems.append(str(exc))
        mismatches, metrics = [], None
    except ThinTail as exc:
        thin_tail = str(exc)
        mismatches, metrics = [], None
    finally:
        run.close()
    if metrics is not None:
        declared = _declared(args.trace)
        emitted = {name: unit for name, (__, unit) in metrics.items()}
        if emitted != declared:
            differ = sorted(set(emitted.items()) ^ set(declared.items()))
            run.problems.append(f"metrics differ from BENCHMARK.json: {differ}")
    if run.problems:
        for problem in run.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 3
    if thin_tail:
        print(f"error: {thin_tail}", file=sys.stderr)
        return 4
    for mismatch in mismatches[:20]:
        print(f"mismatch: {mismatch}", file=sys.stderr)
    for window in run.windows:
        for write in window.writes:
            if not write.ok:
                print(f"failed write in round {write.round}: {write.error}",
                      file=sys.stderr)
    attempted = sum(len(w.reads) + len(w.writes) for w in run.windows)
    failed = sum(_failures(w) for w in run.windows)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
