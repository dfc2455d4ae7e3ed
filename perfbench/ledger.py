"""Per-layer metrics of a traced window: spans, ``/metrics`` diffs and
``/proc`` samples turned into the layer ledger.

A layer's self time is its span minus the spans nested in it on the same
thread.  For every traced read the ledger splits the client-observed
latency into the front-door residual (client time minus the server's
``handle`` span for the same request id) plus the self time of every
span recorded under that request in the front process; what no span
claims is ``trace.unattributed_ms``.  Because the residual is defined as
client time minus ``handle``, each read's ledger sums to its client
latency by construction, and ``trace.unattributed_ms`` is non-zero only
if spans overlap or a child outlives its parent.  Shard processes serve requests
without ids, so their layers are reported as distributions, and the RPC
gap of a scatter phase is a difference of medians.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

FRONT_ROLES = ("gateway", "coordinator")

#: Zero-length spans the launcher records per dispatcher pool construction.
POOL_MARK = "metasearch.dispatch.pool"


def p50(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def pct(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


# -- /metrics -----------------------------------------------------------------


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, __, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def metric_delta(before: List[Dict[str, float]], after: List[Dict[str, float]],
                 name: str) -> float:
    """Change of ``name`` (summed over label sets and processes)."""
    total = 0.0
    for b, a in zip(before, after):
        for key, value in a.items():
            if key == name or key.startswith(name + "{"):
                total += value - b.get(key, 0.0)
    return total


# -- spans --------------------------------------------------------------------


class Process:
    """One server process's spans with self times precomputed."""

    def __init__(self, dump: dict):
        argv = dump["argv"]
        self.role = argv[1] if len(argv) > 1 and argv[0] == "serve" else "?"
        self.fallbacks = int(dump.get("fallbacks", 0))
        self.spans = dump["spans"]
        child_time = defaultdict(float)
        for layer, __, __, start, end, parent, __, __ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_ms = [
            (span[4] - span[3] - child_time[i]) * 1000.0
            for i, span in enumerate(self.spans)
        ]

    def select(self, layer: str, start: float, end: float, methods=None) -> List[int]:
        """Indices of ``layer`` spans lying inside ``[start, end]``."""
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == layer and s[3] >= start and s[4] <= end
            and (methods is None or s[1] in methods)
        ]

    def ms(self, i: int) -> float:
        return (self.spans[i][4] - self.spans[i][3]) * 1000.0


def load_processes(paths: Iterable[Path]) -> List[Process]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(Process(json.load(fh)))
    return out


def _scatter_phases(proc: Process, indices: List[int]) -> Dict[str, List[float]]:
    """Coordinator dispatch spans by scatter phase: the first fan-out under
    a ``ShardedFleet`` call is the estimate phase, the second the dispatch
    phase.  Fan-outs with no shard calls are skipped."""
    by_parent = defaultdict(list)
    for i in indices:
        by_parent[proc.spans[i][5]].append(i)
    phases: Dict[str, List[float]] = defaultdict(list)
    for children in by_parent.values():
        children.sort(key=lambda i: proc.spans[i][3])
        for order, i in enumerate(children):
            if proc.spans[i][7]:
                phases["estimate" if order == 0 else "dispatch"].append(proc.ms(i))
    return phases


def compute(
    window,
    processes: List[Process],
    before: List[Dict[str, float]],
    after: List[Dict[str, float]],
    threads_peak: int,
    setup_end: float,
    untraced_p50: float,
) -> tuple:
    """Returns ``(metrics, ledger_rows, shard_rows, traced_p50)``: metrics
    map name to ``(value, unit)``; ledger rows are ``(layer, mean self ms)``
    over the reads between the 40th and 60th latency percentile."""
    t0, t1 = window.start, window.end
    reads = window.reads
    n_reads = max(1, len(reads))
    ok = [s for s in reads if s.status == 200]
    front = [p for p in processes if p.role in FRONT_ROLES]
    shards = [p for p in processes if p.role == "shard"]
    coordinators = [p for p in processes if p.role == "coordinator"]
    others = [p for p in processes if p.role != "coordinator"]

    def durations(procs, layer, methods=None):
        return [p.ms(i) for p in procs for i in p.select(layer, t0, t1, methods)]

    # Per-request ledger in the front process.
    e2e = {s.rid: s.ms for s in ok}
    ledgers: Dict[int, Dict[str, float]] = {}
    for proc in front:
        for i, span in enumerate(proc.spans):
            rid = span[2]
            if rid is None or rid not in e2e or span[0] == POOL_MARK:
                continue
            ledger = ledgers.setdefault(rid, defaultdict(float))
            layer = span[0]
            if layer == "serving.handle":
                ledger["serving.frontdoor"] += e2e[rid] - proc.ms(i)
                layer = "serving.gateway"
            elif layer == "metasearch.dispatch" and proc.role == "coordinator":
                layer = "serving.coordinator.scatter"
            ledger[layer] += proc.self_ms[i]
    traced = sorted(ledgers, key=lambda rid: e2e[rid])
    unattributed = {
        rid: e2e[rid] - sum(ledgers[rid].values()) for rid in traced
    }
    band = traced[int(len(traced) * 0.4): int(len(traced) * 0.6) + 1]
    layers = sorted({name for rid in band for name in ledgers[rid]})
    ledger_rows = [
        (name, mean(ledgers[rid].get(name, 0.0) for rid in band)) for name in layers
    ]
    ledger_rows.append(("trace.unattributed", mean(unattributed[rid] for rid in band)))
    traced_p50 = p50(s.ms for s in ok)

    # Shard-side distributions and the RPC gap per scatter phase.
    scatter: Dict[str, List[float]] = defaultdict(list)
    for proc in coordinators:
        for phase, values in _scatter_phases(
            proc, proc.select("metasearch.dispatch", t0, t1)
        ).items():
            scatter[phase].extend(values)
    shard_handle: Dict[str, List[float]] = defaultdict(list)
    for proc in shards:
        for i in proc.select("serving.handle", t0, t1):
            path = proc.spans[i][7][1]
            if path in ("/estimate", "/dispatch"):
                shard_handle[path.strip("/")].append(proc.ms(i))
    rpc_gap = sum(
        p50(scatter[phase]) - p50(shard_handle[phase])
        for phase in scatter if shard_handle.get(phase)
    )
    shard_rows = []
    for layer in ("serving.handle", "metasearch.broker", "core.grid",
                  "metasearch.dispatch", "engine.search", "fleet.apply"):
        selfs = [p.self_ms[i] for p in shards for i in p.select(layer, t0, t1)]
        if selfs:
            shard_rows.append((layer, p50(selfs), len(selfs)))

    residuals = [ledgers[rid]["serving.frontdoor"] for rid in traced]
    writes_ok = [w for w in window.writes if w.ok]
    n_writes = max(1, len(window.writes))
    hits = metric_delta(before, after, "repro_cache_hits_total")
    misses = metric_delta(before, after, "repro_cache_misses_total")
    poly_hits = metric_delta(before, after, "repro_estimator_polycache_hits_total")
    poly_misses = metric_delta(before, after, "repro_estimator_polycache_misses_total")
    wait_sum = metric_delta(before, after, "repro_serving_admission_wait_seconds_sum")
    wait_n = metric_delta(before, after, "repro_serving_admission_wait_seconds_count")
    rows = []
    for s in ok:
        payload = json.loads(s.data)
        rows.append(len(payload.get("estimates", [])))

    metrics = {
        "serving.frontdoor_residual_ms.p50": (p50(residuals), "ms"),
        "serving.frontdoor_residual_ms.p95": (pct(residuals, 95), "ms"),
        "serving.gateway.self_ms.p50": (
            p50(p.self_ms[i] for p in front
                for i in p.select("serving.handle", t0, t1) if p.spans[i][2] is not None),
            "ms"),
        "serving.admission.wait_ms.mean": (
            wait_sum / wait_n * 1000.0 if wait_n else 0.0, "ms"),
        "serving.threads_peak": (threads_peak, "count"),
        "metasearch.broker.estimate_ms.p50": (
            p50(durations(processes, "metasearch.broker",
                          ("estimate_all", "estimate_batch"))), "ms"),
        "metasearch.cache.hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "metasearch.polycache.hit_frac": (
            poly_hits / (poly_hits + poly_misses) if poly_hits + poly_misses else 0.0,
            "ratio"),
        "metasearch.cache.evicted_per_write": (
            metric_delta(before, after, "repro_fleet_delta_cache_evicted_total")
            / n_writes if window.writes else 0.0, "count"),
        "metasearch.cache.retained_per_write": (
            metric_delta(before, after, "repro_fleet_delta_cache_retained_total")
            / n_writes if window.writes else 0.0, "count"),
        "core.expand_ms.per_request": (
            sum(durations(processes, "core.expand")) / n_reads, "ms"),
        "core.grid_ms.p50": (p50(durations(processes, "core.grid")), "ms"),
        "core.fallbacks": (sum(p.fallbacks for p in processes), "count"),
        "core.engine_rows_per_request": (mean(rows), "count"),
        "metasearch.dispatch_ms.p50": (
            p50(durations(others, "metasearch.dispatch")), "ms"),
        "metasearch.dispatch.pools_per_request": (
            len(durations(processes, POOL_MARK)) / n_reads, "count"),
        "metasearch.dispatch.retries": (
            metric_delta(before, after, "repro_dispatch_retries_total"), "count"),
        "metasearch.dispatch.failures": (
            metric_delta(before, after, "repro_dispatch_errors_total")
            + metric_delta(before, after, "repro_dispatch_timeouts_total"), "count"),
        "serving.coordinator.scatter_ms.p50": (
            p50(v for values in scatter.values() for v in values), "ms"),
        "serving.shard_worker.handle_ms.p50": (
            p50(v for values in shard_handle.values() for v in values), "ms"),
        "serving.coordinator.rpc_gap_ms.p50": (rpc_gap, "ms"),
        "serving.coordinator.rpcs_per_request": (
            metric_delta(before, after, "repro_coordinator_scatter_rpcs_total") / n_reads,
            "count"),
        "engine.search_ms.p50": (p50(durations(processes, "engine.search")), "ms"),
        "engine.calls_per_request": (
            len(durations(processes, "engine.search")) / n_reads, "count"),
        "metasearch.merge_ms.p50": (p50(durations(processes, "metasearch.merge")), "ms"),
        "serving.wire.request_bytes.mean": (mean(s.sent for s in reads), "bytes"),
        "serving.wire.response_bytes.mean": (mean(len(s.data) for s in ok), "bytes"),
        "fleet.mutate_ms.p50": (p50(durations(processes, "fleet.mutate")), "ms"),
        "fleet.delta_bytes.mean": (mean(w.delta_bytes for w in writes_ok), "bytes"),
        "fleet.apply_ms.p50": (p50(durations(processes, "fleet.apply")), "ms"),
        "representatives.build_ms.sum": (
            sum(p.ms(i) for p in processes
                for i in p.select("representatives.build", 0.0, setup_end)), "ms"),
        "trace.unattributed_ms.p50": (p50(unattributed.values()), "ms"),
        "trace.overhead_frac": (
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0, "ratio"),
        "write_p50_ms": (p50(w.ms for w in writes_ok), "ms"),
    }
    return metrics, ledger_rows, shard_rows, traced_p50
