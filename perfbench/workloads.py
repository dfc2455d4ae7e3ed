"""The three workloads: inputs, topology, load and the output oracle.

Each workload generates its inputs from the seed, launches its topology
of real ``repro serve`` processes, drives a timed closed-loop window
through :class:`~loadgen.ClientPool` and afterwards checks every stored
response against an in-process :class:`MetasearchBroker` built from the
same collection files.
"""

from __future__ import annotations

import http.client
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

import inputs
from loadgen import ClientPool, Sample
from procs import Topology, TopologyError

from repro.corpus import load_collection
from repro.corpus.document import Document
from repro.corpus.synth.zipf import ZipfDistribution
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch import MetasearchBroker
from repro.serving import RemoteEngine, RemoteServingError, ShardedFleet
from repro.serving.wire import estimate_from_wire, query_to_wire, response_from_wire

#: Negative control: one read is checked against the oracle's answer at
#: its threshold shifted by this much.
PERTURB_SHIFT = 0.05

#: A window stays open past its deadline until this many reads have
#: succeeded, so a slow program still leaves enough samples for p95.
MIN_READS = 200

#: Zipf exponent of query popularity over a workload's pool.  An
#: assumption, not a figure from a published query log: it keeps
#: ``live_churn``'s estimate-cache hit rate between the other two
#: workloads' (see SPEC.md).
ZIPF_EXPONENT = 0.5


@dataclass
class Write:
    """One live-fleet write: ``POST /mutate`` → delta fetch → shard apply."""

    round: int
    start: float
    end: float
    ok: bool
    delta_bytes: int = 0
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class Window:
    """What one timed window sent and received."""

    start: float
    end: float
    reads: List[Sample]
    writes: List[Write] = field(default_factory=list)
    round_of: Dict[int, int] = field(default_factory=dict)  # rid -> round


def post_json(url: str, path: str, payload: dict, timeout: float = 60.0) -> dict:
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise TopologyError(
                f"{url}{path} answered {response.status}: {data[:200]!r}"
            )
        return json.loads(data)
    finally:
        conn.close()


def _decode(sample: Sample) -> Optional[dict]:
    if sample.status != 200:
        return None
    try:
        return json.loads(sample.data)
    except ValueError:
        return None


def read_failed(sample: Sample) -> bool:
    """Non-200, undecodable, or a degraded answer (engine failures)."""
    payload = _decode(sample)
    if payload is None:
        return True
    return bool(payload.get("failures"))


class Perturbation:
    """Negative control for the checks: swaps the oracle's answer for the
    first read whose answer at ``threshold + PERTURB_SHIFT`` differs, so
    exactly one expected answer is wrong and the checks must catch it."""

    def __init__(self, enabled: bool):
        self.pending = enabled

    def __call__(self, want, shifted: Callable[[], object], key=lambda a: a):
        if self.pending:
            alternative = shifted()
            if key(alternative) != key(want):
                self.pending = False
                return alternative
        return want


def _succeeded(reads: List[Sample]) -> int:
    return sum(1 for s in reads if not read_failed(s))


def _register_files(broker: MetasearchBroker, paths) -> None:
    for path in paths:
        broker.register(SearchEngine(load_collection(path)))


#: The fields of a /search answer; ``latencies`` also takes part in
#: ``MetasearchResponse`` equality but differs on every call.
ANSWER_FIELDS = ("hits", "invoked", "estimates", "failures")


def _answer(response) -> tuple:
    return tuple(getattr(response, name) for name in ANSWER_FIELDS)


class Workload:
    """Shared shape; subclasses fill in the topology and the oracle."""

    name = ""
    route = "/estimate"
    warm_requests = 10

    def prepare(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def launch(self, topo: Topology) -> None:
        raise NotImplementedError

    def front_url(self, topo: Topology) -> str:
        return topo.servers[-1].url

    def server_urls(self, topo: Topology) -> List[str]:
        urls = []
        for server in topo.servers:
            urls.append(server.url)
            urls.extend(server.shard_urls.values())
        return urls

    def shard_urls(self, topo: Topology) -> List[str]:
        return []

    def warm(self, topo: Topology, pool: ClientPool) -> None:
        pool.run(self.route, iter(self.warm_items()))

    def warm_items(self) -> List[Tuple[int, bytes]]:
        raise NotImplementedError

    def window(self, topo: Topology, pool: ClientPool, seconds: float) -> Window:
        raise NotImplementedError

    def _timed(self, pool: ClientPool, items, seconds: float) -> Window:
        """Send ``items`` for ``seconds``, then on until :data:`MIN_READS`
        reads have succeeded; stops early if the items run out or a batch
        of extra reads brings no success."""
        start = time.perf_counter()
        reads = pool.run(self.route, items, deadline=start + seconds)
        missing = MIN_READS - _succeeded(reads)
        while missing > 0:
            more = pool.run(self.route, itertools.islice(items, missing))
            reads.extend(more)
            if not _succeeded(more):
                break
            missing -= _succeeded(more)
        return Window(start, time.perf_counter(), reads)

    def verify(self, window: Window, perturb: bool = False) -> List[str]:
        raise NotImplementedError

    def _warm_shard_caches(self, topo: Topology) -> None:
        """Fill every shard's estimate cache with the whole read pool in
        one batch ``POST /estimate`` per shard."""
        queries = [query_to_wire(q) for q, __ in self.requests]
        thresholds = [t for __, t in self.requests]
        for url in self.shard_urls(topo):
            post_json(url, "/estimate", {"queries": queries, "thresholds": thresholds})


class GatewayEstimateWide(Workload):
    """64 engines behind one gateway; every read is a new query."""

    name = "gateway_estimate_wide"
    warm_requests = 20
    n_engines = 64
    docs = 30
    #: Distinct queries generated; a window ends early if it exhausts them.
    pool = 6000

    def prepare(self, seed: int, work: Path) -> None:
        self.model = inputs.fleet_model(seed, self.n_engines, self.docs)
        self.paths = inputs.write_fleet(self.model, work / "fleet")
        queries = inputs.distinct_queries(self.model, seed, self.pool)
        self.requests = inputs.pairs(queries)
        self.bodies = [inputs.body(q, t) for q, t in self.requests]

    def launch(self, topo: Topology) -> None:
        server = topo.start(
            "gateway", ["serve", "gateway", "--collections", *map(str, self.paths)]
        )
        topo.wait_ready(server)
        topo.ready()

    def warm_items(self):
        return [(i, self.bodies[i]) for i in range(self.warm_requests)]

    def window(self, topo, pool, seconds):
        items = ((i, self.bodies[i]) for i in range(self.warm_requests, len(self.bodies)))
        return self._timed(pool, items, seconds)

    def verify(self, window, perturb=False):
        oracle = MetasearchBroker(columnar=True)
        _register_files(oracle, self.paths)
        checked = [s for s in window.reads if not read_failed(s)]
        pairs = [self.requests[s.key] for s in checked]
        expected = oracle.estimate_batch(
            [q for q, __ in pairs], [t for __, t in pairs]
        ) if checked else []
        perturbation = Perturbation(perturb)
        mismatches = []
        for sample, (query, threshold), row in zip(checked, pairs, expected):
            row = perturbation(
                row, lambda: oracle.estimate_all(query, threshold + PERTURB_SHIFT)
            )
            got = [estimate_from_wire(e) for e in _decode(sample)["estimates"]]
            if got != row:
                mismatches.append(f"/estimate request {sample.key}: row differs")
        return mismatches


class CoordinatorSearchZipf(Workload):
    """8 engines on 2 spawned shards; Zipf-repeated ``/search`` reads."""

    name = "coordinator_search_zipf"
    route = "/search"
    n_engines = 8
    docs = 60
    #: (query, threshold) pairs; x 4 engines per shard stays under the
    #: shards' default 1024-entry estimate cache.
    pool = 200
    draws = 20000

    def prepare(self, seed: int, work: Path) -> None:
        self.model = inputs.fleet_model(seed, self.n_engines, self.docs)
        self.paths = inputs.write_fleet(self.model, work / "fleet")
        self.requests = inputs.pairs(inputs.distinct_queries(self.model, seed, self.pool))
        self.bodies = [inputs.body(q, t) for q, t in self.requests]
        self.sequence = ZipfDistribution(self.pool, ZIPF_EXPONENT, shift=0.0).sample(
            np.random.default_rng([seed, 23]), self.draws
        ).tolist()

    def launch(self, topo: Topology) -> None:
        server = topo.start(
            "coordinator",
            ["serve", "coordinator", "--shards", "2",
             "--collections", *map(str, self.paths)],
        )
        topo.wait_ready(server)
        if len(server.shard_urls) != 2:
            raise TopologyError("coordinator did not report two shard URLs")
        topo.ready()

    def shard_urls(self, topo):
        return list(topo.servers[-1].shard_urls.values())

    def warm(self, topo, pool):
        self._warm_shard_caches(topo)
        super().warm(topo, pool)

    def warm_items(self):
        return [(k, self.bodies[k]) for k in self.sequence[: self.warm_requests]]

    def window(self, topo, pool, seconds):
        items = (
            (k, self.bodies[k]) for k in self.sequence[self.warm_requests:]
        )
        return self._timed(pool, items, seconds)

    def verify(self, window, perturb=False):
        oracle = MetasearchBroker()
        _register_files(oracle, self.paths)
        memo: Dict[int, object] = {}
        perturbation = Perturbation(perturb)
        mismatches = []
        for sample in window.reads:
            if read_failed(sample):
                continue
            query, threshold = self.requests[sample.key]
            if sample.key not in memo:
                memo[sample.key] = oracle.search(query, threshold)
            want = perturbation(
                memo[sample.key],
                lambda: oracle.search(query, threshold + PERTURB_SHIFT),
                key=_answer,
            )
            got = response_from_wire(_decode(sample))
            for name, a, b in zip(ANSWER_FIELDS, _answer(got), _answer(want)):
                if a != b:
                    mismatches.append(f"/search request {sample.key}: {name} differs")
            if query.n_terms == 1 and sorted(got.invoked) != oracle.true_selection(
                query, threshold
            ):
                mismatches.append(
                    f"/search request {sample.key}: single-term selection is "
                    f"not the true selection"
                )
        return mismatches


class LiveChurn(Workload):
    """2 shards + coordinator over 8 engines, 2 of them also served live;
    rounds of one write followed by a fixed number of Zipf reads."""

    name = "live_churn"
    n_engines = 8
    docs = 60
    pool = 200
    live_groups = (0, 1)
    reads_per_round = 8
    max_rounds = 1500

    def prepare(self, seed: int, work: Path) -> None:
        self.model = inputs.fleet_model(seed, self.n_engines, self.docs)
        self.paths = inputs.write_fleet(self.model, work / "fleet")
        self.requests = inputs.pairs(inputs.distinct_queries(self.model, seed, self.pool))
        self.bodies = [inputs.body(q, t) for q, t in self.requests]
        self.sequence = ZipfDistribution(self.pool, ZIPF_EXPONENT, shift=0.0).sample(
            np.random.default_rng([seed, 23]),
            self.warm_requests + self.max_rounds * self.reads_per_round,
        ).tolist()
        self.writes = self._plan_writes(seed)

    def _live_documents(self, group: int) -> Tuple[str, List[Document]]:
        collection = load_collection(self.paths[group])
        return collection.name, [
            Document(doc_id=collection.doc_id(i), terms=collection.terms_of(i))
            for i in range(len(collection))
        ]

    def _plan_writes(self, seed: int) -> List[Tuple[int, dict]]:
        """Round ``r`` writes to live engine ``r % 2``: add one generated
        document or remove one existing document, chosen from the seed."""
        rng = np.random.default_rng([seed, 31])
        ids = {}
        floor = {}
        for index, group in enumerate(self.live_groups):
            __, documents = self._live_documents(group)
            ids[index] = [d.doc_id for d in documents]
            floor[index] = len(documents) - 10
        plan = []
        for r in range(self.max_rounds):
            index = r % len(self.live_groups)
            if rng.random() < 0.5 and len(ids[index]) > floor[index]:
                doc_id = ids[index].pop(int(rng.integers(len(ids[index]))))
                plan.append((index, {"remove": [doc_id]}))
            else:
                doc = inputs.churn_document(
                    self.model, rng, self.live_groups[index], f"w{r:05d}"
                )
                ids[index].append(doc.doc_id)
                plan.append((index, {"add": [{"doc_id": doc.doc_id, "terms": doc.terms}]}))
        return plan

    def launch(self, topo: Topology) -> None:
        lives = [
            topo.start(f"live{i}", ["serve", "engine", "--live",
                                    "--collection", str(self.paths[g])])
            for i, g in enumerate(self.live_groups)
        ]
        shards = [
            topo.start(f"shard{i}", ["serve", "shard", "--shard-index", str(i),
                                     "--collections", *map(str, self.paths[i::2])])
            for i in range(2)
        ]
        for server in lives + shards:
            topo.wait_ready(server)
        coordinator = topo.start(
            "coordinator",
            ["serve", "coordinator", "--shard-urls", *[s.url for s in shards]],
        )
        topo.wait_ready(coordinator)
        topo.ready()

    def shard_urls(self, topo):
        return [s.url for s in topo.servers if s.name.startswith("shard")]

    def warm(self, topo, pool):
        self._warm_shard_caches(topo)
        super().warm(topo, pool)

    def warm_items(self):
        return [(k, self.bodies[k]) for k in self.sequence[: self.warm_requests]]

    def window(self, topo, pool, seconds):
        lives = [s for s in topo.servers if s.name.startswith("live")]
        remotes = [RemoteEngine(s.url) for s in lives]
        mutate = [ClientPool(s.url, 0, n=1) for s in lives]
        fleet = ShardedFleet(self.shard_urls(topo)).attach()
        versions = [0] * len(lives)
        window = Window(time.perf_counter(), 0.0, [])
        deadline = window.start + seconds
        succeeded = 0
        try:
            for r, (index, payload) in enumerate(self.writes):
                if time.perf_counter() >= deadline and succeeded >= MIN_READS:
                    break
                write = self._write(r, index, payload, mutate[index],
                                    remotes[index], fleet, versions)
                window.writes.append(write)
                if not write.ok:
                    break  # later reads would no longer match any oracle state
                first = self.warm_requests + r * self.reads_per_round
                keys = self.sequence[first: first + self.reads_per_round]
                reads = pool.run(self.route, ((k, self.bodies[k]) for k in keys))
                for sample in reads:
                    window.round_of[sample.rid] = r
                window.reads.extend(reads)
                succeeded += _succeeded(reads)
        finally:
            window.end = time.perf_counter()
            fleet.close()
            for client in mutate:
                client.close()
            for remote in remotes:
                remote.close()
        return window

    @staticmethod
    def _write(r, index, payload, mutate, remote, fleet, versions) -> Write:
        body = json.dumps(payload).encode()
        start = time.perf_counter()
        try:
            (sample,) = mutate.run("/mutate", iter([(r, body)]))
            if sample.status != 200:
                raise RemoteServingError(f"/mutate answered {sample.status}")
            delta = remote.sync_representative(since=versions[index])
            if not isinstance(delta, RepresentativeDelta):
                raise RemoteServingError("live engine answered a snapshot, not a delta")
            answer = fleet.apply_delta(delta)
            if answer.get("to_version") != delta.to_version:
                raise RemoteServingError(f"shard applied {answer!r}")
        except (OSError, RemoteServingError, KeyError, ValueError) as exc:
            return Write(r, start, time.perf_counter(), False, error=repr(exc))
        versions[index] = delta.to_version
        return Write(r, start, time.perf_counter(), True, delta.nbytes)

    def verify(self, window, perturb=False):
        oracle = MetasearchBroker()
        mirrors = []
        for position, path in enumerate(self.paths):
            if position in self.live_groups:
                name, documents = self._live_documents(position)
                mirror = LiveEngineServer(name, documents)
                oracle.register(mirror, representative=mirror.snapshot().representative)
                mirrors.append(mirror)
            else:
                oracle.register(SearchEngine(load_collection(path)))
        by_round: Dict[int, List[Sample]] = {}
        for sample in window.reads:
            by_round.setdefault(window.round_of[sample.rid], []).append(sample)
        perturbation = Perturbation(perturb)
        mismatches = []
        for write in window.writes:
            if not write.ok:
                break
            index, payload = self.writes[write.round]
            mirror = mirrors[index]
            if "remove" in payload:
                mirror.remove_documents(payload["remove"])
            else:
                mirror.add_documents(
                    Document(doc_id=d["doc_id"], terms=d["terms"]) for d in payload["add"]
                )
            oracle.register(mirror, representative=mirror.snapshot().representative)
            for sample in by_round.get(write.round, []):
                if read_failed(sample):
                    continue
                query, threshold = self.requests[sample.key]
                want = perturbation(
                    oracle.estimate_all(query, threshold),
                    lambda: oracle.estimate_all(query, threshold + PERTURB_SHIFT),
                )
                got = [estimate_from_wire(e) for e in _decode(sample)["estimates"]]
                if got != want:
                    mismatches.append(
                        f"round {write.round} /estimate request {sample.key}: row differs"
                    )
        return mismatches


WORKLOADS = {
    w.name: w
    for w in (GatewayEstimateWide, CoordinatorSearchZipf, LiveChurn)
}
