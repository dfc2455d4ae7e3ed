"""Seeded inputs: synthetic fleets, query pools and churn documents.

Everything the servers receive is generated here from the workload seed
and written as collection files; the servers never see the seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from repro.corpus import save_collection
from repro.corpus.document import Document
from repro.corpus.query import Query
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.corpus.synth.wordgen import word_for_term_id
from repro.serving.wire import query_to_wire

#: Thresholds cycle through the paper's range, one step per request.
THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def fleet_model(seed: int, n_engines: int, docs: int) -> NewsgroupModel:
    """A small-vocabulary newsgroup model with ``n_engines`` groups of
    ``docs`` documents each."""
    return NewsgroupModel(
        vocab_size=4000,
        topic_size=120,
        topic_band=(50, 1500),
        mean_length=80,
        seed=seed,
        group_sizes=[docs] * n_engines,
    )


def write_fleet(model: NewsgroupModel, directory: Path) -> List[Path]:
    """Save every group of ``model`` as ``<group>.jsonl.gz``; returns paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for group in range(model.n_groups):
        collection = model.generate_group(group)
        path = directory / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        paths.append(path)
    return paths


def distinct_queries(model: NewsgroupModel, seed: int, n: int) -> List[Query]:
    """``n`` queries from the query-log model, no two with the same terms."""
    seen = set()
    out: List[Query] = []
    batch = max(64, n)
    stream = 0
    while len(out) < n:
        for query in QueryLogModel(model, seed=seed * 1000 + stream).generate(batch):
            key = tuple(sorted(query.terms))
            if key not in seen:
                seen.add(key)
                out.append(query)
                if len(out) == n:
                    break
        stream += 1
        if stream > 50:
            raise RuntimeError(f"query model yields fewer than {n} distinct queries")
    return out


def pairs(queries: Sequence[Query]) -> List[Tuple[Query, float]]:
    """Pair query ``i`` with the ``i``-th threshold of the cycle."""
    return [(q, THRESHOLDS[i % len(THRESHOLDS)]) for i, q in enumerate(queries)]


def body(query: Query, threshold: float) -> bytes:
    """The pre-encoded JSON body of a ``/estimate`` or ``/search`` request."""
    return json.dumps(
        {"query": query_to_wire(query), "threshold": float(threshold)}
    ).encode("utf-8")


def churn_document(
    model: NewsgroupModel, rng: np.random.Generator, group: int, doc_id: str
) -> Document:
    """One new document drawn from ``group``'s term distribution."""
    term_ids = model.sample_document_term_ids(rng, group)
    return Document(doc_id=doc_id, terms=[word_for_term_id(int(t)) for t in term_ids])
