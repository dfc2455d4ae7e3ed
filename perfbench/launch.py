"""Traced server launcher: ``python3 launch.py SPANS_OUT <repro cli args>``.

Wraps the public entry points of each layer with span recorders, then
runs ``repro.cli.main`` with the remaining arguments.  Spans stay in
memory and are written to ``SPANS_OUT`` (JSON) after the server drains.
Shard workers that a coordinator spawns with ``python -m repro.cli`` are
started through this launcher too, each with its own spans file.

A span is ``[layer, method, request_id, start, end, parent, thread, tag]``:
``parent`` indexes the enclosing span on the same thread (``-1`` for
none), ``request_id`` is the ``X-Bench-Id`` header of the request being
served on that thread, and times come from ``time.perf_counter`` (the
system-wide monotonic clock on Linux, so spans from different processes
share one time axis).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
import time

BENCH_ID_HEADER = "X-Bench-Id"

_SPANS: list = []
_LOCAL = threading.local()
_SPANS_OUT = ""
_CHILDREN = [0]


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _record(layer: str, method: str, fn, args, kwargs, tag=None):
    stack = _stack()
    rid = getattr(_LOCAL, "rid", None)
    parent = stack[-1] if stack else -1
    span = [layer, method, rid, time.perf_counter(), 0.0, parent,
            threading.get_ident(), tag]
    _SPANS.append(span)
    index = len(_SPANS) - 1
    stack.append(index)
    try:
        return fn(*args, **kwargs)
    finally:
        span[4] = time.perf_counter()
        stack.pop()


def _wrap_method(cls, method: str, layer: str, tag=None) -> None:
    original = getattr(cls, method)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _record(
            layer, method, original, args, kwargs,
            tag(args) if tag is not None else None,
        )

    setattr(cls, method, wrapper)


def _wrap_function(original, layer: str) -> None:
    """Replace ``original`` wherever a ``repro`` module bound it by name."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _record(layer, original.__name__, original, args, kwargs)

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_handle(cls) -> None:
    original = cls.handle

    @functools.wraps(original)
    def handle(self, method, path, headers, body):
        raw = headers.get(BENCH_ID_HEADER)
        _LOCAL.rid = int(raw) if raw is not None else None
        try:
            return _record(
                "serving.handle", method, original,
                (self, method, path, headers, body), {},
                tag=[self.role, path.split("?")[0]],
            )
        finally:
            _LOCAL.rid = None

    cls.handle = handle


def _count_pools(dispatch_module) -> None:
    """Record each dispatcher thread-pool construction as a zero-length span."""
    base = dispatch_module.ThreadPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            now = time.perf_counter()
            _SPANS.append(["metasearch.dispatch.pool", "__init__",
                           getattr(_LOCAL, "rid", None), now, now, -1,
                           threading.get_ident(), None])
            super().__init__(*args, **kwargs)

    dispatch_module.ThreadPoolExecutor = CountingPool


def _route_children_through_launcher() -> None:
    """Spawned ``python -m repro.cli ...`` children run traced as well."""
    original = subprocess.Popen.__init__

    def init(self, args, *rest, **kwargs):
        if (
            isinstance(args, (list, tuple))
            and len(args) >= 3
            and list(args[1:3]) == ["-m", "repro.cli"]
        ):
            _CHILDREN[0] += 1
            out = f"{_SPANS_OUT}.child{_CHILDREN[0]}"
            args = [args[0], os.path.abspath(__file__), out, *args[3:]]
        original(self, args, *rest, **kwargs)

    subprocess.Popen.__init__ = init


def install() -> None:
    import repro.cli  # noqa: F401  (binds every module the servers use)
    from repro.core.base import ExpansionEstimator
    from repro.core.vectorized import fleet_usefulness_grid
    from repro.engine import SearchEngine
    from repro.fleet import LiveEngineServer
    from repro.metasearch import dispatch
    from repro.metasearch.broker import MetasearchBroker
    from repro.metasearch.merge import merge_hits
    from repro.representatives.builder import build_representative
    from repro.serving import ShardedFleet
    from repro.serving.http import ServingApp

    _wrap_handle(ServingApp)
    for method in ("estimate_all", "estimate_batch", "search", "search_batch"):
        _wrap_method(MetasearchBroker, method, "metasearch.broker")
        _wrap_method(ShardedFleet, method, "serving.coordinator")
    _wrap_method(MetasearchBroker, "apply_representative_delta", "fleet.apply")
    _wrap_method(dispatch.ConcurrentDispatcher, "dispatch", "metasearch.dispatch",
                 tag=lambda args: len(args[1]) if len(args) > 1 else None)
    _wrap_method(dispatch.ConcurrentDispatcher, "dispatch_many",
                 "metasearch.dispatch",
                 tag=lambda args: sum(map(len, args[1])) if len(args) > 1 else None)
    _wrap_method(ExpansionEstimator, "expand", "core.expand")
    _wrap_method(SearchEngine, "search", "engine.search")
    for method in ("add_documents", "remove_documents"):
        _wrap_method(LiveEngineServer, method, "fleet.mutate")
    _wrap_function(fleet_usefulness_grid, "core.grid")
    _wrap_function(merge_hits, "metasearch.merge")
    _wrap_function(build_representative, "representatives.build")
    _count_pools(dispatch)
    _route_children_through_launcher()


def main(argv) -> int:
    global _SPANS_OUT
    _SPANS_OUT = argv[0]
    install()
    from repro.cli import main as cli_main
    from repro.core import fallback_count

    try:
        code = cli_main(argv[1:])
    finally:
        with open(_SPANS_OUT, "w", encoding="utf-8") as fh:
            json.dump(
                {"pid": os.getpid(), "argv": argv[1:], "spans": _SPANS,
                 "fallbacks": fallback_count()},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
