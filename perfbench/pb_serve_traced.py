"""``tcam serve`` with the benchmark's span wrappers installed.

Run exactly like ``python -m repro.cli serve …`` (it parses the same
arguments through :func:`repro.cli.main`, so every default is the
CLI's). Before serving it wraps the front-end's public calls — wire
parse and encode, micro-batch admission and flush, and the flush
triggers — and replaces the worker entry point with one that installs
the serving-layer wrappers inside each spawned worker before running
the real :func:`repro.serving_service.worker.worker_main`. Every
process writes its spans to ``$PERFBENCH_SPANS`` when it exits.
"""

from __future__ import annotations

import contextvars
import os
import sys
import time
from pathlib import Path
from typing import Any

from pb_trace import Patches, Tracer, patch_serving

_REQUEST: contextvars.ContextVar[Any] = contextvars.ContextVar("request", default=None)


def _spans_dir() -> Path:
    return Path(os.environ["PERFBENCH_SPANS"])


def install_frontend(tracer: Tracer, patches: Patches) -> dict[str, int]:
    """Wrap the front-end layers; returns the live flush counters."""
    from repro.serving_service import batching, service

    counts = {"size": 0, "all": 0}
    admitted: dict[Any, tuple[Any, float]] = {}
    sequence: dict[int, int] = {}
    decode, encode = service.decode_line, service.encode_line
    dispatch = service.ServingService.__dict__["_dispatch"]
    flush_batch = service.ServingService.__dict__["_flush"]
    add = batching.BatchAccumulator.__dict__["add"]
    flush = batching.BatchAccumulator.__dict__["flush"]

    def decode_line(line: bytes) -> dict[str, Any]:
        start = time.perf_counter()
        message = decode(line)
        tracer.add("service.parse", start, time.perf_counter(), request_id=message.get("id"))
        return message

    def encode_line(message: dict[str, Any]) -> bytes:
        start = time.perf_counter()
        line = encode(message)
        tracer.add("service.encode", start, time.perf_counter(), request_id=message.get("id"))
        return line

    async def _dispatch(self: Any, message: Any) -> Any:
        token = _REQUEST.set(message.get("id"))
        try:
            return await dispatch(self, message)
        finally:
            _REQUEST.reset(token)

    def accumulate(self: Any, request: Any, now: float) -> Any:
        admitted[request.token] = (_REQUEST.get(), time.perf_counter())
        flushed = add(self, request, now)
        if flushed is not None:
            counts["size"] += 1
        return flushed

    def take(self: Any) -> Any:
        batch = flush(self)
        if batch:
            counts["all"] += 1
        return batch

    def _flush(self: Any, worker_index: int, batch: Any) -> None:
        now = time.perf_counter()
        seq = sequence.get(worker_index, 0)
        sequence[worker_index] = seq + 1
        for request in batch:
            rid, since = admitted.pop(request.token, (None, now))
            tracer.add("service.queue_wait", since, now, request_id=rid, worker=worker_index, seq=seq)
        return flush_batch(self, worker_index, batch)

    patches.value(service, "decode_line", decode_line)
    patches.value(service, "encode_line", encode_line)
    patches.value(service.ServingService, "_dispatch", _dispatch)
    patches.value(service.ServingService, "_flush", _flush)
    patches.value(batching.BatchAccumulator, "add", accumulate)
    patches.value(batching.BatchAccumulator, "flush", take)
    patches.value(service, "worker_main", traced_worker_main)
    return counts


def traced_worker_main(config: Any, conn: Any) -> None:
    """A spawned worker with the serving-layer wrappers installed."""
    from repro.serving_service import worker

    tracer, patches = Tracer(), Patches()
    patch_serving(tracer, patches)
    serve = worker.serve_requests
    state = {"seq": 0, "cache": {}}

    def serve_requests(recommender: Any, requests: Any, dtype: str) -> Any:
        seq = state["seq"]
        state["seq"] = seq + 1
        tracer.set_request(("batch", config.index, seq))
        start = time.perf_counter()
        try:
            return serve(recommender, requests, dtype)
        finally:
            end = time.perf_counter()
            tracer.add("worker.serve", start, end, worker=config.index, seq=seq,
                       queries=sum(len(r["queries"]) for r in requests))
            tracer.set_request(None)
            # Caches are per generation; keep each generation's last counters.
            state["cache"][recommender.generation] = recommender.serving_cache.stats()

    patches.value(worker, "serve_requests", serve_requests)
    try:
        worker.worker_main(config, conn)
    finally:
        for stats in state["cache"].values():
            now = time.perf_counter()
            tracer.add("worker.cache", now, now, hits=stats.hits, misses=stats.misses)
        patches.restore()
        tracer.dump(_spans_dir() / f"worker-{config.index}-{os.getpid()}.jsonl")


def main(argv: list[str]) -> int:
    from repro import cli

    tracer, patches = Tracer(), Patches()
    counts = install_frontend(tracer, patches)
    try:
        return cli.main(["serve", *argv])
    finally:
        now = time.perf_counter()
        tracer.add("service.flushes", now, now, **counts)
        patches.restore()
        tracer.dump(_spans_dir() / f"frontend-{os.getpid()}.jsonl")


if __name__ == "__main__":
    # Import this file under its module name so spawned workers unpickle
    # ``traced_worker_main`` from ``pb_serve_traced``, not ``__main__``.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pb_serve_traced

    raise SystemExit(pb_serve_traced.main(sys.argv[1:]))
