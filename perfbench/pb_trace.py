"""In-memory spans around the public calls of each layer.

Tracing lives in the benchmark, not in ``src/``: a traced run replaces a
layer's public function with a wrapper that records one span per call
and restores the original afterwards. A span holds its name, start and
end (``time.perf_counter`` seconds), the index of the enclosing span on
the same thread (its parent), the id of the request it served, and a few
attributes. Spans stay in memory and are written out when the run ends.

A function is patched in every loaded :mod:`repro` module that binds it
by name (``ttcam`` imports ``normalize_rows`` at import time, so
patching ``core.em`` alone would miss its calls), and methods are
patched on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

#: (name, start, end, parent, request_id, attrs)
Span = tuple[str, float, float, int, Any, dict[str, Any]]


class Tracer:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- request ids -----------------------------------------------------
    def set_request(self, request_id: Any) -> None:
        """Spans opened on this thread from now on belong to ``request_id``."""
        self._local.request = request_id

    def request(self) -> Any:
        return getattr(self._local, "request", None)

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, request_id: Any = None, **attrs: Any) -> int:
        """Record a finished span; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rid = self.request() if request_id is None else request_id
        with self._lock:
            self.spans.append((name, start, end, parent, rid, attrs))
            return len(self.spans) - 1

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        attrs: Callable[[tuple, dict, Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with one span recorded per call (nested calls get parents)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request(), {}))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            _, _, _, parent, rid, _ = tracer.spans[index]
            tracer.spans[index] = (name, start, end, parent, rid, extra)
            return result

        return traced

    # -- output ----------------------------------------------------------
    def dump(self, path: Path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: list[Span], path: Path) -> None:
    """Write every span as one JSON line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for name, start, end, parent, rid, attrs in spans:
            handle.write(json.dumps([name, start, end, parent, rid, attrs], default=str) + "\n")


def load_spans(paths: Iterable[Path]) -> list[Span]:
    spans: list[Span] = []
    for path in paths:
        with open(path) as handle:
            for line in handle:
                name, start, end, parent, rid, attrs = json.loads(line)
                spans.append((name, start, end, parent, rid, attrs))
    return spans


class Patches:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, tracer: Tracer, cls: type, name: str, span: str, attrs=None) -> None:
        raw = cls.__dict__[name]
        self._undo.append((cls, name, raw))
        if isinstance(raw, classmethod):
            inner = tracer.wrap(raw.__func__, span, attrs)
            setattr(cls, name, classmethod(inner))
        else:
            setattr(cls, name, tracer.wrap(raw, span, attrs))

    def function(self, tracer: Tracer, fn: Callable[..., Any], span: str, attrs=None) -> None:
        """Patch ``fn`` in every loaded ``repro`` module that binds it."""
        traced = tracer.wrap(fn, span, attrs)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} is bound in no loaded module")

    def value(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# layer sets
# ---------------------------------------------------------------------------


def patch_em(tracer: Tracer, patches: Patches) -> None:
    """``core.em`` / ``core.engine`` / ``robustness`` / ``data`` calls of a fit.

    ``em.iter`` spans are the gaps between successive ``EMTrace.record``
    calls, the first one starting when ``TTCAM.fit`` is entered.
    """
    from repro.core import em, engine, ttcam
    from repro.data.cuboid import RatingCuboid
    from repro.robustness.checkpoint import CheckpointManager
    from repro.robustness.health import HealthMonitor

    clock = {"last": None}
    original_record = em.EMTrace.__dict__["record"]
    original_fit = ttcam.TTCAM.__dict__["fit"]

    def record(self: Any, value: float, tol: float) -> bool:
        now = time.perf_counter()
        if clock["last"] is not None:
            tracer.add("em.iter", clock["last"], now)
        clock["last"] = now
        return original_record(self, value, tol)

    def fit(self: Any, *args: Any, **kwargs: Any) -> Any:
        clock["last"] = time.perf_counter()
        return original_fit(self, *args, **kwargs)

    patches.value(em.EMTrace, "record", record)
    patches.value(ttcam.TTCAM, "fit", fit)
    patches.method(tracer, engine.BlockedEStep, "compute", "em.estep")
    patches.function(tracer, em.scatter_sum, "em.scatter")
    patches.function(tracer, em.scatter_sum_1d, "em.scatter")
    patches.function(tracer, em.normalize_rows, "em.mstep")
    patches.method(tracer, HealthMonitor, "check", "robustness.health")
    patches.method(tracer, CheckpointManager, "save", "robustness.checkpoint")
    patches.method(tracer, RatingCuboid, "from_arrays", "data.cuboid")


def patch_serving(tracer: Tracer, patches: Patches) -> None:
    """``recommend`` layers: batch entry, interval groups, selection, rescore."""
    from repro.recommend import serving
    from repro.recommend.recommender import TemporalRecommender

    patches.method(
        tracer,
        TemporalRecommender,
        "recommend_batch_with_status",
        "recommender.batch",
        lambda args, kwargs, result: {"queries": len(result[0])},
    )
    patches.method(
        tracer,
        serving.BatchScorer,
        "serve_group",
        "serving.group",
        lambda args, kwargs, result: {"rows": len(result)},
    )
    patches.function(tracer, serving.select_candidates, "serving.select")
    patches.function(tracer, serving.select_candidates_margin, "serving.select")
    patches.function(
        tracer,
        serving.exact_rescore,
        "serving.rescore",
        lambda args, kwargs, result: {"candidates": int(np.asarray(args[2]).size), "k": int(args[3])},
    )


def patch_stream(tracer: Tracer, patches: Patches) -> None:
    """``streaming`` layers: WAL, fold-in, drift, consumer checkpoint, publish."""
    from repro.extensions.online import OnlineTTCAM
    from repro.streaming import DriftTracker, EventLog, SnapshotPublisher, StreamIngestor

    patches.method(tracer, EventLog, "append", "wal.append")
    patches.method(tracer, EventLog, "read", "wal.read", lambda a, k, r: {"events": len(r)})
    patches.method(tracer, OnlineTTCAM, "fold_in_interval", "ingest.fold")
    patches.method(tracer, DriftTracker, "update", "ingest.drift", lambda a, k, r: {"boundary": bool(r.boundary)})
    patches.method(tracer, StreamIngestor, "checkpoint", "ingest.checkpoint")
    patches.method(tracer, SnapshotPublisher, "publish", "publish")


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


class SpanTable:
    """Queries over a list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span[0], []).append(span)

    def ms(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) * 1e3 for s in self.by_name.get(name, ())])

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def attr(self, name: str, key: str) -> np.ndarray:
        return np.array([s[5][key] for s in self.by_name.get(name, ()) if key in s[5]], dtype=np.float64)


def stat(values: np.ndarray, how: str = "p50") -> float:
    """A summary of a sample that reads 0 when the layer did no work."""
    if values.size == 0:
        return 0.0
    if how == "p50":
        return float(np.percentile(values, 50))
    if how == "p99":
        return float(np.percentile(values, 99))
    if how == "max":
        return float(values.max())
    if how == "mean":
        return float(values.mean())
    if how == "sum":
        return float(values.sum())
    raise ValueError(how)


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def serving_layers(table: SpanTable) -> dict[str, tuple[float, str]]:
    """``recommend`` layers: batch entry, interval groups, selection, rescore."""
    batches = table.count("recommender.batch")
    rows = table.attr("serving.group", "rows")
    candidates = table.attr("serving.rescore", "candidates")
    ks = table.attr("serving.rescore", "k")
    return {
        "recommender.batch_ms": (stat(table.ms("recommender.batch")), "ms"),
        "serving.group_ms": (stat(table.ms("serving.group")), "ms"),
        "serving.groups": (ratio(table.count("serving.group"), batches), "count"),
        "serving.rows_per_group": (stat(rows, "mean"), "count"),
        "serving.select_ms": (stat(table.ms("serving.select")), "ms"),
        "serving.rescore_ms": (stat(table.ms("serving.rescore")), "ms"),
        "serving.candidates_per_k": (ratio(candidates.sum(), ks.sum()), "ratio"),
    }
