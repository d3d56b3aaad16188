"""``stream`` workload: writes beside reads in one process with two threads.

The generator thread appends in-catalogue, zipf-item events to an
:class:`~repro.streaming.EventLog` (fsync on every append, the log's
default) on a Poisson schedule at a ladder of fixed rates, and sends
batches of 64 queries (uniform users and intervals) to
``recommend_batch_with_status`` at a fixed rate. The consumer thread
folds one micro-batch with ``StreamIngestor.run(max_batches=1)``,
publishes the folded parameters through :meth:`SnapshotPublisher.publish`,
and repeats. Publishing after each micro-batch, rather than once the log
reads empty, makes the publish cadence follow the ingest path's speed:
under steady input the log never reads empty, so a consumer that waited
for that would publish only when the input paused. Every publish swaps
the generation and empties the serving caches, so the batch scorer runs
cold.

The consumer reads through :class:`AckedLog`, which stops each read at
the last acknowledged append: an :class:`EventLog` has a single writer,
and only acknowledged events are safe to read beside it. The view also
records every micro-batch cut so a fresh ingestor can replay the same
micro-batches and must reach bit-identical parameters.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from pb_common import (
    Result,
    StepReport,
    WorkDir,
    make_params,
    max_passing_rate,
    median,
    peak_rss_mib,
    percentile,
    poisson_schedule,
    tail_quantile,
)
from pb_trace import Patches, SpanTable, Tracer, patch_serving, patch_stream, ratio, serving_layers, stat

NUM_USERS = 2_000
NUM_INTERVALS = 48
NUM_ITEMS = 20_000
K1, K2 = 16, 8
K = 10
BATCH_QUERIES = 64
#: Query batches per second. Each batch's selection product runs on every
#: BLAS thread, so the queries and the consumer compete for the 2 CPUs.
#: Over sets of five seeds, ``freshness_s`` spread by 0.15-0.37 of its
#: median at 10 per second and by 0.06-0.25 at 4 per second.
QUERY_BATCHES_PER_S = 4.0
NOMINAL_EPS = 200.0
LADDER_EPS = (400.0, 800.0, 1600.0)
#: Appends or query batches started later than this at p99 mark a step
#: invalid. One generator thread does both, so an append due while a query
#: batch runs waits for it (~90 ms here); a generator that holds its
#: schedule stays within a few batch durations.
LATE_LIMIT_MS = 250.0
#: A step's backlog may grow by at most this many seconds of its input.
GROWTH_LIMIT_S = 0.25
BACKLOG_SAMPLE_S = 0.05
SETUP_REPEATS = 9
PARAM_KEYS = ("theta", "phi", "theta_time", "phi_time", "lambda_u")


class AckedLog:
    """The consumer's view of an event log, bounded at the acknowledged end."""

    def __init__(self, log) -> None:
        self.log = log
        self.acked = 0
        self.cuts: list[tuple[int, int]] = []

    def read(self, start: int = 0, count: int | None = None):
        available = self.acked - start
        if count is not None:
            available = min(available, count)
        if available <= 0:
            return []
        events = self.log.read(start, available)
        self.cuts.append((start, len(events)))
        return events


class ReplayLog:
    """Serves a finished log back in exactly the recorded micro-batches."""

    def __init__(self, log, cuts: list[tuple[int, int]]) -> None:
        self.log = log
        self.cuts = dict(cuts)

    def read(self, start: int = 0, count: int | None = None):
        width = self.cuts.get(start, 0)
        return self.log.read(start, width) if width else []


class Queries:
    """The generator's read side: batches of 64 queries at a fixed rate."""

    def __init__(self, recommender, rng: np.random.Generator, tracer: Tracer | None) -> None:
        self.recommender = recommender
        self.rng = rng
        self.tracer = tracer
        self.next_due = np.inf
        self.rows: list[tuple[float, float, float, bool, list[int]]] = []
        self.caches: dict[int, object] = {}
        self._batch = self._draw()

    def _draw(self) -> list[tuple[int, int]]:
        return list(zip(self.rng.integers(0, NUM_USERS, BATCH_QUERIES).tolist(),
                        self.rng.integers(0, NUM_INTERVALS, BATCH_QUERIES).tolist()))

    def start(self, at: float) -> None:
        self.next_due = at

    def serve(self, now: float) -> None:
        """Send the batch due at ``next_due``; time it from its due time."""
        due, batch = self.next_due, self._batch
        if self.tracer is not None:
            self.tracer.set_request(("query", len(self.rows)))
        rows, statuses = self.recommender.recommend_batch_with_status(batch, k=K)
        done = time.perf_counter()
        if self.tracer is not None:
            self.tracer.set_request(None)
        complete = len(rows) == len(batch) and all(len(r.items) == K for r in rows)
        generations = sorted({s.generation for s in statuses})
        self.rows.append((due, (now - due) * 1e3, (done - due) * 1e3, complete, generations))
        self.caches[generations[-1]] = statuses[-1].cache
        self.next_due = due + 1.0 / QUERY_BATCHES_PER_S
        self._batch = self._draw()


class Clock:
    """Waits for a due time while serving due query batches and sampling the backlog."""

    def __init__(self, view: AckedLog, ingestor, queries: Queries) -> None:
        self.view = view
        self.ingestor = ingestor
        self.queries = queries
        self.backlog: list[tuple[float, int]] = []
        self.next_sample = 0.0

    def wait_until(self, when: float) -> float:
        while True:
            now = time.perf_counter()
            if now >= self.next_sample:
                self.backlog.append((now, self.view.acked - self.ingestor.offset))
                self.next_sample = now + BACKLOG_SAMPLE_S
            if self.queries.next_due <= min(now, when):
                self.queries.serve(now)
                continue
            if now >= when:
                return now
            time.sleep(max(0.0, min(when, self.queries.next_due, self.next_sample) - now))


class Consumer(threading.Thread):
    """Fold one micro-batch, publish, repeat; drains fully after ``stop``."""

    def __init__(self, ingestor, publisher) -> None:
        super().__init__(name="perfbench-consumer", daemon=True)
        self.ingestor = ingestor
        self.publisher = publisher
        self.stop = threading.Event()
        self.publishes: list[tuple[int, float, bool, int]] = []
        self.skipped = 0
        self.error: BaseException | None = None

    def published_offset(self) -> int:
        """Events made servable by the latest publish."""
        return self.publishes[-1][0] if self.publishes else 0

    def run(self) -> None:
        try:
            while True:
                stopping = self.stop.is_set()
                report = self.ingestor.run(max_batches=1)
                self.skipped += report.skipped
                if report.batches:
                    outcome = self.publisher.publish(self.ingestor.params)
                    self.publishes.append(
                        (self.ingestor.offset, time.perf_counter(), bool(outcome.published), int(outcome.generation))
                    )
                elif stopping:
                    return
                else:
                    time.sleep(0.002)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main thread
            self.error = exc


def run(seed: int, seconds: float, tracer: Tracer | None = None) -> Result:
    from repro.core.serialize import LoadedModel, load_params, save_params
    from repro.recommend import TemporalRecommender
    from repro.streaming import EventLog, SnapshotPublisher, StreamEvent, StreamIngestor

    result = Result("stream")
    patches = Patches()
    if tracer is not None:
        patch_stream(tracer, patches)
        patch_serving(tracer, patches)
    try:
        with WorkDir("stream") as work:
            # The fitted snapshot the stream starts from is an input.
            snapshot = save_params(make_params(seed, NUM_USERS, NUM_INTERVALS, NUM_ITEMS, K1, K2), work / "fitted.npz")
            setups = []
            for index in range(SETUP_REPEATS):
                start = time.perf_counter()
                params = load_params(snapshot)
                log = EventLog(work / f"wal-{index}")
                view = AckedLog(log)
                ingestor = StreamIngestor(view, params, work / f"ckpt-{index}")
                recommender = TemporalRecommender(LoadedModel(params))
                publisher = SnapshotPublisher(recommender)
                setups.append(time.perf_counter() - start)
                if index < SETUP_REPEATS - 1:
                    log.close()
            wal_dir = work / f"wal-{SETUP_REPEATS - 1}"

            # ---- inputs ----------------------------------------------------
            rng = np.random.default_rng(seed + 1)
            nominal_s = seconds * 2.0 / 3.0
            ladder_s = (seconds - nominal_s) / len(LADDER_EPS)
            plan = [("nominal", NOMINAL_EPS, nominal_s)] + [
                (f"ladder-{int(rate)}", rate, ladder_s) for rate in LADDER_EPS
            ]
            steps = [StepReport(name, rate, "events/s", late_limit_ms=LATE_LIMIT_MS,
                                growth_limit=rate * GROWTH_LIMIT_S) for name, rate, _ in plan]
            offsets = [poisson_schedule(rng, rate, 0.0, length) for _, rate, length in plan]
            count = sum(o.size for o in offsets)
            users = rng.integers(0, NUM_USERS, count)
            intervals = rng.integers(0, NUM_INTERVALS, count)
            items = np.minimum(rng.zipf(1.3, count) - 1, NUM_ITEMS - 1)
            scores = rng.random(count) + 0.5
            events = [StreamEvent(user=int(u), interval=int(t), item=int(i), score=float(s))
                      for u, t, i, s in zip(users, intervals, items, scores)]
            queries = Queries(recommender, rng, tracer)

            # ---- run -------------------------------------------------------
            consumer = Consumer(ingestor, publisher)
            clock = Clock(view, ingestor, queries)
            ack = np.zeros(count)
            consumer.start()
            try:
                queries.start(time.perf_counter() + 0.05)
                first = 0
                windows = []
                for step, offset in zip(steps, offsets):
                    began = time.perf_counter() + 0.01
                    due = began + offset
                    nxt = 0
                    while nxt < due.size:
                        now = clock.wait_until(due[nxt])
                        end = int(np.searchsorted(due, now, side="right"))
                        step.late_ms.append((now - due[nxt]) * 1e3)
                        log.append(events[first + nxt : first + end])
                        ack[first + nxt : first + end] = time.perf_counter()
                        view.acked = first + end
                        nxt = end
                    ended = time.perf_counter()
                    # Pause the input until the consumer has caught up and
                    # published; queries keep arriving meanwhile.
                    while not (consumer.published_offset() == view.acked or consumer.error is not None
                               or not consumer.is_alive()):
                        clock.wait_until(time.perf_counter() + 0.005)
                    drained = time.perf_counter()
                    step.drain_s = drained - ended
                    samples = [b for t, b in clock.backlog if began <= t < ended]
                    third = max(1, len(samples) // 3)
                    if samples:
                        step.backlog_growth = float(np.mean(samples[-third:]) - np.mean(samples[:third]))
                    step.attempted = due.size
                    windows.append((began, ended, drained))
                    first += due.size
            finally:
                consumer.stop.set()
                consumer.join(timeout=120.0)
                log.close()
            if consumer.is_alive():
                raise RuntimeError("consumer did not drain within 120 s")
            if consumer.error is not None:
                raise consumer.error

            # ---- accounting ----------------------------------------------------
            query_rows = queries.rows
            for step, (began, _, drained) in zip(steps, windows):
                step.succeeded = step.attempted if ingestor.offset == count else 0
                step.failed = step.attempted - step.succeeded
                mine = [q for q in query_rows if began <= q[0] < drained]
                step.latencies_ms = [q[2] for q in mine]
                step.late_ms += [q[1] for q in mine]
            result.steps = steps
            query_ok = [q for q in query_rows if q[3] and len(q[4]) == 1]
            result.attempted = count + len(query_rows)
            result.failed = (count - ingestor.offset) + (len(query_rows) - len(query_ok)) + consumer.skipped

            # ---- checks ----------------------------------------------------------
            result.check("stream.all_events_ingested", ingestor.offset == count, f"{ingestor.offset} of {count}")
            result.check("stream.batches_complete", all(q[3] for q in query_rows), "a served batch missed rows")
            result.check("stream.batches_single_generation", all(len(q[4]) == 1 for q in query_rows), "torn batch")
            served = [q[4][0] for q in query_rows]
            result.check("stream.generations_increase", all(a <= b for a, b in zip(served, served[1:])),
                         "a later batch saw an older generation")
            published = [p[3] for p in consumer.publishes if p[2]]
            result.check("stream.publishes_accepted", all(p[2] for p in consumer.publishes), "a publish was rejected")
            result.check("stream.publish_generations_increase",
                         all(a < b for a, b in zip(published, published[1:])), "generation went back")
            # The replay is a check, not workload: take the wrappers off first.
            patches.restore()
            replay = StreamIngestor(ReplayLog(EventLog(wal_dir), view.cuts), load_params(snapshot), work / "replay")
            replay.run()
            same = all(np.array_equal(getattr(replay.params, key), getattr(ingestor.params, key)) for key in PARAM_KEYS)
            result.check("stream.replay_bit_identical", same and replay.offset == ingestor.offset,
                         "fresh replay of the WAL differs")

            # ---- metrics -----------------------------------------------------------
            publish_offsets = np.array([p[0] for p in consumer.publishes])
            publish_times = np.array([p[1] for p in consumer.publishes])
            covering = np.searchsorted(publish_offsets, np.arange(count), side="right")
            servable = publish_times[np.minimum(covering, publish_times.size - 1)]
            freshness = servable - ack
            fresh_nominal = freshness[: offsets[0].size]
            nominal_lo, nominal_hi, _ = windows[0]
            nominal = steps[0]
            lat = np.array([q[2] for q in query_rows])
            q = tail_quantile(lat.size)
            mem = peak_rss_mib()
            result.figure("setup_s", median(setups), "s",
                          f"load snapshot, WAL, ingestor, recommender; median of {SETUP_REPEATS}")
            result.figure("p50_ms", percentile(lat, 50), "ms",
                          f"n={lat.size} batches of {BATCH_QUERIES} at {QUERY_BATCHES_PER_S:g}/s, whole run")
            result.figure("p90_ms", percentile(lat, 90), "ms")
            result.figure("p99_ms", percentile(lat, 99), "ms")
            result.figure("tail_ms", percentile(lat, q), "ms", f"p{q:.1f}")
            result.figure("freshness_s", median(fresh_nominal), "s",
                          f"the gated name of freshness_p50_s, n={fresh_nominal.size} events at {NOMINAL_EPS:g}/s")
            result.figure("freshness_p50_s", median(fresh_nominal), "s")
            result.figure("freshness_p99_s", percentile(fresh_nominal, 99), "s")
            result.figure("max_ingest_eps", max_passing_rate(steps), "events/s")
            result.figure("error_share", ratio(result.failed, result.attempted), "ratio")
            result.figure("mem_mib", mem, "MiB", "peak RSS")
            result.figure("publishes", len(consumer.publishes), "count")
            if tracer is not None:
                table = SpanTable(tracer.spans)
                hits = sum(c.hits for c in queries.caches.values())
                lookups = hits + sum(c.misses for c in queries.caches.values())
                samples = np.array([b for t, b in clock.backlog if nominal_lo <= t < nominal_hi], dtype=np.float64)
                layers = {
                    "gen.late_ms.p99": (stat(np.array(nominal.late_ms), "p99"), "ms"),
                    "serving.cache_hit_rate": (ratio(hits, lookups), "ratio"),
                    "wal.append_ms": (stat(table.ms("wal.append")), "ms"),
                    "wal.read_ms": (stat(table.ms("wal.read")), "ms"),
                    "ingest.fold_ms": (stat(table.ms("ingest.fold")), "ms"),
                    "ingest.drift_ms": (stat(table.ms("ingest.drift")), "ms"),
                    "ingest.boundaries": (float(ingestor.boundaries), "count"),
                    "ingest.checkpoint_ms": (stat(table.ms("ingest.checkpoint")), "ms"),
                    "ingest.backlog": (stat(samples), "events"),
                    "ingest.skipped_share": (ratio(consumer.skipped, count), "ratio"),
                    "publish.ms": (stat(table.ms("publish")), "ms"),
                }
                layers.update(serving_layers(table))
                result.layers = layers
    finally:
        patches.restore()
    return result
