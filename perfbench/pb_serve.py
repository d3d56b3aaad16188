"""``serve`` workload: ``tcam serve`` over TCP under an open-loop Poisson load.

The service runs as users run it: ``python -m repro.cli serve`` with its
default worker count, selection dtype, batch size and deadline, on a
snapshot with V=100k items, K=16 user topics and k=10. One asyncio
client process keeps two connections and writes each single-query
request when it is due, whether or not earlier replies have arrived, so
a stall shows as latency on the requests behind it. Each request is
timed from its due time. Users are uniform, intervals zipf-hot.

The server is started ``SETUP_REPEATS`` times and ``setup_s`` is the
median of those starts. Each start serves an unmeasured warm-up and an
equal share of the nominal step at ``NOMINAL_RPS`` (two thirds of the
measured time in all). Latency at this load moves with the host's
scheduling from one start to the next, so spreading it over starts
steadies it. The last start also runs a short ladder of higher fixed
rates, then ``SWAPS`` fleet hot swaps. ``max_rate_rps`` is the
top of the leading run of steps whose p99 stays within ``P99_LIMIT_MS``
with no failures and no backlog left when the schedule ends.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from pb_common import (
    TRACE_ROOT,
    Result,
    StepReport,
    WorkDir,
    make_params,
    max_passing_rate,
    median,
    percentile,
    poisson_schedule,
    rss_mib,
    subprocess_env,
    tail_quantile,
)
from pb_trace import SpanTable, dump_spans, load_spans, ratio, serving_layers, stat

NUM_USERS = 2_000
NUM_INTERVALS = 48
NUM_TOPICS = 16
NUM_ITEMS = 100_000
K = 10
#: ``make_params`` sizes: users, intervals, items, user topics, time topics.
SIZES = (NUM_USERS, NUM_INTERVALS, NUM_ITEMS, NUM_TOPICS, NUM_TOPICS // 2)
NOMINAL_RPS = 50.0
LADDER_RPS = (100.0, 150.0, 200.0)
#: p99 latency limit of a passing ladder step.
P99_LIMIT_MS = 100.0
#: A step whose generator ran later than this at p99 is invalid.
LATE_LIMIT_MS = 10.0
#: Unmeasured load at the nominal rate before the nominal step, so lazy
#: set-up and first-touch page faults finish before timing.
WARMUP_S = 1.0
#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fleet hot swaps after the load (odd, so the fleet ends on the candidate).
SWAPS = 9
VERIFY_EVERY = 8
VERIFY_MAX = 64
CONNECTIONS = 2
_PORT_RE = re.compile(r"tcam serve: \d+ workers on [\w.\-]+:(\d+)")
TRACED_HOST = Path(__file__).resolve().parent / "pb_serve_traced.py"


class Server:
    """One ``tcam serve`` process, started and drained like an operator would."""

    def __init__(self, snapshot: Path, traced_spans: Path | None = None) -> None:
        env = subprocess_env()
        if traced_spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(TRACED_HOST)]
            env["PERFBENCH_SPANS"] = str(traced_spans)
        self.proc = subprocess.Popen(
            command + ["--model", str(snapshot), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout_s: float = 120.0) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout_s
        lines = []
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = _PORT_RE.search(line)
            if match:
                return int(match.group(1))
        self.kill()
        raise RuntimeError(f"tcam serve never reported a port; output: {lines!r}")

    def drain(self, timeout_s: float = 60.0) -> tuple[bool, str]:
        """SIGTERM, then wait; True when it exited 0 after a clean drain."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            output, _ = self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            return False, "no exit within the drain timeout"
        ok = self.proc.returncode == 0 and "drained cleanly" in output
        return ok, output

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# ---------------------------------------------------------------------------
# open-loop client
# ---------------------------------------------------------------------------


class Client:
    """Two pipelined connections; replies matched by id."""

    def __init__(self, ids: Iterator[int]) -> None:
        self.ids = ids
        self.inflight: dict[int, dict[str, Any]] = {}
        self.done: dict[int, dict[str, Any]] = {}
        self.readers: list[asyncio.Task] = []
        self.writers: list[asyncio.StreamWriter] = []
        self.waiters: dict[int, asyncio.Future] = {}

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
            self.writers.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            reply = json.loads(line)
            record = self.inflight.pop(reply.get("id"), None)
            if record is None:
                continue
            record["recv"] = now
            record["reply"] = reply
            self.done[reply["id"]] = record
            waiter = self.waiters.pop(reply["id"], None)
            if waiter is not None and not waiter.done():
                waiter.set_result(reply)

    def send(self, message: dict[str, Any], **record: Any) -> int:
        rid = next(self.ids)
        record["sent"] = asyncio.get_running_loop().time()
        self.inflight[rid] = record
        line = json.dumps({"id": rid, **message}, separators=(",", ":")).encode() + b"\n"
        self.writers[rid % len(self.writers)].write(line)
        return rid

    async def call(self, message: dict[str, Any], timeout: float = 120.0) -> dict[str, Any]:
        """One control exchange (status, publish), waited for."""
        future = asyncio.get_running_loop().create_future()
        rid = self.send(message, control=True)
        self.waiters[rid] = future
        return await asyncio.wait_for(future, timeout)

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


async def run_step(client: Client, step: StepReport, queries: np.ndarray, due: np.ndarray) -> None:
    """Send every request of one step when due; wait for the step to drain."""
    loop = asyncio.get_running_loop()
    ids = []
    for when, (user, interval) in zip(due, queries):
        delay = when - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        now = loop.time()
        step.late_ms.append(max(0.0, (now - when) * 1e3))
        ids.append(
            client.send(
                {"queries": [[int(user), int(interval)]], "k": K},
                due=float(when),
                query=(int(user), int(interval)),
                step=step.name,
            )
        )
        if len(ids) % 32 == 0:
            await asyncio.gather(*(w.drain() for w in client.writers))
    await asyncio.gather(*(w.drain() for w in client.writers))
    step.attempted = len(ids)
    step.backlog_growth = float(sum(1 for rid in ids if rid in client.inflight))
    deadline = loop.time() + 30.0
    while any(rid in client.inflight for rid in ids) and loop.time() < deadline:
        await asyncio.sleep(0.005)
    for rid in ids:
        record = client.done.get(rid)
        if record is None:
            step.failed += 1  # dropped: never answered
            continue
        reply = record["reply"]
        if reply.get("error") == "draining":
            step.refused += 1
        elif "error" in reply or not reply.get("results") or reply["results"][0] is None:
            step.failed += 1
        else:
            step.succeeded += 1
            step.latencies_ms.append((record["recv"] - record["due"]) * 1e3)


def make_queries(rng: np.random.Generator, count: int) -> np.ndarray:
    users = rng.integers(0, NUM_USERS, count)
    intervals = np.minimum(rng.zipf(1.5, count) - 1, NUM_INTERVALS - 1)
    return np.stack([users, intervals], axis=1)


async def drive(client: Client, rng: np.random.Generator, plan: list[tuple[str, float, float]]) -> list[StepReport]:
    """Run each ``(name, rate, seconds)`` step of the plan in turn."""
    loop = asyncio.get_running_loop()
    steps = []
    for name, rate, length in plan:
        step = StepReport(name, rate, "req/s", limit_ms=P99_LIMIT_MS, late_limit_ms=LATE_LIMIT_MS,
                          growth_limit=max(2.0, rate * P99_LIMIT_MS / 1e3))
        due = poisson_schedule(rng, rate, loop.time() + 0.05, length)
        await run_step(client, step, make_queries(rng, len(due)), due)
        steps.append(step)
    return steps


def merge(name: str, parts: list[StepReport]) -> StepReport:
    """One step's accounting from its per-server segments."""
    merged = StepReport(name, parts[0].rate, parts[0].unit, limit_ms=parts[0].limit_ms,
                        late_limit_ms=parts[0].late_limit_ms, growth_limit=parts[0].growth_limit)
    for part in parts:
        merged.attempted += part.attempted
        merged.succeeded += part.succeeded
        merged.failed += part.failed
        merged.refused += part.refused
        merged.latencies_ms += part.latencies_ms
        merged.late_ms += part.late_ms
        merged.backlog_growth = max(merged.backlog_growth, part.backlog_growth)
    return merged


def run(seed: int, seconds: float, traced: bool = False) -> Result:
    """Start ``SETUP_REPEATS`` servers in turn; each serves a share of the
    nominal step, the last one also the ladder and the hot swaps."""
    from repro.core.serialize import LoadedModel, save_params
    from repro.recommend import TemporalRecommender

    result = Result("serve")
    params = make_params(seed, *SIZES)
    rng = np.random.default_rng(seed + 1)
    ids = itertools.count(1)
    nominal_s = seconds * 2.0 / 3.0
    ladder_s = (seconds - nominal_s) / len(LADDER_RPS)
    ladder = [(f"ladder-{int(rate)}", rate, ladder_s) for rate in LADDER_RPS]
    setups: list[float] = []
    segments: list[tuple[Client, list[StepReport], dict]] = []
    mems: list[float] = []
    swap_s: list[float] = []
    with WorkDir("serve") as work:
        candidate = save_params(make_params(seed + 7919, *SIZES), work / "candidate.npz")
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            start = time.perf_counter()
            snapshot = save_params(params, work / f"model-{index}.npz")
            server = Server(snapshot, work / "spans" / f"server-{index}" if traced else None)
            setups.append(time.perf_counter() - start)
            try:
                plan = [("warmup", NOMINAL_RPS, WARMUP_S), ("nominal", NOMINAL_RPS, nominal_s / SETUP_REPEATS)]
                client, steps, status, swaps = asyncio.run(
                    _serve_segment(server.port, rng, ids, plan + (ladder if last else []),
                                   (candidate, snapshot) if last else None, result)
                )
                segments.append((client, steps, status))
                swap_s += swaps
                worker_pss = [w["pss_bytes"] / 2**20 for w in status["workers"] if w.get("pss_bytes") is not None]
                result.check("serve.worker_pss_reported", len(worker_pss) == len(status["workers"]), "no PSS")
                mems.append(rss_mib(server.proc.pid) + sum(worker_pss))
            finally:
                ok, output = server.drain()
                result.check("serve.sigterm_drain", ok, output[-400:])

        # --- outputs: sampled responses vs in-process recommend_batch ---------
        answered = [r for client, _, _ in segments for r in client.done.values()
                    if r.get("step") == "nominal" and "results" in r["reply"]]
        sample = answered[::VERIFY_EVERY][:VERIFY_MAX]
        direct = TemporalRecommender(LoadedModel(params)).recommend_batch([r["query"] for r in sample], k=K)
        same = True
        for record, expected in zip(sample, direct):
            row = record["reply"]["results"][0]
            same &= row["items"] == [int(i) for i in expected.items]
            same &= [float(s).hex() for s in row["scores"]] == [float(s).hex() for s in expected.scores]
        result.check("serve.bitwise_vs_in_process", same and len(sample) > 0,
                     f"{len(sample)} sampled responses compared")
        if traced:
            parts = [step for _, steps, _ in segments for step in steps if step.name == "nominal"]
            result.layers = service_layers(work / "spans", seed, segments, merge("nominal", parts))

    by_name: dict[str, list[StepReport]] = {}
    for _, steps, _ in segments:
        for step in steps:
            by_name.setdefault(step.name, []).append(step)
    result.steps = [merge(name, parts) for name, parts in by_name.items()]
    for step in result.steps:
        result.attempted += step.attempted
        result.failed += step.failed + step.refused
    nominal = next(step for step in result.steps if step.name == "nominal")
    lat = np.array(nominal.latencies_ms)
    q = tail_quantile(lat.size)
    workers = [w for _, _, status in segments for w in status["workers"]]
    batches = sum(w["batches"] for w in workers)
    queries = sum(w["queries"] for w in workers)
    result.figure("setup_s", median(setups), "s", f"snapshot write + start until ready, median of {SETUP_REPEATS}")
    result.figure("p50_ms", percentile(lat, 50), "ms", f"n={lat.size} at {NOMINAL_RPS:g} req/s over {SETUP_REPEATS} starts")
    result.figure("p90_ms", percentile(lat, 90), "ms")
    result.figure("p99_ms", percentile(lat, 99), "ms")
    result.figure("tail_ms", percentile(lat, q), "ms", f"p{q:.1f}")
    result.figure("max_rate_rps", max_passing_rate([s for s in result.steps if s.name != "warmup"]), "req/s",
                  f"p99 <= {P99_LIMIT_MS:g} ms")
    result.figure("freshness_s", median(swap_s), "s", f"fleet hot swap, median of {SWAPS}")
    result.figure("error_share", ratio(result.failed, result.attempted), "ratio")
    result.figure("mem_mib", median(mems), "MiB", "front-end RSS + worker PSS, median over starts")
    result.figure("batch_queries", ratio(queries, batches), "queries/batch")
    return result


async def _serve_segment(port: int, rng: np.random.Generator, ids, plan, swap: tuple[Path, Path] | None,
                         result: Result):
    """Load one server, read ``status``; with ``swap``, hot-swap the fleet ``SWAPS`` times."""
    client = Client(ids)
    await client.connect(port)
    swap_s: list[float] = []
    try:
        steps = await drive(client, rng, plan)
        status = await client.call({"op": "status"})
        if swap is not None:
            candidate, original = swap
            targets = [(candidate, original)[index % 2] for index in range(SWAPS)]
            for target in targets:
                start = time.perf_counter()
                reply = await client.call({"op": "publish", "path": str(target)})
                swap_s.append(time.perf_counter() - start)
                result.check("serve.hot_swap_published", reply.get("published") is True, str(reply))
            after = await client.call({"op": "status"})
            workers = after.get("workers", [])
            landed = bool(workers) and all(
                w["swaps"] == SWAPS and w["snapshot"] == str(targets[-1]) for w in workers
            )
            result.check("serve.hot_swap_fleet_wide", landed, json.dumps(workers)[:400])
            result.check("serve.single_generation", len({w["generation"] for w in workers}) == 1,
                         "fleet generations differ")
    finally:
        await client.close()
    return client, steps, status, swap_s


def service_layers(spans_dir: Path, seed: int, segments: list, nominal: StepReport) -> dict[str, tuple[float, str]]:
    """Front-end, worker and serving layers of the nominal requests of a traced run.

    Front-end spans come from each traced host process, worker spans from
    inside its spawned workers (the host patches ``worker_main`` so every
    worker installs the same wrappers). They are joined per request id
    and per ``(server, worker, flushed batch)``.
    """
    parse: dict[int, float] = {}
    encode: dict[int, float] = {}
    wait: dict[int, tuple[float, tuple]] = {}
    serve: dict[tuple, float] = {}
    serving: list = []
    every: list = []
    size_flushes = all_flushes = 0
    hits = misses = 0
    for server_dir in sorted(spans_dir.glob("server-*")):
        table = SpanTable(load_spans(sorted(server_dir.glob("*.jsonl"))))
        every += table.spans
        tag = server_dir.name
        parse.update({s[4]: (s[2] - s[1]) * 1e3 for s in table.by_name.get("service.parse", ())})
        encode.update({s[4]: (s[2] - s[1]) * 1e3 for s in table.by_name.get("service.encode", ())})
        wait.update({s[4]: ((s[2] - s[1]) * 1e3, (tag, s[5]["worker"], s[5]["seq"]))
                     for s in table.by_name.get("service.queue_wait", ())})
        serve.update({(tag, s[5]["worker"], s[5]["seq"]): (s[2] - s[1]) * 1e3
                      for s in table.by_name.get("worker.serve", ())})
        serving += [(tag, s) for s in table.spans if isinstance(s[4], list) and s[4][0] == "batch"]
        size_flushes += sum(s[5]["size"] for s in table.by_name.get("service.flushes", ()))
        all_flushes += sum(s[5]["all"] for s in table.by_name.get("service.flushes", ()))
        hits += sum(s[5]["hits"] for s in table.by_name.get("worker.cache", ()))
        misses += sum(s[5]["misses"] for s in table.by_name.get("worker.cache", ()))
    dump_spans(every, TRACE_ROOT / f"serve-seed{seed}.jsonl")

    load = {rid: r for client, _, _ in segments for rid, r in client.done.items() if r.get("step") == "nominal"}
    joined = [rid for rid in load if rid in parse and rid in encode and rid in wait and wait[rid][1] in serve]
    batches = {wait[rid][1] for rid in joined}
    overhead = [
        (load[rid]["recv"] - load[rid]["sent"]) * 1e3 - wait[rid][0] - serve[wait[rid][1]] - parse[rid] - encode[rid]
        for rid in joined
    ]
    workers = [w for _, _, status in segments for w in status["workers"]]
    pss = [w["pss_bytes"] / 2**20 for w in workers if w.get("pss_bytes") is not None]
    # Means over the nominal requests, so the parts add up to client.rtt_ms.
    layers = {
        "service.parse_ms": (stat(np.array([parse[r] for r in joined]), "mean"), "ms"),
        "service.encode_ms": (stat(np.array([encode[r] for r in joined]), "mean"), "ms"),
        "service.queue_wait_ms": (stat(np.array([wait[r][0] for r in joined]), "mean"), "ms"),
        "service.deadline_flush_share": (ratio(all_flushes - size_flushes, all_flushes), "ratio"),
        "service.batch_queries": (
            ratio(sum(w["queries"] for w in workers), sum(w["batches"] for w in workers)),
            "count",
        ),
        "worker.serve_ms": (stat(np.array([serve[wait[r][1]] for r in joined]), "mean"), "ms"),
        "service.overhead_ms": (stat(np.array(overhead), "mean"), "ms"),
        "client.rtt_ms": (stat(np.array([(load[r]["recv"] - load[r]["sent"]) * 1e3 for r in joined]), "mean"), "ms"),
        "worker.pss_mib": (float(np.mean(pss)) if pss else 0.0, "MiB"),
        "gen.late_ms.p99": (stat(np.array(nominal.late_ms), "p99"), "ms"),
        "serving.cache_hit_rate": (ratio(hits, hits + misses), "ratio"),
    }
    layers.update(serving_layers(SpanTable([s for tag, s in serving if (tag, s[4][1], s[4][2]) in batches])))
    return layers
