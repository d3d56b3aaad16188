"""The repository benchmark: ``fit``, ``serve`` and ``stream`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit|serve|stream|all --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src`` (no install step).
Each workload builds its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks the program's outputs, prints every
figure by name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (no wrapper is
installed). With ``--trace 1`` the workload runs twice, span wrappers off
and then on, and the metrics are the per-layer ones plus the tracing
overhead on each end-to-end metric; spans are written to
``perfbench/.traces/``. A failed output check makes the run exit 1.

The benchmark never sets a BLAS/OpenMP thread variable or a program
option the CLI leaves at its default; it records what it finds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pb_common import SRC, TRACE_ROOT, Result, host_context  # noqa: E402

WORKLOADS = ("fit", "serve", "stream")

#: (name, unit) of the end-to-end metrics every workload reports in its
#: result line. Latency percentiles are printed but not among them: on a
#: 2-CPU host with BLAS threads oversubscribed, the serve p50 of ten
#: seeds spread by 0.28 of its median, beyond any usable bound (see
#: NOTES.md).
END_TO_END = (
    ("setup_s", "s"),
    ("freshness_s", "s"),
    ("mem_mib", "MiB"),
)
#: Figures the traced run reports its overhead on, for each workload that
#: measures them (``ratings_per_s`` on fit, latency on serve and stream).
FIGURES = tuple(name for name, _ in END_TO_END) + ("ratings_per_s", "p50_ms", "p99_ms")
#: Figures where higher is better. Their overhead is untraced ÷ traced − 1,
#: so a positive overhead always means the traced run did worse.
HIGHER_IS_BETTER = frozenset({"ratings_per_s"})

#: (name, unit) of the per-layer metrics of a traced run. A layer a
#: workload never calls reads 0 there.
PER_LAYER = (
    ("em.iter_ms.p50", "ms"),
    ("em.iter_ms.max", "ms"),
    ("em.iterations", "count"),
    ("em.estep_ms", "ms"),
    ("em.scatter_ms", "ms"),
    ("em.scatter_calls", "count"),
    ("em.mstep_ms", "ms"),
    ("robustness.health_ms", "ms"),
    ("robustness.checkpoint_ms", "ms"),
    ("robustness.checkpoints", "count"),
    ("data.cuboid_ms", "ms"),
    ("service.parse_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.deadline_flush_share", "ratio"),
    ("service.batch_queries", "count"),
    ("worker.serve_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("client.rtt_ms", "ms"),
    ("worker.pss_mib", "MiB"),
    ("gen.late_ms.p99", "ms"),
    ("recommender.batch_ms", "ms"),
    ("serving.group_ms", "ms"),
    ("serving.groups", "count"),
    ("serving.rows_per_group", "count"),
    ("serving.select_ms", "ms"),
    ("serving.rescore_ms", "ms"),
    ("serving.candidates_per_k", "ratio"),
    ("serving.cache_hit_rate", "ratio"),
    ("wal.append_ms", "ms"),
    ("wal.read_ms", "ms"),
    ("ingest.fold_ms", "ms"),
    ("ingest.drift_ms", "ms"),
    ("ingest.boundaries", "count"),
    ("ingest.checkpoint_ms", "ms"),
    ("ingest.backlog", "events"),
    ("ingest.skipped_share", "ratio"),
    ("publish.ms", "ms"),
) + tuple((f"overhead.{name}", "ratio") for name in FIGURES)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Result:
    """One pass of one workload, with the span wrappers on or off."""
    from pb_trace import Tracer

    if name == "fit":
        import pb_fit

        tracer = Tracer() if traced else None
        result = pb_fit.run(seed, seconds, tracer)
    elif name == "serve":
        import pb_serve

        return pb_serve.run(seed, seconds, traced)
    else:
        import pb_stream

        tracer = Tracer() if traced else None
        result = pb_stream.run(seed, seconds, tracer)
    if tracer is not None:
        tracer.dump(TRACE_ROOT / f"{name}-seed{seed}.jsonl")
    return result


def guard_untraced(result: Result) -> None:
    """Timed runs must run with the runtime sanitizer off, as bench_em asserts."""
    from repro.tooling.sanitize import Sanitizer, sanitize_enabled

    result.check("guard.sanitizer_off", not sanitize_enabled() and Sanitizer.constructed == 0,
                 f"TCAM_SANITIZE armed or {Sanitizer.constructed} Sanitizer(s) constructed")


def measure(name: str, seed: int, seconds: float, trace: int) -> Result:
    timed = run_workload(name, seed, seconds, traced=False)
    guard_untraced(timed)
    timed.print_report()
    if not trace:
        return timed
    traced = run_workload(name, seed, seconds, traced=True)
    traced.print_report(prefix="traced ")
    for check, ok in timed.checks.items():
        traced.checks[check] = traced.checks.get(check, True) and ok
    traced.attempted += timed.attempted
    traced.failed += timed.failed
    overhead = {}
    for metric in FIGURES:
        if metric in timed.figures:
            base, seen = timed.figures[metric][0], traced.figures[metric][0]
            if metric in HIGHER_IS_BETTER:
                base, seen = seen, base
            overhead[f"overhead.{metric}"] = (seen / base - 1.0 if base else 0.0, "ratio")
    measured = {**traced.layers, **overhead}
    missing = sorted(set(measured) - {m for m, _ in PER_LAYER})
    if missing:
        raise RuntimeError(f"layers measured but not declared: {missing}")
    layers = {metric: measured.get(metric, (0.0, unit)) for metric, unit in PER_LAYER}
    for metric, (value, unit) in layers.items():
        origin = "" if metric in measured else "  (not measured by this workload)"
        print(f"traced {name}  layer {metric:<30} {value:14.6g} {unit}{origin}")
    traced.layers = layers
    return traced


def gated(result: Result) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of the result line, taken from the figures by name."""
    metrics = {}
    for name, unit in END_TO_END:
        value, found, _ = result.figures[name]
        if found != unit:
            raise RuntimeError(f"{result.workload} reports {name} in {found}, not {unit}")
        metrics[name] = (value, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import repro  # the program under test, from source
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    print("host " + json.dumps(host_context(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    source = result.layers if args.trace else gated(result)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {m: {"value": float(v), "unit": u} for m, (v, u) in source.items()},
            }
        )
    )
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
