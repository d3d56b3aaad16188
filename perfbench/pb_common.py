"""Shared plumbing of the repository benchmark (``perfbench/run.py``).

Statistics, open-loop schedules, host context, memory readings, the work
directory, synthetic parameters and the result record every workload
fills in. Nothing here imports :mod:`repro` at module level, so
``run.py`` can report a missing source tree as a plain failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's source lives inside the checkout.
SRC = ROOT / "src"
#: Scratch space for snapshots, logs and checkpoints; removed at exit.
WORK_ROOT = Path(__file__).resolve().parent / ".work"
#: Span files of traced runs (kept after the run, ignored by git).
TRACE_ROOT = Path(__file__).resolve().parent / ".traces"

#: Thread-count variables that BLAS/OpenMP builds read. The benchmark
#: records them as found and never sets them.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def percentile(values: Any, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for an empty sample."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return float("nan")
    return float(np.percentile(data, q))


def tail_quantile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    For ``count`` samples that is ``100 * (1 - 10 / count)``, capped at
    p99; samples too small to leave ten beyond any percentile above the
    median report their maximum (``100``).
    """
    if count < 20:
        return 100.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))


def median(values: Any) -> float:
    return percentile(values, 50.0)


def poisson_schedule(rng: np.random.Generator, rate: float, start: float, seconds: float) -> np.ndarray:
    """Due times of a Poisson arrival process at ``rate`` per second."""
    expected = int(rate * seconds * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, expected)
    due = start + np.cumsum(gaps)
    while due[-1] < start + seconds:  # pragma: no cover - 1.5x margin is ample
        more = due[-1] + np.cumsum(rng.exponential(1.0 / rate, expected))
        due = np.concatenate([due, more])
    return due[due < start + seconds]


def make_params(seed: int, num_users: int, num_intervals: int, num_items: int, k1: int, k2: int):
    """Synthetic fitted TTCAM parameters (Dirichlet draws) of the given sizes."""
    from repro.core.params import TTCAMParameters

    rng = np.random.default_rng(seed)
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(k1, 0.3), size=num_users),
        phi=rng.dirichlet(np.full(num_items, 0.05), size=k1),
        theta_time=rng.dirichlet(np.full(k2, 0.3), size=num_intervals),
        phi_time=rng.dirichlet(np.full(num_items, 0.05), size=k2),
        lambda_u=rng.beta(3.0, 3.0, size=num_users),
    )


def rss_mib(pid: int | str = "self") -> float:
    """Current resident set size of a process, in MiB (Linux ``VmRSS``)."""
    return _status_kib(pid, "VmRSS:") / 1024.0


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size of a process, in MiB (Linux ``VmHWM``)."""
    return _status_kib(pid, "VmHWM:") / 1024.0


def _status_kib(pid: int | str, key: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {key} line")


def host_context() -> dict[str, Any]:
    """What decides whether two runs are comparable, as found."""
    import numpy

    blas: dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        found = config.get("Build Dependencies", {}).get("blas", {})
        blas = {key: found.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception as exc:  # noqa: BLE001 - the build report is best-effort
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "git_sha": sha or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_vars": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "TCAM_SANITIZE": os.environ.get("TCAM_SANITIZE"),
    }


def subprocess_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` importable.

    Only ``PYTHONPATH`` changes; thread-count variables pass through
    exactly as found.
    """
    env = dict(os.environ)
    paths = [str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK_ROOT / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir(parents=True)

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never empty


@dataclass
class StepReport:
    """Accounting of one fixed-rate step of an open-loop workload."""

    name: str
    rate: float
    unit: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    backlog_growth: float = 0.0
    drain_s: float = 0.0
    limit_ms: float | None = None
    late_limit_ms: float | None = None
    growth_limit: float | None = None

    @property
    def valid(self) -> bool:
        """False when the generator itself fell behind its schedule."""
        if self.late_limit_ms is None or not self.late_ms:
            return True
        return percentile(self.late_ms, 99) <= self.late_limit_ms

    @property
    def passed(self) -> bool:
        """Within the latency limit, no failures, no growing backlog."""
        if not self.valid or self.attempted == 0:
            return False
        if self.failed or self.refused or self.succeeded != self.attempted:
            return False
        if self.limit_ms is not None and percentile(self.latencies_ms, 99) > self.limit_ms:
            return False
        if self.growth_limit is not None and self.backlog_growth > self.growth_limit:
            return False
        return True

    def line(self) -> str:
        lat = self.latencies_ms
        verdict = "INVALID (generator late)" if not self.valid else ("pass" if self.passed else "fail")
        return (
            f"  step {self.name:<10} rate {self.rate:>7.1f} {self.unit:<9} "
            f"attempted {self.attempted:>5} ok {self.succeeded:>5} failed {self.failed} "
            f"refused {self.refused}  p50 {percentile(lat, 50):8.2f} ms  p99 {percentile(lat, 99):8.2f} ms  "
            f"gen.late p99 {percentile(self.late_ms, 99):6.2f} ms  backlog {self.backlog_growth:+.0f}  "
            + (f"drain {self.drain_s:.2f} s  " if self.drain_s else "")
            + verdict
        )


def max_passing_rate(steps: list[StepReport]) -> float:
    """The highest rate of the ladder whose every step up to it passed."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.passed:
            break
        best = step.rate
    return best


@dataclass
class Result:
    """What one workload run reports: checks, counts and figures."""

    workload: str
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # name -> (value, unit, note): every end-to-end figure the run measured;
    # ``run.py`` takes the gated metrics from it by name.
    figures: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    # name -> (value, unit); per-layer metrics of a traced run
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    steps: list[StepReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"CHECK FAILED {name}: {detail}")

    def figure(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.figures[name] = (float(value), unit, note)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def print_report(self, prefix: str = "") -> None:
        tag = f"{prefix}{self.workload}"
        for step in self.steps:
            print(f"{tag}{step.line()}")
        for name, (value, unit, note) in self.figures.items():
            print(f"{tag}  {name:<18} {value:14.6g} {unit}" + (f" ({note})" if note else ""))
        for name, ok in self.checks.items():
            print(f"{tag}  check {name:<34} {'ok' if ok else 'FAILED'}")
        for note in self.notes:
            print(f"{tag}  {note}")
