"""``fit`` workload: one ``TTCAM(32, 16)`` fit after another on the default EM path.

Each fit runs a fixed number of iterations (``tol=-1``) with the
checkpoint cadence and health monitor of
``tcam fit --checkpoint-dir … --health-guard`` (checkpoint every 5
iterations, the CLI default), then saves the servable snapshot. The
input is a seeded synthetic cuboid of ~187k ratings, the size of the
largest tier of ``benchmarks/perf/bench_em.py``. All of the work is in
``core`` and ``robustness``; none is in serving.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from pb_common import Result, WorkDir, median, peak_rss_mib, tail_quantile, percentile
from pb_trace import Patches, SpanTable, Tracer, patch_em, ratio, stat

#: Requested (user, interval, item) triples; coalescing leaves ~187k.
RATINGS = 200_000
K1, K2 = 32, 16
#: EM iterations of every fit (``tol=-1`` disables early stopping).
ITERATIONS = 10
#: ``tcam fit --checkpoint-every`` default.
CHECKPOINT_EVERY = 5
SETUP_REPEATS = 9
MIN_FITS = 3


def make_arrays(seed: int) -> dict[str, object]:
    """Seeded raw rating triples with zipf-skewed item popularity."""
    rng = np.random.default_rng(seed)
    num_users = RATINGS // 40
    num_items = RATINGS // 40
    num_intervals = 24
    return {
        "users": rng.integers(0, num_users, RATINGS),
        "intervals": rng.integers(0, num_intervals, RATINGS),
        "items": np.minimum(rng.zipf(1.3, RATINGS) - 1, num_items - 1),
        "scores": rng.random(RATINGS) + 0.5,
        "num_users": num_users,
        "num_intervals": num_intervals,
        "num_items": num_items,
    }


def _on_simplex(params) -> bool:
    for name in ("theta", "phi", "theta_time", "phi_time"):
        array = getattr(params, name)
        if not (np.all(np.isfinite(array)) and np.all(array >= 0.0)):
            return False
        if not np.allclose(array.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            return False
    lam = params.lambda_u
    return bool(np.all((lam >= 0.0) & (lam <= 1.0)))


def _check_fit(result: Result, model, cuboid, checkpoint_dir: Path) -> None:
    """Monotone trace, simplex params, and E-step likelihoods re-evaluated."""
    from repro.core import TTCAM
    from repro.core.params import TTCAMParameters
    from repro.robustness.checkpoint import CheckpointManager

    trace = model.trace_
    result.check("fit.trace_monotone", trace.is_monotone(), "EMTrace.is_monotone() is false")
    result.check("fit.params_on_simplex", _on_simplex(model.params_), "a row left the simplex")
    result.check("fit.iterations", trace.iterations == ITERATIONS, f"{trace.iterations} iterations")
    # The likelihood EM records at iteration i is that of the state the
    # checkpoint of iteration i holds; evaluate it independently (Eq. 3).
    manager = CheckpointManager(checkpoint_dir)
    compared = 0
    for path in sorted(checkpoint_dir.glob("*.npz")):
        checkpoint = manager.load(path)
        if checkpoint.iteration >= trace.iterations:
            same = checkpoint.log_likelihood == trace.log_likelihood
            result.check("fit.final_checkpoint_trace", same, "final checkpoint trace differs")
            continue
        probe = TTCAM(K1, K2)
        probe.params_ = TTCAMParameters(**{key: checkpoint.arrays[key] for key in (
            "theta", "phi", "theta_time", "phi_time", "lambda_u")})
        independent = probe.log_likelihood(cuboid)
        recorded = trace.log_likelihood[checkpoint.iteration]
        rel = abs(independent - recorded) / max(abs(recorded), 1.0)
        result.check("fit.loglik_matches_independent", rel <= 1e-9, f"relative gap {rel:.3e}")
        compared += 1
    result.check("fit.loglik_compared", compared >= 1, "no intermediate checkpoint to compare")


def run(seed: int, seconds: float, tracer: Tracer | None = None) -> Result:
    from repro.core import TTCAM
    from repro.core.serialize import save_params
    from repro.data.cuboid import RatingCuboid
    from repro.robustness.checkpoint import CheckpointManager

    result = Result("fit")
    patches = Patches()
    if tracer is not None:
        patch_em(tracer, patches)
    try:
        arrays = make_arrays(seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cuboid = RatingCuboid.from_arrays(**arrays)
            setups.append(time.perf_counter() - start)

        fit_s, fresh_s = [], []
        with WorkDir("fit") as work:
            began = time.perf_counter()
            while len(fit_s) < MIN_FITS or time.perf_counter() - began + median(fit_s) <= seconds:
                index = len(fit_s)
                checkpoint_dir = work / f"ckpt-{index}"
                result.attempted += 1
                start = time.perf_counter()
                try:
                    model = TTCAM(K1, K2, max_iter=ITERATIONS, tol=-1.0, seed=seed).fit(
                        cuboid,
                        checkpoint=CheckpointManager(checkpoint_dir, every=CHECKPOINT_EVERY),
                        monitor=True,
                    )
                    fitted = time.perf_counter()
                    save_params(model.params_, work / f"model-{index}.npz")
                    saved = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
                    result.failed += 1
                    result.notes.append(f"fit {index} failed: {type(exc).__name__}: {exc}")
                    fit_s.append(time.perf_counter() - start)
                    continue
                fit_s.append(fitted - start)
                fresh_s.append(saved - start)
                _check_fit(result, model, cuboid, checkpoint_dir)

        nnz = cuboid.nnz
        fits_ms = np.array(fit_s) * 1e3
        q = tail_quantile(len(fits_ms))
        result.figure("setup_s", median(setups), "s", f"RatingCuboid.from_arrays, median of {SETUP_REPEATS}")
        result.figure("ratings_per_s", nnz * ITERATIONS / median(fit_s), "ratings/s")
        result.figure("fit_p50_ms", median(fits_ms), "ms", f"n={len(fits_ms)} fits of {ITERATIONS} iterations, nnz={nnz}")
        result.figure("fit_tail_ms", percentile(fits_ms, q), "ms", f"p{q:.1f}")
        result.figure("freshness_s", median(fresh_s), "s", "fit + snapshot save, median over fits")
        result.figure("error_share", ratio(result.failed, result.attempted), "ratio")
        result.figure("mem_mib", peak_rss_mib(), "MiB", "peak RSS")
        if tracer is not None:
            result.layers = em_layers(SpanTable(tracer.spans))
    finally:
        patches.restore()
    return result


def em_layers(table: SpanTable) -> dict[str, tuple[float, str]]:
    iterations = table.count("em.iter")
    per_iter = lambda name: ratio(stat(table.ms(name), "sum"), iterations)  # noqa: E731
    return {
        "em.iter_ms.p50": (stat(table.ms("em.iter"), "p50"), "ms"),
        "em.iter_ms.max": (stat(table.ms("em.iter"), "max"), "ms"),
        "em.iterations": (float(iterations), "count"),
        "em.estep_ms": (per_iter("em.estep"), "ms"),
        "em.scatter_ms": (per_iter("em.scatter"), "ms"),
        "em.scatter_calls": (ratio(table.count("em.scatter"), iterations), "count"),
        "em.mstep_ms": (per_iter("em.mstep"), "ms"),
        "robustness.health_ms": (per_iter("robustness.health"), "ms"),
        "robustness.checkpoint_ms": (stat(table.ms("robustness.checkpoint"), "p50"), "ms"),
        "robustness.checkpoints": (float(table.count("robustness.checkpoint")), "count"),
        "data.cuboid_ms": (stat(table.ms("data.cuboid"), "p50"), "ms"),
    }
