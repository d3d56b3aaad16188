"""Partitioned (MapReduce-style) EM for TCAM.

Section 3.2.3 of the paper notes that the EM procedure "can be easily
expressed in MapReduce" because the E-step factorises over rating entries:
each mapper computes posterior responsibilities and *partial sufficient
statistics* for its shard of the cuboid, a reducer sums the partials, and
the M-step normalises the sums. This module implements exactly that
decomposition. With a fixed seed it reproduces the serial
:class:`~repro.core.ttcam.TTCAM` fit up to floating-point summation order,
which the test suite verifies.

The shard map runs sequentially by default (or in a thread pool with
``workers > 1``; the heavy numpy kernels release the GIL), but the point
is the *algebraic* decomposition — any map/reduce substrate can run it.

Like a real MapReduce substrate, the shard map tolerates worker
failures: a crashed or timed-out shard is re-executed with exponential
backoff (the mapper is a pure function of the broadcast parameters, so
re-execution is bit-deterministic), and a shard that keeps failing
raises :class:`~repro.robustness.errors.ShardFailedError`. The EM loop
itself runs through :func:`~repro.core.em.run_em`, so partitioned fits
get the same checkpoint/resume and health-rollback machinery as the
serial models.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import CheckpointManager
from ..robustness.errors import ShardFailedError
from ..robustness.faults import fault_point
from ..robustness.health import HealthMonitor, rejitter_arrays
from ..robustness.retry import run_with_retry
from ..typing import ArrayState, FloatArray, IntArray
from .em import (
    EMTrace,
    prepare_fit_controls,
    random_stochastic,
    restore_state,
    run_em,
    scatter_sum_1d,
)
from .engine import DEFAULT_ENGINE, BlockedEStep, EMEngineConfig, TTCAMKernel
from .params import TTCAMParameters
from .ttcam import ttcam_m_step
from .weighting import apply_item_weighting

_STATE_KEYS = ("theta", "phi", "theta_time", "phi_time", "lambda_u")
_STOCHASTIC = ("theta", "phi", "theta_time", "phi_time")

#: One contiguous slice of cuboid entries: (users, intervals, items, scores).
Shard = tuple[IntArray, IntArray, IntArray, FloatArray]


class PartitionedTTCAM:
    """TTCAM fit by partitioned EM (map over shards, reduce, normalise).

    Accepts the same hyper-parameters as :class:`~repro.core.ttcam.TTCAM`
    plus the number of shards, optional thread workers, and the shard
    fault-tolerance controls:

    Parameters
    ----------
    max_shard_retries:
        Re-executions allowed per shard per iteration before the fit
        fails with :class:`~repro.robustness.errors.ShardFailedError`.
    retry_backoff:
        Base of the deterministic exponential backoff (seconds) between
        shard re-executions.
    shard_timeout:
        Per-shard wall-clock budget (seconds) in threaded mode; a shard
        exceeding it is treated as failed and re-executed. ``None``
        disables the timeout. (Sequential mode cannot preempt a running
        shard, so the timeout applies only with ``workers > 1``.)
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of the blocked engine
        that runs each shard's E-step (``block_size`` and ``sanitize``
        apply within the shard); ``engine.threads`` provides the default
        shard-map worker count when ``workers`` is left at 1. Mapper
        engines are constructed per call, keeping the mapper a pure
        function so shard retry/re-execution stays bit-deterministic.
    """

    def __init__(
        self,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        weighted: bool = False,
        seed: int = 0,
        num_partitions: int = 4,
        workers: int = 1,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        shard_timeout: float | None = None,
        engine: EMEngineConfig = DEFAULT_ENGINE,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_shard_retries < 0:
            raise ValueError(f"max_shard_retries must be >= 0, got {max_shard_retries}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive, got {shard_timeout}")
        self.num_user_topics = num_user_topics
        self.num_time_topics = num_time_topics
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.weighted = weighted
        self.seed = seed
        self.num_partitions = num_partitions
        self.workers = workers if workers != 1 else engine.threads
        self.engine = engine
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff
        self.shard_timeout = shard_timeout
        self.params_: TTCAMParameters | None = None
        self.trace_: EMTrace | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-TTCAM(partitioned)" if self.weighted else "TTCAM(partitioned)"

    def _map_shard(
        self, shard: Shard, state: ArrayState, shape: tuple[int, int, int]
    ) -> tuple[ArrayState, float]:
        """E-step + partial sufficient statistics for one shard (the mapper).

        A throwaway single-threaded engine per call keeps the mapper pure
        (safe to re-execute concurrently with a straggling first attempt)
        while still reusing buffers across the shard's blocks; threads
        apply at the shard-map level.
        """
        kernel = TTCAMKernel(*shard, shape, self.num_user_topics, self.num_time_topics)
        return BlockedEStep(kernel, replace(self.engine, threads=1)).compute(state)

    def fit(
        self,
        cuboid: RatingCuboid,
        checkpoint: CheckpointManager | str | None = None,
        resume_from: CheckpointManager | str | None = None,
        monitor: HealthMonitor | bool | None = None,
    ) -> "PartitionedTTCAM":
        """Fit by partitioned EM; equivalent to the serial TTCAM fit.

        ``checkpoint``/``resume_from``/``monitor`` behave as in
        :meth:`repro.core.ttcam.TTCAM.fit`, so a run killed between
        iterations (for instance by a permanently failing shard) resumes
        bit-compatibly from its last checkpoint.
        """
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        if self.weighted:
            cuboid = apply_item_weighting(cuboid)

        n, t_dim, v_dim = cuboid.shape
        k1, k2 = self.num_user_topics, self.num_time_topics
        manager, restored, health = prepare_fit_controls(
            checkpoint, resume_from, monitor, self.default_monitor, self._meta()
        )

        if restored is not None:
            state, start, trace = restore_state(restored, _STATE_KEYS)
        else:
            # Same initialisation order as the serial TTCAM for a fixed seed.
            rng = np.random.default_rng(self.seed)
            state = {
                "theta": random_stochastic(rng, n, k1),
                "phi": random_stochastic(rng, k1, v_dim),
                "theta_time": random_stochastic(rng, t_dim, k2),
                "phi_time": random_stochastic(rng, k2, v_dim),
                "lambda_u": np.full(n, 0.5),
            }
            start, trace = 0, EMTrace()

        shards = self._partition(cuboid)
        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, n)
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        def step(current: ArrayState) -> tuple[ArrayState, float]:
            """One partitioned EM iteration: map shards, reduce, normalise."""
            partials = self._run_map(shards, current, cuboid.shape)
            total, log_likelihood = partials[0]
            for stats, partial_ll in partials[1:]:
                for name, array in total.items():
                    array += stats[name]
                log_likelihood += partial_ll
            lam = total["lam_num"] / safe_user_mass  # Eq. 11
            return ttcam_m_step(total, lam, self.smoothing), log_likelihood

        state, trace = run_em(
            state,
            step,
            max_iter=self.max_iter,
            tol=self.tol,
            trace=trace,
            start_iteration=start,
            checkpoints=manager,
            monitor=health,
            rejitter=self._rejitter,
        )

        self.params_ = TTCAMParameters(
            theta=state["theta"],
            phi=state["phi"],
            theta_time=state["theta_time"],
            phi_time=state["phi_time"],
            lambda_u=state["lambda_u"],
        )
        self.trace_ = trace
        return self

    def _meta(self) -> dict[str, object]:
        """Identifying configuration stored in (and checked against) checkpoints."""
        return {
            "model": "ttcam",  # partitioned EM is bit-compatible with serial TTCAM
            "k1": self.num_user_topics,
            "k2": self.num_time_topics,
            "weighted": self.weighted,
            "seed": self.seed,
        }

    def default_monitor(self) -> HealthMonitor:
        """The numerical-health invariants of a TTCAM state."""
        return HealthMonitor(
            stochastic=_STOCHASTIC,
            unit_interval=("lambda_u",),
            no_collapse=("theta", "theta_time"),
        )

    def _rejitter(self, state: ArrayState, recovery: int) -> ArrayState:
        """Seeded perturbation applied to a rolled-back state."""
        return rejitter_arrays(
            state, _STOCHASTIC, ("lambda_u",), seed=self.seed + 7919 * recovery
        )

    def _partition(self, cuboid: RatingCuboid) -> list[Shard]:
        """Split the cuboid's entries into contiguous shards."""
        bounds = np.linspace(0, cuboid.nnz, self.num_partitions + 1).astype(int)
        shards: list[Shard] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                shards.append(
                    (
                        cuboid.users[lo:hi],
                        cuboid.intervals[lo:hi],
                        cuboid.items[lo:hi],
                        cuboid.scores[lo:hi],
                    )
                )
        return shards

    def _run_map(
        self, shards: list[Shard], state: ArrayState, shape: tuple[int, int, int]
    ) -> list[tuple[ArrayState, float]]:
        """Run the mapper over all shards with per-shard retry.

        The mapper is a pure function of the broadcast parameters, so a
        re-executed shard reproduces its statistics bit-for-bit and the
        reduce (performed in fixed shard order by the caller) is
        unaffected by which attempt finally succeeded.
        """

        def attempt_shard(
            index: int, shard: Shard, attempt: int
        ) -> tuple[ArrayState, float]:
            fault_point("parallel.shard", shard=index, attempt=attempt)
            return self._map_shard(shard, state, shape)

        def guarded(index: int, shard: Shard) -> tuple[ArrayState, float]:
            return run_with_retry(
                lambda attempt: attempt_shard(index, shard, attempt),
                retries=self.max_shard_retries,
                backoff=self.retry_backoff,
                label=f"E-step shard {index}",
                error=ShardFailedError,
            )

        if self.workers == 1 or len(shards) == 1:
            return [guarded(i, s) for i, s in enumerate(shards)]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(attempt_shard, i, s, 0) for i, s in enumerate(shards)
            ]
            results: list[tuple[ArrayState, float] | None] = [None] * len(shards)
            stragglers: list[int] = []
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result(timeout=self.shard_timeout)
                except (Exception, FutureTimeoutError):
                    # Crashed or overran its budget — re-execute below.
                    stragglers.append(index)
            for index in stragglers:
                # Attempt 0 already failed; replay it against the retry
                # budget so fault plans keyed on attempt numbers line up.
                results[index] = guarded(index, shards[index])
            assert all(result is not None for result in results)
            return [result for result in results if result is not None]

    def score_items(self, user: int, interval: int) -> FloatArray:
        """Ranking scores for every item, as in the serial model."""
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_.score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Expanded query vector / topic matrix, as in the serial model."""
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_.query_space(user, interval)

    def matrix_cache_key(self, interval: int) -> str:
        """The stacked topic–item matrix is query-independent (as in TTCAM)."""
        return "static"
