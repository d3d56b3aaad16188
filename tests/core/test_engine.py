"""Tests of the blocked, thread-parallel EM execution engine.

Two contracts are pinned (see the :mod:`repro.core.engine` docstring):

* versus an independent single-pass E-step written from the paper's
  equations (the ``_*_reference`` functions below, one per kernel) the
  engine agrees to ``allclose(atol=1e-12)`` — blocking re-associates
  floating-point sums, so bit-identity is not promised. Every fitter's
  full fit likewise matches a :func:`~repro.core.em.run_em` fit driven by
  the reference step;
* for a **fixed** configuration the engine is bit-deterministic, across
  repeated calls, fresh engine instances, and thread counts ≥ 1 with the
  same block→worker grid — and therefore under checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TimeTopicModel, UserTopicModel
from repro.core import ITCAM, TTCAM, PartitionedTTCAM
from repro.core.em import (
    EPS,
    normalize_rows,
    random_stochastic,
    run_em,
    scatter_sum,
    scatter_sum_1d,
)
from repro.core.engine import (
    DEFAULT_BLOCK_SIZE,
    BlockedEStep,
    EMEngineConfig,
    ITCAMKernel,
    TimeTopicKernel,
    TTCAMKernel,
    UserTopicKernel,
)
from repro.robustness import CheckpointManager, FaultInjector, InjectedFault

ATOL = 1e-12


class TestEMEngineConfig:
    def test_defaults(self):
        config = EMEngineConfig()
        assert config.block_size is None
        assert config.threads == 1
        assert config.sanitize is False
        assert [field.name for field in fields(EMEngineConfig)] == [
            "block_size",
            "threads",
            "sanitize",
        ]

    @pytest.mark.parametrize(
        "fitter",
        [
            TTCAM(),
            ITCAM(),
            PartitionedTTCAM(),
            UserTopicModel(),
            TimeTopicModel(),
        ],
        ids=lambda fitter: type(fitter).__name__,
    )
    def test_every_fitter_defaults_to_the_engine(self, fitter):
        assert fitter.engine == EMEngineConfig()

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_nonpositive_block_size_rejected(self, block_size):
        with pytest.raises(ValueError, match="block_size"):
            EMEngineConfig(block_size=block_size)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_nonpositive_threads_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            EMEngineConfig(threads=threads)

    def test_resolved_block_size_default_caps_at_dataset(self):
        config = EMEngineConfig()
        assert config.resolved_block_size(100) == 100
        assert config.resolved_block_size(10**9) == DEFAULT_BLOCK_SIZE

    def test_resolved_block_size_explicit(self):
        assert EMEngineConfig(block_size=64).resolved_block_size(1000) == 64
        assert EMEngineConfig(block_size=64).resolved_block_size(10) == 10


# ---------------------------------------------------------------------------
# Independent single-pass reference E-steps, one per kernel, written from
# the paper's equations without the engine's blocking or buffer reuse.
# ---------------------------------------------------------------------------


def _ttcam_reference(triples, shape, state):
    """Single-pass TTCAM E-step (Eqs. 2, 4–6 and 12–14)."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    joint_z = state["theta"][u] * state["phi"][:, v].T
    p_int = joint_z.sum(axis=1)
    joint_x = state["theta_time"][t] * state["phi_time"][:, v].T
    p_ctx = joint_x.sum(axis=1)
    lam = state["lambda_u"][u]
    denom = lam * p_int + (1 - lam) * p_ctx + EPS
    ps1 = lam * p_int / denom
    c_resp_z = c[:, None] * joint_z * (ps1 / (p_int + EPS))[:, None]
    c_resp_x = c[:, None] * joint_x * ((1 - ps1) / (p_ctx + EPS))[:, None]
    stats = {
        "theta_num": scatter_sum(u, c_resp_z, n),
        "phi_num": scatter_sum(v, c_resp_z, v_dim),
        "theta_time_num": scatter_sum(t, c_resp_x, t_dim),
        "phi_time_num": scatter_sum(v, c_resp_x, v_dim),
        "lam_num": scatter_sum_1d(u, c * ps1, n),
    }
    return stats, float(np.dot(c, np.log(denom)))


def _itcam_reference(triples, shape, state):
    """Single-pass ITCAM E-step (Eqs. 2, 4–6; the counts of Eq. 10)."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    joint = state["theta"][u] * state["phi"][:, v].T
    p_int = joint.sum(axis=1)
    p_ctx = state["theta_time"][t, v]
    lam = state["lambda_u"][u]
    denom = lam * p_int + (1 - lam) * p_ctx + EPS
    ps1 = lam * p_int / denom
    c_resp = c[:, None] * joint * (ps1 / (p_int + EPS))[:, None]
    stats = {
        "theta_num": scatter_sum(u, c_resp, n),
        "phi_num": scatter_sum(v, c_resp, v_dim),
        "time_num": np.bincount(
            t * v_dim + v, weights=c * (1 - ps1), minlength=t_dim * v_dim
        ),
        "lam_num": scatter_sum_1d(u, c * ps1, n),
    }
    return stats, float(np.dot(c, np.log(denom)))


def _plsa_reference(docs, num_docs, items, c, doc_topics, topic_items, background, weight):
    """Single-pass E-step of background-smoothed PLSA over ``docs``."""
    joint = (1 - weight) * doc_topics[docs] * topic_items[:, items].T
    denom = weight * background[items] + joint.sum(axis=1) + EPS
    c_resp = joint * (c / denom)[:, None]
    stats = {
        "theta_num": scatter_sum(docs, c_resp, num_docs),
        "phi_num": scatter_sum(items, c_resp, topic_items.shape[1]),
    }
    return stats, float(np.dot(c, np.log(denom)))


def _ut_reference(triples, shape, state, background, weight=0.1):
    """Single-pass UT E-step: user documents, time ignored."""
    u, _, v, c = triples
    return _plsa_reference(
        u, shape[0], v, c, state["theta"], state["phi"], background, weight
    )


def _tt_reference(triples, shape, state, background, weight=0.1):
    """Single-pass TT E-step: interval documents, users ignored."""
    _, t, v, c = triples
    return _plsa_reference(
        t, shape[1], v, c, state["theta_time"], state["phi_time"], background, weight
    )


# ---------------------------------------------------------------------------
# Kernel-level equivalence on random problems
# ---------------------------------------------------------------------------

N, T, V, K1, K2 = 11, 5, 17, 3, 4
SHAPE = (N, T, V)
BACKGROUND = np.arange(1.0, V + 1) / np.arange(1.0, V + 1).sum()


def _dirichlet(rng, rows, cols):
    return rng.dirichlet(np.ones(cols), size=rows)


@dataclass(frozen=True)
class _Family:
    """One model family's kernel, random valid state and reference."""

    kernel: Callable
    state: Callable
    reference: Callable


FAMILIES = {
    "ttcam": _Family(
        kernel=lambda triples: TTCAMKernel(*triples, SHAPE, K1, K2),
        state=lambda rng: {
            "theta": _dirichlet(rng, N, K1),
            "phi": _dirichlet(rng, K1, V),
            "theta_time": _dirichlet(rng, T, K2),
            "phi_time": _dirichlet(rng, K2, V),
            "lambda_u": rng.random(N),
        },
        reference=_ttcam_reference,
    ),
    "itcam": _Family(
        kernel=lambda triples: ITCAMKernel(*triples, SHAPE, K1),
        state=lambda rng: {
            "theta": _dirichlet(rng, N, K1),
            "phi": _dirichlet(rng, K1, V),
            "theta_time": _dirichlet(rng, T, V),
            "lambda_u": rng.random(N),
        },
        reference=_itcam_reference,
    ),
    "ut": _Family(
        kernel=lambda triples: UserTopicKernel(*triples, SHAPE, K1, BACKGROUND, 0.1),
        state=lambda rng: {"theta": _dirichlet(rng, N, K1), "phi": _dirichlet(rng, K1, V)},
        reference=partial(_ut_reference, background=BACKGROUND),
    ),
    "tt": _Family(
        kernel=lambda triples: TimeTopicKernel(*triples, SHAPE, K2, BACKGROUND, 0.1),
        state=lambda rng: {
            "theta_time": _dirichlet(rng, T, K2),
            "phi_time": _dirichlet(rng, K2, V),
        },
        reference=partial(_tt_reference, background=BACKGROUND),
    ),
}


def _random_problem(family, seed, num_ratings):
    """Random triples + a random valid state of ``family``."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, N, num_ratings)
    t = rng.integers(0, T, num_ratings)
    v = rng.integers(0, V, num_ratings)
    c = rng.random(num_ratings) + 0.25
    return (u, t, v, c), family.state(rng)


def _engine_estep(family, triples, state, config):
    return BlockedEStep(family.kernel(triples), config).compute(state)


def _assert_matches_reference(family, triples, state, config, label):
    expected, expected_ll = family.reference(triples, SHAPE, state)
    stats, ll = _engine_estep(family, triples, state, config)
    assert ll == pytest.approx(expected_ll, abs=1e-9), label
    assert stats.keys() == expected.keys(), label
    for name, array in expected.items():
        np.testing.assert_allclose(
            stats[name], array, rtol=0, atol=ATOL, err_msg=f"{label}: {name}"
        )


class TestBlockedEquivalence:
    """Property: every kernel's blocked/threaded statistics match its
    single-pass reference for any block grid — blocks smaller than, equal
    to and larger than R, R not divisible by the block size, any thread
    count."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**31 - 1),
        num_ratings=st.integers(1, 400),
        block_size=st.one_of(st.none(), st.integers(1, 500)),
        threads=st.integers(1, 5),
    )
    def test_matches_reference(self, family, seed, num_ratings, block_size, threads):
        triples, state = _random_problem(FAMILIES[family], seed, num_ratings)
        config = EMEngineConfig(block_size=block_size, threads=threads)
        _assert_matches_reference(FAMILIES[family], triples, state, config, family)

    @pytest.mark.parametrize(
        "block_size",
        [1, 7, 100, 250, 251, 1000],  # < R, R-not-divisible, = R, > R
    )
    def test_block_grid_edge_cases(self, block_size):
        config = EMEngineConfig(block_size=block_size, threads=3)
        for name, family in FAMILIES.items():
            triples, state = _random_problem(family, 3, 250)
            _assert_matches_reference(family, triples, state, config, name)

    def test_zero_ratings_rejected(self):
        family = FAMILIES["ttcam"]
        triples, _ = _random_problem(family, 0, 1)
        empty = tuple(arr[:0] for arr in triples)
        with pytest.raises(ValueError, match="zero ratings"):
            BlockedEStep(family.kernel(empty), EMEngineConfig())


class TestDeterminism:
    def test_repeated_compute_is_bit_identical(self):
        family = FAMILIES["ttcam"]
        triples, state = _random_problem(family, 9, 300)
        estep = BlockedEStep(family.kernel(triples), EMEngineConfig(block_size=64, threads=3))
        first, ll1 = estep.compute(state)
        first = {name: array.copy() for name, array in first.items()}
        second, ll2 = estep.compute(state)
        assert ll1 == ll2
        for name, array in first.items():
            np.testing.assert_array_equal(array, second[name], err_msg=name)

    def test_fresh_engine_is_bit_identical(self):
        family = FAMILIES["ttcam"]
        triples, state = _random_problem(family, 9, 300)
        config = EMEngineConfig(block_size=64, threads=4)
        a, ll_a = _engine_estep(family, triples, state, config)
        b, ll_b = _engine_estep(family, triples, state, config)
        assert ll_a == ll_b
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


# ---------------------------------------------------------------------------
# Full fits versus run_em driven by the reference E-step
# ---------------------------------------------------------------------------

SMOOTHING = 1e-6  # the fitters' default
ENGINE = EMEngineConfig(block_size=500, threads=2)


def _triples(cuboid):
    return cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores


def _reference_fit(cuboid, state, reference, m_step, max_iter):
    """An EM fit whose every E-step is ``reference``, through ``run_em``."""

    def step(current):
        stats, log_likelihood = reference(_triples(cuboid), cuboid.shape, current)
        return m_step(stats), log_likelihood

    return run_em(state, step, max_iter=max_iter, tol=1e-5)


def _safe_user_mass(cuboid):
    mass = scatter_sum_1d(cuboid.users, cuboid.scores, cuboid.shape[0])
    return np.where(mass <= 0, 1.0, mass)


def _ttcam_reference_fit(cuboid, k1, k2, max_iter, seed, personalized_lambda=True):
    n, t_dim, v_dim = cuboid.shape
    rng = np.random.default_rng(seed)
    state = {
        "theta": random_stochastic(rng, n, k1),
        "phi": random_stochastic(rng, k1, v_dim),
        "theta_time": random_stochastic(rng, t_dim, k2),
        "phi_time": random_stochastic(rng, k2, v_dim),
        "lambda_u": np.full(n, 0.5),
    }
    user_mass = _safe_user_mass(cuboid)

    def m_step(stats):
        if personalized_lambda:
            lam = stats["lam_num"] / user_mass  # Eq. 11
        else:
            lam = np.full(n, stats["lam_num"].sum() / cuboid.scores.sum())
        return {
            "theta": normalize_rows(stats["theta_num"], SMOOTHING),  # Eq. 8
            "phi": normalize_rows(stats["phi_num"].T, SMOOTHING),  # Eq. 9
            "theta_time": normalize_rows(stats["theta_time_num"], SMOOTHING),  # Eq. 15
            "phi_time": normalize_rows(stats["phi_time_num"].T, SMOOTHING),  # Eq. 16
            "lambda_u": np.clip(lam, 0.0, 1.0),
        }

    return _reference_fit(cuboid, state, _ttcam_reference, m_step, max_iter)


def _itcam_reference_fit(cuboid, k1, max_iter, seed):
    n, t_dim, v_dim = cuboid.shape
    rng = np.random.default_rng(seed)
    state = {
        "theta": random_stochastic(rng, n, k1),
        "phi": random_stochastic(rng, k1, v_dim),
        "theta_time": random_stochastic(rng, t_dim, v_dim),
        "lambda_u": np.full(n, 0.5),
    }
    user_mass = _safe_user_mass(cuboid)

    def m_step(stats):
        return {
            "theta": normalize_rows(stats["theta_num"], SMOOTHING),  # Eq. 8
            "phi": normalize_rows(stats["phi_num"].T, SMOOTHING),  # Eq. 9
            "theta_time": normalize_rows(
                stats["time_num"].reshape(t_dim, v_dim), SMOOTHING
            ),  # Eq. 10
            "lambda_u": np.clip(stats["lam_num"] / user_mass, 0.0, 1.0),  # Eq. 11
        }

    return _reference_fit(cuboid, state, _itcam_reference, m_step, max_iter)


def _topic_reference_fit(cuboid, reference, keys, num_docs, k, max_iter, seed):
    popularity = cuboid.item_popularity()
    background = popularity / popularity.sum()
    rng = np.random.default_rng(seed)
    state = {
        keys[0]: random_stochastic(rng, num_docs, k),
        keys[1]: random_stochastic(rng, k, cuboid.shape[2]),
    }

    def m_step(stats):
        return {
            keys[0]: normalize_rows(stats["theta_num"], SMOOTHING),
            keys[1]: normalize_rows(stats["phi_num"].T, SMOOTHING),
        }

    return _reference_fit(
        cuboid, state, partial(reference, background=background), m_step, max_iter
    )


def _assert_params_close(fitted, reference_state, atol=ATOL):
    for name, expected in reference_state.items():
        np.testing.assert_allclose(
            getattr(fitted, name), expected, rtol=0, atol=atol, err_msg=name
        )


class TestFittedModelEquivalence:
    """Full fits through the engine agree with reference-driven fits."""

    def test_ttcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = TTCAM(
            num_user_topics=3, num_time_topics=3, max_iter=12, seed=7, engine=ENGINE
        ).fit(cuboid)
        state, trace = _ttcam_reference_fit(cuboid, 3, 3, max_iter=12, seed=7)
        _assert_params_close(model.params_, state)
        np.testing.assert_allclose(
            model.trace_.log_likelihood, trace.log_likelihood, rtol=1e-12
        )

    def test_ttcam_global_lambda(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = TTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=10,
            seed=7,
            personalized_lambda=False,
            engine=ENGINE,
        ).fit(cuboid)
        state, _ = _ttcam_reference_fit(
            cuboid, 3, 3, max_iter=10, seed=7, personalized_lambda=False
        )
        _assert_params_close(model.params_, state)

    def test_itcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = ITCAM(num_user_topics=3, max_iter=12, seed=3, engine=ENGINE).fit(cuboid)
        state, trace = _itcam_reference_fit(cuboid, 3, max_iter=12, seed=3)
        _assert_params_close(model.params_, state)
        np.testing.assert_allclose(
            model.trace_.log_likelihood, trace.log_likelihood, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "model_cls, attrs",
        [
            (UserTopicModel, ("theta_", "phi_")),
            (TimeTopicModel, ("theta_time_", "phi_time_")),
        ],
    )
    def test_baselines(self, tiny_cuboid, model_cls, attrs):
        cuboid, _ = tiny_cuboid
        model = model_cls(num_topics=4, max_iter=12, seed=5, engine=ENGINE).fit(cuboid)
        keys = tuple(attr.rstrip("_") for attr in attrs)
        if model_cls is UserTopicModel:
            reference, num_docs = _ut_reference, cuboid.shape[0]
        else:
            reference, num_docs = _tt_reference, cuboid.shape[1]
        state, trace = _topic_reference_fit(
            cuboid, reference, keys, num_docs, 4, max_iter=12, seed=5
        )
        for attr, key in zip(attrs, keys):
            np.testing.assert_allclose(
                getattr(model, attr), state[key], rtol=0, atol=ATOL, err_msg=attr
            )
        np.testing.assert_allclose(
            model.trace_.log_likelihood, trace.log_likelihood, rtol=1e-12
        )

    def test_partitioned_ttcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = PartitionedTTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=8,
            seed=7,
            num_partitions=3,
            engine=EMEngineConfig(block_size=200, threads=2),
        ).fit(cuboid)
        state, _ = _ttcam_reference_fit(cuboid, 3, 3, max_iter=8, seed=7)
        # Shards already re-associate sums, so the partitioned contract is
        # a notch looser than the single-model 1e-12.
        _assert_params_close(model.params_, state, atol=1e-11)


@pytest.mark.faults
class TestResumeWithEngine:
    """Checkpoint/resume under a non-default engine config stays bit-identical."""

    def test_resumed_engine_run_is_bit_identical(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        make = lambda: TTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=20,
            seed=7,
            engine=EMEngineConfig(block_size=400, threads=2),
        )
        baseline = make().fit(cuboid)

        manager = CheckpointManager(tmp_path, every=3)
        with FaultInjector() as chaos:
            chaos.crash("em.iteration", iteration=7)
            with pytest.raises(InjectedFault):
                make().fit(cuboid, checkpoint=manager)
        assert chaos.fired == 1

        resumed = make().fit(cuboid, resume_from=manager)
        for name in ("theta", "phi", "theta_time", "phi_time", "lambda_u"):
            np.testing.assert_array_equal(
                getattr(baseline.params_, name),
                getattr(resumed.params_, name),
                err_msg=name,
            )
        assert resumed.trace_.log_likelihood == baseline.trace_.log_likelihood
