"""Tests for the Monte-Carlo simulator."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from acsql import mc_sim
from acsql.mc_sim import SimulationConfig, agreement_bound, simulate
from acsql.theory import ACParams, expected_prob


def test_config_validation():
    params = ACParams(0.5, 0.5, 0.5, 3)
    with pytest.raises(ValueError):
        SimulationConfig(params=params, trials=0)
    with pytest.raises(ValueError):
        SimulationConfig(params=params, repeats=0)
    with pytest.raises(ValueError):
        SimulationConfig(params=params, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(params=params, seed=2**64)
    # a bool is an int subclass, but not a count or a seed
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        SimulationConfig(params=params, trials=True)
    with pytest.raises(ValueError, match="repeats must be an integer >= 1"):
        SimulationConfig(params=params, repeats=True)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        SimulationConfig(params=params, seed=True)


def test_report_invariants():
    config = SimulationConfig(ACParams(0.4, 0.3, 0.2, 4), trials=5_000, repeats=7, seed=11)
    report = simulate(config)
    assert report.estimated_accuracy == sum(report.per_repeat_estimates) / 7
    assert report.abs_difference == abs(report.estimated_accuracy - report.theory_prob)
    assert report.theory_prob == expected_prob(config.params)
    assert (report.config.trials, report.config.repeats, report.config.seed) == (5_000, 7, 11)
    assert len(report.per_repeat_estimates) == 7


def test_deterministic_given_seed():
    config = SimulationConfig(ACParams(0.25, 0.25, 0.25, 5), trials=20_000, repeats=4, seed=99)
    a = simulate(config)
    b = simulate(config)
    assert a == b
    assert a.to_json() == b.to_json()
    shifted = simulate(
        SimulationConfig(ACParams(0.25, 0.25, 0.25, 5), trials=20_000, repeats=4, seed=100)
    )
    assert shifted.per_repeat_estimates != a.per_repeat_estimates


def test_impossible_actor_yields_exact_zero():
    for q, s, z in [(0.0, 0.0, 1), (0.7, 0.2, 5), (1.0, 1.0, 3)]:
        report = simulate(
            SimulationConfig(ACParams(0.0, q, s, z), trials=10_000, repeats=2, seed=5)
        )
        assert report.estimated_accuracy == 0.0


def test_perfect_actor_yields_exact_one():
    report = simulate(
        SimulationConfig(ACParams(1.0, 0.3, 0.0, 4), trials=10_000, repeats=2, seed=5)
    )
    assert report.estimated_accuracy == 1.0


@pytest.mark.parametrize(
    "p,q,s,z",
    [
        (0.25, 0.25, 0.25, 5),
        (0.75, 0.25, 0.25, 3),
        (0.75, 0.75, 0.75, 5),
        (0.25, 0.75, 0.25, 2),
        (0.5, 0.3, 0.1, 4),
    ],
)
def test_agrees_with_closed_form(p, q, s, z):
    params = ACParams(p, q, s, z)
    config = SimulationConfig(params, trials=200_000, repeats=5, seed=1234)
    report = simulate(config)
    bound = agreement_bound(report.theory_prob, config.trials, config.repeats)
    assert report.abs_difference <= bound


def test_single_cell_at_full_trial_count():
    # 10^6 trials at a single repeat already pins the estimate to ~1e-3.
    config = SimulationConfig(ACParams(0.75, 0.25, 0.25, 3), trials=1_000_000, repeats=1, seed=7)
    report = simulate(config)
    assert report.estimated_accuracy == pytest.approx(0.87891, abs=2e-3)


def test_repeat_estimates_behave_independently():
    params = ACParams(0.5, 0.3, 0.2, 3)
    config = SimulationConfig(params, trials=10_000, repeats=50, seed=3)
    report = simulate(config)
    observed_std = float(np.std(report.per_repeat_estimates, ddof=1))
    prob = report.theory_prob
    expected_std = math.sqrt(prob * (1 - prob) / config.trials)
    assert expected_std / 2 <= observed_std <= expected_std * 2


def test_json_fields():
    config = SimulationConfig(ACParams(0.3, 0.2, 0.1, 2), trials=1_000, repeats=2, seed=42)
    payload = simulate(config).to_json_dict()
    assert set(payload) == {
        "params",
        "trials",
        "repeats",
        "seed",
        "estimated_accuracy",
        "theory_prob",
        "abs_difference",
    }
    assert payload["params"] == {"p": 0.3, "q": 0.2, "s": 0.1, "z": 2}


def _single_block_estimate(params, trials, seed, repeat):
    """The simulator's reference algorithm: one (trials, 2z-1) block per repeat."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, repeat])))
    p, q, s, z = params.p, params.q, params.s, params.z
    draws = rng.random((trials, 2 * z - 1))
    correct = draws[:, 0::2] < p
    if z == 1:
        return float(correct[:, 0].mean())
    verdicts = draws[:, 1::2]
    checked = correct[:, : z - 1]
    accepted = np.where(checked, verdicts >= s, verdicts < q)
    first_accept = accepted.argmax(axis=1)
    emitted_correct = np.where(
        accepted.any(axis=1),
        checked[np.arange(trials), first_accept],
        correct[:, z - 1],
    )
    return float(emitted_correct.mean())


@pytest.mark.parametrize("cpus", [None, 1, 3])
@pytest.mark.parametrize("z", [1, 2, 7, 20, 60])
def test_chunked_pool_matches_single_block_bit_for_bit(monkeypatch, z, cpus):
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # rows per chunk: past z = 20 the draw cap, not _CHUNK_ROWS, sets it
    chunk = min(mc_sim._CHUNK_ROWS, mc_sim._CHUNK_DRAWS // (2 * z - 1))
    params = ACParams(0.37, 0.61, 0.23, z)
    for trials in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        config = SimulationConfig(params, trials=trials, repeats=3, seed=2024 + z)
        expected = tuple(_single_block_estimate(params, trials, config.seed, r) for r in range(3))
        report = simulate(config)
        assert report.per_repeat_estimates == expected, trials
        assert report.estimated_accuracy == sum(expected) / 3, trials


@pytest.mark.parametrize(
    "p,q,s",
    [
        (0.37, 1.0, 0.0),  # every trial stops at its first verdict
        (0.37, 0.0, 1.0),  # no trial ever stops
        (0.0, 0.61, 0.23),
        (1.0, 0.61, 0.23),
    ],
)
@pytest.mark.parametrize("z", [2, 20])
def test_degenerate_cells_match_single_block_bit_for_bit(p, q, s, z):
    chunk = mc_sim._CHUNK_ROWS
    params = ACParams(p, q, s, z)
    for trials in (1, chunk - 1, chunk + 1, 2 * chunk + 3):
        config = SimulationConfig(params, trials=trials, repeats=2, seed=77 + z)
        expected = tuple(_single_block_estimate(params, trials, config.seed, r) for r in range(2))
        assert simulate(config).per_repeat_estimates == expected, trials


def test_peak_allocation_does_not_grow_with_trials():
    config = SimulationConfig(ACParams(0.5, 0.3, 0.2, 20), trials=1_000_000, repeats=2, seed=1)
    tracemalloc.start()
    try:
        simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A single (trials, 2z-1) float64 block would be 312 MB here.
    assert peak < 64 * 2**20


def test_peak_allocation_does_not_grow_with_z():
    # p = q = s = 0: no trial ever stops, so every one loops to z
    config = SimulationConfig(ACParams(0.0, 0.0, 0.0, 400), trials=16_384, repeats=1, seed=1)
    tracemalloc.start()
    try:
        simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A (16384, 799) float64 block would be 100 MiB here.
    assert peak < 8 * 2**20


def test_failing_repeat_cancels_pending_repeats_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    real_rng = mc_sim._repeat_rng

    def failing_rng(seed, repeat):
        started.append(repeat)
        if repeat == 0:
            raise RuntimeError("repeat 0 failed")
        return real_rng(seed, repeat)

    monkeypatch.setattr(mc_sim, "_repeat_rng", failing_rng)
    threads_before = threading.active_count()
    config = SimulationConfig(ACParams(0.5, 0.3, 0.2, 5), trials=200_000, repeats=40, seed=1)
    with pytest.raises(RuntimeError, match="repeat 0 failed"):
        simulate(config)
    assert threading.active_count() == threads_before
    assert len(started) < config.repeats
