"""Monte-Carlo simulation of the actor-critic loop.

Each trial plays the loop with a coin-flip actor and a coin-flip critic:
at iteration i the actor draw u decides correctness (correct iff u < p);
at iterations 1..z-1 a second draw v decides the verdict (a correct
candidate is rejected iff v < s, a wrong one accepted iff v < q); an
accept verdict stops the trial, and the z-th generation is emitted with
no verdict. The estimate is the fraction of trials whose emitted
candidate was correct, averaged over independent repeats.

Trials are exchangeable, so the sweep keeps no trial's identity: it
counts the trials still looping and, at each iteration, draws the two
uniforms of those trials only. It ends once none is looping, so a repeat
draws about 2/(1 - A) uniforms per trial, where A is the reject
probability, not 2z - 1; the same code serves every z, z = 1 included.

Determinism contract
--------------------
Repeat r uses a PCG64 generator seeded with SeedSequence([seed, r]), a
pure function of the config. Within a repeat, iteration i < z consumes
the rows of an (n, 2) uniform block, one (correctness draw, verdict draw)
row for each of the n trials still looping; the z-th generation consumes
n more uniforms, one correctness draw per trial still looping. Each block
is drawn in pieces of at most _CHUNK_ROWS rows of one stream; PCG64 fills
row-major, so the pieces are exactly the rows of the block, and the
output does not depend on the piece size. Memory per repeat is one piece,
whatever trials and z are. Repeats run concurrently on a thread pool, and
the final mean reduces per-repeat estimates in ascending repeat order.
Identical configs therefore produce bit-identical reports, independent
of machine, thread count or process count.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .theory import ACParams, check_int, expected_prob

_MAX_SEED = 2**64
# Rows per piece, which bound a repeat's memory: a z = 20, 10^6 x 2 run
# peaks at 1.05 MiB traced (2.1 MiB at 32k). On a 2-core Xeon the 48
# perfbench model cells took 0.50-0.53 s at 16k rows against 0.47-0.49 s at
# 32k in interleaved runs, 0.73 s at 8k, but in the model benchmark 32k
# read the same throughput and 1.6 MB more peak RSS.
_CHUNK_ROWS = 16_384


@dataclass(frozen=True)
class SimulationConfig:
    params: ACParams
    trials: int = 1_000_000
    repeats: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.trials, "trials")
        check_int(self.repeats, "repeats")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimulationReport:
    estimated_accuracy: float
    theory_prob: float
    abs_difference: float
    per_repeat_estimates: tuple[float, ...]
    config: SimulationConfig

    def to_json_dict(self) -> dict:
        return {
            **asdict(self.config),
            "estimated_accuracy": self.estimated_accuracy,
            "theory_prob": self.theory_prob,
            "abs_difference": self.abs_difference,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _repeat_rng(seed: int, repeat: int) -> np.random.Generator:
    """Child generator for one repeat; a pure function of (seed, repeat)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, repeat])))


def _run_repeat(params: ACParams, trials: int, seed: int, repeat: int) -> float:
    """Fraction of trials whose emitted candidate is correct, for one repeat.

    Iteration i < z draws a (correctness, verdict) pair for each of the n
    trials still looping, as the rows of one (n, 2) block taken in pieces
    of at most _CHUNK_ROWS rows. A correct accept is a hit, and any accept
    stops the trial; the rest are counted, not kept. The z-th generation
    draws n correctness uniforms, and the sweep ends early once n = 0.
    """
    p, q, s = params.p, params.q, params.s
    rng = _repeat_rng(seed, repeat)
    looping, hits = trials, 0
    for _ in range(params.z - 1):
        stopped = 0
        for start in range(0, looping, _CHUNK_ROWS):
            u, verdict = rng.random((min(_CHUNK_ROWS, looping - start), 2)).T
            correct = u < p
            hit = np.count_nonzero(correct & (verdict >= s))
            hits += hit
            stopped += hit + np.count_nonzero(~correct & (verdict < q))
        looping -= stopped
        if not looping:
            break
    for start in range(0, looping, _CHUNK_ROWS):
        hits += np.count_nonzero(rng.random(min(_CHUNK_ROWS, looping - start)) < p)
    return hits / trials


def simulate(config: SimulationConfig) -> SimulationReport:
    """Estimate the emitted-correctness probability by simulation."""
    run = partial(_run_repeat, config.params, config.trials, config.seed)
    workers = min(config.repeats, os.cpu_count() or 1)
    # A repeat that raises cancels those not yet started; leaving the block
    # joins the rest, so no thread outlives the call.
    with ThreadPoolExecutor(workers) as pool:
        estimates = list(pool.map(run, range(config.repeats)))
    estimated = sum(estimates) / config.repeats
    theory = expected_prob(config.params)
    return SimulationReport(
        estimated_accuracy=estimated,
        theory_prob=theory,
        abs_difference=abs(estimated - theory),
        per_repeat_estimates=tuple(estimates),
        config=config,
    )


def agreement_bound(prob: float, trials: int, repeats: int) -> float:
    """Three-sigma binomial bound for |simulation - closed form| plus slack."""
    n = trials * repeats
    return 3.0 * float(np.sqrt(max(prob * (1.0 - prob), 0.0) / n)) + 1e-6
