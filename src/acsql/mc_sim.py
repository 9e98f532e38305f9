"""Monte-Carlo simulation of the actor-critic loop.

Each trial plays the loop with a coin-flip actor and a coin-flip critic:
at iteration i the actor draw u decides correctness (correct iff u < p);
at iterations 1..z-1 a second draw v decides the verdict (a correct
candidate is rejected iff v < s, a wrong one accepted iff v < q); an
accept verdict stops the trial, and the z-th generation is emitted with
no verdict. The estimate is the fraction of trials whose emitted
candidate was correct, averaged over independent repeats.

Hits are counted by one sweep over iterations 1..z-1 that reads the two
draws of an iteration only for the trials still looping, and ends once
none is, so a chunk costs about 1/(1 - A) column pairs, where A is the
reject probability, rather than z - 1; the same code serves every z,
z = 1 included.

Determinism contract
--------------------
Repeat r uses a PCG64 generator seeded with SeedSequence([seed, r]), a
pure function of the config. Within a repeat, trial t consumes row t of
a (trials, 2z-1) uniform matrix laid out per trial iteration as
(correctness draw, verdict draw, correctness draw, ...). The matrix is
drawn in row chunks of one stream; PCG64 fills row-major, so the chunks
are exactly the rows of one big block. A chunk holds at most
_CHUNK_DRAWS draws (4.9 MiB), so memory depends on neither trials nor z
until z = 319,488, past which a single row exceeds the cap. Repeats run
concurrently on a thread pool, and the final mean reduces per-repeat
estimates in ascending repeat order. Identical configs therefore produce
bit-identical reports, independent of machine, thread count or process count.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .theory import ACParams, check_int, expected_prob

_MAX_SEED = 2**64
# Trials per draw. The (rows, 2z-1) draw block is the memory high-water
# mark: 5 MB at z = 20. On a 2-core Xeon the 48 perfbench model cells take
# 1.42, 1.43 and 1.46 s at 16k, 32k and 64k rows (medians of 7), 11% more
# at 8k; a z = 20, 10^6 x 2 run peaks at 10.6 MB here, 21.1 MB at 32k.
_CHUNK_ROWS = 16_384
# Draws per block: the z = 20 block's, so a larger z draws fewer rows at once.
_CHUNK_DRAWS = _CHUNK_ROWS * 39


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


def _count_hits(params: ACParams, draws: np.ndarray) -> int:
    """Number of rows of draws whose emitted candidate is correct.

    One sweep over iterations 1..z-1 that reads only the trials still
    looping. For each of them, at holds the flat offset of its next
    correctness draw, so iteration i reads columns 2i-2 and 2i-1 of those
    rows alone. A trial stops at its first accept and is a hit if that
    draft was correct; a trial that never stops is a hit if its last
    column is < p. The looping share shrinks by the reject probability at
    each step, and the sweep ends once no trial is looping, so the work
    follows the expected number of verdicts, not z; at z = 1 the loop
    body never runs.
    """
    p, q, s = params.p, params.q, params.s
    flat = draws.ravel()
    at = np.arange(0, flat.size, draws.shape[1])
    hits = 0
    for _ in range(params.z - 1):
        correct = flat.take(at) < p
        verdict = flat.take(at + 1)
        hit = correct & (verdict >= s)
        hits += np.count_nonzero(hit)
        at = at[~(hit | (verdict < q) & ~correct)] + 2
        if not at.size:
            break
    return hits + int(np.count_nonzero(flat.take(at) < p))


def _run_repeat(params: ACParams, trials: int, seed: int, repeat: int) -> float:
    rng = _repeat_rng(seed, repeat)
    width = 2 * params.z - 1
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_DRAWS // width))
    hits = sum(
        _count_hits(params, rng.random((min(rows, trials - start), width)))
        for start in range(0, trials, rows)
    )
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
