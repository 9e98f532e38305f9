"""Closed-form performance model of the actor-critic generation loop.

The loop is parameterized by four numbers:

    p   probability the actor's generation is correct
    q   critic false-negative rate (accepts a wrong candidate)
    s   critic false-positive rate (rejects a correct candidate)
    z   iteration budget: total generations; the z-th is emitted unchecked

Writing A = p*s + (1-p)*(1-q) for the per-round probability that the
critic rejects (either a correct candidate wrongly, or a wrong candidate
rightly), the probability that the emitted SQL is correct is

    prob = p*(1-s) * (1 - A^(z-1)) / (1 - A)  +  p * A^(z-1)

The first term sums the z-1 opportunities to stop on an accepted correct
candidate; the second is the exhaustion path where every verdict rejected
and the final generation happens to be correct.  Note the identity
1 - A = p*(1-s) + (1-p)*q, which this module uses as the denominator: it
is exactly zero only at degenerate parameter corners, where the geometric
sum collapses to p*(1-s)*(z-1) + p.

p, q and s may be numbers or NumPy arrays that broadcast together, so a
whole (q, s) lattice is one evaluation of `expected_prob`.

`enumerate_prob` recomputes the same quantity by brute-force enumeration
of every outcome sequence and exists purely as an independent check on
the closed form.
"""

import csv
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, TextIO

import numpy as np


def check_prob(value, name: str) -> None:
    """Raise ValueError unless value, a number or an array, lies in [0, 1] throughout."""
    array = np.asarray(value)
    # NaN fails both comparisons
    if array.dtype.kind not in "biuf" or not np.all((array >= 0.0) & (array <= 1.0)):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ACParams:
    """Parameters of one actor-critic configuration, or of a lattice of them.

    p, q, s are probabilities in [0, 1], each a number or a NumPy array
    (arrays broadcast together); z is the total generation budget
    (z >= 1). Verdicts are issued at iterations 1..z-1 only.
    """

    p: float | np.ndarray
    q: float | np.ndarray
    s: float | np.ndarray
    z: int

    def __post_init__(self) -> None:
        for name in ("p", "q", "s"):
            check_prob(getattr(self, name), name)
        if not isinstance(self.z, int) or isinstance(self.z, bool) or self.z < 1:
            raise ValueError(f"z must be an integer >= 1, got {self.z!r}")


class GainRegion(Enum):
    """Where a critic (q, s) sits relative to the q + s = 1 boundary."""

    GAIN = "gain"
    NEUTRAL = "neutral"
    LOSS = "loss"


def expected_prob(params: ACParams) -> float | np.ndarray:
    """Probability that the loop's emitted SQL is correct, per point of params.

    Uses the geometric closed form. Where the per-round reject
    probability A is exactly 1 (possible only when p*(1-s) and (1-p)*q
    are both zero) the geometric term is 0 and the tail A^(z-1) is 1, so
    the result is the direct sum p*(1-s)*(z-1) + p = p.
    """
    p, q, s, z = params.p, params.q, params.s, params.z
    reject_round = p * s + (1.0 - p) * (1.0 - q)
    # Algebraically 1 - reject_round; exact where the geometric form is singular.
    accept_round = p * (1.0 - s) + (1.0 - p) * q
    # libm's pow, as Python's ** uses: np.power may differ by an ULP on arrays
    tail = np.float_power(reject_round, z - 1)
    head = p * (1.0 - s) * (1.0 - tail)
    head = np.divide(head, accept_round, out=np.zeros_like(head), where=accept_round != 0.0)
    return head + p * tail


def enumerate_prob(params: ACParams) -> float:
    """Brute-force oracle for `expected_prob`.

    Sums the probability of every outcome sequence that emits a correct
    SQL: for each stop index i < z, all 2^(i-1) ways the first i-1
    generations were rejected (each either correct-and-rejected with
    probability p*s, or wrong-and-rejected with probability
    (1-p)*(1-q)), followed by a correct generation accepted at i; plus
    the 2^(z-1) all-rejected prefixes followed by a correct final
    generation. Costs O(2^z), so z is capped at 20.
    """
    p, q, s, z = params.p, params.q, params.s, params.z
    if z > 20:
        raise ValueError(f"exact enumeration is limited to z <= 20, got z={z}")
    correct_rejected = p * s
    wrong_rejected = (1.0 - p) * (1.0 - q)
    total = 0.0
    for stop in range(1, z):
        for prefix in itertools.product((True, False), repeat=stop - 1):
            path = 1.0
            for was_correct in prefix:
                path *= correct_rejected if was_correct else wrong_rejected
            total += path * p * (1.0 - s)
    for prefix in itertools.product((True, False), repeat=z - 1):
        path = 1.0
        for was_correct in prefix:
            path *= correct_rejected if was_correct else wrong_rejected
        total += path * p
    return total


def limit_prob(p: float, q: float, s: float) -> float:
    """Unbounded-budget limit of `expected_prob`: p*(1-s) / (p + q - pq - ps).

    Undefined when p*s + (1-p)*(1-q) = 1 (the tail never vanishes);
    raises ZeroDivisionError there.
    """
    for value, name in ((p, "p"), (q, "q"), (s, "s")):
        check_prob(value, name)
    accept_round = p * (1.0 - s) + (1.0 - p) * q
    if accept_round == 0.0:
        raise ZeroDivisionError(
            "limit undefined: p*s + (1-p)*(1-q) = 1, the loop never terminates "
            "by acceptance"
        )
    return p * (1.0 - s) / accept_round


def classify_gain(q: float, s: float) -> GainRegion:
    """Classify a critic against the q + s = 1 boundary.

    Below the boundary (q + s < 1) the loop can only improve on the bare
    actor, independent of p and z (for z > 1, p strictly between 0 and 1);
    above it, only degrade.
    """
    check_prob(q, "q")
    check_prob(s, "s")
    total = q + s
    if total < 1.0:
        return GainRegion.GAIN
    if total == 1.0:
        return GainRegion.NEUTRAL
    return GainRegion.LOSS


@dataclass(frozen=True)
class ContourGrid:
    """Expected-correctness values on a (q, s) lattice for fixed p and z."""

    p: float
    z: int
    q_values: tuple[float, ...]
    s_values: tuple[float, ...]
    prob: tuple[tuple[float, ...], ...]  # prob[i][j] for (q_values[i], s_values[j])

    def iter_points(self) -> Iterator[tuple[float, float, float]]:
        """Yield (q, s, prob) row by row: q outer, s inner."""
        for i, q in enumerate(self.q_values):
            for j, s in enumerate(self.s_values):
                yield q, s, self.prob[i][j]


def contour_grid(p: float, z: int, resolution: int) -> ContourGrid:
    """Evaluate `expected_prob` on a resolution x resolution lattice over [0,1]^2.

    Lattice points are evenly spaced including both endpoints, and the
    whole lattice is one array evaluation. Every point on the q + s = 1
    anti-diagonal carries prob = p (up to float rounding).
    """
    if not isinstance(resolution, int) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    axis = np.arange(resolution) / (resolution - 1)
    prob = expected_prob(ACParams(p=p, q=axis[:, None], s=axis[None, :], z=z))
    values = tuple(axis.tolist())
    return ContourGrid(
        p=p, z=z, q_values=values, s_values=values, prob=tuple(map(tuple, prob.tolist()))
    )


def write_contour_csv(grid: ContourGrid, out: TextIO) -> int:
    """Write a grid as CSV with header q,s,prob; returns the row count.

    Values carry 12 significant digits so the grid can be re-read without
    visible loss.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["q", "s", "prob"])
    n = 0
    for q, s, prob in grid.iter_points():
        writer.writerow([f"{q:.12g}", f"{s:.12g}", f"{prob:.12g}"])
        n += 1
    return n
