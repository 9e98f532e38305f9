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
whole (q, s) lattice is one evaluation of `expected_prob`, and
`ContourGrid` keeps that evaluation's arrays as they are.

`enumerate_prob` recomputes the same quantity by brute-force enumeration
of every outcome sequence and exists purely as an independent check on
the closed form.

NumPy loads only in `expected_prob`, `contour_grid` and `check_prob` of a non-number.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, TextIO

if TYPE_CHECKING:
    import numpy as np


def check_prob(value, name: str) -> None:
    """Raise ValueError unless value, a number or an array, lies in [0, 1] throughout."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not 0.0 <= value <= 1.0:  # NaN fails
            raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        return
    import numpy as np

    array = np.asarray(value)
    # NaN fails both comparisons; a bool (dtype kind "b") is not a number here
    if array.dtype.kind not in "iuf" or not np.all((array >= 0.0) & (array <= 1.0)):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def check_int(value, name: str, least: int = 1) -> None:
    """Raise ValueError unless value is an integer >= least; a bool is not a count here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_number(value, name: str, positive: bool = False) -> None:
    """Raise ValueError unless value is a finite number >= 0 (> 0 if positive), not a bool."""
    message = f"{name} must be a finite number {'> 0' if positive else '>= 0'}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(message)
    # NaN fails the first comparison; inf, and an int too large for a float, the second.
    if not (value > 0 if positive else value >= 0) or value > sys.float_info.max:
        raise ValueError(message)


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
        check_int(self.z, "z")


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
    import numpy as np

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
    for stop in range(1, z + 1):
        for prefix in itertools.product((True, False), repeat=stop - 1):
            path = 1.0
            for was_correct in prefix:
                path *= correct_rejected if was_correct else wrong_rejected
            total += path * p * (1.0 - s) if stop < z else path * p
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
    above it, only degrade. This holds for the paper's independent drafts
    only. When a draft depends on the one before it, the boundary is not
    neutral: at q = 0.4, s = 0.6, z = 5, a first draft correct with
    probability 0.3774 and a redraft correct with probability 0.9 after a
    correct draft, 0.2 after a wrong one, the loop emits a correct query
    with probability 0.4644.
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

    q_values: np.ndarray  # 1-D
    s_values: np.ndarray  # 1-D
    prob: np.ndarray  # 2-D: prob[i][j] for (q_values[i], s_values[j])

    def iter_points(self) -> Iterator[tuple[float, float, float]]:
        """Yield (q, s, prob) row by row: q outer, s inner."""
        s_values = self.s_values.tolist()
        for q, row in zip(self.q_values.tolist(), self.prob.tolist()):
            for s, prob in zip(s_values, row):
                yield q, s, prob


def contour_grid(p: float, z: int, resolution: int) -> ContourGrid:
    """Evaluate `expected_prob` on a resolution x resolution lattice over [0,1]^2.

    Lattice points are evenly spaced including both endpoints, and the
    whole lattice is one array evaluation. Every point on the q + s = 1
    anti-diagonal carries prob = p (up to float rounding).
    """
    import numpy as np

    check_int(resolution, "resolution", least=2)
    axis = np.arange(resolution) / (resolution - 1)
    prob = expected_prob(ACParams(p=p, q=axis[:, None], s=axis[None, :], z=z))
    return ContourGrid(q_values=axis, s_values=axis, prob=prob)


def write_contour_csv(grid: ContourGrid, out: TextIO) -> int:
    """Write a grid as CSV with header q,s,prob; returns the row count.

    Values carry 12 significant digits so the grid can be re-read without
    visible loss.
    """
    out.write("q,s,prob\n")
    out.writelines(f"{q:.12g},{s:.12g},{prob:.12g}\n" for q, s, prob in grid.iter_points())
    return grid.prob.size
