"""Tests for the closed-form performance model."""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acsql.theory import (
    ACParams,
    GainRegion,
    classify_gain,
    contour_grid,
    enumerate_prob,
    expected_prob,
    limit_prob,
    write_contour_csv,
)

# Expected emitted-correctness values for the eight (p, q, s) corners at
# z = 1..5, printed to 5 decimals. Cross-validated in this suite by the
# enumeration oracle and, at full sample size, by the Monte-Carlo
# acceptance run.
REFERENCE_CELLS = {
    (0.25, 0.25, 0.25): [0.25000, 0.34375, 0.40234, 0.43896, 0.46185],
    (0.25, 0.25, 0.75): [0.25000, 0.25000, 0.25000, 0.25000, 0.25000],
    (0.25, 0.75, 0.25): [0.25000, 0.25000, 0.25000, 0.25000, 0.25000],
    (0.25, 0.75, 0.75): [0.25000, 0.15625, 0.12109, 0.10791, 0.10297],
    (0.75, 0.25, 0.25): [0.75000, 0.84375, 0.87891, 0.89209, 0.89703],
    (0.75, 0.25, 0.75): [0.75000, 0.75000, 0.75000, 0.75000, 0.75000],
    (0.75, 0.75, 0.25): [0.75000, 0.75000, 0.75000, 0.75000, 0.75000],
    (0.75, 0.75, 0.75): [0.75000, 0.65625, 0.59766, 0.56104, 0.53815],
}

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_probs = st.floats(min_value=0.001, max_value=0.999)


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ACParams(p=1.2, q=0.5, s=0.5, z=3)
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=-0.1, s=0.5, z=3)
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=0.5, s=float("nan"), z=3)
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=np.array([0.0, 0.5, 1.5]), s=0.5, z=3)
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=0.5, s=np.array([[0.1, np.nan]]), z=3)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=0.5, s=0.5, z=0)
        with pytest.raises(ValueError):
            ACParams(p=0.5, q=0.5, s=0.5, z=2.5)  # type: ignore[arg-type]


class TestExpectedProb:
    def test_reference_cells(self):
        for (p, q, s), expected_by_z in REFERENCE_CELLS.items():
            for z, expected in enumerate(expected_by_z, start=1):
                got = expected_prob(ACParams(p=p, q=q, s=s, z=z))
                assert got == pytest.approx(expected, abs=5e-6), (p, q, s, z)

    def test_single_generation_is_bare_actor(self):
        for p, q, s in [(0.3, 0.9, 0.1), (0.0, 0.5, 0.5), (1.0, 0.0, 1.0)]:
            assert expected_prob(ACParams(p=p, q=q, s=s, z=1)) == p

    def test_neutral_boundary_returns_p(self):
        assert expected_prob(ACParams(p=0.6, q=0.3, s=0.7, z=4)) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_degenerate_corner_uses_direct_sum(self):
        # p*(1-s) = 0 and (1-p)*q = 0: the geometric denominator vanishes.
        # With p=1, s=1 every generation is correct but always rejected, so
        # the unchecked final generation is emitted and is correct.
        assert expected_prob(ACParams(p=1.0, q=0.5, s=1.0, z=4)) == 1.0
        assert expected_prob(ACParams(p=1.0, q=0.0, s=1.0, z=3)) == 1.0
        assert expected_prob(ACParams(p=0.0, q=0.0, s=0.3, z=7)) == 0.0

    def test_estimated_operating_point(self):
        got = expected_prob(ACParams(p=0.3774, q=0.2541, s=0.1973, z=5))
        assert got == pytest.approx(0.6334, abs=1e-4)

    @given(p=probs, q=probs, s=probs, z=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200)
    def test_matches_enumeration_oracle(self, p, q, s, z):
        params = ACParams(p=p, q=q, s=s, z=z)
        assert abs(expected_prob(params) - enumerate_prob(params)) <= 1e-12

    @given(p=open_probs, q=probs, z=st.integers(min_value=2, max_value=9))
    @settings(max_examples=100)
    def test_boundary_identity(self, p, q, z):
        got = expected_prob(ACParams(p=p, q=q, s=1.0 - q, z=z))
        assert abs(got - p) <= 1e-12

    @given(p=open_probs, q=probs, s=probs, z=st.integers(min_value=2, max_value=9))
    @settings(max_examples=200)
    def test_gain_direction(self, p, q, s, z):
        prob = expected_prob(ACParams(p=p, q=q, s=s, z=z))
        if q + s < 1.0:
            assert prob >= p - 1e-12
        elif q + s > 1.0:
            assert prob <= p + 1e-12

    @given(p=open_probs, q=probs, s=probs, z=st.integers(min_value=1, max_value=9))
    @settings(max_examples=100)
    def test_budget_monotone_in_gain_region(self, p, q, s, z):
        if q + s >= 1.0:
            return
        a = expected_prob(ACParams(p=p, q=q, s=s, z=z))
        b = expected_prob(ACParams(p=p, q=q, s=s, z=z + 1))
        assert b >= a - 1e-12

    @given(p=open_probs, q=open_probs, s=open_probs)
    @settings(max_examples=100)
    def test_converges_to_limit(self, p, q, s):
        # The tail decays like A^(z-1); at z = 10^4 it is far below 1e-9 once
        # A <= 0.995, which covers every non-pathological operating point.
        assume(p * s + (1 - p) * (1 - q) <= 0.995)
        finite = expected_prob(ACParams(p=p, q=q, s=s, z=10_000))
        assert abs(finite - limit_prob(p, q, s)) <= 1e-9


class TestEnumerateProb:
    def test_reference_points(self):
        assert enumerate_prob(ACParams(0.25, 0.25, 0.25, 3)) == pytest.approx(
            0.40234, abs=5e-6
        )
        assert enumerate_prob(ACParams(0.75, 0.25, 0.75, 4)) == pytest.approx(
            0.75, abs=5e-6
        )

    def test_perfect_actor(self):
        for q, s, z in [(0.0, 0.0, 1), (0.9, 0.2, 4), (1.0, 1.0, 6)]:
            assert enumerate_prob(ACParams(p=1.0, q=q, s=s, z=z)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_caps_budget(self):
        with pytest.raises(ValueError):
            enumerate_prob(ACParams(p=0.5, q=0.5, s=0.5, z=21))


class TestLimitProb:
    def test_table_rows(self):
        # Perfect rejection of wrong candidates drives correctness to 1.
        assert limit_prob(0.5, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        # s = 0 limit equals p / (p + q(1-p)); long-horizon sum agrees.
        expected = 0.5 / (0.5 + 0.5 * 0.5)
        assert limit_prob(0.5, 0.5, 0.0) == pytest.approx(expected, abs=1e-12)
        assert limit_prob(0.5, 0.5, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        # Neutral boundary.
        assert limit_prob(0.6, 0.4, 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_long_horizon_summation_agrees(self):
        # Independent route: accumulate the stop-by-stop series until the
        # tail is negligible, without the closed-form ratio.
        p, q, s = 0.5, 0.5, 0.0
        reject_round = p * s + (1 - p) * (1 - q)
        term = p * (1 - s)
        total = 0.0
        while term > 1e-18:
            total += term
            term *= reject_round
        assert limit_prob(p, q, s) == pytest.approx(total, abs=1e-12)

    def test_extremes(self):
        assert limit_prob(0.3, 0.0, 0.2) == pytest.approx(1.0, abs=1e-12)
        assert limit_prob(0.3, 0.4, 1.0) == 0.0
        assert limit_prob(0.0, 0.4, 0.2) == 0.0
        assert limit_prob(1.0, 0.4, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_singular_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            limit_prob(1.0, 0.5, 1.0)
        with pytest.raises(ZeroDivisionError):
            limit_prob(0.0, 0.0, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            limit_prob(1.5, 0.5, 0.5)


class TestClassifyGain:
    def test_regions(self):
        assert classify_gain(0.2, 0.3) is GainRegion.GAIN
        assert classify_gain(0.6, 0.4) is GainRegion.NEUTRAL
        assert classify_gain(0.9, 0.9) is GainRegion.LOSS

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify_gain(-0.1, 0.5)
        with pytest.raises(ValueError):
            classify_gain(0.5, 1.01)


class TestContourGrid:
    def test_reference_points(self):
        low = contour_grid(p=0.25, z=5, resolution=5)
        # axis = 0, 0.25, 0.5, 0.75, 1
        assert low.prob[1][1] == pytest.approx(0.46185, abs=5e-6)  # q=s=0.25
        assert low.prob[3][3] == pytest.approx(0.10297, abs=5e-6)  # q=s=0.75
        high = contour_grid(p=0.75, z=5, resolution=5)
        assert high.prob[1][1] == pytest.approx(0.89703, abs=5e-6)

    def test_anti_diagonal_carries_p(self):
        grid = contour_grid(p=0.4, z=6, resolution=21)
        n = len(grid.q_values)
        for i in range(n):
            assert grid.prob[i][n - 1 - i] == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_array_path_matches_scalar_closed_form(self):
        # p = 0 and p = 1 put degenerate corners (accept_round == 0) on the lattice
        for p in (0.0, 0.37, 1.0):
            for z in (1, 2, 20):
                grid = contour_grid(p=p, z=z, resolution=41)
                for i, q in enumerate(grid.q_values):
                    for j, s in enumerate(grid.s_values):
                        expected = expected_prob(ACParams(p=p, q=q, s=s, z=z))
                        got = grid.prob[i][j]
                        assert abs(got - expected) <= np.spacing(expected), (p, z, q, s)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            contour_grid(p=0.5, z=3, resolution=1)

    def test_csv_export(self):
        grid = contour_grid(p=0.25, z=5, resolution=3)
        buf = io.StringIO()
        n = write_contour_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert n == 9
        assert lines[0] == "q,s,prob"
        assert len(lines) == 10
        # Row order is q outer, s inner; values reparse to >= 10 sig digits.
        q, s, prob = lines[5].split(",")
        assert (float(q), float(s)) == (0.5, 0.5)
        expected = expected_prob(ACParams(0.25, 0.5, 0.5, 5))
        assert math.isclose(float(prob), expected, rel_tol=1e-10)
