"""Dual-pair plumbing: vectors, tilt weights, covariance operators."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp, softmax

from compound_deviations.counting import PoissonCounting
from compound_deviations.dualpair import (
    CovarianceOperator,
    _dot_rows,
    _matvec_rows,
    _norm_rows,
    as_vector,
    finite_real,
    tilt_weights,
)
from compound_deviations.errors import DimensionMismatchError, ValidationError
from compound_deviations.montecarlo import HalfSpaceEvent
from compound_deviations.summands import FiniteSupportSummands
from compound_deviations.variational import rate_ld_explicit


class TestAsVector:
    def test_freezes_and_converts(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert not v.flags.writeable

    def test_dim_enforced(self):
        with pytest.raises(DimensionMismatchError):
            as_vector([1.0, 2.0], dim=3)

    def test_rejects_nan_and_matrix(self):
        with pytest.raises(ValidationError):
            as_vector([1.0, math.nan])
        with pytest.raises(ValidationError):
            as_vector([[1.0, 2.0]])
        with pytest.raises(ValidationError):
            as_vector([])


class TestFiniteReal:
    def test_converts_and_checks_the_domain(self):
        assert finite_real(np.int64(2), "y") == 2.0
        assert type(finite_real(np.float32(0.5), "y")) is float
        with pytest.raises(ValidationError, match="rate must be positive, got -1"):
            finite_real(-1, "rate", "be positive", lambda r: r > 0)
        # Bools are not numbers here, as in check_int and the config.
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValidationError, match="must be a finite real"):
                finite_real(flag, "y")

    def test_numpy_scalars_pass_every_site(self):
        mx = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        mn = PoissonCounting(1.0)
        expected = rate_ld_explicit(mx, mn, [0.0], 2.0)
        for scalar in (np.int64(2), np.float32(2.0)):
            assert rate_ld_explicit(mx, mn, [0.0], scalar) == expected
            level = HalfSpaceEvent([0.0], 1.0, scalar).level
            assert level == 2.0 and type(level) is float
            assert PoissonCounting(scalar).rate == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf), "1",
                                     True])
    def test_non_finite_and_non_numbers_still_raise(self, bad):
        mx = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="y must be a finite real"):
            rate_ld_explicit(mx, PoissonCounting(1.0), [0.0], bad)
        with pytest.raises(ValidationError, match="level must be a finite real"):
            HalfSpaceEvent([0.0], 1.0, bad)
        with pytest.raises(ValidationError, match="rate must be a positive"):
            PoissonCounting(bad)


class TestTiltWeights:
    @pytest.mark.parametrize("scores", [
        [0.0],
        [math.log(0.3), math.log(0.7)],
        [-1000.0, 0.0, 3.0],
        [700.0, 710.0, 705.0],
    ], ids=["one", "two-atom", "wide-spread", "past-exp-overflow"])
    def test_matches_scipy_to_a_few_ulps(self, scores):
        # The max shift sums in another order than scipy's logsumexp, so the
        # two agree to a few units in the last place, not bit for bit.
        eps = np.finfo(float).eps
        log_norm, weights = tilt_weights(np.array(scores))
        assert log_norm == pytest.approx(float(logsumexp(scores)),
                                         rel=4 * eps, abs=4 * eps)
        assert_allclose(weights, softmax(scores), rtol=8 * eps, atol=1e-300)
        assert weights.sum() == pytest.approx(1.0, abs=4 * eps)


class TestCovarianceOperator:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            CovarianceOperator([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("matrix, message", [
        ([[1.0, 0.0]], r"covariance matrix must be square, got shape \(1, 2\)"),
        ([1.0, 0.0], r"covariance matrix must be square, got shape \(2,\)"),
        ([[1.0, math.nan], [math.nan, 1.0]], "covariance matrix must be finite"),
    ], ids=["one-row", "flat", "nan"])
    def test_rejects_non_square_or_nonfinite(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            CovarianceOperator(matrix)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            CovarianceOperator([[1.0, 2.0], [2.0, 1.0]])

    def test_apply_and_quadratic_form(self):
        op = CovarianceOperator([[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(op.apply([1.0, 0.0]), [2.0, 1.0])
        assert_allclose(op.quadratic_form([1.0, 1.0]), 6.0)

    def test_solve_full_rank(self):
        op = CovarianceOperator([[2.0, 1.0], [1.0, 2.0]])
        u = op.solve([1.0, 0.0])
        assert_allclose(op.apply(u), [1.0, 0.0], atol=1e-12)

    def test_solve_singular_in_image(self):
        # Rank-one operator: image is the span of (1, 1).
        op = CovarianceOperator([[1.0, 1.0], [1.0, 1.0]])
        u = op.solve([2.0, 2.0])
        assert u is not None
        assert_allclose(op.apply(u), [2.0, 2.0], atol=1e-10)

    def test_solve_singular_off_image(self):
        op = CovarianceOperator([[1.0, 1.0], [1.0, 1.0]])
        assert op.solve([1.0, -1.0]) is None

    def test_row_wise_solve_is_each_row_solved_alone(self):
        # Rows in and off the image of a rank-one operator, solved at once.
        op = CovarianceOperator([[1.0, 1.0], [1.0, 1.0]])
        rows = np.array([[2.0, 2.0], [1.0, -1.0], [-0.5, -0.5], [0.0, 0.0]])
        u, ok = op._solve_rows(rows)
        assert ok.tolist() == [True, False, True, True]
        for row, solved, found in zip(rows, u, ok):
            alone = op.solve(row)
            assert (alone is not None) == found
            if found:
                assert np.array_equal(alone, solved)

    def test_quadratic_form_never_negative(self):
        # A zero operator plus roundoff must not yield a tiny negative form.
        op = CovarianceOperator(np.zeros((3, 3)))
        assert op.quadratic_form([1.0, -2.0, 0.5]) == 0.0


class TestRowProducts:
    """Stacked products give each row the bits of its one-row product, so a
    grid evaluated at once prints what its points print one at a time."""

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_each_row_repeats_the_one_row_bits(self, h):
        rng = np.random.default_rng(h)
        matrix = rng.normal(size=(h, h))
        rows = rng.normal(size=(200, h)) * 10.0 ** rng.uniform(-4, 4, (200, 1))
        other = rng.normal(size=(200, h))
        for m in (matrix, matrix.T):
            for row, product in zip(rows, _matvec_rows(m, rows)):
                assert np.array_equal(product, m @ row)
        for row, w, dot, norm in zip(rows, other, _dot_rows(rows, other),
                                     _norm_rows(rows)):
            assert dot == float(row @ w)
            assert norm == float(np.linalg.norm(row))
