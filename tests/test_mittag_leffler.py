"""Two-parameter Mittag-Leffler evaluation against independent oracles.

The reference values come from the defining power series summed in extended
precision with mpmath (dps=60, up to 4000 terms), which converges for every
finite argument since the function is entire. The implementation under test
uses a different split (truncated double-precision series below the switch
point, exponential asymptotics above), so agreement is meaningful.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_deviations.errors import ValidationError
from compound_deviations.mittag_leffler import (
    _asymptotic_log,
    _series_value,
    log_mittag_leffler,
    switch_point,
)

NUS = [0.3, 0.5, 0.8]
BETAS = [0.5, 1.0, 2.0]
XS = [0.1, 1.0, 5.0]


def _ml_mpf(nu, beta, x):
    s = mp.mpf(0)
    for k in range(60000):
        term = mp.mpf(x) ** k / mp.gamma(nu * k + beta)
        s += term
        if k > 10 and abs(term) < mp.mpf(10) ** -55 * abs(s):
            break
    return s


def ml_log_reference(nu, beta, x):
    """Log of the extended-precision series oracle."""
    with mp.workdps(60):
        return float(mp.log(_ml_mpf(nu, beta, x)))


class TestGoldenValues:
    """A relative error r in E is an absolute error of about r in log E, so
    each relative tolerance on a value is the absolute one on its log."""

    def test_exponential_special_case(self):
        for x in np.linspace(0.0, 20.0, 21):
            assert_allclose(log_mittag_leffler(1.0, 1.0, float(x)), x,
                            atol=1e-10, rtol=0)

    def test_half_order_erfc_identity(self):
        # E at nu=1/2, beta=1, x=1 equals exp(x^2) erfc(-x); value frozen
        # from the mpmath oracle.
        assert_allclose(
            log_mittag_leffler(0.5, 1.0, 1.0), math.log(5.008980080762283),
            atol=1e-12, rtol=0,
        )

    def test_x_zero_is_reciprocal_gamma(self):
        from scipy.special import rgamma

        assert_allclose(log_mittag_leffler(0.7, 1.3, 0.0), math.log(rgamma(1.3)),
                        atol=1e-14, rtol=0)

    def test_against_series_oracle_grid(self):
        for nu in NUS:
            for beta in BETAS:
                for x in XS:
                    assert_allclose(
                        log_mittag_leffler(nu, beta, x),
                        ml_log_reference(nu, beta, x),
                        atol=1e-9, rtol=0,
                        err_msg=f"nu={nu} beta={beta} x={x}",
                    )

    def test_large_argument_log_values(self):
        # Above the switch the asymptotic branch takes over. The series
        # oracle peaks near term x**(1/nu), so the comparison points are
        # chosen where that stays below the oracle's term budget.
        for nu, xs in [(0.3, (4.0, 8.0)), (0.8, (40.0, 120.0))]:
            for x in xs:
                assert_allclose(
                    log_mittag_leffler(nu, 1.0, x),
                    ml_log_reference(nu, 1.0, x),
                    rtol=1e-8,
                    err_msg=f"nu={nu} x={x}",
                )

    def test_half_order_large_argument_erfc_identity(self):
        # At nu=1/2 the closed form exp(x^2) erfc(-x) reaches arguments the
        # series oracle cannot.
        for x in [40.0, 120.0]:
            with mp.workdps(60):
                expected = float(mp.mpf(x) ** 2 + mp.log(mp.erfc(-mp.mpf(x))))
            assert_allclose(
                log_mittag_leffler(0.5, 1.0, x), expected, rtol=1e-10
            )


class TestRecurrence:
    """E(nu, beta, x) = x E(nu, beta + nu, x) + 1/Gamma(beta)."""

    def test_grid(self):
        for nu in NUS:
            for beta in BETAS:
                for x in XS:
                    lhs = math.exp(log_mittag_leffler(nu, beta, x))
                    rhs = (x * math.exp(log_mittag_leffler(nu, beta + nu, x))
                           + 1.0 / math.gamma(beta))
                    assert_allclose(lhs, rhs, rtol=1e-9,
                                    err_msg=f"nu={nu} beta={beta} x={x}")


class TestBranchCrossover:
    def test_switch_point_formula(self):
        assert switch_point(0.5) == pytest.approx(math.sqrt(30.0))
        assert switch_point(1.0) == 30.0

    def test_branches_agree_at_switch(self):
        for nu in NUS:
            for beta in BETAS:
                x = switch_point(nu)
                series = _series_value(nu, beta, x)
                asym = math.exp(_asymptotic_log(nu, beta, x))
                assert_allclose(series, asym, rtol=1e-8,
                                err_msg=f"nu={nu} beta={beta}")

    def test_continuity_across_switch(self):
        # The function's own slope contributes d log E / dx ~ 2 x at nu=1/2,
        # so a relative nudge of 1e-9 moves the value by order 1e-7 on its
        # own; the tolerance leaves room for that plus the branch mismatch.
        for nu in NUS:
            x = switch_point(nu)
            below = log_mittag_leffler(nu, 1.0, x * (1.0 - 1e-9))
            above = log_mittag_leffler(nu, 1.0, x * (1.0 + 1e-9))
            assert_allclose(below, above, atol=1e-6, rtol=0)


class TestMonotonicity:
    def test_strictly_increasing_in_x(self):
        for nu in NUS:
            xs = np.linspace(0.0, 50.0, 40)
            vals = [log_mittag_leffler(nu, 1.0, float(x)) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDomainErrors:
    def test_order_below_supported_range(self):
        with pytest.raises(ValidationError):
            log_mittag_leffler(0.2, 1.0, 1.0)

    def test_order_above_one(self):
        with pytest.raises(ValidationError):
            log_mittag_leffler(1.2, 1.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            log_mittag_leffler(0.5, 1.0, -1.0)
