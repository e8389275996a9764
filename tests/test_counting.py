"""Counting-process models: limiting cumulants, finite-n laws, samplers.

Closed-form cumulants are checked against their formulas on an eta grid;
derivative records against central finite differences of the limiting cgf;
the fractional mean against an extended-precision series oracle; the
renewal inverse against an independent bisection; the gamma-law renewal
mass table against Poisson laws, renewal-theory moments and walked
partial sums of gamma draws; the lattice-law renewal table against a walk
over every sequence of inter-arrivals; the runs preset's closed-form limit
cumulant against mpmath.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.special import erfc, gammaln, logsumexp
from scipy.stats import chi2, poisson

from compound_deviations import counting
from compound_deviations.counting import (
    BernoulliSumCounting,
    CountingDerivatives,
    CountingModel,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    GammaInterarrival,
    IidSumCounting,
    LatticeInterarrival,
    PoissonCounting,
    RenewalCounting,
)
from compound_deviations.errors import ValidationError
from compound_deviations.summands import FiniteSupportSummands, invert_cdf
from compound_deviations.variational import rate_ld_explicit

ETA_GRID = np.linspace(-5.0, 5.0, 41)


def fd_second(f, x, h=1e-3):
    # The step is sized for cgfs computed through root inversion, whose
    # ~1e-13 evaluation noise would swamp a 1e-5 step when divided by h^2.
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_first(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestClosedFormCgfs:
    """Each kind's limiting cgf against its formula, within 1e-12."""

    def test_poisson(self):
        mn = PoissonCounting(1.7)
        for eta in ETA_GRID:
            assert_allclose(mn.limit_cgf(eta), 1.7 * math.expm1(eta),
                            rtol=1e-12, atol=1e-12)

    def test_fractional_poisson(self):
        mn = FractionalPoissonCounting(0.5, 2.0)
        scale = 2.0 ** (1.0 / 0.5)
        for eta in ETA_GRID:
            assert_allclose(mn.limit_cgf(eta), scale * math.expm1(eta / 0.5),
                            rtol=1e-12, atol=1e-12)

    def test_renewal_exponential(self):
        mn = RenewalCounting(ExponentialInterarrival(1.3))
        for eta in ETA_GRID:
            assert_allclose(mn.limit_cgf(eta), 1.3 * math.expm1(eta),
                            rtol=1e-12, atol=1e-10)

    def test_bernoulli_constant(self):
        mn = BernoulliSumCounting(p=0.3)
        for eta in ETA_GRID:
            assert_allclose(mn.limit_cgf(eta),
                            math.log1p(0.3 * math.expm1(eta)),
                            rtol=1e-12, atol=1e-12)

    def test_iid_sum(self):
        mn = IidSumCounting([0, 2], [0.25, 0.75])
        for eta in ETA_GRID[ETA_GRID < 3]:
            assert_allclose(mn.limit_cgf(eta),
                            math.log(0.25 + 0.75 * math.exp(2 * eta)),
                            rtol=1e-12, atol=1e-12)


class TestDerivativeRecords:
    def test_fractional_closed_form(self):
        mn = FractionalPoissonCounting(0.5, 1.0)
        d = mn.derivs_at_zero()
        assert_allclose(d.mean_rate, 2.0, rtol=1e-12)
        assert_allclose(d.variance_rate, 4.0, rtol=1e-12)
        assert float(d.cgf_at_minus_inf) == -1.0

    def test_all_kinds_match_finite_differences(self):
        models = [
            PoissonCounting(1.5),
            FractionalPoissonCounting(0.6, 1.2),
            BernoulliSumCounting(p=0.4),
            BernoulliSumCounting.runs(2.0, 1.0),
            IidSumCounting([0, 1, 3], [0.2, 0.5, 0.3]),
            RenewalCounting(ExponentialInterarrival(2.0)),
            RenewalCounting(GammaInterarrival(2.0, 3.0)),
        ]
        for mn in models:
            d = mn.derivs_at_zero()
            assert_allclose(d.mean_rate, fd_first(mn.limit_cgf, 0.0),
                            rtol=1e-6, atol=1e-6,
                            err_msg=type(mn).__name__)
            assert_allclose(d.variance_rate, fd_second(mn.limit_cgf, 0.0),
                            rtol=1e-4, atol=1e-4,
                            err_msg=type(mn).__name__)

    def test_second_derivative_matches_finite_differences(self):
        # limit_cgf_second against central differences of limit_cgf_deriv,
        # on both sides of zero for every kind.
        models = [
            PoissonCounting(1.5),
            FractionalPoissonCounting(0.6, 1.2),
            BernoulliSumCounting(p=0.4),
            BernoulliSumCounting.runs(2.0, 1.0),
            IidSumCounting([0, 1, 3], [0.2, 0.5, 0.3]),
            RenewalCounting(ExponentialInterarrival(2.0)),
            RenewalCounting(GammaInterarrival(2.0, 3.0)),
        ]
        for mn in models:
            for eta in [-3.0, -0.4, 0.0, 0.8, 2.5]:
                assert_allclose(
                    mn.limit_cgf_second(eta),
                    fd_first(mn.limit_cgf_deriv, eta, h=1e-5),
                    rtol=1e-5, atol=1e-8, err_msg=f"{type(mn).__name__} {eta}",
                )

    def test_bernoulli_cumulant_does_not_overflow(self):
        # For large eta the cumulant is eta + log(p) and the tilted success
        # probability tends to one; both stay finite far past exp's range.
        mn = BernoulliSumCounting(p=0.25)
        for eta in [800.0, 1e6]:
            assert_allclose(mn.limit_cgf(eta), eta + math.log(0.25),
                            rtol=1e-12)
            assert mn.limit_cgf_deriv(eta) == 1.0
            assert mn.limit_cgf_second(eta) == 0.0
        assert_allclose(mn.limit_cgf(-800.0), math.log(0.75), rtol=1e-12)
        assert mn.limit_cgf_second(-800.0) == 0.0

    @pytest.mark.parametrize("eta", [30.0, 45.0])
    def test_runs_cumulant_keeps_small_success_probabilities(self, eta):
        # p(x) = e^{-50 x} falls below 1e-16 on most of [0, 1], so 1 - p
        # rounds to 1 there; the cumulant must still see p e^eta, which is
        # large for x < eta / 50.
        mn = BernoulliSumCounting.runs(10.0, 5.0)
        with mp.workdps(30):
            exact = mp.quad(
                lambda x: mp.log1p(mp.exp(-50 * x) * mp.expm1(eta)),
                [0, mp.mpf(eta) / 50, 1],
            )
        assert_allclose(mn.limit_cgf(eta), float(exact), rtol=1e-12)

    def test_renewal_derivatives_vanish_past_the_domain_edge(self):
        # Deep in the left tail kappa^{-1} reaches the edge r = rate, where
        # kappa' is infinite: the slope and the curvature of L_N are 0.
        for law in (ExponentialInterarrival(1.0), GammaInterarrival(2.0, 1.0)):
            assert law.kappa_prime(law.rate) == math.inf
            assert law.kappa_second(law.rate) == math.inf
            mn = RenewalCounting(law)
            assert mn.limit_cgf(-200.0) == -law.rate
            assert mn.limit_cgf_deriv(-200.0) == 0.0
            assert mn.limit_cgf_second(-200.0) == 0.0

    @pytest.mark.parametrize("mn, cgf, slope", [
        (IidSumCounting([0, 1], [0.5, 0.5]), [math.log(0.5), math.inf], [0.0, 1.0]),
        (IidSumCounting([1, 3], [0.5, 0.5]), [-math.inf, math.inf], [1.0, 3.0]),
        (RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5])),
         [-math.inf, math.inf], [0.5, 1.0]),
    ], ids=["iid-sum-0-1", "iid-sum-1-3", "lattice-renewal-1-2"])
    def test_lattice_extremes_are_the_point_mass_on_the_extreme_step(
            self, mn, cgf, slope):
        # At eta = -inf and +inf a lattice law tilts onto its least and its
        # largest step: the slope is that step (its inverse for a renewal),
        # the curvature 0, with no 0 * inf and so no warning.
        ends = (-math.inf, math.inf)
        assert [mn.limit_cgf(eta) for eta in ends] == cgf
        assert [mn.limit_cgf_deriv(eta) for eta in ends] == slope
        assert [mn.limit_cgf_second(eta) for eta in ends] == [0.0, 0.0]

    @pytest.mark.parametrize("values, cgf, slope", [
        ([0, 1, 2], [math.log(0.3), math.inf], [0.0, 2.0]),
        ([1, 3, 4], [-1.7e308 + math.log(0.3), math.inf], [1.0, 4.0]),
    ], ids=["0-1-2", "1-3-4"])
    def test_lattice_scores_past_the_float_range_are_the_extreme_point_mass(
            self, values, cgf, slope):
        # At r = -+1.7e308 the score r t of the largest step leaves the
        # float range; every other weight is below e^-1e292 of the extreme
        # step's, so the law is the point mass there and the cumulant its
        # score, with no warning.
        mn = IidSumCounting(values, [0.3, 0.4, 0.3])
        ends = (-1.7e308, 1.7e308)
        assert [mn.limit_cgf(r) for r in ends] == cgf
        assert [mn.limit_cgf_deriv(r) for r in ends] == slope
        assert [mn.limit_cgf_second(r) for r in ends] == [0.0, 0.0]

    def test_left_tail_limit_matches_deep_probe(self):
        # cgf_at_minus_inf against the cgf evaluated far in the left tail.
        models = [
            PoissonCounting(1.5),
            FractionalPoissonCounting(0.5, 1.0),
            BernoulliSumCounting(p=0.4),
            RenewalCounting(ExponentialInterarrival(2.0)),
        ]
        for mn in models:
            tail = mn.derivs_at_zero().cgf_at_minus_inf
            assert abs(float(tail) - mn.limit_cgf(-30.0)) <= 1e-6, type(mn).__name__

    def test_iid_sum_with_zero_step_has_finite_tail(self):
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        assert_allclose(float(mn.derivs_at_zero().cgf_at_minus_inf),
                        math.log(0.5), rtol=1e-12)

    def test_iid_sum_without_zero_step_tail_is_minus_inf(self):
        mn = IidSumCounting([1, 2], [0.5, 0.5])
        assert mn.derivs_at_zero().cgf_at_minus_inf == -math.inf

    @pytest.mark.parametrize("tail", [0.5, math.inf, math.nan])
    def test_record_rejects_a_tail_limit_that_is_not_at_most_zero(self, tail):
        with pytest.raises(ValidationError):
            CountingDerivatives(1.0, 1.0, tail)


class TestFiniteNCgf:
    def test_iid_sum_finite_equals_limit(self):
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        for n in (1, 7, 100):
            for eta in (-2.0, -0.5, 0.5, 1.5):
                assert mn.finite_cgf(n, eta) == mn.limit_cgf(eta)

    def test_fractional_gap_shrinks_with_n(self):
        # At nu = 1/2, E(1/2, 1; x) = e^{x^2} erfc(-x) with x = sqrt(n), so
        # the gap to the limit is (log erfc(-x e^eta) - log erfc(-x)) / n,
        # which falls below rounding by n = 1000.
        mn = FractionalPoissonCounting(0.5, 1.0)
        for eta in (-1.0, -0.1, 0.1, 1.0):
            gaps = [abs(mn.finite_cgf(n, eta) - mn.limit_cgf(eta))
                    for n in (10, 100, 1000)]
            assert gaps[0] > gaps[1], f"eta={eta}: {gaps}"
            assert gaps[2] <= 1e-13, f"eta={eta}: {gaps}"

    def test_fractional_half_order_closed_form(self):
        mn = FractionalPoissonCounting(0.5, 1.0)
        for n in (4, 10, 40):
            x = math.sqrt(n)
            for eta in (-1.0, 0.3, 1.0):
                expected = (x * x * math.expm1(2.0 * eta)
                            + math.log(erfc(-x * math.exp(eta)))
                            - math.log(erfc(-x))) / n
                assert_allclose(mn.finite_cgf(n, eta), expected, rtol=1e-12)

    def test_runs_gap_shrinks_with_n(self):
        # The sites (j - 1) / n of p(x) = e^{-a x} give a left Riemann sum of
        # the limit cumulant's integral, whose gap to it falls like 1 / n.
        mn = BernoulliSumCounting.runs(2.0, 1.0)
        for eta in (-1.0, -0.1, 0.1, 1.0):
            gaps = [abs(mn.finite_cgf(n, eta) - mn.limit_cgf(eta))
                    for n in (10, 100, 1000)]
            assert gaps[0] > gaps[1] > gaps[2], f"eta={eta}: {gaps}"

    def test_fractional_consistency_with_log_ratio(self):
        from compound_deviations.mittag_leffler import log_mittag_leffler

        mn = FractionalPoissonCounting(0.5, 1.0)
        n = 50
        x = 1.0 * n ** 0.5
        for eta in (-1.0, 0.3):
            log_ratio = (log_mittag_leffler(0.5, 1.0, math.exp(eta) * x)
                         - log_mittag_leffler(0.5, 1.0, x))
            assert_allclose(mn.finite_cgf(n, eta), log_ratio / n,
                            rtol=1e-12, atol=1e-15)

    def test_bernoulli_matches_exact_pmf(self):
        # Second route: (1/n) log sum_k P(N_n = k) e^{eta k}.
        n = 12
        for mn in (BernoulliSumCounting(p=0.3), BernoulliSumCounting.runs(1.0, 1.0)):
            pmf = mn.exact_pmf(n)
            for eta in (-3.0, 0.5, 3.0):
                expected = math.log(float(pmf @ np.exp(eta * np.arange(pmf.size)))) / n
                assert_allclose(mn.finite_cgf(n, eta), expected, rtol=1e-12)

    def test_bernoulli_stays_finite_past_exp_overflow(self):
        mn = BernoulliSumCounting(p=0.3)
        value = mn.finite_cgf(10, 800.0)
        assert math.isfinite(value)
        assert_allclose(value, mn.limit_cgf(800.0), rtol=1e-12)

    def test_exponential_renewal_cgf_is_the_poisson_cgf(self):
        # Exp(rate) renewals by time n are Poisson(rate n) counts.
        mn = RenewalCounting(ExponentialInterarrival(1.3))
        for n in (1, 10, 100):
            for eta in (-2.0, -0.1, 0.5, 1.0):
                assert_allclose(mn.finite_cgf(n, eta), 1.3 * math.expm1(eta),
                                rtol=1e-12)

    def test_renewal_tilt_past_the_float_range_is_typed(self):
        # Tilted by 1.5, Exp(1) counts at n = 400 centre near 1793, where
        # P(N_400 = k) is about e^-1290: no double holds it.
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        with pytest.raises(ValidationError, match="below the float range"):
            mn.finite_cgf(400, 1.5)
        with pytest.raises(ValidationError, match="below the float range"):
            mn.count_law(2000, -5.0)


class TestMeans:
    def test_fractional_mean_series_oracle(self):
        # mean(100) for nu=1/2, rate=1; the oracle is the recurrence value
        # 20 E(0.5, 0.5, 10) / E(0.5, 1, 10) = 200 + 20/(sqrt(pi) E) with E
        # astronomically large, hence exactly 200 to double precision.
        mn = FractionalPoissonCounting(0.5, 1.0)
        assert_allclose(mn.mean(100), 200.0, rtol=1e-9)

    def test_fractional_mean_small_n_oracle(self):
        # Small argument so the oracle series is cheap and the asymptotic
        # branch is not involved on either side.
        mn = FractionalPoissonCounting(0.5, 1.0)
        with mp.workdps(50):
            x = mp.mpf(2.0)  # rate * sqrt(n) at n = 4
            num = mp.nsum(lambda k: x ** k / mp.gamma(0.5 * k + 0.5), [0, mp.inf])
            den = mp.nsum(lambda k: x ** k / mp.gamma(0.5 * k + 1.0), [0, mp.inf])
            expected = float(2.0 * x * num / den)
        assert_allclose(mn.mean(4), expected, rtol=1e-9)

    def test_scaled_mean_approaches_rate(self):
        for mn in (
            FractionalPoissonCounting(0.5, 1.0),
            BernoulliSumCounting.runs(2.0, 1.0),
        ):
            d1 = mn.derivs_at_zero().mean_rate
            assert abs(mn.mean(1000) / 1000.0 - d1) <= 0.05 * d1, type(mn).__name__

    def test_poisson_exact_moments(self):
        mn = PoissonCounting(2.5)
        assert_allclose(mn.mean(40), 100.0, rtol=1e-12)
        assert_allclose(mn.var(40), 100.0, rtol=1e-12)

    def test_renewal_sample_mean_matches_the_exact_mean(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        draws = mn.count_law(50).draw(np.random.default_rng(5), 4000)
        se = draws.std(ddof=1) / math.sqrt(4000)
        assert_allclose(mn.mean(50), 50.0, rtol=1e-12)
        assert abs(draws.mean() - mn.mean(50)) <= 4.0 * se


class TestSamplers:
    """Empirical means within 4 standard errors of the scaled mean rate."""

    CASES = [
        (PoissonCounting(1.3), 1.3),
        (FractionalPoissonCounting(0.5, 1.0), None),  # use exact mean(n)
        (IidSumCounting([0, 2], [0.5, 0.5]), 1.0),
        (BernoulliSumCounting(p=0.25), 0.25),
        (BernoulliSumCounting.runs(2.0, 1.0), None),
        (RenewalCounting(ExponentialInterarrival(2.0)), 2.0),
        (RenewalCounting(GammaInterarrival(2.0, 4.0)), 2.0),
    ]

    def test_empirical_means(self):
        n, reps = 200, 3000
        rng = np.random.default_rng(99)
        for mn, rate in self.CASES:
            draws = mn.count_law(n).draw(rng, reps).astype(float)
            expected = mn.mean(n) if rate is None else None
            if expected is None:
                expected = rate * n
            se = draws.std(ddof=1) / math.sqrt(reps)
            assert abs(draws.mean() - expected) <= 4.0 * se + 1e-9, type(mn).__name__

    def test_draws_have_the_asked_shape(self):
        mn = PoissonCounting(1.0)
        rng = np.random.default_rng(1)
        out = mn.count_law(10).draw(rng, 37)
        assert out.shape == (37,)

    def test_bernoulli_bounded_by_n(self):
        mn = BernoulliSumCounting.runs(2.0, 1.0)
        rng = np.random.default_rng(2)
        draws = mn.count_law(25).draw(rng, 500)
        assert draws.max() <= 25
        assert mn.exact_pmf(25).size == 26

    def test_iid_sum_bound(self):
        mn = IidSumCounting([0, 3], [0.5, 0.5])
        assert mn.exact_pmf(10).size == 31


class TestTiltedSamplers:
    def test_poisson_tilt_is_poisson_with_scaled_mass(self):
        mn = PoissonCounting(1.0)
        sampler = mn.count_law(100, math.log(2.0)).draw
        rng = np.random.default_rng(7)
        draws = sampler(rng, 20000).astype(float)
        # Tilted mass is 100 * e^s = 200.
        se = draws.std(ddof=1) / math.sqrt(20000)
        assert abs(draws.mean() - 200.0) <= 4.0 * se

    def test_iid_sum_tilt_reweights_steps(self):
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        sampler = mn.count_law(50, 1.0).draw
        rng = np.random.default_rng(8)
        draws = sampler(rng, 20000).astype(float)
        p_tilted = math.e / (1.0 + math.e)
        se = draws.std(ddof=1) / math.sqrt(20000)
        assert abs(draws.mean() - 50.0 * p_tilted) <= 4.0 * se

    def test_bernoulli_profile_tilt(self):
        mn = BernoulliSumCounting.runs(2.0, 1.0)
        sampler = mn.count_law(60, 0.7).draw
        rng = np.random.default_rng(9)
        draws = sampler(rng, 20000).astype(float)
        qs = mn.success_probs(60)
        tilted_mean = float(np.sum(
            qs * math.exp(0.7) / (1.0 + qs * (math.exp(0.7) - 1.0))
        ))
        se = draws.std(ddof=1) / math.sqrt(20000)
        assert abs(draws.mean() - tilted_mean) <= 4.0 * se

    def test_renewal_tilt_is_the_tilted_poisson(self):
        # Exp(1) renewals by time 100 are Poisson(100); tilted by s they are
        # Poisson(100 e^s).
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        for s, seed in ((math.log(2.0), 10), (-0.5, 11)):
            draws = mn.count_law(100, s).draw(np.random.default_rng(seed),
                                                    50_000)
            k = np.arange(draws.max() + 200)
            assert chi_square_pvalue(draws, poisson.pmf(k, 100.0 * math.exp(s))) > 1e-3


class TestExactPmfs:
    def test_iid_sum_convolution(self):
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        pmf = mn.exact_pmf(6)
        # N_6 ~ Binomial(6, 1/2).
        from scipy.stats import binom

        assert_allclose(pmf, binom.pmf(np.arange(7), 6, 0.5), atol=1e-14)

    def test_bernoulli_dp(self):
        mn = BernoulliSumCounting(p=0.5)
        pmf = mn.exact_pmf(6)
        from scipy.stats import binom

        assert_allclose(pmf, binom.pmf(np.arange(7), 6, 0.5), atol=1e-14)

    def test_runs_profile_dp_matches_simulation(self):
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        pmf = mn.exact_pmf(5)
        rng = np.random.default_rng(17)
        draws = mn.count_law(5).draw(rng, 200000)
        empirical = np.bincount(draws.astype(int), minlength=6) / 200000.0
        assert_allclose(empirical, pmf, atol=0.006)

    def test_poisson_has_no_bounded_pmf(self):
        # Unbounded support: the table stops once the tail beyond it is
        # below MASS_TAIL_TOL.
        pmf = PoissonCounting(1.0).exact_pmf(5)
        k = np.arange(pmf.size)
        assert_allclose(pmf, poisson.pmf(k, 5.0), rtol=1e-12)
        assert poisson.sf(pmf.size - 1, 5.0) < counting.MASS_TAIL_TOL


def convolve_loop(rows):
    """The oracle of ``counting._convolve_tree``: the same pairwise levels,
    each summed by the per-state loop c[:, j:j + W] += a * b[:, j], one
    numpy update per right-hand state j."""
    size = rows.shape[0] * (rows.shape[1] - 1) + 1
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            rows = np.vstack([rows, np.eye(1, rows.shape[1])])
        left, right = rows[0::2], rows[1::2]
        width = rows.shape[1]
        rows = np.zeros((left.shape[0], 2 * width - 1))
        for j in range(width):
            rows[:, j:j + width] += left * right[:, j:j + 1]
    return rows[0, :size]


def iid_rows(rng, n):
    """n copies of one step law of width 2-6, with zero entries and masses
    near 1e-300."""
    width = int(rng.integers(2, 7))
    step = rng.random(width)
    step[rng.random(width) < 0.3] = 0.0
    step[rng.random(width) < 0.3] = 1e-300 * (1.0 + rng.random())
    step[int(rng.integers(width))] = 0.5
    return np.tile(step / step.sum(), (n, 1))


def bernoulli_rows(rng, n):
    """n trials of different success probabilities, some 0, 1 or 1e-300."""
    t = rng.random(n)
    for value, share in ((0.0, 0.05), (1.0, 0.05), (1e-300, 0.1)):
        t[rng.random(n) < share] = value
    return np.column_stack([1.0 - t, t])


ROW_KINDS = {"iid": iid_rows, "bernoulli": bernoulli_rows}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestConvolutionKernel:
    """``counting._convolve_tree`` takes a chunk of right-hand states per
    numpy call, and every table is the per-state loop's, bit for bit."""

    # n = 1 is a single row; odd n pad a level with a unit row.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 33, 100, 257, 400, 999])
    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_is_the_loop(self, seed, kind, n):
        rows = ROW_KINDS[kind](np.random.default_rng([seed, n]), n)
        assert same_bits(counting._convolve_tree(rows, "test"), convolve_loop(rows))

    @pytest.mark.parametrize("kind", ["iid", "bernoulli"])
    def test_levels_wider_than_one_chunk(self, monkeypatch, kind):
        # At n = 3001 some levels take several chunks of at least three
        # states, ending in a short one, and others hold too many products
        # for a chunk of three and take the loop.
        chunks, choose = [], counting._chunk_states

        def recording(pairs, width):
            chunks.append((width, choose(pairs, width)))
            return chunks[-1][1]

        monkeypatch.setattr(counting, "_chunk_states", recording)
        rows = (np.tile([0.3, 0.4, 0.3], (3001, 1)) if kind == "iid"
                else bernoulli_rows(np.random.default_rng(9), 3001))
        assert same_bits(counting._convolve_tree(rows, "test"), convolve_loop(rows))
        assert any(k == 1 for _, k in chunks)
        assert any(1 < k < w and w % k for w, k in chunks)

    @pytest.mark.parametrize("pairs", [1, 2, 3, 7, 63, 500, 2000, 5462, 10 ** 4,
                                       10 ** 6])
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 9, 17, 65, 513, 4097, 10 ** 4])
    def test_chunk_is_the_most_states_that_fit(self, pairs, width):
        def doubles(k):
            return pairs * ((k + 1) * (width + k) - 1)

        k = counting._chunk_states(pairs, width)
        least = counting.CHUNK_LEAST_STATES
        if k == 1:
            assert width < least or doubles(least) > counting.CONVOLVE_CHUNK
        else:
            assert least <= k <= width
            assert doubles(k) <= counting.CONVOLVE_CHUNK
            assert k == width or doubles(k + 1) > counting.CONVOLVE_CHUNK

    @pytest.mark.parametrize("n", [400, 4000])
    def test_kernel_temporaries_fit_the_chunk_bound(self, monkeypatch, n):
        # Beyond what the per-state loop holds (the levels and one product
        # row block), a build holds at most one chunk buffer.
        def peak():
            mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
            tracemalloc.start()
            try:
                mn.exact_pmf(n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # a first build loads the lazy imports
        kernel = peak()
        monkeypatch.setattr(counting, "_convolve_tree",
                            lambda rows, what: convolve_loop(rows))
        assert kernel <= peak() + 8 * counting.CONVOLVE_CHUNK


def bisect_root(kappa, u, lo, hi):
    """The root of an increasing kappa(r) = u in [lo, hi], by plain
    bisection: an oracle independent of the laws' own inverses."""
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if kappa(mid) < u:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def lattice_law():
    """Inter-arrivals 2, 3 or 7: kappa(r) lies between 2r and 7r."""
    return LatticeInterarrival([2, 3, 7], [0.2, 0.5, 0.3])


class TestInterarrivalInversion:
    def test_exponential_negative_branch_value(self):
        # kappa(r) = -log(1 - r/2); solving kappa(r) = -1 gives 2 - 2e.
        law = ExponentialInterarrival(2.0)
        assert_allclose(law.inverse(-1.0), 2.0 - 2.0 * math.e, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        assert GammaInterarrival(2.0, 3.0).inverse(0.0) == 0.0
        assert lattice_law().inverse(0.0) == 0.0

    def test_gamma_closed_form_matches_bisection(self):
        for law in (GammaInterarrival(1.5, 2.0), GammaInterarrival(2.0, 3.0)):
            for u in (-3.0, -1.7, -0.5, 0.2, 0.6, 5.0):
                assert_allclose(
                    law.inverse(u),
                    bisect_root(law.kappa, u, -200.0, law.rate * (1.0 - 1e-15)),
                    rtol=1e-12, atol=1e-10,
                )

    def test_exponential_is_the_shape_one_gamma(self):
        law = ExponentialInterarrival(2.0)
        gamma = GammaInterarrival(1.0, 2.0)
        assert isinstance(law, GammaInterarrival)
        for r in (-1.0, 0.0, 1.5):
            assert law.kappa(r) == gamma.kappa(r)
            assert law.kappa_prime(r) == gamma.kappa_prime(r)

    def test_gamma_round_trip(self):
        law = GammaInterarrival(1.5, 2.0)
        for u in (-3.0, -0.5, 0.2, 0.6):
            assert_allclose(law.kappa(law.inverse(u)), u, atol=1e-10)

    @pytest.mark.parametrize("u", [-300.0, -3.0, -1e-6, -1e-17, 1e-17, 1e-6, 0.2,
                                   5.0, 300.0])
    def test_lattice_inverse_matches_bisection(self, u):
        # The root lies between u / 7 and u / 2. At |u| = 1e-17, kappa's
        # rounding (about 1e-16) meets u at an end of the bracket already.
        law = lattice_law()
        r = law.inverse(u)
        assert_allclose(r, bisect_root(law.kappa, u, -abs(u), abs(u)),
                        rtol=1e-13, atol=1e-15)
        assert_allclose(law.kappa(r), u, rtol=1e-13, atol=1e-15)

    def test_single_atom_inverse_is_a_division(self, monkeypatch):
        import scipy.optimize

        def no_search(*args, **kwargs):
            raise AssertionError("a single atom reached the root search")

        monkeypatch.setattr(scipy.optimize, "brentq", no_search)
        law = LatticeInterarrival([3], [1.0])
        for u in (-5.0, 0.0, 0.7, 12.0):
            assert law.inverse(u) == u / 3

    @pytest.mark.parametrize("u", [math.nan, -math.inf, math.inf])
    def test_non_finite_targets_are_invalid(self, u):
        # NaN has no root; kappa is finite on R, so +-inf is its own root.
        if math.isnan(u):
            with pytest.raises(ValidationError, match="target value must be"):
                lattice_law().inverse(u)
        else:
            assert lattice_law().inverse(u) == u


def brute_force_counts(values, probs, n):
    """P(N_n = k) by walking every sequence of inter-arrivals until it
    passes n: an oracle independent of the recursion over T_k."""
    pmf = [0.0] * (n + 1)

    def walk(time, k, prob):
        for t, p in zip(values, probs):
            if time + t > n:
                pmf[k] += prob * p
            else:
                walk(time + t, k + 1, prob * p)

    walk(0, 0, 1.0)
    return np.array(pmf)


class TestLatticeInterarrival:
    """Renewal counts of inter-arrivals on finitely many positive integers."""

    @pytest.mark.parametrize("values, probs", [
        ([1, 2], [0.5, 0.5]), ([2, 3, 7], [0.2, 0.5, 0.3]), ([3], [1.0]),
    ], ids=["one-two", "two-three-seven", "single-atom"])
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
    def test_exact_pmf_equals_brute_force(self, values, probs, n):
        # At n = 4 the step of 7 overshoots the table by less than its size.
        pmf = RenewalCounting(LatticeInterarrival(values, probs)).exact_pmf(n)
        expected = brute_force_counts(values, probs, n)
        assert pmf.size <= n + 1 and not expected[pmf.size:].any()
        assert_allclose(pmf, expected[:pmf.size], rtol=0.0, atol=1.2e-16)

    def test_derivatives_and_the_renewal_constant(self):
        # d1 = 1 / E T and d2 = Var T / (E T)^3; E N_n - n d1 tends to the
        # lattice renewal constant (E T^2 + E T) / (2 (E T)^2) - 1.
        for law, constant in ((LatticeInterarrival([1, 2], [0.5, 0.5]), -1.0 / 9.0),
                              (lattice_law(), -0.25)):
            mn = RenewalCounting(law)
            d = mn.derivs_at_zero()
            mean_t = float(law._probs @ law._values)
            var_t = float(law._probs @ law._values ** 2) - mean_t ** 2
            assert_allclose(d.mean_rate, 1.0 / mean_t, rtol=1e-14)
            assert_allclose(d.variance_rate, var_t / mean_t ** 3, rtol=1e-12)
            assert d.cgf_at_minus_inf == -math.inf
            for n in (200, 800):
                assert_allclose(mn.mean(n) - n * d.mean_rate, constant, atol=1e-12)

    def test_finite_cumulant_gap_shrinks_like_one_over_n(self):
        mn = RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5]))
        gaps = [mn.finite_cgf(n, 0.5) - mn.limit_cgf(0.5) for n in (50, 200, 800)]
        assert_allclose(gaps, [-8.71e-4, -2.18e-4, -5.44e-5], rtol=2e-3)

    def test_single_atom_counts_are_sure(self):
        mn = RenewalCounting(LatticeInterarrival([3], [1.0]))
        assert mn.exact_pmf(10).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert mn.limit_cgf(0.6) == 0.6 / 3
        assert mn.derivs_at_zero().variance_rate == 0.0

    @pytest.mark.parametrize("values", [
        [0, 1], [-1, 2], [1.5, 2], [1, 1], [2 ** 53 + 2], [1e20], [math.inf],
    ], ids=["zero", "negative", "fraction", "repeated", "past-2^53", "1e20", "inf"])
    def test_rejects_steps_that_are_not_distinct_positive_integers(self, values):
        with pytest.raises(ValidationError, match="step values must"):
            LatticeInterarrival(values, [1.0 / len(values)] * len(values))

    def test_tilt_past_the_float_range_is_typed(self):
        # At n = 2000 the all-ones path to N_n = 2000 leaves the normal
        # floats inside the law of T_k, yet s = 5 weighs it up to 5e-12 of
        # the tilted total; a milder tilt keeps the table.
        mn = RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5]))
        with pytest.raises(ValidationError, match="below the float range"):
            mn.count_law(2000, 5.0)
        assert_allclose(mn.finite_cgf(2000, 1.0), mn.limit_cgf(1.0), rtol=1e-4)

    def test_table_cap_counts_the_recursion_grid(self, monkeypatch):
        # The recursion visits (n // t_min + 1) (n + 1) states: 100 at n = 9.
        monkeypatch.setattr(counting, "MASS_TABLE_CAP", 100)
        mn = RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5]))
        assert mn.exact_pmf(9).size == 10
        with pytest.raises(ValidationError, match="exceeds 100 states"):
            mn.exact_pmf(10)


class TestRenewalModel:
    def test_exponential_matches_poisson_structure(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        d = mn.derivs_at_zero()
        assert_allclose(d.mean_rate, 1.0, rtol=1e-9)
        assert_allclose(d.variance_rate, 1.0, rtol=1e-7)

    def test_gamma_derivative_record(self):
        # kappa'(0) = shape/rate, kappa''(0) = shape/rate^2, so
        # d1 = rate/shape and d2 = (shape/rate^2) / (shape/rate)^3.
        mn = RenewalCounting(GammaInterarrival(2.0, 4.0))
        d = mn.derivs_at_zero()
        assert_allclose(d.mean_rate, 2.0, rtol=1e-9)
        assert_allclose(d.variance_rate, (2.0 / 16.0) / (0.5 ** 3), rtol=1e-6)

    def test_tail_limit_is_negative_domain_edge(self):
        # Interarrival cgf domain ends at rate; counts cannot vanish faster
        # than e^{-rate n}. A lattice cumulant is finite everywhere: N_n = 0
        # is impossible once n reaches the largest inter-arrival.
        for law, edge in ((ExponentialInterarrival(2.0), 2.0),
                          (lattice_law(), math.inf)):
            mn = RenewalCounting(law)
            assert_allclose(float(mn.derivs_at_zero().cgf_at_minus_inf),
                            -edge, rtol=1e-9)

    def test_sampler_variance_structure(self):
        # Renewal CLT: Var N_n ~ n kappa''(0)/kappa'(0)^3.
        mn = RenewalCounting(GammaInterarrival(2.0, 4.0))
        rng = np.random.default_rng(55)
        draws = mn.count_law(400).draw(rng, 4000).astype(float)
        d = mn.derivs_at_zero()
        assert_allclose(draws.mean() / 400.0, d.mean_rate, rtol=0.02)
        assert_allclose(draws.var(ddof=1) / 400.0, d.variance_rate, rtol=0.15)


def chi_square_pvalue(draws, pmf):
    """p-value of integer draws against a pmf over 0, 1, ...; cells with an
    expected count below 5 are pooled into the two tail cells."""
    reps = draws.size
    expected = reps * pmf
    big = np.flatnonzero(expected >= 5.0)
    lo, hi = int(big[0]), int(big[-1])
    observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
    cells = expected[lo:hi + 1].copy()
    cells[0] += expected[:lo].sum()
    cells[-1] += reps - expected[:hi + 1].sum()
    stat = float(np.sum((observed - cells) ** 2 / cells))
    return float(chi2.sf(stat, cells.size - 1))


def walked_counts(shape, rate, n, rng, reps):
    """Renewals by time n, from partial sums of Gamma(shape, rate) draws."""
    counts = np.zeros(reps, dtype=np.int64)
    totals = np.zeros(reps)
    alive = np.arange(reps)
    while alive.size:
        cum = totals[alive, None] + np.cumsum(
            rng.gamma(shape, 1.0 / rate, size=(alive.size, 256)), axis=1)
        counts[alive] += (cum <= n).sum(axis=1)
        totals[alive] = cum[:, -1]
        alive = alive[cum[:, -1] <= n]
    return counts


class TestRenewalMassTable:
    """The gamma-law count table P(N_n <= k) = Q((k + 1) shape, rate n)."""

    @pytest.mark.parametrize("rate, n", [(1.0, 1), (1.3, 50), (0.2, 700)])
    def test_exponential_counts_are_poisson(self, rate, n):
        pmf = RenewalCounting(ExponentialInterarrival(rate)).exact_pmf(n)
        k = np.arange(pmf.size)
        assert_allclose(pmf, poisson.pmf(k, rate * n), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape, rate, n", [(2, 1.0, 500), (3, 0.5, 40)])
    def test_integer_shape_counts_are_poisson_quotients(self, shape, rate, n):
        # T_j ~ Gamma(j shape, rate) is the (j shape)-th arrival of a
        # Poisson(rate) stream, so N_n = floor(M / shape), M ~ Poisson(rate n).
        cdf = np.cumsum(RenewalCounting(GammaInterarrival(shape, rate)).exact_pmf(n))
        j = np.arange(1, cdf.size)
        assert_allclose(1.0 - cdf[:-1], poisson.sf(j * shape - 1, rate * n),
                        rtol=0.0, atol=1e-12)

    def test_sampler_inverts_the_table(self):
        mn = RenewalCounting(GammaInterarrival(0.5, 3.0))
        pmf = mn.exact_pmf(100)
        draws = mn.count_law(100).draw(np.random.default_rng(21), 50_000)
        assert chi_square_pvalue(draws, pmf) > 1e-3

    def test_table_matches_walked_partial_sums(self):
        mn = RenewalCounting(GammaInterarrival(0.5, 3.0))
        pmf = mn.exact_pmf(100)
        draws = walked_counts(0.5, 3.0, 100, np.random.default_rng(22), 10_000)
        assert chi_square_pvalue(draws, pmf) > 1e-3

    @pytest.mark.parametrize("shape, rate", [(1.0, 1.3), (2.0, 1.0),
                                             (0.5, 3.0), (3.7, 0.2)])
    def test_moments_follow_the_renewal_expansion(self, shape, rate):
        # E N_n = n d1 + (sigma^2 - mu^2) / (2 mu^2) + o(1), which is
        # n d1 + (1 - shape) / (2 shape) for gamma laws; Var N_n = n d2 + O(1).
        mn = RenewalCounting(GammaInterarrival(shape, rate))
        d = mn.derivs_at_zero()
        for n in (1000, 4000):
            assert_allclose(mn.mean(n) - n * d.mean_rate,
                            (1.0 - shape) / (2.0 * shape), atol=1e-6)
            assert abs(mn.var(n) - n * d.variance_rate) <= 2.0


# One model of each kind, for the checks of the one table route.
KINDS = {
    "poisson": PoissonCounting(1.3),
    "iid-sum": IidSumCounting([0, 1, 3], [0.3, 0.4, 0.3]),
    "bernoulli-runs": BernoulliSumCounting.runs(2.0, 1.0),
    "fractional": FractionalPoissonCounting(0.6, 1.0),
    "renewal": RenewalCounting(GammaInterarrival(0.5, 3.0)),
    "renewal-lattice": RenewalCounting(lattice_law()),
}

# Kinds that override a table member with a closed form.
CLOSED_FORMS = {
    "poisson": PoissonCounting(1.3),
    "iid-sum": IidSumCounting([0, 1, 3], [0.3, 0.4, 0.3]),
    "bernoulli": BernoulliSumCounting(p=0.3),
    "bernoulli-runs": BernoulliSumCounting.runs(2.0, 1.0),
}


# One model of each counting kind, at an n where its untilted or tilted
# table's cumsum ends short of 1.
TOP_UNIFORM_KINDS = {
    "poisson": (PoissonCounting(1.0), 100),
    "fractional": (FractionalPoissonCounting(0.7, 1.0), 100),
    "iid-sum": (IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), 100),
    "bernoulli": (BernoulliSumCounting(p=0.5), 100),
    "bernoulli-runs": (BernoulliSumCounting.runs(1.0, 1.0), 400),
    "renewal": (RenewalCounting(GammaInterarrival(2.0, 1.0)), 100),
    "renewal-lattice": (RenewalCounting(lattice_law()), 100),
}


# Every counting kind at the sizes the benchmark workloads sample: the
# mc-checks counts at their n, the ldp-tilted counts at each of their ns.
WORKLOAD_SIZES = {
    "poisson": (PoissonCounting(1.0), (50, 100, 200, 400)),
    "iid-sum": (IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), (50, 100, 200, 400)),
    "fractional": (FractionalPoissonCounting(0.7, 1.0), (50, 100, 200, 400)),
    "bernoulli": (BernoulliSumCounting(p=0.5), (200,)),
    "bernoulli-runs": (BernoulliSumCounting.runs(1.0, 1.0), (400,)),
    "renewal": (RenewalCounting(GammaInterarrival(2.0, 1.0)), (500,)),
    "renewal-lattice": (RenewalCounting(lattice_law()), (100,)),
}


def last_reachable_count(pmf):
    """The first k whose upper tail, summed exactly, is below 2^-54: no
    uniform on rng.random's 2^-53 grid needs a count past it."""
    return next(k for k in range(pmf.size) if math.fsum(pmf[k + 1:]) < 2.0 ** -54)


class TopUniform:
    """An rng whose every uniform is the largest float below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class ZeroUniform:
    """An rng whose every uniform is 0, the least that rng.random draws."""

    def random(self, size):
        return np.zeros(size)


class TestOneTableRoute:
    @pytest.mark.parametrize("kind", sorted(TOP_UNIFORM_KINDS))
    def test_top_uniform_draws_stay_inside_the_table(self, kind):
        # The cdf is 1 from the first count whose upper tail is below 2^-54,
        # so no uniform draws past it, untilted or tilted, let alone the
        # impossible count pmf.size; max_count is the draw at the top uniform.
        mn, n = TOP_UNIFORM_KINDS[kind]
        top = mn.count_law(n).draw(TopUniform(), 3)
        assert top.max() <= last_reachable_count(mn.exact_pmf(n))
        assert top.tolist() == [mn.count_law(n).max_count] * 3
        for s in (-0.5, 0.3):
            draws = mn.count_law(n, s).draw(TopUniform(), 3)
            assert draws.max() <= last_reachable_count(mn.count_law(n, s).pmf)

    @pytest.mark.parametrize("kind", sorted(TOP_UNIFORM_KINDS))
    def test_cdf_is_the_cumsum_then_one_less_the_tail(self, kind):
        # The cdf is the cumsum F where F <= 1/2 and 1 - S past it, S the
        # upper tail, so it is within 2^-54 of 1 - S with S's relative
        # accuracy and reads 1 exactly from the last reachable count on;
        # the pmf (so exact_pmf, mean and var) keeps its bytes.
        mn, n = TOP_UNIFORM_KINDS[kind]
        for s in (0.0, -0.5, 0.3):
            law = mn.count_law(n, s)
            pmf, cdf = law.pmf, law.cdf
            head = np.cumsum(pmf)
            assert np.array_equal(cdf[head <= 0.5], head[head <= 0.5])
            tail = np.array([math.fsum(pmf[k + 1:]) for k in range(pmf.size)])
            past = head > 0.5
            assert np.all(np.abs(1.0 - cdf[past] - tail[past])
                          <= 2.0 ** -54 + 1e-15 * tail[past])
            assert np.all(np.diff(cdf) >= 0.0)
            last = last_reachable_count(pmf)
            assert np.all(cdf[last:] == 1.0) and np.all(cdf[:last] < 1.0)

    def test_poisson_cdf_tail_is_the_survival_function(self):
        # Against scipy's Poisson survival function: past 1/2 the cdf is
        # within 2^-54 of 1 - sf, with the table's relative accuracy, and
        # max_count is the least count whose sf is at most 2^-54, so it
        # grows with n.
        mn, ns = PoissonCounting(1.0), range(300, 312)
        top = []
        for n in ns:
            law = mn.count_law(n)
            sf = poisson.sf(np.arange(law.pmf.size), n)
            past = law.cdf > 0.5
            assert np.all(np.abs(1.0 - law.cdf[past] - sf[past])
                          <= 2.0 ** -54 + 1e-12 * sf[past])
            k = law.max_count
            assert sf[k] <= 2.0 ** -54 < sf[k - 1]
            top.append(k)
        assert all(a < b for a, b in zip(top, top[1:]))

    @pytest.mark.parametrize("mn, n, least", [
        (IidSumCounting([1, 2], [0.5, 0.5]), 3, 3),
        (BernoulliSumCounting.runs(1.0, 1.0), 5, 1),
    ], ids=["iid-sum", "bernoulli-runs"])
    def test_zero_uniform_draws_the_least_possible_count(self, mn, n, least):
        # The inversion rule is min{k : F(k) > u}, so u = 0 draws the least
        # count of positive mass, never a count of mass 0.
        assert mn.exact_pmf(n)[:least].sum() == 0.0
        assert mn.count_law(n).draw(ZeroUniform(), 3).tolist() == [least] * 3
        for s in (-0.5, 0.3):
            draws = mn.count_law(n, s).draw(ZeroUniform(), 3)
            assert draws.tolist() == [least] * 3

    @pytest.mark.parametrize("kind", sorted(WORKLOAD_SIZES))
    def test_guide_draws_are_the_inversion_rule(self, kind):
        # Plain and tilted draws on the same uniforms as ``invert_cdf`` of
        # the table's cdf, and the guide on its row's values and cell edges
        # c / M, with their float neighbours.
        mn, ns = WORKLOAD_SIZES[kind]
        for n in ns:
            for s in (0.0, -0.5, 0.3):
                law = mn.count_law(n, s)
                cdf = law.cdf
                draws = law.draw(np.random.default_rng(n), 20_000)
                assert draws.dtype == np.int64
                assert np.array_equal(draws, invert_cdf(
                    cdf, np.random.default_rng(n).random(20_000)))
                scale = law.guide.scale[0]
                u = np.concatenate([cdf, np.arange(scale) / scale,
                                    [0.0, 2.0 ** -53, np.nextafter(1.0, 0.0)]])
                u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
                u = u[(u >= 0.0) & (u < 1.0)]
                assert np.array_equal(law.guide.draw(0, u), invert_cdf(cdf, u))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_draws_follow_the_exact_pmf(self, kind):
        mn = KINDS[kind]
        draws = mn.count_law(60).draw(np.random.default_rng(31), 50_000)
        assert chi_square_pvalue(draws, mn.exact_pmf(60)) > 1e-3

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("s", [-0.2, 0.2])
    def test_tilted_draws_follow_the_reweighted_pmf(self, kind, s):
        # A mild tilt keeps the tilted mass inside the untilted table, so
        # P(N_n = k) e^{s k}, renormalised, is the tilted law.
        mn = KINDS[kind]
        pmf = mn.exact_pmf(60) * np.exp(s * np.arange(mn.exact_pmf(60).size))
        draws = mn.count_law(60, s).draw(np.random.default_rng(32), 50_000)
        assert chi_square_pvalue(draws, pmf / pmf.sum()) > 1e-3

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_moments_and_cumulant_read_the_table(self, kind):
        mn = KINDS[kind]
        pmf = mn.exact_pmf(60)
        k = np.arange(pmf.size)
        assert_allclose(mn.mean(60), k @ pmf, rtol=1e-12)
        assert_allclose(mn.var(60), (k - k @ pmf) ** 2 @ pmf, rtol=1e-10)
        # The untilted table drops a tail below MASS_TAIL_TOL, which e^{eta k}
        # weighs up; the tilted table behind finite_cgf keeps it.
        for eta in (-0.3, 0.3):
            assert_allclose(mn.finite_cgf(60, eta),
                            logsumexp(eta * k, b=pmf) / 60, rtol=1e-7)

    @pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
    def test_closed_forms_equal_the_table_route(self, kind):
        mn = CLOSED_FORMS[kind]
        for n in (1, 12, 60):
            for eta in (-3.0, -0.5, 0.5, 3.0):
                assert_allclose(mn.finite_cgf(n, eta),
                                CountingModel.finite_cgf(mn, n, eta),
                                rtol=1e-10, atol=1e-14)
            assert_allclose(mn.mean(n), CountingModel.mean(mn, n), rtol=1e-12)

    def test_poisson_closed_form_needs_no_table(self, monkeypatch):
        # The md sweep at n = 1e5 reads finite_cgf and mean only.
        mn = PoissonCounting(1.0)
        monkeypatch.setattr(PoissonCounting, "_tilted_table", None)
        assert_allclose(mn.finite_cgf(100_000, 0.01), math.expm1(0.01), rtol=1e-15)
        assert mn.mean(100_000) == 100_000.0

    def test_exact_pmf_is_the_same_bits_on_every_call(self):
        # Each call builds its own table; writing to one leaves the next.
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        first = mn.exact_pmf(40)
        assert first is not mn.exact_pmf(40)
        assert first.tobytes() == mn.exact_pmf(40).tobytes()
        first[0] = 0.5
        assert mn.exact_pmf(40)[0] != 0.5

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0])
    def test_renewal_tables_keep_relative_accuracy(self, s):
        # Exp(1) counts at n = 400 tilted by s are Poisson(400 e^s); every
        # kept mass from k = 100 to 1200 matches to 1e-10 relative, tail
        # masses far below 1e-100 included.
        law = RenewalCounting(ExponentialInterarrival(1.0)).count_law(400, s)
        pmf, log_z = law.pmf, 400 * law.cgf
        k = np.arange(pmf.size)
        kept = (k >= 100) & (k <= 1200) & (pmf > 0.0)
        expected = np.exp(poisson.logpmf(k[kept], 400.0 * math.exp(s)))
        assert_allclose(pmf[kept], expected, rtol=1e-10)
        assert_allclose(log_z, 400.0 * math.expm1(s), rtol=1e-12, atol=1e-12)
        if s > 0.0:
            assert pmf[kept].min() < 1e-100

    def test_bernoulli_sure_trials_under_extreme_tilts(self):
        # The runs profile is 1 at the first site: a sure trial, whose
        # cumulant at eta is eta even where 1 + (e^eta - 1) rounds to 0.
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        q = mn.success_probs(10)
        expected = (-40.0 + float(np.sum(np.log1p(q[1:] * math.expm1(-40.0))))) / 10
        assert_allclose(mn.finite_cgf(10, -40.0), expected, rtol=1e-12)
        draws = mn.count_law(10, -40.0).draw(np.random.default_rng(3), 1000)
        assert set(draws.tolist()) == {1}

    def test_runs_limit_cumulant_near_its_singular_region(self):
        # log(1 - q + q e^eta) with q = e^{-x} turns over at x ~ e^eta; the
        # closed form holds there without a warning and to 1e-12.
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        with mp.workdps(30):
            for eta in (-28.0, -26.0, -25.0):
                e = mp.exp(eta)
                expected = float(mp.quad(
                    lambda x: mp.log(1 - mp.exp(-x) * (1 - e)),
                    [0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1]))
                assert_allclose(mn.limit_cgf(eta), expected, rtol=1e-12)


# runs(lam, c) at a = lam * c in {1, 2, 50, 1e3, 1e5}.
RUNS_PRESETS = {"a=1": (1.0, 1.0), "a=2": (2.0, 1.0), "a=50": (10.0, 5.0),
                "a=1e3": (100.0, 10.0), "a=1e5": (1000.0, 100.0)}


def runs_triple_exact(a, eta):
    """L = [Li2(-b e^{-a}) - Li2(-b)] / a, L' = -log(1 + x) / (a sigma) and
    L'' = e^{-eta} [log(1 + x) - x / (1 + x)] / (a sigma^2) of the runs preset,
    with b = e^eta - 1, sigma = 1 - e^{-eta}, x = sigma (e^{-a} - 1), in
    mpmath at the working precision."""
    a, eta = mp.mpf(a), mp.mpf(eta)
    if eta == -mp.inf:
        return (mp.polylog(2, mp.exp(-a)) - mp.zeta(2)) / a, 0, 0
    if eta == 0:
        return 0, -mp.expm1(-a) / a, mp.expm1(-a) ** 2 / (2 * a)
    b, sigma = mp.expm1(eta), -mp.expm1(-eta)
    one_x = mp.exp(-eta) + sigma * mp.exp(-a)
    log_1x = mp.log(one_x) if one_x < 0.5 else mp.log1p(sigma * mp.expm1(-a))
    d = log_1x - sigma * mp.expm1(-a) / one_x
    return ((mp.polylog(2, -b * mp.exp(-a)) - mp.polylog(2, -b)) / a,
            -log_1x / (a * sigma), mp.exp(-eta) * d / (a * sigma ** 2))


def assert_runs_triple_is_exact(mn, a, eta):
    """L, L' and L'' of ``mn`` at eta within rtol 1e-12 of 80-digit values,
    or both below 1e-300."""
    with mp.workdps(80):
        want = [float(v) for v in runs_triple_exact(a, eta)]
    got = [mn.limit_cgf(eta), mn.limit_cgf_deriv(eta), mn.limit_cgf_second(eta)]
    for value, ref in zip(got, want):
        if abs(value) < 1e-300 and abs(ref) < 1e-300:
            continue
        assert_allclose(value, ref, rtol=1e-12, err_msg=f"a={a}, eta={eta}")


# (a, eta) at each switch between the forms of the runs triple: the series in
# b = e^eta - 1 ends at |b| = 1/2, the fixed rule at a |sigma| = 1/4, the
# series of L'' at |x| = 0.1 and the plain log(1 + x) at x = -1/2, with
# x = sigma (e^{-a} - 1); sigma overflows past eta = -709, and the direct form
# gives way to the inverted one at b e^{-a} = 1.
RUNS_SWITCHES = {
    "series-low": (1.0, math.log(0.5)),
    "series-high": (1.0, math.log(1.5)),
    "rule-negative": (0.1, -math.log(3.5)),
    "rule-positive": (0.5, math.log(2.0)),
    "slope-series-negative": (1.0, -math.log1p(0.1 / -math.expm1(-1.0))),
    "slope-series-positive": (1.0, -math.log1p(-0.1 / -math.expm1(-1.0))),
    "log-sum": (1.0, -math.log1p(-0.5 / -math.expm1(-1.0))),
    "sigma-overflow": (1.0, -709.0),
    "inversion": (5.0, math.log1p(math.exp(5.0))),
}


class TestRunsClosedForm:
    """The runs preset p(x) = e^{-a x}: its closed-form limit triple and
    left tail against their integrals, to mpmath's digits."""

    @pytest.mark.parametrize("lam, c", RUNS_PRESETS.values(), ids=RUNS_PRESETS)
    def test_runs_rates_at_zero_are_the_closed_forms(self, lam, c):
        # d1 = (1 - e^{-a}) / a and d2 = d1 - (1 - e^{-2a}) / (2a).
        a = lam * c
        d = BernoulliSumCounting.runs(lam, c).derivs_at_zero()
        with mp.workdps(40):
            d1 = float(-mp.expm1(-a) / a)
            d2 = float(-mp.expm1(-a) / a + mp.expm1(-2 * a) / (2 * a))
        assert abs(d.mean_rate - d1) <= 2 * math.ulp(d1)
        assert abs(d.variance_rate - d2) <= 2 * math.ulp(d2)

    @pytest.mark.parametrize("lam, c", RUNS_PRESETS.values(), ids=RUNS_PRESETS)
    def test_runs_left_tail_is_the_dilogarithm(self, lam, c):
        # The integral of log(1 - e^{-a x}) over [0, 1] is
        # -(zeta(2) - Li2(e^{-a})) / a.
        a = lam * c
        with mp.workdps(40):
            exact = float(-(mp.zeta(2) - mp.polylog(2, mp.exp(-a))) / a)
        tail = BernoulliSumCounting.runs(lam, c).limit_cgf(-math.inf)
        assert abs(tail - exact) <= 1e-14
        if a == 1.0:
            assert abs(exact - (-1.2361797794993301)) <= 1e-16

    @pytest.mark.parametrize("a", [1e-6, 1e-4, 0.01])
    def test_runs_left_tail_is_finite_at_small_a(self, a):
        # e^{-a x} rounds to 1 on [0, 2^-54 / a], yet the left tail is
        # finite, and so is the rate at the origin, -cgf_at_minus_inf.
        with mp.workdps(40):
            exact = float(-(mp.zeta(2) - mp.polylog(2, mp.exp(-a))) / a)
        mn = BernoulliSumCounting.runs(a, 1.0)
        assert_allclose(mn.limit_cgf(-math.inf), exact, rtol=1e-12)
        assert mn.derivs_at_zero().cgf_at_minus_inf == mn.limit_cgf(-math.inf)

    @pytest.mark.parametrize("lam, c", RUNS_PRESETS.values(), ids=RUNS_PRESETS)
    def test_runs_limit_cgf_matches_mpmath(self, lam, c):
        a = lam * c
        mn = BernoulliSumCounting.runs(lam, c)
        for eta in (-40.0, -10.0, -1.0, 0.5, 3.0):
            with mp.workdps(30):
                exact = float(mp.quad(
                    lambda x: mp.log1p(mp.exp(-a * x) * mp.expm1(eta)),
                    [0, 1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1]))
            assert_allclose(mn.limit_cgf(eta), exact, rtol=1e-12, err_msg=f"eta={eta}")

    def test_dilogarithm_at_the_edges_of_its_maps(self):
        # The series serves |x| <= 1/2; past it the reflection (x > 1/2) and
        # Landen's map (x < -1/2) carry x into it, once.
        for x in (0.5, np.nextafter(0.5, 1.0), 0.7, 1.0, -0.5,
                  np.nextafter(-0.5, -1.0), -0.7, -1.0, 1e-300, 0.0):
            with mp.workdps(40):
                exact = float(mp.polylog(2, x))
            assert_allclose(counting._li2(float(x)), exact, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("a", [1e-300, 1e-12, 1e-9, 3e-8])
    def test_runs_left_tail_at_tiny_products(self, a):
        # Where e^{-a x} is 1 to the last bit on much of [0, 1], the tail is
        # still [Li2(e^{-a}) - zeta(2)] / a, which tends to log(a) - 1, and
        # the rate at the origin is minus the tail.
        with mp.workdps(360):
            b = mp.expm1(-30)
            tail = float((mp.polylog(2, mp.exp(-a)) - mp.zeta(2)) / a)
            at_30 = float((mp.polylog(2, -b * mp.exp(-a)) - mp.polylog(2, -b)) / a)
        mn = BernoulliSumCounting.runs(a, 1.0)
        assert_allclose(mn.limit_cgf(-math.inf), tail, rtol=1e-12)
        assert_allclose(mn.limit_cgf(-30.0), at_30, rtol=1e-12)
        assert math.isfinite(mn.derivs_at_zero().cgf_at_minus_inf)
        summand = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        assert rate_ld_explicit(summand, mn, [0.0], 0.0) == -mn.limit_cgf(-math.inf)

    @pytest.mark.parametrize("a", [1e-9, 1e-7, 1e-4, 0.05, 1.0, 5.0, 50.0, 1e3, 1e5],
                             ids=lambda a: f"a={a:g}")
    def test_runs_triple_matches_mpmath_on_a_grid(self, a):
        # At 80 digits; a value and its reference may also both lie below 1e-300.
        etas = [-800.0, -40.0, -3.0, -0.3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.3,
                3.0, 30.0, 800.0, -math.inf]
        mn = BernoulliSumCounting.runs(a, 1.0)
        for eta in etas:
            assert_runs_triple_is_exact(mn, a, eta)
        assert mn.limit_cgf(math.inf) == math.inf
        assert math.isnan(mn.limit_cgf(math.nan))

    @pytest.mark.parametrize("a, eta", RUNS_SWITCHES.values(), ids=RUNS_SWITCHES)
    def test_runs_triple_holds_across_its_switches(self, a, eta):
        # On both sides of each switch between the forms of L, L' and L'',
        # one ulp and 1e-9 relative away, the triple keeps mpmath's digits.
        mn = BernoulliSumCounting.runs(a, 1.0)
        for at in (eta * (1.0 - 1e-9), math.nextafter(eta, -math.inf), eta,
                   math.nextafter(eta, math.inf), eta * (1.0 + 1e-9)):
            assert_runs_triple_is_exact(mn, a, at)

    @pytest.mark.parametrize("lam, c", [(1.0, 1.0), (2.0, 1.0), (10.0, 5.0),
                                        (0.3, 0.7)])
    def test_runs_sites_are_the_exponential_bit_for_bit(self, lam, c):
        # The finite-n law reads exp(-lam c x) at x = j / n bit for bit, so
        # every table and draw of the preset keeps its bytes.
        mn = BernoulliSumCounting.runs(lam, c)
        for n in (1, 7, 400):
            sites = (np.arange(n, dtype=float) / n).tolist()
            assert mn.success_probs(n).tolist() == [math.exp(-lam * c * x) for x in sites]


class TestPoissonIsOrderOneFractional:
    """PoissonCounting is FractionalPoissonCounting at nu = 1: the same
    limit triple, left tail and tilted pmfs, bit for bit."""

    @pytest.mark.parametrize("rate", [0.3, 1.0, 2.7, 13.0])
    def test_limit_triple_and_tail(self, rate):
        mn = PoissonCounting(rate)
        for eta in np.linspace(-12.0, 6.0, 37).tolist():
            assert mn.limit_cgf(eta) == rate * math.expm1(eta)
            assert mn.limit_cgf_deriv(eta) == rate * math.exp(eta)
            assert mn.limit_cgf_second(eta) == rate * math.exp(eta)
        fractional = FractionalPoissonCounting(1.0, rate)
        assert mn.derivs_at_zero() == fractional.derivs_at_zero()
        assert mn.derivs_at_zero().cgf_at_minus_inf == -rate

    @pytest.mark.parametrize("rate", [0.3, 2.7])
    def test_tilted_tables(self, rate):
        mn, fractional = PoissonCounting(rate), FractionalPoissonCounting(1.0, rate)
        for n in (1, 7, 50):
            for s in (0.0, -0.7, 0.4, 1.3):
                law, law_f = mn.count_law(n, s), fractional.count_law(n, s)
                assert np.array_equal(law.pmf, law_f.pmf)
                # The Poisson law carries its closed cumulant, the fractional
                # one its table's; they part in the last bits.
                assert law.cgf == mn.finite_cgf(n, s)
                assert_allclose(law.cgf, law_f.cgf, rtol=1e-14)

    def test_a_tilted_poisson_law_grows_one_table(self, monkeypatch):
        # The closed cumulant needs no untilted normaliser, so the Poisson
        # law grows only its tilted table; the fractional one grows both.
        grows, grow = [], counting._grow_table

        def counted_grow(build, what):
            grows.append(what)
            return grow(build, what)

        monkeypatch.setattr(counting, "_grow_table", counted_grow)
        law = PoissonCounting(1.0).count_law(200, 0.5)
        assert len(grows) == 1
        law_f = FractionalPoissonCounting(1.0, 1.0).count_law(200, 0.5)
        assert len(grows) == 3
        assert np.array_equal(law.pmf, law_f.pmf)
        assert law.cgf == PoissonCounting(1.0).finite_cgf(200, 0.5)


class TestFractionalSmallOrder:
    """nu = 0.2, below the Mittag-Leffler evaluation domain [0.3, 1]."""

    MN = FractionalPoissonCounting(0.2, 1.0)

    def series(self, n, eta=0.0):
        # log E(0.2, 1; x e^eta) and the first two moments, by a direct sum.
        x = float(n) ** 0.2 * math.exp(eta)
        with mp.workdps(40):
            terms = [mp.power(x, k) / mp.gamma(0.2 * k + 1) for k in range(4000)]
            total = mp.fsum(terms)
            mean = mp.fsum(k * t for k, t in enumerate(terms)) / total
            second = mp.fsum(k * k * t for k, t in enumerate(terms)) / total
            return float(mp.log(total)), float(mean), float(second - mean * mean)

    @pytest.mark.parametrize("n", [1, 10, 40])
    def test_finite_quantities_match_the_series(self, n):
        log_total, mean, var = self.series(n)
        assert_allclose(self.MN.mean(n), mean, rtol=1e-11)
        assert_allclose(self.MN.var(n), var, rtol=1e-10)
        for eta in (-0.5, 0.3):
            assert_allclose(self.MN.finite_cgf(n, eta),
                            (self.series(n, eta)[0] - log_total) / n,
                            rtol=1e-11)

    def test_scaled_moments_approach_the_limit(self):
        d = self.MN.derivs_at_zero()
        assert_allclose(self.MN.mean(1000) / 1000.0, d.mean_rate, rtol=1e-9)
        assert_allclose(self.MN.var(1000) / 1000.0, d.variance_rate, rtol=1e-9)

    def test_draws_follow_the_table(self):
        pmf = self.MN.exact_pmf(10)
        draws = self.MN.count_law(10).draw(np.random.default_rng(33), 50_000)
        assert chi_square_pvalue(draws, pmf) > 1e-3


class TestValidation:
    def test_rejects_bad_n(self):
        mn = PoissonCounting(1.0)
        with pytest.raises(ValidationError):
            mn.mean(0)
        with pytest.raises(ValidationError):
            mn.finite_cgf(2.5, 0.0)
        with pytest.raises(ValidationError):
            mn.mean(True)

    def test_fractional_domain(self):
        with pytest.raises(ValidationError):
            FractionalPoissonCounting(0.0, 1.0)
        with pytest.raises(ValidationError):
            FractionalPoissonCounting(1.5, 1.0)
        with pytest.raises(ValidationError):
            FractionalPoissonCounting(0.5, -1.0)
        # The limit scale rate ** (1/nu) overflows a float.
        with pytest.raises(ValidationError, match="overflows"):
            FractionalPoissonCounting(0.01, 1e10)

    @pytest.mark.parametrize("build", [
        lambda: FractionalPoissonCounting(0.00704, 1.0),
        lambda: RenewalCounting(GammaInterarrival(0.001, 1.0)),
    ], ids=["fractional", "gamma-renewal"])
    def test_cumulant_overflow_on_the_probe_grid_is_typed(self, build):
        # expm1(5 / nu) and expm1(5 / shape) pass the float range at the
        # probe's eta = 5: the cumulant is not finite there.
        with pytest.raises(ValidationError, match="not finite on the probe grid"):
            build()

    def test_probe_reads_the_cumulant_once_per_grid_point(self):
        calls = []

        class Counted(PoissonCounting):
            def limit_cgf(self, eta):
                calls.append(eta)
                return super().limit_cgf(eta)

        Counted(1.0)
        assert calls == counting.PROBE_ETAS.tolist()
        assert counting.PROBE_ETAS[counting.PROBE_ZERO] == 0.0

    def test_fractional_table_stops_at_the_cap(self, monkeypatch):
        # The doubling stops at the cap: no longer table is ever built.
        monkeypatch.setattr(counting, "MASS_TABLE_CAP", 100)
        sizes = []

        def recording_gammaln(k):
            sizes.append(k.size)
            return gammaln(k)

        # The table builder imports gammaln from scipy.special when it runs.
        monkeypatch.setattr(scipy.special, "gammaln", recording_gammaln)
        with pytest.raises(ValidationError, match="exceeds 100 states"):
            FractionalPoissonCounting(0.7, 1.0).exact_pmf(400)
        assert sizes == [64, 100]

    def test_renewal_table_cap_is_typed(self, monkeypatch):
        # Gamma(2, 1) counts at n = 500 need 512 states.
        mn = RenewalCounting(GammaInterarrival(2.0, 1.0))
        monkeypatch.setattr(counting, "MASS_TABLE_CAP", 100)
        with pytest.raises(ValidationError, match="exceeds 100 states"):
            mn.count_law(500).draw(np.random.default_rng(1), 10)
        monkeypatch.undo()
        with pytest.raises(ValidationError, match="renewal mass table"):
            RenewalCounting(ExponentialInterarrival(1.0)).mean(10_000_000)

    @pytest.mark.parametrize("build, message", [
        (lambda: LatticeInterarrival([1, 2], [0.2, 0.3, 0.5]),
         "probs must match the step values in shape"),
        (lambda: RenewalCounting(PoissonCounting(1.0)),
         "law must be an InterarrivalLaw"),
    ], ids=["lattice-probs-shape", "renewal-law"])
    def test_rejects_malformed_constructor_arguments(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_bernoulli_rejects_a_sure_p(self):
        with pytest.raises(ValidationError):
            BernoulliSumCounting(p=1.0)

    @pytest.mark.parametrize("which", ["lam", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, True],
                             ids=["nan", "infinite", "zero", "negative", "bool"])
    def test_runs_rejects_a_bad_lam_or_c(self, which, value):
        args = {"lam": 1.0, "c": 1.0, which: value}
        with pytest.raises(ValidationError,
                           match=rf"^runs {which} must be a positive finite real, got "):
            BernoulliSumCounting.runs(**args)

    @pytest.mark.parametrize("lam, c, product", [
        (1e200, 1e200, "inf"), (1e-200, 1e-200, "0.0"), (1e-160, 1e-160, "1e-320"),
    ], ids=["overflow", "underflow", "subnormal"])
    def test_runs_product_is_a_positive_normal_float(self, lam, c, product):
        # lam and c pass on their own; their product a = lam c does not.
        with pytest.raises(ValidationError,
                           match=rf"runs lam·c must be a positive finite real .*got {product}$"):
            BernoulliSumCounting.runs(lam, c)

    def test_iid_sum_rejects_negative_or_float_steps(self):
        with pytest.raises(ValidationError):
            IidSumCounting([-1, 1], [0.5, 0.5])
        with pytest.raises(ValidationError):
            IidSumCounting([0.5, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("build", [
        lambda: IidSumCounting([0, 10 ** 5], [0.5, 0.5]).exact_pmf(100),
        lambda: IidSumCounting([0, 2 ** 62], [0.5, 0.5]),
        lambda: IidSumCounting([1e20], [1.0]),
    ], ids=["past-the-cap", "2^62", "1e20"])
    def test_iid_sum_table_is_judged_before_it_is_built(self, build):
        # A table of 10^7 + 1 states is refused before its rows are tiled
        # (80.8 MB), and steps past 2^53 before any cast.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds|step values must"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("build", [
        lambda: GammaInterarrival(None, 1.0),
        lambda: GammaInterarrival("2", 1.0),
        lambda: GammaInterarrival(2.0, math.inf),
        lambda: ExponentialInterarrival("1"),
        lambda: BernoulliSumCounting.runs(None, 1.0),
        lambda: BernoulliSumCounting.runs(math.nan, 1.0),
        lambda: BernoulliSumCounting.runs(1.0, -2.0),
    ], ids=["gamma-none", "gamma-str", "gamma-inf", "exp-str", "runs-none",
            "runs-nan", "runs-negative"])
    def test_gamma_and_runs_arguments_are_typed(self, build):
        with pytest.raises(ValidationError, match="must be a positive finite real"):
            build()

    @pytest.mark.parametrize("model", [
        BernoulliSumCounting(p=0.3),
        BernoulliSumCounting.runs(1.0, 1.0),
        RenewalCounting(GammaInterarrival(2.0, 1.0)),
        PoissonCounting(1.0),
        FractionalPoissonCounting(0.7, 1.0),
        IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]),
        RenewalCounting(lattice_law()),
    ], ids=["bernoulli", "bernoulli-runs", "gamma-renewal", "poisson",
            "fractional", "iid-sum", "lattice-renewal"])
    @pytest.mark.parametrize("member", ["limit_cgf", "limit_cgf_deriv",
                                        "limit_cgf_second"])
    def test_nan_eta_is_never_a_finite_cumulant(self, model, member):
        # A NaN eta propagates or is a typed error; no branch turns it into
        # a finite value.
        try:
            value = getattr(model, member)(math.nan)
        except ValidationError:
            return
        assert math.isnan(value)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_is_typed(self, kind, s):
        # No law is built for a NaN or infinite tilt, and the model is left
        # as it was.
        mn = KINDS[kind]
        kept = set(vars(mn))
        with pytest.raises(ValidationError, match="tilt s must be a finite real"):
            mn.count_law(10, s)
        assert set(vars(mn)) == kept

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_nan_finite_cumulant_is_never_finite(self, kind):
        try:
            value = KINDS[kind].finite_cgf(10, math.nan)
        except ValidationError:
            return
        assert math.isnan(value)
