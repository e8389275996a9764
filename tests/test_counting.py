"""Counting-process models: limiting cumulants, finite-n laws, samplers.

Closed-form cumulants are checked against their formulas on an eta grid;
derivative records against central finite differences of the limiting cgf;
the fractional mean against an extended-precision series oracle; the
renewal inverse against an independent bisection; the gamma-law renewal
mass table against Poisson laws, renewal-theory moments and walked
partial sums of gamma draws.
"""

import math

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
    PoissonCounting,
    RenewalCounting,
    TabulatedInterarrival,
)
from compound_deviations.errors import (
    NoRootError,
    UnsupportedModelError,
    ValidationError,
)

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
        for mn in (BernoulliSumCounting(p=0.25),
                   BernoulliSumCounting(profile=lambda x: 0.25)):
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

    def test_inhomogeneous_poisson_gap_shrinks_with_n(self):
        mn = PoissonCounting(1.0, intensity=lambda t: 1.0 + math.exp(-t))
        # Limiting mass rate is 1 (the intensity settles at 1), so the
        # finite-n cgf approaches the homogeneous formula from above.
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
            mn.tilted_count_sampler(2000, -5.0)


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
            PoissonCounting(1.0, intensity=lambda t: 1.0 + math.exp(-t)),
        ):
            d1 = mn.derivs_at_zero().mean_rate
            assert abs(mn.mean(1000) / 1000.0 - d1) <= 0.05 * d1, type(mn).__name__

    def test_poisson_exact_moments(self):
        mn = PoissonCounting(2.5)
        assert_allclose(mn.mean(40), 100.0, rtol=1e-12)
        assert_allclose(mn.var(40), 100.0, rtol=1e-12)

    def test_renewal_sample_mean_matches_the_exact_mean(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        draws = mn.sample_batch(50, np.random.default_rng(5), 4000)
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
            draws = mn.sample_batch(n, rng, reps).astype(float)
            expected = mn.mean(n) if rate is None else None
            if expected is None:
                expected = rate * n
            se = draws.std(ddof=1) / math.sqrt(reps)
            assert abs(draws.mean() - expected) <= 4.0 * se + 1e-9, type(mn).__name__

    def test_sample_batch_dtype_and_shape(self):
        mn = PoissonCounting(1.0)
        rng = np.random.default_rng(1)
        out = mn.sample_batch(10, rng, 37)
        assert out.shape == (37,)

    def test_bernoulli_bounded_by_n(self):
        mn = BernoulliSumCounting.runs(2.0, 1.0)
        rng = np.random.default_rng(2)
        draws = mn.sample_batch(25, rng, 500)
        assert draws.max() <= 25
        assert mn.exact_pmf(25).size == 26

    def test_iid_sum_bound(self):
        mn = IidSumCounting([0, 3], [0.5, 0.5])
        assert mn.exact_pmf(10).size == 31


class TestTiltedSamplers:
    def test_poisson_tilt_is_poisson_with_scaled_mass(self):
        mn = PoissonCounting(1.0)
        sampler = mn.tilted_count_sampler(100, math.log(2.0))
        rng = np.random.default_rng(7)
        draws = sampler(rng, 20000).astype(float)
        # Tilted mass is 100 * e^s = 200.
        se = draws.std(ddof=1) / math.sqrt(20000)
        assert abs(draws.mean() - 200.0) <= 4.0 * se

    def test_iid_sum_tilt_reweights_steps(self):
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        sampler = mn.tilted_count_sampler(50, 1.0)
        rng = np.random.default_rng(8)
        draws = sampler(rng, 20000).astype(float)
        p_tilted = math.e / (1.0 + math.e)
        se = draws.std(ddof=1) / math.sqrt(20000)
        assert abs(draws.mean() - 50.0 * p_tilted) <= 4.0 * se

    def test_bernoulli_profile_tilt(self):
        mn = BernoulliSumCounting.runs(2.0, 1.0)
        sampler = mn.tilted_count_sampler(60, 0.7)
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
            draws = mn.tilted_count_sampler(100, s)(np.random.default_rng(seed),
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
        draws = mn.sample_batch(5, rng, 200000)
        empirical = np.bincount(draws.astype(int), minlength=6) / 200000.0
        assert_allclose(empirical, pmf, atol=0.006)

    def test_poisson_has_no_bounded_pmf(self):
        # Unbounded support: the table stops once the tail beyond it is
        # below MASS_TAIL_TOL.
        pmf = PoissonCounting(1.0).exact_pmf(5)
        k = np.arange(pmf.size)
        assert_allclose(pmf, poisson.pmf(k, 5.0), rtol=1e-12)
        assert poisson.sf(pmf.size - 1, 5.0) < counting.MASS_TAIL_TOL


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


def narrow_table():
    """A tabulated cumulant on [-0.5, 0.4], kappa ranging over [-0.6, 0.6]."""
    return TabulatedInterarrival(
        [-0.5, -0.2, 0.0, 0.2, 0.4],
        [-0.6, -0.22, 0.0, 0.25, 0.6],
    )


class TestInterarrivalInversion:
    def test_exponential_negative_branch_value(self):
        # kappa(r) = -log(1 - r/2); solving kappa(r) = -1 gives 2 - 2e.
        law = ExponentialInterarrival(2.0)
        assert_allclose(law.inverse(-1.0), 2.0 - 2.0 * math.e, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        assert GammaInterarrival(2.0, 3.0).inverse(0.0) == 0.0
        assert narrow_table().inverse(0.0) == 0.0

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

    def test_table_round_trip_matches_bisection(self):
        law = narrow_table()
        for u in np.linspace(-0.59, 0.59, 13):
            r = law.inverse(float(u))
            assert_allclose(r, bisect_root(law.kappa, u, law.domain_inf,
                                           law.domain_sup), atol=1e-12, rtol=0)
            assert_allclose(law.kappa(r), u, atol=1e-12, rtol=0)

    def test_table_ends_are_roots(self):
        # kappa(r_0) and kappa(r_last) are in the range, with roots at the
        # table's own ends.
        law = narrow_table()
        assert law.kappa_range == (law.kappa(-0.5), law.kappa(0.4))
        assert law.inverse(law.kappa(-0.5)) == -0.5
        assert law.inverse(law.kappa(0.4)) == 0.4

    @pytest.mark.parametrize("u", [-5.0, -0.6 - 1e-9, 0.6 + 1e-9, 5.0])
    def test_targets_beyond_the_table_raise_at_once(self, u, monkeypatch):
        import scipy.optimize

        def no_search(*args, **kwargs):
            raise AssertionError("a target beyond the table reached the root search")

        monkeypatch.setattr(scipy.optimize, "brentq", no_search)
        with pytest.raises(NoRootError):
            narrow_table().inverse(u)

    @pytest.mark.parametrize("u", [math.nan, -math.inf, math.inf])
    def test_non_finite_targets_are_invalid(self, u):
        with pytest.raises(ValidationError, match="target value must be"):
            narrow_table().inverse(u)


class TestTabulatedInterarrival:
    def test_interpolates_and_differentiates(self):
        base = ExponentialInterarrival(1.0)
        rs = np.linspace(-3.0, 0.9, 40)  # step 0.1, so r = 0 is a table site
        law = TabulatedInterarrival(rs, [base.kappa(float(r)) for r in rs])
        for r in (-1.0, 0.3, 0.5):
            assert_allclose(law.kappa(r), base.kappa(r), atol=2e-5)
            # Monotone-cubic derivatives carry percent-level error at this
            # table spacing; only the magnitude is being checked.
            assert_allclose(law.kappa_prime(r), base.kappa_prime(r), rtol=0.01)

    def test_requires_kappa_zero_at_zero(self):
        with pytest.raises(ValidationError):
            TabulatedInterarrival([-1.0, 0.0, 1.0, 2.0], [-1.0, 0.5, 1.0, 2.0])

    def test_requires_bracketing_zero(self):
        with pytest.raises(ValidationError):
            TabulatedInterarrival([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])

    def test_outside_range_raises(self):
        law = TabulatedInterarrival(
            [-1.0, 0.0, 0.5, 1.0], [-0.8, 0.0, 0.6, 1.5]
        )
        with pytest.raises(ValidationError):
            law.kappa(2.0)


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
        # than e^{-rate n}. A table's domain ends at its last entry: here the
        # Exp(1) cumulant tabulated on [-3, 0.9].
        rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
        table = TabulatedInterarrival(rs, [-math.log1p(-r) for r in rs])
        for law, edge in ((ExponentialInterarrival(2.0), 2.0), (table, 0.9)):
            mn = RenewalCounting(law)
            assert_allclose(float(mn.derivs_at_zero().cgf_at_minus_inf),
                            -edge, rtol=1e-9)

    def test_sampler_variance_structure(self):
        # Renewal CLT: Var N_n ~ n kappa''(0)/kappa'(0)^3.
        mn = RenewalCounting(GammaInterarrival(2.0, 4.0))
        rng = np.random.default_rng(55)
        draws = mn.sample_batch(400, rng, 4000).astype(float)
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
        draws = mn.sample_batch(100, np.random.default_rng(21), 50_000)
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

    def test_tabulated_law_has_no_table(self):
        rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
        mn = RenewalCounting(TabulatedInterarrival(rs, [-math.log1p(-r) for r in rs]))
        for call in (mn.mean, mn.var, mn.exact_pmf):
            with pytest.raises(UnsupportedModelError):
                call(10)
        with pytest.raises(UnsupportedModelError):
            mn.sample_batch(10, np.random.default_rng(1), 5)
        with pytest.raises(UnsupportedModelError):
            mn.finite_cgf(10, 0.5)
        with pytest.raises(UnsupportedModelError):
            mn.tilted_count_sampler(10, 0.5)


# One model of each kind, for the checks of the one table route.
KINDS = {
    "poisson": PoissonCounting(1.3),
    "iid-sum": IidSumCounting([0, 1, 3], [0.3, 0.4, 0.3]),
    "bernoulli-runs": BernoulliSumCounting.runs(2.0, 1.0),
    "fractional": FractionalPoissonCounting(0.6, 1.0),
    "renewal": RenewalCounting(GammaInterarrival(0.5, 3.0)),
}

# Kinds that override a table member with a closed form.
CLOSED_FORMS = {
    "poisson": PoissonCounting(1.3),
    "inhomogeneous-poisson": PoissonCounting(1.0, intensity=lambda t: 1.0 + math.exp(-t)),
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
        top = mn.sample_batch(n, TopUniform(), 3)
        assert top.max() <= last_reachable_count(mn.exact_pmf(n))
        assert top.tolist() == [mn.max_count(n)] * 3
        for s in (-0.5, 0.3):
            draws = mn.tilted_count_sampler(n, s)(TopUniform(), 3)
            assert draws.max() <= last_reachable_count(mn._table(n, s)[0])

    @pytest.mark.parametrize("kind", sorted(TOP_UNIFORM_KINDS))
    def test_cdf_is_the_cumsum_up_to_the_last_reachable_count(self, kind):
        # Only the cdf is trimmed: it is 1 from the last reachable count on,
        # and the pmf (so exact_pmf, mean and var) keeps its bytes.
        mn, n = TOP_UNIFORM_KINDS[kind]
        for s in (0.0, -0.5, 0.3):
            pmf, cdf, _ = mn._table(n, s)
            last = last_reachable_count(pmf)
            assert np.array_equal(cdf[:last], np.cumsum(pmf)[:last])
            assert np.all(cdf[last:] == 1.0)

    @pytest.mark.parametrize("mn, n, least", [
        (IidSumCounting([1, 2], [0.5, 0.5]), 3, 3),
        (BernoulliSumCounting.runs(1.0, 1.0), 5, 1),
    ], ids=["iid-sum", "bernoulli-runs"])
    def test_zero_uniform_draws_the_least_possible_count(self, mn, n, least):
        # The inversion rule is min{k : F(k) > u}, so u = 0 draws the least
        # count of positive mass, never a count of mass 0.
        assert mn.exact_pmf(n)[:least].sum() == 0.0
        assert mn.sample_batch(n, ZeroUniform(), 3).tolist() == [least] * 3
        for s in (-0.5, 0.3):
            draws = mn.tilted_count_sampler(n, s)(ZeroUniform(), 3)
            assert draws.tolist() == [least] * 3

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_draws_follow_the_exact_pmf(self, kind):
        mn = KINDS[kind]
        draws = mn.sample_batch(60, np.random.default_rng(31), 50_000)
        assert chi_square_pvalue(draws, mn.exact_pmf(60)) > 1e-3

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("s", [-0.2, 0.2])
    def test_tilted_draws_follow_the_reweighted_pmf(self, kind, s):
        # A mild tilt keeps the tilted mass inside the untilted table, so
        # P(N_n = k) e^{s k}, renormalised, is the tilted law.
        mn = KINDS[kind]
        pmf = mn.exact_pmf(60) * np.exp(s * np.arange(mn.exact_pmf(60).size))
        draws = mn.tilted_count_sampler(60, s)(np.random.default_rng(32), 50_000)
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

    def test_poisson_without_mass_is_zero(self):
        # An intensity that is zero up to time 2 gives N_1 = 0 surely.
        mn = PoissonCounting(1.0, intensity=lambda t: 0.0 if t < 2.0 else 1.0)
        assert mn.exact_pmf(1).tolist() == [1.0]
        assert mn.sample_batch(1, np.random.default_rng(4), 5).tolist() == [0] * 5
        assert mn.finite_cgf(1, 2.0) == 0.0

    def test_exact_pmf_is_cached_and_read_only(self):
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        assert mn.exact_pmf(40) is mn.exact_pmf(40)
        with pytest.raises(ValueError):
            mn.exact_pmf(40)[0] = 0.5

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0])
    def test_renewal_tables_keep_relative_accuracy(self, s):
        # Exp(1) counts at n = 400 tilted by s are Poisson(400 e^s); every
        # kept mass from k = 100 to 1200 matches to 1e-10 relative, tail
        # masses far below 1e-100 included.
        pmf, log_z = RenewalCounting(ExponentialInterarrival(1.0))._tilted_table(400, s)
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
        draws = mn.tilted_count_sampler(10, -40.0)(np.random.default_rng(3), 1000)
        assert set(draws.tolist()) == {1}

    def test_runs_limit_cumulant_near_its_singular_region(self):
        # log(1 - q + q e^eta) with q = e^{-x} turns over at x ~ e^eta; the
        # quadrature meets it without a warning and to 1e-12.
        mn = BernoulliSumCounting.runs(1.0, 1.0)
        with mp.workdps(30):
            for eta in (-28.0, -26.0, -25.0):
                e = mp.exp(eta)
                expected = float(mp.quad(
                    lambda x: mp.log(1 - mp.exp(-x) * (1 - e)),
                    [0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1]))
                assert_allclose(mn.limit_cgf(eta), expected, rtol=1e-12)


class TestPoissonIsOrderOneFractional:
    """PoissonCounting is FractionalPoissonCounting at nu = 1: the same
    limit triple, left tail and tilted tables, bit for bit."""

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
                pmf, _, log_z = mn._table(n, s)
                pmf_f, _, log_z_f = fractional._table(n, s)
                assert np.array_equal(pmf, pmf_f)
                assert log_z == log_z_f


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
        draws = self.MN.sample_batch(10, np.random.default_rng(33), 50_000)
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
            mn.sample_batch(500, np.random.default_rng(1), 10)
        monkeypatch.undo()
        with pytest.raises(ValidationError, match="renewal mass table"):
            RenewalCounting(ExponentialInterarrival(1.0)).mean(10_000_000)

    def test_bernoulli_exclusive_arguments(self):
        with pytest.raises(ValidationError):
            BernoulliSumCounting(p=0.5, profile=lambda x: 0.5)
        with pytest.raises(ValidationError):
            BernoulliSumCounting()
        with pytest.raises(ValidationError):
            BernoulliSumCounting(p=1.0)

    def test_iid_sum_rejects_negative_or_float_steps(self):
        with pytest.raises(ValidationError):
            IidSumCounting([-1, 1], [0.5, 0.5])
        with pytest.raises(ValidationError):
            IidSumCounting([0.5, 1.0], [0.5, 0.5])

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

    def test_poisson_rejects_negative_intensity(self):
        with pytest.raises(ValidationError):
            PoissonCounting(1.0, intensity=lambda t: -1.0)
