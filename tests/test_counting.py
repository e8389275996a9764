"""Counting-process models: limiting cumulants, finite-n laws, samplers.

Closed-form cumulants are checked against their formulas on an eta grid;
derivative records against central finite differences of the limiting cgf;
the fractional mean against an extended-precision series oracle; the
renewal inverse against an independent bisection.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from compound_deviations import counting
from compound_deviations.counting import (
    BernoulliSumCounting,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    GammaInterarrival,
    IidSumCounting,
    PoissonCounting,
    RenewalCounting,
    TabulatedInterarrival,
    invert_interarrival_cgf,
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
        assert mn.derivs_at_zero().cgf_at_minus_inf.is_neg_inf


class TestFiniteNCgf:
    def test_iid_sum_finite_equals_limit(self):
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        for n in (1, 7, 100):
            for eta in (-2.0, -0.5, 0.5, 1.5):
                assert mn.finite_cgf(n, eta) == mn.limit_cgf(eta)

    def test_fractional_gap_shrinks_with_n(self):
        mn = FractionalPoissonCounting(0.5, 1.0)
        for eta in (-1.0, -0.1, 0.1, 1.0):
            gaps = [abs(mn.finite_cgf(n, eta) - mn.limit_cgf(eta))
                    for n in (10, 100, 1000)]
            assert gaps[0] > gaps[1] > gaps[2], f"eta={eta}: {gaps}"

    def test_inhomogeneous_poisson_gap_shrinks_with_n(self):
        mn = PoissonCounting(1.0, intensity=lambda t: 1.0 + math.exp(-t))
        # Limiting mass rate is 1 (the intensity settles at 1), so the
        # finite-n cgf approaches the homogeneous formula from above.
        for eta in (-1.0, -0.1, 0.1, 1.0):
            gaps = [abs(mn.finite_cgf(n, eta) - mn.limit_cgf(eta))
                    for n in (10, 100, 1000)]
            assert gaps[0] > gaps[1] > gaps[2], f"eta={eta}: {gaps}"

    def test_fractional_consistency_with_log_ratio(self):
        from compound_deviations.mittag_leffler import log_mittag_leffler_ratio

        mn = FractionalPoissonCounting(0.5, 1.0)
        n = 50
        x = 1.0 * n ** 0.5
        for eta in (-1.0, 0.3):
            assert_allclose(
                mn.finite_cgf(n, eta),
                log_mittag_leffler_ratio(0.5, math.exp(eta) * x, x) / n,
                rtol=1e-12, atol=1e-15,
            )

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

    def test_renewal_has_no_finite_cgf(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        assert not mn.supports_finite_cgf
        with pytest.raises(UnsupportedModelError):
            mn.finite_cgf(10, 0.1)


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

    def test_mean_mc_reports_standard_error(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        rng = np.random.default_rng(5)
        value, se = mn.mean_mc(50, rng, reps=4000)
        assert abs(value - 50.0) <= 4.0 * se


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
        assert mn.count_bound(25) == 25

    def test_iid_sum_bound(self):
        mn = IidSumCounting([0, 3], [0.5, 0.5])
        assert mn.count_bound(10) == 30


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

    def test_renewal_tilting_unsupported(self):
        mn = RenewalCounting(ExponentialInterarrival(1.0))
        with pytest.raises(UnsupportedModelError):
            mn.tilted_count_sampler(10, 0.1)


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
        with pytest.raises(UnsupportedModelError):
            PoissonCounting(1.0).exact_pmf(5)


class TestInterarrivalInversion:
    def test_exponential_negative_branch_value(self):
        # kappa(r) = -log(1 - r/2); solving kappa(r) = -1 gives 2 - 2e,
        # also equal to the algebraic inverse 2(1 - e^{-u}) at u = -1.
        law = ExponentialInterarrival(2.0)
        root = invert_interarrival_cgf(law.kappa, -1.0, domain_sup=2.0)
        assert_allclose(root, 2.0 - 2.0 * math.e, rtol=1e-12)
        assert_allclose(law.inverse(-1.0), 2.0 - 2.0 * math.e, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        law = GammaInterarrival(2.0, 3.0)
        assert invert_interarrival_cgf(law.kappa, 0.0) == 0.0

    def test_gamma_closed_form_inverse_matches_root_search(self):
        law = GammaInterarrival(1.5, 2.0)
        for u in (-3.0, -0.5, 0.2, 0.6, 5.0):
            assert_allclose(
                law.inverse(u),
                invert_interarrival_cgf(law.kappa, u, domain_sup=2.0),
                rtol=1e-12, atol=1e-12,
            )

    def test_exponential_is_the_shape_one_gamma(self):
        law = ExponentialInterarrival(2.0)
        gamma = GammaInterarrival(1.0, 2.0)
        assert isinstance(law, GammaInterarrival)
        for r in (-1.0, 0.0, 1.5):
            assert law.kappa(r) == gamma.kappa(r)
            assert law.kappa_prime(r) == gamma.kappa_prime(r)
        # Draws keep the exponential sampler.
        draws = law.sample(np.random.default_rng(3), 5)
        expected = np.random.default_rng(3).exponential(0.5, size=5)
        assert np.array_equal(draws, expected)

    def test_gamma_round_trip(self):
        law = GammaInterarrival(1.5, 2.0)
        for u in (-3.0, -0.5, 0.2, 0.6):
            r = invert_interarrival_cgf(law.kappa, u, domain_sup=2.0)
            assert_allclose(law.kappa(r), u, atol=1e-10)

    def test_bisection_oracle(self):
        # Independent bisection against the bracketing + brentq path.
        law = GammaInterarrival(2.0, 3.0)
        u = -1.7
        lo, hi = -200.0, 0.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if law.kappa(mid) < u:
                lo = mid
            else:
                hi = mid
        assert_allclose(
            invert_interarrival_cgf(law.kappa, u, domain_sup=3.0),
            (lo + hi) / 2.0, atol=1e-10,
        )

    def test_unreachable_target_raises(self):
        # Bounded interarrival times: kappa(r) >= r * t_min has no root for
        # strongly negative targets when kappa is bounded below... use a
        # tabulated law with a narrow range instead.
        law = TabulatedInterarrival(
            [-0.5, -0.2, 0.0, 0.2, 0.4],
            [-0.6, -0.22, 0.0, 0.25, 0.6],
        )
        with pytest.raises((NoRootError, ValidationError)):
            law.inverse(-5.0)


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

        monkeypatch.setattr(counting, "gammaln", recording_gammaln)
        with pytest.raises(ValidationError, match="exceeds 100 states"):
            FractionalPoissonCounting(0.7, 1.0).mass_table(400)
        assert sizes == [64, 100]

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

    def test_poisson_rejects_negative_intensity(self):
        with pytest.raises(ValidationError):
            PoissonCounting(1.0, intensity=lambda t: -1.0)
