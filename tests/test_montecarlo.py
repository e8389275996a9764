"""Tests for simulation, exact enumeration, tilting, and the check runners.

Wherever an exact answer exists (finite enumerations, scipy's Poisson tail,
closed-form count rates) the estimators are held to it; the reproducibility
contracts (same seed, any worker count, summand stream independent of the
count stream) are checked bit for bit.
"""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.optimize import minimize_scalar
from scipy.special import gammainc, gammaln, logsumexp

from compound_deviations import montecarlo
from compound_deviations.counting import (
    BernoulliSumCounting,
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
    EnumerationTooLargeError,
    UnsupportedModelError,
    ValidationError,
    ZeroRateEventError,
)
from compound_deviations.montecarlo import (
    BLOCK_SIZE,
    CompoundSamples,
    DecayEstimate,
    HalfSpaceEvent,
    ScalingFamily,
    clt_regime_check,
    decay_rate_scan,
    enumerate_exact,
    estimate_event_prob,
    event_rate_infimum,
    md_scaling_sweep,
    moment_limits_check,
    simulate_compound,
    tilt_parameters,
)
from compound_deviations.summands import FiniteSupportSummands, GaussianSummands
from compound_deviations.variational import legendre_transform

# Hand-checked enumeration values. With four {0,1} count steps and atoms
# {0, 2} at probability 1/2 each, {S >= 6} needs at least three 2-atoms:
# summing the binomial splits gives 13/256. With six Bernoulli(1/2) count
# steps and +/-1 atoms, {S >= 3} collects 299/4096.
IID_SUM_EXACT = 13.0 / 256.0
BERNOULLI_EXACT = 299.0 / 4096.0


def pm_one_summand():
    return FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])


def zero_two_summand():
    return FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])


def unit_poisson():
    return PoissonCounting(1.0)


def tabulated_renewal():
    # The Exp(1) cumulant tabulated on [-3, 0.9]: no finite-n law.
    rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
    return RenewalCounting(TabulatedInterarrival(rs, [-math.log1p(-r) for r in rs]))


# One model of each counting kind with a count level above its drift d1
# and within its reach.
KIND_CASES = {
    "poisson": (PoissonCounting(1.0), 2.0),
    "iid-sum": (IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), 1.5),
    "bernoulli-runs": (BernoulliSumCounting.runs(1.0, 1.0), 0.8),
    "fractional": (FractionalPoissonCounting(0.7, 1.0), 2.5),
    "renewal": (RenewalCounting(GammaInterarrival(2.0, 1.0)), 1.0),
}


def pm_one_conjugate(z):
    # Conjugate of log cosh: z atanh(z) + log(1 - z^2) / 2 for |z| < 1.
    return z * math.atanh(z) + 0.5 * math.log1p(-z * z)


def poisson_rate(y):
    # Conjugate of the Poisson(1) limit cumulant e^eta - 1.
    return y * math.log(y) - y + 1.0


def half_bernoulli_rate(y):
    # Binary relative entropy of y against 1/2, for 0 < y < 1.
    return y * math.log(2.0 * y) + (1.0 - y) * math.log(2.0 * (1.0 - y))


class TestHalfSpaceEvent:
    def test_sum_mode_requires_direction(self):
        with pytest.raises(ValidationError):
            HalfSpaceEvent(mode="sum", level=0.5)

    def test_count_mode_forbids_direction(self):
        with pytest.raises(ValidationError):
            HalfSpaceEvent(mode="count", level=2.0, direction=[1.0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValidationError):
            HalfSpaceEvent(mode="sum", level=0.5, direction=[0.0, 0.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            HalfSpaceEvent(mode="ball", level=0.5)

    def test_nonfinite_level_rejected(self):
        with pytest.raises(ValidationError):
            HalfSpaceEvent(mode="count", level=math.inf)

    def test_indicator_on_known_samples(self):
        samples = CompoundSamples(
            n=10,
            sums=np.array([[12.0], [-3.0], [5.0]]),
            counts=np.array([25, 4, 10]),
        )
        sum_event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        count_event = HalfSpaceEvent(mode="count", level=1.0)
        assert sum_event.indicator(samples).tolist() == [True, False, True]
        assert count_event.indicator(samples).tolist() == [True, False, True]

    @pytest.mark.parametrize("direction, level, point", [
        ([-0.1, 0.1], 0.0, [-3.0, -3.0]),
        ([0.2, 0.2, -0.2], -0.4, [-3.0, 3.0, 2.0]),
    ])
    def test_boundary_points_are_inside(self, direction, level, point):
        # Lattice points on the boundary of the closed event. Their inner
        # product rounds to either side of the level depending on how many
        # rows are multiplied at once (one row or a batch); the boundary
        # rule puts them inside, and a point 1e-9 outside stays out.
        event = HalfSpaceEvent(mode="sum", level=level, direction=direction)
        on = np.array([point])
        off = on - 1e-9 * np.sign(direction)
        for sums in (on, np.tile(on, (8, 1))):
            samples = CompoundSamples(n=1, sums=sums, counts=np.zeros(len(sums)))
            assert event.indicator(samples).all()
        samples = CompoundSamples(n=1, sums=off, counts=np.zeros(1))
        assert not event.indicator(samples).any()


class TestSimulateCompound:
    def test_shapes_and_scaled_views(self):
        mx = GaussianSummands([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        samples = simulate_compound(mx, unit_poisson(), 20, 100, seed=7)
        assert samples.sums.shape == (100, 2)
        assert samples.counts.shape == (100,)
        assert samples.reps == 100
        assert_allclose(samples.sum_scaled, samples.sums / 20.0)
        assert_allclose(samples.count_scaled, samples.counts / 20.0)

    def test_rerun_is_bit_identical(self):
        mx = zero_two_summand()
        first = simulate_compound(mx, unit_poisson(), 50, 2000, seed=11)
        second = simulate_compound(mx, unit_poisson(), 50, 2000, seed=11)
        assert np.array_equal(first.counts, second.counts)
        assert np.array_equal(first.sums, second.sums)

    def test_worker_count_does_not_change_the_draws(self):
        mx = zero_two_summand()
        reps = BLOCK_SIZE + 500
        serial = simulate_compound(mx, unit_poisson(), 30, reps, seed=3,
                                   workers=1)
        parallel = simulate_compound(mx, unit_poisson(), 30, reps, seed=3,
                                     workers=2)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.sums, parallel.sums)

    def test_block_prefix_is_stable(self):
        # Growing reps appends blocks without touching earlier draws.
        mx = zero_two_summand()
        small = simulate_compound(mx, unit_poisson(), 30, BLOCK_SIZE, seed=5)
        large = simulate_compound(mx, unit_poisson(), 30, BLOCK_SIZE + 100,
                                  seed=5)
        assert np.array_equal(small.counts, large.counts[:BLOCK_SIZE])
        assert np.array_equal(small.sums, large.sums[:BLOCK_SIZE])

    def test_summand_stream_is_independent_of_count_stream(self):
        mx = GaussianSummands([0.0], [[1.0]])
        base = simulate_compound(mx, unit_poisson(), 40, 500, seed=9)
        moved = simulate_compound(mx, unit_poisson(), 40, 500, seed=9,
                                  x_seed=10)
        assert np.array_equal(base.counts, moved.counts)
        assert not np.array_equal(base.sums, moved.sums)

    def test_seed_validation(self):
        mx = zero_two_summand()
        with pytest.raises(ValidationError):
            simulate_compound(mx, unit_poisson(), 10, 10, seed=-1)
        with pytest.raises(ValidationError):
            simulate_compound(mx, unit_poisson(), 10, 10, seed=None)
        with pytest.raises(ValidationError):
            simulate_compound(mx, unit_poisson(), 10, 10, seed=1, workers=0)
        with pytest.raises(ValidationError):
            simulate_compound(mx, unit_poisson(), 10, 0, seed=1)


class TestEnumerateExact:
    def test_iid_sum_hand_value(self):
        mx = zero_two_summand()
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        event = HalfSpaceEvent(mode="sum", level=1.5, direction=[1.0])
        assert_allclose(enumerate_exact(mx, mn, 4, event), IID_SUM_EXACT,
                        rtol=1e-12)

    def test_bernoulli_hand_value(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        assert_allclose(enumerate_exact(pm_one_summand(), mn, 6, event),
                        BERNOULLI_EXACT, rtol=1e-12)

    def test_matches_plain_monte_carlo(self):
        mx = zero_two_summand()
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        event = HalfSpaceEvent(mode="sum", level=1.5, direction=[1.0])
        estimate = estimate_event_prob(mx, mn, 4, event, reps=40_000,
                                       method="plain", seed=401)
        assert abs(estimate.value - IID_SUM_EXACT) <= 4.0 * estimate.std_error

    def test_count_events_enumerate_too(self):
        mn = BernoulliSumCounting(p=0.3)
        event = HalfSpaceEvent(mode="count", level=0.5)
        expected = float(stats.binom.sf(3, 8, 0.3))
        assert_allclose(enumerate_exact(pm_one_summand(), mn, 8, event),
                        expected, rtol=1e-12)

    def test_gaussian_summands_rejected(self):
        event = HalfSpaceEvent(mode="count", level=1.5)
        with pytest.raises(UnsupportedModelError):
            enumerate_exact(GaussianSummands([0.0], [[1.0]]),
                            BernoulliSumCounting(p=0.5), 4, event)

    def test_unbounded_counts_enumerate_over_their_table(self):
        # P(N_4 >= 6) for Poisson(4) counts, and P(T_12 <= 8) for Gamma(2, 1)
        # renewals at level 1.5, from tables truncated at MASS_TAIL_TOL.
        event = HalfSpaceEvent(mode="count", level=1.5)
        assert_allclose(enumerate_exact(pm_one_summand(), unit_poisson(), 4, event),
                        stats.poisson.sf(5, 4.0), rtol=1e-11)
        renewal = RenewalCounting(GammaInterarrival(2.0, 1.0))
        assert_allclose(enumerate_exact(pm_one_summand(), renewal, 8, event),
                        gammainc(24.0, 8.0), rtol=1e-9)

    def test_lawless_counts_rejected(self):
        event = HalfSpaceEvent(mode="count", level=1.5)
        with pytest.raises(UnsupportedModelError):
            enumerate_exact(pm_one_summand(), tabulated_renewal(), 4, event)

    def test_term_budget_guard(self):
        many_atoms = FiniteSupportSummands(
            [[float(k)] for k in range(1, 7)], [1.0 / 6.0] * 6
        )
        event = HalfSpaceEvent(mode="sum", level=3.0, direction=[1.0])
        with pytest.raises(EnumerationTooLargeError) as excinfo:
            enumerate_exact(many_atoms, BernoulliSumCounting(p=0.5), 50,
                            event)
        assert excinfo.value.term_count == sum(
            math.comb(k + 5, 5) for k in range(51)
        )
        assert excinfo.value.term_count > excinfo.value.limit


class TestTiltParameters:
    def test_count_event_tilt_is_the_conjugate_argmax(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        tilt = tilt_parameters(pm_one_summand(), unit_poisson(), event)
        assert_allclose(tilt.eta, math.log(2.0), atol=1e-7)
        assert_allclose(tilt.s, tilt.eta, rtol=1e-12)
        assert_allclose(tilt.rate, 2.0 * math.log(2.0) - 1.0, atol=1e-10)
        assert_allclose(tilt.theta, [0.0])
        assert_allclose(tilt.boundary_y, 2.0)

    def test_count_event_below_mean_rejected(self):
        event = HalfSpaceEvent(mode="count", level=0.5)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(pm_one_summand(), unit_poisson(), event)
        at_mean = HalfSpaceEvent(mode="count", level=1.0)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(pm_one_summand(), unit_poisson(), at_mean)

    @pytest.mark.parametrize("mx, mn, direction, level, conj, count_rate, bounds", [
        # +/-1 atoms with Poisson(1) counts: conj is infinite once level / y
        # leaves (-1, 1).
        pytest.param(pm_one_summand(), unit_poisson(), [1.0], 0.5,
                     pm_one_conjugate, poisson_rate, (0.501, 50.0),
                     id="pm-poisson"),
        # 2-d Gaussian summands: the projected conjugate is the quadratic
        # (z - <d, mu>)^2 / (2 d' Sigma d) with <d, mu> = 0.1, d' Sigma d = 2.1.
        pytest.param(GaussianSummands([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
                     unit_poisson(), [1.0, 1.0], 1.0,
                     lambda z: (z - 0.1) ** 2 / 4.2, poisson_rate, (1e-3, 50.0),
                     id="gauss2d-poisson"),
        # +/-1 atoms with Bernoulli(1/2) counts: the count rate is the binary
        # relative entropy on (0, 1).
        pytest.param(pm_one_summand(), BernoulliSumCounting(p=0.5), [1.0], 0.4,
                     pm_one_conjugate, half_bernoulli_rate, (0.401, 0.9999),
                     id="pm-bernoulli"),
    ])
    def test_sum_event_matches_boundary_oracle(
        self, mx, mn, direction, level, conj, count_rate, bounds,
    ):
        # Independent oracle: minimize y * conj(level / y) + count rate over
        # the count slot with closed forms on both parts.
        event = HalfSpaceEvent(mode="sum", level=level, direction=direction)
        tilt = tilt_parameters(mx, mn, event)

        def boundary(y):
            return y * conj(level / y) + count_rate(y)

        oracle = minimize_scalar(boundary, bounds=bounds, method="bounded",
                                 options={"xatol": 1e-10})
        assert_allclose(tilt.rate, oracle.fun, atol=1e-8)
        assert_allclose(tilt.boundary_y, oracle.x, atol=1e-5)

    def test_sum_event_tilt_identities(self):
        mx, mn = pm_one_summand(), unit_poisson()
        event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        tilt = tilt_parameters(mx, mn, event)
        # s is eta shifted by the summand cgf, and the tilted drift sits on
        # the event boundary.
        assert_allclose(tilt.s, tilt.eta + mx.cgf(tilt.theta), rtol=1e-10)
        assert_allclose(float(event.direction @ tilt.boundary_x), 0.5,
                        atol=1e-7)
        assert_allclose(
            tilt.rate,
            float(event_rate_infimum(mx, mn, event)),
            rtol=1e-12,
        )

    def test_sum_event_below_drift_rejected(self):
        mx = zero_two_summand()
        event = HalfSpaceEvent(mode="sum", level=0.9, direction=[1.0])
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(mx, unit_poisson(), event)

    @pytest.mark.parametrize("mode, direction", [("sum", [1.0]), ("count", None)],
                             ids=["sum", "count"])
    def test_unreachable_event_is_a_validation_error(self, mode, direction):
        # Bernoulli(1/2) counts never exceed n, and |S| <= N for +/-1 atoms,
        # so level 1.5 is out of reach in both modes.
        event = HalfSpaceEvent(mode=mode, level=1.5, direction=direction)
        with pytest.raises(ValidationError, match="reachable"):
            tilt_parameters(pm_one_summand(), BernoulliSumCounting(p=0.5), event)

    @pytest.mark.parametrize("event", [
        pytest.param(HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0]),
                     id="sum"),
        pytest.param(HalfSpaceEvent(mode="count", level=2.0), id="count"),
    ])
    def test_one_conjugate_solve_per_tilt(self, monkeypatch, event):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return legendre_transform(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "legendre_transform", counted)
        tilt_parameters(pm_one_summand(), unit_poisson(), event)
        assert len(calls) == 1

    def test_zero_rate_event_has_zero_infimum(self):
        event = HalfSpaceEvent(mode="count", level=0.5)
        assert event_rate_infimum(pm_one_summand(), unit_poisson(),
                                  event) == 0.0


class TestEstimateEventProb:
    def test_plain_matches_enumeration(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        estimate = estimate_event_prob(pm_one_summand(), mn, 6, event,
                                       reps=40_000, method="plain", seed=21)
        assert estimate.method == "plain"
        assert abs(estimate.value - BERNOULLI_EXACT) <= (
            4.0 * estimate.std_error
        )
        binomial_se = math.sqrt(
            BERNOULLI_EXACT * (1.0 - BERNOULLI_EXACT) / 40_000
        )
        assert_allclose(estimate.std_error, binomial_se, rtol=0.2)

    def test_plain_is_the_indicator_mean_of_simulate_compound(self):
        # Unit weights: the same draws, the same mean and spread, bit for bit.
        mx, mn = zero_two_summand(), unit_poisson()
        event = HalfSpaceEvent(mode="sum", level=1.2, direction=[1.0])
        reps = BLOCK_SIZE + 500
        estimate = estimate_event_prob(mx, mn, 30, event, reps=reps,
                                       method="plain", seed=23, x_seed=24)
        hits = event.indicator(
            simulate_compound(mx, mn, 30, reps, seed=23, x_seed=24)
        ).astype(float)
        assert estimate.value == float(hits.mean())
        assert estimate.std_error == float(hits.std(ddof=1)) / math.sqrt(reps)
        assert estimate.tilt is None and not estimate.degenerate

    def test_tilted_matches_enumeration(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        estimate = estimate_event_prob(pm_one_summand(), mn, 6, event,
                                       reps=10_000, method="tilted", seed=22)
        assert estimate.method == "tilted"
        assert estimate.tilt is not None
        assert abs(estimate.value - BERNOULLI_EXACT) <= (
            4.0 * estimate.std_error
        )

    def test_tilted_reaches_probabilities_plain_cannot(self):
        # P(N/n >= 2) at n = 40 is the exact Poisson tail P(N >= 80), around
        # 1.7e-8; 20000 plain draws see no hits while the tilted estimator
        # lands within a few standard errors of scipy's value.
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        exact = float(stats.poisson.sf(79, 40.0))
        plain = estimate_event_prob(mx, mn, 40, event, reps=20_000,
                                    method="plain", seed=31)
        assert plain.value == 0.0
        assert plain.degenerate
        tilted = estimate_event_prob(mx, mn, 40, event, reps=20_000,
                                     method="tilted", seed=31)
        assert not tilted.degenerate
        assert abs(tilted.value - exact) <= 4.0 * tilted.std_error
        assert tilted.std_error < exact

    def test_tilted_rerun_is_bit_identical(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        first = estimate_event_prob(mx, mn, 30, event, reps=9000,
                                    method="tilted", seed=77)
        second = estimate_event_prob(mx, mn, 30, event, reps=9000,
                                     method="tilted", seed=77)
        assert first.value == second.value
        assert first.std_error == second.std_error

    @pytest.mark.parametrize("mn, level", [
        (unit_poisson(), 2.0),
        # A closure profile; level 2 is beyond its reach of N/n <= 1.
        (BernoulliSumCounting.runs(1.0, 1.0), 0.8),
        # Both block threads read the sampler's one tilted table.
        (FractionalPoissonCounting(0.7, 1.0), 2.0),
        KIND_CASES["iid-sum"],
        KIND_CASES["renewal"],
    ], ids=["poisson", "bernoulli-runs", "fractional", "iid-sum", "renewal"])
    def test_tilted_worker_count_invariance(self, mn, level):
        event = HalfSpaceEvent(mode="count", level=level)
        mx = pm_one_summand()
        serial = estimate_event_prob(mx, mn, 30, event, reps=BLOCK_SIZE + 800,
                                     method="tilted", seed=78, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two block threads often
        try:
            parallel = estimate_event_prob(mx, mn, 30, event,
                                           reps=BLOCK_SIZE + 800,
                                           method="tilted", seed=78, workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert serial.value == parallel.value
        assert serial.std_error == parallel.std_error

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    def test_fractional_tilted_estimate_matches_the_series(self, n):
        # P(N_n >= 2.5 n) for the fractional count (nu 0.7, rate 1) by a
        # direct log-sum of x^k / Gamma(nu k + 1), x = n^nu, over a range
        # that holds all but a negligible share of the mass. The tilted law
        # lives far beyond the untilted bulk, so its table must be built
        # from its own weights.
        mn = FractionalPoissonCounting(0.7, 1.0)
        k = np.arange(20 * n + 200, dtype=float)
        log_weights = k * math.log(float(n) ** 0.7) - gammaln(0.7 * k + 1.0)
        exact = math.exp(logsumexp(log_weights[k >= 2.5 * n])
                         - logsumexp(log_weights))
        event = HalfSpaceEvent(mode="count", level=2.5)
        estimate = estimate_event_prob(pm_one_summand(), mn, n, event,
                                       reps=10_000, method="tilted", seed=11)
        assert estimate.value > 0.0
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error

    def test_tilted_sampler_is_built_once_per_estimate(self, monkeypatch):
        # One tilted table per estimate, shared by all blocks, for every kind.
        built = []
        build = CountingModel.tilted_count_sampler

        def counted(self, n, s):
            built.append(type(self).__name__)
            return build(self, n, s)

        monkeypatch.setattr(CountingModel, "tilted_count_sampler", counted)
        for mn, level in KIND_CASES.values():
            estimate_event_prob(pm_one_summand(), mn, 30,
                                HalfSpaceEvent(mode="count", level=level),
                                reps=BLOCK_SIZE + 800, method="tilted", seed=78)
        assert built == [type(mn).__name__ for mn, _ in KIND_CASES.values()]

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    @pytest.mark.parametrize("mode", ["sum", "count"])
    def test_tilted_covers_enumeration_for_every_kind(self, kind, mode):
        # Small instances whose exact value enumerates every count in the
        # kind's table (truncated for Poisson, fractional and renewal).
        mn, level = KIND_CASES[kind]
        event = (HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
                 if mode == "sum" else HalfSpaceEvent(mode="count", level=level))
        exact = enumerate_exact(pm_one_summand(), mn, 8, event)
        estimate = estimate_event_prob(pm_one_summand(), mn, 8, event,
                                       reps=20_000, method="tilted", seed=23)
        assert 0.0 < exact < 0.5
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error

    @pytest.mark.parametrize("law, level", [
        (ExponentialInterarrival(1.0), 2.0),
        (GammaInterarrival(2.0, 1.0), 1.0),
    ], ids=["exponential", "gamma"])
    def test_renewal_tilt_oracle(self, law, level):
        # Both events are {T_k <= 50} with T_k ~ Gamma(100, 1): 3.200e-10.
        exact = float(gammainc(100.0, 50.0))
        assert_allclose(exact, 3.200e-10, rtol=2e-4)
        event = HalfSpaceEvent(mode="count", level=level)
        estimate = estimate_event_prob(pm_one_summand(), RenewalCounting(law),
                                       50, event, reps=10_000, method="tilted",
                                       seed=24)
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error
        assert estimate.std_error < 0.05 * exact

    def test_count_event_value_ignores_summand_stream(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        base = estimate_event_prob(mx, mn, 30, event, reps=5000,
                                   method="tilted", seed=79)
        moved = estimate_event_prob(mx, mn, 30, event, reps=5000,
                                    method="tilted", seed=79, x_seed=80)
        assert base.value == moved.value

    def test_lawless_renewal_counts_cannot_be_tilted(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        with pytest.raises(UnsupportedModelError):
            estimate_event_prob(pm_one_summand(), tabulated_renewal(), 30,
                                event, reps=100, method="tilted", seed=1)

    def test_unknown_method_rejected(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        with pytest.raises(ValidationError):
            estimate_event_prob(pm_one_summand(), unit_poisson(), 30, event,
                                reps=10, method="antithetic", seed=1)

    def test_impossible_event_is_degenerate(self):
        event = HalfSpaceEvent(mode="count", level=5.0)
        estimate = estimate_event_prob(pm_one_summand(), unit_poisson(), 50,
                                       event, reps=1000, method="plain",
                                       seed=5)
        assert estimate.value == 0.0
        assert estimate.std_error == 0.0
        assert estimate.degenerate


class TestDecayRateScan:
    def test_count_event_slope_approaches_the_rate(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        rate = 2.0 * math.log(2.0) - 1.0
        scan = decay_rate_scan(mx, mn, event, ns=[50, 100, 200, 400],
                               reps=4000, seed=90, method="tilted")
        assert isinstance(scan, DecayEstimate)
        assert_allclose(scan.rate_infimum, rate, atol=1e-9)
        assert abs(scan.fitted_rate - rate) <= 0.15 * rate
        # The positive prefactor keeps -log p / n above the rate while it
        # drifts down toward it.
        assert scan.neg_log_over_n[0] > scan.neg_log_over_n[-1] > rate

    def test_plain_method_on_a_soft_event(self):
        # At n this small the prefactor still shifts the finite-n slope well
        # away from the asymptotic rate, so the oracle is the exact Poisson
        # tail at each n, not the rate.
        event = HalfSpaceEvent(mode="count", level=1.3)
        mx, mn = zero_two_summand(), unit_poisson()
        scan = decay_rate_scan(mx, mn, event, ns=[30, 60], reps=30_000,
                               seed=91, method="plain")
        assert scan.method == "plain"
        exact = [float(stats.poisson.sf(math.ceil(1.3 * n) - 1, float(n)))
                 for n in (30, 60)]
        log_errors = []
        for p_hat, se, p_exact in zip(scan.p_hat, scan.std_err, exact):
            assert abs(p_hat - p_exact) <= 4.0 * se
            log_errors.append(se / p_exact)
        exact_slope = (math.log(exact[0]) - math.log(exact[1])) / 30.0
        slope_se = math.hypot(*log_errors) / 30.0
        assert abs(scan.fitted_rate - exact_slope) <= 4.0 * slope_se

    def test_rerun_is_identical(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        first = decay_rate_scan(mx, mn, event, ns=[40, 80], reps=2000,
                                seed=92)
        second = decay_rate_scan(mx, mn, event, ns=[40, 80], reps=2000,
                                 seed=92)
        assert first.p_hat == second.p_hat
        assert first.fitted_rate == second.fitted_rate

    def test_ns_validation(self):
        event = HalfSpaceEvent(mode="count", level=2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        with pytest.raises(ValidationError):
            decay_rate_scan(mx, mn, event, ns=[50], reps=100, seed=1)
        with pytest.raises(ValidationError):
            decay_rate_scan(mx, mn, event, ns=[100, 50], reps=100, seed=1)

    def test_unknown_method_rejected(self):
        # A soft event, so plain sampling would find positive estimates at
        # both n: the error must come from the method, not from the fit.
        event = HalfSpaceEvent(mode="count", level=1.3)
        with pytest.raises(ValidationError, match="method"):
            decay_rate_scan(zero_two_summand(), unit_poisson(), event,
                            ns=[30, 60], reps=2000, seed=91, method="tilt")


class TestScalingFamily:
    def test_power_form_domain(self):
        family = ScalingFamily(gamma=0.5)
        assert_allclose(family.a(100), 0.1)
        for gamma in [0.0, 1.0, 1.5, -0.2]:
            with pytest.raises(ValidationError):
                ScalingFamily(gamma=gamma)

    def test_table_form_lookup(self):
        family = ScalingFamily(table=[(10, 0.1), (100, 0.01)])
        assert family.a(10) == 0.1
        with pytest.raises(ValidationError):
            family.a(50)
        with pytest.raises(ValidationError):
            ScalingFamily(table=[(0, 0.1)])
        with pytest.raises(ValidationError):
            ScalingFamily(table=[(10, -0.1)])
        with pytest.raises(ValidationError):
            ScalingFamily(gamma=0.5, table=[(10, 0.1)])

    def test_endpoint_flags(self):
        power = ScalingFamily(gamma=0.5)
        assert power.endpoint_flags([100, 10_000]) == (True, True)
        reciprocal = ScalingFamily(table=[(10, 0.1), (1000, 0.001)])
        # a_n = 1/n: the scale shrinks but n a_n stays flat.
        assert reciprocal.endpoint_flags([10, 1000]) == (True, False)


class TestMdScalingSweep:
    def test_exact_poisson_sweep_approaches_the_quadratic(self):
        result = md_scaling_sweep(
            unit_poisson(), ScalingFamily(gamma=0.5), etas=[-1.0, 1.0],
            ns=[100, 1000, 10_000, 100_000],
        )
        assert result.a_decreases and result.na_increases
        assert result.gap_monotone == {-1.0: True, 1.0: True}
        last = {r.eta: r for r in result.rows if r.n == 100_000}
        for eta in (-1.0, 1.0):
            assert_allclose(last[eta].target, 0.5, rtol=1e-12)
            assert abs(last[eta].value - 0.5) <= 0.02 * 0.5

    def test_empirical_mode_matches_exact(self):
        # A Monte Carlo oracle for every kind: a_n times the log-mean-exp of
        # sampled centred counts against the exact sweep.
        family = ScalingFamily(gamma=0.5)
        a_n = family.a(100)
        for kind, (mn, _) in KIND_CASES.items():
            exact = md_scaling_sweep(mn, family, etas=[-0.5, 0.5], ns=[100])
            draws = mn.sample_batch(100, np.random.default_rng(314), 200_000)
            centred = draws - mn.mean(100)
            for row in exact.rows:
                t = row.eta / math.sqrt(100 * a_n)
                empirical = a_n * (logsumexp(t * centred) - math.log(draws.size))
                assert abs(row.value - empirical) <= 0.005, (kind, row.eta)

    def test_every_kind_with_a_law_sweeps_exactly(self):
        family = ScalingFamily(gamma=0.5)
        poisson = md_scaling_sweep(unit_poisson(), family, etas=[-1.0, 0.5],
                                   ns=[50, 100])
        renewal = md_scaling_sweep(RenewalCounting(ExponentialInterarrival(1.0)),
                                   family, etas=[-1.0, 0.5], ns=[50, 100])
        for a, b in zip(poisson.rows, renewal.rows):
            assert_allclose(b.value, a.value, rtol=1e-9)
        with pytest.raises(UnsupportedModelError):
            md_scaling_sweep(tabulated_renewal(), family, etas=[0.5], ns=[50])

    def test_reciprocal_scaling_freezes_the_gap(self):
        # With a_n = 1/n the rescaled cumulant is e^eta - 1 - eta at every
        # n: the trend flags, not the sweep, expose the broken regime.
        mn = unit_poisson()
        family = ScalingFamily(table=[(10, 0.1), (100, 0.01), (1000, 0.001)])
        eta = 0.8
        result = md_scaling_sweep(mn, family, etas=[eta],
                                  ns=[10, 100, 1000])
        expected = math.exp(eta) - 1.0 - eta
        for row in result.rows:
            assert_allclose(row.value, expected, rtol=1e-10)
        assert not result.na_increases

    def test_validation(self):
        with pytest.raises(ValidationError):
            md_scaling_sweep(unit_poisson(), ScalingFamily(gamma=0.5),
                             etas=[0.5], ns=[100, 50])
        with pytest.raises(ValidationError):
            md_scaling_sweep(unit_poisson(), ScalingFamily(gamma=0.5),
                             etas=[0.5], ns=[])


class TestMomentLimitsCheck:
    def test_poisson_matches_exact_identities(self):
        result = moment_limits_check(
            zero_two_summand(), unit_poisson(), n=200, reps=20_000,
            u=[1.0], v=[1.0], seed=1001,
        )
        assert all(r.within_band for r in result.rows)
        rows = {r.name: r for r in result.rows}
        assert set(rows) == {"mean_S_dir", "mean_N", "cov_SS", "cov_NS",
                             "var_N"}
        assert_allclose(rows["cov_SS"].reference, 2.0, rtol=1e-12)
        assert_allclose(rows["cov_NS"].reference, 1.0, rtol=1e-12)
        assert_allclose(rows["var_N"].reference, 1.0, rtol=1e-12)

    def test_renewal_uses_the_exact_identities(self):
        # Gamma(2, 1) counts: E N_50 = 50/2 - 1/4, off the limit 1/2 by 1/200.
        mn = RenewalCounting(GammaInterarrival(2.0, 1.0))
        result = moment_limits_check(
            zero_two_summand(), mn, n=50, reps=5000, u=[1.0], v=[1.0],
            seed=1002,
        )
        assert all(r.within_band for r in result.rows)
        rows = {r.name: r for r in result.rows}
        assert_allclose(rows["mean_N"].reference, 0.495, rtol=1e-12)
        assert rows["mean_N"].limit == 0.5
        assert_allclose(rows["var_N"].reference, mn.var(50) / 50.0, rtol=1e-15)

    def test_rerun_is_identical(self):
        kwargs = dict(n=100, reps=4000, u=[1.0], v=[1.0], seed=1003)
        first = moment_limits_check(zero_two_summand(), unit_poisson(),
                                    **kwargs)
        second = moment_limits_check(zero_two_summand(), unit_poisson(),
                                     **kwargs)
        for a, b in zip(first.rows, second.rows):
            assert a == b


class TestCltRegimeCheck:
    def test_centered_summand_structure(self):
        result = clt_regime_check(
            pm_one_summand(), unit_poisson(), n=400, reps=20_000, v=[1.0],
            seed=2001,
        )
        assert all(r.within_band for r in result.rows)
        rows = {r.name: r for r in result.rows}
        assert_allclose(rows["var_sum_coord"].reference, 1.0, rtol=1e-12)
        assert_allclose(rows["var_count_coord"].reference, 1.0, rtol=1e-12)
        assert rows["cross_cov"].reference == 0.0
        # Centered summands make the shifted and unshifted coordinates agree.
        assert_allclose(rows["var_sum_coord_shifted"].reference, 1.0,
                        rtol=1e-12)
        assert set(result.normality_pvalues) == {"sum_coord", "count_coord"}

    def test_mean_shift_terms_appear(self):
        result = clt_regime_check(
            zero_two_summand(), unit_poisson(), n=400, reps=20_000, v=[1.0],
            seed=2002,
        )
        rows = {r.name: r for r in result.rows}
        assert_allclose(rows["var_sum_coord_shifted"].reference, 2.0,
                        rtol=1e-12)
        assert_allclose(rows["cross_cov_shifted"].reference, 1.0, rtol=1e-12)
        assert all(r.within_band for r in result.rows)

    def test_renewal_count_mean_is_exact(self, monkeypatch):
        # The count mean comes from the mass table: the only count draws are
        # the replication blocks, with no second pass to estimate E N_n.
        mn = RenewalCounting(GammaInterarrival(2.0, 4.0))
        assert_allclose(mn.mean(100), 199.75, rtol=1e-12)
        draws = []
        sample_batch = mn.sample_batch
        monkeypatch.setattr(mn, "sample_batch", lambda n, rng, reps: (
            draws.append(reps) or sample_batch(n, rng, reps)))
        result = clt_regime_check(
            pm_one_summand(), mn, n=100, reps=BLOCK_SIZE + 500, v=[1.0],
            seed=2003,
        )
        assert draws == [BLOCK_SIZE, 500]
        assert all(r.within_band for r in result.rows)
