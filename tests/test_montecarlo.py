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

from compound_deviations import counting, montecarlo, summands
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
    DimensionMismatchError,
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
    md_scaling_sweep,
    moment_limits_check,
    simulate_compound,
    tilt_parameters,
)
from compound_deviations.summands import FiniteSupportSummands, GaussianSummands
from compound_deviations.variational import legendre_transform, rate_ld_explicit

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


def three_atom_plane():
    # Two binomial stages: the FS2 law of the benchmark workloads.
    return FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                 [0.3, 0.3, 0.4])


def unit_poisson():
    return PoissonCounting(1.0)


# Plain draws of one and of two conditional-binomial stages.
REPRO_LAWS = pytest.mark.parametrize("law", [zero_two_summand, three_atom_plane],
                                     ids=["one-stage", "two-stage"])


def tabulated_renewal():
    # The Exp(1) cumulant tabulated on [-3, 0.9]: no finite-n law.
    rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
    return RenewalCounting(TabulatedInterarrival(rs, [-math.log1p(-r) for r in rs]))


def compositions(total, parts):
    """Every split of total among parts nonnegative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_oracle(mx, mn, n, event):
    """Exact event probability by a second route: every split of each
    count k among the atoms, C(k+m-1, m-1) multinomial terms, each
    (sum, count) point tested by the event's indicator like a sampled one."""
    log_probs = np.log(mx.probs)
    total = 0.0
    for k, count_prob in enumerate(mn.exact_pmf(n)):
        splits = np.array(list(compositions(k, mx.atom_count)), dtype=float)
        points = CompoundSamples(n, splits @ mx.atoms, np.full(len(splits), k))
        hit = splits[event.indicator(points)]
        log_terms = gammaln(k + 1.0) - gammaln(hit + 1.0).sum(1) + hit @ log_probs
        total += float(count_prob) * float(np.exp(log_terms).sum())
    return min(total, 1.0)


def random_lattice_instance(rng):
    """Two or three integer atoms in 1-3 dimensions and a sum event whose
    direction and level are in tenths."""
    dim, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    atoms = rng.integers(-3, 4, size=(m, dim)).astype(float)
    while m <= dim and np.linalg.matrix_rank(atoms) < m:
        atoms = rng.integers(-3, 4, size=(m, dim)).astype(float)
    weights = rng.integers(1, 5, size=m).astype(float)
    direction = np.zeros(dim)
    while not direction.any():
        direction = rng.integers(-3, 4, size=dim) / 10.0
    level = int(rng.integers(-10, 11)) / 10.0
    return (FiniteSupportSummands(atoms, weights / weights.sum()),
            HalfSpaceEvent(mode="sum", level=level, direction=direction))


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

    @pytest.mark.parametrize("call", [
        lambda mx, event: tilt_parameters(mx, unit_poisson(), event),
        lambda mx, event: estimate_event_prob(mx, unit_poisson(), 5, event,
                                              reps=100, seed=1),
        lambda mx, event: estimate_event_prob(mx, unit_poisson(), 5, event,
                                              reps=100, method="tilted",
                                              seed=1),
        lambda mx, event: decay_rate_scan(mx, unit_poisson(), event, ns=[5, 10],
                                          reps=100, seed=1),
        lambda mx, event: enumerate_exact(mx, unit_poisson(), 2, event),
    ], ids=["tilt", "plain", "tilted", "decay-scan", "enumerate"])
    def test_direction_of_the_wrong_length_is_typed(self, call, monkeypatch):
        # The direction is checked before any summand is drawn.
        def no_draws(self, rng, counts):
            raise AssertionError("summands were drawn before the direction "
                                 "was checked")

        def no_sampler(self, max_count):
            raise AssertionError("a summand sampler was made before the "
                                 "direction was checked")

        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch", no_draws)
        monkeypatch.setattr(FiniteSupportSummands, "plain_sampler", no_sampler)
        mx = three_atom_plane()
        event = HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
        with pytest.raises(DimensionMismatchError, match="length 1.*dimension 2"):
            call(mx, event)

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

    @REPRO_LAWS
    def test_rerun_is_bit_identical(self, law):
        mx = law()
        first = simulate_compound(mx, unit_poisson(), 50, 2000, seed=11)
        second = simulate_compound(mx, unit_poisson(), 50, 2000, seed=11)
        assert np.array_equal(first.counts, second.counts)
        assert np.array_equal(first.sums, second.sums)

    @REPRO_LAWS
    def test_worker_count_does_not_change_the_draws(self, law):
        mx = law()
        reps = BLOCK_SIZE + 500
        serial = simulate_compound(mx, unit_poisson(), 30, reps, seed=3,
                                   workers=1)
        parallel = simulate_compound(mx, unit_poisson(), 30, reps, seed=3,
                                     workers=2)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.sums, parallel.sums)

    @REPRO_LAWS
    def test_block_prefix_is_stable(self, law):
        # Growing reps appends blocks without touching earlier draws.
        mx = law()
        small = simulate_compound(mx, unit_poisson(), 30, BLOCK_SIZE, seed=5)
        large = simulate_compound(mx, unit_poisson(), 30, BLOCK_SIZE + 100,
                                  seed=5)
        assert np.array_equal(small.counts, large.counts[:BLOCK_SIZE])
        assert np.array_equal(small.sums, large.sums[:BLOCK_SIZE])

    def test_small_tables_take_the_table_route(self, monkeypatch):
        # The FS2 law at n = 30 holds well under TABLE_STAGE_STATES states
        # a stage, so its plain draws never call the binomial sampler.
        def no_draws(self, rng, counts):
            raise AssertionError("small tables drew with binomials")

        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch", no_draws)
        samples = simulate_compound(three_atom_plane(), unit_poisson(), 30,
                                    100, seed=4)
        # Steps to (1, 0), (0, 1) and (-1, -1): the last are (N - x - y) / 3.
        last = (samples.counts - samples.sums.sum(axis=1)) / 3.0
        assert np.array_equal(last, np.rint(last))
        assert np.all(last >= 0) and np.all(samples.sums + last[:, None] >= 0)

    def test_pm_one_sums_with_poisson_counts_at_100_take_the_table_route(
            self, monkeypatch):
        # Poisson(1) counts at n = 100 draw at most 194 (the count cdf is 1
        # from there), so the +-1 law's tables hold 17,590 states, within
        # TABLE_STAGE_STATES.
        def no_draws(self, rng, counts):
            raise AssertionError("the +-1 law drew with binomials")

        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch", no_draws)
        assert unit_poisson().max_count(100) == 194
        samples = simulate_compound(pm_one_summand(), unit_poisson(), 100, 100,
                                    seed=4)
        assert np.all(np.abs(samples.sums) <= samples.counts[:, None])

    @pytest.mark.parametrize("law, n, cap", [
        (pm_one_summand, 400, None),
        (pm_one_summand, 50_000, None),
        (three_atom_plane, 30, 1_000),
    ], ids=["past-stage-states", "past-both", "past-mass-cap"])
    def test_large_tables_take_the_binomial_route(self, law, n, cap,
                                                  monkeypatch):
        # At n = 400 the +-1 law's tables would hold about 92,000 states, past
        # TABLE_STAGE_STATES; at n = 50,000 past MASS_TABLE_CAP as well; and
        # the FS2 law at n = 30 past a lowered MASS_TABLE_CAP. The choice is
        # made from the windows, so no table is built.
        def no_build(*args):
            raise AssertionError("a table past the bound was built")

        binomial_calls = []
        sample_sum_batch = FiniteSupportSummands.sample_sum_batch
        monkeypatch.setattr(summands, "_GuideTable", no_build)
        if cap is not None:
            monkeypatch.setattr(summands, "MASS_TABLE_CAP", cap)
        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch",
                            lambda self, rng, counts: binomial_calls.append(
                                counts.size) or sample_sum_batch(self, rng, counts))
        samples = simulate_compound(law(), unit_poisson(), n, 10, seed=4)
        assert binomial_calls == [10]
        assert np.all(np.abs(samples.sums) <= samples.counts[:, None])

    def test_summand_stream_is_independent_of_count_stream(self):
        # Two summand laws at one seed draw the same counts.
        base = simulate_compound(GaussianSummands([0.0], [[1.0]]),
                                 unit_poisson(), 40, 500, seed=9)
        moved = simulate_compound(zero_two_summand(), unit_poisson(), 40, 500,
                                  seed=9)
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

    @pytest.mark.parametrize("call", [
        lambda **seed: estimate_event_prob(zero_two_summand(), unit_poisson(), 10,
                                           COUNT_EVENT, reps=10, **seed),
        lambda **seed: decay_rate_scan(zero_two_summand(), unit_poisson(),
                                       COUNT_EVENT, [10, 20], reps=10, **seed),
    ], ids=["estimate", "decay-scan"])
    def test_estimators_need_a_seed(self, call):
        # seed has no default, as in simulate_compound; None is typed.
        with pytest.raises(TypeError, match="seed"):
            call()
        with pytest.raises(ValidationError, match="seed"):
            call(seed=None)


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

    def test_six_dice_past_the_old_term_budget(self):
        # 33 million compositions, past the composition loop's old 1e7-term
        # budget. The value is P(S >= 150) for S a sum of Binomial(50, 1/2)
        # fair dice, from an exact rational computation.
        dice = FiniteSupportSummands([[float(k)] for k in range(1, 7)],
                                     [1.0 / 6.0] * 6)
        event = HalfSpaceEvent(mode="sum", level=3.0, direction=[1.0])
        assert_allclose(enumerate_exact(dice, BernoulliSumCounting(p=0.5), 50,
                                        event),
                        4.403387388921733e-05, rtol=1e-12)

    def test_non_lattice_support_is_capped_not_truncated(self, monkeypatch):
        # Atoms sharing no lattice never merge: <d, S_k> has C(k+2, 2)
        # values. Under the cap the value matches the composition oracle;
        # past it the support is a ValidationError naming the cap.
        mx = FiniteSupportSummands([[1.0], [math.sqrt(2.0)], [math.pi]],
                                   [0.2, 0.3, 0.5])
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent(mode="sum", level=1.0, direction=[1.0])
        assert_allclose(enumerate_exact(mx, mn, 50, event),
                        composition_oracle(mx, mn, 50, event), rtol=1e-12)
        monkeypatch.setattr(montecarlo, "MASS_TABLE_CAP", 500)
        with pytest.raises(ValidationError, match="exceeds 500 states"):
            enumerate_exact(mx, mn, 50, event)

    def test_lattice_support_grows_linearly(self, monkeypatch):
        # Projections -0.1, 0.3 and -0.2 lie on the lattice of tenths, but
        # sums of them round differently by order. Values equal up to that
        # rounding merge, so <d, S_k> keeps about 5k + 1 values and n = 200
        # fits under a 10,000-state cap; the value is that of the same event
        # scaled by ten, whose integer values merge exactly.
        monkeypatch.setattr(montecarlo, "MASS_TABLE_CAP", 10_000)
        mx = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                   [0.3, 0.3, 0.4])
        tenths = HalfSpaceEvent(mode="sum", level=0.1, direction=[-0.1, 0.3])
        integers = HalfSpaceEvent(mode="sum", level=1.0, direction=[-1.0, 3.0])
        exact = enumerate_exact(mx, unit_poisson(), 200, tenths)
        assert 0.0 < exact < 1e-12
        assert_allclose(exact, enumerate_exact(mx, unit_poisson(), 200, integers),
                        rtol=1e-12)

    @pytest.mark.parametrize("atoms, direction, level", [
        ([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-0.1, 0.1], 0.0),
        ([[-1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
         [0.2, 0.2, -0.2], -0.4),
    ], ids=["d(-0.1,0.1)-level0", "d(0.2,0.2,-0.2)-level-0.4"])
    def test_boundary_instances_match_the_oracle(self, atoms, direction,
                                                 level):
        # Lattice values exactly on the boundary, e.g. the sums (-3, -3) and
        # (-3, 3, 2), whose inner products round to either side of the
        # level; both routes put them inside, and they carry mass.
        mx = FiniteSupportSummands(atoms, [0.4, 0.3, 0.3])
        mn = unit_poisson()
        event = HalfSpaceEvent(mode="sum", level=level, direction=direction)
        above = HalfSpaceEvent(mode="sum", level=level + 1e-9,
                               direction=direction)
        for n in (1, 3):
            exact = enumerate_exact(mx, mn, n, event)
            assert_allclose(exact, composition_oracle(mx, mn, n, event),
                            rtol=1e-12)
            assert exact > enumerate_exact(mx, mn, n, above)

    def test_random_lattice_instances_match_the_oracle(self):
        # Integer atoms with directions and levels in tenths, so values land
        # exactly on the boundary; the count kinds cycle through Poisson,
        # Bernoulli and iid-sum counts.
        rng = np.random.default_rng(20261018)
        boundary_hits = 0
        for index in range(210):
            mx, event = random_lattice_instance(rng)
            mn = (PoissonCounting(float(rng.choice([0.5, 1.0]))),
                  BernoulliSumCounting(p=float(rng.choice([0.3, 0.5, 0.7]))),
                  IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]))[index % 3]
            n = int(rng.integers(1, 6))
            exact = enumerate_exact(mx, mn, n, event)
            assert_allclose(exact, composition_oracle(mx, mn, n, event),
                            rtol=1e-12, err_msg=f"instance {index}")
            above = HalfSpaceEvent(mode="sum", level=event.level + 1e-9,
                                   direction=event.direction)
            boundary_hits += exact > enumerate_exact(mx, mn, n, above)
        assert boundary_hits >= 50


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
        # The rate infimum is the explicit rate at the boundary point, to
        # the accuracy of the solved maximizer that places that point.
        assert_allclose(
            tilt.rate,
            rate_ld_explicit(mx, mn, tilt.boundary_x, tilt.boundary_y),
            rtol=1e-7,
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

    def test_one_tilted_estimate_builds_its_table_once(self, monkeypatch):
        # The tilted estimator reads log Z(s) through finite_cgf and draws
        # through tilted_count_sampler at the same (n, s); both read one
        # kept table, whose build makes the s-tilted weights and their
        # untilted normaliser once each.
        builds, grows = [], []
        build, grow = FractionalPoissonCounting._tilted_table, counting._grow_table

        def counted_build(self, n, s):
            builds.append((n, s))
            return build(self, n, s)

        def counted_grow(table, what):
            grows.append(what)
            return grow(table, what)

        monkeypatch.setattr(FractionalPoissonCounting, "_tilted_table", counted_build)
        monkeypatch.setattr(counting, "_grow_table", counted_grow)
        mn = FractionalPoissonCounting(0.7, 1.0)
        estimate_event_prob(pm_one_summand(), mn, 200,
                            HalfSpaceEvent(mode="count", level=2.5),
                            reps=2000, method="tilted", seed=3)
        assert len(builds) == 1 and builds[0][1] > 0.0
        assert len(grows) == 2
        # A fresh model builds the same law bit for bit.
        n, s = builds[0]
        fresh = FractionalPoissonCounting(0.7, 1.0)
        assert mn.finite_cgf(n, s) == fresh.finite_cgf(n, s)
        assert np.array_equal(mn._table(n, s)[1], fresh._table(n, s)[1])
        assert len(builds) == 2

    def test_zero_rate_event_has_zero_infimum(self):
        # The tilt refuses a zero-rate event; the decay scan falls back to
        # plain sampling and reports a zero infimum.
        event = HalfSpaceEvent(mode="count", level=0.5)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(pm_one_summand(), unit_poisson(), event)
        scan = decay_rate_scan(pm_one_summand(), unit_poisson(), event,
                               ns=[10, 20], reps=200, seed=3, method="tilted")
        assert scan.rate_infimum == 0.0


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
                                       method="plain", seed=23)
        hits = event.indicator(
            simulate_compound(mx, mn, 30, reps, seed=23)
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
        # Exact values that enumerate every count in the kind's table
        # (truncated for Poisson, fractional and renewal), at n = 40 down
        # to about 1e-8.
        mn, level = KIND_CASES[kind]
        event = (HalfSpaceEvent(mode="sum", level=0.5, direction=[1.0])
                 if mode == "sum" else HalfSpaceEvent(mode="count", level=level))
        for n in (8, 40):
            exact = enumerate_exact(pm_one_summand(), mn, n, event)
            estimate = estimate_event_prob(pm_one_summand(), mn, n, event,
                                           reps=20_000, method="tilted",
                                           seed=23)
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
        # A count event tilts no summand, so the summand law is irrelevant.
        event = HalfSpaceEvent(mode="count", level=2.0)
        mn = unit_poisson()
        base = estimate_event_prob(pm_one_summand(), mn, 30, event, reps=5000,
                                   method="tilted", seed=79)
        moved = estimate_event_prob(zero_two_summand(), mn, 30, event,
                                    reps=5000, method="tilted", seed=79)
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
        for table in ([(10, -0.1)], [(10, "x")], [(10, None)],
                      [(10, math.inf)], [(10,)], [(10, 0.1, 0.2)], [10]):
            with pytest.raises(ValidationError):
                ScalingFamily(table=table)
        with pytest.raises(ValidationError):
            ScalingFamily(gamma=0.5, table=[(10, 0.1)])
        with pytest.raises(ValidationError, match="repeats n=10"):
            ScalingFamily(table=[(10, 0.1), (100, 0.01), (10, 0.2)])

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

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_is_a_validation_error(self, eta):
        # A NaN row would compare unequal to everything, so its gap series
        # would read as monotone.
        with pytest.raises(ValidationError, match="eta"):
            md_scaling_sweep(unit_poisson(), ScalingFamily(gamma=0.5),
                             etas=[0.5, eta], ns=[10, 100])


def _no_drawing(*args, **kwargs):
    raise AssertionError("a bad size must be refused before any drawing")


COUNT_EVENT = HalfSpaceEvent(mode="count", level=2.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: estimate_event_prob(
        pm_one_summand(), unit_poisson(), 20, COUNT_EVENT, reps=2.7, seed=1),
        id="estimate-reps-float"),
    pytest.param(lambda: estimate_event_prob(
        pm_one_summand(), unit_poisson(), 20, COUNT_EVENT, reps=True, seed=1),
        id="estimate-reps-bool"),
    pytest.param(lambda: estimate_event_prob(
        pm_one_summand(), unit_poisson(), 20, COUNT_EVENT, reps="10", seed=1),
        id="estimate-reps-str"),
    pytest.param(lambda: moment_limits_check(
        pm_one_summand(), unit_poisson(), n=20.7, reps=100, u=[1.0], v=[1.0],
        seed=1), id="moments-n"),
    pytest.param(lambda: clt_regime_check(
        pm_one_summand(), unit_poisson(), n=20.7, reps=100, v=[1.0], seed=1),
        id="clt-n"),
    pytest.param(lambda: decay_rate_scan(
        pm_one_summand(), unit_poisson(), COUNT_EVENT, ns=[50.9, 100.2],
        reps=100, seed=1), id="decay-ns"),
    pytest.param(lambda: md_scaling_sweep(
        unit_poisson(), ScalingFamily(gamma=0.5), etas=[0.5],
        ns=[50.9, 100.2]), id="md-sweep-ns"),
    pytest.param(lambda: ScalingFamily(table=[(10.7, 0.1), (100, 0.01)]),
                 id="scaling-table-n"),
    pytest.param(lambda: unit_poisson().mean(20.7), id="count-mean-n"),
    pytest.param(lambda: IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]).exact_pmf(True),
                 id="count-pmf-n-bool"),
])
def test_sizes_are_checked_not_truncated(monkeypatch, call):
    monkeypatch.setattr(montecarlo, "simulate_compound", _no_drawing)
    monkeypatch.setattr(montecarlo, "tilt_parameters", _no_drawing)
    with pytest.raises(ValidationError, match="need an integer"):
        call()


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

    def test_one_rep_is_a_validation_error(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "simulate_compound", _no_drawing)
        with pytest.raises(ValidationError, match="reps >= 2"):
            moment_limits_check(zero_two_summand(), unit_poisson(), n=10,
                                reps=1, u=[1.0], v=[1.0], seed=1004)

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

    def test_one_rep_is_a_validation_error(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "simulate_compound", _no_drawing)
        with pytest.raises(ValidationError, match="reps >= 2"):
            clt_regime_check(pm_one_summand(), unit_poisson(), n=10, reps=1,
                             v=[1.0], seed=2004)

    def test_negative_direction_keeps_a_positive_zero_cross_target(self):
        result = clt_regime_check(
            zero_two_summand(), unit_poisson(), n=50, reps=1000, v=[-1.0],
            seed=2005,
        )
        cross = {r.name: r for r in result.rows}["cross_cov"].reference
        assert cross == 0.0 and math.copysign(1.0, cross) == 1.0

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

    @pytest.mark.parametrize("reps", [2, 5, 7])
    def test_too_few_draws_have_no_normality_pvalues(self, reps):
        # normaltest needs 8 draws; below that the p-values are None, never
        # a warning and NaN.
        result = clt_regime_check(pm_one_summand(), unit_poisson(), n=50,
                                  reps=reps, v=[1.0], seed=2006)
        assert result.normality_pvalues == {"sum_coord": None,
                                            "count_coord": None}


# Every counting kind with a finite-n law.
FINITE_N_KINDS = {
    "poisson": PoissonCounting(1.3),
    "fractional": FractionalPoissonCounting(0.7, 1.0),
    "iid-sum": IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]),
    "bernoulli": BernoulliSumCounting(p=0.35),
    "bernoulli-runs": BernoulliSumCounting.runs(1.0, 1.0),
    "renewal": RenewalCounting(GammaInterarrival(2.0, 1.0)),
}


class TestCheckTargets:
    """Both checks' targets against the hand formulas: for images
    a = (a_x, a_n) of (S, N), Cov/n = (E N <a_x, Sigma b_x> + Var N
    (<a_x, mu> + a_n)(<b_x, mu> + b_n))/n and E/n = E N (<a_x, mu> + a_n)/n,
    at the exact count moments (reference) and the rates d1, d2 (limit)."""

    mx = GaussianSummands([0.7, -0.4], [[1.0, 0.3], [0.3, 0.6]])
    u = np.array([0.3, -1.1])
    v = np.array([0.45, 0.8])
    n = 30

    def hand_targets(self, mean, var):
        sigma, mu = self.mx.cov().matrix, self.mx.mean()

        def cov(a, b):
            return mean * float(a[:-1] @ sigma @ b[:-1]) + var * (
                float(a[:-1] @ mu) + a[-1]) * (float(b[:-1] @ mu) + b[-1])

        u, v = np.append(self.u, 0.0), np.append(self.v, 0.0)
        count = np.array([0.0, 0.0, 1.0])
        centred = np.append(self.v, -float(self.v @ mu))
        return {
            "mean_S_dir": mean * float(self.v @ mu),
            "mean_N": mean,
            "cov_SS": cov(u, v),
            "cov_NS": cov(count, v),
            "var_N": cov(count, count),
            "var_sum_coord": cov(centred, centred),
            "var_count_coord": cov(count, count),
            "var_sum_coord_shifted": cov(v, v),
            "cross_cov_shifted": cov(v, count),
        }

    @pytest.mark.parametrize("kind", FINITE_N_KINDS)
    def test_rows_match_the_hand_formulas(self, kind):
        mn, n = FINITE_N_KINDS[kind], self.n
        d = mn.derivs_at_zero()
        rows = {r.name: r for r in (
            moment_limits_check(self.mx, mn, n, reps=16, u=self.u, v=self.v,
                                seed=3001).rows
            + clt_regime_check(self.mx, mn, n, reps=16, v=self.v,
                               seed=3002).rows)}
        for column, rates in (("reference", (mn.mean(n) / n, mn.var(n) / n)),
                              ("limit", (d.mean_rate, d.variance_rate))):
            for name, expected in self.hand_targets(*rates).items():
                assert_allclose(getattr(rows[name], column), expected,
                                rtol=1e-12, err_msg=f"{name} {column}")
            # Centred summands carry no count load: exactly zero, not rounding.
            cross = getattr(rows["cross_cov"], column)
            assert cross == 0.0 and math.copysign(1.0, cross) == 1.0

    @pytest.mark.parametrize("check", ["moments", "clt"])
    def test_tabulated_renewal_counts_are_unsupported(self, check):
        with pytest.raises(UnsupportedModelError):
            if check == "moments":
                moment_limits_check(self.mx, tabulated_renewal(), self.n,
                                    reps=16, u=self.u, v=self.v, seed=3003)
            else:
                clt_regime_check(self.mx, tabulated_renewal(), self.n,
                                 reps=16, v=self.v, seed=3003)
