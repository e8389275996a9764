"""Tests for simulation, exact enumeration, tilting, and the check runners.

Wherever an exact answer exists (finite enumerations, scipy's Poisson tail,
closed-form count rates) the estimators are held to it; the reproducibility
contracts (same seed, any worker count, summand stream independent of the
count stream) are checked bit for bit.
"""

import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import weakref

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
    CountLaw,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    GammaInterarrival,
    IidSumCounting,
    LatticeInterarrival,
    PoissonCounting,
    RenewalCounting,
)
from compound_deviations.errors import (
    DimensionMismatchError,
    UnsupportedModelError,
    ValidationError,
    ZeroRateEventError,
)
from compound_deviations.montecarlo import (
    RUN_SIZE,
    DecayEstimate,
    HalfSpaceEvent,
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
from compound_deviations.variational import (
    legendre_transform,
    pair_covariance,
    rate_ld_explicit,
)

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


def lattice_renewal():
    # Inter-arrivals 1 or 2, each with probability 1/2: d1 = 2/3, N/n <= 1.
    return RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5]))


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
        hit = splits[event.indicator(n, splits @ mx.atoms,
                                     np.full(len(splits), k))]
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
            HalfSpaceEvent(direction, 0.0, level))


# One model of each counting kind with a count level above its drift d1
# and within its reach.
KIND_CASES = {
    "poisson": (PoissonCounting(1.0), 2.0),
    "iid-sum": (IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), 1.5),
    "bernoulli-runs": (BernoulliSumCounting.runs(1.0, 1.0), 0.8),
    "fractional": (FractionalPoissonCounting(0.7, 1.0), 2.5),
    "renewal": (RenewalCounting(GammaInterarrival(2.0, 1.0)), 1.0),
    "renewal-lattice": (lattice_renewal(), 0.85),
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
    def test_an_event_is_one_face(self):
        # Exactly the fields (direction, count_coef, level), which normal
        # returns as (d, c) once the dimension matches.
        assert [f.name for f in dataclasses.fields(HalfSpaceEvent)] == [
            "direction", "count_coef", "level"]
        event = HalfSpaceEvent([1.0, -2.0], np.int64(-1), np.float32(0.5))
        d, c = event.normal(2)
        assert d.tolist() == [1.0, -2.0] and not d.flags.writeable
        assert type(c) is float and c == -1.0
        assert type(event.level) is float and event.level == 0.5

    def test_zero_direction_rejected(self):
        # A zero direction needs a count coefficient: (0, 0) is no face.
        for direction in ([0.0], [0.0, -0.0]):
            with pytest.raises(ValidationError, match="both be zero"):
                HalfSpaceEvent(direction, 0.0, 0.5)
            assert HalfSpaceEvent(direction, 1.0, 0.5).count_coef == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", None])
    def test_nonfinite_count_coef_rejected(self, bad):
        with pytest.raises(ValidationError, match="count_coef must be a finite"):
            HalfSpaceEvent([1.0], bad, 0.5)

    @pytest.mark.parametrize("bad", [[math.nan], [1.0, math.inf], [], [[1.0]]])
    def test_nonfinite_or_misshapen_direction_rejected(self, bad):
        with pytest.raises(ValidationError, match="direction"):
            HalfSpaceEvent(bad, 1.0, 0.5)

    def test_nonfinite_level_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="level must be a finite"):
                HalfSpaceEvent([0.0], 1.0, bad)

    def test_indicator_on_known_samples(self):
        samples = (10, np.array([[12.0], [-3.0], [5.0]]), np.array([25, 4, 10]))
        sum_event = HalfSpaceEvent([1.0], 0.0, 0.5)
        count_event = HalfSpaceEvent([0.0], 1.0, 1.0)
        # S/n - N/(2n) >= 0: 1.2 - 1.25, -0.3 - 0.2, and 0.5 - 0.5 on the
        # boundary.
        centred = HalfSpaceEvent([1.0], -0.5, 0.0)
        assert sum_event.indicator(*samples).tolist() == [True, False, True]
        assert count_event.indicator(*samples).tolist() == [True, False, True]
        assert centred.indicator(*samples).tolist() == [False, False, True]

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
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
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
        event = HalfSpaceEvent(direction, 0.0, level)
        on = np.array([point])
        off = on - 1e-9 * np.sign(direction)
        for sums in (on, np.tile(on, (8, 1))):
            assert event.indicator(1, sums, np.zeros(len(sums))).all()
        assert not event.indicator(1, off, np.zeros(1)).any()


class TestSimulateCompound:
    def test_shapes_and_scaled_views(self):
        mx = GaussianSummands([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        sums, counts = simulate_compound(mx, unit_poisson(), 20, 100, seed=7)
        assert sums.shape == (100, 2)
        assert counts.shape == (100,)

    @REPRO_LAWS
    def test_rerun_is_bit_identical(self, law):
        mx = law()
        first_sums, first_counts = simulate_compound(mx, unit_poisson(), 50,
                                                     2000, seed=11)
        second_sums, second_counts = simulate_compound(mx, unit_poisson(), 50,
                                                       2000, seed=11)
        assert np.array_equal(first_counts, second_counts)
        assert np.array_equal(first_sums, second_sums)

    @REPRO_LAWS
    def test_worker_count_does_not_change_the_draws(self, law):
        mx = law()
        reps = RUN_SIZE + 500
        serial_sums, serial_counts = simulate_compound(
            mx, unit_poisson(), 30, reps, seed=3, workers=1)
        parallel_sums, parallel_counts = simulate_compound(
            mx, unit_poisson(), 30, reps, seed=3, workers=2)
        assert np.array_equal(serial_counts, parallel_counts)
        assert np.array_equal(serial_sums, parallel_sums)

    def test_guides_are_built_before_the_runs(self, monkeypatch):
        # The count table's guide and the stage tables are built once, in
        # the calling thread, before two run threads draw from them.
        threads = []
        build = summands._CdfGuide.__init__
        monkeypatch.setattr(summands._CdfGuide, "__init__", lambda self, chunks: (
            threads.append(threading.get_ident()) or build(self, chunks)))
        simulate_compound(pm_one_summand(), unit_poisson(), 30, 2 * RUN_SIZE,
                          seed=3, workers=2)
        assert threads == [threading.get_ident()] * 2

    @REPRO_LAWS
    def test_run_prefix_is_stable(self, law):
        # Growing reps appends runs without touching earlier draws.
        mx = law()
        small_sums, small_counts = simulate_compound(mx, unit_poisson(), 30,
                                                     RUN_SIZE, seed=5)
        large_sums, large_counts = simulate_compound(mx, unit_poisson(), 30,
                                                     RUN_SIZE + 100, seed=5)
        assert np.array_equal(small_counts, large_counts[:RUN_SIZE])
        assert np.array_equal(small_sums, large_sums[:RUN_SIZE])

    def test_small_tables_take_the_table_route(self, monkeypatch):
        # The FS2 law at n = 30 holds well under TABLE_STAGE_STATES states
        # a stage, so its plain draws never call the binomial sampler.
        def no_draws(self, rng, counts):
            raise AssertionError("small tables drew with binomials")

        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch", no_draws)
        sums, counts = simulate_compound(three_atom_plane(), unit_poisson(), 30,
                                         100, seed=4)
        # Steps to (1, 0), (0, 1) and (-1, -1): the last are (N - x - y) / 3.
        last = (counts - sums.sum(axis=1)) / 3.0
        assert np.array_equal(last, np.rint(last))
        assert np.all(last >= 0) and np.all(sums + last[:, None] >= 0)

    def test_pm_one_sums_with_poisson_counts_at_100_take_the_table_route(
            self, monkeypatch):
        # Poisson(1) counts at n = 100 draw at most 194 (the count cdf is 1
        # from there), so the +-1 law's tables hold 17,590 states, within
        # TABLE_STAGE_STATES.
        def no_draws(self, rng, counts):
            raise AssertionError("the +-1 law drew with binomials")

        monkeypatch.setattr(FiniteSupportSummands, "sample_sum_batch", no_draws)
        assert unit_poisson().count_law(100).max_count == 194
        sums, counts = simulate_compound(pm_one_summand(), unit_poisson(), 100,
                                         100, seed=4)
        assert np.all(np.abs(sums) <= counts[:, None])

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
        sums, counts = simulate_compound(law(), unit_poisson(), n, 10, seed=4)
        assert binomial_calls == [10]
        assert np.all(np.abs(sums) <= counts[:, None])

    def test_summand_stream_is_independent_of_count_stream(self):
        # Two summand laws at one seed draw the same counts.
        base_sums, base_counts = simulate_compound(
            GaussianSummands([0.0], [[1.0]]), unit_poisson(), 40, 500, seed=9)
        moved_sums, moved_counts = simulate_compound(
            zero_two_summand(), unit_poisson(), 40, 500, seed=9)
        assert np.array_equal(base_counts, moved_counts)
        assert not np.array_equal(base_sums, moved_sums)

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
        event = HalfSpaceEvent([1.0], 0.0, 1.5)
        assert_allclose(enumerate_exact(mx, mn, 4, event), IID_SUM_EXACT,
                        rtol=1e-12)

    def test_bernoulli_hand_value(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
        assert_allclose(enumerate_exact(pm_one_summand(), mn, 6, event),
                        BERNOULLI_EXACT, rtol=1e-12)

    def test_matches_plain_monte_carlo(self):
        mx = zero_two_summand()
        mn = IidSumCounting([0, 1], [0.5, 0.5])
        event = HalfSpaceEvent([1.0], 0.0, 1.5)
        estimate = estimate_event_prob(mx, mn, 4, event, reps=40_000,
                                       method="plain", seed=401)
        assert abs(estimate.value - IID_SUM_EXACT) <= 4.0 * estimate.std_error

    def test_count_events_enumerate_too(self):
        mn = BernoulliSumCounting(p=0.3)
        event = HalfSpaceEvent([0.0], 1.0, 0.5)
        expected = float(stats.binom.sf(3, 8, 0.3))
        assert_allclose(enumerate_exact(pm_one_summand(), mn, 8, event),
                        expected, rtol=1e-12)

    def test_gaussian_summands_rejected(self):
        event = HalfSpaceEvent([0.0], 1.0, 1.5)
        with pytest.raises(UnsupportedModelError):
            enumerate_exact(GaussianSummands([0.0], [[1.0]]),
                            BernoulliSumCounting(p=0.5), 4, event)

    def test_unbounded_counts_enumerate_over_their_table(self):
        # P(N_4 >= 6) for Poisson(4) counts, and P(T_12 <= 8) for Gamma(2, 1)
        # renewals at level 1.5, from tables truncated at MASS_TAIL_TOL.
        event = HalfSpaceEvent([0.0], 1.0, 1.5)
        assert_allclose(enumerate_exact(pm_one_summand(), unit_poisson(), 4, event),
                        stats.poisson.sf(5, 4.0), rtol=1e-11)
        renewal = RenewalCounting(GammaInterarrival(2.0, 1.0))
        assert_allclose(enumerate_exact(pm_one_summand(), renewal, 8, event),
                        gammainc(24.0, 8.0), rtol=1e-9)

    def test_six_dice_past_the_old_term_budget(self):
        # 33 million compositions, past the composition loop's old 1e7-term
        # budget. The value is P(S >= 150) for S a sum of Binomial(50, 1/2)
        # fair dice, from an exact rational computation.
        dice = FiniteSupportSummands([[float(k)] for k in range(1, 7)],
                                     [1.0 / 6.0] * 6)
        event = HalfSpaceEvent([1.0], 0.0, 3.0)
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
        event = HalfSpaceEvent([1.0], 0.0, 1.0)
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
        tenths = HalfSpaceEvent([-0.1, 0.3], 0.0, 0.1)
        integers = HalfSpaceEvent([-1.0, 3.0], 0.0, 1.0)
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
        event = HalfSpaceEvent(direction, 0.0, level)
        above = HalfSpaceEvent(direction, 0.0, level + 1e-9)
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
            above = HalfSpaceEvent(event.direction, 0.0, event.level + 1e-9)
            boundary_hits += exact > enumerate_exact(mx, mn, n, above)
        assert boundary_hits >= 50


class TestTiltParameters:
    def test_count_event_tilt_is_the_conjugate_argmax(self):
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        tilt = tilt_parameters(pm_one_summand(), unit_poisson(), event)
        assert_allclose(tilt.eta, math.log(2.0), atol=1e-7)
        assert_allclose(tilt.s, tilt.eta, rtol=1e-12)
        assert_allclose(tilt.rate, 2.0 * math.log(2.0) - 1.0, atol=1e-10)
        assert_allclose(tilt.theta, [0.0])
        assert_allclose(tilt.boundary_y, 2.0)

    def test_count_event_below_mean_rejected(self):
        event = HalfSpaceEvent([0.0], 1.0, 0.5)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(pm_one_summand(), unit_poisson(), event)
        at_mean = HalfSpaceEvent([0.0], 1.0, 1.0)
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
        event = HalfSpaceEvent(direction, 0.0, level)
        tilt = tilt_parameters(mx, mn, event)

        def boundary(y):
            return y * conj(level / y) + count_rate(y)

        oracle = minimize_scalar(boundary, bounds=bounds, method="bounded",
                                 options={"xatol": 1e-10})
        assert_allclose(tilt.rate, oracle.fun, atol=1e-8)
        assert_allclose(tilt.boundary_y, oracle.x, atol=1e-5)

    def test_sum_event_tilt_identities(self):
        mx, mn = pm_one_summand(), unit_poisson()
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
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
        event = HalfSpaceEvent([1.0], 0.0, 0.9)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(mx, unit_poisson(), event)

    @pytest.mark.parametrize("direction, count_coef", [([1.0], 0.0), ([0.0], 1.0)],
                             ids=["sum", "count"])
    def test_unreachable_event_is_a_validation_error(self, direction, count_coef):
        # Bernoulli(1/2) counts never exceed n, and |S| <= N for +/-1 atoms,
        # so level 1.5 is out of reach on both faces.
        event = HalfSpaceEvent(direction, count_coef, 1.5)
        with pytest.raises(ValidationError, match="reachable"):
            tilt_parameters(pm_one_summand(), BernoulliSumCounting(p=0.5), event)

    @pytest.mark.parametrize("event", [
        pytest.param(HalfSpaceEvent([1.0], 0.0, 0.5),
                     id="sum"),
        pytest.param(HalfSpaceEvent([0.0], 1.0, 2.0), id="count"),
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
        # The tilted estimator weighs with the cgf of one count law at
        # (n, s) and draws from it: one table, whose build makes the
        # s-tilted weights and their untilted normaliser once each.
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
                            HalfSpaceEvent([0.0], 1.0, 2.5),
                            reps=2000, method="tilted", seed=3)
        assert len(builds) == 1 and builds[0][1] > 0.0
        assert len(grows) == 2
        # The model and a fresh one each build the same law bit for bit.
        n, s = builds[0]
        law, fresh = mn.count_law(n, s), FractionalPoissonCounting(0.7, 1.0).count_law(n, s)
        assert law.cgf == fresh.cgf
        assert np.array_equal(law.cdf, fresh.cdf)
        assert len(builds) == 3

    def test_zero_rate_event_has_zero_infimum(self):
        # The tilt refuses a zero-rate event; the decay scan falls back to
        # plain sampling and reports a zero infimum.
        event = HalfSpaceEvent([0.0], 1.0, 0.5)
        with pytest.raises(ZeroRateEventError):
            tilt_parameters(pm_one_summand(), unit_poisson(), event)
        scan = decay_rate_scan(pm_one_summand(), unit_poisson(), event,
                               ns=[10, 20], reps=200, seed=3, method="tilted")
        assert scan.rate_infimum == 0.0

    def test_zero_rate_event_reports_plain_sampling(self):
        # With no tilt every estimate is plain, and the scan says so.
        event = HalfSpaceEvent([0.0], 1.0, 0.5)
        scan = decay_rate_scan(pm_one_summand(), unit_poisson(), event,
                               ns=[20, 40], reps=2000, seed=1, method="tilted")
        assert (scan.method, scan.rate_infimum) == ("plain", 0.0)


class TestEstimateEventProb:
    def test_plain_matches_enumeration(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
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
        event = HalfSpaceEvent([1.0], 0.0, 1.2)
        reps = RUN_SIZE + 500
        estimate = estimate_event_prob(mx, mn, 30, event, reps=reps,
                                       method="plain", seed=23)
        hits = event.indicator(
            30, *simulate_compound(mx, mn, 30, reps, seed=23)
        ).astype(float)
        assert estimate.value == float(hits.mean())
        assert estimate.std_error == float(hits.std(ddof=1)) / math.sqrt(reps)
        assert estimate.tilt is None and not estimate.degenerate

    def test_tilted_matches_enumeration(self):
        mn = BernoulliSumCounting(p=0.5)
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
        estimate = estimate_event_prob(pm_one_summand(), mn, 6, event,
                                       reps=10_000, method="tilted", seed=22)
        assert estimate.method == "tilted"
        assert estimate.tilt is not None
        assert abs(estimate.value - BERNOULLI_EXACT) <= (
            4.0 * estimate.std_error
        )

    @pytest.mark.parametrize("n, exact", [(10, 2.4708581393602045e-08),
                                          (20, 3.8693411420653235e-15)])
    def test_tilted_estimate_past_an_underflowed_atom(self, n, exact):
        # At the tilt theta = 1.49 the -800 atom's tilted weight underflows
        # to 0: the tilted law drops it, and the estimate still covers the
        # enumerated probability.
        mx = FiniteSupportSummands([[1.0], [0.0], [-800.0]], [0.45, 0.45, 0.1])
        event = HalfSpaceEvent([1.0], 0.0, 2.0)
        assert_allclose(enumerate_exact(mx, unit_poisson(), n, event), exact,
                        rtol=1e-12)
        estimate = estimate_event_prob(mx, unit_poisson(), n, event,
                                       reps=20_000, method="tilted", seed=1)
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error

    @pytest.mark.parametrize("mx, mn, direction, level", [
        (pm_one_summand(), unit_poisson(), [1.0], 0.5),
        (FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                               [0.3, 0.3, 0.4]),
         IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), [1.0, 1.0], 1.0),
    ], ids=["pm-one", "fs2"])
    def test_tilted_law_keeps_every_atom_of_positive_weight(
        self, mx, mn, direction, level,
    ):
        # Where no tilted weight underflows, the tilted law is the atoms and
        # the tilted weights themselves, byte for byte.
        theta = tilt_parameters(mx, mn, HalfSpaceEvent(direction, 0.0, level)).theta
        tilted = mx.tilted(theta)
        assert tilted.atoms.tobytes() == mx.atoms.tobytes()
        assert tilted.probs.tobytes() == mx._tilt(theta)[1].tobytes()

    def test_tilted_reaches_probabilities_plain_cannot(self):
        # P(N/n >= 2) at n = 40 is the exact Poisson tail P(N >= 80), around
        # 1.7e-8; 20000 plain draws see no hits while the tilted estimator
        # lands within a few standard errors of scipy's value.
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
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
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        first = estimate_event_prob(mx, mn, 30, event, reps=9000,
                                    method="tilted", seed=77)
        second = estimate_event_prob(mx, mn, 30, event, reps=9000,
                                     method="tilted", seed=77)
        assert first.value == second.value
        assert first.std_error == second.std_error

    @pytest.mark.parametrize("mn, level", [
        (unit_poisson(), 2.0),
        # The runs preset; level 2 is beyond its reach of N/n <= 1.
        (BernoulliSumCounting.runs(1.0, 1.0), 0.8),
        # Both run threads read the sampler's one tilted table.
        (FractionalPoissonCounting(0.7, 1.0), 2.0),
        KIND_CASES["iid-sum"],
        KIND_CASES["renewal"],
    ], ids=["poisson", "bernoulli-runs", "fractional", "iid-sum", "renewal"])
    def test_tilted_worker_count_invariance(self, mn, level):
        event = HalfSpaceEvent([0.0], 1.0, level)
        mx = pm_one_summand()
        serial = estimate_event_prob(mx, mn, 30, event, reps=RUN_SIZE + 800,
                                     method="tilted", seed=78, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two run threads often
        try:
            parallel = estimate_event_prob(mx, mn, 30, event,
                                           reps=RUN_SIZE + 800,
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
        event = HalfSpaceEvent([0.0], 1.0, 2.5)
        estimate = estimate_event_prob(pm_one_summand(), mn, n, event,
                                       reps=10_000, method="tilted", seed=11)
        assert estimate.value > 0.0
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error

    def test_tilted_sampler_is_built_once_per_estimate(self, monkeypatch):
        # One tilted table per estimate, shared by all runs, for every kind.
        built = []
        build = CountingModel.count_law

        def counted(self, n, s=0.0):
            built.append(type(self).__name__)
            return build(self, n, s)

        monkeypatch.setattr(CountingModel, "count_law", counted)
        for mn, level in KIND_CASES.values():
            estimate_event_prob(pm_one_summand(), mn, 30,
                                HalfSpaceEvent([0.0], 1.0, level),
                                reps=RUN_SIZE + 800, method="tilted", seed=78)
        assert built == [type(mn).__name__ for mn, _ in KIND_CASES.values()]

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    @pytest.mark.parametrize("face", ["sum", "count"])
    def test_tilted_covers_enumeration_for_every_kind(self, kind, face):
        # Exact values that enumerate every count in the kind's table
        # (truncated for Poisson, fractional and renewal), at n = 40 down
        # to about 1e-8.
        mn, level = KIND_CASES[kind]
        event = (HalfSpaceEvent([1.0], 0.0, 0.5)
                 if face == "sum" else HalfSpaceEvent([0.0], 1.0, level))
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
        event = HalfSpaceEvent([0.0], 1.0, level)
        estimate = estimate_event_prob(pm_one_summand(), RenewalCounting(law),
                                       50, event, reps=10_000, method="tilted",
                                       seed=24)
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error
        assert estimate.std_error < 0.05 * exact

    def test_lattice_renewal_tilted_matches_exact(self):
        # S/n >= 0.3 for +-1 summands with p(+1) = 0.6 and inter-arrivals 1
        # or 2: the rate infimum sits at a count rate y* above d1 = 2/3, and
        # the tilted estimates track the enumerated probabilities.
        mx = FiniteSupportSummands([[1.0], [-1.0]], [0.6, 0.4])
        mn, event = lattice_renewal(), HalfSpaceEvent([1.0], 0.0, 0.3)
        tilt = tilt_parameters(mx, mn, event)
        assert_allclose(tilt.rate, 0.0224603, rtol=1e-5)
        assert_allclose(tilt.boundary_y, 0.673447, rtol=1e-5)
        for n, log_p in ((50, -2.5086377197217264), (100, -3.8947804617828856),
                         (200, -6.431180003745537)):
            exact = enumerate_exact(mx, mn, n, event)
            assert_allclose(math.log(exact), log_p, rtol=1e-12)
            estimate = estimate_event_prob(mx, mn, n, event, reps=20_000,
                                           method="tilted", seed=3)
            assert abs(estimate.value - exact) <= 2.0 * estimate.std_error

    def test_count_event_value_ignores_summand_stream(self):
        # A count event tilts no summand, so the summand law is irrelevant.
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        mn = unit_poisson()
        base = estimate_event_prob(pm_one_summand(), mn, 30, event, reps=5000,
                                   method="tilted", seed=79)
        moved = estimate_event_prob(zero_two_summand(), mn, 30, event,
                                    reps=5000, method="tilted", seed=79)
        assert base.value == moved.value

    def test_unknown_method_rejected(self):
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        with pytest.raises(ValidationError):
            estimate_event_prob(pm_one_summand(), unit_poisson(), 30, event,
                                reps=10, method="antithetic", seed=1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_weight_past_the_cap_is_refused(self, workers):
        # A consistent tilt keeps every weight below e^700 unless a draw has
        # tilted probability below e^-700; this hand-built one does not
        # renormalize: s = 0 with eta = -100 gives log-weights 100 N, past
        # 700 for every Poisson(50) draw above 7, in a run on a pool thread.
        tilt = montecarlo.TiltParameters(
            theta=np.array([0.0]), eta=-100.0, s=0.0, rate=0.0,
            boundary_x=np.array([0.0]), boundary_y=1.0)
        with pytest.raises(ValidationError, match=r"exceeds exp\(700\)"):
            estimate_event_prob(pm_one_summand(), unit_poisson(), 50,
                                COUNT_EVENT, reps=2 * RUN_SIZE,
                                method="tilted", seed=46, workers=workers,
                                tilt=tilt)

    def test_impossible_event_is_degenerate(self):
        event = HalfSpaceEvent([0.0], 1.0, 5.0)
        estimate = estimate_event_prob(pm_one_summand(), unit_poisson(), 50,
                                       event, reps=1000, method="plain",
                                       seed=5)
        assert estimate.value == 0.0
        assert estimate.std_error == 0.0
        assert estimate.degenerate


class TestCentredSumFace:
    """The sum of centred summands S - mu N = sum (X_i - mu) exceeds n a
    along d on the face (d, -<d, mu>): the object of the first MD theorem
    at LD scale, on the exact, tilted and rate routes."""

    @staticmethod
    def lattice():
        # +/-1 summands with p(+1) = 0.6, so mu = 0.2.
        return (FiniteSupportSummands([[1.0], [-1.0]], [0.6, 0.4]),
                unit_poisson(), HalfSpaceEvent([1.0], -0.2, 0.3))

    @staticmethod
    def gaussian():
        return (GaussianSummands([0.3], [[1.0]]), unit_poisson(),
                HalfSpaceEvent([1.0], -0.3, 0.3))

    def test_lattice_tilt_matches_the_boundary_oracle(self):
        # On the boundary x = 0.3 + 0.2 y, the rate is
        # y conj(x / y) + y log y - y + 1, with conj the conjugate of
        # log(0.6 e^t + 0.4 e^-t) on (-1, 1).
        mx, mn, event = self.lattice()
        tilt = tilt_parameters(mx, mn, event)

        def conj(z):
            return (0.5 * (1.0 + z) * math.log((1.0 + z) / 1.2)
                    + 0.5 * (1.0 - z) * math.log((1.0 - z) / 0.8))

        oracle = minimize_scalar(
            lambda y: y * conj((0.3 + 0.2 * y) / y) + poisson_rate(y),
            bounds=(0.376, 50.0), method="bounded", options={"xatol": 1e-10})
        assert_allclose(tilt.rate, 0.0485226, rtol=1e-6)
        assert_allclose(tilt.rate, oracle.fun, atol=1e-10)
        assert_allclose(tilt.boundary_x, [0.50996], atol=1e-5)
        assert_allclose(tilt.boundary_y, 1.04981, atol=1e-5)
        assert_allclose(tilt.boundary_x[0] - 0.2 * tilt.boundary_y, 0.3,
                        atol=1e-9)

    def test_lattice_enumeration_values(self):
        mx, mn, event = self.lattice()
        got = [math.log(enumerate_exact(mx, mn, n, event))
               for n in (50, 100, 200, 400)]
        assert_allclose(got, [-4.273551323236433, -6.912332308123004,
                              -12.075607070241924, -22.106462995706313],
                        rtol=1e-12)

    def test_lattice_enumeration_matches_the_oracle(self):
        # S - 0.2 k lands on tenths, so some points sit on the boundary
        # (n = 4: S = 2 at k = 4), and the count term enters the rule.
        mx, mn, event = self.lattice()
        for n in range(1, 6):
            assert_allclose(enumerate_exact(mx, mn, n, event),
                            composition_oracle(mx, mn, n, event), rtol=1e-12)
        above = HalfSpaceEvent([1.0], -0.2, 0.3 + 1e-9)
        assert enumerate_exact(mx, mn, 4, event) > enumerate_exact(mx, mn, 4, above)

    def test_lattice_tilted_estimate_covers_enumeration(self):
        mx, mn, event = self.lattice()
        exact = enumerate_exact(mx, mn, 200, event)
        estimate = estimate_event_prob(mx, mn, 200, event, reps=20_000,
                                       method="tilted", seed=7)
        assert abs(estimate.value - exact) <= 3.0 * estimate.std_error
        assert estimate.std_error < 0.05 * exact

    def test_gaussian_tilt_matches_the_boundary_oracle(self):
        # On the boundary x = 0.3 + 0.3 y the summand term is
        # y ((x / y) - 0.3)^2 / 2 = 0.045 / y.
        mx, mn, event = self.gaussian()
        tilt = tilt_parameters(mx, mn, event)
        oracle = minimize_scalar(lambda y: 0.045 / y + poisson_rate(y),
                                 bounds=(1e-3, 50.0), method="bounded",
                                 options={"xatol": 1e-10})
        assert_allclose(tilt.rate, oracle.fun, atol=1e-10)
        assert_allclose(tilt.boundary_y, oracle.x, atol=1e-5)

    @pytest.mark.parametrize("n, log_exact", [
        (50, -4.0580), (100, -6.5373), (200, -11.2465)])
    def test_gaussian_tilted_estimate_covers_the_oracle(self, n, log_exact):
        # Given N = k the centred sum is N(0, k), so the oracle is
        # sum_k P(N_n = k) P(Z >= 0.3 n / sqrt(k)), with nothing at k = 0.
        mx, mn, event = self.gaussian()
        k = np.arange(1, 60 * n)
        log_terms = stats.poisson.logpmf(k, n) + stats.norm.logsf(0.3 * n / np.sqrt(k))
        exact = math.exp(logsumexp(log_terms))
        assert_allclose(math.log(exact), log_exact, atol=5e-5)
        estimate = estimate_event_prob(mx, mn, n, event, reps=20_000,
                                       method="tilted", seed=0)
        assert abs(estimate.value - exact) <= 3.0 * estimate.std_error


class TestDecayRateScan:
    def test_count_event_slope_approaches_the_rate(self):
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
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

    def test_plain_scan_without_two_hits_is_typed(self):
        # P(S_n / n >= 0.5) is 2.9e-4 at n = 50 and 4.6e-7 at n = 100: 100
        # plain draws see no hit, so there is no slope to fit.
        event = HalfSpaceEvent([1.0], 0.0, 0.5)
        with pytest.raises(ValidationError, match=(
                "fewer than two positive probability estimates; cannot fit a slope")):
            decay_rate_scan(pm_one_summand(), unit_poisson(), event, ns=[50, 100],
                            reps=100, seed=3, method="plain")

    def test_plain_method_on_a_soft_event(self):
        # At n this small the prefactor still shifts the finite-n slope well
        # away from the asymptotic rate, so the oracle is the exact Poisson
        # tail at each n, not the rate.
        event = HalfSpaceEvent([0.0], 1.0, 1.3)
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
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        first = decay_rate_scan(mx, mn, event, ns=[40, 80], reps=2000,
                                seed=92)
        second = decay_rate_scan(mx, mn, event, ns=[40, 80], reps=2000,
                                 seed=92)
        assert first.p_hat == second.p_hat
        assert first.fitted_rate == second.fitted_rate

    def test_ns_validation(self):
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        mx, mn = pm_one_summand(), unit_poisson()
        with pytest.raises(ValidationError):
            decay_rate_scan(mx, mn, event, ns=[50], reps=100, seed=1)
        with pytest.raises(ValidationError):
            decay_rate_scan(mx, mn, event, ns=[100, 50], reps=100, seed=1)

    def test_unknown_method_rejected(self):
        # A soft event, so plain sampling would find positive estimates at
        # both n: the error must come from the method, not from the fit.
        event = HalfSpaceEvent([0.0], 1.0, 1.3)
        with pytest.raises(ValidationError, match="method"):
            decay_rate_scan(zero_two_summand(), unit_poisson(), event,
                            ns=[30, 60], reps=2000, seed=91, method="tilt")


class TestMdScalingSweep:
    def test_exact_poisson_sweep_approaches_the_quadratic(self):
        ns = [100, 1000, 10_000, 100_000]
        result = md_scaling_sweep(
            unit_poisson(), [n ** -0.5 for n in ns], etas=[-1.0, 1.0], ns=ns,
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
        a_n = 100 ** -0.5
        for kind, (mn, _) in KIND_CASES.items():
            exact = md_scaling_sweep(mn, [a_n], etas=[-0.5, 0.5], ns=[100])
            draws = mn.count_law(100).draw(np.random.default_rng(314), 200_000)
            centred = draws - mn.mean(100)
            for row in exact.rows:
                t = row.eta / math.sqrt(100 * a_n)
                empirical = a_n * (logsumexp(t * centred) - math.log(draws.size))
                assert abs(row.value - empirical) <= 0.005, (kind, row.eta)

    def test_every_kind_with_a_law_sweeps_exactly(self):
        scales = [n ** -0.5 for n in (50, 100)]
        poisson = md_scaling_sweep(unit_poisson(), scales, etas=[-1.0, 0.5],
                                   ns=[50, 100])
        renewal = md_scaling_sweep(RenewalCounting(ExponentialInterarrival(1.0)),
                                   scales, etas=[-1.0, 0.5], ns=[50, 100])
        for a, b in zip(poisson.rows, renewal.rows):
            assert_allclose(b.value, a.value, rtol=1e-9)

    def test_sweep_builds_each_table_once(self, monkeypatch):
        # 3 ns x (the mean's table and 3 tilts): 12 tables, 17.9 MiB, each
        # built once. The values are the finite-n cumulant's, read afresh.
        mn, ns = FractionalPoissonCounting(0.7, 1.0), [1000, 10_000, 100_000]
        built = []
        tilted_table = mn._tilted_table
        monkeypatch.setattr(mn, "_tilted_table", lambda n, s: (
            built.append((n, s)) or tilted_table(n, s)))
        result = md_scaling_sweep(mn, [n ** -0.5 for n in ns],
                                  etas=[0.5, 1.0, 2.0], ns=ns)
        assert len(built) == len(set(built)) == 12
        for row in result.rows:
            a_n = row.n ** -0.5
            t = row.eta / math.sqrt(row.n * a_n)
            assert row.value == a_n * (row.n * mn.finite_cgf(row.n, t)
                                       - t * mn.mean(row.n))

    def test_no_guide_outlives_its_estimate(self, monkeypatch):
        # A plain and a tilted estimate each build a count law and its
        # guide; the model holds neither, so both are freed with the call.
        mn, event = unit_poisson(), HalfSpaceEvent([0.0], 1.0, 1.5)
        guides = []
        build = summands._CdfGuide.__init__
        monkeypatch.setattr(summands._CdfGuide, "__init__", lambda self, chunks: (
            guides.append(weakref.ref(self)) or build(self, chunks)))
        for method in ("plain", "tilted"):
            estimate_event_prob(pm_one_summand(), mn, 40, event, reps=1000,
                                method=method, seed=5)
        gc.collect()
        assert len(guides) == 2
        assert [ref() for ref in guides] == [None, None]

    def test_reciprocal_scaling_freezes_the_gap(self):
        # With a_n = 1/n the rescaled cumulant is e^eta - 1 - eta at every
        # n: the trend flags, not the sweep, expose the broken regime.
        mn = unit_poisson()
        eta = 0.8
        result = md_scaling_sweep(mn, [0.1, 0.01, 0.001], etas=[eta],
                                  ns=[10, 100, 1000])
        expected = math.exp(eta) - 1.0 - eta
        for row in result.rows:
            assert_allclose(row.value, expected, rtol=1e-10)
        assert not result.na_increases

    def test_validation(self):
        with pytest.raises(ValidationError):
            md_scaling_sweep(unit_poisson(), [0.1, 0.1],
                             etas=[0.5], ns=[100, 50])
        with pytest.raises(ValidationError):
            md_scaling_sweep(unit_poisson(), [], etas=[0.5], ns=[])

    @pytest.mark.parametrize("a_n", [0.0, -0.1, math.inf, math.nan, "x"])
    def test_each_scale_is_a_positive_finite_real(self, a_n):
        with pytest.raises(ValidationError, match="a_n must be a positive"):
            md_scaling_sweep(unit_poisson(), [0.1, a_n], etas=[0.5],
                             ns=[10, 100])

    @pytest.mark.parametrize("scales", [[0.1], [0.1, 0.01, 0.001]],
                             ids=["short", "long"])
    def test_one_scale_per_n(self, scales):
        with pytest.raises(ValidationError, match="one a_n per n"):
            md_scaling_sweep(unit_poisson(), scales, etas=[0.5], ns=[10, 100])

    @pytest.mark.parametrize("ns, scales, flags", [
        ([100, 10_000], [100 ** -0.5, 10_000 ** -0.5], (True, True)),
        # a_n = 1/n: the scale shrinks but n a_n stays flat.
        ([10, 1000], [0.1, 0.001], (True, False)),
    ], ids=["power", "reciprocal"])
    def test_endpoint_flags(self, ns, scales, flags):
        result = md_scaling_sweep(unit_poisson(), scales, etas=[0.5], ns=ns)
        assert (result.a_decreases, result.na_increases) == flags

    def test_repeated_eta_is_a_validation_error(self):
        # Each eta names one band and one DAT file of an md-check.
        with pytest.raises(ValidationError, match="etas must be distinct"):
            md_scaling_sweep(unit_poisson(), [0.1, 0.01], etas=[0.5, 0.5],
                             ns=[10, 100])

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_is_a_validation_error(self, eta):
        # A NaN row would compare unequal to everything, so its gap series
        # would read as monotone.
        with pytest.raises(ValidationError, match="eta"):
            md_scaling_sweep(unit_poisson(), [0.1, 0.01],
                             etas=[0.5, eta], ns=[10, 100])


def _no_drawing(*args, **kwargs):
    raise AssertionError("a bad size must be refused before any drawing")


COUNT_EVENT = HalfSpaceEvent([0.0], 1.0, 2.0)


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
        unit_poisson(), [0.1, 0.1], etas=[0.5],
        ns=[50.9, 100.2]), id="md-sweep-ns"),
    pytest.param(lambda: unit_poisson().mean(20.7), id="count-mean-n"),
    pytest.param(lambda: IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]).exact_pmf(True),
                 id="count-pmf-n-bool"),
])
def test_sizes_are_checked_not_truncated(monkeypatch, call):
    monkeypatch.setattr(montecarlo, "_run_blocks", _no_drawing)
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
        monkeypatch.setattr(montecarlo, "_run_blocks", _no_drawing)
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
        monkeypatch.setattr(montecarlo, "_run_blocks", _no_drawing)
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
        # the replication draws, one per run (here a full run and a short
        # one), with no second pass to estimate E N_n.
        mn = RenewalCounting(GammaInterarrival(2.0, 4.0))
        assert_allclose(mn.mean(100), 199.75, rtol=1e-12)
        draws = []
        draw = CountLaw.draw
        monkeypatch.setattr(CountLaw, "draw", lambda law, rng, reps: (
            draws.append(reps) or draw(law, rng, reps)))
        result = clt_regime_check(
            pm_one_summand(), mn, n=100, reps=RUN_SIZE + 500, v=[1.0],
            seed=2003,
        )
        assert draws == [RUN_SIZE, 500]
        assert all(r.within_band for r in result.rows)

    @pytest.mark.parametrize("reps", [2, 5, 7])
    def test_too_few_draws_have_no_normality_pvalues(self, reps):
        # K^2 needs 8 draws; below that the p-values are None, never
        # a warning and NaN.
        result = clt_regime_check(pm_one_summand(), unit_poisson(), n=50,
                                  reps=reps, v=[1.0], seed=2006)
        assert result.normality_pvalues == {"sum_coord": None,
                                            "count_coord": None}


K2_LAWS = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "exponential": lambda rng, size: rng.exponential(size=size),
    "negated_exponential": lambda rng, size: -rng.exponential(size=size),
    "poisson3": lambda rng, size: rng.poisson(3.0, size).astype(float),
    "plus_minus_one": lambda rng, size: rng.choice([-1.0, 1.0], size),
}


def biased_moments(a):
    """m2, m3, m4 of a series about its mean, by two passes, as scipy's
    normaltest forms them."""
    d = a - a.mean(keepdims=True)
    d2 = np.square(d)
    return d2.mean(), (d * d2).mean(), np.square(d2).mean()


class TestK2Pvalue:
    """The package's K^2 p-value is scipy.stats.normaltest's, bit for bit,
    at normaltest's own moments."""

    @pytest.mark.parametrize("size", [8, 9, 20, 8192, 10**5, 10**6])
    @pytest.mark.parametrize("law", sorted(K2_LAWS))
    def test_equals_normaltest(self, law, size):
        a = K2_LAWS[law](np.random.default_rng([3001, size]), size)
        for series in (a, a - a.mean()):
            assert montecarlo._k2_pvalue(size, *biased_moments(series)) == (
                stats.normaltest(series).pvalue)

    def test_a_symmetric_series_reads_y_zero_as_one(self):
        # m3 is exactly 0, so skewtest's y is 0 and is read as 1.
        a = np.array([-1.0, 1.0] * 4)
        assert montecarlo._k2_pvalue(a.size, *biased_moments(a)) == (
            stats.normaltest(a).pvalue)


def batch_route_check(mx, mn, n, reps, seed, workers, images, means=(),
                      covariances=(), normality=()):
    """The check computed from one whole ``simulate_compound`` batch: image
    rows by np.matmul and += c * counts, centred by corrected two-pass means,
    then Grams of the centred rows and of their squares, normaltest's
    p-values, and the check's own target formulas."""
    sums, counts = simulate_compound(mx, mn, n, reps, seed, workers=workers)
    q = len(images)
    index = {name: i for i, name in enumerate(images)}
    directions = np.array([x for x, _ in images.values()])
    coef = np.array([c for _, c in images.values()])
    values = np.empty((q, reps))
    for row, (x, c) in zip(values, images.values()):
        np.matmul(sums, x, out=row)
        row += c * counts
    mean = values.mean(axis=1)
    values -= mean[:, None]
    # A second pass takes out what the first mean's rounding left (Chan,
    # Golub & LeVeque, Amer. Stat. 37(3), 1983): at a mean 7e5 spreads out,
    # that rounding alone moves a fourth-moment sum by 2e-12 relative.
    residual = values.mean(axis=1)
    values -= residual[:, None]
    mean += residual
    cov = values @ values.T / (reps - 1)
    pvalues = {}
    for name, a in normality:
        # The check's rule: no K^2 test below 8 draws or on a series with no
        # spread.
        i = index[a]
        untested = (reps < montecarlo.NORMALTEST_MIN_REPS
                    or math.sqrt(cov[i, i]) <= 1e-12 * math.sqrt(n))
        pvalues[name] = None if untested else float(stats.normaltest(values[i]).pvalue)
    values *= values
    cov_se = np.sqrt(np.maximum(values @ values.T / reps - cov * cov, 0.0) / reps)
    image_mu = np.array([float(x @ mx.mean()) for x in directions])
    image_sigma = directions @ mx.cov().matrix @ directions.T

    def targets(mean_rate, var_rate):
        c1 = pair_covariance(image_sigma, image_mu, mean_rate, var_rate, True)
        return mean_rate * (image_mu + coef), (
            c1[:q, :q] + np.outer(c1[:q, q], coef) + np.outer(coef, c1[q, :q])
            + np.outer(coef, coef) * c1[q, q])

    def pick(vector, matrix):
        return [float(vector[index[a]]) for _, a in means] + [
            float(matrix[index[a], index[b]]) for _, a, b in covariances]

    d = mn.derivs_at_zero()
    columns = (
        pick(mean / n, cov / n),
        pick(np.sqrt(np.diag(cov) / reps) / n, cov_se / n),
        pick(*targets(mn.mean(n) / float(n), mn.var(n) / float(n))),
        pick(*targets(d.mean_rate, d.variance_rate)),
    )
    names = [row for row, *_ in (*means, *covariances)]
    rows = [montecarlo._check_row(*cells, montecarlo.BAND_SE)
            for cells in zip(names, *columns)]
    return rows, pvalues


# One plain sum route each: guide tables (two stages), numpy's binomials
# (the +-1 law's tables at n = 400 would pass TABLE_STAGE_STATES) and the
# Gaussian draw.
SUM_ROUTES = {
    "guide-tables": (three_atom_plane, lambda: IidSumCounting(
        [0, 1, 2], [0.3, 0.4, 0.3]), 100, [1.0, 0.0], [0.0, 1.0]),
    "binomials": (pm_one_summand, unit_poisson, 400, [1.0], [1.0]),
    "gaussian": (lambda: GaussianSummands([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
                 lambda: RenewalCounting(GammaInterarrival(2.0, 1.0)), 50,
                 [0.3, -1.1], [0.45, 0.8]),
}


def moment_route(mx, mn, n, reps, u, v, seed, workers):
    """(moment_limits_check, its batch route) at one set of arguments."""
    u, v = np.array(u, dtype=float), np.array(v, dtype=float)
    return moment_limits_check(mx, mn, n, reps, u, v, seed=seed,
                               workers=workers), batch_route_check(
        mx, mn, n, reps, seed, workers,
        {"u": (u, 0.0), "v": (v, 0.0), "count": (np.zeros(mx.dim), 1.0)},
        means=[("mean_S_dir", "v"), ("mean_N", "count")],
        covariances=[("cov_SS", "u", "v"), ("cov_NS", "count", "v"),
                     ("var_N", "count", "count")])


def clt_route(mx, mn, n, reps, v, seed, workers):
    """(clt_regime_check, its batch route) at one set of arguments."""
    v = np.array(v, dtype=float)
    return clt_regime_check(mx, mn, n, reps, v, seed=seed,
                            workers=workers), batch_route_check(
        mx, mn, n, reps, seed, workers,
        {"centred_summands": (v, -float(v @ mx.mean())),
         "count": (np.zeros(mx.dim), 1.0), "centred_sum": (v, 0.0)},
        covariances=[
            ("var_sum_coord", "centred_summands", "centred_summands"),
            ("var_count_coord", "count", "count"),
            ("cross_cov", "centred_summands", "count"),
            ("var_sum_coord_shifted", "centred_sum", "centred_sum"),
            ("cross_cov_shifted", "centred_sum", "count"),
        ],
        normality=[("sum_coord", "centred_summands"), ("count_coord", "count")])


def assert_matches_batch(result, batch):
    """Names, targets and verdicts equal the batch route's; the sampled
    columns, whose sums the check takes in another order, agree within
    rtol 1e-12, and the K^2 p-values within rtol 1e-9.

    margin = |empirical - reference| / band magnifies the rounding of
    empirical by |empirical| / (margin band) when the two nearly agree, so
    it is held to what rtol 1e-12 on empirical and band carries through it.
    """
    rows, pvalues = batch
    assert [(r.name, r.reference, r.limit, r.within_band) for r in result.rows] == [
        (r.name, r.reference, r.limit, r.within_band) for r in rows]
    for column in ("empirical", "std_error", "band"):
        assert_allclose([getattr(r, column) for r in result.rows],
                        [getattr(r, column) for r in rows], rtol=1e-12, atol=0.0)
    for got, want in zip(result.rows, rows):
        if want.band > 0.0:
            carried = 1e-12 * (abs(want.empirical) / want.band + want.margin)
            assert abs(got.margin - want.margin) <= carried, (got, want)
        else:
            assert got.margin == want.margin
    assert result.normality_pvalues.keys() == pvalues.keys()
    for name, p in pvalues.items():
        if p is None:
            assert result.normality_pvalues[name] is None
        else:
            assert_allclose(result.normality_pvalues[name], p, rtol=1e-9, atol=0.0)


class TestCheckBlocks:
    """The checks sum each run's Gram of image power sums as it is drawn,
    with no sample batch and no reps-long array; every number is the batch
    route's, within rounding."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("route", SUM_ROUTES)
    def test_rows_equal_the_batch_route(self, route, workers):
        law, counting_law, n, u, v = SUM_ROUTES[route]
        mx, mn = law(), counting_law()
        reps = RUN_SIZE + 577
        assert_matches_batch(*moment_route(mx, mn, n, reps, u, v, 41, workers))
        assert_matches_batch(*clt_route(mx, mn, n, reps, v, 42, workers))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_large_image_mean_is_centred_exactly(self, workers):
        # N(1e5, 1) summands and N_50 = 50: the sum's image mean is about
        # 7e5 times its spread, and the count has no spread at all.
        mx, mn = GaussianSummands([1e5], [[1.0]]), IidSumCounting([1], [1.0])
        reps = RUN_SIZE + 577
        moments, batch = moment_route(mx, mn, 50, reps, [1.0], [1.0], 46, workers)
        assert_matches_batch(moments, batch)
        rows = {r.name: r for r in moments.rows}
        assert rows["cov_NS"].empirical == 0.0 and rows["var_N"].empirical == 0.0
        assert rows["cov_SS"].empirical > 0.0
        clt, batch = clt_route(mx, mn, 50, reps, [1.0], 47, workers)
        assert_matches_batch(clt, batch)
        assert clt.normality_pvalues["count_coord"] is None
        assert clt.normality_pvalues["sum_coord"] is not None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_one_atom_centred_image_has_no_spread(self, workers):
        # S = 2 N exactly, so the centred-summand image is identically 0.
        mx = FiniteSupportSummands([[2.0]], [1.0])
        clt, batch = clt_route(mx, unit_poisson(), 50, RUN_SIZE + 577,
                               [1.0], 48, workers)
        assert_matches_batch(clt, batch)
        rows = {r.name: r for r in clt.rows}
        assert rows["var_sum_coord"].empirical == 0.0
        assert rows["cross_cov"].empirical == 0.0
        assert clt.normality_pvalues["sum_coord"] is None
        assert clt.normality_pvalues["count_coord"] is not None

    # Peak traced bytes of a check, by worker count: one run's draws and
    # Gram per thread, and the tables each call builds. A reps-long image
    # array alone is 4.8 MB at 2e5 reps and 24 MB at 1e6.
    PEAK_BUDGETS = {1: 3_000_000, 2: 5_000_000}

    @pytest.mark.parametrize("workers", sorted(PEAK_BUDGETS))
    def test_peak_memory_does_not_grow_with_reps(self, workers):
        # A first call loads the lazy imports and the count table.
        mx = three_atom_plane()
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        moment_limits_check(mx, mn, 100, 2, [1.0, 0.0], [0.0, 1.0], seed=43)
        peaks = {}
        for reps in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                moment_limits_check(mx, mn, 100, reps, [1.0, 0.0], [0.0, 1.0],
                                    seed=43, workers=workers)
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= self.PEAK_BUDGETS[workers], peaks


def batch_route_estimate(mx, mn, n, event, reps, method, seed, workers):
    """The estimate computed from one whole batch of the estimator's draws:
    (S, N) drawn through the block runner with its draws pair, then the
    indicator times exp(log-weight) over all reps at once."""
    if method == "plain":
        tilt, draws = None, montecarlo._plain_draws(mx, mn.count_law(n))
    else:
        tilt = tilt_parameters(mx, mn, event)
        draws = (mx.tilted(tilt.theta).sample_sum_batch,
                 mn.count_law(n, tilt.s).draw)
    sums, counts = np.empty((reps, mx.dim)), np.empty(reps, dtype=np.int64)

    def take(start, run_counts, run_sums):
        counts[start:start + run_counts.size] = run_counts
        sums[start:start + run_counts.size] = run_sums

    montecarlo._run_blocks(*draws, reps, seed, workers, take)
    weighted = event.indicator(n, sums, counts).astype(float)
    if tilt is not None:
        log_norm = float(n) * float(mn.finite_cgf(n, tilt.s))
        weighted *= np.exp(log_norm - sums @ tilt.theta - tilt.eta * counts)
    return (float(weighted.mean()),
            float(weighted.std(ddof=1)) / math.sqrt(reps))


# Two-dimensional laws, so that sums @ theta is a real dot: guide-table
# sums under iid-sum counts, and Gaussian sums under gamma renewals.
ESTIMATE_ROUTES = {
    "finite-support": (three_atom_plane, lambda: IidSumCounting(
        [0, 1, 2], [0.3, 0.4, 0.3]), 100, 0.2),
    "gaussian": (lambda: GaussianSummands([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
                 lambda: RenewalCounting(GammaInterarrival(2.0, 1.0)), 50, 0.4),
}


class TestEstimateBlocks:
    """The estimator writes each run's weighted indicator as it is drawn,
    with no sample batch; its value and error are the batch route's."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("method", ["plain", "tilted"])
    @pytest.mark.parametrize("route", ESTIMATE_ROUTES)
    def test_estimate_equals_the_batch_route(self, route, method, workers):
        law, counting_law, n, level = ESTIMATE_ROUTES[route]
        mx, mn = law(), counting_law()
        event = HalfSpaceEvent([1.0, 1.0], 0.0, level)
        reps = RUN_SIZE + 577
        estimate = estimate_event_prob(mx, mn, n, event, reps=reps,
                                       method=method, seed=44, workers=workers)
        assert 0.0 < estimate.value < 1.0
        assert (estimate.value, estimate.std_error) == batch_route_estimate(
            mx, mn, n, event, reps, method, 44, workers)

    @pytest.mark.parametrize("method", ["plain", "tilted"])
    def test_peak_memory_is_the_weighted_row(self, method):
        # One reps-long row of 8-byte floats, and one more for the spread;
        # the slack covers one run's draws and the tables each call
        # builds. Holding the (S, N) batch peaks near ten rows. A first
        # call loads the lazy imports and the count table.
        mx = three_atom_plane()
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        event = HalfSpaceEvent([1.0, 1.0], 0.0, 0.2)
        estimate_event_prob(mx, mn, 100, event, reps=2, method=method, seed=45)
        reps, slack = 200_000, 2 ** 20
        tracemalloc.start()
        try:
            estimate_event_prob(mx, mn, 100, event, reps=reps, method=method,
                                seed=45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * reps * 8 + slack


def _draws_sums(*args, **kwargs):
    raise AssertionError("a summand sampler was built or called")


def forbid_sums(monkeypatch):
    """Every summand sampler of the three sum routes (binomials, stage
    tables, Gaussian) raises once this is applied."""
    for law, name in ((FiniteSupportSummands, "sample_sum_batch"),
                      (FiniteSupportSummands, "plain_sampler"),
                      (GaussianSummands, "sample_sum_batch")):
        monkeypatch.setattr(law, name, _draws_sums)


# Summand laws of each sum route: binomials (tilted), stage tables (plain),
# and Gaussian sums.
COUNT_FACE_LAWS = {
    "pm-one": pm_one_summand,
    "two-stage": three_atom_plane,
    "gaussian": lambda: GaussianSummands([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
}


class TestCountFaceDrawsCounts:
    """A face of direction 0 draws its counts alone: no summand stream is
    seeded and no summand sampler is built or called, and every estimate is
    the one that drawing the sums gives, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["plain", "tilted"])
    @pytest.mark.parametrize("law", COUNT_FACE_LAWS)
    def test_estimate_equals_the_route_that_draws_sums(self, monkeypatch, law,
                                                       method, workers):
        mx, mn = COUNT_FACE_LAWS[law](), unit_poisson()
        event = HalfSpaceEvent(np.zeros(mx.dim), 1.0, 1.3)
        reps = RUN_SIZE + 577
        expected = batch_route_estimate(mx, mn, 30, event, reps, method, 46,
                                        workers)
        forbid_sums(monkeypatch)
        estimate = estimate_event_prob(mx, mn, 30, event, reps=reps,
                                       method=method, seed=46, workers=workers)
        assert 0.0 < estimate.value < 1.0
        assert (estimate.value, estimate.std_error) == expected

    @pytest.mark.parametrize("law", COUNT_FACE_LAWS)
    def test_plain_is_the_indicator_mean_of_simulate_compound(self, monkeypatch,
                                                              law):
        mx, mn = COUNT_FACE_LAWS[law](), IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        event = HalfSpaceEvent(np.zeros(mx.dim), 1.0, 1.05)
        reps = RUN_SIZE + 500
        sums, counts = simulate_compound(mx, mn, 30, reps, seed=23)
        hits = event.indicator(30, None, counts)
        assert np.array_equal(hits, event.indicator(30, sums, counts))
        forbid_sums(monkeypatch)
        estimate = estimate_event_prob(mx, mn, 30, event, reps=reps,
                                       method="plain", seed=23)
        hits = hits.astype(float)
        assert estimate.value == float(hits.mean())
        assert estimate.std_error == float(hits.std(ddof=1)) / math.sqrt(reps)

    def test_decay_scan_draws_counts_only(self, monkeypatch):
        mx, mn = pm_one_summand(), unit_poisson()
        event = HalfSpaceEvent([0.0], 1.0, 2.0)
        ns, reps, seed = [40, 80], 2000, 92
        expected = [batch_route_estimate(
            mx, mn, n, event, reps, "tilted",
            int(np.random.SeedSequence([seed, index]).generate_state(1)[0]), 1)
            for index, n in enumerate(ns)]
        forbid_sums(monkeypatch)
        scan = decay_rate_scan(mx, mn, event, ns=ns, reps=reps, seed=seed)
        assert scan.method == "tilted"
        assert list(zip(scan.p_hat, scan.std_err)) == expected

    @pytest.mark.parametrize("method", ["plain", "tilted"])
    def test_count_face_seeds_no_summand_stream(self, monkeypatch, method):
        # The seed sequence of every run generator the estimate makes.
        seeded, default_rng = [], np.random.default_rng

        def recording(seed=None):
            if isinstance(seed, np.random.SeedSequence):
                seeded.append(tuple(seed.entropy))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        estimate_event_prob(pm_one_summand(), unit_poisson(), 30,
                            HalfSpaceEvent([0.0], 1.0, 1.3),
                            reps=2 * RUN_SIZE, method=method, seed=47)
        assert seeded == [(47, r, montecarlo.COUNT_ROLE) for r in range(2)]

    @pytest.mark.parametrize("method", ["plain", "tilted"])
    @pytest.mark.parametrize("face", [([1.0], 0.0), ([1.0], 1.0), ([0.5], -0.2)],
                             ids=["sum", "sum-and-count", "centred"])
    def test_a_face_with_a_direction_draws_sums(self, monkeypatch, face,
                                                method):
        forbid_sums(monkeypatch)
        with pytest.raises(AssertionError, match="summand sampler"):
            estimate_event_prob(pm_one_summand(), unit_poisson(), 30,
                                HalfSpaceEvent(*face, 1.3), reps=100,
                                method=method, seed=48)


def run_generators(seed, reps, role):
    """Each run's own generator over rows [0, reps), with its size."""
    return [(np.random.default_rng(np.random.SeedSequence([seed, start // RUN_SIZE, role])),
             min(RUN_SIZE, reps - start)) for start in range(0, reps, RUN_SIZE)]


def blockwise_draws(mx, mn, n, reps, seed):
    """(sums, counts) drawn one run at a time, each run's samplers called on
    that run's own generators alone."""
    draw_sums, draw_counts = montecarlo._plain_draws(mx, mn.count_law(n))
    pieces = []
    for (rng_n, size), (rng_x, _) in zip(
            *(run_generators(seed, reps, role) for role in (0, 1))):
        counts = draw_counts(rng_n, size)
        pieces.append((draw_sums(rng_x, counts), counts))
    return tuple(np.concatenate(part) for part in zip(*pieces))


RUN_REPS = [1, RUN_SIZE - 1, RUN_SIZE + 1, 2 * RUN_SIZE + 17]


class TestBlockRuns:
    """Run r of the block runner, rows [r RUN_SIZE, (r + 1) RUN_SIZE), draws
    each stream role from its own generator, so every draw is the one its
    run makes alone."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_run_draws_from_one_generator_per_role(self, workers):
        # Two full runs and a short one: the count role draws uniforms and
        # then binomials, the summand role normals.
        reps, drawn = 2 * RUN_SIZE + 17, {}

        def draw_counts(rng, size):
            return rng.random(size), rng.binomial(np.arange(size) % 50, 0.3)

        def draw_sums(rng, counts):
            return rng.standard_normal((counts[0].size, 3))

        def take(start, counts, sums):
            drawn[start] = (*counts, sums)

        montecarlo._run_blocks(draw_sums, draw_counts, reps, 61, workers, take)
        assert sorted(drawn) == [0, RUN_SIZE, 2 * RUN_SIZE]
        for start, (uniforms, binomials, normals) in drawn.items():
            size = min(RUN_SIZE, reps - start)
            count_rng, sum_rng = (np.random.default_rng(np.random.SeedSequence(
                [61, start // RUN_SIZE, role])) for role in (0, 1))
            assert np.array_equal(uniforms, count_rng.random(size))
            assert np.array_equal(binomials,
                                  count_rng.binomial(np.arange(size) % 50, 0.3))
            assert np.array_equal(normals, sum_rng.standard_normal((size, 3)))

    # RUN_SIZE + 1 reps end in a run of one row, whose Gaussian sum is a
    # one-row product here and in the oracle alike.
    @pytest.mark.parametrize("reps", RUN_REPS)
    @pytest.mark.parametrize("route", SUM_ROUTES)
    def test_simulation_is_the_blockwise_draws(self, route, reps):
        law, counting_law, n, _, _ = SUM_ROUTES[route]
        mx, mn = law(), counting_law()
        expected = blockwise_draws(mx, mn, n, reps, 62)
        for workers in (1, 2, 3):
            drawn = simulate_compound(mx, mn, n, reps, 62, workers=workers)
            assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))

    @pytest.mark.parametrize("reps", RUN_REPS)
    @pytest.mark.parametrize("method", ["plain", "tilted"])
    @pytest.mark.parametrize("route", ESTIMATE_ROUTES)
    def test_estimates_do_not_depend_on_the_workers(self, route, method, reps):
        law, counting_law, n, level = ESTIMATE_ROUTES[route]
        mx, mn = law(), counting_law()
        event = HalfSpaceEvent([1.0, 1.0], 0.0, level)
        serial, *parallel = [
            (estimate.value, estimate.std_error, estimate.degenerate)
            for estimate in (estimate_event_prob(
                mx, mn, n, event, reps=reps, method=method, seed=63,
                workers=workers) for workers in (1, 2, 3))]
        assert all(estimate == serial for estimate in parallel)

    @pytest.mark.parametrize("reps", RUN_REPS[1:])
    @pytest.mark.parametrize("route", SUM_ROUTES)
    def test_checks_do_not_depend_on_the_workers(self, route, reps):
        law, counting_law, n, u, v = SUM_ROUTES[route]
        mx, mn = law(), counting_law()
        for check, args in ((moment_limits_check, (u, v)), (clt_regime_check, (v,))):
            serial, *parallel = [check(mx, mn, n, reps, *args, seed=64, workers=workers)
                                 for workers in (1, 2, 3)]
            assert all(result == serial for result in parallel)

    @pytest.mark.parametrize("reps, runs", [
        (RUN_REPS[-1], [17, RUN_SIZE, RUN_SIZE]),
        (RUN_SIZE + 1, [1, RUN_SIZE]),
    ])
    def test_counts_are_drawn_once_per_run(self, monkeypatch, reps, runs):
        mn, sizes = unit_poisson(), []
        draw = CountLaw.draw
        monkeypatch.setattr(CountLaw, "draw", lambda law, rng, reps: (
            sizes.append(reps) or draw(law, rng, reps)))
        simulate_compound(pm_one_summand(), mn, 30, reps, seed=65, workers=2)
        assert sorted(sizes) == runs


# Every counting kind with a finite-n law, and how to build it afresh.
FINITE_N_FACTORIES = {
    "poisson": lambda: PoissonCounting(1.3),
    "fractional": lambda: FractionalPoissonCounting(0.7, 1.0),
    "iid-sum": lambda: IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]),
    "bernoulli": lambda: BernoulliSumCounting(p=0.35),
    "bernoulli-runs": lambda: BernoulliSumCounting.runs(1.0, 1.0),
    "renewal": lambda: RenewalCounting(GammaInterarrival(2.0, 1.0)),
    "renewal-lattice": lattice_renewal,
}
FINITE_N_KINDS = {kind: build() for kind, build in FINITE_N_FACTORIES.items()}


class TestModelsKeepNoTables:
    """A counting model holds its construction fields and ``cumulant`` and
    nothing else: each finite-n member, and each caller, builds its own
    ``CountLaw``, whose cgf is the model's ``finite_cgf`` bit for bit."""

    n, mx, event = 12, pm_one_summand(), HalfSpaceEvent([1.0], 0.0, 0.5)

    def calls(self, mn):
        """Every finite-n member and every caller that reads a count law, as
        (name, call, the tables it builds)."""
        mx, n, event = self.mx, self.n, self.event
        checks = 1 if type(mn) is PoissonCounting else 2  # Poisson's mean is closed
        return [
            ("exact_pmf", lambda: mn.exact_pmf(n), 1),
            ("finite_cgf", lambda: mn.finite_cgf(n, 0.3), None),
            ("mean", lambda: mn.mean(n), None),
            ("var", lambda: mn.var(n), 1),
            ("count_law", lambda: mn.count_law(n, -0.2), 1),
            ("plain", lambda: estimate_event_prob(mx, mn, n, event, reps=200,
                                                  seed=1), 1),
            ("tilted", lambda: estimate_event_prob(mx, mn, n, event, reps=200,
                                                   method="tilted", seed=1), 1),
            ("moments", lambda: moment_limits_check(mx, mn, n, 50, [1.0], [1.0],
                                                    seed=2), checks),
            ("clt", lambda: clt_regime_check(mx, mn, n, 50, [1.0], seed=3), checks),
            ("md-sweep", lambda: md_scaling_sweep(mn, [n ** -0.5], [0.5, 1.0], [n]),
             None),
            ("enumerate", lambda: enumerate_exact(mx, mn, n, event), 1),
        ]

    @pytest.mark.parametrize("kind", FINITE_N_KINDS)
    def test_no_call_leaves_anything_in_the_model(self, kind):
        mn = FINITE_N_FACTORIES[kind]()
        fields = set(vars(mn)) | {"cumulant"}
        for name, call, _ in self.calls(mn):
            call()
            assert set(vars(mn)) <= fields, name

    @pytest.mark.parametrize("kind", FINITE_N_KINDS)
    def test_each_call_builds_its_tables_once(self, kind, monkeypatch):
        mn, built = FINITE_N_FACTORIES[kind](), []
        tilted_table = mn._tilted_table
        monkeypatch.setattr(mn, "_tilted_table", lambda n, s: (
            built.append(s) or tilted_table(n, s)))
        for name, call, builds in self.calls(mn):
            built.clear()
            call()
            if builds is not None:
                assert len(built) == builds, name

    @pytest.mark.parametrize("kind", FINITE_N_KINDS)
    def test_law_cgf_is_finite_cgf_bit_for_bit(self, kind):
        mn = FINITE_N_KINDS[kind]
        for n in (1, 7, 30):
            for s in (-1.0, -0.3, 0.0, 0.2, 0.9):
                assert mn.count_law(n, s).cgf == mn.finite_cgf(n, s), (n, s)


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
