"""Tests for conjugate optimization and the rate-function layer.

The reference values here come from two kinds of oracle: closed forms
worked out by hand (Poisson count rates, Gaussian quadratic conjugates,
relative-entropy vertex values) and a golden-section maximizer run on the
one-dimensional conjugate objective. Where the package exposes two routes
to the same number (explicit case split vs. joint maximization) both
routes are compared directly, on fixed grids and on seeded random small
models. The moderate-deviation rates have one route in the package; the
oracles ``md_conjugate`` (the solver on their quadratic) and
``md_quadratic_by_mixture`` (the finite-support form over atom
coefficients) give the second.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_deviations import experiments, variational
from compound_deviations.config import build_models, format_cell, normalize_config
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
from compound_deviations.dualpair import CovarianceOperator
from compound_deviations.errors import (
    DimensionMismatchError,
    InconclusiveOptimizationError,
    ValidationError,
)
from compound_deviations.montecarlo import moment_limits_check
from compound_deviations.summands import (
    FiniteSupportSummands,
    GaussianSummands,
    grid_finite_support,
    grid_gaussian,
)
from compound_deviations.variational import (
    GRADIENT_TOLERANCE,
    Cumulant,
    LegendreResult,
    count_rate,
    joint_cumulant,
    legendre_transform,
    pair_covariance,
    probe_convexity,
    psi_sn,
    psi_sn_mean_shifted,
    rate_ld_explicit,
    rate_ld_variational,
    rate_md_centered_sum,
    rate_md_centered_summands,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def moment_rows(mx, mn, n, u, v):
    """The moment check's rows by name, from a few draws: their reference
    (exact at n) and limit columns are the pair's moments in (u, v)."""
    result = moment_limits_check(mx, mn, n, reps=16, u=u, v=v, seed=7)
    return {r.name: r for r in result.rows}


def golden_section_max(g, lo, hi, tol=1e-12):
    """Maximum of a unimodal g on [lo, hi] by golden-section search.

    Near the maximum the objective is flat to second order, so an interval
    of width tol localizes the value itself far more tightly than tol.
    """
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + GOLDEN * (b - a)
            gd = g(d)
    mid = 0.5 * (a + b)
    return mid, g(mid)


def poisson_count_rate(y, lam=1.0):
    # sup_eta y*eta - lam*(e^eta - 1), attained at eta = log(y/lam).
    if y < 0:
        return math.inf
    if y == 0:
        return lam
    return y * math.log(y / lam) - y + lam


def unit_hessian(t):
    return np.eye(t.size)


def zero_hessian(t):
    return np.zeros((t.size, t.size))


def exp_minus_one():
    """f(t) = e^t - 1 with its gradient and Hessian: the unit Poisson
    count cumulant."""
    return Cumulant(
        lambda t: math.exp(float(t[0])) - 1.0,
        lambda t: np.array([math.exp(float(t[0]))]),
        lambda t: np.array([[math.exp(float(t[0]))]]),
        1,
    )


def half_square(dim):
    """f(t) = |t|^2 / 2 on R^dim."""
    return Cumulant(lambda t: 0.5 * float(t @ t), lambda t: t, unit_hessian, dim)


def pm_one_summand():
    return FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])


def unit_poisson():
    return PoissonCounting(1.0)


def md_conjugate(mx, mn, x, y, centered_sum=False):
    """Oracle for the moderate-deviation rates: ``legendre_transform`` of
    <p, C p>/2 at (x, y), with C = C0, or C1 for a centred sum, from
    ``pair_covariance``."""
    d = mn.derivs_at_zero()
    c = pair_covariance(mx.cov().matrix, mx.mean(), d.mean_rate,
                        d.variance_rate, centered_sum)
    quadratic = Cumulant(lambda p: 0.5 * float(p @ c @ p), lambda p: c @ p,
                         lambda p: c, c.shape[0])
    return legendre_transform(quadratic, np.append(x, y))


def md_quadratic_by_mixture(mx, mn, x):
    """Oracle for the finite-support centred-summand rate at y = 0: the c
    with sum c_i u_i = x and sum c_i = 0, by least squares, gives
    sum c_i^2 / p_i / (2 d1); +inf off the span of the atom differences."""
    system = np.vstack([mx.atoms.T, np.ones(mx.atom_count)])
    rhs = np.append(x, 0.0)
    c = np.linalg.lstsq(system, rhs, rcond=None)[0]
    if np.linalg.norm(system @ c - rhs) > 1e-8 * (1.0 + np.linalg.norm(x)):
        return math.inf
    return float(np.sum(c * c / mx.probs)) / (2.0 * mn.derivs_at_zero().mean_rate)


class TestLegendreTransform:
    def test_quadratic_at_origin(self):
        result = legendre_transform(half_square(1), [0.0])
        assert isinstance(result, LegendreResult)
        assert float(result.value) == 0.0
        assert_allclose(result.argmax, [0.0], atol=1e-12)
        assert not result.unbounded

    def test_objective_undefined_at_the_origin_is_typed(self):
        cumulant = Cumulant(lambda t: math.inf, lambda t: 0.0 * t, zero_hessian, 1)
        with pytest.raises(ValidationError, match="objective is undefined at the origin"):
            legendre_transform(cumulant, [0.5])

    def test_quadratic_conjugate_is_quadratic(self):
        # sup <t,z> - |t|^2/2 = |z|^2/2 at t = z.
        for z in [-3.0, -0.4, 0.7, 2.5]:
            result = legendre_transform(half_square(1), [z])
            assert_allclose(float(result.value), 0.5 * z * z, atol=1e-10)
            assert_allclose(result.argmax, [z], atol=1e-8)

    def test_anisotropic_quadratic_with_hessian(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(t):
            return 0.5 * float(t @ a @ t)

        def grad(t):
            return a @ t

        z = np.array([1.2, -0.7])
        result = legendre_transform(Cumulant(f, grad, lambda t: a, 2), z)
        expected_point = np.linalg.solve(a, z)
        assert_allclose(float(result.value), 0.5 * float(z @ expected_point),
                        atol=1e-10)
        assert_allclose(result.argmax, expected_point, atol=1e-8)
        assert result.gradient_norm < GRADIENT_TOLERANCE

    def test_linear_function_at_its_slope(self):
        # f(t) = <c, t> has conjugate 0 at z = c; the origin already solves it.
        c = np.array([0.4, -1.1])
        result = legendre_transform(
            Cumulant(lambda t: float(c @ t), lambda t: c, zero_hessian, 2), c
        )
        assert float(result.value) == 0.0
        assert result.iterations == 0

    def test_unbounded_direction_detected(self):
        # y*eta - (e^eta - 1) grows without bound as eta -> -inf when y < 0.
        result = legendre_transform(exp_minus_one(), [-0.5])
        assert result.unbounded
        assert result.value == math.inf
        assert result.argmax is None

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ValidationError):
            legendre_transform(half_square(1), [math.inf])

    def test_target_of_the_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            legendre_transform(half_square(2), [0.5])

    def test_iteration_limit_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(variational, "MAX_ITERATIONS", 1)
        with pytest.raises(InconclusiveOptimizationError) as excinfo:
            legendre_transform(exp_minus_one(), [4.0])
        err = excinfo.value
        assert err.iterations == 1
        assert err.best_value is not None and math.isfinite(err.best_value)
        assert err.gradient_norm > 0.0

    def test_newton_polish_reaches_tight_tolerance(self):
        # Newton converges quadratically: the conjugate of e^t - 1 at 2 is
        # reached to rounding within a handful of steps.
        result = legendre_transform(exp_minus_one(), [2.0])
        assert result.iterations < 10
        assert_allclose(float(result.value), 2.0 * math.log(2.0) - 1.0,
                        rtol=1e-14)
        assert_allclose(result.argmax, [math.log(2.0)], rtol=1e-12)


def signed_magnitudes(rng, size):
    """Floats of random sign, spread evenly in log scale over 1e-300..1e300."""
    signs = rng.choice([-1.0, 1.0], size)
    return (signs * 10.0 ** rng.uniform(-300.0, 300.0, size)).tolist()


def solve_outcome(cumulant, z):
    """Everything a solve reports, in bits: its result, or what its
    inconclusive error carries."""
    try:
        r = legendre_transform(cumulant, [z])
    except InconclusiveOptimizationError as err:
        return ("inconclusive", float(err.best_value).hex(),
                err.best_point.tobytes(), err.iterations,
                float(err.gradient_norm).hex())
    return (float(r.value).hex(), None if r.argmax is None else r.argmax.tobytes(),
            r.iterations, float(r.gradient_norm).hex(), r.unbounded)


class TestOneCoordinateRoute:
    """A one-coordinate solve runs the Newton loop on Python floats. The
    numpy and LAPACK arithmetic on length-1 arrays that it copies is pinned
    here, so an upgrade that changes it fails loudly instead of moving
    tables, and the array route is the reference it must match."""

    def test_length_one_numpy_arithmetic_is_float_arithmetic(self):
        rng = np.random.default_rng(20261020)
        gs, hs = signed_magnitudes(rng, 20_000), signed_magnitudes(rng, 20_000)
        pairs = list(zip(gs, hs))
        solved = [float(np.linalg.solve([[h]], [g])[0]).hex() for g, h in pairs]
        assert solved == [(g / h).hex() for g, h in pairs]
        with np.errstate(over="ignore"):  # g * g past the float range
            norms = [float(np.linalg.norm([g])).hex() for g in gs]
            # A length-1 matmul sums its product from +0.0, so -0.0 is 0.0.
            pairs += [(-1.0, 0.0), (0.0, -1.0), (-0.0, -0.0), (-0.0, 1.0)]
            products = [float(np.array([g]) @ np.array([h])).hex() for g, h in pairs]
        assert norms == [math.sqrt(g * g).hex() for g in gs]
        assert products == [(g * h + 0.0).hex() for g, h in pairs]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve([[-0.0]], [1.0])

    @pytest.mark.parametrize("cumulant", [
        PoissonCounting(1.0).cumulant,
        PoissonCounting(3.0).cumulant,
        FractionalPoissonCounting(0.7, 1.0).cumulant,
        IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]).cumulant,
        BernoulliSumCounting(p=0.4).cumulant,
        BernoulliSumCounting.runs(1.0, 2.0).cumulant,
        RenewalCounting(ExponentialInterarrival(1.0)).cumulant,
        RenewalCounting(GammaInterarrival(2.0, 1.0)).cumulant,
        RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5])).cumulant,
        FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5]).cumulant,
        FiniteSupportSummands([[-2.0], [0.5], [3.0]], [0.2, 0.5, 0.3]).cumulant,
        exp_minus_one(),
    ], ids=["poisson", "poisson-3", "fractional", "iid-sum", "bernoulli", "runs",
            "renewal-exponential", "renewal-gamma", "renewal-lattice", "pm",
            "three-atoms", "exp-minus-one"])
    def test_every_solve_matches_the_array_route(self, monkeypatch, cumulant):
        targets = [-0.0, 1e-300, 1e-10, 1e100, 1e200] + [
            float(z) for z in np.linspace(-3.0, 5.0, 33)]
        floats = [solve_outcome(cumulant, z) for z in targets]
        monkeypatch.setattr(variational, "_FLOATS", variational._Arrays(1))
        with np.errstate(over="ignore"):  # the array route squares 1e200
            arrays = [solve_outcome(cumulant, z) for z in targets]
        assert floats == arrays


class TestCumulant:
    def test_concave_input_rejected(self):
        with pytest.raises(ValidationError):
            Cumulant(
                lambda t: -float(t @ t), lambda t: -2.0 * t,
                lambda t: -2.0 * unit_hessian(t), 1,
            )

    def test_models_build_their_cumulant_once(self):
        mn, mx = unit_poisson(), pm_one_summand()
        assert mn.cumulant is mn.cumulant and mx.cumulant is mx.cumulant
        point = np.array([0.3])
        assert mn.cumulant.f(point) == mn.limit_cgf(0.3)
        assert_allclose(mn.cumulant.hess(point), [[mn.limit_cgf_second(0.3)]])
        assert mx.cumulant.f(point) == mx.cgf(point)
        assert (mn.cumulant.dim, mx.cumulant.dim) == (1, 1)


class TestProbeConvexity:
    def test_accepts_convex_functions(self):
        assert probe_convexity(lambda t: float(t @ t), 2)
        assert probe_convexity(lambda t: float(np.abs(t).sum()), 3)

    def test_rejects_concave_function(self):
        assert not probe_convexity(lambda t: -float(t @ t), 1)
        assert not probe_convexity(lambda t: -float(t @ t), 2)

    def test_partial_domain_passes_vacuously(self):
        def partial(t):
            if float(np.linalg.norm(t)) > 0.1:
                raise ValidationError("outside domain")
            return float(t @ t)

        assert probe_convexity(partial, 2)

    def test_violation_within_slack_tolerated(self):
        assert probe_convexity(lambda t: -1e-12 * float(t @ t), 1)


class TestCountRate:
    def test_matches_golden_section_oracle(self):
        mn = unit_poisson()
        for y in [0.25, 0.5, 1.0, 2.0, 4.0]:
            _, oracle = golden_section_max(
                lambda eta: y * eta - (math.exp(eta) - 1.0), -20.0, 20.0
            )
            result = count_rate(mn, y)
            assert_allclose(float(result.value), oracle, atol=1e-10)
            assert_allclose(float(result.value), poisson_count_rate(y),
                            atol=1e-10)

    def test_value_at_two(self):
        result = count_rate(unit_poisson(), 2.0)
        assert_allclose(float(result.value), 0.3862943611198906, atol=1e-12)
        assert_allclose(result.argmax, [math.log(2.0)], atol=1e-7)

    def test_zero_at_limiting_mean_rate(self):
        models = [
            unit_poisson(),
            PoissonCounting(3.5),
            IidSumCounting([0, 1, 3], [0.2, 0.5, 0.3]),
        ]
        for mn in models:
            d1 = mn.derivs_at_zero().mean_rate
            result = count_rate(mn, d1)
            assert_allclose(float(result.value), 0.0, atol=1e-12)

    def test_negative_target_is_infinite(self):
        result = count_rate(unit_poisson(), -0.5)
        assert result.unbounded
        assert result.value == math.inf

    @pytest.mark.parametrize("y", [1e9, 1e12])
    def test_large_target_stops_on_the_newton_decrement(self, y):
        # At the maximizer g = y - e^eta cannot resolve below ~1e-16 y, far
        # above the gradient tolerance; the Newton decrement still stops.
        result = count_rate(unit_poisson(), y)
        assert_allclose(float(result.value), poisson_count_rate(y), rtol=1e-14)

    @pytest.mark.parametrize("law", [GammaInterarrival(2.0, 1.0),
                                     ExponentialInterarrival(1.0)],
                             ids=["gamma", "exponential"])
    def test_renewal_left_tail_is_infinite(self, law):
        # L_N(eta) -> -rate as eta -> -inf, with slope and curvature
        # vanishing once kappa^{-1} reaches the edge of its domain.
        result = count_rate(RenewalCounting(law), -0.5)
        assert result.unbounded
        assert result.value == math.inf

    def test_gamma_renewal_curvature_past_the_float_range_is_a_rejected_step(self):
        # Far to the right kappa'(r)^3 underflows to 0 in the renewal
        # curvature kappa''/kappa'^3: an OverflowError, which the solver
        # rejects as a step, so a target past its reach is inconclusive, not
        # a ZeroDivisionError; a target below it keeps its value.
        mn = RenewalCounting(GammaInterarrival(2.0, 1.0))
        assert mn.limit_cgf_second(400.0) == 1.8064934420314372e+86
        with pytest.raises(OverflowError, match="underflows"):
            mn.limit_cgf_second(600.0)
        assert count_rate(mn, 1e100).value == 4.599033129599291e+102
        with pytest.raises(InconclusiveOptimizationError):
            count_rate(mn, 1e200)

    def test_lattice_renewal_count_rate_at_its_reach(self):
        # Inter-arrivals 1 or 2 give 1/2 <= N_n / n <= 1; N_n = n only when
        # every inter-arrival is 1, so the rate there is -log P(X = 1).
        mn = lattice_renewal()
        assert_allclose(float(count_rate(mn, 1.0).value), math.log(2.0), atol=1e-8)
        for y in (0.4, 1.1):
            assert count_rate(mn, y).value == math.inf

    def test_bernoulli_above_the_largest_count_rate_is_infinite(self):
        # The count never exceeds n, so every y > 1 is unreachable.
        for y in [1.2, 2.0]:
            assert count_rate(BernoulliSumCounting(p=0.5), y).value == math.inf

    def test_runs_profile_with_tiny_success_probabilities(self):
        # p(x) = e^{-50 x}: the maximizer at y = 0.8 sits near eta = 40,
        # where e^eta p(x) spans e^{40} down to e^{-10} over [0, 1].
        mn = BernoulliSumCounting.runs(10.0, 5.0)
        _, oracle = golden_section_max(
            lambda eta: 0.8 * eta - mn.limit_cgf(eta), 0.0, 100.0, tol=1e-9
        )
        result = count_rate(mn, 0.8)
        assert 35.0 < float(result.argmax[0]) < 45.0
        assert_allclose(float(result.value), oracle, rtol=1e-12)

    def test_zero_target_converges_to_left_tail_limit(self):
        # sup -Lambda(eta) over eta = -Lambda(-inf); the gradient decays to
        # zero along the descent so the optimizer converges rather than
        # declaring divergence.
        result = count_rate(unit_poisson(), 0.0)
        assert_allclose(float(result.value), 1.0, atol=1e-7)

        with_zero_step = IidSumCounting([0, 1], [0.5, 0.5])
        result = count_rate(with_zero_step, 0.0)
        assert_allclose(float(result.value), math.log(2.0), atol=1e-7)

    def test_nonnegative_on_grid(self):
        mn = PoissonCounting(2.0)
        for y in np.linspace(0.1, 6.0, 13):
            assert float(count_rate(mn, float(y)).value) >= -1e-12

    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValidationError):
            count_rate(unit_poisson(), math.nan)

    # (model factory, y): finite solves and +inf verdicts, one of each kind
    # below zero and Bernoulli counts above their largest rate.
    MEMO_CASES = [
        (unit_poisson, 2.0), (unit_poisson, 0.0), (unit_poisson, -0.5),
        (lambda: FractionalPoissonCounting(0.7, 1.0), 0.6),
        (lambda: FractionalPoissonCounting(0.7, 1.0), -0.5),
        (lambda: IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]), -0.5),
        (lambda: BernoulliSumCounting(p=0.5), 0.3),
        (lambda: BernoulliSumCounting(p=0.5), 1.5),
        (lambda: BernoulliSumCounting(p=0.5), -0.5),
        (lambda: RenewalCounting(GammaInterarrival(2.0, 1.0)), 0.4),
        (lambda: RenewalCounting(GammaInterarrival(2.0, 1.0)), -0.5),
    ]

    @pytest.mark.parametrize("make, y", MEMO_CASES, ids=[
        "poisson-2", "poisson-0", "poisson-neg", "fractional-0.6",
        "fractional-neg", "iid-sum-neg", "bernoulli-0.3", "bernoulli-1.5",
        "bernoulli-neg", "renewal-0.4", "renewal-neg",
    ])
    def test_memoised_rate_is_a_fresh_models_bit_for_bit(self, make, y):
        mn = make()
        first = count_rate(mn, y)
        for again in (count_rate(mn, y), count_rate(make(), y)):
            assert first.value.hex() == again.value.hex()
            assert (first.iterations, first.unbounded) == (again.iterations, again.unbounded)
            assert first.gradient_norm.hex() == again.gradient_norm.hex()
            if again.argmax is None:
                assert first.argmax is None and first.value == math.inf
            else:
                assert first.argmax.tobytes() == again.argmax.tobytes()

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_nonfinite_y_is_refused_before_anything_is_stored(self, y):
        mn = unit_poisson()
        with pytest.raises(ValidationError):
            count_rate(mn, y)
        assert not vars(mn).get("_rates")

    def test_models_never_share_entries(self):
        a, b, c = unit_poisson(), unit_poisson(), PoissonCounting(2.0)
        ra, rb, rc = (count_rate(mn, 2.0) for mn in (a, b, c))
        assert ra.value == rb.value
        assert_allclose(rc.value, poisson_count_rate(2.0, lam=2.0), atol=1e-12)

    def test_rates_store_nothing_in_the_model(self, tmp_path, monkeypatch):
        # The one entry a rate leaves in a counting model is its own
        # cached cumulant, from count_rate and from a whole rate-eval run.
        mn = unit_poisson()
        count_rate(mn, 2.0)
        count_rate(mn, 2.0)
        assert set(vars(mn)) - set(vars(unit_poisson())) == {"cumulant"}

        built = []

        def recording(config):
            built.append(build_models(config))
            return built[-1]

        monkeypatch.setattr(experiments, "build_models", recording)
        config = normalize_config({
            "summand": {"kind": "finite_support", "atoms": [1.0, -1.0],
                        "probs": [0.5, 0.5]},
            "counting": {"kind": "poisson", "rate": 1.0},
            "experiment": {"kind": "rate-eval", "x_values": [-0.5, 0.0, 0.5],
                           "y_values": [0.5, 1.0, 0.5]},
        })
        code, _ = experiments.run_experiment(config, out_dir=str(tmp_path))
        assert code == 0
        run_mn = built[0][1]
        fresh = build_models(config)[1]
        assert set(vars(run_mn)) - set(vars(fresh)) == {"cumulant"}


class TestJointCgf:
    def test_zero_at_origin(self):
        f = joint_cumulant(pm_one_summand(), unit_poisson())[0]
        assert f(np.zeros(2)) == 0.0

    def test_symmetric_two_point_composition(self):
        # Unit-rate count composed with a +/-1 summand: log cosh enters the
        # exponent, giving cosh(t) - 1 along the summand axis.
        f = joint_cumulant(pm_one_summand(), unit_poisson())[0]
        for t in [-2.0, -0.5, 0.3, 1.7]:
            assert_allclose(f(np.array([t, 0.0])), math.cosh(t) - 1.0, rtol=1e-12)

    def test_count_axis_reduces_to_count_cgf(self):
        mx = GaussianSummands([0.2], [[1.5]])
        mn = IidSumCounting([1, 2], [0.25, 0.75])
        f = joint_cumulant(mx, mn)[0]
        for s in [-3.0, -0.1, 0.9, 2.0]:
            assert_allclose(f(np.array([0.0, s])), mn.limit_cgf(s), rtol=1e-12)

    @pytest.mark.parametrize("mn", [
        PoissonCounting(1.3),
        FractionalPoissonCounting(0.7, 1.0),
        IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]),
        BernoulliSumCounting(p=0.4),
        BernoulliSumCounting.runs(1.0, 1.0),
        RenewalCounting(GammaInterarrival(2.0, 1.0)),
    ], ids=["poisson", "fractional", "iid-sum", "bernoulli", "bernoulli-runs",
            "renewal"])
    def test_joint_cumulant_derivatives_match_central_differences(self, mn):
        laws = (
            FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                  [0.3, 0.3, 0.4]),
            GaussianSummands([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
        )
        h = 1e-5
        steps = np.eye(3) * h
        for mx in laws:
            f, grad, hess = joint_cumulant(mx, mn)
            for point in (np.array([0.3, -0.2, 0.4]), np.array([-0.5, 0.1, -0.7])):
                fd_grad = [(f(point + e) - f(point - e)) / (2 * h) for e in steps]
                fd_hess = [(grad(point + e) - grad(point - e)) / (2 * h)
                           for e in steps]
                assert_allclose(grad(point), fd_grad, rtol=1e-6, atol=1e-8)
                assert_allclose(hess(point), fd_hess, rtol=1e-6, atol=1e-8)


class TestRateLdExplicit:
    def test_rates_are_plain_floats(self):
        mx, mn = pm_one_summand(), unit_poisson()
        values = [
            rate_ld_explicit(mx, mn, [0.3], 1.0),
            rate_ld_explicit(mx, mn, [0.3], -1.0),
            rate_ld_explicit(mx, mn, [0.0], 0.0),
            rate_ld_variational(mx, mn, [0.3], 1.0).value,
            count_rate(mn, -1.0).value,
            rate_md_centered_summands(mx, mn, [0.3], 1.0),
            rate_md_centered_sum(mx, mn, [0.3], 1.0),
            mn.derivs_at_zero().cgf_at_minus_inf,
        ]
        assert all(type(value) is float for value in values)
        assert values[1] == values[4] == math.inf

    def test_zero_at_limit_point(self):
        mx = GaussianSummands([0.5], [[1.0]])
        mn = unit_poisson()
        value = rate_ld_explicit(mx, mn, [0.5], 1.0)
        assert_allclose(float(value), 0.0, atol=1e-10)

    def test_count_event_rate_with_centered_summand(self):
        # x/y = 0 sits at the summand mean, so only the count part remains.
        value = rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.0], 2.0)
        assert_allclose(float(value), 2.0 * math.log(2.0) - 1.0, atol=1e-10)

    def test_vertex_with_unit_count_mean(self):
        mx = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        value = rate_ld_explicit(mx, unit_poisson(), [1.0, 0.0], 1.0)
        assert_allclose(float(value), math.log(2.0), atol=1e-10)

    def test_origin_value_is_left_tail_limit(self):
        assert_allclose(
            float(rate_ld_explicit(pm_one_summand(), unit_poisson(),
                                   [0.0], 0.0)),
            1.0,
            rtol=1e-12,
        )
        with_zero_step = IidSumCounting([0, 2], [0.5, 0.5])
        assert_allclose(
            float(rate_ld_explicit(pm_one_summand(), with_zero_step,
                                   [0.0], 0.0)),
            math.log(2.0),
            rtol=1e-12,
        )

    def test_origin_ball_is_checked_before_positivity(self):
        value = rate_ld_explicit(
            pm_one_summand(), unit_poisson(), [5e-11], 5e-11
        )
        assert_allclose(float(value), 1.0, rtol=1e-12)

    def test_nonzero_x_with_zero_y_is_infinite(self):
        value = rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.3], 0.0)
        assert value == math.inf

    def test_negative_y_is_infinite(self):
        value = rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.0], -1.0)
        assert value == math.inf

    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValidationError):
            rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.0],
                             math.inf)

    @pytest.mark.parametrize("mx", [
        pm_one_summand(),
        GaussianSummands([0.2], [[1.0]]),
        FiniteSupportSummands([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25]),
    ], ids=["pm-one", "gaussian", "no-closed-form"])
    def test_ratio_past_the_float_range_is_an_infinite_rate(self, mx):
        # At the least positive y, x / y = 0.5 / 5e-324 overflows; every
        # conjugate grows without bound, so the rate is +inf, with no
        # warning, while x = 0 keeps the count part, about 1 for Poisson(1).
        mn = unit_poisson()
        assert rate_ld_explicit(mx, mn, [0.5], 5e-324) == math.inf
        assert rate_ld_explicit(mx, mn, [0.0], 5e-324) == 1.0
        rates = rate_ld_explicit(mx, mn, [[-0.5], [0.0], [0.5]],
                                 [5e-324, 5e-324, 1.0])
        assert rates[:2].tolist() == [math.inf, 1.0]
        assert rates[2] == rate_ld_explicit(mx, mn, [0.5], 1.0)

    @pytest.mark.parametrize("mx", [
        pm_one_summand(), GaussianSummands([0.2], [[1.0]]),
    ], ids=["pm-one", "gaussian"])
    def test_huge_finite_ratio_is_an_infinite_rate(self, mx):
        # x / y = 5e299 is finite, but its squared norm is not.
        assert rate_ld_explicit(mx, unit_poisson(), [0.5], 1e-300) == math.inf

    @pytest.mark.parametrize("x, value", [
        ((1e200, -1e200), math.inf),
        ((1e160, -1e160), math.inf),
        ((1e100, -1e100), math.inf),
        ((1e150, 1e150), 4.999999999999999e+299),
        ((1e200, 1e200), math.inf),
    ])
    def test_rank_one_gaussian_past_the_float_range(self, x, value):
        # The image is the span of (1, 1). Off it every rate is +inf, however
        # large the point; on it the conjugate |x|^2 / 4 may pass the float
        # range, which is +inf too.
        mx = GaussianSummands([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        mn = unit_poisson()
        assert mx.conjugate_closed_form(x) == value
        assert rate_md_centered_summands(mx, mn, x, 1.0) == value
        assert rate_ld_explicit(mx, mn, x, 1.0) == value
        assert (mx.cov().solve(x) is None) == (x[0] != x[1])

    def test_point_off_a_segment_past_the_float_range(self):
        # The atoms (0, 0) and (1, 0) span a segment of the first axis.
        mx = FiniteSupportSummands([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        assert mx.conjugate_closed_form([0.5, 1e160]) == math.inf
        assert mx.conjugate_closed_form([0.5, 0.0]) == 0.0


class TestRateLdVariational:
    def test_zero_at_limit_point(self):
        mx = GaussianSummands([0.5], [[1.0]])
        result = rate_ld_variational(mx, unit_poisson(), [0.5], 1.0)
        assert_allclose(float(result.value), 0.0, atol=1e-10)

    def test_count_event_value(self):
        result = rate_ld_variational(pm_one_summand(), unit_poisson(),
                                     [0.0], 2.0)
        assert_allclose(float(result.value), 2.0 * math.log(2.0) - 1.0,
                        atol=1e-8)

    def test_negative_y_unbounded(self):
        result = rate_ld_variational(pm_one_summand(), unit_poisson(),
                                     [0.0], -1.0)
        assert result.unbounded
        assert result.value == math.inf

    def test_agrees_with_explicit_split_on_grid(self):
        mx = GaussianSummands([0.3], [[0.8]])
        mn = PoissonCounting(1.5)
        for x in [-0.4, 0.2, 0.9]:
            for y in [0.5, 1.5, 2.5]:
                explicit = rate_ld_explicit(mx, mn, [x], y)
                joint = rate_ld_variational(mx, mn, [x], y)
                assert_allclose(float(joint.value), float(explicit),
                                atol=1e-7)


class TestPsiQuadratics:
    def test_zero_at_origin(self):
        assert psi_sn(pm_one_summand(), unit_poisson(), [0.0], 0.0) == 0.0

    def test_unit_plugin_values(self):
        value = psi_sn(pm_one_summand(), unit_poisson(), [1.0], 1.0)
        assert_allclose(value, 1.0, rtol=1e-12)

    def test_count_axis_scales_with_variance_rate(self):
        value = psi_sn(pm_one_summand(), PoissonCounting(3.0), [0.0], 2.0)
        assert_allclose(value, 6.0, rtol=1e-12)

    def test_mean_shift_moves_the_count_slot(self):
        mx = GaussianSummands([0.7, -0.2], [[1.0, 0.3], [0.3, 2.0]])
        mn = PoissonCounting(1.8)
        rng = np.random.default_rng(20240917)
        mu = mx.mean()
        for _ in range(10):
            theta = rng.normal(size=2)
            eta = float(rng.normal())
            shifted = psi_sn_mean_shifted(mx, mn, theta, eta)
            direct = psi_sn(mx, mn, theta, eta + float(theta @ mu))
            assert_allclose(shifted, direct, rtol=1e-12)

    @pytest.mark.parametrize("theta, eta", [
        ([math.nan], 0.0), ([0.5], math.nan), ([0.5], math.inf), ([0.5], -math.inf),
    ])
    def test_non_finite_arguments_raise(self, theta, eta):
        for psi in (psi_sn, psi_sn_mean_shifted):
            with pytest.raises(ValidationError):
                psi(pm_one_summand(), unit_poisson(), theta, eta)

    def test_limit_covariance_is_twice_the_shifted_quadratic(self):
        # Two independent code paths meet: the assembled limiting covariance
        # in direction (theta, theta) equals twice the mean-shifted quadratic
        # at (theta, 0).
        mx = FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])
        mn = PoissonCounting(1.3)
        for t in [-1.5, -0.2, 0.4, 2.0]:
            limit = moment_rows(mx, mn, 10, [t], [t])["cov_SS"].limit
            quad = psi_sn_mean_shifted(mx, mn, [t], 0.0)
            assert_allclose(limit, 2.0 * quad, rtol=1e-12)


class PoissonTwo(CountingModel):
    """A user kind with only the limit triple of Poisson(2)."""

    def limit_cgf(self, eta):
        return 2.0 * math.expm1(eta)

    def limit_cgf_deriv(self, eta):
        return 2.0 * math.exp(eta)

    def limit_cgf_second(self, eta):
        return 2.0 * math.exp(eta)


# Every counting kind and a user kind with its left tail L_N(-inf), pinned
# bit for bit: log p_0, log(1 - p), the runs preset's closed form
# log(1 - e^{-a}) - Li2(1 - e^{-a}) / a, -rate.
LEFT_TAILS = {
    "poisson": (lambda: PoissonCounting(1.3), -1.3),
    "fractional": (lambda: FractionalPoissonCounting(0.7, 1.0), -1.0),
    "iid-sum-with-zero": (lambda: IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3]),
                          -1.2039728043259361),
    "iid-sum-without-zero": (lambda: IidSumCounting([1, 2], [0.5, 0.5]), -math.inf),
    "iid-sum-zero-only": (lambda: IidSumCounting([0], [1.0]), 0.0),
    "bernoulli": (lambda: BernoulliSumCounting(p=0.4), -0.5108256237659907),
    "runs-1": (lambda: BernoulliSumCounting.runs(1.0, 1.0), -1.2361797794993301),
    "runs-0.01": (lambda: BernoulliSumCounting.runs(0.01, 1.0), -5.607668797099897),
    "gamma-renewal": (lambda: RenewalCounting(GammaInterarrival(2.0, 1.7)), -1.7),
    "exponential-renewal": (lambda: RenewalCounting(ExponentialInterarrival(2.0)),
                            -2.0),
    "lattice-renewal": (lambda: RenewalCounting(
        LatticeInterarrival([1, 2], [0.5, 0.5])), -math.inf),
    "user-kind": (PoissonTwo, -2.0),
}


class TestLeftTail:
    @pytest.mark.parametrize("build, tail", LEFT_TAILS.values(), ids=LEFT_TAILS)
    def test_limit_cgf_holds_at_both_infinities(self, build, tail):
        # derivs_at_zero and the origin of rate_ld_explicit read the left
        # tail off limit_cgf, which must hold at -inf and +inf unwarned.
        mn = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mn.limit_cgf(-math.inf) == tail
            assert mn.derivs_at_zero().cgf_at_minus_inf == tail
            assert rate_ld_explicit(pm_one_summand(), mn, [0.0], 0.0) == -tail
            # A left tail of 0 means N_n = 0 surely, and then L_N is 0 throughout.
            assert mn.limit_cgf(math.inf) == (0.0 if tail == 0.0 else math.inf)


class TestPairCovariance:
    def test_user_kind_gets_its_derivatives_from_its_triple(self):
        mn = PoissonTwo()
        assert mn.derivs_at_zero() == CountingDerivatives(2.0, 2.0, -2.0)
        mx = GaussianSummands([0.3, -0.7], [[1.0, 0.2], [0.2, 0.5]])
        for x, y in [([0.0, 0.0], 0.0), ([0.4, -1.1], 0.6), ([-2.0, 0.3], -1.5)]:
            assert rate_md_centered_summands(mx, mn, x, y) == (
                rate_md_centered_summands(mx, PoissonCounting(2.0), x, y))

    def test_both_centrings(self):
        rng = np.random.default_rng(20241018)
        for h in (1, 2, 3):
            root = rng.normal(size=(h, h))
            sigma, mu = root @ root.T, rng.normal(size=h)
            d1, d2 = rng.uniform(0.1, 3.0, size=2)
            c0 = pair_covariance(sigma, mu, d1, d2)
            c1 = pair_covariance(sigma, mu, d1, d2, centered_sum=True)
            assert_allclose(c0[:h, :h], d1 * sigma, rtol=1e-15)
            assert np.all(c0[:h, h] == 0.0) and c0[h, h] == d2
            # C1 = A^T C0 A with A = [[I, 0], [mu^T, 1]], and exactly symmetric.
            shift = np.eye(h + 1)
            shift[h, :h] = mu
            assert_allclose(c1, shift.T @ c0 @ shift, rtol=1e-13, atol=1e-14)
            assert np.array_equal(c1, c1.T)

    def test_every_reader_sees_the_same_matrix(self):
        mx = GaussianSummands([0.7, -0.2], [[1.0, 0.3], [0.3, 2.0]])
        mn = BernoulliSumCounting(p=0.35)
        d = mn.derivs_at_zero()
        args = (mx.cov().matrix, mx.mean(), d.mean_rate, d.variance_rate)
        c0 = pair_covariance(*args)
        c1 = pair_covariance(*args, centered_sum=True)
        p = np.array([0.4, -1.3, 0.8])
        assert_allclose(psi_sn(mx, mn, p[:2], p[2]), 0.5 * p @ c0 @ p, rtol=1e-14)
        assert_allclose(psi_sn_mean_shifted(mx, mn, p[:2], p[2]),
                        0.5 * p @ c1 @ p, rtol=1e-14)
        assert_allclose(rate_md_centered_summands(mx, mn, p[:2], p[2]),
                        0.5 * p @ np.linalg.solve(c0, p), rtol=1e-12)
        assert_allclose(rate_md_centered_sum(mx, mn, p[:2], p[2]),
                        0.5 * p @ np.linalg.solve(c1, p), rtol=1e-12)
        u, v = np.array([1.0, -0.5]), np.array([0.2, 0.8])
        rows = moment_rows(mx, mn, 10, u, v)
        assert_allclose(rows["cov_SS"].limit, u @ c1[:2, :2] @ v, rtol=1e-14)
        assert_allclose(rows["cov_NS"].limit, c1[2, :2] @ v, rtol=1e-14)
        assert rows["var_N"].limit == c1[2, 2]

    @pytest.mark.parametrize("scale", [1e11, 1e-11])
    def test_md_rates_solve_each_block_at_its_own_scale(self, scale):
        # Summand and count blocks of C0 a factor 1e11 apart: a single
        # spectral cutoff over the whole C0 would drop the smaller block.
        mx = GaussianSummands([2.0], [[scale]])
        mn = PoissonCounting(1.0)
        for x, y in [(0.0, 1.0), (1e-6, 0.0), (3.0 * scale, -0.5)]:
            expected = x * x / (2.0 * scale) + y * y / 2.0
            assert_allclose(rate_md_centered_summands(mx, mn, [x], y), expected,
                            rtol=1e-12)
            shifted = (x - 2.0 * y) ** 2 / (2.0 * scale) + y * y / 2.0
            assert_allclose(rate_md_centered_sum(mx, mn, [x], y), shifted,
                            rtol=1e-12)

    def test_roundoff_negative_summand_covariance_with_large_d1(self):
        # Sigma's eigenvalue -5e-11 passes the summand's own PSD check; the
        # pair covariance scales it by d1 = 50 without validating it again.
        mx = GaussianSummands([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0 - 1e-10]])
        mn = PoissonCounting(50.0)
        c1 = pair_covariance(mx.cov().matrix, mx.mean(), 50.0, 50.0, True)
        assert np.linalg.eigvalsh(pair_covariance(mx.cov().matrix, mx.mean(),
                                                  50.0, 50.0))[0] < -1e-9
        assert psi_sn(mx, mn, [1.0, -1.0], 0.5) >= 0.0
        assert math.isfinite(psi_sn_mean_shifted(mx, mn, [1.0, 1.0], 0.5))
        for rate, point in [(rate_md_centered_summands, [1.0, 1.0]),
                            (rate_md_centered_sum, [1.5, 1.0])]:
            assert math.isfinite(rate(mx, mn, point, 0.5))
        assert math.isfinite(
            md_conjugate(mx, mn, [1.5, 1.0], 0.5, centered_sum=True).value)
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        cov_ss = moment_rows(mx, mn, 20, u, v)["cov_SS"]
        assert_allclose(cov_ss.limit, u @ c1[:2, :2] @ v, rtol=1e-14)
        assert_allclose(cov_ss.reference, cov_ss.limit, rtol=1e-12)


class TestMdQuadratics:
    def test_zero_at_origin(self):
        value = rate_md_centered_summands(pm_one_summand(), unit_poisson(),
                                          [0.0], 0.0)
        assert float(value) == 0.0

    def test_unit_plugin_value(self):
        value = rate_md_centered_summands(pm_one_summand(), unit_poisson(),
                                          [1.0], 1.0)
        assert_allclose(float(value), 1.0, rtol=1e-12)

    def test_off_image_is_infinite(self):
        mx = GaussianSummands([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        mn = unit_poisson()
        assert rate_md_centered_summands(mx, mn, [0.0, 1.0], 0.0) == math.inf
        assert_allclose(
            float(rate_md_centered_summands(mx, mn, [1.0, 0.0], 0.0)),
            0.5,
            rtol=1e-12,
        )

    def test_solve_route_matches_hand_assembly(self):
        mx = GaussianSummands([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
        mn = PoissonCounting(1.7)
        d = mn.derivs_at_zero()
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(4821)
        for _ in range(20):
            x = rng.normal(size=2)
            y = float(rng.normal())
            expected = float(x @ np.linalg.solve(sigma, x)) / (
                2.0 * d.mean_rate
            ) + y * y / (2.0 * d.variance_rate)
            value = rate_md_centered_summands(mx, mn, x, y)
            assert_allclose(float(value), expected, rtol=1e-10)

    def test_contraction_identity_shares_the_code_path(self):
        mx = GaussianSummands([0.3], [[1.0]])
        mn = unit_poisson()
        rng = np.random.default_rng(77)
        for _ in range(10):
            x = float(rng.normal())
            y = float(rng.normal())
            shifted = rate_md_centered_sum(mx, mn, [x], y)
            direct = rate_md_centered_summands(mx, mn, [x - 0.3 * y], y)
            assert shifted == direct

    def test_shifted_mean_plugin_value(self):
        mx = GaussianSummands([0.3], [[1.0]])
        value = rate_md_centered_sum(mx, unit_poisson(), [1.0], 1.0)
        assert_allclose(float(value), 0.745, rtol=1e-12)

    def test_centered_forms_coincide_for_centered_summands(self):
        mx = GaussianSummands([0.0, 0.0], [[1.0, 0.2], [0.2, 0.7]])
        mn = PoissonCounting(2.0)
        rng = np.random.default_rng(901)
        for _ in range(10):
            x = rng.normal(size=2)
            y = float(rng.normal())
            assert rate_md_centered_sum(mx, mn, x, y) == (
                rate_md_centered_summands(mx, mn, x, y)
            )

    def test_count_slot_only_at_scaled_mean(self):
        # At x = y * mu the summand slot centers away and only y^2/(2 d2)
        # remains.
        mx = GaussianSummands([0.4, -0.1], [[1.0, 0.0], [0.0, 2.0]])
        mn = PoissonCounting(1.5)
        d = mn.derivs_at_zero()
        for y in [-2.0, -0.5, 1.0, 3.0]:
            value = rate_md_centered_sum(mx, mn, [0.4 * y, -0.1 * y], y)
            assert_allclose(float(value), y * y / (2.0 * d.variance_rate),
                            rtol=1e-12)

    def test_degenerate_count_variance_rejected(self):
        deterministic = IidSumCounting([2], [1.0])
        with pytest.raises(ValidationError):
            rate_md_centered_summands(pm_one_summand(), deterministic,
                                      [0.0], 0.0)

    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValidationError):
            rate_md_centered_sum(pm_one_summand(), unit_poisson(), [0.0],
                                 math.nan)


class TestMdVariationalForms:
    def test_centered_summands_route_agreement(self):
        mx = GaussianSummands([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
        mn = PoissonCounting(1.7)
        rng = np.random.default_rng(315)
        for _ in range(8):
            x = rng.normal(size=2)
            y = float(rng.normal())
            closed = rate_md_centered_summands(mx, mn, x, y)
            varied = md_conjugate(mx, mn, x, y)
            assert_allclose(float(varied.value), float(closed), atol=1e-6)

    def test_centered_sum_route_agreement(self):
        mx = GaussianSummands([0.6, -0.3], [[1.5, 0.2], [0.2, 0.9]])
        mn = PoissonCounting(1.2)
        rng = np.random.default_rng(316)
        for _ in range(8):
            x = rng.normal(size=2)
            y = float(rng.normal())
            closed = rate_md_centered_sum(mx, mn, x, y)
            varied = md_conjugate(mx, mn, x, y, centered_sum=True)
            assert_allclose(float(varied.value), float(closed), atol=1e-6)

    def test_off_image_detected_as_unbounded(self):
        mx = GaussianSummands([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        result = md_conjugate(mx, unit_poisson(), [0.0, 1.0], 0.0)
        assert result.unbounded
        assert result.value == math.inf

    @pytest.mark.xfail(raises=InconclusiveOptimizationError, strict=True,
                       reason="the solver's gradient test is absolute, and "
                              "C1's eigenvalues spread like (1 + |mu|^2)^2")
    def test_centered_sum_solve_at_a_large_summand_mean(self):
        # The closed route gives 1 / (2 d1 sigma^2) = 1/6 at x = 1, y = 0;
        # the solver stops with "damped step vanished".
        mx, mn = GaussianSummands([1e5], [[1.0]]), PoissonCounting(3.0)
        assert rate_md_centered_sum(mx, mn, [1.0], 0.0) == pytest.approx(1.0 / 6.0)
        result = md_conjugate(mx, mn, [1.0], 0.0, centered_sum=True)
        assert result.value == pytest.approx(1.0 / 6.0, rel=1e-6)


class TestMdQuadraticFiniteSupport:
    def plane_model(self):
        return FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])

    def test_zero_at_origin(self):
        value = md_quadratic_by_mixture(self.plane_model(), unit_poisson(),
                                        [0.0, 0.0])
        assert float(value) == 0.0

    def test_atom_difference_value(self):
        # c = (1, -1) against p = (1/2, 1/2) gives 1*(2 - (-2)) = 4, halved
        # by 2*d1 with d1 = 1.
        value = md_quadratic_by_mixture(self.plane_model(), unit_poisson(),
                                        [1.0, -1.0])
        assert_allclose(float(value), 2.0, rtol=1e-12)

    def test_uncentered_coefficients_are_infinite(self):
        value = md_quadratic_by_mixture(self.plane_model(), unit_poisson(),
                                        [0.5, 0.0])
        assert value == math.inf

    def test_matches_pseudoinverse_route(self):
        mx = FiniteSupportSummands(
            [[1.0, 0.0], [0.2, 1.5]], [0.3, 0.7]
        )
        mn = PoissonCounting(1.9)
        atoms = np.array([[1.0, 0.0], [0.2, 1.5]])
        rng = np.random.default_rng(6012)
        for _ in range(20):
            c = rng.normal(size=2)
            c -= c.mean()
            x = c @ atoms
            closed = md_quadratic_by_mixture(mx, mn, x)
            solved = rate_md_centered_summands(mx, mn, x, 0.0)
            assert_allclose(float(closed), float(solved), rtol=1e-9,
                            atol=1e-12)

    def test_matches_variational_route(self):
        mx = self.plane_model()
        mn = unit_poisson()
        for c1 in [-1.0, 0.4, 1.3]:
            x = [c1, -c1]
            closed = md_quadratic_by_mixture(mx, mn, x)
            varied = md_conjugate(mx, mn, x, 0.0)
            assert_allclose(float(varied.value), float(closed), atol=1e-6)

    def test_grid_paths_match_flat_atoms(self):
        grid = np.array([0.0, 1.0, 2.0])
        model = grid_finite_support(
            grid,
            [lambda s: s, lambda s: s ** 2],
            [0.5, 0.5],
        )
        flat = FiniteSupportSummands([[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]],
                                     [0.5, 0.5])
        x = [0.0, 0.0, -2.0]
        rate = rate_md_centered_summands(model, unit_poisson(), x, 0.0)
        assert rate == rate_md_centered_summands(flat, unit_poisson(), x, 0.0)
        assert_allclose(rate, md_quadratic_by_mixture(flat, unit_poisson(), x),
                        rtol=1e-12)

    def test_pm_one_is_the_variance_quadratic(self):
        # Two atoms on the line are affinely independent: x^2 / (2 d1 sigma^2).
        mn = PoissonCounting(1.7)
        for x in [-2.0, -0.3, 0.0, 0.8, 5.0]:
            value = md_quadratic_by_mixture(pm_one_summand(), mn, [x])
            assert_allclose(value, x * x / (2.0 * 1.7 * 1.0), rtol=1e-12)

    def test_three_atoms_in_the_plane_match_the_covariance_route(self):
        # The FS2 law of the benchmark workloads: m = h + 1 atoms.
        atoms = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        mx = FiniteSupportSummands(atoms, [0.3, 0.3, 0.4])
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        rng = np.random.default_rng(1517)
        for _ in range(20):
            c = rng.normal(size=3)
            c -= c.mean()
            x = c @ atoms
            assert_allclose(md_quadratic_by_mixture(mx, mn, x),
                            rate_md_centered_summands(mx, mn, x, 0.0), rtol=1e-9)


def random_law(rng, m, h):
    """Seeded law with m atoms in R^h, probabilities bounded away from 0."""
    probs = rng.uniform(0.5, 1.5, size=m)
    return FiniteSupportSummands(rng.normal(size=(m, h)), probs / probs.sum())


def distance_to_affine_hull(vector, atoms):
    """Component of vector - atoms[0] off the direction space of the hull."""
    v = np.asarray(vector, dtype=float) - atoms[0]
    directions = (atoms[1:] - atoms[0]).T
    if directions.size:
        v = v - directions @ np.linalg.lstsq(directions, v, rcond=None)[0]
    return v


# (m, h): m = h + 1 affinely independent atoms in R^h, or m <= h linearly
# independent ones; the closed form covers both.
CLOSED_FORM_SHAPES = [(2, 1), (3, 2), (4, 3), (2, 2), (2, 3), (3, 3)]


class TestClosedFormConjugate:
    """The mixture relative entropy against the solver, over the whole space."""

    @pytest.mark.parametrize("m, h", CLOSED_FORM_SHAPES)
    def test_interior_points_match_the_solver(self, m, h):
        rng = np.random.default_rng(100 * m + h)
        for _ in range(3):
            mx = random_law(rng, m, h)
            for _ in range(5):
                x = rng.dirichlet(np.full(m, 2.0)) @ mx.atoms
                solved = legendre_transform(mx.cumulant, x).value
                assert_allclose(mx.conjugate_closed_form(x), solved, rtol=1e-8)

    @pytest.mark.parametrize("distance", [1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize("m, h", CLOSED_FORM_SHAPES)
    def test_points_outside_the_hull_are_infinite(self, m, h, distance):
        rng = np.random.default_rng(200 * m + h)
        for _ in range(3):
            mx = random_law(rng, m, h)
            atoms = mx.atoms
            c = rng.dirichlet(np.full(m, 2.0))
            # Across the facet opposite vertex k: c_k = -eps puts x at
            # eps times the vertex's height beyond the facet's plane.
            k = int(rng.integers(m))
            others = np.delete(atoms, k, axis=0)
            height = float(np.linalg.norm(distance_to_affine_hull(atoms[k], others)))
            eps = distance / height
            c[k] = -eps
            rest = np.arange(m) != k
            c[rest] *= (1.0 + eps) / c[rest].sum()
            points = [c @ atoms]
            if m <= h:
                # Off the affine hull, along a unit normal to it.
                normal = distance_to_affine_hull(rng.normal(size=h), atoms)
                inside = rng.dirichlet(np.full(m, 2.0)) @ atoms
                points.append(inside + distance * normal / np.linalg.norm(normal))
            for x in points:
                assert mx.conjugate_closed_form(x) == math.inf
                assert legendre_transform(mx.cumulant, x).value == math.inf

    @pytest.mark.parametrize("atoms, probs", [
        ([[1.0], [1.0]], [0.3, 0.7]),
        ([[-1.0], [0.0], [2.0]], [0.2, 0.5, 0.3]),
        ([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]], [0.2, 0.5, 0.3]),
    ], ids=["duplicate-atoms-1d", "three-atoms-1d", "collinear-atoms-2d"])
    def test_affinely_dependent_laws_keep_the_solver(self, atoms, probs):
        mx, mn = FiniteSupportSummands(atoms, probs), PoissonCounting(1.5)
        assert mx.conjugate_closed_form(np.zeros(mx.dim)) is None
        for x, y in [(0.5, 1.0), (1.0, 1.0), (0.3, 0.4), (2.5, 1.0),
                     (-1.2, 1.0), (0.0, 0.7)]:
            point = np.full(mx.dim, x)
            assert_routes_agree(rate_ld_explicit(mx, mn, point, y),
                                rate_ld_variational(mx, mn, point, y).value,
                                ROUTE_TOL)


class TestMomentRecords:
    """The moments of the pair, read off the moment check's rows."""

    def unit_mean_unit_var_summand(self):
        return FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])

    def test_poisson_limit_values(self):
        rows = moment_rows(self.unit_mean_unit_var_summand(), unit_poisson(),
                           10, [1.0], [1.0])
        assert_allclose(rows["mean_S_dir"].limit, 1.0, rtol=1e-12)
        assert_allclose(rows["mean_N"].limit, 1.0, rtol=1e-12)
        assert_allclose(rows["cov_SS"].limit, 2.0, rtol=1e-12)
        assert_allclose(rows["cov_NS"].limit, 1.0, rtol=1e-12)
        assert_allclose(rows["var_N"].limit, 1.0, rtol=1e-12)

    def test_centered_summand_kills_cross_terms(self):
        rows = moment_rows(pm_one_summand(), PoissonCounting(2.4), 10, [1.0],
                           [1.0])
        for column in ("reference", "limit"):
            assert getattr(rows["mean_S_dir"], column) == 0.0
            assert getattr(rows["cov_NS"], column) == 0.0

    def test_finite_n_matches_hand_assembly(self):
        mx = GaussianSummands([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        mn = BernoulliSumCounting(p=0.3)
        u = np.array([1.0, -0.5])
        v = np.array([0.2, 0.8])
        rows = moment_rows(mx, mn, 37, u, v)
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        mu = np.array([0.5, -1.0])
        mean_scaled = 0.3
        var_scaled = 0.3 * 0.7
        assert_allclose(rows["mean_N"].reference, mean_scaled, rtol=1e-12)
        assert_allclose(rows["mean_S_dir"].reference, mean_scaled * float(v @ mu),
                        rtol=1e-12)
        assert_allclose(
            rows["cov_SS"].reference,
            mean_scaled * float(u @ sigma @ v)
            + var_scaled * float(u @ mu) * float(v @ mu),
            rtol=1e-12,
        )
        assert_allclose(rows["cov_NS"].reference, var_scaled * float(v @ mu),
                        rtol=1e-12)
        assert_allclose(rows["var_N"].reference, var_scaled, rtol=1e-12)

    def test_poisson_finite_n_equals_limit(self):
        mx = self.unit_mean_unit_var_summand()
        for n in [10, 250]:
            rows = moment_rows(mx, unit_poisson(), n, [1.0], [1.0])
            for name in ("mean_S_dir", "cov_SS", "cov_NS", "var_N"):
                assert_allclose(rows[name].reference, rows[name].limit,
                                rtol=1e-12)

    def test_iid_sum_finite_n_equals_limit(self):
        # An iid-sum count has E N_n / n = d1 and Var N_n / n = d2 at every n;
        # the finite-n side is read off the convolved table, to rounding.
        mx = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                   [0.3, 0.3, 0.4])
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        for n in (1, 7, 100):
            for row in moment_rows(mx, mn, n, [1.0, -0.5], [0.2, 0.8]).values():
                assert_allclose(row.reference, row.limit, rtol=1e-13, atol=0.0)


def _linspace(start, stop, num):
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def assert_routes_agree(explicit, joint, tol):
    if math.isinf(explicit) or math.isinf(joint):
        assert explicit == joint
    else:
        assert joint == pytest.approx(explicit, rel=tol, abs=tol)


# Suprema that are approached but not attained (y at the largest count rate
# of a bounded count, x/y on the edge of the summand support) stop within
# the gradient tolerance of their limit, so the routes agree to ~1e-8 there.
ROUTE_TOL = 1e-6


def lattice_renewal():
    # Inter-arrivals 1 or 2, each with probability 1/2: N_n / n <= 1.
    return RenewalCounting(LatticeInterarrival([1, 2], [0.5, 0.5]))


def iid_steps(a, b):
    # Steps 0, 1, 2 with weights a : b : 1.
    total = a + b + 1.0
    return IidSumCounting([0, 1, 2], [a / total, b / total, 1.0 / total])


COUNTING_KINDS = {
    "poisson": lambda u: PoissonCounting(u(0.3, 3.0)),
    "fractional": lambda u: FractionalPoissonCounting(u(0.3, 1.0), u(0.3, 3.0)),
    "iid-sum": lambda u: iid_steps(u(0.1, 2.0), u(0.1, 2.0)),
    "bernoulli": lambda u: BernoulliSumCounting(p=u(0.1, 0.9)),
    "bernoulli-runs": lambda u: BernoulliSumCounting.runs(u(0.2, 2.0),
                                                          u(0.2, 2.0)),
    "renewal-exponential": lambda u: RenewalCounting(
        ExponentialInterarrival(u(0.3, 3.0))),
    "renewal-gamma": lambda u: RenewalCounting(
        GammaInterarrival(u(0.5, 3.0), u(0.3, 3.0))),
}


def random_small_models(seed=20, per_kind=15):
    """Seeded cases for the route-agreement check: a 1-d two-atom or
    Gaussian summand law, each counting kind with random parameters, and a
    point with x in [-2.5, 2.5] and y in [0.05, 3], or y = -0.5 for every
    fifth case."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    cases = []
    for kind, build in COUNTING_KINDS.items():
        for i in range(per_kind):
            if rng.random() < 0.5:
                a, gap, p = u(-2.0, 1.0), u(0.2, 2.0), u(0.1, 0.9)
                mx = FiniteSupportSummands([[a], [a + gap]], [p, 1.0 - p])
            else:
                mx = GaussianSummands([u(-1.0, 1.0)], [[u(0.1, 2.0)]])
            x = u(-2.5, 2.5)
            y = -0.5 if i % 5 == 0 else u(0.05, 3.0)
            cases.append(pytest.param(mx, build(u), x, y, id=f"{kind}-{i}"))
    return cases


class TestRouteAgreement:
    """Explicit case split against the joint conjugate, +inf included."""

    @pytest.mark.parametrize("mx, mn", [
        (pm_one_summand(), unit_poisson()),
        (GaussianSummands([0.2], [[1.0]]),
         RenewalCounting(GammaInterarrival(2.0, 1.0))),
        (pm_one_summand(), FractionalPoissonCounting(0.7, 1.0)),
        (pm_one_summand(), BernoulliSumCounting(p=0.5)),
        (pm_one_summand(), lattice_renewal()),
        (GaussianSummands([0.2], [[1.0]]), lattice_renewal()),
    ], ids=["pm-poisson", "gauss-renewal", "pm-fractional", "pm-bernoulli",
            "pm-lattice", "gauss-lattice"])
    def test_standard_grid(self, mx, mn):
        # The 10 x 10 grid of the rate tables: x in [-0.9, 0.9], y in
        # [0.2, 2]; a fifth of the Poisson and fractional points, half of
        # the Bernoulli ones and every y > 1 of the lattice renewal are +inf.
        for x in _linspace(-0.9, 0.9, 10):
            for y in _linspace(0.2, 2.0, 10):
                explicit = float(rate_ld_explicit(mx, mn, [x], y))
                joint = float(rate_ld_variational(mx, mn, [x], y).value)
                assert_routes_agree(explicit, joint, 1e-8)

    @pytest.mark.parametrize("h", [10, 50, 200, 400])
    def test_brownian_grid_refinement(self, h):
        # Brownian motion on the grid k/h with x(t) = t^2 and unit Poisson
        # counts at y = 1: the count part vanishes and the rate is the
        # discrete Cameron-Martin energy x.K^{-1}x/2 = 2/3 - 1/(6 h^2),
        # which tends to (1/2) int_0^1 (2t)^2 dt = 2/3.
        grid = np.arange(1, h + 1) / h
        kernel = np.minimum.outer(grid, grid)
        mx = grid_gaussian(grid, np.zeros(h), kernel)
        x = grid ** 2
        energy = 0.5 * float(x @ np.linalg.solve(kernel, x))
        explicit = float(rate_ld_explicit(mx, unit_poisson(), x, 1.0))
        joint = float(rate_ld_variational(mx, unit_poisson(), x, 1.0).value)
        assert explicit == pytest.approx(energy, abs=1e-12)
        assert joint == pytest.approx(energy, abs=1e-12)
        assert energy == pytest.approx(2.0 / 3.0 - 1.0 / (6.0 * h * h),
                                       abs=1e-12)

    @pytest.mark.parametrize("x", [-6e-8, 1.0 + 6e-8])
    def test_just_outside_the_summand_hull(self, x):
        # x / y a hair outside the atoms {0, 1}: the joint maximizer must
        # keep climbing to the divergence test rather than stall.
        mx = FiniteSupportSummands([[0.0], [1.0]], [0.5, 0.5])
        assert rate_ld_explicit(mx, unit_poisson(), [x], 1.0) == math.inf
        assert rate_ld_variational(mx, unit_poisson(), [x], 1.0).value == math.inf

    @pytest.mark.parametrize("mx, mn, x, y", random_small_models())
    def test_random_small_models(self, mx, mn, x, y):
        explicit = float(rate_ld_explicit(mx, mn, [x], y))
        try:
            joint = float(rate_ld_variational(mx, mn, [x], y).value)
        except InconclusiveOptimizationError:
            # Open defect: below y = 0 with Gaussian summands the joint
            # maximizer escapes along eta ~ -sigma^2 theta^2 / 2 too slowly
            # for the divergence test; the explicit rate is +inf there.
            assert y < 0.0 and isinstance(mx, GaussianSummands)
            return
        assert_routes_agree(explicit, joint, ROUTE_TOL)


# Summand laws for the row-wise checks, seeded: affinely independent atoms
# (the closed form, m = h + 1 or m <= h), affinely dependent atoms (one
# legendre_transform per row), and Gaussian laws of full and deficient rank.
ROWWISE_SUMMANDS = {
    "affine-1d": lambda rng: random_law(rng, 2, 1),
    "affine-2d": lambda rng: random_law(rng, 3, 2),
    "affine-3d": lambda rng: random_law(rng, 4, 3),
    "linear-3d": lambda rng: random_law(rng, 2, 3),
    "dependent-1d": lambda rng: FiniteSupportSummands(
        [[-1.0], [0.0], [2.0]], [0.2, 0.5, 0.3]),
    "dependent-2d": lambda rng: FiniteSupportSummands(
        [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]], [0.2, 0.5, 0.3]),
    "dependent-3d": lambda rng: random_law(rng, 5, 3),
    "gauss-full-2d": lambda rng: GaussianSummands(
        rng.normal(size=2), [[1.5, 0.4], [0.4, 0.8]]),
    "gauss-singular-2d": lambda rng: GaussianSummands(
        rng.normal(size=2), [[1.0, 1.0], [1.0, 1.0]]),
    "gauss-singular-3d": lambda rng: GaussianSummands(
        rng.normal(size=3), np.diag([2.0, 0.0, 0.5])),
}


def rowwise_points(rng, mx):
    """The x-major product of x points (the origin, a point near the mean,
    one far outside every hull, one along the covariance's least
    eigenvector, off its image when it is singular) and y values
    (negative, zero, a hair above zero, and beyond one, where Bernoulli
    counts are +inf)."""
    h = mx.dim
    eigvals, eigvecs = np.linalg.eigh(mx.cov().matrix)
    xs = [np.zeros(h), mx.mean() + 0.1 * rng.normal(size=h),
          8.0 * rng.normal(size=h), eigvecs[:, 0] * (1.0 + eigvals[0])]
    ys = [-0.5, 0.0, 1e-13, 0.45, 1.3]
    points = [(x.tolist(), y) for x in xs for y in ys]
    return [x for x, _ in points], [y for _, y in points]


class TestRowwiseRates:
    """A stack of points evaluates each rate at once; every row must equal
    its own one-point call, digit for digit."""

    @pytest.mark.parametrize("count", sorted(COUNTING_KINDS))
    @pytest.mark.parametrize("summand", sorted(ROWWISE_SUMMANDS))
    def test_every_row_matches_its_one_point_call(self, summand, count):
        rng = np.random.default_rng(sorted(ROWWISE_SUMMANDS).index(summand))
        mx = ROWWISE_SUMMANDS[summand](rng)
        mn = COUNTING_KINDS[count](lambda lo, hi: float(rng.uniform(lo, hi)))
        xs, ys = rowwise_points(rng, mx)
        for rate in (rate_ld_explicit, rate_md_centered_summands,
                     rate_md_centered_sum):
            column = rate(mx, mn, xs, ys)
            assert isinstance(column, np.ndarray) and column.shape == (len(ys),)
            for x, y, cell in zip(xs, ys, column):
                one = rate(mx, mn, x, y)
                assert type(one) is float
                assert format_cell(cell) == format_cell(one), (rate.__name__, x, y)

    def test_one_stack_meets_every_branch(self):
        # The origin rule, y <= 0, the closed form, +inf off the hull and
        # +inf off the covariance image, each in one row of a stack.
        mn = PoissonCounting(1.0)
        pm = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        column = rate_ld_explicit(pm, mn, [[0.0], [0.5], [0.5], [3.0]],
                                  [0.0, -0.5, 1.0, 1.0])
        assert column[0] == 1.0 and column[1] == math.inf
        assert 0.0 < column[2] < math.inf and column[3] == math.inf
        singular = GaussianSummands([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        md = rate_md_centered_summands(singular, mn, [[1.0, 1.0], [1.0, -1.0]],
                                       [0.5, 0.5])
        assert math.isfinite(md[0]) and md[1] == math.inf

    def test_count_part_is_the_rounded_square(self):
        # At x = 0 with unit Poisson counts the rate is y^2 / 2: the
        # correctly rounded square, halved exactly. The float power y ** 2
        # is one ulp off it at these y.
        ys = [0.5073225863368529, 0.8246210121471433, -0.4834668697760108]
        assert all(y ** 2 != float(Fraction(y) ** 2) for y in ys)
        column = rate_md_centered_summands(pm_one_summand(), unit_poisson(),
                                           [[0.0]] * 3, ys)
        assert column.tolist() == [float(Fraction(y) ** 2 / 2) for y in ys]

    @pytest.mark.parametrize("rate", [rate_md_centered_summands,
                                      rate_md_centered_sum])
    def test_count_part_past_the_float_range_is_infinite(self, rate):
        # y * y overflows past about 1.34e154; the rate there is +inf, and
        # below it is the rounded square, halved.
        ys = [1e154, -1e154, 1.3e154, 1e200, -1e300]
        column = rate(pm_one_summand(), unit_poisson(), [[0.0]] * 5, ys)
        assert column.tolist() == [y ** 2 / 2.0 for y in ys[:3]] + [math.inf] * 2
        assert rate(pm_one_summand(), unit_poisson(), [0.0], 1e200) == math.inf

    @pytest.mark.parametrize("rate", [
        rate_ld_explicit, rate_md_centered_summands, rate_md_centered_sum,
        rate_ld_variational,
    ])
    @pytest.mark.parametrize("xs, ys, error", [
        ([[0.1], [0.2]], [1.0], DimensionMismatchError),
        (np.zeros((0, 1)), [], ValidationError),
        ([[0.1], [0.2]], 1.0, ValidationError),
        ([[0.1, 0.0], [0.2, 0.0]], [1.0, 1.0], DimensionMismatchError),
        ([[0.1], [math.nan]], [1.0, 1.0], ValidationError),
        ([[0.1], [0.2]], [1.0, math.inf], ValidationError),
    ], ids=["short-y", "empty", "scalar-y", "long-rows", "nan-x", "inf-y"])
    def test_stack_is_checked_once_with_typed_errors(self, rate, xs, ys, error):
        with pytest.raises(error):
            rate(pm_one_summand(), unit_poisson(), xs, ys)

    @pytest.mark.parametrize("rate", [rate_ld_variational])
    def test_variational_rates_probe_once_per_call(self, monkeypatch, rate):
        probe, calls = variational.probe_convexity, []

        def counted(f, dim):
            calls.append(dim)
            return probe(f, dim)

        mx, mn = GaussianSummands([0.2], [[1.0]]), unit_poisson()
        xs = [[0.2 * i - 0.9] for i in range(10)]
        ys = [0.3 + 0.2 * i for i in range(10)]
        monkeypatch.setattr(variational, "probe_convexity", counted)
        results = rate(mx, mn, xs, ys)
        assert calls == [2]
        assert len(results) == 10
        for x, y, result in zip(xs, ys, results):
            assert result.value == rate(mx, mn, x, y).value
