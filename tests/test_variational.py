"""Tests for conjugate optimization and the rate-function layer.

The reference values here come from two kinds of oracle: closed forms
worked out by hand (Poisson count rates, Gaussian quadratic conjugates,
relative-entropy vertex values) and a golden-section maximizer run on the
one-dimensional conjugate objective. Where the package exposes two routes
to the same number (explicit case split vs. joint maximization, closed
quadratic vs. its variational form) both routes are compared directly, on
fixed grids and on seeded random small models.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_deviations import variational
from compound_deviations.counting import (
    BernoulliSumCounting,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    GammaInterarrival,
    IidSumCounting,
    PoissonCounting,
    RenewalCounting,
    TabulatedInterarrival,
)
from compound_deviations.dualpair import POS_INF, CovarianceOperator, ExtendedReal
from compound_deviations.errors import (
    InconclusiveOptimizationError,
    UnsupportedModelError,
    ValidationError,
)
from compound_deviations.summands import (
    FiniteSupportSummands,
    GaussianSummands,
    grid_finite_support,
    grid_gaussian,
)
from compound_deviations.variational import (
    GRADIENT_TOLERANCE,
    LegendreResult,
    analytic_limit_moments,
    count_rate,
    finite_n_moment_identities,
    joint_cgf,
    joint_cumulant,
    legendre_transform,
    md_quadratic_finite_support,
    probe_convexity,
    psi_sn,
    psi_sn_mean_shifted,
    rate_ld_explicit,
    rate_ld_variational,
    rate_md_centered_sum,
    rate_md_centered_sum_variational,
    rate_md_centered_summands,
    rate_md_centered_summands_variational,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    return (
        lambda t: math.exp(float(t[0])) - 1.0,
        lambda t: np.array([math.exp(float(t[0]))]),
        lambda t: np.array([[math.exp(float(t[0]))]]),
    )


def pm_one_summand():
    return FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])


def unit_poisson():
    return PoissonCounting(1.0)


class TestLegendreTransform:
    def test_quadratic_at_origin(self):
        result = legendre_transform(
            lambda t: 0.5 * float(t @ t), lambda t: t, unit_hessian, [0.0]
        )
        assert isinstance(result, LegendreResult)
        assert float(result.value) == 0.0
        assert_allclose(result.argmax, [0.0], atol=1e-12)
        assert not result.unbounded

    def test_quadratic_conjugate_is_quadratic(self):
        # sup <t,z> - |t|^2/2 = |z|^2/2 at t = z.
        for z in [-3.0, -0.4, 0.7, 2.5]:
            result = legendre_transform(
                lambda t: 0.5 * float(t @ t), lambda t: t, unit_hessian, [z]
            )
            assert_allclose(float(result.value), 0.5 * z * z, atol=1e-10)
            assert_allclose(result.argmax, [z], atol=1e-8)

    def test_anisotropic_quadratic_with_hessian(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(t):
            return 0.5 * float(t @ a @ t)

        def grad(t):
            return a @ t

        z = np.array([1.2, -0.7])
        result = legendre_transform(f, grad, lambda t: a, z)
        expected_point = np.linalg.solve(a, z)
        assert_allclose(float(result.value), 0.5 * float(z @ expected_point),
                        atol=1e-10)
        assert_allclose(result.argmax, expected_point, atol=1e-8)
        assert result.gradient_norm < GRADIENT_TOLERANCE

    def test_linear_function_at_its_slope(self):
        # f(t) = <c, t> has conjugate 0 at z = c; the origin already solves it.
        c = np.array([0.4, -1.1])
        result = legendre_transform(
            lambda t: float(c @ t), lambda t: c, zero_hessian, c
        )
        assert float(result.value) == 0.0
        assert result.iterations == 0

    def test_unbounded_direction_detected(self):
        # y*eta - (e^eta - 1) grows without bound as eta -> -inf when y < 0.
        result = legendre_transform(*exp_minus_one(), [-0.5])
        assert result.unbounded
        assert result.value == POS_INF
        assert result.argmax is None

    def test_concave_input_rejected(self):
        with pytest.raises(ValidationError):
            legendre_transform(
                lambda t: -float(t @ t), lambda t: -2.0 * t,
                lambda t: -2.0 * unit_hessian(t), [0.5],
            )

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ValidationError):
            legendre_transform(
                lambda t: 0.5 * float(t @ t), lambda t: t, unit_hessian,
                [math.inf],
            )

    def test_iteration_limit_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(variational, "MAX_ITERATIONS", 1)
        with pytest.raises(InconclusiveOptimizationError) as excinfo:
            legendre_transform(*exp_minus_one(), [4.0])
        err = excinfo.value
        assert err.iterations == 1
        assert err.best_value is not None and math.isfinite(err.best_value)
        assert err.gradient_norm > 0.0

    def test_newton_polish_reaches_tight_tolerance(self):
        # Newton converges quadratically: the conjugate of e^t - 1 at 2 is
        # reached to rounding within a handful of steps.
        result = legendre_transform(*exp_minus_one(), [2.0])
        assert result.iterations < 10
        assert_allclose(float(result.value), 2.0 * math.log(2.0) - 1.0,
                        rtol=1e-14)
        assert_allclose(result.argmax, [math.log(2.0)], rtol=1e-12)


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
        assert result.value == POS_INF

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
        assert result.value == POS_INF

    def test_bernoulli_above_the_largest_count_rate_is_infinite(self):
        # The count never exceeds n, so every y > 1 is unreachable.
        for y in [1.2, 2.0]:
            assert count_rate(BernoulliSumCounting(p=0.5), y).value == POS_INF

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


class TestJointCgf:
    def test_zero_at_origin(self):
        assert joint_cgf(pm_one_summand(), unit_poisson(), [0.0], 0.0) == 0.0

    def test_symmetric_two_point_composition(self):
        # Unit-rate count composed with a +/-1 summand: log cosh enters the
        # exponent, giving cosh(t) - 1 along the summand axis.
        mx, mn = pm_one_summand(), unit_poisson()
        for t in [-2.0, -0.5, 0.3, 1.7]:
            assert_allclose(
                joint_cgf(mx, mn, [t], 0.0), math.cosh(t) - 1.0, rtol=1e-12
            )

    def test_count_axis_reduces_to_count_cgf(self):
        mx = GaussianSummands([0.2], [[1.5]])
        mn = IidSumCounting([1, 2], [0.25, 0.75])
        for s in [-3.0, -0.1, 0.9, 2.0]:
            assert_allclose(
                joint_cgf(mx, mn, [0.0], s), mn.limit_cgf(s), rtol=1e-12
            )

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
        assert value == POS_INF

    def test_negative_y_is_infinite(self):
        value = rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.0], -1.0)
        assert value == POS_INF

    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValidationError):
            rate_ld_explicit(pm_one_summand(), unit_poisson(), [0.0],
                             math.inf)


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
        assert result.value == POS_INF

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

    def test_limit_covariance_is_twice_the_shifted_quadratic(self):
        # Two independent code paths meet: the assembled limiting covariance
        # in direction (theta, theta) equals twice the mean-shifted quadratic
        # at (theta, 0).
        mx = FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])
        mn = PoissonCounting(1.3)
        for t in [-1.5, -0.2, 0.4, 2.0]:
            moments = analytic_limit_moments(mx, mn, [t], [t])
            quad = psi_sn_mean_shifted(mx, mn, [t], 0.0)
            assert_allclose(moments.cov_SS, 2.0 * quad, rtol=1e-12)


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
        assert rate_md_centered_summands(mx, mn, [0.0, 1.0], 0.0) == POS_INF
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
            varied = rate_md_centered_summands_variational(mx, mn, x, y)
            assert_allclose(float(varied.value), float(closed), atol=1e-6)

    def test_centered_sum_route_agreement(self):
        mx = GaussianSummands([0.6, -0.3], [[1.5, 0.2], [0.2, 0.9]])
        mn = PoissonCounting(1.2)
        rng = np.random.default_rng(316)
        for _ in range(8):
            x = rng.normal(size=2)
            y = float(rng.normal())
            closed = rate_md_centered_sum(mx, mn, x, y)
            varied = rate_md_centered_sum_variational(mx, mn, x, y)
            assert_allclose(float(varied.value), float(closed), atol=1e-6)

    def test_off_image_detected_as_unbounded(self):
        mx = GaussianSummands([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        result = rate_md_centered_summands_variational(
            mx, unit_poisson(), [0.0, 1.0], 0.0
        )
        assert result.unbounded
        assert result.value == POS_INF


class TestMdQuadraticFiniteSupport:
    def plane_model(self):
        return FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])

    def test_zero_at_origin(self):
        value = md_quadratic_finite_support(self.plane_model(),
                                            unit_poisson(), [0.0, 0.0])
        assert float(value) == 0.0

    def test_atom_difference_value(self):
        # c = (1, -1) against p = (1/2, 1/2) gives 1*(2 - (-2)) = 4, halved
        # by 2*d1 with d1 = 1.
        value = md_quadratic_finite_support(self.plane_model(),
                                            unit_poisson(), [1.0, -1.0])
        assert_allclose(float(value), 2.0, rtol=1e-12)

    def test_uncentered_coefficients_are_infinite(self):
        value = md_quadratic_finite_support(self.plane_model(),
                                            unit_poisson(), [0.5, 0.0])
        assert value == POS_INF

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
            closed = md_quadratic_finite_support(mx, mn, x)
            solved = rate_md_centered_summands(mx, mn, x, 0.0)
            assert_allclose(float(closed), float(solved), rtol=1e-9,
                            atol=1e-12)

    def test_matches_variational_route(self):
        mx = self.plane_model()
        mn = unit_poisson()
        for c1 in [-1.0, 0.4, 1.3]:
            x = [c1, -c1]
            closed = md_quadratic_finite_support(mx, mn, x)
            varied = rate_md_centered_summands_variational(mx, mn, x, 0.0)
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
        assert float(md_quadratic_finite_support(model, unit_poisson(), x)) == float(
            md_quadratic_finite_support(flat, unit_poisson(), x)
        )

    def test_overdetermined_decomposition_rejected(self):
        with pytest.raises(UnsupportedModelError):
            md_quadratic_finite_support(pm_one_summand(), unit_poisson(),
                                        [0.5])

    def test_gaussian_model_rejected(self):
        with pytest.raises(UnsupportedModelError):
            md_quadratic_finite_support(
                GaussianSummands([0.0], [[1.0]]), unit_poisson(), [0.0]
            )


class TestMomentRecords:
    def unit_mean_unit_var_summand(self):
        return FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])

    def test_poisson_limit_values(self):
        moments = analytic_limit_moments(
            self.unit_mean_unit_var_summand(), unit_poisson(), [1.0], [1.0]
        )
        assert_allclose(moments.mean_S_dir, 1.0, rtol=1e-12)
        assert_allclose(moments.mean_N, 1.0, rtol=1e-12)
        assert_allclose(moments.cov_SS, 2.0, rtol=1e-12)
        assert_allclose(moments.cov_NS, 1.0, rtol=1e-12)
        assert_allclose(moments.var_N, 1.0, rtol=1e-12)

    def test_centered_summand_kills_cross_terms(self):
        moments = analytic_limit_moments(
            pm_one_summand(), PoissonCounting(2.4), [1.0], [1.0]
        )
        assert moments.mean_S_dir == 0.0
        assert moments.cov_NS == 0.0

    def test_finite_n_matches_hand_assembly(self):
        mx = GaussianSummands([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        mn = BernoulliSumCounting(p=0.3)
        n = 37
        u = np.array([1.0, -0.5])
        v = np.array([0.2, 0.8])
        record = finite_n_moment_identities(mx, mn, n, u, v)
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        mu = np.array([0.5, -1.0])
        mean_scaled = 0.3
        var_scaled = 0.3 * 0.7
        assert_allclose(record.mean_N, mean_scaled, rtol=1e-12)
        assert_allclose(record.mean_S_dir, mean_scaled * float(v @ mu),
                        rtol=1e-12)
        assert_allclose(
            record.cov_SS,
            mean_scaled * float(u @ sigma @ v)
            + var_scaled * float(u @ mu) * float(v @ mu),
            rtol=1e-12,
        )
        assert_allclose(record.cov_NS, var_scaled * float(v @ mu), rtol=1e-12)
        assert_allclose(record.var_N, var_scaled, rtol=1e-12)

    def test_poisson_finite_n_equals_limit(self):
        mx = self.unit_mean_unit_var_summand()
        mn = unit_poisson()
        limit = analytic_limit_moments(mx, mn, [1.0], [1.0])
        for n in [10, 250]:
            record = finite_n_moment_identities(mx, mn, n, [1.0], [1.0])
            assert_allclose(record.mean_S_dir, limit.mean_S_dir, rtol=1e-12)
            assert_allclose(record.cov_SS, limit.cov_SS, rtol=1e-12)
            assert_allclose(record.cov_NS, limit.cov_NS, rtol=1e-12)
            assert_allclose(record.var_N, limit.var_N, rtol=1e-12)

    def test_iid_sum_finite_n_equals_limit(self):
        # An iid-sum count has E N_n / n = d1 and Var N_n / n = d2 at every n;
        # the finite-n side is read off the convolved table, to rounding.
        mx = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                   [0.3, 0.3, 0.4])
        mn = IidSumCounting([0, 1, 2], [0.3, 0.4, 0.3])
        u, v = [1.0, -0.5], [0.2, 0.8]
        limit = analytic_limit_moments(mx, mn, u, v)
        for n in (1, 7, 100):
            record = finite_n_moment_identities(mx, mn, n, u, v)
            for name in ("mean_S_dir", "mean_N", "cov_SS", "cov_NS", "var_N"):
                assert_allclose(getattr(record, name), getattr(limit, name),
                                rtol=1e-13, atol=0.0)

    def test_renewal_counts_have_no_exact_moments(self):
        # Gamma laws have an exact count table; a tabulated cumulant does not.
        rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
        mn = RenewalCounting(
            TabulatedInterarrival(rs, [-math.log1p(-r) for r in rs]))
        with pytest.raises(UnsupportedModelError):
            finite_n_moment_identities(pm_one_summand(), mn, 100, [1.0],
                                       [1.0])


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
    ], ids=["pm-poisson", "gauss-renewal", "pm-fractional", "pm-bernoulli"])
    def test_standard_grid(self, mx, mn):
        # The 10 x 10 grid of the rate tables: x in [-0.9, 0.9], y in
        # [0.2, 2]; a fifth of the Poisson and fractional points and half
        # of the Bernoulli ones are +inf.
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
        assert rate_ld_explicit(mx, unit_poisson(), [x], 1.0) == POS_INF
        assert rate_ld_variational(mx, unit_poisson(), [x], 1.0).value == POS_INF

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
