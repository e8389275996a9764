"""Convex-conjugate machinery and the rate functions of the compound-sum LDP.

The central tool, and the package's one conjugate solver, is
``legendre_transform``: a damped Newton maximizer of theta -> <theta, z> -
f(theta) for a smooth convex f with an analytic Hessian (composed by the
chain rule from the summand ``cgf_hess`` and the counting
``limit_cgf_second``), whose divergence policy turns genuinely unbounded
suprema into PosInf instead of an iteration-limit error.

On top of it sit the rate functions:

* ``joint_cumulant``: the pair's cumulant L_N(eta + L_X(theta)) with its
  gradient and Hessian, behind ``joint_cgf``, ``rate_ld_variational`` and
  ``montecarlo.tilt_parameters``.
* ``rate_ld_variational`` and ``rate_ld_explicit``: the large-deviation rate
  of the pair (scaled compound sum, scaled count), as the conjugate of the
  joint cumulant and as the explicit case split
  y L_X*(x/y) + L_N*(y) for y > 0, -L_N(-inf) at the origin, PosInf
  elsewhere.
* ``rate_md_centered_summands`` (a quadratic in x and y, finite on the image
  of the summand covariance) and ``rate_md_centered_sum`` (the same after
  shifting x by y times the summand mean): the moderate-deviation rates.
* ``md_quadratic_finite_support``: the closed-form moderate-deviation
  quadratic for finite-support summands via mixture coefficients.
* exact limiting and finite-n moments of the pair, used as Monte Carlo
  oracles.

Everything here is pure: models are immutable and the optimizer keeps only
local state, so concurrent evaluation across queries is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualpair import POS_INF, CovarianceOperator, ExtendedReal, as_vector, pair
from .errors import (
    InconclusiveOptimizationError,
    NoRootError,
    UnsupportedModelError,
    ValidationError,
)
from .summands import FiniteSupportSummands

# Newton solver: Armijo sufficient-increase fraction, iteration budget,
# gradient norm and relative Newton decrement that accept a maximizer, and
# the iterate norm past which the rising supremum is declared unbounded.
ARMIJO_C = 1e-4
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-8
DECREMENT_TOLERANCE = 1e-15
DIVERGENCE_THRESHOLD = 1e8
# Levenberg shift: starts at DAMPING_FLOOR (1 + max |diag H|), grows by
# DAMPING_FACTOR (to at least that floor) per rejected step and shrinks by
# it per accepted one, so steps along a saturated cumulant grow geometrically.
DAMPING_FLOOR = 1e-10
DAMPING_FACTOR = 4.0
# Tolerance of the (x, y) = (origin, 0) membership test in the explicit rate.
ORIGIN_TOL = 1e-10
# Midpoint-convexity slack for the probe of user-supplied functions.
CONVEXITY_SLACK = 1e-8
# Evaluation failures that mark a point as outside the function's domain.
_DOMAIN_ERRORS = (OverflowError, ValidationError, NoRootError)


@dataclass(frozen=True)
class LegendreResult:
    """Outcome of a conjugate evaluation.

    ``value`` is the supremum (PosInf when the divergence test fired, in
    which case ``argmax`` is None and ``unbounded`` is True); ``argmax`` is
    the maximizer otherwise.
    """

    value: ExtendedReal
    argmax: np.ndarray | None
    iterations: int
    gradient_norm: float
    unbounded: bool


def probe_convexity(f, dim, segments=6, radius=1.5, slack=CONVEXITY_SLACK):
    """Midpoint-convexity smoke check of f on random segments.

    Deterministically seeded; segments where f is unavailable (domain error
    or non-finite value) are skipped, so a partial domain passes vacuously.
    Returns False only on a clear violation.
    """
    rng = np.random.default_rng(20240917)
    for _ in range(segments):
        a = rng.uniform(-radius, radius, size=dim)
        b = rng.uniform(-radius, radius, size=dim)
        try:
            fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
        except Exception:
            continue
        if not (math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fm)):
            continue
        if fm > 0.5 * (fa + fb) + slack:
            return False
    return True


def legendre_transform(f, grad_f, hess_f, z):
    """Maximize <theta, z> - f(theta) for smooth convex f from theta = 0.

    Levenberg-damped Newton on the analytic gradient and Hessian of f: each
    step solves (H + mu I) s = g with g = z - grad f, raising mu until the
    step gives an Armijo increase. The maximizer is accepted once |g| or
    the undamped Newton decrement g.H^{-1}g (Boyd & Vandenberghe, Convex
    Optimization, sec. 9.5) is small; the decrement also ends solves whose
    gradient bottoms out in rounding. Since every step climbs, an iterate
    beyond DIVERGENCE_THRESHOLD or an objective overflowing upward means
    the supremum is PosInf. Points where f or its derivatives overflow or
    leave their domain are rejected steps. Running out of iterations or
    damping the step to nothing raises InconclusiveOptimizationError with
    the best value found. A deterministic midpoint probe rejects obvious
    non-convex f up front.
    """
    target = np.atleast_1d(np.asarray(z, dtype=float))
    if target.ndim != 1 or not np.all(np.isfinite(target)):
        raise ValidationError("transform point must be a finite vector or scalar")
    dim = target.size
    if not probe_convexity(f, dim):
        raise ValidationError(
            "function fails the midpoint convexity probe; the conjugate of a "
            "non-convex function is outside this optimizer's contract"
        )

    def objective(point):
        try:
            value = float(target @ point) - f(point)
        except _DOMAIN_ERRORS:
            return -math.inf
        return value if not math.isnan(value) else -math.inf

    def derivatives(point):
        """Gradient of the objective and Hessian of f; None off the domain."""
        try:
            grad = target - np.asarray(grad_f(point), dtype=float)
            hess = np.atleast_2d(np.asarray(hess_f(point), dtype=float))
        except _DOMAIN_ERRORS:
            return None
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            return None
        return grad, hess

    theta = np.zeros(dim)
    value = objective(theta)
    start = derivatives(theta)
    if not math.isfinite(value) or start is None:
        raise ValidationError("objective is undefined at the origin")
    grad, hess = start
    eye = np.eye(dim)
    damping = _damping_floor(hess)
    iterations = 0
    while True:
        gnorm = float(np.linalg.norm(grad))
        if gnorm < GRADIENT_TOLERANCE or _decrement(hess, grad) <= (
            DECREMENT_TOLERANCE * (1.0 + abs(value))
        ):
            return LegendreResult(
                ExtendedReal(value), theta.copy(), iterations, gnorm, False
            )
        if iterations >= MAX_ITERATIONS:
            reason = "iteration limit reached"
            break
        iterations += 1
        accepted = None
        while accepted is None and math.isfinite(damping):
            try:
                step = np.linalg.solve(hess + damping * eye, grad)
            except np.linalg.LinAlgError:
                damping = max(DAMPING_FACTOR * damping, _damping_floor(hess))
                continue
            candidate = theta + step
            if np.array_equal(candidate, theta):
                break
            cand_value = objective(candidate)
            if cand_value == math.inf:
                return LegendreResult(POS_INF, None, iterations, gnorm, True)
            if cand_value >= value + ARMIJO_C * float(grad @ step):
                accepted = derivatives(candidate)
            if accepted is None:
                damping = max(DAMPING_FACTOR * damping, _damping_floor(hess))
        if accepted is None:
            reason = "damped step vanished"
            break
        theta, value, (grad, hess) = candidate, cand_value, accepted
        damping /= DAMPING_FACTOR
        if float(np.linalg.norm(theta)) > DIVERGENCE_THRESHOLD:
            gnorm = float(np.linalg.norm(grad))
            return LegendreResult(POS_INF, None, iterations, gnorm, True)

    raise InconclusiveOptimizationError(
        f"conjugate maximization inconclusive ({reason}; gradient norm "
        f"{gnorm:.3e} after {iterations} iterations)",
        best_value=value,
        best_point=theta.copy(),
        gradient_norm=gnorm,
        iterations=iterations,
    )


def _damping_floor(hess):
    return DAMPING_FLOOR * (1.0 + float(np.max(np.abs(np.diag(hess)))))


def _decrement(hess, grad):
    """Undamped Newton decrement g.H^{-1}g; inf where H is singular or the
    decrement is not a positive number."""
    try:
        decrement = float(grad @ np.linalg.solve(hess, grad))
    except np.linalg.LinAlgError:
        return math.inf
    return decrement if decrement >= 0.0 else math.inf


def count_rate(mn, y):
    """Conjugate of the limiting count cumulant at y (the count-marginal rate).

    Nonnegative, zero at the limiting mean rate; PosInf outside the range of
    the count rate (below zero, and above the largest rate of bounded
    kinds), where the supremum diverges.
    """
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")

    def f(point):
        return mn.limit_cgf(float(point[0]))

    def grad(point):
        return np.array([mn.limit_cgf_deriv(float(point[0]))])

    def hess(point):
        return np.array([[mn.limit_cgf_second(float(point[0]))]])

    return legendre_transform(f, grad, hess, [float(y)])


def joint_cumulant(mx, mn):
    """Limiting scaled cumulant of the pair, L_N(eta + L_X(theta)), as
    (f, grad f, hess f) on p = (theta, eta).

    By the chain rule, with s = eta + L_X(theta) and v = (grad L_X, 1), the
    gradient is L_N'(s) v and the Hessian
    L_N''(s) v v^T + L_N'(s) diag(hess L_X, 0).
    """
    dim = mx.dim

    def f(point):
        return mn.limit_cgf(float(point[dim]) + mx.cgf(point[:dim]))

    def grad(point):
        slope = mn.limit_cgf_deriv(float(point[dim]) + mx.cgf(point[:dim]))
        return np.concatenate([slope * mx.cgf_grad(point[:dim]), [slope]])

    def hess(point):
        s = float(point[dim]) + mx.cgf(point[:dim])
        v = np.append(mx.cgf_grad(point[:dim]), 1.0)
        out = mn.limit_cgf_second(s) * np.outer(v, v)
        out[:dim, :dim] += mn.limit_cgf_deriv(s) * mx.cgf_hess(point[:dim])
        return out

    return f, grad, hess


def joint_cgf(mx, mn, theta, eta):
    """Value of the joint cumulant at (theta, eta)."""
    t = as_vector(theta, dim=mx.dim, name="theta")
    f, _, _ = joint_cumulant(mx, mn)
    return f(np.append(t, float(eta)))


def rate_ld_variational(mx, mn, x, y):
    """Large-deviation rate of the pair: the conjugate of the joint cumulant
    over (theta, eta)."""
    vec = as_vector(x, dim=mx.dim, name="x")
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")
    return legendre_transform(
        *joint_cumulant(mx, mn), np.concatenate([vec, [float(y)]])
    )


def _summand_conjugate(mx, point):
    closed = mx.conjugate_closed_form(point)
    if closed is not None:
        return closed
    return legendre_transform(mx.cgf, mx.cgf_grad, mx.cgf_hess, point).value


def rate_ld_explicit(mx, mn, x, y):
    """Large-deviation rate of the pair by the explicit case split.

    y > 0: y * (summand conjugate at x/y) + count rate at y, using the
    closed-form summand conjugate when the model carries one. Exactly the
    origin (within 1e-10 in max norm): minus the left-tail limit of the
    count cumulant. Everything else: PosInf. Small positive y is evaluated
    exactly as written; no smoothing is applied near the origin.
    """
    vec = as_vector(x, dim=mx.dim, name="x")
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")
    if max(abs(float(y)), float(np.max(np.abs(vec))) if vec.size else 0.0) <= ORIGIN_TOL:
        return -mn.derivs_at_zero().cgf_at_minus_inf
    if y > 0:
        conjugate = _summand_conjugate(mx, vec / float(y))
        count_part = count_rate(mn, float(y)).value
        return ExtendedReal(float(y)) * conjugate + count_part
    return POS_INF


def psi_sn(mx, mn, theta, eta):
    """Limiting quadratic cumulant of the centered pair:
    d1 <theta, Sigma theta>/2 + d2 eta^2 / 2."""
    t = as_vector(theta, dim=mx.dim, name="theta")
    d = mn.derivs_at_zero()
    cov = mx.cov()
    return 0.5 * d.mean_rate * cov.quadratic_form(t) + 0.5 * d.variance_rate * float(
        eta
    ) ** 2


def psi_sn_mean_shifted(mx, mn, theta, eta):
    """The same quadratic with eta shifted by <theta, summand mean>; the
    cumulant matching the centered compound sum rather than centered summands."""
    t = as_vector(theta, dim=mx.dim, name="theta")
    return psi_sn(mx, mn, t, float(eta) + pair(t, mx.mean()))


def _md_derivs(mn):
    d = mn.derivs_at_zero()
    if d.variance_rate <= 0.0:
        raise ValidationError(
            "moderate-deviation rates require a positive limiting count "
            f"variance rate; got {d.variance_rate}"
        )
    return d


def rate_md_centered_summands(mx, mn, x, y):
    """Moderate-deviation rate of (centered-summand sum, centered count).

    Quadratic <x, pseudo-inverse(Sigma) x>/(2 d1) + y^2/(2 d2) on the image
    of the summand covariance, PosInf off it; with a degenerate d1 = 0 the x
    slot must vanish.
    """
    d = _md_derivs(mn)
    vec = as_vector(x, dim=mx.dim, name="x")
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")
    count_part = float(y) ** 2 / (2.0 * d.variance_rate)
    if d.mean_rate == 0.0:
        if vec.size == 0 or float(np.max(np.abs(vec))) <= ORIGIN_TOL:
            return ExtendedReal(count_part)
        return POS_INF
    cov = mx.cov()
    pre = cov.solve(vec)
    if pre is None:
        return POS_INF
    quad = max(float(pre @ vec), 0.0)
    return ExtendedReal(quad / (2.0 * d.mean_rate) + count_part)


def rate_md_centered_sum(mx, mn, x, y):
    """Moderate-deviation rate of the centered compound sum: the previous
    rate evaluated at (x - y * summand mean, y); same code path."""
    vec = as_vector(x, dim=mx.dim, name="x")
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")
    return rate_md_centered_summands(mx, mn, vec - float(y) * mx.mean(), y)


def _md_conjugate(mx, mn, x, y, shifted):
    """Conjugate of the quadratic psi_sn(theta, eta) = p.Q p / 2, p = (theta,
    eta); the mean-shifted form substitutes eta + <theta, mu> for eta, which
    turns Q into A^T Q A with A = [[I, 0], [mu^T, 1]]."""
    d = _md_derivs(mn)
    vec = as_vector(x, dim=mx.dim, name="x")
    dim = mx.dim
    quad = np.zeros((dim + 1, dim + 1))
    quad[:dim, :dim] = d.mean_rate * mx.cov().matrix
    quad[dim, dim] = d.variance_rate
    if shifted:
        shift = np.eye(dim + 1)
        shift[dim, :dim] = mx.mean()
        quad = shift.T @ quad @ shift
    return legendre_transform(
        lambda p: 0.5 * float(p @ quad @ p), lambda p: quad @ p,
        lambda p: quad, np.append(vec, float(y)),
    )


def rate_md_centered_summands_variational(mx, mn, x, y):
    """Conjugate form of rate_md_centered_summands, for cross-checking."""
    return _md_conjugate(mx, mn, x, y, shifted=False)


def rate_md_centered_sum_variational(mx, mn, x, y):
    """Conjugate of the mean-shifted quadratic, for cross-checking the
    contraction identity."""
    return _md_conjugate(mx, mn, x, y, shifted=True)


def md_quadratic_finite_support(mx, mn, x):
    """Closed-form moderate-deviation quadratic for finite-support summands.

    Decomposes x over the atoms; finite exactly when the coefficients sum to
    zero (x lies in the span of atom differences), where it equals
    sum over j < m of c_j (c_j/p_j - c_m/p_m) divided by 2 d1.
    """
    if not isinstance(mx, FiniteSupportSummands):
        raise UnsupportedModelError(
            "the closed-form moderate-deviation quadratic requires a "
            "finite-support summand law"
        )
    d = _md_derivs(mn)
    if d.mean_rate <= 0.0:
        raise ValidationError(
            "the closed-form quadratic requires a positive limiting count mean rate"
        )
    coeffs, centered = mx.centered_decompose(x)
    if not centered:
        return POS_INF
    probs = mx.probs
    if coeffs.size == 1:
        return ExtendedReal(0.0)
    head, last = coeffs[:-1], float(coeffs[-1]) / float(probs[-1])
    value = float(np.sum(head * (head / probs[:-1] - last)))
    return ExtendedReal(max(value, 0.0) / (2.0 * d.mean_rate))


@dataclass(frozen=True)
class LimitMoments:
    """Moments of the scaled pair in directions (u, v): either the limits or
    the exact n-scaled values at a fixed n (covariances multiplied by n)."""

    mean_S_dir: float
    mean_N: float
    cov_SS: float
    cov_NS: float
    var_N: float


def _pair_moments(mx, mean, var, u, v):
    """The five moments of the pair in directions (u, v) from the scaled
    count mean and variance and the summand mean and covariance."""
    uu = as_vector(u, dim=mx.dim, name="u")
    vv = as_vector(v, dim=mx.dim, name="v")
    mu = mx.mean()
    u_mu, v_mu = pair(uu, mu), pair(vv, mu)
    return LimitMoments(
        mean_S_dir=mean * v_mu,
        mean_N=mean,
        cov_SS=mean * float(uu @ mx.cov().apply(vv)) + var * u_mu * v_mu,
        cov_NS=var * v_mu,
        var_N=var,
    )


def analytic_limit_moments(mx, mn, u, v):
    """The five limiting moment values: the pair moments at the count's
    limiting mean and variance rates d1, d2."""
    d = mn.derivs_at_zero()
    return _pair_moments(mx, d.mean_rate, d.variance_rate, u, v)


def finite_n_moment_identities(mx, mn, n, u, v):
    """Exact finite-n analogues of the limiting moments, in the same
    LimitMoments layout, from the exact mean and variance of the count; the
    Monte Carlo oracle at fixed n.

    Raises the counting model's unsupported-model error for kinds without
    exact count moments (renewal).
    """
    return _pair_moments(mx, mn.mean(n) / float(n), mn.var(n) / float(n), u, v)
