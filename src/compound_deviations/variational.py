"""Convex-conjugate machinery and the rate functions of the compound-sum LDP.

The central tool is ``legendre_transform``: a gradient-ascent maximizer of
theta -> <theta, z> - f(theta) for a smooth convex f, with backtracking line
search, optional Newton polish, and a divergence policy that turns genuinely
unbounded suprema into PosInf instead of an iteration-limit error.

On top of it sit the rate functions:

* ``rate_ld_variational`` and ``rate_ld_explicit``: the large-deviation rate
  of the pair (scaled compound sum, scaled count), as a joint conjugate of
  the composed cumulant and as the explicit case split
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
from .summands import FiniteSupportSummands, GridFunctionSummands

# Armijo sufficient-increase fraction for the backtracking line search.
ARMIJO_C = 1e-4
# Smallest step tried before the line search gives up.
MIN_STEP = 1e-18
# Gradient norm below which the Newton polish kicks in.
POLISH_GRADIENT_NORM = 1e-3
# Iterations of objective history consulted by the divergence test.
DIVERGENCE_LOOKBACK = 10
# Tolerance of the (x, y) = (origin, 0) membership test in the explicit rate.
ORIGIN_TOL = 1e-10
# Midpoint-convexity slack for the probe of user-supplied functions.
CONVEXITY_SLACK = 1e-8


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the conjugate maximizer; defaults suit desk-scale problems."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    divergence_threshold: float = 1e4
    initial_step: float = 1.0
    newton_polish: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")
        for name in ("gradient_tolerance", "divergence_threshold", "initial_step"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValidationError(f"{name} must be positive, got {value!r}")


DEFAULT_SETTINGS = OptimizerSettings()


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


def _fd_hessian(grad_f, theta):
    dim = theta.size
    step = 1e-6 * (1.0 + float(np.linalg.norm(theta)))
    hess = np.empty((dim, dim))
    for j in range(dim):
        offset = np.zeros(dim)
        offset[j] = step
        hess[:, j] = (grad_f(theta + offset) - grad_f(theta - offset)) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def legendre_transform(f, grad_f, z, settings=None, hess_f=None):
    """Maximize <theta, z> - f(theta) for smooth convex f from theta = 0.

    Gradient ascent with a doubling/backtracking (Armijo) line search;
    convergence is declared when the gradient norm drops below the
    tolerance, optionally polished by Newton steps (analytic Hessian when
    supplied, symmetrized finite differences of the gradient otherwise).

    The supremum is declared unbounded, with value PosInf, when the iterate
    norm exceeds the divergence threshold while the objective has kept
    increasing over the recent history. Running out of iterations without
    either verdict raises InconclusiveOptimizationError carrying the best
    value found, so the caller can decide.

    Convexity of f is the caller's responsibility; a cheap deterministic
    midpoint probe rejects obvious violations up front.
    """
    settings = settings or DEFAULT_SETTINGS
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
            value = f(point)
        except (OverflowError, ValidationError, NoRootError):
            return -math.inf
        if not math.isfinite(value):
            return -math.inf
        return float(target @ point) - value

    def gradient(point):
        return target - np.asarray(grad_f(point), dtype=float)

    theta = np.zeros(dim)
    value = objective(theta)
    if not math.isfinite(value):
        raise ValidationError("objective is undefined at the origin")
    grad = gradient(theta)
    gnorm = float(np.linalg.norm(grad))
    history = [value]
    step = settings.initial_step
    iterations = 0
    stalled = False

    while iterations < settings.max_iterations:
        if gnorm < settings.gradient_tolerance:
            break
        iterations += 1
        trial = step
        while trial >= MIN_STEP:
            candidate = theta + trial * grad
            cand_value = objective(candidate)
            if cand_value >= value + ARMIJO_C * trial * gnorm * gnorm:
                theta, value = candidate, cand_value
                step = 2.0 * trial
                break
            trial *= 0.5
        else:
            stalled = True
            break
        history.append(value)
        try:
            grad = gradient(theta)
        except (OverflowError, ValidationError, NoRootError):
            stalled = True
            break
        gnorm = float(np.linalg.norm(grad))
        if float(np.linalg.norm(theta)) > settings.divergence_threshold:
            lookback = history[-(DIVERGENCE_LOOKBACK + 1)] if len(
                history
            ) > DIVERGENCE_LOOKBACK else history[0]
            if history[-1] > lookback:
                return LegendreResult(POS_INF, None, iterations, gnorm, True)

    if settings.newton_polish and gnorm < POLISH_GRADIENT_NORM:
        theta, value, gnorm = _newton_polish(
            objective, gradient, hess_f or (lambda p: _fd_hessian(grad_f, p)),
            theta, value, gnorm, settings,
        )

    if gnorm < settings.gradient_tolerance:
        return LegendreResult(
            ExtendedReal(value), theta.copy(), iterations, gnorm, False
        )
    reason = "stalled line search" if stalled else "iteration limit reached"
    raise InconclusiveOptimizationError(
        f"conjugate maximization inconclusive ({reason}; gradient norm "
        f"{gnorm:.3e} after {iterations} iterations)",
        best_value=value,
        best_point=theta.copy(),
        gradient_norm=gnorm,
        iterations=iterations,
    )


def _newton_polish(objective, gradient, hess_f, theta, value, gnorm, settings):
    for _ in range(25):
        if gnorm < settings.gradient_tolerance:
            break
        try:
            hess = np.atleast_2d(np.asarray(hess_f(theta), dtype=float))
            delta = np.linalg.solve(hess, gradient(theta))
        except (np.linalg.LinAlgError, OverflowError, ValidationError, NoRootError):
            break
        candidate = theta + delta
        cand_value = objective(candidate)
        if not math.isfinite(cand_value):
            break
        try:
            cand_grad = gradient(candidate)
        except (OverflowError, ValidationError, NoRootError):
            break
        cand_gnorm = float(np.linalg.norm(cand_grad))
        if cand_gnorm >= gnorm:
            break
        theta, value, gnorm = candidate, cand_value, cand_gnorm
    return theta, value, gnorm


def count_rate(mn, y, settings=None):
    """Conjugate of the limiting count cumulant at y (the count-marginal rate).

    Nonnegative, zero at the limiting mean rate; PosInf below zero, where
    the supremum diverges (caught by the optimizer's divergence test).
    """
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")

    def f(point):
        return mn.limit_cgf(float(point[0]))

    def grad(point):
        return np.array([mn.limit_cgf_deriv(float(point[0]))])

    return legendre_transform(f, grad, [float(y)], settings=settings)


def joint_cgf(mx, mn, theta, eta):
    """Limiting scaled cumulant of the pair: count cumulant composed with
    eta plus the summand cumulant."""
    t = as_vector(theta, dim=mx.dim, name="theta")
    return mn.limit_cgf(float(eta) + mx.cgf(t))


def rate_ld_variational(mx, mn, x, y, settings=None):
    """Large-deviation rate of the pair as a joint conjugate over (theta, eta)."""
    vec = as_vector(x, dim=mx.dim, name="x")
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError(f"y must be a finite real, got {y!r}")
    dim = mx.dim

    def f(point):
        return mn.limit_cgf(float(point[dim]) + mx.cgf(point[:dim]))

    def grad(point):
        slope = mn.limit_cgf_deriv(float(point[dim]) + mx.cgf(point[:dim]))
        return np.concatenate([slope * mx.cgf_grad(point[:dim]), [slope]])

    return legendre_transform(
        f, grad, np.concatenate([vec, [float(y)]]), settings=settings
    )


def _summand_conjugate(mx, point, settings=None):
    closed = mx.conjugate_closed_form(point)
    if closed is not None:
        return closed
    return legendre_transform(mx.cgf, mx.cgf_grad, point, settings=settings).value


def rate_ld_explicit(mx, mn, x, y, settings=None):
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
        conjugate = _summand_conjugate(mx, vec / float(y), settings)
        count_part = count_rate(mn, float(y), settings).value
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


def rate_md_centered_summands_variational(mx, mn, x, y, settings=None):
    """Conjugate form of rate_md_centered_summands, for cross-checking."""
    d = _md_derivs(mn)
    vec = as_vector(x, dim=mx.dim, name="x")
    cov = mx.cov()
    dim = mx.dim

    def f(point):
        return 0.5 * d.mean_rate * cov.quadratic_form(point[:dim]) + (
            0.5 * d.variance_rate * point[dim] ** 2
        )

    def grad(point):
        return np.concatenate(
            [d.mean_rate * cov.apply(point[:dim]), [d.variance_rate * point[dim]]]
        )

    def hess(point):
        out = np.zeros((dim + 1, dim + 1))
        out[:dim, :dim] = d.mean_rate * cov.matrix
        out[dim, dim] = d.variance_rate
        return out

    return legendre_transform(
        f, grad, np.concatenate([vec, [float(y)]]), settings=settings, hess_f=hess
    )


def rate_md_centered_sum_variational(mx, mn, x, y, settings=None):
    """Conjugate of the mean-shifted quadratic, for cross-checking the
    contraction identity."""
    d = _md_derivs(mn)
    vec = as_vector(x, dim=mx.dim, name="x")
    cov = mx.cov()
    mu = mx.mean()
    dim = mx.dim

    def f(point):
        shifted = point[dim] + float(point[:dim] @ mu)
        return 0.5 * d.mean_rate * cov.quadratic_form(point[:dim]) + (
            0.5 * d.variance_rate * shifted ** 2
        )

    def grad(point):
        shifted = point[dim] + float(point[:dim] @ mu)
        return np.concatenate(
            [
                d.mean_rate * cov.apply(point[:dim]) + d.variance_rate * shifted * mu,
                [d.variance_rate * shifted],
            ]
        )

    def hess(point):
        out = np.zeros((dim + 1, dim + 1))
        out[:dim, :dim] = d.mean_rate * cov.matrix + d.variance_rate * np.outer(mu, mu)
        out[:dim, dim] = d.variance_rate * mu
        out[dim, :dim] = d.variance_rate * mu
        out[dim, dim] = d.variance_rate
        return out

    return legendre_transform(
        f, grad, np.concatenate([vec, [float(y)]]), settings=settings, hess_f=hess
    )


def md_quadratic_finite_support(mx, mn, x):
    """Closed-form moderate-deviation quadratic for finite-support summands.

    Decomposes x over the atoms; finite exactly when the coefficients sum to
    zero (x lies in the span of atom differences), where it equals
    sum over j < m of c_j (c_j/p_j - c_m/p_m) divided by 2 d1.
    """
    base = mx.base if isinstance(mx, GridFunctionSummands) else mx
    if not isinstance(base, FiniteSupportSummands):
        raise UnsupportedModelError(
            "the closed-form moderate-deviation quadratic requires a "
            "finite-support summand law"
        )
    d = _md_derivs(mn)
    if d.mean_rate <= 0.0:
        raise ValidationError(
            "the closed-form quadratic requires a positive limiting count mean rate"
        )
    coeffs, centered = base.centered_decompose(x)
    if not centered:
        return POS_INF
    probs = base.probs
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


def analytic_limit_moments(mx, mn, u, v):
    """The five limiting moment values assembled from d1, d2, the summand
    mean, and the summand covariance."""
    uu = as_vector(u, dim=mx.dim, name="u")
    vv = as_vector(v, dim=mx.dim, name="v")
    d = mn.derivs_at_zero()
    mu = mx.mean()
    cov = mx.cov()
    u_mu, v_mu = pair(uu, mu), pair(vv, mu)
    return LimitMoments(
        mean_S_dir=d.mean_rate * v_mu,
        mean_N=d.mean_rate,
        cov_SS=d.variance_rate * u_mu * v_mu + d.mean_rate * float(uu @ cov.apply(vv)),
        cov_NS=d.variance_rate * v_mu,
        var_N=d.variance_rate,
    )


def finite_n_moment_identities(mx, mn, n, u, v):
    """Exact finite-n analogues of the limiting moments, in the same
    LimitMoments layout, from the exact mean and variance of the count; the
    Monte Carlo oracle at fixed n.

    Raises the counting model's unsupported-model error for kinds without
    exact count moments (renewal).
    """
    uu = as_vector(u, dim=mx.dim, name="u")
    vv = as_vector(v, dim=mx.dim, name="v")
    mean_scaled = mn.mean(n) / float(n)
    var_scaled = mn.var(n) / float(n)
    mu = mx.mean()
    cov = mx.cov()
    u_mu, v_mu = pair(uu, mu), pair(vv, mu)
    return LimitMoments(
        mean_S_dir=mean_scaled * v_mu,
        mean_N=mean_scaled,
        cov_SS=mean_scaled * float(uu @ cov.apply(vv)) + var_scaled * u_mu * v_mu,
        cov_NS=var_scaled * v_mu,
        var_N=var_scaled,
    )
