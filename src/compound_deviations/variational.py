"""Convex-conjugate machinery and the rate functions of the compound-sum LDP.

The central tool, and the package's one conjugate solver, is
``legendre_transform``: a damped Newton maximizer of theta -> <theta, z> -
f(theta) for a smooth convex f with an analytic Hessian (composed by the
chain rule from the summand ``cgf_hess`` and the counting
``limit_cgf_second``), whose divergence policy turns genuinely unbounded
suprema into +inf instead of an iteration-limit error. It conjugates a
``Cumulant``: f, its gradient, its Hessian and its dimension, probed for
convexity once when built. Each model holds its own as ``cumulant``, so a
grid of rates probes each function once. Rates are plain floats, +inf
included.

On top of it sit the rate functions:

* ``joint_cumulant``: the pair's cumulant L_N(eta + L_X(theta)) with its
  gradient and Hessian, behind ``rate_ld_variational`` and
  ``montecarlo.tilt_parameters``.
* ``rate_ld_variational`` and ``rate_ld_explicit``: the large-deviation rate
  of the pair (scaled compound sum, scaled count), as the conjugate of the
  joint cumulant and as the explicit case split
  y L_X*(x/y) + L_N*(y) for y > 0, -L_N(-inf) at the origin, +inf
  elsewhere.
* ``pair_covariance``: the covariance of the scaled pair from the summand
  covariance and mean and the count rates d1, d2, with the summands centred
  (C0) or the compound sum (C1). ``psi_sn`` is the quadratic of C0 and
  ``rate_md_centered_summands`` its conjugate, finite on the image of C0,
  whose pseudo-inverse it takes block by block; ``rate_md_centered_sum``
  is the same after shifting x by y times the summand mean, the one route
  of each moderate-deviation rate. C1 at the exact count moments E N_n/n,
  Var N_n/n, and at d1, d2, is also every target of the Monte Carlo moment
  and CLT checks.

Every rate function is row-wise: it takes one point (x in R^h, a real y)
or a stack of P points (x of shape (P, h), P values of y), checked once and
evaluated at once, with one closed-form or covariance solve for all rows
and one probed ``Cumulant`` per call; one point is the one-row case. A
``rate-eval`` table is one call per column.

Everything here is pure: models are immutable and the optimizer keeps only
local state, so concurrent evaluation across queries is safe. The one
stored result is the count-rate memo: ``count_rate`` keeps each solve in
the counting model it belongs to, keyed by y, so a rate grid solves the
count rate once per y.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dualpair import _dot_rows, as_vector, finite_real
from .errors import (
    DimensionMismatchError,
    InconclusiveOptimizationError,
    NoRootError,
    ValidationError,
)

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
# Midpoint-convexity probe of user-supplied functions: CONVEXITY_SEGMENTS
# random segments with ends in [-CONVEXITY_RADIUS, CONVEXITY_RADIUS]^dim; a
# midpoint more than CONVEXITY_SLACK above its chord is a violation.
CONVEXITY_SEGMENTS = 6
CONVEXITY_RADIUS = 1.5
CONVEXITY_SLACK = 1e-8
# Evaluation failures that mark a point as outside the function's domain.
_DOMAIN_ERRORS = (OverflowError, ValidationError, NoRootError)


@dataclass(frozen=True)
class LegendreResult:
    """Outcome of a conjugate evaluation.

    ``value`` is the supremum (math.inf when the divergence test fired, in
    which case ``argmax`` is None and ``unbounded`` is True); ``argmax`` is
    the maximizer otherwise.
    """

    value: float
    argmax: np.ndarray | None
    iterations: int
    gradient_norm: float
    unbounded: bool


def probe_convexity(f, dim):
    """Midpoint-convexity smoke check of f on random segments.

    Deterministically seeded; segments where f is unavailable (domain error
    or non-finite value) are skipped, so a partial domain passes vacuously.
    Returns False only on a clear violation.
    """
    rng = np.random.default_rng(20240917)
    for _ in range(CONVEXITY_SEGMENTS):
        a = rng.uniform(-CONVEXITY_RADIUS, CONVEXITY_RADIUS, size=dim)
        b = rng.uniform(-CONVEXITY_RADIUS, CONVEXITY_RADIUS, size=dim)
        try:
            fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
        except Exception:
            continue
        if not (math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fm)):
            continue
        if fm > 0.5 * (fa + fb) + CONVEXITY_SLACK:
            return False
    return True


@dataclass(frozen=True)
class Cumulant:
    """A smooth convex function f on R^dim with its analytic gradient and
    Hessian: what ``legendre_transform`` conjugates.

    Building one runs ``probe_convexity`` once and raises ValidationError on
    a clear violation, so a function conjugated at many points is probed
    once.
    """

    f: Callable
    grad: Callable
    hess: Callable
    dim: int

    def __post_init__(self):
        if not probe_convexity(self.f, self.dim):
            raise ValidationError(
                "function fails the midpoint convexity probe; the conjugate of a "
                "non-convex function is outside this optimizer's contract"
            )


def legendre_transform(cumulant, z):
    """Maximize <theta, z> - f(theta) for the ``Cumulant`` f from theta = 0.

    Levenberg-damped Newton on the analytic gradient and Hessian of f: each
    step solves (H + mu I) s = g with g = z - grad f, raising mu until the
    step gives an Armijo increase. The maximizer is accepted once |g| or
    the undamped Newton decrement g.H^{-1}g (Boyd & Vandenberghe, Convex
    Optimization, sec. 9.5) is small; the decrement also ends solves whose
    gradient bottoms out in rounding. Since every step climbs, an iterate
    beyond DIVERGENCE_THRESHOLD or an objective overflowing upward means
    the supremum is +inf. Points where f or its derivatives overflow or
    leave their domain are rejected steps. Running out of iterations or
    damping the step to nothing raises InconclusiveOptimizationError with
    the best value found.
    """
    target = np.atleast_1d(np.asarray(z, dtype=float))
    if target.ndim != 1 or not np.all(np.isfinite(target)):
        raise ValidationError("transform point must be a finite vector or scalar")
    dim = target.size
    if dim != cumulant.dim:
        raise DimensionMismatchError(
            f"transform point has length {dim}, the cumulant lives in "
            f"R^{cumulant.dim}"
        )
    f, grad_f, hess_f = cumulant.f, cumulant.grad, cumulant.hess

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
            return LegendreResult(value, theta.copy(), iterations, gnorm, False)
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
                return LegendreResult(math.inf, None, iterations, gnorm, True)
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
            return LegendreResult(math.inf, None, iterations, gnorm, True)

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

    Nonnegative, zero at the limiting mean rate; +inf outside the range of
    the count rate (below zero, and above the largest rate of bounded
    kinds), where the supremum diverges. Memoised per model and y, next to
    the model's per-n tables; the stored argmax is read-only.
    """
    y = finite_real(y, "y")
    rates = mn.__dict__.setdefault("_rates", {})
    if y not in rates:
        result = legendre_transform(mn.cumulant, [y])
        if result.argmax is not None:
            result.argmax.flags.writeable = False
        rates[y] = result
    return rates[y]


def joint_cumulant(mx, mn):
    """Limiting scaled cumulant of the pair, L_N(eta + L_X(theta)), as
    (f, grad f, hess f) on p = (theta, eta). Unprobed: the variational rate
    wraps it in a ``Cumulant``, the tilt search restricts it to a ray first.

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


def _points(mx, x, y):
    """(xs, ys, one): one point (x by ``as_vector``, y by ``finite_real``)
    or a stack (x of shape (P, h), P values of y, checked once) as a
    (P, h) and a (P,) array; one marks the single point."""
    if np.ndim(x) != 2:
        vec = as_vector(x, dim=mx.dim, name="x")
        return vec[None], np.array([finite_real(y, "y")]), True
    xs = np.array(x, dtype=float)
    if xs.shape[1] != mx.dim:
        raise DimensionMismatchError(
            f"x rows have length {xs.shape[1]}, expected {mx.dim}"
        )
    as_vector(xs.ravel(), name="x")  # nonempty and finite
    return xs, as_vector(y, dim=xs.shape[0], name="y"), False


def rate_ld_variational(mx, mn, x, y):
    """Large-deviation rate of the pair: the conjugate of the joint cumulant
    over (theta, eta). A stack of points gives one result per row, all from
    one ``Cumulant``, so the joint cumulant is probed once per call."""
    xs, ys, one = _points(mx, x, y)
    cumulant = Cumulant(*joint_cumulant(mx, mn), mx.dim + 1)
    results = [legendre_transform(cumulant, np.append(x, y)) for x, y in zip(xs, ys)]
    return results[0] if one else results


def _summand_conjugate(mx, points):
    """The summand conjugate at each row of a stack: the model's closed form
    when it has one, else one ``legendre_transform`` per row."""
    if not np.all(np.isfinite(points)):
        raise ValidationError("x / y must be finite")
    closed = mx._conjugate_rows(points)
    if closed is not None:
        return closed
    return np.array([legendre_transform(mx.cumulant, p).value for p in points])


def rate_ld_explicit(mx, mn, x, y):
    """Large-deviation rate of the pair by the explicit case split.

    y > 0: y * (summand conjugate at x/y) + count rate at y, using the
    closed-form summand conjugate when the model carries one. Exactly the
    origin (within 1e-10 in max norm): minus the left-tail limit of the
    count cumulant. Everything else: +inf. Small positive y is evaluated
    exactly as written; no smoothing is applied near the origin.

    x and y may also be a stack of P points (x of shape (P, h), P values of
    y), evaluated at once into an array of P rates; one point gives a float.
    """
    xs, ys, one = _points(mx, x, y)
    rates = np.full(ys.size, math.inf)
    origin = np.maximum(np.abs(ys), np.max(np.abs(xs), axis=1)) <= ORIGIN_TOL
    if origin.any():
        rates[origin] = -mn.derivs_at_zero().cgf_at_minus_inf
    inner = (ys > 0.0) & ~origin
    if inner.any():
        y_in = ys[inner]
        # Both conjugates are >= 0 (each objective is 0 at the origin), so
        # the product and the sum never meet 0 * inf or inf - inf.
        rates[inner] = (y_in * _summand_conjugate(mx, xs[inner] / y_in[:, None])
                        + [count_rate(mn, level).value for level in y_in])
    return float(rates[0]) if one else rates


def pair_covariance(sigma, mu, d1, d2, centered_sum=False):
    """Covariance array of the scaled pair on R^(h+1) from the summand
    covariance sigma, mean mu and the count rates d1, d2: C0 = diag(d1 sigma,
    d2), or for a centred sum C1 = [[d1 sigma + d2 mu mu^T, d2 mu], [d2 mu^T,
    d2]], built block by block (not as A^T C0 A), so exactly symmetric."""
    mu = np.asarray(mu, dtype=float)
    h = mu.size
    out = np.zeros((h + 1, h + 1))
    out[:h, :h] = d1 * np.asarray(sigma)
    out[h, h] = d2
    if centered_sum:
        out[:h, :h] += d2 * np.outer(mu, mu)
        out[:h, h] = out[h, :h] = d2 * mu
    return out


def psi_sn(mx, mn, theta, eta):
    """Limiting quadratic cumulant of the centered pair: <p, C0 p>/2 at
    p = (theta, eta), that is d1 <theta, Sigma theta>/2 + d2 eta^2 / 2."""
    d = mn.derivs_at_zero()
    p = np.append(as_vector(theta, dim=mx.dim, name="theta"), finite_real(eta, "eta"))
    c0 = pair_covariance(mx.cov().matrix, mx.mean(), d.mean_rate, d.variance_rate)
    return 0.5 * max(0.0, float(p @ c0 @ p))


def psi_sn_mean_shifted(mx, mn, theta, eta):
    """The same quadratic with eta shifted by <theta, summand mean>; the
    cumulant matching the centered compound sum rather than centered summands."""
    t = as_vector(theta, dim=mx.dim, name="theta")
    return psi_sn(mx, mn, t, finite_real(eta, "eta") + float(t @ mx.mean()))


def _md_rate(mx, mn, x, y, shifted):
    """<z, C0^+ z>/2 at each point z = (x, y), or at (x - y mu, y) when
    shifted: d1 and d2 read once, one covariance solve for all rows."""
    d = mn.derivs_at_zero()
    if d.variance_rate <= 0.0:
        raise ValidationError(
            "moderate-deviation rates require a positive limiting count "
            f"variance rate; got {d.variance_rate}"
        )
    xs, ys, one = _points(mx, x, y)
    if shifted:
        xs = xs - ys[:, None] * mx.mean()
    # y ** 2 is the float power, row by row, as the tables have always been
    # computed; the vectorised square y * y differs from it in the last bit
    # for about one y in a thousand.
    count_part = np.array([v ** 2 for v in ys.tolist()]) / (2.0 * d.variance_rate)
    if d.mean_rate == 0.0:
        rates = np.where(np.max(np.abs(xs), axis=1) <= ORIGIN_TOL, count_part, math.inf)
    else:
        pre, in_image = mx.cov()._solve_rows(xs)
        quad = np.maximum(_dot_rows(pre, xs), 0.0)
        rates = np.where(in_image, quad / (2.0 * d.mean_rate) + count_part, math.inf)
    return float(rates[0]) if one else rates


def rate_md_centered_summands(mx, mn, x, y):
    """Moderate-deviation rate of (centered-summand sum, centered count).

    <z, C0^+ z>/2 at z = (x, y), with C0's pseudo-inverse taken block by block
    (each with its own spectral cutoff): <x, Sigma^+ x>/(2 d1) + y^2/(2 d2) on
    the image of Sigma, +inf off it; with d1 = 0 the x slot must vanish. A
    stack of points, as in ``rate_ld_explicit``, gives an array."""
    return _md_rate(mx, mn, x, y, shifted=False)


def rate_md_centered_sum(mx, mn, x, y):
    """Moderate-deviation rate of the centered compound sum: the previous
    rate evaluated at (x - y * summand mean, y); same code path."""
    return _md_rate(mx, mn, x, y, shifted=True)
