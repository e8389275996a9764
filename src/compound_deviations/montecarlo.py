"""Simulation and empirical verification for compound sums.

Replication is block-structured for reproducibility: reps are split into
fixed blocks of BLOCK_SIZE, and block b draws its count stream from the seed
sequence (seed, b, 0) and its summand stream from (x_seed, b, 1). The
partition is independent of the worker count, so merged results are
bit-identical whether blocks run serially or on a thread pool, and the
count draws never change when the summand seed does (the two streams realize
the independence of the count from the summands).

Contents: plain simulation, exact enumeration on small finite instances,
one weighted-mean event-probability estimator whose unit-weight case is
plain sampling and whose importance-sampling case tilts on the rate
minimizer over the event boundary (the dual of the half-space rate infimum
on a ray of the joint cumulant), decay-rate scans against the rate engine,
the moderate-deviation scaling sweep, and empirical moment/CLT checks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln
from scipy.stats import normaltest

from .dualpair import as_vector
from .errors import (
    EnumerationTooLargeError,
    UnsupportedModelError,
    ValidationError,
    ZeroRateEventError,
)
from .summands import FiniteSupportSummands
from .variational import (
    analytic_limit_moments,
    finite_n_moment_identities,
    joint_cumulant,
    legendre_transform,
)

# Replication block size; the unit of RNG stream derivation.
BLOCK_SIZE = 8192
# Stream roles inside a block's seed sequence.
COUNT_ROLE = 0
SUMMAND_ROLE = 1
# Importance weights beyond e^700 are an error, never a silent clip.
LOG_WEIGHT_CAP = 700.0
# Enumeration guard: total composition terms.
ENUMERATION_TERM_LIMIT = 10_000_000
# A point this close to an event's boundary, relative to the size of the
# terms that place it, is in the closed event.
BOUNDARY_RTOL = 1e-12
# Default replication counts per estimator method; "plain" also serves
# every other plain-sampling estimate.
DEFAULT_REPS = {"plain": 100_000, "tilted": 10_000}
# Default acceptance band of the moment and CLT checks, in standard errors.
BAND_SE = 4.0


def _check_seed(seed, name="seed"):
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _check_method(method):
    if method not in DEFAULT_REPS:
        raise ValidationError(f"method must be 'plain' or 'tilted', got {method!r}")


def _resolve_workers(workers):
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ValidationError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _block_sizes(reps):
    if not isinstance(reps, (int, np.integer)) or reps < 1:
        raise ValidationError(f"reps must be a positive integer, got {reps!r}")
    reps = int(reps)
    full, rest = divmod(reps, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _block_rngs(seed, x_seed, block):
    rng_n = np.random.default_rng(np.random.SeedSequence([seed, block, COUNT_ROLE]))
    rng_x = np.random.default_rng(np.random.SeedSequence([x_seed, block, SUMMAND_ROLE]))
    return rng_n, rng_x


@dataclass(frozen=True)
class CompoundSamples:
    """A batch of compound-sum realizations at a fixed n.

    ``sums`` holds the unscaled summand totals, one row per replication;
    ``counts`` the realized summand counts. Scaled views divide by n.
    """

    n: int
    sums: np.ndarray
    counts: np.ndarray

    @property
    def reps(self):
        return self.counts.size

    @property
    def sum_scaled(self):
        return self.sums / float(self.n)

    @property
    def count_scaled(self):
        return self.counts / float(self.n)


def _draw_samples(mx, draw_counts, n, reps, seed, x_seed, workers):
    """Draw reps realizations in seeded blocks: counts by ``draw_counts``,
    sums from ``mx``. Blocks run on ``workers`` threads (numpy's bulk draws
    release the interpreter lock) and merge in block order."""

    def block(item):
        index, size = item
        rng_n, rng_x = _block_rngs(seed, x_seed, index)
        counts = draw_counts(rng_n, size)
        return counts, mx.sample_sum_batch(rng_x, counts)

    items = list(enumerate(_block_sizes(reps)))
    if workers == 1 or len(items) == 1:
        pieces = [block(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(block, items))
    counts = np.concatenate([c for c, _ in pieces])
    sums = np.vstack([s for _, s in pieces])
    return CompoundSamples(n=int(n), sums=sums, counts=counts)


@dataclass(frozen=True)
class HalfSpaceEvent:
    """Half-space target event on the scaled pair.

    mode "sum": {<direction, sum/n> >= level}; mode "count": {count/n >=
    level}. Directions are for the sum mode only and must be nonzero. The
    event is closed, and a point on its boundary is decided by a stated
    rule, not by rounding: it is in the event when <d, x> + c y falls short
    of the level by at most BOUNDARY_RTOL times |<d|, |x|> + |c y| + |level|.
    Lattice points on the boundary are therefore inside whatever order the
    inner product is summed in.
    """

    mode: str
    level: float
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("sum", "count"):
            raise ValidationError(f"mode must be 'sum' or 'count', got {self.mode!r}")
        if not (isinstance(self.level, (int, float)) and math.isfinite(self.level)):
            raise ValidationError(f"level must be a finite real, got {self.level!r}")
        if self.mode == "sum":
            if self.direction is None:
                raise ValidationError("sum events need a direction")
            vec = as_vector(self.direction, name="direction")
            if float(np.max(np.abs(vec))) == 0.0:
                raise ValidationError("direction must be nonzero")
            object.__setattr__(self, "direction", vec)
        elif self.direction is not None:
            raise ValidationError("count events take no direction")

    def normal(self, dim):
        """(d, c) that writes the event as {<d, sum/n> + c count/n >= level}."""
        if self.mode == "sum":
            return self.direction, 0.0
        return np.zeros(dim), 1.0

    def indicator(self, samples):
        d, c = self.normal(samples.sums.shape[1])
        x, y = samples.sum_scaled, c * samples.count_scaled
        slack = BOUNDARY_RTOL * (np.abs(x) @ np.abs(d) + np.abs(y) + abs(self.level))
        return x @ d + y >= self.level - slack


def simulate_compound(mx, mn, n, reps, seed, x_seed=None, workers=None):
    """Draw reps compound-sum realizations, deterministically per seed.

    The count stream is keyed by ``seed`` and the summand stream by
    ``x_seed`` (defaulting to the same value); changing ``x_seed`` alone
    never alters the count draws. Results are identical for every worker
    count.
    """
    seed = _check_seed(seed)
    x_seed = seed if x_seed is None else _check_seed(x_seed, "x_seed")
    workers = _resolve_workers(workers)
    return _draw_samples(
        mx, lambda rng, size: mn.sample_batch(n, rng, size), n, reps, seed,
        x_seed, workers,
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_exact(mx, mn, n, event):
    """Exact event probability by enumerating counts and summand splits.

    Needs finite-support summands; the count law is the kind's
    ``exact_pmf``, truncated for unbounded kinds once the tail beyond is
    below the counting module's MASS_TAIL_TOL. The term count sum over k of
    C(k+m-1, m-1) is guarded at ENUMERATION_TERM_LIMIT; larger instances get
    an error telling the caller to fall back to Monte Carlo. Each (sum, count)
    point is tested by the event's indicator, like a sampled one.
    """
    if not isinstance(mx, FiniteSupportSummands):
        raise UnsupportedModelError(
            "exact enumeration requires finite-support summands"
        )
    pmf = mn.exact_pmf(n)
    m = mx.atom_count
    term_count = sum(math.comb(k + m - 1, m - 1) for k in range(pmf.size))
    if term_count > ENUMERATION_TERM_LIMIT:
        raise EnumerationTooLargeError(
            f"enumeration needs {term_count} composition terms, above the "
            f"{ENUMERATION_TERM_LIMIT} guard; use Monte Carlo estimation instead",
            term_count=term_count,
            limit=ENUMERATION_TERM_LIMIT,
        )
    log_probs = np.log(mx.probs)
    total = 0.0
    for k, count_prob in enumerate(pmf):
        if count_prob <= 0.0:
            continue
        splits = np.array(list(_compositions(k, m)), dtype=float)
        points = CompoundSamples(int(n), splits @ mx.atoms, np.full(len(splits), k))
        log_kfac = gammaln(k + 1.0)
        for j in splits[event.indicator(points)]:
            log_multinomial = log_kfac - float(gammaln(j + 1.0).sum()) + float(
                j @ log_probs
            )
            total += float(count_prob) * math.exp(log_multinomial)
    return min(total, 1.0)


@dataclass(frozen=True)
class TiltParameters:
    """Exponential change of measure targeting an event boundary point.

    theta tilts the summand law, eta the count; s = eta + summand cgf at
    theta is the count-tilt argument. (boundary_x, boundary_y) is the rate
    minimizer over the event closure and rate its rate value.
    """

    theta: np.ndarray
    eta: float
    s: float
    rate: float
    boundary_x: np.ndarray
    boundary_y: float


def tilt_parameters(mx, mn, event):
    """Tilt targeting the rate minimizer over the closure of a half-space event.

    The event is {<d, x> + c y >= level} with (d, c) = ``event.normal``. By
    convex duality its rate infimum is the scalar conjugate
    sup_{t >= 0} [t level - g(t)] of the ``joint_cumulant`` f on the ray
    w = (d, c): g(t) = f(t w), g' = grad f.w, g'' = w.hess f.w, solved by
    one ``legendre_transform`` call; an unbounded supremum means the event
    is unreachable. The maximizer t* gives (theta, eta) = t* w and
    s = eta + L_X(theta); the boundary point is (x*, y*) = grad f(t* w).
    Events whose closure holds the limit point, level <= d1 (c + <d, mu>),
    have zero rate and are rejected: plain Monte Carlo suffices there.
    """
    d, c = event.normal(mx.dim)
    level = float(event.level)
    drift = mn.derivs_at_zero().mean_rate * (c + float(d @ mx.mean()))
    if level <= drift:
        raise ZeroRateEventError(
            f"{event.mode} level {level} does not exceed the limiting drift "
            f"{drift}; the event has zero rate and plain Monte Carlo suffices"
        )
    ray = np.append(d, c)
    f, grad, hess = joint_cumulant(mx, mn)
    result = legendre_transform(
        lambda t: f(t[0] * ray),
        lambda t: np.array([grad(t[0] * ray) @ ray]),
        lambda t: np.array([[ray @ hess(t[0] * ray) @ ray]]),
        [level],
    )
    if result.unbounded:
        raise ValidationError(
            f"{event.mode} level {level} is outside the reachable range; the "
            "event has probability zero at every n"
        )
    point = float(result.argmax[0]) * ray
    theta, eta = point[:-1], float(point[-1])
    boundary = grad(point)
    return TiltParameters(
        theta=theta,
        eta=eta,
        s=eta + mx.cgf(theta),
        rate=float(result.value),
        boundary_x=boundary[:-1],
        boundary_y=float(boundary[-1]),
    )


@dataclass(frozen=True)
class EventProbability:
    value: float
    std_error: float
    method: str
    reps: int
    degenerate: bool
    tilt: TiltParameters | None = None


def estimate_event_prob(
    mx, mn, n, event, reps=None, method="plain", seed=None, x_seed=None,
    workers=None, tilt=None,
):
    """Unbiased event-probability estimate: the weighted mean of the event
    indicator, with unit weights on plain ``simulate_compound`` draws.

    The tilted estimator draws from the conjugate count family at
    s = eta + summand cgf(theta) and from the tilted summand law, then
    unwinds with the exact finite-n weight
    exp(n K_n(s) - <theta, sums> - eta counts). Every counting kind that
    has a finite-n law can be tilted. Weights beyond exp(700) raise instead
    of clipping.
    """
    _check_method(method)
    reps = DEFAULT_REPS[method] if reps is None else int(reps)
    seed = _check_seed(seed)
    x_seed = seed if x_seed is None else _check_seed(x_seed, "x_seed")
    workers = _resolve_workers(workers)

    if method == "plain":
        tilt = None
        samples = simulate_compound(
            mx, mn, n, reps, seed, x_seed=x_seed, workers=workers
        )
        weights = 1.0
    else:
        if tilt is None:
            tilt = tilt_parameters(mx, mn, event)
        log_norm = float(n) * float(mn.finite_cgf(n, tilt.s))
        samples = _draw_samples(
            mx.tilted(tilt.theta), mn.tilted_count_sampler(n, tilt.s), n, reps,
            seed, x_seed, workers,
        )
        log_weights = log_norm - samples.sums @ tilt.theta - tilt.eta * samples.counts
        if float(np.max(log_weights)) > LOG_WEIGHT_CAP:
            raise ValidationError(
                "an importance weight exceeds exp(700); the tilt is too "
                "aggressive for this event, refusing to clip silently"
            )
        weights = np.exp(log_weights)
    weighted = event.indicator(samples) * weights
    value = float(weighted.mean())
    spread = float(weighted.std(ddof=1)) if reps > 1 else 0.0
    # Degenerate: no draw carries weight, or unit weights on all hits.
    return EventProbability(
        value=value,
        std_error=spread / math.sqrt(reps),
        method=method,
        reps=reps,
        degenerate=not np.any(weighted > 0.0) or (tilt is None and value == 1.0),
        tilt=tilt,
    )


def event_rate_infimum(mx, mn, event):
    """Infimum of the explicit rate over the event closure; 0 when the event
    contains the limit point."""
    try:
        return tilt_parameters(mx, mn, event).rate
    except ZeroRateEventError:
        return 0.0


@dataclass(frozen=True)
class DecayEstimate:
    """Per-n decay table with the weighted-slope extrapolation."""

    ns: list
    p_hat: list
    std_err: list
    neg_log_over_n: list
    fitted_rate: float
    rate_infimum: float
    method: str


def decay_rate_scan(
    mx, mn, event, ns, reps=None, seed=None, method="tilted", workers=None,
):
    """Estimate P(event) along an n-grid and extrapolate the decay slope.

    The slope comes from a weighted least-squares fit of log p-hat against n
    (weights one over the squared delta-method log errors); the intercept
    absorbs subexponential prefactors. The comparison value is the rate
    engine's infimum over the event, read off the one tilt solve that also
    drives the tilted method.
    """
    _check_method(method)
    seed = _check_seed(seed)
    ns = [int(v) for v in ns]
    if len(ns) < 2 or sorted(set(ns)) != ns:
        raise ValidationError("ns must be at least two strictly increasing integers")
    try:
        tilt = tilt_parameters(mx, mn, event)
    except ZeroRateEventError:
        tilt = None
    rows = []
    for index, n in enumerate(ns):
        run_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        estimate = estimate_event_prob(
            mx, mn, n, event, reps=reps,
            method="plain" if tilt is None else method, seed=run_seed,
            workers=workers, tilt=tilt,
        )
        rows.append((n, estimate.value, estimate.std_error))

    usable = [(n, p, se) for n, p, se in rows if p > 0.0]
    if len(usable) < 2:
        raise ValidationError(
            "fewer than two positive probability estimates; cannot fit a slope"
        )
    xs = np.array([n for n, _, _ in usable], dtype=float)
    ys = np.array([math.log(p) for _, p, _ in usable])
    log_se = np.array([max(se / p, 1e-12) for _, p, se in usable])
    slope, _ = np.polyfit(xs, ys, 1, w=1.0 / log_se)
    return DecayEstimate(
        ns=[n for n, _, _ in rows],
        p_hat=[p for _, p, _ in rows],
        std_err=[se for _, _, se in rows],
        neg_log_over_n=[
            (-math.log(p) / n if p > 0.0 else math.inf) for n, p, _ in rows
        ],
        fitted_rate=float(-slope),
        rate_infimum=0.0 if tilt is None else tilt.rate,
        method=method,
    )


class ScalingFamily:
    """Moderate-deviation scaling a_n, as a power n^(-gamma) or a table.

    The admissible regime wants a_n -> 0 and n a_n -> infinity; the power
    form enforces gamma in (0, 1) at construction, while tables may
    deliberately violate the regime (that is how the boundary cases are
    demonstrated), so the trend flags are reported by the sweep rather than
    enforced here.
    """

    def __init__(self, gamma=None, table=None):
        if (gamma is None) == (table is None):
            raise ValidationError("give exactly one of gamma or table")
        if gamma is not None:
            if not (isinstance(gamma, (int, float)) and 0.0 < gamma < 1.0):
                raise ValidationError(
                    f"gamma must lie strictly in (0, 1), got {gamma!r}"
                )
            self._gamma = float(gamma)
            self._table = None
        else:
            self._gamma = None
            self._table = {}
            for n, a in table:
                n = int(n)
                a = float(a)
                if n < 1 or not (math.isfinite(a) and a > 0.0):
                    raise ValidationError(
                        "table entries must pair integers n >= 1 with positive a_n"
                    )
                self._table[n] = a

    def a(self, n):
        if self._gamma is not None:
            return float(n) ** (-self._gamma)
        try:
            return self._table[int(n)]
        except KeyError:
            raise ValidationError(f"scaling table has no entry for n={n}")

    def endpoint_flags(self, ns):
        first, last = int(ns[0]), int(ns[-1])
        a_first, a_last = self.a(first), self.a(last)
        return a_last < a_first, last * a_last > first * a_first


@dataclass(frozen=True)
class MdSweepRow:
    n: int
    eta: float
    value: float
    target: float


@dataclass(frozen=True)
class MdSweepResult:
    rows: list
    a_decreases: bool
    na_increases: bool
    gap_monotone: dict = field(default_factory=dict)


def md_scaling_sweep(mn, scaling, etas, ns):
    """Scaled log-MGF of the centered count along an n-grid.

    For each n and eta the sweep evaluates a_n log E exp(eta (N_n - E N_n) /
    sqrt(n a_n)) exactly, through the finite-n cumulant. The target column
    is d2 eta^2 / 2; per-eta monotonicity of |value - target| over the
    n-grid is reported, along with the endpoint behavior of the scaling
    family.
    """
    ns = [int(v) for v in ns]
    if len(ns) < 1 or sorted(set(ns)) != ns:
        raise ValidationError("ns must be strictly increasing integers")
    etas = [float(e) for e in etas]
    d2 = mn.derivs_at_zero().variance_rate
    rows = []
    for n in ns:
        a_n = scaling.a(n)
        mean_count = mn.mean(n)
        for eta in etas:
            t = eta / math.sqrt(n * a_n)
            log_mgf = n * mn.finite_cgf(n, t) - t * mean_count
            rows.append(MdSweepRow(n=n, eta=eta, value=a_n * log_mgf,
                                   target=0.5 * d2 * eta * eta))

    gap_monotone = {}
    for eta in etas:
        gaps = [abs(r.value - r.target) for r in rows if r.eta == eta]
        gap_monotone[eta] = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    a_dec, na_inc = scaling.endpoint_flags(ns)
    return MdSweepResult(
        rows=rows, a_decreases=a_dec, na_increases=na_inc,
        gap_monotone=gap_monotone,
    )


def _covariance_with_error(a, b):
    """Sample covariance and the plug-in standard error of the estimate."""
    reps = a.size
    da = a - a.mean()
    db = b - b.mean()
    cov = float(da @ db) / (reps - 1)
    second = float(np.mean((da * db) ** 2))
    variance = max(second - cov * cov, 0.0) / reps
    return cov, math.sqrt(variance)


@dataclass(frozen=True)
class CheckRow:
    name: str
    empirical: float
    std_error: float
    reference: float
    limit: float
    within_band: bool


def _check_row(name, empirical, std_error, reference, limit, band_se):
    """Within band: within band_se standard errors of the reference, or
    equal to it when the error is zero."""
    within = (abs(empirical - reference) <= band_se * std_error
              if std_error > 0.0 else empirical == reference)
    return CheckRow(name, empirical, std_error, reference, limit, within)


@dataclass(frozen=True)
class MomentCheckResult:
    n: int
    reps: int
    rows: list


def moment_limits_check(
    mx, mn, n, reps, u, v, seed, workers=None, band_se=BAND_SE,
):
    """Empirical n-scaled moments of the pair against the exact finite-n
    identities, each with a plug-in standard error and a band of band_se
    standard errors; the analytic limits are reported beside them."""
    uu = as_vector(u, dim=mx.dim, name="u")
    vv = as_vector(v, dim=mx.dim, name="v")
    samples = simulate_compound(mx, mn, int(n), reps, seed, workers=workers)
    limit = analytic_limit_moments(mx, mn, uu, vv)
    reference = finite_n_moment_identities(mx, mn, int(n), uu, vv)

    su = samples.sums @ uu
    sv = samples.sums @ vv
    counts = samples.counts.astype(float)
    scale = float(n)
    reps = samples.reps

    mean_s = float(sv.mean()) / scale
    mean_s_se = float(sv.std(ddof=1)) / (scale * math.sqrt(reps))
    mean_n = float(counts.mean()) / scale
    mean_n_se = float(counts.std(ddof=1)) / (scale * math.sqrt(reps))
    cov_ss, cov_ss_se = _covariance_with_error(su, sv)
    cov_ns, cov_ns_se = _covariance_with_error(counts, sv)
    var_n, var_n_se = _covariance_with_error(counts, counts)

    entries = [
        ("mean_S_dir", mean_s, mean_s_se, reference.mean_S_dir, limit.mean_S_dir),
        ("mean_N", mean_n, mean_n_se, reference.mean_N, limit.mean_N),
        ("cov_SS", cov_ss / scale, cov_ss_se / scale, reference.cov_SS, limit.cov_SS),
        ("cov_NS", cov_ns / scale, cov_ns_se / scale, reference.cov_NS, limit.cov_NS),
        ("var_N", var_n / scale, var_n_se / scale, reference.var_N, limit.var_N),
    ]
    rows = [_check_row(*entry, band_se) for entry in entries]
    return MomentCheckResult(n=int(n), reps=reps, rows=rows)


@dataclass(frozen=True)
class CltCheckResult:
    n: int
    reps: int
    rows: list
    normality_pvalues: dict


def clt_regime_check(mx, mn, n, reps, v, seed, workers=None, band_se=BAND_SE):
    """Empirical covariance structure of the CLT-scaled pair.

    First coordinate: <v, sums - counts * summand mean> / sqrt(n); second:
    (counts - E[N_n]) / sqrt(n). Their variances are checked against
    d1 <v, Sigma v> and d2, the cross-covariance against 0 (the components
    decouple), and the mean-shifted first coordinate
    <v, sums - E[N_n] * summand mean> / sqrt(n) against the transformed
    covariance that gains the d2 <v, mu>^2 and d2 <v, mu> terms. Normality
    p-values are reported informationally (finite-n skew fails strict
    normality long before the covariances drift)."""
    vv = as_vector(v, dim=mx.dim, name="v")
    n = int(n)
    samples = simulate_compound(mx, mn, n, reps, seed, workers=workers)
    d = mn.derivs_at_zero()
    mu = mx.mean()
    cov = mx.cov()
    v_mu = float(vv @ mu)
    v_cov_v = cov.quadratic_form(vv)
    count_mean = mn.mean(n)

    root_n = math.sqrt(n)
    counts = samples.counts.astype(float)
    z_sum = (samples.sums @ vv - counts * v_mu) / root_n
    z_count = (counts - count_mean) / root_n
    z_shifted = z_sum + z_count * v_mu

    var_sum, var_sum_se = _covariance_with_error(z_sum, z_sum)
    var_count, var_count_se = _covariance_with_error(z_count, z_count)
    cross, cross_se = _covariance_with_error(z_sum, z_count)
    var_shift, var_shift_se = _covariance_with_error(z_shifted, z_shifted)
    cross_shift, cross_shift_se = _covariance_with_error(z_shifted, z_count)

    entries = [
        ("var_sum_coord", var_sum, var_sum_se, d.mean_rate * v_cov_v),
        ("var_count_coord", var_count, var_count_se, d.variance_rate),
        ("cross_cov", cross, cross_se, 0.0),
        (
            "var_sum_coord_shifted",
            var_shift,
            var_shift_se,
            d.mean_rate * v_cov_v + d.variance_rate * v_mu * v_mu,
        ),
        ("cross_cov_shifted", cross_shift, cross_shift_se, d.variance_rate * v_mu),
    ]
    rows = [_check_row(name, emp, se, target, target, band_se)
            for name, emp, se, target in entries]
    pvalues = {}
    for name, series in (("sum_coord", z_sum), ("count_coord", z_count)):
        if float(series.std(ddof=1)) <= 1e-12:
            pvalues[name] = None
        else:
            pvalues[name] = float(normaltest(series).pvalue)
    return CltCheckResult(
        n=n,
        reps=samples.reps,
        rows=rows,
        normality_pvalues=pvalues,
    )
