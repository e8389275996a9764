"""Simulation and empirical verification for compound sums.

Replication is block-structured for reproducibility: reps are split into
fixed blocks of BLOCK_SIZE, and block b draws its count stream from the seed
sequence (seed, b, 0) and its summand stream from (seed, b, 1). The
partition is independent of the worker count, so merged results are
bit-identical whether blocks run serially or on a thread pool, and the
count draws never depend on the summand law: two summand laws at one seed
draw the same counts (the two streams realize the independence of the count
from the summands).

Plain draws (``simulate_compound``, hence every plain estimate and every
moment and CLT check) take sums from the summands' ``plain_sampler`` for
the count law's ``max_count(n)``, made once per call in the calling thread,
before the blocks start. For finite-support sums whose tables are small
enough (summands.TABLE_STAGE_STATES per stage), each conditional-binomial
stage inverts one uniform per sum in exact binomial cdf rows for every
count up to ``max_count(n)``, by the one inversion rule min{k : F(k) > u};
larger tables, and the tilted route, where each estimate's fresh tilted
law draws only 10^4 sums, draw with numpy's binomials
(``sample_sum_batch``). The route rests on the method, the law and the
table size, never on reps, so block prefixes stay stable.

Contents: plain simulation, exact enumeration for finite-support summands,
one weighted-mean event-probability estimator whose unit-weight case is
plain sampling and whose importance-sampling case tilts on the rate
minimizer over the event boundary (the dual of the half-space rate infimum
on a ray of the joint cumulant), decay-rate scans against the rate engine,
the moderate-deviation scaling sweep, and the moment and CLT checks. Both
checks take one route: they draw the pair once and band sampled means and
covariances of linear images <x, S> + c N against the exact finite-n values
that the centred-sum pair covariance C1 gives at (E N_n/n, Var N_n/n),
reporting C1 at the limit rates (d1, d2) beside them. The images are the
rows of one array, and every covariance and its standard error is read off
a Gram matrix, so the check tables are the same for any BLAS thread count.

Sizes (n, every n of a grid, reps, seeds, workers) must be integers; a
fractional or boolean size is a ValidationError, never truncated.

Importing the module loads no scipy submodule; of its own routines only
the CLT normality p-values import one (normaltest), when they run. The
count table (through ``max_count`` or ``tilted_count_sampler``) and any
summand tables (which import ``bdtr``) are built in the calling thread,
before the blocks start.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counting import MASS_TABLE_CAP
from .dualpair import as_vector, check_int, finite_real
from .errors import (
    DimensionMismatchError,
    UnsupportedModelError,
    ValidationError,
    ZeroRateEventError,
)
from .summands import FiniteSupportSummands
from .variational import (
    Cumulant,
    joint_cumulant,
    legendre_transform,
    pair_covariance,
)

# Replication block size; the unit of RNG stream derivation.
BLOCK_SIZE = 8192
# Stream roles inside a block's seed sequence.
COUNT_ROLE = 0
SUMMAND_ROLE = 1
# Importance weights beyond e^700 are an error, never a silent clip.
LOG_WEIGHT_CAP = 700.0
# A point this close to an event's boundary, relative to the size of the
# terms that place it, is in the closed event.
BOUNDARY_RTOL = 1e-12
# Default replication counts per estimator method; "plain" also serves
# every other plain-sampling estimate.
DEFAULT_REPS = {"plain": 100_000, "tilted": 10_000}
# Default acceptance band of the moment and CLT checks, in standard errors.
BAND_SE = 4.0
# Fewest draws scipy's normaltest accepts.
NORMALTEST_MIN_REPS = 8


def _check_method(method):
    if method not in DEFAULT_REPS:
        raise ValidationError(f"method must be 'plain' or 'tilted', got {method!r}")


def _resolve_workers(workers):
    return 1 if workers is None else check_int(workers, "workers", 1)


def _block_sizes(reps):
    full, rest = divmod(check_int(reps, "reps", 1), BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _block_rngs(seed, block):
    return [np.random.default_rng(np.random.SeedSequence([seed, block, role]))
            for role in (COUNT_ROLE, SUMMAND_ROLE)]


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


def _draw_samples(draw_sums, draw_counts, n, reps, seed, workers):
    """Draw reps realizations in seeded blocks: counts by ``draw_counts``,
    sums by ``draw_sums`` (rng, counts). Blocks run on ``workers`` threads
    (numpy's bulk draws release the interpreter lock) and merge in block
    order."""

    def block(item):
        index, size = item
        rng_n, rng_x = _block_rngs(seed, index)
        counts = draw_counts(rng_n, size)
        return counts, draw_sums(rng_x, counts)

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
    inner product is summed in. One predicate states the rule; exact
    enumeration, whose merged values have no single x, bounds <|d|, |x|>
    by k max_i <|d|, |u_i|> / n.
    """

    mode: str
    level: float
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("sum", "count"):
            raise ValidationError(f"mode must be 'sum' or 'count', got {self.mode!r}")
        object.__setattr__(self, "level", finite_real(self.level, "level"))
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
            if self.direction.size != dim:
                raise DimensionMismatchError(
                    f"event direction has length {self.direction.size}, but "
                    f"the summands have dimension {dim}"
                )
            return self.direction, 0.0
        return np.zeros(dim), 1.0

    def indicator(self, samples):
        d, c = self.normal(samples.sums.shape[1])
        x, y = samples.sum_scaled, c * samples.count_scaled
        return self._holds(x @ d + y, np.abs(x) @ np.abs(d) + np.abs(y))

    def _holds(self, value, magnitude):
        """The boundary rule, magnitude bounding <|d|, |x|> + |c y|."""
        return value >= self.level - BOUNDARY_RTOL * (magnitude + abs(self.level))


def simulate_compound(mx, mn, n, reps, seed, workers=None):
    """Draw reps compound-sum realizations, deterministically per seed.

    The count and summand streams are separate streams of ``seed``, so the
    count draws never depend on the summand law. Results are identical for
    every worker count. Sums come from the summands' ``plain_sampler`` for
    the largest count a uniform draws at n, made here before the blocks
    start.
    """
    seed = check_int(seed, "seed", 0)
    reps = check_int(reps, "reps", 1)
    workers = _resolve_workers(workers)
    return _draw_samples(
        mx.plain_sampler(mn.max_count(n)),
        lambda rng, size: mn.sample_batch(n, rng, size), n, reps, seed, workers,
    )


def _merge(values, probs, tol):
    """The law of values carrying probs, runs of gaps at most tol merged."""
    order = np.argsort(values, axis=None)
    values = values.ravel()[order]
    first = np.concatenate(([True], np.diff(values) > tol))
    return values[first], np.bincount(first.cumsum() - 1, probs.ravel()[order])


def enumerate_exact(mx, mn, n, event):
    """Exact event probability, conditioning on the count.

    Needs finite-support summands; the count law is the kind's
    ``exact_pmf``, truncated for unbounded kinds once the tail beyond is
    below the counting module's MASS_TAIL_TOL. Given N_n = k, <d, S> is a
    sum of k iid projected atoms <d, u_i>: its law is built count by count,
    one outer sum per k, merging values within k^2 eps max_i |<d, u_i>| (the
    rounding two orders of a k-term sum can differ by), so a lattice support
    grows linearly in k. A law past MASS_TABLE_CAP states before merging is
    a ValidationError. Values are decided by the event's boundary rule.
    """
    if not isinstance(mx, FiniteSupportSummands):
        raise UnsupportedModelError(
            "exact enumeration requires finite-support summands"
        )
    d, c = event.normal(mx.dim)
    pmf = mn.exact_pmf(n)
    step_values, step_probs = _merge(mx.atoms @ d, mx.probs, 0.0)
    rounding = float(np.max(np.abs(step_values))) * np.finfo(float).eps
    reach = float(np.max(np.abs(mx.atoms) @ np.abs(d))) / n
    values, probs, total = np.zeros(1), np.ones(1), 0.0
    for k, count_prob in enumerate(pmf):
        if k:
            if values.size * step_values.size > MASS_TABLE_CAP:
                raise ValidationError(
                    f"the law of <d, S_{k}> exceeds {MASS_TABLE_CAP} states")
            values, probs = _merge(np.add.outer(values, step_values),
                                   np.outer(probs, step_probs), k * k * rounding)
        y = c * (k / n)
        hit = event._holds(values / n + y, k * reach + abs(y))
        total += float(count_prob) * float(probs[hit].sum())
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
    on_ray = Cumulant(
        lambda t: f(t[0] * ray),
        lambda t: np.array([grad(t[0] * ray) @ ray]),
        lambda t: np.array([[ray @ hess(t[0] * ray) @ ray]]),
        1,
    )
    result = legendre_transform(on_ray, [level])
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
    mx, mn, n, event, reps=None, method="plain", *, seed, workers=None,
    tilt=None,
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
    reps = DEFAULT_REPS[method] if reps is None else check_int(reps, "reps", 1)
    seed = check_int(seed, "seed", 0)
    workers = _resolve_workers(workers)
    event.normal(mx.dim)  # a wrong-length direction fails before any draw

    if method == "plain":
        tilt = None
        samples = simulate_compound(mx, mn, n, reps, seed, workers=workers)
        weights = 1.0
    else:
        if tilt is None:
            tilt = tilt_parameters(mx, mn, event)
        log_norm = float(n) * float(mn.finite_cgf(n, tilt.s))
        samples = _draw_samples(
            mx.tilted(tilt.theta).sample_sum_batch,
            mn.tilted_count_sampler(n, tilt.s), n, reps, seed, workers,
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
    mx, mn, event, ns, reps=None, *, seed, method="tilted", workers=None,
):
    """Estimate P(event) along an n-grid and extrapolate the decay slope.

    The slope comes from a weighted least-squares fit of log p-hat against n
    (weights one over the squared delta-method log errors); the intercept
    absorbs subexponential prefactors. The comparison value is the rate
    engine's infimum over the event, read off the one tilt solve that also
    drives the tilted method.
    """
    _check_method(method)
    seed = check_int(seed, "seed", 0)
    ns = [check_int(v, "n", 1) for v in ns]
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
    enforced here. A table gives each n once.
    """

    def __init__(self, gamma=None, table=None):
        if (gamma is None) == (table is None):
            raise ValidationError("give exactly one of gamma or table")
        if gamma is not None:
            self._gamma = finite_real(gamma, "gamma", "lie strictly in (0, 1)",
                                      lambda g: 0.0 < g < 1.0)
            self._table = None
        else:
            self._gamma = None
            self._table = {}
            for entry in table:
                try:
                    n, a = entry
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"scaling table entries must be (n, a_n) pairs, got {entry!r}"
                    ) from None
                n = check_int(n, "n", 1)
                if n in self._table:
                    raise ValidationError(f"scaling table repeats n={n}")
                self._table[n] = finite_real(
                    a, "a_n", "be a positive finite real", lambda v: v > 0.0)

    def a(self, n):
        if self._gamma is not None:
            return float(n) ** (-self._gamma)
        try:
            return self._table[n]
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
    ns = [check_int(v, "n", 1) for v in ns]
    if len(ns) < 1 or sorted(set(ns)) != ns:
        raise ValidationError("ns must be strictly increasing integers")
    etas = [finite_real(e, "eta") for e in etas]
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


@dataclass(frozen=True)
class CheckRow:
    """One row of a moment or CLT check: ``band`` = band_se * std_error is
    the band's half-width and ``margin`` = |empirical - reference| / band."""

    name: str
    empirical: float
    std_error: float
    reference: float
    limit: float
    within_band: bool
    band: float
    margin: float


def _check_row(name, empirical, std_error, reference, limit, band_se):
    """Within band: within band_se standard errors of the reference, or
    equal to it (margin 0, else inf) when the band has zero width."""
    band = band_se * std_error
    deviation = abs(empirical - reference)
    within = deviation <= band
    margin = deviation / band if band > 0.0 else (0.0 if within else math.inf)
    return CheckRow(name, empirical, std_error, reference, limit, within, band,
                    margin)


@dataclass(frozen=True)
class CheckResult:
    """Rows of a moment or CLT check, with the CLT's informational
    normality p-values (None where the test cannot run)."""

    n: int
    reps: int
    rows: list
    normality_pvalues: dict = field(default_factory=dict)


def _check_images(mx, mn, n, reps, seed, workers, band_se, images, means=(),
                  covariances=(), normality=()):
    """Draw the pair (S, N) once and band linear images <x, S> + c N of it.

    ``images`` maps a name to (x, c); ``means`` lists (row, image),
    ``covariances`` (row, image, image) and ``normality`` (p-value name,
    image). Each plug-in standard error needs sum da^2 db^2 over the
    centred images a, b: the (a, b) entry of the squared rows' Gram matrix.

    Given N the summands are iid, so at every n exactly E[<x, S> + c N]/n =
    E N_n/n (<x, mu> + c), and two images' covariance over n is <a, C1 b>
    with C1 the centred-sum pair covariance at the count rates (E N_n/n,
    Var N_n/n): the reference. C1 at (d1, d2) gives the limit. C1 is built
    on the images' own summand coordinates (<x, X> per image) and N, where
    image i is e_i + c_i e_N: the same numbers as on (S, N), but a count
    coefficient c = -<x, mu> then cancels the count load exactly, so a
    centred-summand image has covariance exactly 0 with N.
    """
    n = check_int(n, "n", 1)
    reps = check_int(reps, "reps", 2)
    samples = simulate_compound(mx, mn, n, reps, seed, workers=workers)
    q = len(images)
    index = {name: i for i, name in enumerate(images)}
    directions = np.array([x for x, _ in images.values()])
    coef = np.array([c for _, c in images.values()])
    # Rows in place: a stacked expression would add q x reps temporaries.
    values = np.empty((q, reps))
    for row, (x, c) in zip(values, images.values()):
        np.matmul(samples.sums, x, out=row)
        row += c * samples.counts

    mean = values.mean(axis=1)
    values -= mean[:, None]
    # Gram products, never row dots: OpenBLAS splits a long dot by threads.
    cov = values @ values.T / (reps - 1)
    pvalues = {}
    for name, a in normality:
        # normaltest needs 8 draws, and a series with no spread has no test.
        i = index[a]
        if reps < NORMALTEST_MIN_REPS or math.sqrt(cov[i, i]) <= 1e-12 * math.sqrt(n):
            pvalues[name] = None
        else:
            from scipy.stats import normaltest

            pvalues[name] = float(normaltest(values[i]).pvalue)
    values *= values
    cov_se = np.sqrt(np.maximum(values @ values.T / reps - cov * cov, 0.0) / reps)

    image_mu = np.array([float(x @ mx.mean()) for x in directions])
    image_sigma = directions @ mx.cov().matrix @ directions.T

    def targets(mean_rate, var_rate):
        # Means and <e_i + c_i e_N, C1 (e_j + c_j e_N)>, term by term: no
        # fused multiply-add may keep the rounding that the terms cancel.
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
    rows = [_check_row(*cells, band_se) for cells in zip(names, *columns)]
    return CheckResult(n, reps, rows, pvalues)


def moment_limits_check(
    mx, mn, n, reps, u, v, seed, workers=None, band_se=BAND_SE,
):
    """Empirical n-scaled moments of the pair against their exact finite-n
    values, each with a plug-in standard error and a band of band_se
    standard errors; the limits are reported beside them. The rows are the
    means of <v, S> and N and the covariances of (<u, S>, <v, S>),
    (N, <v, S>) and (N, N)."""
    images = {
        "u": (as_vector(u, dim=mx.dim, name="u"), 0.0),
        "v": (as_vector(v, dim=mx.dim, name="v"), 0.0),
        "count": (np.zeros(mx.dim), 1.0),
    }
    return _check_images(
        mx, mn, n, reps, seed, workers, band_se, images,
        means=[("mean_S_dir", "v"), ("mean_N", "count")],
        covariances=[("cov_SS", "u", "v"), ("cov_NS", "count", "v"),
                     ("var_N", "count", "count")],
    )


def clt_regime_check(mx, mn, n, reps, v, seed, workers=None, band_se=BAND_SE):
    """Empirical covariance structure of the CLT-scaled pair.

    Three coordinates, each over sqrt(n): the centred-summand sum
    <v, S> - <v, mu> N, the count N and the centred sum <v, S>. The rows are
    the variances of the first two, their cross-covariance (zero: centred
    summands decouple from the count), and the variance of the third and its
    covariance with the count, each against its exact finite-n value with
    the limit beside it. Normality p-values of the first two coordinates are
    reported informationally (finite-n skew fails strict normality long
    before the covariances drift)."""
    vv = as_vector(v, dim=mx.dim, name="v")
    images = {
        "centred_summands": (vv, -float(vv @ mx.mean())),
        "count": (np.zeros(mx.dim), 1.0),
        "centred_sum": (vv, 0.0),
    }
    return _check_images(
        mx, mn, n, reps, seed, workers, band_se, images,
        covariances=[
            ("var_sum_coord", "centred_summands", "centred_summands"),
            ("var_count_coord", "count", "count"),
            ("cross_cov", "centred_summands", "count"),
            ("var_sum_coord_shifted", "centred_sum", "centred_sum"),
            ("cross_cov_shifted", "centred_sum", "count"),
        ],
        normality=[("sum_coord", "centred_summands"), ("count_coord", "count")],
    )
