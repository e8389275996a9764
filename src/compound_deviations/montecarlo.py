"""Simulation and empirical verification for compound sums.

Replication is run-structured for reproducibility: run r holds rows
[r RUN_SIZE, (r + 1) RUN_SIZE) and draws its counts from one generator
seeded by the sequence (seed, r, 0) and its sums from another seeded by
(seed, r, 1). One run is one thread task. The partition is independent of
the worker count, so the results are bit-identical whether runs go
serially or to a thread pool, and growing reps appends runs without
touching earlier rows. The count draws never depend on the summand law:
two summand laws at one seed draw the same counts (the two streams realize
the independence of the count from the summands). An event estimate on a
count face, direction 0, draws counts only: it seeds no summand stream and
builds no summand sampler, since its indicator and weight read the counts
alone, bit for bit. Each run is written in place as it is drawn: only
``simulate_compound``, the public batch API, holds a (reps, h) batch.

Every count draw, plain or tilted, comes from one ``CountLaw`` that the call
builds with ``count_law(n, s)`` in the calling thread, before the runs
start, and shares across them; the tilted estimator weighs with that law's
cgf too, so one table serves the call. Plain draws (``simulate_compound``,
plain estimates, and the moment and CLT checks) take sums from the
summands' ``plain_sampler`` for the law's ``max_count``, made with it. For
finite-support sums whose tables are small enough
(summands.TABLE_STAGE_STATES per stage), each conditional-binomial stage
inverts one uniform per sum in exact binomial cdf rows for every count up
to ``max_count``, by the one inversion rule min{k : F(k) > u}, through
the guide kernel that also draws the counts (``summands._CdfGuide``); larger
tables, and the tilted route, where each estimate's fresh tilted law draws
only 10^4 sums, draw with numpy's binomials (``sample_sum_batch``). The
route rests on the method, the law and the table size, never on reps, so
run prefixes stay stable.

Contents: plain simulation; one event type, the face {<d, S>/n + c N/n >=
a} (``HalfSpaceEvent``); exact enumeration for finite-support summands; one
weighted-mean event-probability estimator, plain at unit weights and else
tilted on the rate minimizer over the event boundary (the dual of the
half-space rate infimum on a ray of the joint cumulant); decay-rate scans
against the rate engine; the count's MD sweep; the moment and CLT checks. Both
checks take one route: they band sampled means and covariances of linear
images <x, S> + c N, written run by run, against the exact finite-n values
that the centred-sum pair covariance C1 gives at (E N_n/n, Var N_n/n),
reporting C1 at the limit rates (d1, d2) beside them. Each run keeps the
Gram matrix of its images' power sums (about their exact means), and the
runs' Grams are summed in run order: every mean, covariance, standard error
and K^2 moment is read off that one small matrix, centred by a linear map,
so a check holds no reps-long array and its tables are the same for any
worker or BLAS thread count.

Sizes (n, every n of a grid, reps, seeds, workers) must be integers; a
fractional or boolean size is a ValidationError, never truncated.

Importing the module loads no scipy submodule; of its own routines only
the CLT normality p-values import one (``scipy.special``, for chdtrc, the
chi-square tail of their K^2 statistic), when they run. The count law with
its guide and any summand tables (built with numpy alone) are built in the
calling thread, before the runs start.
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

# Rows per run: the unit of stream seeding and of work per thread.
RUN_SIZE = 16384
# Stream roles inside a run's seed sequence.
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
# Fewest draws the K^2 normality test takes, as in scipy's normaltest.
NORMALTEST_MIN_REPS = 8


def _check_method(method):
    if method not in DEFAULT_REPS:
        raise ValidationError(f"method must be 'plain' or 'tilted', got {method!r}")


def _run_sizes(reps, seed, workers, least_reps):
    """(reps, seed, workers) checked as integers, workers None read as 1."""
    return (check_int(reps, "reps", least_reps), check_int(seed, "seed", 0),
            1 if workers is None else check_int(workers, "workers", 1))


def _run_blocks(draw_sums, draw_counts, reps, seed, workers, take):
    """Draw reps realizations in runs of RUN_SIZE rows, the last one
    shorter, and pass each run to ``take(start, counts, sums)``, which
    writes its rows in place or keeps their sums. Run r draws its counts by
    ``draw_counts(rng, size)`` and its sums by ``draw_sums(rng, counts)``,
    each role from its own generator, seeded (seed, r, role); ``draw_sums``
    None seeds no summand stream and passes sums None. Runs go to
    ``workers`` threads. Each numpy call releases the interpreter lock only
    around its own loop, so threads overlap as far as the calls are long:
    on 2 vCPU, two threads on 8192-row runs drew slower than one thread."""

    def run(start):
        def rng(role):
            return np.random.default_rng(
                np.random.SeedSequence([seed, start // RUN_SIZE, role]))

        counts = draw_counts(rng(COUNT_ROLE), min(RUN_SIZE, reps - start))
        take(start, counts, None if draw_sums is None else
             draw_sums(rng(SUMMAND_ROLE), counts))

    starts = range(0, reps, RUN_SIZE)
    if workers == 1 or len(starts) == 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))


@dataclass(frozen=True)
class HalfSpaceEvent:
    """The face {<direction, sum/n> + count_coef count/n >= level} of the
    scaled pair, (direction, count_coef) nonzero: sum events are (d, 0),
    count events (0, 1), and S - mu N = sum (X_i - mu) along d is (d, -<d, mu>).

    The event is closed, and a point on its boundary is decided by a stated
    rule, not by rounding: it is in the event when <d, x> + c y falls short
    of the level by at most BOUNDARY_RTOL times |<d|, |x|> + |c y| + |level|.
    Lattice points on the boundary are therefore inside whatever order the
    inner product is summed in. One predicate states the rule; exact
    enumeration, whose merged values have no single x, bounds <|d|, |x|>
    by k max_i <|d|, |u_i|> / n.
    """

    direction: np.ndarray
    count_coef: float
    level: float

    def __post_init__(self):
        object.__setattr__(self, "direction", as_vector(self.direction, name="direction"))
        object.__setattr__(self, "count_coef", finite_real(self.count_coef, "count_coef"))
        object.__setattr__(self, "level", finite_real(self.level, "level"))
        if self.count_coef == 0.0 and not self.direction.any():
            raise ValidationError("direction and count_coef must not both be zero")

    def normal(self, dim):
        """(d, c) that writes the event as {<d, sum/n> + c count/n >= level}."""
        if self.direction.size != dim:
            raise DimensionMismatchError(
                f"event direction has length {self.direction.size}, but "
                f"the summands have dimension {dim}"
            )
        return self.direction, self.count_coef

    def indicator(self, n, sums, counts):
        """The event's verdict on each row of (sums, counts), drawn at n.

        A count face, direction 0, may take sums None and read the counts
        alone: its verdict is then ``_holds(y, |y|)``, bit for bit what any
        finite sums give, since <d, x> is +-0, +-0 + y = y and <|d|, |x|> = 0.
        """
        y = self.count_coef * (counts / float(n))
        if sums is None and not self.direction.any():
            return self._holds(y, np.abs(y))
        d = self.normal(sums.shape[1])[0]
        x = sums / float(n)
        return self._holds(x @ d + y, np.abs(x) @ np.abs(d) + np.abs(y))

    def _holds(self, value, magnitude):
        """The boundary rule, magnitude bounding <|d|, |x|> + |c y|."""
        return value >= self.level - BOUNDARY_RTOL * (magnitude + abs(self.level))


def simulate_compound(mx, mn, n, reps, seed, workers=None):
    """Draw reps compound-sum realizations, deterministically per seed, as
    the pair of arrays (sums, counts): the unscaled summand totals, one
    (reps, dim) row per replication, and the realized int64 counts.

    The count and summand streams are separate streams of ``seed``, so the
    count draws never depend on the summand law. Results are identical for
    every worker count.
    """
    reps, seed, workers = _run_sizes(reps, seed, workers, 1)
    draws = _plain_draws(mx, mn.count_law(n))
    sums, counts = np.empty((reps, mx.dim)), np.empty(reps, dtype=np.int64)

    def take(start, run_counts, run_sums):
        counts[start:start + run_counts.size] = run_counts
        sums[start:start + run_counts.size] = run_sums

    _run_blocks(*draws, reps, seed, workers, take)
    return sums, counts


def _plain_draws(mx, law):
    """(draw_sums, draw_counts) from one ``CountLaw``, built with its guide
    before the runs start: the summands' ``plain_sampler`` for the law's
    largest count, made here too, and the law's ``draw``. mx None draws no
    sums."""
    return None if mx is None else mx.plain_sampler(law.max_count), law.draw


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
            f"event level {level} does not exceed the limiting drift "
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
            f"event level {level} is outside the reachable range; the "
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
    indicator, unit weights on plain draws, written run by run.

    The tilted estimator draws from the conjugate count family at
    s = eta + summand cgf(theta) and from the tilted summand law, then
    unwinds with the exact finite-n weight
    exp(n K_n(s) - <theta, sums> - eta counts). Every counting kind can be
    tilted. Weights beyond exp(700) raise, from the run that meets
    them, instead of clipping.

    A count face, direction 0, draws counts only: it seeds no summand
    stream and builds and calls no summand sampler, since its indicator and
    weight are those of the counts alone, bit for bit (see
    ``HalfSpaceEvent.indicator``). The count stream is its own, so the
    counts, and with them the estimate, are those that drawing sums gives.
    """
    _check_method(method)
    reps, seed, workers = _run_sizes(
        DEFAULT_REPS[method] if reps is None else reps, seed, workers, 1)
    # A wrong-length direction fails before any draw.
    sums_drawn = bool(event.normal(mx.dim)[0].any())

    if method == "plain":
        tilt = None
        draws = _plain_draws(mx if sums_drawn else None, mn.count_law(n))
    else:
        if tilt is None:
            tilt = tilt_parameters(mx, mn, event)
        # A count face's tilt theta = t* 0 has <theta, S> = +-0 for finite S,
        # and log_norm - (+-0) = log_norm: its weight reads no sums either.
        sums_drawn = sums_drawn or bool(tilt.theta.any())
        law = mn.count_law(n, tilt.s)
        log_norm = float(n) * law.cgf
        draws = (mx.tilted(tilt.theta).sample_sum_batch if sums_drawn else None,
                 law.draw)
    weighted = np.empty(reps)

    def take(start, counts, sums):
        row = weighted[start:start + counts.size]
        row[:] = event.indicator(n, sums, counts)
        if tilt is not None:
            log_weights = (log_norm if sums is None else
                           log_norm - sums @ tilt.theta) - tilt.eta * counts
            if float(np.max(log_weights)) > LOG_WEIGHT_CAP:
                raise ValidationError(
                    "an importance weight exceeds exp(700); the tilt is too "
                    "aggressive for this event, refusing to clip silently"
                )
            row *= np.exp(log_weights)

    _run_blocks(*draws, reps, seed, workers, take)
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
    drives the tilted method. An event that holds the limit point has rate
    0 and no tilt, so it is sampled plainly, and ``method`` reports that.
    """
    _check_method(method)
    seed = check_int(seed, "seed", 0)
    ns = [check_int(v, "n", 1) for v in ns]
    if len(ns) < 2 or sorted(set(ns)) != ns:
        raise ValidationError("ns must be at least two strictly increasing integers")
    try:
        tilt = tilt_parameters(mx, mn, event)
    except ZeroRateEventError:  # the event holds the limit point: no tilt
        tilt, method = None, "plain"
    rows = []
    for index, n in enumerate(ns):
        run_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        estimate = estimate_event_prob(
            mx, mn, n, event, reps=reps, method=method, seed=run_seed,
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


def md_scaling_sweep(mn, scales, etas, ns):
    """Scaled log-MGF of the centered count along an n-grid.

    ``scales`` holds the moderate-deviation scale a_n of each n of ``ns``,
    each a positive finite real. The admissible regime wants a_n -> 0 and
    n a_n -> infinity; the sweep does not enforce it, since scales outside it
    show the boundary cases, but reports its trend from the first and last
    (n, a_n) as ``a_decreases`` and ``na_increases``. For each n and
    distinct eta the sweep evaluates a_n log E exp(eta (N_n - E N_n) /
    sqrt(n a_n)) exactly, through the finite-n cumulant. The target column
    is d2 eta^2 / 2; per-eta monotonicity of |value - target| over the
    n-grid is reported.
    """
    ns = [check_int(v, "n", 1) for v in ns]
    if len(ns) < 1 or sorted(set(ns)) != ns:
        raise ValidationError("ns must be strictly increasing integers")
    scales = [finite_real(a, "a_n", "be a positive finite real", lambda v: v > 0.0)
              for a in scales]
    if len(scales) != len(ns):
        raise ValidationError(
            f"need one a_n per n: got {len(scales)} for {len(ns)} sizes")
    etas = [finite_real(e, "eta") for e in etas]
    if len(set(etas)) != len(etas):
        raise ValidationError("etas must be distinct")
    d2 = mn.derivs_at_zero().variance_rate
    rows = []
    for n, a_n in zip(ns, scales):
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
    return MdSweepResult(
        rows=rows, a_decreases=scales[-1] < scales[0],
        na_increases=ns[-1] * scales[-1] > ns[0] * scales[0],
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


def _k2_pvalue(size, m2, m3, m4):
    """D'Agostino-Pearson K^2 normality p-value of a series of ``size``
    (at least NORMALTEST_MIN_REPS) draws with spread, from its biased
    moments m2, m3, m4 about the mean (D'Agostino & Pearson, Biometrika 60,
    1973): K^2 = Z_skew^2 + Z_kurt^2 against chi-square(2).

    The arithmetic is that of scipy's normaltest, operation for operation:
    skewtest's and kurtosistest's Z from the moments, y == 0 read as 1, a
    zero kurtosis denominator giving NaN, and the tail from chdtrc. So the
    p-value is normaltest's bit for bit at normaltest's own moments, with
    no import of scipy's stats module.
    """
    from scipy.special import chdtrc

    n = np.float64(size)

    # skewtest: D'Agostino's normalizing transform of the skewness.
    b1 = m3 / m2**1.5
    y = b1 * np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3) /
             ((n-2.0) * (n+5) * (n+7) * (n+9)))
    w2 = -1 + np.sqrt(2 * (beta2 - 1))
    delta = 1 / np.sqrt(0.5 * np.log(w2))
    alpha = np.sqrt(2.0 / (w2 - 1))
    if y == 0:
        y = 1.0
    z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha)**2 + 1))

    # kurtosistest: Anscombe & Glynn (Biometrika 70, 1983), eqs. 1-5.
    e = 3.0*(n-1) / (n+1)
    varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
    x = (m4 / m2**2.0 - e) / varb2**0.5
    sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                 / (n*(n-2)*(n-3)))**0.5
    big_a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
    term1 = 1 - 2/(9.0*big_a)
    denom = 1 + x * (2/(big_a-4.0))**0.5
    if denom == 0:
        return math.nan
    term2 = np.sign(denom) * ((1-2.0/big_a)/np.abs(denom))**(1/3)
    z_kurt = (term1 - term2) / (2/(9.0*big_a))**0.5

    return float(chdtrc(2.0, z_skew*z_skew + z_kurt*z_kurt))


def _check_images(mx, mn, n, reps, seed, workers, band_se, images, means=(),
                  covariances=(), normality=()):
    """Band linear images <x, S> + c N of plain draws of the pair (S, N),
    summed run by run into one Gram matrix of their power sums: no (S, N)
    batch and no reps-long array is held.

    ``images`` maps a name to (x, c); ``means`` lists (row, image),
    ``covariances`` (row, image, image) and ``normality`` (p-value name,
    image). Each run forms Z = [1; e; e*e], the 1 + 2q rows of each image
    less its exact mean (the shift, fixed before the runs) and their
    squares, and keeps its Gram Z Z^T. The Grams are summed in run order,
    so the sums do not depend on the worker count. The linear map
    d = e - m, d^2 = e^2 - 2 m e + m^2, m the row means of e, centres the
    sum: Gc = T G T^T. The means, covariances, the plug-in standard errors'
    sums d_a^2 d_b^2 and the K^2 moments sum d^3 = Gc[d, d^2] and sum d^4 =
    Gc[d^2, d^2] are all read off Gc.

    Given N the summands are iid, so at every n exactly E[<x, S> + c N]/n =
    E N_n/n (<x, mu> + c), and two images' covariance over n is <a, C1 b>
    with C1 the centred-sum pair covariance at the count rates (E N_n/n,
    Var N_n/n): the reference. C1 at (d1, d2) gives the limit. C1 is built
    on the images' own summand coordinates (<x, X> per image) and N, where
    image i is u_i + c_i u_N, u the unit vectors: the same numbers as on
    (S, N), but a count coefficient c = -<x, mu> then cancels the count
    load exactly, so a centred-summand image has covariance exactly 0 with
    N.
    """
    n = check_int(n, "n", 1)
    reps, seed, workers = _run_sizes(reps, seed, workers, 2)
    q = len(images)
    index = {name: i for i, name in enumerate(images)}
    directions = np.array([x for x, _ in images.values()])
    coef = np.array([c for _, c in images.values()])
    image_mu = np.array([float(x @ mx.mean()) for x in directions])
    # The exact image means: the raw sums of e stay near their centred values.
    # The count's variance is its table's for every kind, so the law drawn
    # from gives it; its mean may have a closed form.
    law, mean_count = mn.count_law(n), mn.mean(n)
    shift = mean_count * (image_mu + coef)
    draws = _plain_draws(mx, law)
    grams = {}

    def take(start, counts, sums):
        z = np.empty((1 + 2 * q, counts.size))
        z[0] = 1.0
        # Rows in place: a stacked expression would add q x size temporaries.
        for row, (x, c), s in zip(z[1:1 + q], images.values(), shift):
            np.matmul(sums, x, out=row)
            row += c * counts
            row -= s
        np.square(z[1:1 + q], out=z[1 + q:])
        # Gram products, never row dots: OpenBLAS splits a long dot by threads.
        grams[start] = z @ z.T

    _run_blocks(*draws, reps, seed, workers, take)

    gram = sum(grams[start] for start in sorted(grams))
    m = gram[0, 1:1 + q] / reps
    centre = np.eye(1 + 2 * q)
    centre[1:, 0] = np.concatenate((-m, m * m))
    centre[1 + q:, 1:1 + q] = np.diag(-2.0 * m)
    gram = centre @ gram @ centre.T
    mean = shift + m
    cov = gram[1:1 + q, 1:1 + q] / (reps - 1)
    pvalues = {}
    for name, a in normality:
        # K^2 needs 8 draws, and a series with no spread has no test.
        i = index[a]
        if reps < NORMALTEST_MIN_REPS or math.sqrt(cov[i, i]) <= 1e-12 * math.sqrt(n):
            pvalues[name] = None
        else:
            d, d2 = 1 + i, 1 + q + i
            pvalues[name] = _k2_pvalue(reps, gram[d, d] / reps, gram[d, d2] / reps,
                                       gram[d2, d2] / reps)
    cov_se = np.sqrt(np.maximum(gram[1 + q:, 1 + q:] / reps - cov * cov, 0.0) / reps)

    image_sigma = directions @ mx.cov().matrix @ directions.T

    def targets(mean_rate, var_rate):
        # Means and <u_i + c_i u_N, C1 (u_j + c_j u_N)>, term by term: no
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
        pick(*targets(mean_count / float(n), law.moments()[1] / float(n))),
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
