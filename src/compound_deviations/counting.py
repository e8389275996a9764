"""Counting-process models: the random number of summands N_n.

A kind supplies its limiting scaled cumulant generating function

    limit_cgf(eta) = lim (1/n) log E exp(eta N_n),

and its first and second derivatives (``limit_cgf_deriv``,
``limit_cgf_second``; at zero d1 and d2, the limiting mean and variance rates
of N_n / n). ``limit_cgf`` holds at eta = +-inf too, so its left tail
limit_cgf(-inf), the cost of N_n = 0, is read there by ``derivs_at_zero``.

The finite-n law comes from one builder per kind, ``_tilted_table(n, s)``:
the pmf over 0..K of the law with mass ~ P(N_n = k) e^{s k}, and
log Z(s) = log E e^{s N_n}; s = 0 is N_n itself. ``CountingModel`` builds
every finite-n member on it, through one table per (n, s) that each model
builds once and keeps: ``exact_pmf`` (s = 0), ``sample_batch`` and
``tilted_count_sampler`` (inversion of the cdf by ``summands.invert_cdf``'s
rule, the least k with F(k) > u, drawn through the table's guide,
``summands._CdfGuide``, built on first use and kept and dropped with the
table), ``max_count`` (``invert_cdf`` of the top uniform),
``mean`` and ``var`` (the table's moments) and ``finite_cgf`` =
log Z(s) / n. A kind overrides a member only with an exact closed form:
Poisson, iid-sum and Bernoulli keep ``finite_cgf``, and Poisson keeps
``mean``. Unbounded tables stop once the tail beyond is below MASS_TAIL_TOL
relative to the mode; every table is capped at MASS_TABLE_CAP states with a
ValidationError, judged before the table is built where its size is known.
A tilt s that is not a finite real is a ValidationError.

Kinds
-----
* IidSumCounting: N_n is a sum of n iid nonnegative-integer steps with
  finite support; its table convolves n tilted step laws. The finite-n
  scaled cumulant equals the limit for every n. (A Poisson-distributed step
  would make N_n Poisson(n c), which is exactly PoissonCounting, so only
  finite-support steps are implemented here.)
* PoissonCounting: N_n ~ Poisson(m(n)) with m(n) = rate * n or an integral
  of a nonnegative intensity (an integral that is negative or not finite is
  a ValidationError); the limit cumulant is rate * (e^eta - 1). It
  is the order-1 FractionalPoissonCounting with x = m(n): it inherits the
  limit triple and the table, and adds only the intensity
  and the closed forms of ``finite_cgf`` and ``mean``.
* FractionalPoissonCounting: heavy-tailed renewal-type count whose mass at n
  is x^k / (Gamma(nu k + 1) E(nu, 1; x)) with x = rate * n^nu; the limit
  cumulant is rate^(1/nu) (e^(eta/nu) - 1). Its table is built from these
  log-weights, so every nu in (0, 1] has finite-n quantities.
* BernoulliSumCounting: N_n is a sum of independent Bernoulli(q_j) trials,
  q_j = p((j-1)/n) for a profile p on [0, 1] (or a constant p); the limit
  cumulant integrates log(1 + p(x)(e^eta - 1)) over the unit interval. Its
  table convolves the n tilted trial laws.
* RenewalCounting: N_n counts renewals of iid positive inter-arrival times
  with cumulant kappa by time n; the limit cumulant is -kappa^{-1}(-eta),
  with left tail minus the end of kappa's domain. Each law builds the exact
  law of N_n (``count_table``) from P(N_n >= k) = P(T_k <= n): gamma laws
  in closed form, P(N_n <= k) = Q((k + 1) shape, rate n); lattice laws on
  finitely many positive integers by the law of T_k on 0..n, built one
  step at a time.

Every integral (a profile's limit triple, a Poisson intensity) goes through
one adaptive Gauss-Kronrod rule, ``_integrate``. Importing the module loads
no scipy submodule: each function imports the one it calls (brentq,
gammaln, gammainc) when it runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .dualpair import check_int, finite_real, tilt_weights
from .errors import ValidationError
from .summands import (
    MASS_TABLE_CAP,
    TOP_UNIFORM,
    UNIFORM_STEP,
    _CdfGuide,
    check_probs,
    invert_cdf,
)
from .variational import Cumulant

# The scaled cumulant must vanish at zero within this.
CGF_AT_ZERO_TOL = 1e-12
# Construction-time probe grid for finiteness and monotonicity of limit_cgf,
# and the index of its point eta = 0, where limit_cgf must vanish.
PROBE_ETAS = np.linspace(-10.0, 5.0, 31)
PROBE_ZERO = PROBE_ETAS.tolist().index(0.0)
# Quadrature tolerance, absolute or relative, for intensity integrals and
# Bernoulli profiles.
QUAD_TOL = 1e-10
# Start edges of ``_integrate`` on [0, 1], scaled to [0, n] for an intensity
# integral. Decades from 1e-12 to 1e-2 meet the runs profile's near-log
# singularity at x ~ e^eta. Then 16 equal panels, whose nodes leave no gap
# wider than 0.0047: a feature of the integrand at least that wide meets a
# node at the start.
QUAD_EDGES = (0.0, *(10.0 ** -k for k in range(12, 1, -1)),
              *(k / 16 for k in range(1, 17)))
# Start edges of a profile's left tail, the limit cumulant at eta = -inf:
# QUAD_EDGES from 1e-6 on. Its integrand log(1 - p) has no turnover at
# e^eta, only a log singularity where p reaches 1, which the extrapolated
# first panel meets with nodes above 1e-9. The runs profile e^{-ax} rounds
# to 1 below 2^-54 / a, so QUAD_EDGES' nodes, down to 2.2e-15, would read a
# plateau at p = 1 for a < 0.026; these keep the tail finite for a >= 1e-7.
TAIL_EDGES = (0.0, *(e for e in QUAD_EDGES if e >= 1e-6))
# Most panels ``_integrate`` splits an interval into.
QUAD_PANELS = 500
# Gauss-Kronrod G10/K21 on [-1, 1] (QUADPACK's qk21): the Kronrod nodes from
# 1 down to 0, their weights, and the weights of the Gauss nodes among them
# (every second one, from 0.9739).
_K21_HALF = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_K21_HALF_WEIGHTS = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169,
)
_G10_HALF_WEIGHTS = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287,
)
# The 21 nodes in increasing order and the weights of both rules on them.
_K21_NODES = tuple(-x for x in _K21_HALF[:-1]) + _K21_HALF[::-1]
_K21_WEIGHTS = _K21_HALF_WEIGHTS[:-1] + _K21_HALF_WEIGHTS[::-1]
_G10_WEIGHTS = _G10_HALF_WEIGHTS + _G10_HALF_WEIGHTS[::-1]  # on _K21_NODES[1::2]
# Mass tables are truncated once the missing tail is below this.
MASS_TAIL_TOL = 1e-12
# Root tolerance for inverting a lattice cumulant, relative to the root.
INVERT_RTOL = 4.0 * float(np.finfo(float).eps)  # the least brentq accepts
# Largest lattice step: every integer up to 2^53 is a float.
MAX_STEP = 2 ** 53
# A convolution level's chunk buffer holds at most this many doubles (128
# KB), so a chunk's passes stay in cache.
CONVOLVE_CHUNK = 1 << 14
# A chunk of fewer right-hand states is no cheaper than as many steps of the
# per-state loop, which runs instead: two-state chunks took longer than two
# steps at every level shape timed, and 1.5x as long over an iid-sum table at
# n = 4,000 (2 vCPU).
CHUNK_LEAST_STATES = 3


def _integrate(f, a, b, what, edges=QUAD_EDGES):
    """The integral of f over [a, b] by adaptive G10/K21 quadrature.

    The panels start at ``edges`` scaled to [a, b]; while the |K21 - G10|
    gaps sum to more than QUAD_TOL, absolute or relative to the integral,
    the panel of the widest gap is halved. On the panel [a, a + h] both
    rules err by c·h when f is alpha·log(x - a) plus a polynomial, so there
    each rule is taken as 2·(its sum over the two halves) minus its sum over
    the panel: that cancels the error, and no node comes nearer a than
    h/1000. A panel that is not finite ends the rule with the sum of the
    panels, so a plateau of log(1 - p) at p = 1 gives -inf and a NaN
    integrand NaN; needing more than QUAD_PANELS panels is a ValidationError
    naming ``what``."""

    def rules(lo, hi):
        # (K21, G10) over [lo, hi]; a sum of the values where one is not finite.
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        fx = [f(mid + half * x) for x in _K21_NODES]
        if not all(map(math.isfinite, fx)):
            return half * sum(fx), None
        return (half * math.fsum(map(mul, _K21_WEIGHTS, fx)),
                half * math.fsum(map(mul, _G10_WEIGHTS, fx[1::2])))

    def panel(lo, hi):
        # (-gap, lo, hi, value): a heap of these pops the widest gap.
        sums = [rules(lo, hi)]
        if lo == a:
            sums += rules(lo, 0.5 * (lo + hi)), rules(0.5 * (lo + hi), hi)
        if any(g is None for _, g in sums):
            return -math.inf, lo, hi, sum(k for k, _ in sums)
        (k, g), *halves = sums
        if halves:
            (k_left, g_left), (k_right, g_right) = halves
            k, g = 2.0 * (k_left + k_right) - k, 2.0 * (g_left + g_right) - g
        return -abs(k - g), lo, hi, k

    edges = [a + (b - a) * e for e in edges]
    heap = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    total, gap = sum(p[3] for p in heap), -sum(p[0] for p in heap)
    heapq.heapify(heap)
    while math.isfinite(total) and gap > QUAD_TOL * max(1.0, abs(total)):
        if len(heap) >= QUAD_PANELS:
            raise ValidationError(f"{what} does not reach tolerance {QUAD_TOL:g} "
                                  f"within {QUAD_PANELS} panels")
        worst, lo, hi, value = heapq.heappop(heap)
        halves = panel(lo, 0.5 * (lo + hi)), panel(0.5 * (lo + hi), hi)
        total += halves[0][3] + halves[1][3] - value
        gap += worst - halves[0][0] - halves[1][0]
        for p in halves:
            heapq.heappush(heap, p)
    return math.fsum(p[3] for p in heap) if math.isfinite(total) else total


def _check_states(size, what):
    """ValidationError for a table past MASS_TABLE_CAP states, before it is built."""
    if size > MASS_TABLE_CAP:
        raise ValidationError(f"{what} exceeds {MASS_TABLE_CAP} states")


def _grow_table(build, what):
    """build(size) at size 64, 128, ... until it returns a table; one that
    would need more than MASS_TABLE_CAP states is a ValidationError."""
    size = 64
    while (table := build(size)) is None:
        if size >= MASS_TABLE_CAP:
            raise ValidationError(f"{what} exceeds {MASS_TABLE_CAP} states")
        size = min(2 * size, MASS_TABLE_CAP)
    return table


def _table_moments(pmf):
    """Mean and variance of a pmf table over 0, 1, ...."""
    k = np.arange(pmf.size, dtype=float)
    m = float(k @ pmf)
    return m, float((k - m) ** 2 @ pmf)


def _from_log_weights(log_weights):
    """pmf of log-weights over 0, 1, ... and the log of their total, by
    ``tilt_weights``; None while the table is too short: its peak is its
    last entry, or its last weight is within MASS_TAIL_TOL of the peak."""
    peak = int(np.argmax(log_weights))
    if peak == log_weights.size - 1 or (
        log_weights[-1] - log_weights[peak] >= math.log(MASS_TAIL_TOL)
    ):
        return None
    log_total, pmf = tilt_weights(log_weights)
    return pmf, log_total


def _log_weight_table(nu, log_x, s, what):
    """(pmf, log Z(s)) of the law with mass ~ x^k e^{s k} / Gamma(nu k + 1),
    log Z(s) being the log of its total weight over the total at s = 0. The
    log-weights are concave, so the tail beyond the table decays
    geometrically."""
    # Imported here, not at module level, so that a run pays only for the
    # scipy submodules it calls.
    from scipy.special import gammaln

    def table(slope):
        def build(size):
            k = np.arange(size, dtype=float)
            return _from_log_weights(k * slope - gammaln(nu * k + 1.0))

        return _grow_table(build, what)

    pmf, log_total = table(log_x + s)
    return pmf, 0.0 if s == 0.0 else log_total - table(log_x)[1]


def _chunk_states(pairs, width):
    """The right-hand states k that a convolution level takes per chunk: the
    most, up to width, whose buffer, pairs * ((k + 1)(width + k) - 1)
    doubles, fits in CONVOLVE_CHUNK (the largest integer root of that
    quadratic in k), or 1, the per-state loop, below CHUNK_LEAST_STATES."""
    root = math.isqrt((width - 1) ** 2 + 4 + 4 * (CONVOLVE_CHUNK // pairs))
    k = min(width, (root - width - 1) // 2)
    return k if k >= CHUNK_LEAST_STATES else 1


def _convolve_level(left, right):
    """One level of ``_convolve_tree``: row i of the result convolves the
    pmf rows left[i] and right[i]; its buffer is freed on return."""
    pairs, width = left.shape
    out = np.zeros((pairs, 2 * width - 1))
    step = _chunk_states(pairs, width)
    if step == 1:
        for j in range(width):
            out[:, j:j + width] += left * right[:, j:j + 1]
        return out
    # A chunk rewrites row 0 and its terms alone, so the gaps stay zero and
    # one buffer serves every full chunk of the level.
    buffer = np.zeros((pairs, (step + 1) * (width + step) - 1))
    for j in range(0, width, step):
        k = min(step, width - j)
        span = width + k - 1
        chunk = buffer[:, :span + k * (span + 1)]
        if k < step:
            chunk.fill(0.0)  # a short last chunk lays out its rows afresh
        sums = out[:, j:j + span]
        chunk[:, :span] = sums
        terms = chunk[:, span:].reshape(pairs, k, span + 1)[:, :, :width]
        np.einsum("pi,pj->pji", left, right[:, j:j + k], out=terms)
        np.add.reduce(chunk[:, :(k + 1) * span].reshape(pairs, k + 1, span),
                      axis=1, out=sums)
    return out


def _convolve_tree(rows, what):
    """Convolution of the pmfs in the rows of a 2-d array, pairwise, level by
    level, a unit row padding an odd level. Each level sums nonnegative
    products directly (no FFT), so small tail masses keep their relative
    accuracy.

    A level convolves each left row a with its right row b, both of width W,
    into c = sum_j a[. - j] b[j], taking k right-hand states j per chunk
    (``_chunk_states``). A chunk writes its k product rows a * b[j] by one
    ``einsum`` (each entry one product, as in the loop; a broadcast multiply
    would hold three iteration buffers, einsum none) at pitch M + 1 into a
    zeroed buffer, M = W + k - 1 being the columns the chunk reaches, so
    that read back at pitch M each row sits shifted by its j. The running
    sums go in as that view's row 0, and one ``np.add.reduce`` over its rows
    adds ((c + t_j) + t_{j+1}) + ... in increasing j: the order of the
    per-state loop c[:, j:j + W] += a * b[:, j], term for term. Every zero
    it adds besides is exact, since every product is >= 0, so each table is
    the loop's bit for bit. Where no chunk of CHUNK_LEAST_STATES fits, the
    loop itself runs."""
    size = rows.shape[0] * (rows.shape[1] - 1) + 1
    _check_states(size, what)
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            rows = np.vstack([rows, np.eye(1, rows.shape[1])])
        rows = _convolve_level(rows[0::2], rows[1::2])
    return rows[0, :size]


@dataclass(frozen=True)
class CountingDerivatives:
    """First two derivatives of the limit cumulant at zero, plus its left limit.

    mean_rate is the limit of E[N_n]/n, variance_rate the limit of
    Var[N_n]/n, and cgf_at_minus_inf the limit of the scaled cumulant as
    eta -> -infinity (always <= 0; -infinity when N_n = 0 has vanishing
    probability on the n-scale).
    """

    mean_rate: float
    variance_rate: float
    cgf_at_minus_inf: float

    def __post_init__(self):
        if not (self.mean_rate >= 0.0):
            raise ValidationError(f"mean_rate must be >= 0, got {self.mean_rate}")
        if not (self.variance_rate >= 0.0):
            raise ValidationError(
                f"variance_rate must be >= 0, got {self.variance_rate}"
            )
        if not (self.cgf_at_minus_inf <= 0.0):
            raise ValidationError(
                f"cgf_at_minus_inf must be <= 0, got {self.cgf_at_minus_inf}"
            )


class CountingModel:
    """Common interface of counting-process models. A kind supplies the limit
    triple (``limit_cgf``, defined on [-inf, inf], and its two derivatives)
    and ``_tilted_table``; ``derivs_at_zero`` reads the triple, the finite-n
    members below read the table."""

    def limit_cgf(self, eta):
        raise NotImplementedError

    def limit_cgf_deriv(self, eta):
        raise NotImplementedError

    def limit_cgf_second(self, eta):
        """Second derivative of limit_cgf, the Hessian the conjugate solver needs."""
        raise NotImplementedError

    def derivs_at_zero(self):
        """d1 = L_N'(0), d2 = L_N''(0) and the left tail L_N(-inf)."""
        return CountingDerivatives(
            self.limit_cgf_deriv(0.0), self.limit_cgf_second(0.0),
            self.limit_cgf(-math.inf)
        )

    @cached_property
    def cumulant(self):
        """limit_cgf and its two derivatives as a ``Cumulant`` on R^1, built
        and probed once per model."""
        return Cumulant(
            lambda p: self.limit_cgf(float(p[0])),
            lambda p: np.array([self.limit_cgf_deriv(float(p[0]))]),
            lambda p: np.array([[self.limit_cgf_second(float(p[0]))]]),
            1,
        )

    def _tilted_table(self, n, s):
        """(pmf, log_z): the law with mass ~ P(N_n = k) e^{s k} over 0..K and
        log_z = log E exp(s N_n)."""
        raise NotImplementedError

    def _table(self, n, s=0.0):
        """(pmf, cdf, log_z) of ``_tilted_table(n, s)``, built once per
        (n, s) and kept, so every member reading the same law shares it. A
        tilt that is not a finite real is a ValidationError."""
        n = check_int(n, "n", 1)
        s = finite_real(s, "tilt s")
        tables = self.__dict__.setdefault("_tables", {})
        if (n, s) not in tables:
            pmf, log_z = self._tilted_table(n, s)
            pmf.flags.writeable = False
            # The cumsum can plateau a few ulps short of 1, so a top uniform
            # would draw the table's end. The cdf is 1 from the first k
            # whose upper tail is below 2^-54, which no uniform on the
            # 2^-53 grid can reach, as for the summand rows.
            cdf = np.cumsum(pmf)
            upper = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
            cdf[np.argmax(upper < UNIFORM_STEP / 2):] = 1.0
            tables[n, s] = pmf, cdf, log_z
        return tables[n, s]

    def table_keys(self):
        """The (n, s) keys of the tables built and kept so far."""
        return set(self.__dict__.get("_tables", ()))

    def _guide(self, n, s=0.0):
        """The ``summands._CdfGuide`` of ``_table(n, s)``'s cdf, built on
        first use and kept with the table."""
        key = check_int(n, "n", 1), finite_real(s, "tilt s")
        guides = self.__dict__.setdefault("_guides", {})
        if key not in guides:
            cdf = self._table(*key)[1]
            guides[key] = _CdfGuide([(cdf, np.array([cdf.size]), np.array([0]))])
        return guides[key]

    def drop_tables(self, keep):
        """Forget every kept table, and its guide, whose (n, s) key is not
        in ``keep``."""
        for key in self.table_keys() - keep:
            del self._tables[key]
            self.__dict__.get("_guides", {}).pop(key, None)

    def exact_pmf(self, n):
        """Distribution of N_n as an array over 0..K."""
        return self._table(n)[0]

    def finite_cgf(self, n, eta):
        """(1/n) log E exp(eta N_n)."""
        return self._table(n, eta)[2] / n

    def mean(self, n):
        """E[N_n]."""
        return _table_moments(self.exact_pmf(n))[0]

    def var(self, n):
        """Var[N_n]."""
        return _table_moments(self.exact_pmf(n))[1]

    def sample_batch(self, n, rng, reps):
        """reps draws of N_n."""
        return self._guide(n).draw(0, rng.random(int(reps)))

    def max_count(self, n):
        """The largest count a uniform draws at n: the draw at TOP_UNIFORM."""
        return int(invert_cdf(self._table(n)[1], TOP_UNIFORM))

    def tilted_count_sampler(self, n, s):
        """Sampler (rng, reps) -> counts for the law with mass ~ P(N_n = k) e^{s k}."""
        guide = self._guide(n, s)
        return lambda rng, reps: guide.draw(0, rng.random(int(reps)))

    def _probe_validate(self):
        # A value past the float range is not finite either.
        try:
            values = [self.limit_cgf(e) for e in PROBE_ETAS.tolist()]
        except OverflowError:
            values = [math.inf]
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant is not finite on the probe grid"
            )
        if np.any(np.diff(values) < -1e-9):
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant is not non-decreasing"
            )
        at_zero = values[PROBE_ZERO]
        if abs(at_zero) > CGF_AT_ZERO_TOL:
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant at zero is {at_zero!r}, "
                f"must vanish within {CGF_AT_ZERO_TOL:.0e}"
            )


class _Lattice:
    """A law on distinct integers t_i from ``least`` to MAX_STEP, sorted,
    with probabilities p_i: the steps of ``IidSumCounting`` (least 0) and
    of ``LatticeInterarrival`` (least 1). Its cumulant kappa(r) =
    log sum p_i e^{r t_i} and two derivatives come from the tilted law; at
    r = +-inf that law is the point mass on the extreme step in r's
    direction."""

    def __init__(self, values, probs, least):
        vals = np.array(values)
        if vals.ndim != 1 or vals.size == 0 or vals.dtype.kind not in "iuf" or not (
            np.all((vals == np.floor(vals)) & (vals >= least) & (vals <= MAX_STEP))
        ):
            raise ValidationError("step values must form a nonempty 1-d array of "
                                  f"integers from {least} to 2^53")
        vals = vals.astype(np.int64)
        if np.unique(vals).size != vals.size:
            raise ValidationError("step values must be distinct")
        p = np.array(probs, dtype=float)
        if p.shape != vals.shape:
            raise ValidationError("probs must match the step values in shape")
        check_probs(p)
        order = np.argsort(vals)
        self._values, self._probs = vals[order], p[order]
        self._log_probs = np.log(self._probs)
        self._values.flags.writeable = False

    def _tilt(self, r):
        """The cumulant at r and the tilted probabilities. Where r times the
        largest step leaves the float range (r = +-inf, or |r| past 1.8e308
        over that step, where every other weight is below e^-1e292 of the
        extreme one), the tilted law is the point mass on the extreme step
        in r's direction and the cumulant its score: log p of a step 0
        (never 0 * inf), else r t + log p. A NaN r stays NaN."""
        if math.isfinite(r * float(self._values[-1])) or math.isnan(r):
            return tilt_weights(r * self._values + self._log_probs)
        end = 0 if r < 0.0 else self._values.size - 1
        step = float(self._values[end])
        kappa = float(self._log_probs[end]) + (r * step if step else 0.0)
        return kappa, np.eye(1, self._values.size, end)[0]

    def kappa(self, r):
        return self._tilt(r)[0]

    def kappa_prime(self, r):
        return float(self._tilt(r)[1] @ self._values)

    def kappa_second(self, r):
        # Variance of the tilted law.
        w = self._tilt(r)[1]
        return float(w @ (self._values - float(w @ self._values)) ** 2)


class IidSumCounting(_Lattice, CountingModel):
    """N_n = Z_1 + ... + Z_n with iid finite-support nonnegative-integer steps."""

    def __init__(self, values, probs):
        super().__init__(values, probs, 0)
        self._probe_validate()

    limit_cgf = _Lattice.kappa
    limit_cgf_deriv = _Lattice.kappa_prime
    limit_cgf_second = _Lattice.kappa_second

    def finite_cgf(self, n, eta):
        check_int(n, "n", 1)
        # Scaled cumulant of an n-fold iid sum equals the step cumulant exactly.
        return self.limit_cgf(eta)

    def _tilted_table(self, n, s):
        what, top = f"iid-sum mass table at n={n}", int(self._values[-1])
        _check_states(n * top + 1, what)  # in Python ints, before any row
        log_z, probs = self._tilt(s)
        step = np.zeros(top + 1)
        step[self._values] = probs
        pmf = _convolve_tree(np.tile(step, (n, 1)), what)
        return pmf, n * log_z


class FractionalPoissonCounting(CountingModel):
    """Fractional Poisson count of order nu in (0, 1].

    Limit cumulant rate^(1/nu) (exp(eta/nu) - 1). The law of N_n has mass
    x^k / (Gamma(nu k + 1) E(nu, 1; x)), x = rate n^nu, so every finite-n
    quantity comes from its log-weights, with no Mittag-Leffler evaluation.
    At nu = 1 the model is the Poisson count, ``PoissonCounting``.
    """

    def __init__(self, nu, rate):
        self._nu = finite_real(nu, "nu", "lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
        self._rate = finite_real(rate, "rate", "be a positive finite real",
                                 lambda r: r > 0)
        try:
            self._scale = self._rate ** (1.0 / self._nu)
        except OverflowError:
            raise ValidationError(
                f"rate ** (1/nu) overflows at nu={nu!r}, rate={rate!r}"
            ) from None
        self._probe_validate()

    @property
    def nu(self):
        return self._nu

    @property
    def rate(self):
        return self._rate

    def limit_cgf(self, eta):
        return self._scale * math.expm1(eta / self._nu)

    def limit_cgf_deriv(self, eta):
        return self._scale * math.exp(eta / self._nu) / self._nu

    def limit_cgf_second(self, eta):
        return self._scale * math.exp(eta / self._nu) / (self._nu * self._nu)

    def _argument(self, n):
        """x of the law at n; a zero x (an intensity that vanishes up to
        time n) makes N_n = 0 surely."""
        return self._rate * float(n) ** self._nu

    def _tilted_table(self, n, s):
        x = self._argument(n)
        if x == 0.0:
            return np.ones(1), 0.0
        return _log_weight_table(self._nu, math.log(x), s,
                                 f"{type(self).__name__} mass table at n={n}")


class PoissonCounting(FractionalPoissonCounting):
    """Poisson count with optional deterministic intensity: the order-1
    fractional count, with x = m(n) = E[N_n] and closed-form ``finite_cgf``
    and ``mean``.

    ``rate`` is the limiting mass per unit time and fully determines the
    asymptotics. An optional intensity function refines finite-n behavior:
    N_n ~ Poisson(integral of the intensity over [0, n]), with the integral
    computed once per n by ``_integrate`` and cached; an intensity the rule
    cannot resolve within QUAD_PANELS panels is a ValidationError. The rate
    remains authoritative for the limit quantities, so a sensible intensity
    has running averages approaching it.
    """

    def __init__(self, rate, intensity=None):
        super().__init__(1.0, rate)
        self._intensity = intensity
        self._mass_cache = {}
        if intensity is not None:
            if not callable(intensity):
                raise ValidationError("intensity must be callable")
            probe = [intensity(float(s)) for s in np.linspace(0.0, 4.0, 9)]
            if not all(math.isfinite(v) and v >= 0.0 for v in probe):
                raise ValidationError("intensity must be nonnegative and finite")

    def total_mass(self, n):
        """E[N_n]: rate * n, or the cached intensity integral over [0, n],
        which must be finite and nonnegative (construction probes [0, 4])."""
        n = check_int(n, "n", 1)
        if self._intensity is None:
            return self._rate * n
        if n not in self._mass_cache:
            value = _integrate(self._intensity, 0.0, float(n),
                               f"the intensity integral over [0, {n}]")
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"the intensity integral over [0, {n}] is "
                                      f"{value!r}, not a finite value >= 0")
            self._mass_cache[n] = float(value)
        return self._mass_cache[n]

    _argument = total_mass

    def finite_cgf(self, n, eta):
        return self.total_mass(n) / check_int(n, "n", 1) * math.expm1(eta)

    def mean(self, n):
        return self.total_mass(n)


def _bernoulli_cgf(q, eta):
    """log(1 + q (e^eta - 1)). A sure trial (q = 1) gives eta, also where
    1 + (e^eta - 1) rounds to 0. Past eta = 700, where e^eta nears overflow,
    it is eta + log(q + (1 - q) e^{-eta}), a log of positive terms; those
    sum to 0 only when q = 0, where the cumulant is 0."""
    if q == 1.0:
        return eta
    if eta <= 700.0:
        return math.log1p(q * math.expm1(eta))
    mix = q + (1.0 - q) * math.exp(-eta)
    return 0.0 if mix == 0.0 else eta + math.log(mix)


def _bernoulli_tilt(q, eta):
    """Success probability of a Bernoulli(q) trial tilted by e^{eta}."""
    if q == 1.0:
        return 1.0
    if eta <= 0.0:
        return q * math.exp(eta) / (1.0 + q * math.expm1(eta))
    mix = q + (1.0 - q) * math.exp(-eta)
    return 0.0 if mix == 0.0 else q / mix


def _bernoulli_variance(q, eta):
    t = _bernoulli_tilt(q, eta)
    return t * (1.0 - t)


class BernoulliSumCounting(CountingModel):
    """Sum of independent Bernoulli trials at the sites (j-1)/n, j = 1..n.

    Either a constant success probability p in (0, 1), or a profile callable
    p(x) mapping [0, 1] into [0, 1]. The limit cumulant integrates
    log(1 + p(x)(e^eta - 1)) over the unit interval; for constant p that is
    just log(1 + p(e^eta - 1)).

    ``runs(lam, c)``: preset with p(x) = exp(-lam c x), the profile arising
    when counting runs of rare events in a Bernoulli scheme.
    """

    def __init__(self, p=None, profile=None):
        if (p is None) == (profile is None):
            raise ValidationError("give exactly one of p (constant) or profile")
        self._p, self._profile = None, profile
        if p is not None:
            self._p = finite_real(p, "constant p", "lie in (0, 1)",
                                  lambda q: 0.0 < q < 1.0)
        elif not callable(profile):
            raise ValidationError("profile must be callable")
        else:
            self._profile_at(np.linspace(0.0, 1.0, 21), "the probe")
        self._probe_validate()

    @classmethod
    def runs(cls, lam, c):
        lam = finite_real(lam, "runs lam", "be a positive finite real", lambda v: v > 0)
        c = finite_real(c, "runs c", "be a positive finite real", lambda v: v > 0)
        return cls(profile=lambda x: math.exp(-lam * c * x))

    def _over_profile(self, term, eta):
        """term(q, eta) at the constant p, or integrated over the profile."""
        if self._p is not None:
            return term(self._p, eta)
        if math.isnan(eta):
            return eta  # NaN, also where every trial is sure and ignores eta
        return _integrate(lambda x: term(self._profile_value(x), eta), 0.0, 1.0,
                          f"the limit quadrature of {term.__name__[1:]} at eta={eta!r}",
                          TAIL_EDGES if eta == -math.inf else QUAD_EDGES)

    def limit_cgf(self, eta):
        return self._over_profile(_bernoulli_cgf, eta)

    def limit_cgf_deriv(self, eta):
        return self._over_profile(_bernoulli_tilt, eta)

    def limit_cgf_second(self, eta):
        return self._over_profile(_bernoulli_variance, eta)

    def success_probs(self, n):
        n = check_int(n, "n", 1)
        if self._p is not None:
            return np.full(n, self._p)
        return self._profile_at(np.arange(n, dtype=float) / n, f"n={n}")

    def _profile_at(self, points, where):
        """The profile at points, each read through ``_profile_value``."""
        return np.array([self._profile_value(float(x), where) for x in points],
                        dtype=float)

    def _profile_value(self, x, where="the limit quadrature"):
        """p(x); a value outside [0, 1] or NaN is a ValidationError."""
        q = self._profile(x)
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"profile values must lie in [0, 1]; at {where}, "
                                  f"p({x}) = {q}")
        return q

    def finite_cgf(self, n, eta):
        terms = [_bernoulli_cgf(q, eta) for q in self.success_probs(n).tolist()]
        return float(np.sum(terms)) / int(n)

    def _tilted_table(self, n, s):
        t = np.array([_bernoulli_tilt(q, s) for q in self.success_probs(n).tolist()])
        pmf = _convolve_tree(np.column_stack([1.0 - t, t]),
                             f"Bernoulli-sum mass table at n={n}")
        return pmf, n * self.finite_cgf(n, s)


class InterarrivalLaw:
    """Inter-arrival time description: cumulant kappa, its derivatives, its
    inverse and the count table."""

    def kappa(self, r):
        raise NotImplementedError

    def kappa_prime(self, r):
        raise NotImplementedError

    def kappa_second(self, r):
        raise NotImplementedError

    def inverse(self, u):
        """kappa^{-1}(u), the root r of kappa(r) = u."""
        raise NotImplementedError

    def count_table(self, n, s):
        """``CountingModel._tilted_table`` of the renewal count N_n."""
        raise NotImplementedError


class GammaInterarrival(InterarrivalLaw):
    """Gamma(shape, rate) inter-arrivals: kappa(r) = -shape log(1 - r/rate).

    kappa, kappa' and kappa'' are infinite at r >= rate, the edge the
    inverse approaches as u -> infinity.
    """

    def __init__(self, shape, rate):
        self.shape = finite_real(shape, "shape", "be a positive finite real",
                                 lambda v: v > 0)
        self.rate = finite_real(rate, "rate", "be a positive finite real",
                                lambda v: v > 0)

    def kappa(self, r):
        return math.inf if r >= self.rate else -self.shape * math.log1p(-r / self.rate)

    def kappa_prime(self, r):
        return math.inf if r >= self.rate else self.shape / (self.rate - r)

    def kappa_second(self, r):
        return math.inf if r >= self.rate else self.shape / (self.rate - r) ** 2

    def inverse(self, u):
        # Algebraic inverse: r = rate (1 - e^{-u/shape}).
        return self.rate * -math.expm1(-u / self.shape)

    def count_table(self, n, s):
        """P(N_n >= k) = P(T_k <= n) = P(k shape, rate n), with P and
        Q = 1 - P the regularized incomplete gammas. Masses are differences
        of Q left of the median and of P right of it, so each keeps its
        accuracy relative to its size wherever a tilt puts its mass. A
        tilted table whose kept mass would reach past the float range (a
        mass that underflows to 0 within MASS_TAIL_TOL of the peak) is a
        ValidationError, never a silently truncated table."""
        from scipy.special import gammainc, gammaincc

        shape, x = self.shape, self.rate * n
        what = f"renewal mass table at n={n}"

        def build(size):
            a = np.arange(size + 1) * shape
            below, above = gammaincc(a, x), gammainc(a, x)
            mass = np.where(below[1:] <= 0.5, np.diff(below), -np.diff(above))
            with np.errstate(divide="ignore"):
                log_weights = np.log(np.maximum(mass, 0.0)) + s * np.arange(size)
            kept = np.flatnonzero(mass > 0.0)
            table = _from_log_weights(log_weights) if kept.size else None
            if table is None:
                return None
            top = float(np.max(log_weights))
            for edge, cut in ((kept[0], kept[0] > 0), (kept[-1], kept[-1] < size - 1)):
                if cut and log_weights[edge] - top >= math.log(MASS_TAIL_TOL):
                    raise ValidationError(
                        f"{what} at tilt s={s} needs masses below the float range"
                    )
            return table

        return _grow_table(build, what)


class ExponentialInterarrival(GammaInterarrival):
    """Exponential(rate) inter-arrivals: the shape-1 gamma law,
    kappa(r) = log(rate / (rate - r))."""

    def __init__(self, rate):
        super().__init__(1.0, rate)


class LatticeInterarrival(_Lattice, InterarrivalLaw):
    """Inter-arrival times on distinct positive integers t_i with
    probabilities p_i: kappa(r) = log sum p_i e^{r t_i}, finite for every
    real r, so kappa^{-1}(+-inf) = +-inf and L_N(-inf) = -inf."""

    def __init__(self, values, probs):
        super().__init__(values, probs, 1)

    def inverse(self, u):
        """kappa lies between r t_min and r t_max, so the root lies between
        u / t_max and u / t_min: one bracketed solve, or u / t for a single
        atom. An end where kappa meets u in floats is the root; u = +-inf is
        its own root, NaN a ValidationError."""
        from scipy.optimize import brentq

        if u in (-math.inf, math.inf):
            return float(u)
        u = finite_real(u, "target value")
        lo, hi = sorted((u / int(self._values[-1]), u / int(self._values[0])))
        if lo == hi or self.kappa(lo) >= u:
            return lo
        if self.kappa(hi) <= u:
            return hi
        return float(brentq(lambda r: self.kappa(r) - u, lo, hi, xtol=math.ulp(0.0),
                            rtol=INVERT_RTOL))

    def count_table(self, n, s):
        """P(N_n = k) = sum over v <= n of P(T_k = v) P(X > n - v), nonnegative
        terms, for k up to K = n // t_min. The law of T_k on 0..n is built
        one step at a time over the (k, v) grid, capped at MASS_TABLE_CAP
        states; each step renormalises it and carries the log of its scale.
        A step with products p_i P(T_k = v) below the normal floats drops at
        most (n + 1) m 2^-1074 of its scale (m atoms); a tilt that weighs that
        up to MASS_TAIL_TOL of the table's total is a ValidationError, never
        a silently truncated table."""
        steps = list(zip(self._values.tolist(), self._probs.tolist()))
        top, what = n // steps[0][0], f"lattice renewal table at n={n}"
        _check_states((top + 1) * (n + 1), what)
        # tail[v] = P(X > n - v), nonzero for v > n - t_max.
        tail = np.zeros(n + 1)
        for t, p in steps:
            tail[max(n - t + 1, 0):] += p
        normal = np.finfo(float).tiny / float(self._probs.min())
        law, log_scale, lossy = np.eye(1, n + 1)[0], 0.0, None
        masses, log_scales = np.zeros(top + 1), np.full(top + 1, -math.inf)
        for k in range(top + 1):  # T_{K+1} > n, so the last step ends the loop
            masses[k], log_scales[k] = law @ tail, log_scale
            if lossy is None and law[law > 0.0].min() < normal:
                lossy = k
            step = np.zeros(n + 1)
            for t, p in steps:
                step[t:] += p * law[:max(n + 1 - t, 0)]
            if (total := step.sum()) == 0.0:
                break
            law, log_scale = step / total, log_scale + math.log(total)
        with np.errstate(divide="ignore"):
            log_z, pmf = tilt_weights(log_scales + np.log(masses) + s * np.arange(top + 1))
        # Scales are at most 1, and lossy steps feed only the counts past the
        # first of them, each weighed up by at most e^{s j}.
        dropped = math.log((n + 1) * len(steps) * (top + 1) * 2.0 ** -1074 / MASS_TAIL_TOL)
        if lossy is not None and max(s * (lossy + 1), s * top) + dropped >= log_z:
            raise ValidationError(
                f"{what} at tilt s={s} needs masses below the float range"
            )
        return pmf, log_z


class RenewalCounting(CountingModel):
    """Renewal count: N_n renewals of iid positive inter-arrivals by time n.

    The limit cumulant is -kappa^{-1}(-eta) where kappa is the inter-arrival
    cumulant; it exists because kappa is increasing with kappa(-inf) = -inf.
    Each law builds the exact tilted tables of N_n (``count_table``).
    """

    def __init__(self, law):
        if not isinstance(law, InterarrivalLaw):
            raise ValidationError("law must be an InterarrivalLaw")
        self._law = law
        self._probe_validate()

    @property
    def law(self):
        return self._law

    def limit_cgf(self, eta):
        return -self._law.inverse(-eta)

    def limit_cgf_deriv(self, eta):
        # 1 / kappa'(r) at r = -L_N(eta); 0 where kappa' is infinite.
        r = -self.limit_cgf(eta)
        return 1.0 / self._law.kappa_prime(r)

    def limit_cgf_second(self, eta):
        # kappa''(r) / kappa'(r)^3 at r = -L_N(eta); 0 where kappa' is infinite.
        # A cube that underflows to 0 leaves the ratio past the float range.
        r = -self.limit_cgf(eta)
        slope = self._law.kappa_prime(r)
        if slope == math.inf:
            return 0.0
        if (cube := slope ** 3) == 0.0:
            raise OverflowError(f"kappa'({r!r})^3 underflows")
        return self._law.kappa_second(r) / cube

    def _tilted_table(self, n, s):
        return self._law.count_table(n, s)
