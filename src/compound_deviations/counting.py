"""Counting-process models: the random number of summands N_n.

A kind supplies its limiting scaled cumulant generating function

    limit_cgf(eta) = lim (1/n) log E exp(eta N_n),

and its first and second derivatives (``limit_cgf_deriv``,
``limit_cgf_second``; at zero d1 and d2, the limiting mean and variance rates
of N_n / n). ``limit_cgf`` holds at eta = +-inf too, so its left tail
limit_cgf(-inf), the cost of N_n = 0, is read there by ``derivs_at_zero``.

The finite-n law comes from one builder per kind, ``_tilted_table(n, s)``:
the pmf over 0..K of the law with mass ~ P(N_n = k) e^{s k}, and the finite
scaled cumulant (1/n) log E e^{s N_n}, bit for bit ``finite_cgf(n, s)``;
s = 0 is N_n itself. ``CountingModel.count_law(n, s)`` wraps one table in a
fresh ``CountLaw`` per call, and every finite-n member reads one: its pmf
(``exact_pmf``), its cdf, 1 exactly where no uniform reaches further, with
its largest draw ``max_count`` and its guide (``summands._CdfGuide``), which
``draw`` inverts by ``summands.invert_cdf``'s rule, the least k with
F(k) > u, its moments (``mean``, ``var``) and its cumulant
(``finite_cgf``). A model keeps no table: each call builds its own, so a
model holds its construction fields and ``cumulant`` alone. A kind
overrides a member only with an exact closed form: Poisson, iid-sum and
Bernoulli keep ``finite_cgf``, and Poisson keeps ``mean``. Unbounded tables
stop once the tail beyond is below MASS_TAIL_TOL relative to the mode;
every table is capped at MASS_TABLE_CAP states with a ValidationError,
judged before the table is built where its size is known.
A tilt s that is not a finite real is a ValidationError.

Kinds
-----
* IidSumCounting: N_n is a sum of n iid nonnegative-integer steps with
  finite support; its table convolves n tilted step laws. The finite-n
  scaled cumulant equals the limit for every n. (A Poisson-distributed step
  would make N_n Poisson(n c), which is exactly PoissonCounting, so only
  finite-support steps are implemented here.)
* PoissonCounting: N_n ~ Poisson(rate * n); the limit cumulant is
  rate * (e^eta - 1). It is the order-1 FractionalPoissonCounting with
  x = rate * n: it inherits the limit triple and the table, and adds only
  the closed forms of ``finite_cgf``, which its tables carry, and ``mean``.
* FractionalPoissonCounting: heavy-tailed renewal-type count whose mass at n
  is x^k / (Gamma(nu k + 1) E(nu, 1; x)) with x = rate * n^nu; the limit
  cumulant is rate^(1/nu) (e^(eta/nu) - 1). Its table is built from these
  log-weights, so every nu in (0, 1] has finite-n quantities.
* BernoulliSumCounting: N_n is a sum of independent Bernoulli(q_j) trials,
  q_j = p((j-1)/n) for a constant p or the runs preset p(x) = e^{-a x};
  the limit cumulant integrates log(1 + p(x)(e^eta - 1)) over the unit
  interval, for the preset in closed form through the dilogarithm. Its
  table convolves the n tilted trial laws.
* RenewalCounting: N_n counts renewals of iid positive inter-arrival times
  with cumulant kappa by time n; the limit cumulant is -kappa^{-1}(-eta),
  with left tail minus the end of kappa's domain. Each law builds the exact
  law of N_n (``count_table``) from P(N_n >= k) = P(T_k <= n): gamma laws
  in closed form, P(N_n <= k) = Q((k + 1) shape, rate n); lattice laws on
  finitely many positive integers by the law of T_k on 0..n, built one
  step at a time.

Importing the module loads no scipy submodule: each function imports the
one it calls (brentq, gammaln, gammainc) when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dualpair import check_int, finite_real, tilt_weights
from .errors import ValidationError
from .summands import (
    MASS_TABLE_CAP,
    TOP_UNIFORM,
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


def _log_weight_table(nu, slope, what):
    """(pmf, log of the total weight) of the law with mass ~ e^{slope k} /
    Gamma(nu k + 1). The log-weights are concave, so the tail beyond the
    table decays geometrically."""
    # Imported here, not at module level, so that a run pays only for the
    # scipy submodules it calls.
    from scipy.special import gammaln

    def build(size):
        k = np.arange(size, dtype=float)
        return _from_log_weights(k * slope - gammaln(nu * k + 1.0))

    return _grow_table(build, what)


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


class CountLaw:
    """One finite-n law of N_n, tilted by e^{s k}: ``pmf`` over 0..K, its
    ``cgf`` (1/n) log E e^{s N_n}, its ``cdf``, the count ``max_count`` that
    the top uniform draws, and the cdf's ``guide``, which ``draw`` reads.
    Built by ``CountingModel.count_law``, guide included, so a caller that
    builds it before its runs shares it across their threads.

    The cdf takes the summand stage rows' tail rule: the cumsum F where
    F <= 1/2 and 1 - S past it, S the upper tail summed from the table's
    end. Both tails keep their relative accuracy, and the cdf reads 1
    exactly where S <= 2^-54, mass no uniform on the 2^-53 grid reaches, so
    ``max_count`` is the least such count and moves with n as the exact
    tail does."""

    def __init__(self, pmf, cgf):
        cdf = np.cumsum(pmf)
        upper = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
        cdf = np.where(cdf > 0.5, 1.0 - upper, cdf)
        self.pmf, self.cgf, self.cdf = pmf, cgf, cdf
        self.max_count = int(invert_cdf(cdf, TOP_UNIFORM))
        self.guide = _CdfGuide(cdf, np.array([cdf.size]), np.array([0]))

    def draw(self, rng, reps):
        """reps draws of the law, one uniform each."""
        return self.guide.draw(0, rng.random(int(reps)))

    def moments(self):
        """Mean and variance of the pmf."""
        k = np.arange(self.pmf.size, dtype=float)
        m = float(k @ self.pmf)
        return m, float((k - m) ** 2 @ self.pmf)


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
    members below read a fresh ``count_law``."""

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
        """(pmf, cgf): the law with mass ~ P(N_n = k) e^{s k} over 0..K and
        cgf = (1/n) log E exp(s N_n), the same bits as ``finite_cgf(n, s)``."""
        raise NotImplementedError

    def count_law(self, n, s=0.0):
        """The ``CountLaw`` of ``_tilted_table(n, s)``, built afresh on every
        call. A tilt that is not a finite real is a ValidationError."""
        return CountLaw(*self._tilted_table(check_int(n, "n", 1),
                                            finite_real(s, "tilt s")))

    def exact_pmf(self, n):
        """Distribution of N_n as an array over 0..K."""
        return self.count_law(n).pmf

    def finite_cgf(self, n, eta):
        """(1/n) log E exp(eta N_n)."""
        return self.count_law(n, eta).cgf

    def mean(self, n):
        """E[N_n]."""
        return self.count_law(n).moments()[0]

    def var(self, n):
        """Var[N_n]."""
        return self.count_law(n).moments()[1]

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
        return _convolve_tree(np.tile(step, (n, 1)), what), log_z


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

    def _weight_table(self, n, s):
        """(pmf, log of the total weight) of the mass ~ x^k e^{s k} /
        Gamma(nu k + 1) at n."""
        x = self._rate * float(n) ** self._nu
        return _log_weight_table(self._nu, math.log(x) + s,
                                 f"{type(self).__name__} mass table at n={n}")

    def _tilted_table(self, n, s):
        # log Z(s) is the tilted total weight over the untilted one.
        pmf, log_total = self._weight_table(n, s)
        if s == 0.0:
            return pmf, 0.0
        return pmf, (log_total - self._weight_table(n, 0.0)[1]) / n


class PoissonCounting(FractionalPoissonCounting):
    """Poisson(rate n) count: the order-1 fractional count, with x = rate n =
    E[N_n] and closed-form ``finite_cgf`` and ``mean``; its tilted tables are
    the fractional ones, carrying the closed ``finite_cgf``."""

    def __init__(self, rate):
        super().__init__(1.0, rate)

    def finite_cgf(self, n, eta):
        n = check_int(n, "n", 1)
        return self._rate * n / n * math.expm1(eta)

    def mean(self, n):
        return self._rate * check_int(n, "n", 1)

    def _tilted_table(self, n, s):
        # The closed cgf needs no untilted normaliser: one table.
        return self._weight_table(n, s)[0], self.finite_cgf(n, s)


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


def _power_series(x, coef):
    """The sum over k >= 1 of coef(k) x^k, to the first term below 2^-60 of it."""
    total, power, k = 0.0, 1.0, 1
    while True:
        power *= x
        total += (term := power * coef(k))
        if abs(term) <= 2.0 ** -60 * abs(total):
            return total
        k += 1


def _li2(x):
    """The dilogarithm Li2(x) for -1 <= x <= 1: the series of x^k / k^2 up to
    |x| = 1/2, past it one of these maps into it (1 - x is exact for x > 1/2):
    Li2(x) = zeta(2) - log(x) log(1 - x) - Li2(1 - x) and, Landen's,
    Li2(x) = -Li2(x / (x - 1)) - log(1 - x)^2 / 2."""
    if x > 0.5:
        t = 1.0 - x
        return math.pi ** 2 / 6.0 - (math.log(x) * math.log(t) if t else 0.0) - _li2(t)
    if x < -0.5:
        return -_li2(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    return _power_series(x, lambda k: 1.0 / (k * k))


def _li2_neg(t):
    """Li2(-e^t), past t = 0 by Li2(-y) = -zeta(2) - log(y)^2 / 2 - Li2(-1/y)."""
    if t > 0.0:
        return -math.pi ** 2 / 6.0 - 0.5 * t * t - _li2_neg(-t)
    return _li2(-math.exp(t))


@cache
def _unit_gauss_rule():
    """The 12-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(12)
    return 0.5 * (x + 1.0), 0.5 * w


def _runs_cgf(a, eta):
    """The runs preset's limit cumulant, the integral of
    log(1 + b e^{-a x}) over [0, 1], b = e^eta - 1: [Li2(-b e^{-a}) - Li2(-b)] / a,
    in a form that does not cancel. With u = e^{-a} - 1, sigma = 1 - e^{-eta}:
    * at eta = -inf, log(-u) - Li2(-u) / a (reflected; log(a) - 1 as a -> 0);
    * for |b| <= 1/2, the series of (-b)^k (e^{-a k} - 1) / (a k^2);
    * for a |sigma| <= 1/4, eta plus the integral of log(1 + sigma (e^{-a x} - 1)),
      whose nearest singularity is then 1.8 or more from [0, 1], by a
      12-node Gauss-Legendre rule (within 2e-16 of 40-digit values);
    * for eta < 0, both dilogarithms reflected, Li2(y) = zeta(2) - log(y)
      log(1 - y) - Li2(1 - y), leaving Li2 at e^eta and c = 1 - (-b) e^{-a};
    * for eta > 0, as it stands, or inverted where b e^{-a} > 1."""
    if math.isnan(eta):
        return eta
    u = math.expm1(-a)
    if eta == -math.inf:
        return math.log(-u) - _li2(-u) / a
    if math.log(0.5) <= eta <= math.log(1.5):
        return _power_series(-math.expm1(eta), lambda k: math.expm1(-a * k) / a / k / k)
    sigma = -math.expm1(-eta) if eta > -709.0 else -math.inf  # it overflows past -709
    if a * abs(sigma) <= 0.25:
        x, w = _unit_gauss_rule()
        return eta + float(w @ np.log1p(sigma * np.expm1(-a * x)))
    if eta < 0.0:
        c = math.exp(eta - a) - u
        return math.log(c) + (math.log1p(-math.exp(eta)) * (eta - math.log(c))
                              + _li2(math.exp(eta)) - _li2(c)) / a
    log_b = eta + math.log(sigma)
    if log_b > a:
        return log_b - 0.5 * a + (_li2_neg(-log_b) - _li2_neg(a - log_b)) / a
    return (_li2_neg(log_b - a) - _li2_neg(log_b)) / a


def _runs_slopes(a, eta):
    """The two derivatives of ``_runs_cgf``: with x = sigma u and
    D(x) = log(1 + x) - x / (1 + x), -log(1 + x) / (a sigma) and
    e^{-eta} D(x) / (a sigma^2), at 0 -u / a and u^2 / (2 a). Below |x| = 0.1,
    D(x) / x^2 is the series 1/2 + sum of (m + 1) / (m + 2) (-x)^m; where
    x < -1/2, log(1 + x) is log(e^{-eta} + sigma e^{-a}); past eta = -709,
    where sigma overflows, it is log(c) - eta, c = e^{eta - a} - u."""
    if eta == -math.inf:
        return 0.0, 0.0
    if eta < -709.0:
        c = math.exp(eta - a) - math.expm1(-a)
        log_1x, scale = math.log(c) - eta, math.exp(eta - math.log(a))
        return log_1x * scale, (log_1x - 1.0 + math.exp(eta) / c) * scale
    u, sigma = math.expm1(-a), -math.expm1(-eta)
    x = sigma * u
    if x < -0.5:
        log_1x = float(np.logaddexp(-eta, math.log(sigma) - a))
        scaled_d = math.exp(-eta) * log_1x - x * math.exp(-eta - log_1x)  # e^{-eta} D(x)
        return -log_1x / (a * sigma), scaled_d / (a * sigma * sigma)
    slope = -(u / a) * (math.log1p(x) / x if x else 1.0)
    if abs(x) < 0.1:
        series = 0.5 + _power_series(-x, lambda m: (m + 1) / (m + 2))
        return slope, (u / a) * (u * math.exp(-eta)) * series
    # e^{-eta} / sigma^2 is e^{-|eta|} / (1 - e^{-|eta|})^2 on both sides of 0.
    d = math.log1p(x) - x / (1.0 + x)
    return slope, d * math.exp(-abs(eta) - math.log(a)) / math.expm1(-abs(eta)) ** 2


def runs_rate(lam, c):
    """a = lam c of the runs preset p(x) = exp(-a x); lam, c and a must be
    positive finite reals, a a normal float (below it has lost digits)."""
    lam = finite_real(lam, "runs lam", "be a positive finite real", lambda v: v > 0)
    c = finite_real(c, "runs c", "be a positive finite real", lambda v: v > 0)
    return finite_real(lam * c, "runs lam·c", "be a positive finite real of at "
                       "least 2.2e-308", lambda a: a >= np.finfo(float).tiny)


class BernoulliSumCounting(CountingModel):
    """Sum of independent Bernoulli(p(x)) trials at the sites x = (j-1)/n,
    j = 1..n. The limit cumulant is the integral of log(1 + p(x)(e^eta - 1))
    over [0, 1].

    ``BernoulliSumCounting(p)`` has a constant p in (0, 1), and the limit
    cumulant log(1 + p(e^eta - 1)). ``runs(lam, c)`` is the preset
    p(x) = exp(-a x), a = lam c, the success probabilities of counting runs
    of rare events in a Bernoulli scheme; its limit triple is in closed form
    (``_runs_cgf``).
    """

    def __init__(self, p):
        self._p = finite_real(p, "constant p", "lie in (0, 1)", lambda q: 0.0 < q < 1.0)
        self._a = None
        self._probe_validate()

    @classmethod
    def runs(cls, lam, c):
        model = cls.__new__(cls)  # an instance of this class with no constant p
        model._p, model._a = None, runs_rate(lam, c)
        model._probe_validate()
        return model

    def limit_cgf(self, eta):
        if self._a is None:
            return _bernoulli_cgf(self._p, eta)
        return _runs_cgf(self._a, eta)

    def limit_cgf_deriv(self, eta):
        if self._a is None:
            return _bernoulli_tilt(self._p, eta)
        return _runs_slopes(self._a, eta)[0]

    def limit_cgf_second(self, eta):
        if self._a is None:
            t = _bernoulli_tilt(self._p, eta)
            return t * (1.0 - t)
        return _runs_slopes(self._a, eta)[1]

    def success_probs(self, n):
        n = check_int(n, "n", 1)
        if self._a is None:
            return np.full(n, self._p)
        return np.array([math.exp(-self._a * (j / n)) for j in range(n)])

    def finite_cgf(self, n, eta):
        terms = [_bernoulli_cgf(q, eta) for q in self.success_probs(n).tolist()]
        return float(np.sum(terms)) / int(n)

    def _tilted_table(self, n, s):
        what = f"Bernoulli-sum mass table at n={n}"
        _check_states(n + 1, what)  # before any trial is tilted
        t = np.array([_bernoulli_tilt(q, s) for q in self.success_probs(n).tolist()])
        return _convolve_tree(np.column_stack([1.0 - t, t]), what), self.finite_cgf(n, s)


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
        """(pmf, log Z(s)) of the renewal count N_n tilted by e^{s k}, Z(s)
        = E exp(s N_n)."""
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
        pmf, log_z = self._law.count_table(n, s)
        return pmf, log_z / n
