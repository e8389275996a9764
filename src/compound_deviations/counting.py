"""Counting-process models: the random number of summands N_n.

A kind supplies its limiting scaled cumulant generating function

    limit_cgf(eta) = lim (1/n) log E exp(eta N_n),

its first and second derivatives (``limit_cgf_deriv``, ``limit_cgf_second``;
at zero d1 and d2, the limiting mean and variance rates of N_n / n) and its
left tail ``_tail_limit()`` = limit_cgf(-inf), read by ``derivs_at_zero``.

The finite-n law comes from one builder per kind, ``_tilted_table(n, s)``:
the pmf over 0..K of the law with mass ~ P(N_n = k) e^{s k}, and
log Z(s) = log E e^{s N_n}; s = 0 is N_n itself. ``CountingModel`` builds
every finite-n member on it, through one table per (n, s) that each model
builds once and keeps: ``exact_pmf`` (s = 0), ``sample_batch`` and
``tilted_count_sampler`` (inversion of the cdf by ``summands.invert_cdf``,
the least k with F(k) > u), ``max_count`` (the draw of the top uniform),
``mean`` and ``var`` (the table's moments) and ``finite_cgf`` =
log Z(s) / n. A kind overrides a member only with an exact closed form:
Poisson, iid-sum and Bernoulli keep ``finite_cgf``, and Poisson keeps
``mean``. Unbounded tables stop once the tail beyond is below MASS_TAIL_TOL
relative to the mode; every table is capped at MASS_TABLE_CAP states with a
ValidationError.

Kinds
-----
* IidSumCounting: N_n is a sum of n iid nonnegative-integer steps with
  finite support; its table convolves n tilted step laws. The finite-n
  scaled cumulant equals the limit for every n. (A Poisson-distributed step
  would make N_n Poisson(n c), which is exactly PoissonCounting, so only
  finite-support steps are implemented here.)
* PoissonCounting: N_n ~ Poisson(m(n)) with m(n) = rate * n or an integral
  of a nonnegative intensity; the limit cumulant is rate * (e^eta - 1). It
  is the order-1 FractionalPoissonCounting with x = m(n): it inherits the
  limit triple, the left tail and the table, and adds only the intensity
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
  with left tail minus the end of kappa's domain (a table's last r);
  kappa^{-1} is closed-form for gamma laws, one bracketed solve on a table.
  For gamma inter-arrivals the law of N_n is exact, P(N_n <= k) =
  Q((k + 1) shape, rate n); a tabulated law has no finite-n law.

Importing the module loads no scipy submodule: each function imports the
one it calls (quad, brentq, PchipInterpolator, gammaln, gammainc) when it
runs. A table may first be built on one of ``montecarlo``'s block threads,
so the first such import can run there; CPython's per-module import locks
make that safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dualpair import check_int, finite_real, tilt_weights
from .errors import NoRootError, UnsupportedModelError, ValidationError
from .summands import MASS_TABLE_CAP, PROB_SUM_TOL, TOP_UNIFORM, UNIFORM_STEP, invert_cdf
from .variational import Cumulant

# The scaled cumulant must vanish at zero within this.
CGF_AT_ZERO_TOL = 1e-12
# Construction-time probe grid for finiteness and monotonicity of limit_cgf.
PROBE_ETAS = np.linspace(-10.0, 5.0, 31)
# Quadrature tolerances for intensity integrals and Bernoulli profiles.
QUAD_TOL = 1e-10
# Breakpoints of Bernoulli profile integrals, crowding x = 0: where the runs
# profile nears p = 1, log(1 - p + p e^eta) has a near-log singularity at
# x ~ e^eta that the adaptive rule must meet.
QUAD_POINTS = (1e-12, 1e-9, 1e-6, 1e-3)
# Mass tables are truncated once the missing tail is below this.
MASS_TAIL_TOL = 1e-12
# Root tolerance for inverting an inter-arrival cumulant.
INVERT_XTOL = 1e-13
# Fewest points of a tabulated inter-arrival cumulant.
TABLE_MIN_POINTS = 4


def _grow_table(build, what):
    """build(size) at size 64, 128, ... until it returns a table; one that
    would need more than MASS_TABLE_CAP states is a ValidationError."""
    size = 64
    while (table := build(size)) is None:
        if size >= MASS_TABLE_CAP:
            raise ValidationError(f"{what} exceeds {MASS_TABLE_CAP} states")
        size = min(2 * size, MASS_TABLE_CAP)
    return table


def _draw_from_cdf(cdf, rng, reps):
    """reps counts drawn by ``invert_cdf`` of a cdf table over 0, 1, ...."""
    return invert_cdf(cdf, rng.random(int(reps))).astype(np.int64)


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


def _convolve_tree(rows, what):
    """Convolution of the pmfs in the rows of a 2-d array, pairwise, level by
    level. Each level sums nonnegative products directly (no FFT), so small
    tail masses keep their relative accuracy."""
    size = rows.shape[0] * (rows.shape[1] - 1) + 1
    if size > MASS_TABLE_CAP:
        raise ValidationError(f"{what} exceeds {MASS_TABLE_CAP} states")
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            rows = np.vstack([rows, np.eye(1, rows.shape[1])])
        left, right = rows[0::2], rows[1::2]
        width = rows.shape[1]
        rows = np.zeros((left.shape[0], 2 * width - 1))
        for j in range(width):
            rows[:, j:j + width] += left * right[:, j:j + 1]
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
    triple (``limit_cgf`` and its two derivatives), its left tail
    ``_tail_limit`` and ``_tilted_table``; ``derivs_at_zero`` reads the
    triple and the tail, the finite-n members below read the table."""

    def limit_cgf(self, eta):
        raise NotImplementedError

    def limit_cgf_deriv(self, eta):
        raise NotImplementedError

    def limit_cgf_second(self, eta):
        """Second derivative of limit_cgf, the Hessian the conjugate solver needs."""
        raise NotImplementedError

    def _tail_limit(self):
        """L_N(-inf), the limit of limit_cgf as eta -> -infinity, in [-inf, 0]."""
        raise NotImplementedError

    def derivs_at_zero(self):
        """d1 = L_N'(0), d2 = L_N''(0) and the left tail L_N(-inf)."""
        return CountingDerivatives(
            self.limit_cgf_deriv(0.0), self.limit_cgf_second(0.0), self._tail_limit()
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
        (n, s) and kept, so every member reading the same law shares it."""
        n = check_int(n, "n", 1)
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

    def exact_pmf(self, n):
        """Distribution of N_n as an array over 0..K."""
        return self._table(n)[0]

    def finite_cgf(self, n, eta):
        """(1/n) log E exp(eta N_n)."""
        n = check_int(n, "n", 1)
        return self._table(n, float(eta))[2] / n

    def mean(self, n):
        """E[N_n]."""
        return _table_moments(self.exact_pmf(n))[0]

    def var(self, n):
        """Var[N_n]."""
        return _table_moments(self.exact_pmf(n))[1]

    def sample_batch(self, n, rng, reps):
        """reps draws of N_n."""
        return _draw_from_cdf(self._table(n)[1], rng, reps)

    def max_count(self, n):
        """The largest count a uniform draws at n: the draw at TOP_UNIFORM."""
        return int(invert_cdf(self._table(n)[1], TOP_UNIFORM))

    def tilted_count_sampler(self, n, s):
        """Sampler (rng, reps) -> counts for the law with mass ~ P(N_n = k) e^{s k}."""
        cdf = self._table(check_int(n, "n", 1), float(s))[1]
        return lambda rng, reps: _draw_from_cdf(cdf, rng, reps)

    def _probe_validate(self, etas=None):
        grid = PROBE_ETAS if etas is None else np.asarray(etas)
        values = [self.limit_cgf(float(e)) for e in grid]
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant is not finite on the probe grid"
            )
        diffs = np.diff(values)
        if np.any(diffs < -1e-9):
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant is not non-decreasing"
            )
        at_zero = self.limit_cgf(0.0)
        if abs(at_zero) > CGF_AT_ZERO_TOL:
            raise ValidationError(
                f"{type(self).__name__}: limit cumulant at zero is {at_zero!r}, "
                f"must vanish within {CGF_AT_ZERO_TOL:.0e}"
            )


class IidSumCounting(CountingModel):
    """N_n = Z_1 + ... + Z_n with iid finite-support nonnegative-integer steps."""

    def __init__(self, values, probs):
        vals = np.array(values)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError("step values must form a nonempty 1-d array")
        if not np.all(vals == np.floor(vals)) or np.any(vals < 0):
            raise ValidationError("step values must be nonnegative integers")
        vals = vals.astype(np.int64)
        if np.unique(vals).size != vals.size:
            raise ValidationError("step values must be distinct")
        p = np.array(probs, dtype=float)
        if p.shape != vals.shape:
            raise ValidationError("probs must match the step values in shape")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValidationError("step probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"step probabilities sum to {p.sum()!r}, not 1 within {PROB_SUM_TOL:g}"
            )
        order = np.argsort(vals)
        self._values = vals[order]
        self._log_probs = np.log(p[order])
        self._values.flags.writeable = False
        self._probe_validate()

    def _tilt(self, eta):
        """The limit cumulant at eta and the tilted step probabilities."""
        return tilt_weights(eta * self._values + self._log_probs)

    def limit_cgf(self, eta):
        return self._tilt(eta)[0]

    def limit_cgf_deriv(self, eta):
        return float(self._tilt(eta)[1] @ self._values)

    def limit_cgf_second(self, eta):
        # Variance of the tilted step.
        w = self._tilt(eta)[1]
        return float(w @ (self._values - float(w @ self._values)) ** 2)

    def _tail_limit(self):
        return float(self._log_probs[0]) if self._values[0] == 0 else -math.inf

    def finite_cgf(self, n, eta):
        check_int(n, "n", 1)
        # Scaled cumulant of an n-fold iid sum equals the step cumulant exactly.
        return self.limit_cgf(eta)

    def _tilted_table(self, n, s):
        log_z, probs = self._tilt(s)
        step = np.zeros(int(self._values[-1]) + 1)
        step[self._values] = probs
        pmf = _convolve_tree(np.tile(step, (n, 1)), f"iid-sum mass table at n={n}")
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

    def _tail_limit(self):
        return -self._scale

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
    computed once per n by adaptive quadrature and cached. The rate remains
    authoritative for the limit quantities, so a sensible intensity has
    running averages approaching it.
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
        """E[N_n]: rate * n, or the cached intensity integral over [0, n]."""
        n = check_int(n, "n", 1)
        if self._intensity is None:
            return self._rate * n
        if n not in self._mass_cache:
            from scipy.integrate import quad

            value, _ = quad(
                self._intensity, 0.0, float(n),
                epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=500,
            )
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
            return eta  # quad warns on a NaN integrand; the NaN propagates
        from scipy.integrate import quad

        value, _ = quad(lambda x: term(self._profile(x), eta), 0.0, 1.0,
                        epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=500, points=QUAD_POINTS)
        return float(value)

    def limit_cgf(self, eta):
        return self._over_profile(_bernoulli_cgf, eta)

    def limit_cgf_deriv(self, eta):
        return self._over_profile(_bernoulli_tilt, eta)

    def limit_cgf_second(self, eta):
        return self._over_profile(_bernoulli_variance, eta)

    def _tail_limit(self):
        # log(1 - p), or the integral of log(1 - p(x)): an endpoint touching
        # p = 1 leaves an integrable log singularity, a plateau at 1 makes
        # the limit -inf.
        if self._p is not None:
            return math.log1p(-self._p)
        from scipy.integrate import quad

        def f(x):
            q = self._profile(x)
            return math.log1p(-q) if q < 1.0 else -math.inf

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                value, _ = quad(f, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=500)
        except Exception:
            return -math.inf
        return value if math.isfinite(value) else -math.inf

    def success_probs(self, n):
        n = check_int(n, "n", 1)
        if self._p is not None:
            return np.full(n, self._p)
        return self._profile_at(np.arange(n, dtype=float) / n, f"n={n}")

    def _profile_at(self, points, where):
        """The profile at points; a value outside [0, 1] or NaN is an error."""
        values = np.array([self._profile(float(x)) for x in points], dtype=float)
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if bad.size:
            raise ValidationError(f"profile values must lie in [0, 1]; at {where}, "
                                  f"p({points[bad[0]]}) = {values[bad[0]]}")
        return values

    def finite_cgf(self, n, eta):
        terms = [_bernoulli_cgf(q, eta) for q in self.success_probs(n).tolist()]
        return float(np.sum(terms)) / int(n)

    def _tilted_table(self, n, s):
        t = np.array([_bernoulli_tilt(q, s) for q in self.success_probs(n).tolist()])
        pmf = _convolve_tree(np.column_stack([1.0 - t, t]),
                             f"Bernoulli-sum mass table at n={n}")
        return pmf, n * self.finite_cgf(n, s)


class InterarrivalLaw:
    """Inter-arrival time description: cumulant, its derivatives and its inverse."""

    domain_sup = math.inf

    def kappa(self, r):
        raise NotImplementedError

    def kappa_prime(self, r):
        raise NotImplementedError

    def kappa_second(self, r):
        raise NotImplementedError

    def inverse(self, u):
        """kappa^{-1}(u), the root r of kappa(r) = u."""
        raise NotImplementedError


class GammaInterarrival(InterarrivalLaw):
    """Gamma(shape, rate) inter-arrivals: kappa(r) = -shape log(1 - r/rate).

    kappa' and kappa'' are infinite at r >= rate, the edge the inverse
    approaches as u -> infinity.
    """

    def __init__(self, shape, rate):
        self.shape = finite_real(shape, "shape", "be a positive finite real",
                                 lambda v: v > 0)
        self.rate = finite_real(rate, "rate", "be a positive finite real",
                                lambda v: v > 0)
        self.domain_sup = self.rate

    def kappa(self, r):
        if r >= self.rate:
            raise ValidationError(
                f"kappa is finite only below rate={self.rate}, got r={r}"
            )
        return -self.shape * math.log1p(-r / self.rate)

    def kappa_prime(self, r):
        return math.inf if r >= self.rate else self.shape / (self.rate - r)

    def kappa_second(self, r):
        return math.inf if r >= self.rate else self.shape / (self.rate - r) ** 2

    def inverse(self, u):
        # Algebraic inverse: r = rate (1 - e^{-u/shape}).
        return self.rate * -math.expm1(-u / self.shape)


class ExponentialInterarrival(GammaInterarrival):
    """Exponential(rate) inter-arrivals: the shape-1 gamma law,
    kappa(r) = log(rate / (rate - r))."""

    def __init__(self, rate):
        super().__init__(1.0, rate)


class TabulatedInterarrival(InterarrivalLaw):
    """Inter-arrival cumulant given by a monotone table, PCHIP-interpolated.

    The table must be strictly increasing and bracket r = 0 with
    kappa(0) = 0. Only quantities inside the tabulated range are computable,
    so the domain ends at the table's last entry, and the law of N_n, hence
    sampling, is unavailable.
    """

    def __init__(self, r_values, kappa_values):
        from scipy.interpolate import PchipInterpolator

        r = np.array(r_values, dtype=float)
        k = np.array(kappa_values, dtype=float)
        if r.ndim != 1 or r.size < TABLE_MIN_POINTS or r.shape != k.shape:
            raise ValidationError(
                f"need matching 1-d tables with at least {TABLE_MIN_POINTS} points"
            )
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(k))):
            raise ValidationError("tables must be finite")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(k) <= 0):
            raise ValidationError(
                "tabulated cumulant must be strictly increasing"
            )
        if not (r[0] < 0.0 < r[-1]):
            raise ValidationError("table must bracket r = 0")
        self._interp = PchipInterpolator(r, k)
        if abs(float(self._interp(0.0))) > 1e-10:
            raise ValidationError(
                "tabulated cumulant must vanish at r = 0"
            )
        self.domain_inf = float(r[0])
        self.domain_sup = float(r[-1])
        self.kappa_range = (float(self._interp(r[0])), float(self._interp(r[-1])))
        self._d1 = self._interp.derivative(1)
        self._d2 = self._interp.derivative(2)

    def kappa(self, r):
        if r < self.domain_inf or r > self.domain_sup:
            raise ValidationError(
                f"r={r} outside the tabulated range "
                f"[{self.domain_inf}, {self.domain_sup}]"
            )
        return float(self._interp(r))

    def kappa_prime(self, r):
        return float(self._d1(r))

    def kappa_second(self, r):
        return float(self._d2(r))

    def inverse(self, u):
        """The root of kappa(r) = u by one bracketed solve on the table's
        range; NoRootError for a finite u beyond ``kappa_range``, the kappa
        values at the table's ends, and ValidationError for a non-finite u."""
        from scipy.optimize import brentq

        u = finite_real(u, "target value")
        if u == 0.0:
            return 0.0
        lo, hi = self.kappa_range
        if not lo <= u <= hi:
            raise NoRootError(f"u={u!r} is outside the tabulated kappa range [{lo}, {hi}]")
        return float(brentq(lambda r: self.kappa(r) - u, self.domain_inf,
                            self.domain_sup, xtol=INVERT_XTOL, rtol=1e-15, maxiter=200))


class RenewalCounting(CountingModel):
    """Renewal count: N_n renewals of iid positive inter-arrivals by time n.

    The limit cumulant is -kappa^{-1}(-eta) where kappa is the inter-arrival
    cumulant; it exists because kappa is increasing with kappa(-inf) = -inf.
    For gamma inter-arrivals (exponential is the shape-1 case) the law of
    N_n is exact: {N_n >= k} = {T_k <= n} with T_k ~ Gamma(k shape, rate),
    and its tilted tables give every finite-n member, tilted sampling
    included. Tabulated laws have no finite-n law.
    """

    def __init__(self, law):
        if not isinstance(law, InterarrivalLaw):
            raise ValidationError("law must be an InterarrivalLaw")
        self._law = law
        probe = PROBE_ETAS
        if isinstance(law, TabulatedInterarrival):
            low, high = law.kappa_range
            lo, hi = max(-high, -10.0), min(-low, 5.0)
            if lo >= hi:
                raise ValidationError(
                    "tabulated inter-arrival cumulant covers too narrow a range "
                    "to validate the limit cumulant"
                )
            probe = np.linspace(lo, hi, 31)
        self._probe_validate(etas=probe)

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
        r = -self.limit_cgf(eta)
        slope = self._law.kappa_prime(r)
        return 0.0 if slope == math.inf else self._law.kappa_second(r) / slope ** 3

    def _tail_limit(self):
        # L_N(-inf) = -sup{r : kappa(r) < inf}.
        return -self._law.domain_sup

    def _tilted_table(self, n, s):
        """For gamma inter-arrivals P(N_n >= k) = P(T_k <= n) = P(k shape,
        rate n), with P and Q = 1 - P the regularized incomplete gammas.
        Masses are differences of Q left of the median and of P right of it,
        so each keeps its accuracy relative to its size wherever a tilt puts
        its mass. A tilted table whose kept mass would reach past the float
        range (a mass that underflows to 0 within MASS_TAIL_TOL of the peak)
        is a ValidationError, never a silently truncated table."""
        from scipy.special import gammainc, gammaincc

        if not isinstance(self._law, GammaInterarrival):
            raise UnsupportedModelError(
                f"renewal counts of a {type(self._law).__name__} law have no "
                "exact mass table to sample from"
            )
        shape, x = self._law.shape, self._law.rate * n
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
