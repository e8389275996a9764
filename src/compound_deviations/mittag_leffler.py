"""Two-parameter Mittag-Leffler function on the nonnegative half-line.

    E(nu, beta; x) = sum_{r >= 0} x^r / Gamma(nu r + beta)

This is the normalizing function of the fractional Poisson counting law. The
counting models build that law from its log-weights instead; this module
serves the ``ml-eval`` experiment and is their test oracle, at arguments
growing like lambda * n^nu, far beyond where the power series is usable in
double precision.

Evaluation policy:

* series branch for x <= 30^nu: per-term log-Gamma evaluation, truncated at
  the first term below SERIES_STOP_REL of the running partial sum, capped at
  SERIES_MAX_TERMS terms;
* asymptotic branch for x > 30^nu (equivalently z = x^(1/nu) > 30):

      E(nu, beta; x) ~ (1/nu) z^(1-beta) exp(z)
                       - x^(-1)/Gamma(beta - nu) - x^(-2)/Gamma(beta - 2 nu)

  with exactly two algebraic correction terms; reciprocal Gamma handles the
  poles, where a correction term vanishes.

The neglected tail, relative to the leading term, grows like z^(beta - 1)
exp(-z), so it is largest just past the switch point z = 30. Over nu in
[0.3, 1] the branches agree there within 2.5e-9 at beta = 6 and 1.6e-8 at
beta = 7, so beta above BETA_MAX = 6, kept for the 1e-8 seam, is rejected.

Orders nu below NU_MIN are rejected: the series would need on the order of
30/nu terms just to reach its peak, and the term cap is sized for nu >= 0.3.

The one entry point, log_mittag_leffler, returns log E, since E itself
leaves double range once x^(1/nu) passes about 709.

Importing the module loads no scipy submodule: both branches import
``scipy.special``'s gammaln and rgamma when they run.
"""

from __future__ import annotations

import math

from .dualpair import finite_real
from .errors import ValidationError

NU_MIN = 0.3
BETA_MAX = 6.0
SERIES_MAX_TERMS = 500
SERIES_STOP_REL = 1e-17
# Switch to the asymptotic branch where x^(1/nu) exceeds this.
ASYMPTOTIC_Z = 30.0


def _validate(nu, beta, x):
    """(nu, beta, x) as floats, once each is a finite real in its range."""
    nu = finite_real(nu, "nu")
    if nu < NU_MIN or nu > 1.0:
        raise ValidationError(
            f"nu={nu} outside the supported order range [{NU_MIN}, 1]; orders "
            f"below {NU_MIN} would exceed the {SERIES_MAX_TERMS}-term series budget"
        )
    return (nu,
            finite_real(beta, "beta", f"lie in the supported range (0, {BETA_MAX:g}]",
                        lambda b: 0.0 < b <= BETA_MAX),
            finite_real(x, "x", "be a finite real >= 0", lambda v: v >= 0.0))


def switch_point(nu):
    """Argument where evaluation switches from series to asymptotic."""
    return ASYMPTOTIC_Z ** nu


def _series_value(nu, beta, x):
    """Power series with per-term log-Gamma evaluation.

    Only called for x <= switch_point(nu), where the largest term stays
    within double range and the term count stays within the budget.
    """
    from scipy.special import gammaln, rgamma

    if x == 0.0:
        return float(rgamma(beta))
    logx = math.log(x)
    total = 0.0
    for r in range(SERIES_MAX_TERMS):
        term = math.exp(r * logx - gammaln(nu * r + beta))
        total += term
        if term < SERIES_STOP_REL * total:
            return total
    raise ValidationError(
        f"Mittag-Leffler series did not converge within {SERIES_MAX_TERMS} "
        f"terms at nu={nu}, beta={beta}, x={x}"
    )


def _asymptotic_log(nu, beta, x):
    """Log of the two-correction exponential asymptotic, valid for z > 30;
    +inf once z itself passes the float range, where log E does too."""
    from scipy.special import rgamma

    try:
        z = x ** (1.0 / nu)
    except OverflowError:
        return math.inf
    log_leading = z + (1.0 - beta) * math.log(z) - math.log(nu)
    corrections = -(rgamma(beta - nu) / x + rgamma(beta - 2.0 * nu) / (x * x))
    # Ratio of the algebraic tail to the exponential leading term; at z > 30
    # this is below 1e-13 in magnitude, so log1p never sees -1.
    ratio = corrections * math.exp(-log_leading)
    return log_leading + math.log1p(ratio)


def log_mittag_leffler(nu, beta, x):
    """log E(nu, beta; x), stable for arbitrarily large x."""
    nu, beta, x = _validate(nu, beta, x)
    if x <= switch_point(nu):
        return math.log(_series_value(nu, beta, x))
    return _asymptotic_log(nu, beta, x)

