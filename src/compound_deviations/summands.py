"""Summand-step laws: the distribution of a single term of the compound sum.

Two kinds share one interface:

* FiniteSupportSummands: atoms u_1..u_m in R^h with probabilities p_i. The
  workhorse for exact computations; its Cramer rate has a closed form in
  relative-entropy coordinates when the atoms are affinely independent
  (m <= h + 1). Its covariance and cgf Hessian are built from centred
  products, so atoms far from the origin lose no accuracy.
* GaussianSummands: mean vector and covariance operator; cumulants and the
  conjugate are quadratic, sampling of k-fold sums is exact in one draw.

Function-valued steps are tabulated on a grid of h sites, where their values
form an ordinary law on R^h: ``grid_gaussian`` builds the Gaussian field
whose covariance is the kernel matrix on the grid, ``grid_finite_support``
the law on finitely many sample paths. Dual vectors then act as signed point
masses on the sites.

Every model exposes the cumulant generating function cgf(theta) =
log E exp<theta, X>, its gradient and Hessian, mean, covariance, a
vectorized sampler for sums of k iid steps (the shape needed by compound
simulation), the exponentially tilted model, and, where a closed form
exists, the convex conjugate of the cgf, ``conjugate_closed_form`` (None
where a law has none), the one public name of each law's closed form. The
closed forms are row-wise (``_conjugate_rows``, one affine or covariance
solve for a stack of points, every membership rule kept per row), and the
one-point method is their one-row case.

A finite-support sum of k steps is a multinomial split of k among the atoms,
drawn as successive conditional binomials, one stage per atom but the last.
``sample_sum_batch`` draws each stage with numpy's binomial sampler.
``plain_sampler`` (the sampler of plain draws) may instead draw each stage
from one ``rng.random`` uniform per sum, inverted by ``invert_cdf`` in exact
Binomial(k, q) cdf rows with a guide table (Chen & Asau, AIIE Trans. 6(2),
1974): O(1) expected steps per draw, after a build of about 0.4 us per table
state (scipy's ``bdtr``, imported inside the builder). It builds them only
where they hold at most TABLE_STAGE_STATES states per stage and
MASS_TABLE_CAP in all, judged from their windows before any build; past
that it is ``sample_sum_batch``. Every other law's ``plain_sampler`` is its
``sample_sum_batch``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .dualpair import (
    CovarianceOperator,
    _dot_rows,
    _matvec_rows,
    _norm_rows,
    as_vector,
    tilt_weights,
)
from .errors import DimensionMismatchError, ValidationError
from .variational import Cumulant

# Probabilities must sum to one within this at construction.
PROB_SUM_TOL = 1e-12
# Mixture coefficients solve the affine system [atoms^T; 1] c = (x, 1)
# when the least-squares residual is below this, scaled by (1 + |x|).
DECOMP_RESIDUAL_TOL = 1e-8
# Mixture coefficients count as nonnegative within this.
COEFF_TOL = 1e-10
# Hard cap on the states of a mass table or of a sampler's guide tables.
MASS_TABLE_CAP = 5_000_000
# rng.random draws the multiples of UNIFORM_STEP in [0, 1).
UNIFORM_STEP = 2.0 ** -53
TOP_UNIFORM = 1.0 - UNIFORM_STEP
# A binomial row's window leaves out tails below e^-WINDOW_LOG_TAIL = 2^-54,
# which no uniform on the grid can reach.
WINDOW_LOG_TAIL = 54.0 * math.log(2.0)
# Guide tables are built in row chunks of about this many window states.
TABLE_CHUNK = 1 << 16
# Plain draws build guide tables only up to this many window states per
# stage: about where their build, at about 0.4 us a state, stops being
# repaid by the draws of the default plain reps, 10^5 sums (on 2 vCPU, every
# measured law took 0.31-1.00x of the binomial route's time at up to 20,345
# states a stage, and the first to lose took 1.07x at 24,155).
TABLE_STAGE_STATES = 20_000


def invert_cdf(cdf, u):
    """The package's one inversion rule: for each u, min{k : cdf[k] > u}.

    For U uniform on rng.random's grid of multiples of 2^-53, P(draw <= k)
    = P(U < cdf[k]), which is cdf[k] exactly wherever cdf[k] is a grid value;
    u = 0 draws the first state of positive cdf.
    """
    return np.searchsorted(cdf, u, side="right")


def _binomial_windows(q, max_count):
    """For Binomial(k, q), k = 0..max_count, the states [a_k, b_k] beyond
    which each tail holds less than e^-WINDOW_LOG_TAIL, by Bernstein's
    inequality P(|X - kq| >= t) <= exp(-t^2 / (2 (k q (1 - q) + t / 3)))."""
    k = np.arange(max_count + 1)
    mean, tail = k * q, WINDOW_LOG_TAIL
    t = tail / 3.0 + np.sqrt(tail * tail / 9.0 + 2.0 * tail * mean * (1.0 - q))
    return (np.maximum(np.floor(mean - t), 0).astype(np.int64),
            np.minimum(np.ceil(mean + t), k).astype(np.int64))


class _GuideTable:
    """Binomial(k, q) cdf rows for k = 0..K, each with a guide table, for
    inverting one uniform per draw by ``invert_cdf`` (one conditional stage).

    Row k covers the states a uniform on the 2^-53 grid selects: from the
    first whose cdf passes 2^-53 (u = 0 draws it, where the whole row would
    draw a state of cdf below 2^-53) to the first whose cdf is 1; the last
    state of the window is set to 1, the tail beyond it being below 2^-54.
    The rows lie end to end in ``cdf``, row k from ``first[k]``, built from
    ``bdtr`` over the windows (a, b), vectorised over chunks of rows.

    A row of w states has one guide cell per state: cell c holds the u with
    floor(u w) = c and stores the first state whose cdf times w is at least
    c. Products round monotonically, so every earlier state has cdf below
    every u of the cell. A draw starts there and steps on while the cdf is
    at most u, so it equals ``invert_cdf`` on its row exactly.
    """

    def __init__(self, q, lows, highs):
        from scipy.special import bdtr

        widths = highs - lows + 1
        cuts = np.searchsorted(np.cumsum(widths),
                               np.arange(TABLE_CHUNK, widths.sum(), TABLE_CHUNK))
        pieces, offset = [], 0
        for rows in np.split(np.arange(widths.size), np.unique(cuts)):
            w = widths[rows]
            start = np.cumsum(w) - w
            row = np.repeat(rows, w)
            state = np.arange(w.sum()) - np.repeat(start - lows[rows], w)
            cdf = bdtr(state, row, q)
            cdf[start + w - 1] = 1.0
            ones = cdf >= 1.0
            ones_before = np.cumsum(ones) - ones
            keep = (cdf > UNIFORM_STEP) & (
                ones_before == np.repeat(ones_before[start], w))
            cdf, row, state = cdf[keep], row[keep], state[keep]
            w = np.bincount(row - rows[0], minlength=rows.size)
            start = np.cumsum(w) - w
            # The first cell whose guide passes each state, from the same
            # float product as a draw's cell; a row's last state (cdf 1) is
            # passed from the next row on, so each guide indexes the rows.
            row_w = np.repeat(w, w)
            cells = (cdf * row_w).astype(np.int64) + 1
            slots = np.repeat(start, w) + np.minimum(cells, row_w)
            guide = np.cumsum(np.bincount(slots, minlength=cdf.size + 1))[:-1]
            pieces.append((cdf, guide + offset, w, start + offset, state[start]))
            offset += cdf.size
        self.cdf, self.guide, width, self.first, low = (
            np.concatenate(parts) for parts in zip(*pieces))
        self.width = width.astype(float)
        self.shift = self.first - low

    def draw(self, k, u):
        """``invert_cdf`` of each u in the row of its k, as a state."""
        j = self.guide[self.first[k] + (u * self.width[k]).astype(np.int64)]
        over = np.flatnonzero(self.cdf[j] <= u)
        while over.size:
            j[over] += 1
            over = over[self.cdf[j[over]] <= u[over]]
        return j - self.shift[k]


class SummandModel:
    """Common interface of summand-step laws on R^h."""

    @property
    def dim(self):
        raise NotImplementedError

    def cgf(self, theta):
        raise NotImplementedError

    def cgf_grad(self, theta):
        raise NotImplementedError

    def cgf_hess(self, theta):
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def cov(self):
        raise NotImplementedError

    def sample_sum_batch(self, rng, counts):
        """Draw sums of k iid steps for each k in ``counts``, shape (len, dim)."""
        raise NotImplementedError

    def plain_sampler(self, max_count):
        """The sampler (rng, counts) -> sums that plain draws use for counts
        up to max_count: ``sample_sum_batch`` unless a law has a faster one."""
        return self.sample_sum_batch

    def tilted(self, theta):
        """The exponentially tilted law dP_theta ~ exp<theta, x> dP."""
        raise NotImplementedError

    def conjugate_closed_form(self, x):
        """Convex conjugate of the cgf at x, or None when no closed form exists."""
        values = self._conjugate_rows(as_vector(x, dim=self.dim, name="x")[None])
        return None if values is None else float(values[0])

    def _conjugate_rows(self, rows):
        """``conjugate_closed_form`` at each row of a (P, h) stack of finite
        points, as an array, or None when no closed form exists."""
        return None

    @cached_property
    def cumulant(self):
        """cgf, cgf_grad and cgf_hess as a ``Cumulant``, built and probed
        once per model."""
        return Cumulant(self.cgf, self.cgf_grad, self.cgf_hess, self.dim)


class FiniteSupportSummands(SummandModel):
    """Law concentrated on finitely many atoms.

    Parameters
    ----------
    atoms : (m, h) array
        Support points, one per row.
    probs : (m,) array
        Strictly positive probabilities summing to one within PROB_SUM_TOL.

    Any such law is accepted for cumulants and sampling. The closed-form
    conjugate needs unique mixture coefficients, which affinely independent
    atoms (m <= h + 1) give; for other laws ``conjugate_closed_form`` is
    None.
    """

    def __init__(self, atoms, probs):
        arr = np.array(atoms, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"atoms must be a 2-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("atoms must be finite")
        m, h = arr.shape
        if m < 1 or h < 1:
            raise ValidationError("need at least one atom in at least one dimension")
        p = np.array(probs, dtype=float)
        if p.shape != (m,):
            raise ValidationError(
                f"probs must have shape ({m},) to match {m} atoms, got {p.shape}"
            )
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValidationError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probabilities sum to {p.sum()!r}, off one by more than {PROB_SUM_TOL:.0e}"
            )
        arr.flags.writeable = False
        p.flags.writeable = False
        self._atoms = arr
        self._probs = p
        self._log_probs = np.log(p)

    @property
    def atoms(self):
        return self._atoms

    @property
    def probs(self):
        return self._probs

    @property
    def dim(self):
        return self._atoms.shape[1]

    @property
    def atom_count(self):
        return self._atoms.shape[0]

    def _tilt(self, theta):
        """The cgf at theta and the tilted atom probabilities."""
        t = as_vector(theta, dim=self.dim, name="theta")
        return tilt_weights(self._atoms @ t + self._log_probs)

    def cgf(self, theta):
        return self._tilt(theta)[0]

    def cgf_grad(self, theta):
        return self._tilt(theta)[1] @ self._atoms

    def cgf_hess(self, theta):
        return self._centred_second_moment(self._tilt(theta)[1])

    def mean(self):
        return self._probs @ self._atoms

    def cov(self):
        return self._cov

    def _centred_second_moment(self, w):
        """The covariance of the atoms under the weights w, by centred
        products: E_w[XX^T] - (E_w X)(E_w X)^T would cancel for atoms far
        from the origin."""
        d = self._atoms - w @ self._atoms
        return (d.T * w) @ d

    @cached_property
    def _cov(self):
        """The covariance operator, built and validated on the first cov()."""
        return CovarianceOperator(self._centred_second_moment(self._probs))

    @cached_property
    def _stages(self):
        """The conditional probability of each atom but the last, given that
        the step is not an earlier atom: the multinomial's binomial stages."""
        stages, prob_left = [], 1.0
        for p in self._probs[:-1]:
            stages.append(min(max(p / prob_left, 0.0), 1.0))
            prob_left -= p
        return stages

    def _sum_by_stages(self, counts, draw):
        """Sums of the counts, stage i taking draw(i, remaining) of the
        steps still unassigned; vectorised over the whole batch."""
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros((counts.size, self.dim))
        remaining = counts.copy()
        for i in range(len(self._stages)):
            taken = draw(i, remaining)
            out += taken[:, None] * self._atoms[i]
            remaining -= taken
        out += remaining[:, None] * self._atoms[-1]
        return out

    def sample_sum_batch(self, rng, counts):
        return self._sum_by_stages(
            counts, lambda i, remaining: rng.binomial(remaining, self._stages[i]))

    def plain_sampler(self, max_count):
        """Draws each stage from one ``rng.random`` uniform per sum, inverted
        in that stage's ``_GuideTable``, where the tables hold at most
        TABLE_STAGE_STATES states per stage and MASS_TABLE_CAP in all, decided
        from their windows before any build; ``sample_sum_batch`` past that."""
        windows = [_binomial_windows(q, max_count) for q in self._stages]
        states = sum(int((b - a).sum()) + a.size for a, b in windows)
        if states > min(TABLE_STAGE_STATES * len(windows), MASS_TABLE_CAP):
            return self.sample_sum_batch
        tables = [_GuideTable(q, a, b) for q, (a, b) in zip(self._stages, windows)]
        return lambda rng, counts: self._sum_by_stages(counts, lambda i, remaining: (
            tables[i].draw(remaining, rng.random(remaining.size))))

    def tilted(self, theta):
        return FiniteSupportSummands(self._atoms, self._tilt(theta)[1])

    @cached_property
    def _affine(self):
        """[atoms^T; 1] and its pseudo-inverse, or None when the atoms are
        affinely dependent; built on first use."""
        system = np.vstack([self._atoms.T, np.ones(self.atom_count)])
        if np.linalg.matrix_rank(system) < self.atom_count:
            return None
        return system, np.linalg.pinv(system)

    def _conjugate_rows(self, rows):
        """The Cramer rate: finite exactly on the convex hull of the atoms,
        where it equals the relative entropy sum(c_i log(c_i / p_i)) of the
        unique mixture coefficients c (sum c_i u_i = x, sum c_i = 1, by one
        affine least-squares solve for all rows), with 0 log 0 = 0 on the
        boundary; None when the atoms are affinely dependent."""
        if self._affine is None:
            return None
        system, pinv = self._affine
        rhs = np.hstack([rows, np.ones((rows.shape[0], 1))])
        coeffs = _matvec_rows(pinv, rhs)
        residual = _norm_rows(_matvec_rows(system, coeffs) - rhs)
        in_hull = residual <= DECOMP_RESIDUAL_TOL * (1.0 + _norm_rows(rows))
        c = np.clip(coeffs, 0.0, None)
        mask = c > 0.0
        terms = c * (np.log(np.where(mask, c, 1.0)) - self._log_probs)
        value = np.maximum(np.sum(np.where(mask, terms, 0.0), axis=1), 0.0)
        return np.where(in_hull & np.all(coeffs >= -COEFF_TOL, axis=1), value, math.inf)


class GaussianSummands(SummandModel):
    """Gaussian step law N(mean, cov), cov possibly singular."""

    def __init__(self, mean, cov):
        mu = as_vector(mean, name="mean")
        op = cov if isinstance(cov, CovarianceOperator) else CovarianceOperator(cov)
        if op.dim != mu.size:
            raise ValidationError(
                f"mean has length {mu.size} but covariance is {op.dim} x {op.dim}"
            )
        self._mean = mu
        self._cov = op
        # A square root of the covariance from the operator's eigenpairs.
        self._factor = op._eigvecs * np.sqrt(np.clip(op._eigvals, 0.0, None))

    @property
    def dim(self):
        return self._mean.size

    def cgf(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return float(t @ self._mean) + 0.5 * self._cov.quadratic_form(t)

    def cgf_grad(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return self._mean + self._cov.apply(t)

    def cgf_hess(self, theta):
        as_vector(theta, dim=self.dim, name="theta")
        return np.array(self._cov.matrix)

    def mean(self):
        return self._mean

    def cov(self):
        return self._cov

    def sample_sum_batch(self, rng, counts):
        # A sum of k iid Gaussians is Gaussian with mean k mu and covariance
        # k C; one standard-normal draw per replication suffices.
        counts = np.asarray(counts, dtype=float)
        z = rng.standard_normal((counts.size, self.dim))
        return counts[:, None] * self._mean + np.sqrt(counts)[:, None] * (z @ self._factor.T)

    def tilted(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return GaussianSummands(self._mean + self._cov.apply(t), self._cov)

    def _conjugate_rows(self, rows):
        centered = rows - self._mean
        u, ok = self._cov._solve_rows(centered)
        return np.where(ok, np.maximum(0.5 * _dot_rows(u, centered), 0.0), math.inf)


def _on_grid(grid, law):
    """The law, once its dimension is checked against the grid size."""
    if grid.size != law.dim:
        raise DimensionMismatchError(
            f"grid has {grid.size} sites but the law lives in R^{law.dim}"
        )
    return law


def grid_gaussian(grid, mean, kernel):
    """Gaussian field on the grid, as its law on the h site values.

    ``mean`` is a callable s -> E X(s) or a vector of values; ``kernel``
    is a callable (s, t) -> Cov(X(s), X(t)) or the full matrix.
    """
    g = as_vector(grid, name="grid")
    if callable(mean):
        mean = [mean(s) for s in g]
    if callable(kernel):
        kernel = [[kernel(s, t) for t in g] for s in g]
    return _on_grid(g, GaussianSummands(mean, kernel))


def grid_finite_support(grid, paths, probs):
    """Finitely many sample paths, each given by a callable or a row of values."""
    g = as_vector(grid, name="grid")
    rows = [[p(s) for s in g] if callable(p) else p for p in paths]
    return _on_grid(g, FiniteSupportSummands(np.vstack(rows), probs))
