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
drawn as successive conditional binomials, one stage per atom but the last,
and summed coordinate by coordinate. ``sample_sum_batch`` draws each stage
with numpy's binomial sampler. ``plain_sampler`` (the sampler of plain
draws) may instead draw each stage from one ``rng.random`` uniform per sum,
inverted in exact Binomial(k, q) cdf rows (``_GuideTable``, built by
Pascal's rule on the cdf and the survival, one numpy step per row: about
5-9 ms for a table of 2^16 states), each in one pass, only where each stage
holds at most TABLE_STAGE_STATES states and all at most MASS_TABLE_CAP,
judged from their windows before any build; past that it is
``sample_sum_batch``. Every other law's ``plain_sampler`` is its
``sample_sum_batch``. The module imports nothing from scipy.

Every cdf inversion of the package, of counts and of stages, takes
``invert_cdf``'s rule through one kernel, ``_CdfGuide``: a guide table
(Chen & Asau, AIIE Trans. 6(2), 1974) with a power-of-two number of cells
per row, so that every product u M and F M is exact and each draw is one
gather in O(1) expected steps, bit for bit the draw of ``invert_cdf``.
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
    _row_scales,
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
# Plain draws build stage tables only up to this many window states per
# stage: the largest power of two at which the measured laws' build plus
# the draws of the default plain reps, 10^5 sums, cost about what numpy's
# binomials do, or less. On 2 vCPU, with Poisson(1) counts, the table route
# took this share of the binomial route's time (best of 7, five rounds, the
# high ends in the rounds under host load):
#   law                 states a stage   share
#   +-1                 64,095           0.83-1.06
#   +-1                 92,332           1.04-1.26
#   FS2 (0.3, 0.3)      63,364           0.63-0.86
#   FS2 (0.3, 0.3)      91,355           0.69-1.08
#   q = 0.02            63,974           0.44-0.82
#   q = 0.97            76,904           0.42-0.74
#   q = 0.97            101,022          1.02-1.59
# +-1, the tightest, took 0.83-0.89 in the quiet rounds. A table of 2^16
# states costs about 5-9 ms to build.
TABLE_STAGE_STATES = 1 << 16


def check_probs(probs):
    """The package's one rule for a probability vector: finite, strictly
    positive entries whose sum, numpy's, is 1 within PROB_SUM_TOL."""
    p = np.asarray(probs, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise ValidationError("probabilities must be strictly positive")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, "
                              f"not 1 within {PROB_SUM_TOL:g}")


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


class _CdfGuide:
    """Exact O(1) inversion of cdf rows by a guide table (Chen & Asau, AIIE
    Trans. 6(2), 1974): ``draw(rows, u)`` is ``invert_cdf`` of each u in its
    row, as a state, for every u in [0, 1).

    Built from one row set (cdf, widths, lows), its rows laid end to end:
    a row of ``widths[r]`` nondecreasing entries that reaches 1, for the
    states from ``lows[r]`` on. A draw reaches only the w states from
    the first of positive cdf to the first of cdf 1, and only those are
    kept. Their row gets M = 2^ceil(log2(2 w)) cells, and cell c holds
    lo[c], the draw at u = c / M: the first state with ceil(cdf M) > c, read
    off a repeat of each state ceil(cdf M) - ceil(cdf' M) times, cdf' its
    predecessor's. Every product by the power of two M is exact, so lo[c]
    is exact too. A sentinel cell M holds the row's last state. The draw at
    u in cell c = floor(u M) is lo[c] unless cdf[lo[c]] <= u, and then it
    lies in (lo[c], lo[c + 1]], found by bisection. Cells are int32 indices
    into the kept entries.
    """

    def __init__(self, cdf, widths, lows):
        start = np.cumsum(widths) - widths
        ones = cdf >= 1.0
        ones_before = np.cumsum(ones) - ones
        keep = (cdf > 0.0) & (ones_before == np.repeat(ones_before[start], widths))
        index = np.flatnonzero(keep)
        self.cdf = cdf[keep]
        w = np.bincount(np.repeat(np.arange(widths.size), widths)[keep],
                        minlength=widths.size)
        first = np.cumsum(w) - w
        self.scale = np.ldexp(1.0, np.frexp(2 * w - 1)[1])
        ceil = np.ceil(self.cdf * np.repeat(self.scale, w)).astype(np.int64)
        # State j holds the cells from its predecessor's ceil(cdf M) up to
        # its own; a row's last state holds the sentinel too.
        repeats = np.diff(ceil, prepend=0)
        repeats[first] = ceil[first]
        repeats[first + w - 1] += 1
        self.lo = np.repeat(np.arange(self.cdf.size, dtype=np.int32), repeats)
        row_cells = self.scale.astype(np.int64) + 1
        self.cells = np.cumsum(row_cells) - row_cells
        self.shift = first - (lows + index[first] - start)

    def draw(self, rows, u):
        """``invert_cdf`` of each u in its row (an index array or one row
        for every u), as an int64 state."""
        # Each step in place: a run of draws holds few row-long temporaries.
        cell = (u * self.scale[rows]).astype(np.int64)
        cell += self.cells[rows]
        # numpy gathers by an int32 index array on a slower path: cast once.
        j = self.lo[cell].astype(np.intp)
        over = np.flatnonzero(self.cdf[j] <= u)
        if over.size:
            # Most of these draw the next state; the rest, in cells of many
            # states (the tails), bisect with pos always below the draw.
            j[over] += 1
            over = over[self.cdf[j[over]] <= u[over]]
        if over.size:
            u, pos, high = u[over], j[over], self.lo[cell[over] + 1]
            step = 1 << int(np.max(high - pos)).bit_length()
            while step > 1:
                step >>= 1
                np.add(pos, step, out=pos,
                       where=self.cdf[np.minimum(pos + step, high)] <= u)
            j[over] = pos + 1
        return np.subtract(j, self.shift[rows], out=cell)


class _GuideTable(_CdfGuide):
    """Binomial(k, q) cdf rows for k = 0..K over windows (a, b), inverted by
    the guide (one conditional stage).

    Row k covers the states a uniform on the 2^-53 grid selects: from the
    first whose cdf passes 2^-53 (u = 0 draws it, where the whole row would
    draw a state of cdf below 2^-53; those states go in as 0) to the first
    whose cdf is 1; the last state of the window is set to 1, the tail
    beyond it being below 2^-54. The rows come from Pascal's rule, run
    alike on the cdf F from F_0 = 1 and on the survival S = 1 - F from
    S_0 = 0: F_k(j) = q F_{k-1}(j - 1) + (1 - q) F_{k-1}(j), one numpy step
    per row for both over the states 0..max(highs) (row k needs row k - 1
    on no more states than its own, and F_{k-1}(j) = 1, S_{k-1}(j) = 0 for
    j >= k - 1, so the cut is exact). Each step is a convex combination of
    nonnegative terms, so F and S keep their relative accuracy, and a row
    takes F where F <= 1/2 and 1 - S past it: both tails are accurate
    relative to their mass (within 2.8e-14 of it, measured up to the
    largest table TABLE_STAGE_STATES admits), and a row reads 1 only where
    S <= 2^-54. F alone, accurate near 1 only to about k 2^-53, would read
    1 while up to about 1e-14 of the row's mass lay further right, out of
    any draw's reach.
    """

    def __init__(self, q, lows, highs):
        widths = highs - lows + 1
        ends = 2 * np.cumsum(widths)
        # The current row's cdf F and survival S = 1 - F side by side:
        # cur[2 j + 2] is F(j) and cur[2 j + 3] is S(j), after F(-1) = 0 and
        # S(-1) = 1, so Pascal's step on both is one shift by two. Each row
        # is written to the other buffer.
        top_state = int(highs.max())
        cur, nxt = np.zeros((2, 2 * top_state + 4))
        cur[2::2] = nxt[2::2] = cur[1] = nxt[1] = 1.0
        shifted = np.empty(2 * top_state + 2)
        pairs = np.empty(ends[-1])
        for k, (end, a, b) in enumerate(zip(ends.tolist(), lows.tolist(), highs.tolist())):
            if k:
                top = 2 * min(k, top_state) + 2
                np.multiply(cur[:top], q, out=shifted[:top])
                np.multiply(cur[2:top + 2], 1.0 - q, out=nxt[2:top + 2])
                nxt[2:top + 2] += shifted[:top]
                cur, nxt = nxt, cur
            pairs[end - 2 * (b - a + 1):end] = cur[2 * a + 2:2 * b + 4]
        cdf, survival = pairs[0::2], pairs[1::2]
        cdf = np.where(cdf > 0.5, 1.0 - survival, cdf)
        cdf[ends // 2 - 1] = 1.0
        cdf[cdf <= UNIFORM_STEP] = 0.0
        super().__init__(cdf, widths, lows)


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
        Probabilities, by ``check_probs``.

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
        check_probs(p)
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
        # Summed column by column, each as 0.0 + t_0 u_0 + t_1 u_1 + ..., the
        # sums of whole rows bit for bit, without numpy's inner loop over the
        # short last axis.
        out = np.zeros((counts.size, self.dim))
        remaining = counts.copy()
        for i in range(len(self._stages)):
            taken = draw(i, remaining)
            for column, value in zip(out.T, self._atoms[i]):
                column += taken * value
            remaining -= taken
            del taken  # not held through the next stage's draw
        for column, value in zip(out.T, self._atoms[-1]):
            column += remaining * value
        return out

    def sample_sum_batch(self, rng, counts):
        return self._sum_by_stages(
            counts, lambda i, remaining: rng.binomial(remaining, self._stages[i]))

    def plain_sampler(self, max_count):
        """Draws each stage from one ``rng.random`` uniform per sum, inverted
        in that stage's ``_GuideTable``, where each stage holds at most
        TABLE_STAGE_STATES states and all at most MASS_TABLE_CAP, decided
        from their windows before any build; ``sample_sum_batch`` past that."""
        windows = [_binomial_windows(q, max_count) for q in self._stages]
        states = [int((b - a).sum()) + a.size for a, b in windows]
        if max(states, default=0) > TABLE_STAGE_STATES or sum(states) > MASS_TABLE_CAP:
            return self.sample_sum_batch
        tables = [_GuideTable(q, a, b) for q, (a, b) in zip(self._stages, windows)]
        return lambda rng, counts: self._sum_by_stages(counts, lambda i, remaining: (
            tables[i].draw(remaining, rng.random(remaining.size))))

    def tilted(self, theta):
        """The tilted law, on the atoms whose tilted weight is not 0 in floats."""
        w = self._tilt(theta)[1]
        return FiniteSupportSummands(self._atoms[w > 0.0], w[w > 0.0])

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
        # A row past 2^500 is decomposed scaled by an exact power of two,
        # with its 1 scaled alike, so the residual's squares stay finite.
        scale = _row_scales(rows)
        rows = rows * scale[:, None]
        rhs = np.hstack([rows, scale[:, None]])
        coeffs = _matvec_rows(pinv, rhs)
        residual = _norm_rows(_matvec_rows(system, coeffs) - rhs)
        in_hull = residual <= DECOMP_RESIDUAL_TOL * (scale + _norm_rows(rows))
        with np.errstate(over="ignore"):  # off the hull only
            coeffs = coeffs / scale[:, None]
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
        # k C; one standard-normal draw per replication suffices. A zero row
        # keeps a one-row batch on numpy's matrix product, whose rounding
        # its vector-matrix routine does not share.
        counts = np.asarray(counts, dtype=float)
        z = np.vstack([rng.standard_normal((counts.size, self.dim)), np.zeros(self.dim)])
        steps = (z @ self._factor.T)[:-1]
        return counts[:, None] * self._mean + np.sqrt(counts)[:, None] * steps

    def tilted(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return GaussianSummands(self._mean + self._cov.apply(t), self._cov)

    def _conjugate_rows(self, rows):
        centered = rows - self._mean
        u, ok = self._cov._solve_rows(centered)
        with np.errstate(over="ignore"):  # a value past the float range is +inf
            quad = 0.5 * _dot_rows(u, centered)
        return np.where(ok, np.maximum(quad, 0.0), math.inf)


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
