"""Summand-step laws: the distribution of a single term of the compound sum.

Three kinds share one interface:

* FiniteSupportSummands: atoms u_1..u_m in R^h with probabilities p_i. The
  workhorse for exact computations; its Cramer rate has a closed form in
  relative-entropy coordinates when the atoms are linearly independent.
* GaussianSummands: mean vector and covariance operator; cumulants and the
  conjugate are quadratic, sampling of k-fold sums is exact in one draw.
* GridFunctionSummands: a function-valued step tabulated on a grid of h
  sites, wrapping either of the above; the covariance is the kernel matrix
  evaluated on the grid and dual vectors act as signed point masses.

Every model exposes the cumulant generating function cgf(theta) =
log E exp<theta, X>, its gradient and Hessian, mean, covariance, samplers
(including a vectorized sampler for sums of k iid steps, the shape needed by
compound simulation), the exponentially tilted model, and, where a closed
form exists, the convex conjugate of the cgf.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .dualpair import POS_INF, CovarianceOperator, ExtendedReal, as_vector, pair
from .errors import DimensionMismatchError, UnsupportedModelError, ValidationError

# Probabilities must sum to one within this at construction.
PROB_SUM_TOL = 1e-12
# A vector counts as lying in the span of the atoms when the least-squares
# residual is below this, scaled by (1 + |x|).
DECOMP_RESIDUAL_TOL = 1e-8
# Decomposition coefficients count as a probability vector (or as summing to
# zero, for the centered variant) within this.
COEFF_TOL = 1e-10


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

    def sample(self, rng, count):
        """Draw ``count`` iid steps, shape (count, dim)."""
        raise NotImplementedError

    def sample_sum_batch(self, rng, counts):
        """Draw sums of k iid steps for each k in ``counts``, shape (len, dim).

        Generic implementation; subclasses override with closed-form or
        vectorized versions.
        """
        counts = np.asarray(counts)
        out = np.zeros((counts.size, self.dim))
        for i, k in enumerate(counts):
            k = int(k)
            if k > 0:
                out[i] = self.sample(rng, k).sum(axis=0)
        return out

    def tilted(self, theta):
        """The exponentially tilted law dP_theta ~ exp<theta, x> dP."""
        raise NotImplementedError

    def conjugate_closed_form(self, x):
        """Convex conjugate of the cgf at x, or None when no closed form exists."""
        return None


class FiniteSupportSummands(SummandModel):
    """Law concentrated on finitely many atoms.

    Parameters
    ----------
    atoms : (m, h) array
        Support points, one per row.
    probs : (m,) array
        Strictly positive probabilities summing to one within PROB_SUM_TOL.

    When m <= h the atoms must be linearly independent (checked by rank);
    that makes the coordinates of any point of their span unique, which the
    closed-form rate functions require. Models with m > h are accepted for
    cumulants and sampling but refuse the closed-form rates.
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
        if m <= h and np.linalg.matrix_rank(arr) < m:
            raise ValidationError(
                "atoms are linearly dependent; with at most dim atoms they "
                "must be independent for decompositions to be unique"
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

    def cgf(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return float(logsumexp(self._atoms @ t + self._log_probs))

    def cgf_grad(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        scores = self._atoms @ t + self._log_probs
        w = np.exp(scores - logsumexp(scores))
        return w @ self._atoms

    def cgf_hess(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        scores = self._atoms @ t + self._log_probs
        w = np.exp(scores - logsumexp(scores))
        g = w @ self._atoms
        return (self._atoms.T * w) @ self._atoms - np.outer(g, g)

    def mean(self):
        return self._probs @ self._atoms

    def cov(self):
        mu = self.mean()
        second = (self._atoms.T * self._probs) @ self._atoms
        return CovarianceOperator(second - np.outer(mu, mu))

    def sample(self, rng, count):
        idx = rng.choice(self.atom_count, size=int(count), p=self._probs)
        return self._atoms[idx]

    def sample_sum_batch(self, rng, counts):
        counts = np.asarray(counts, dtype=np.int64)
        reps = counts.size
        out = np.zeros((reps, self.dim))
        remaining = counts.copy()
        prob_left = 1.0
        # Split each multinomial into successive conditional binomials; this
        # vectorizes over the whole batch of counts at once.
        for i in range(self.atom_count - 1):
            p_cond = min(max(self._probs[i] / prob_left, 0.0), 1.0)
            taken = rng.binomial(remaining, p_cond)
            out += taken[:, None] * self._atoms[i]
            remaining -= taken
            prob_left -= self._probs[i]
        out += remaining[:, None] * self._atoms[-1]
        return out

    def tilted(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        scores = self._atoms @ t + self._log_probs
        w = np.exp(scores - logsumexp(scores))
        return FiniteSupportSummands(self._atoms, w / w.sum())

    def decompose(self, x):
        """Coordinates of x in the atom basis.

        Returns (coefficients, in_span). Requires m <= h so the coordinates
        are unique; raises UnsupportedModelError otherwise.
        """
        vec = as_vector(x, dim=self.dim, name="x")
        if self.atom_count > self.dim:
            raise UnsupportedModelError(
                "more atoms than dimensions: decomposition in the atom basis "
                "is not unique, closed-form rates are unavailable"
            )
        coeffs, _, _, _ = np.linalg.lstsq(self._atoms.T, vec, rcond=None)
        residual = float(np.linalg.norm(self._atoms.T @ coeffs - vec))
        in_span = residual <= DECOMP_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(vec)))
        return coeffs, in_span

    def cramer_rate(self, x):
        """Closed-form convex conjugate of the cgf.

        Finite exactly on the convex hull of the atoms, where it equals the
        relative entropy sum(c_i log(c_i / p_i)) of the unique mixture
        coefficients, with 0 log 0 = 0 on the boundary.
        """
        coeffs, in_span = self.decompose(x)
        if not in_span:
            return POS_INF
        if np.any(coeffs < -COEFF_TOL) or abs(coeffs.sum() - 1.0) > COEFF_TOL:
            return POS_INF
        c = np.clip(coeffs, 0.0, None)
        mask = c > 0.0
        value = float(np.sum(c[mask] * (np.log(c[mask]) - self._log_probs[mask])))
        return ExtendedReal(max(value, 0.0))

    def centered_decompose(self, x):
        """Like decompose, additionally reporting whether coefficients sum to zero."""
        coeffs, in_span = self.decompose(x)
        centered = in_span and abs(float(coeffs.sum())) <= COEFF_TOL
        return coeffs, centered

    def conjugate_closed_form(self, x):
        if self.atom_count > self.dim:
            return None
        return self.cramer_rate(x)


def cramer_rate_finite_support(model, x):
    """Closed-form Cramer rate; defined for finite-support laws only.

    Grid-function models wrapping a finite-support base are unwrapped.
    """
    if isinstance(model, GridFunctionSummands):
        model = model.base
    if not isinstance(model, FiniteSupportSummands):
        raise UnsupportedModelError(
            "closed-form Cramer rate requires a finite-support summand law"
        )
    return model.cramer_rate(x)


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
        eigvals, eigvecs = np.linalg.eigh(op.matrix)
        self._factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))

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

    def sample(self, rng, count):
        z = rng.standard_normal((int(count), self.dim))
        return self._mean + z @ self._factor.T

    def sample_sum_batch(self, rng, counts):
        # A sum of k iid Gaussians is Gaussian with mean k mu and covariance
        # k C; one standard-normal draw per replication suffices.
        counts = np.asarray(counts, dtype=float)
        z = rng.standard_normal((counts.size, self.dim))
        return counts[:, None] * self._mean + np.sqrt(counts)[:, None] * (z @ self._factor.T)

    def tilted(self, theta):
        t = as_vector(theta, dim=self.dim, name="theta")
        return GaussianSummands(self._mean + self._cov.apply(t), self._cov)

    def conjugate_closed_form(self, x):
        vec = as_vector(x, dim=self.dim, name="x")
        centered = vec - self._mean
        u = self._cov.solve(centered)
        if u is None:
            return POS_INF
        return ExtendedReal(max(0.5 * pair(u, centered), 0.0))


class GridFunctionSummands(SummandModel):
    """Function-valued step tabulated on a grid of h sites.

    The primal coordinates are the function values at the grid sites; dual
    vectors are signed point-mass weights on the same sites, so the pairing
    carries no grid-spacing factor. The covariance operator is the kernel
    matrix Cov(X(s_i), X(s_j)).

    Wraps a base law (finite-support sample paths or a Gaussian field) and
    delegates all probabilistic operations to it.
    """

    def __init__(self, grid, base):
        g = as_vector(grid, name="grid")
        if not isinstance(base, (FiniteSupportSummands, GaussianSummands)):
            raise ValidationError(
                "base law must be finite-support or Gaussian"
            )
        if base.dim != g.size:
            raise DimensionMismatchError(
                f"grid has {g.size} sites but the base law lives in R^{base.dim}"
            )
        self._grid = g
        self._base = base

    @classmethod
    def gaussian(cls, grid, mean, kernel):
        """Gaussian field on the grid.

        ``mean`` is a callable s -> E X(s) or a vector of values; ``kernel``
        is a callable (s, t) -> Cov(X(s), X(t)) or the full matrix.
        """
        g = as_vector(grid, name="grid")
        mu = np.array([mean(s) for s in g], dtype=float) if callable(mean) else mean
        if callable(kernel):
            k = np.array([[kernel(s, t) for t in g] for s in g], dtype=float)
        else:
            k = kernel
        return cls(g, GaussianSummands(mu, k))

    @classmethod
    def finite_support(cls, grid, paths, probs):
        """Finitely many sample paths, each given by a callable or a row of values."""
        g = as_vector(grid, name="grid")
        rows = [
            np.array([p(s) for s in g], dtype=float) if callable(p) else np.asarray(p, dtype=float)
            for p in paths
        ]
        return cls(g, FiniteSupportSummands(np.vstack(rows), probs))

    @property
    def grid(self):
        return self._grid

    @property
    def base(self):
        return self._base

    @property
    def kernel_matrix(self):
        return self._base.cov().matrix

    @property
    def dim(self):
        return self._base.dim

    def cgf(self, theta):
        return self._base.cgf(theta)

    def cgf_grad(self, theta):
        return self._base.cgf_grad(theta)

    def cgf_hess(self, theta):
        return self._base.cgf_hess(theta)

    def mean(self):
        return self._base.mean()

    def cov(self):
        return self._base.cov()

    def sample(self, rng, count):
        return self._base.sample(rng, count)

    def sample_sum_batch(self, rng, counts):
        return self._base.sample_sum_batch(rng, counts)

    def tilted(self, theta):
        return GridFunctionSummands(self._grid, self._base.tilted(theta))

    def conjugate_closed_form(self, x):
        return self._base.conjugate_closed_form(x)
