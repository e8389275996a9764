"""Summand-step laws: the distribution of a single term of the compound sum.

Two kinds share one interface:

* FiniteSupportSummands: atoms u_1..u_m in R^h with probabilities p_i. The
  workhorse for exact computations; its Cramer rate has a closed form in
  relative-entropy coordinates when the atoms are linearly independent.
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
exists, the convex conjugate of the cgf.
"""

from __future__ import annotations

import numpy as np

from .dualpair import (
    POS_INF,
    CovarianceOperator,
    ExtendedReal,
    as_vector,
    pair,
    tilt_weights,
)
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

    def sample_sum_batch(self, rng, counts):
        """Draw sums of k iid steps for each k in ``counts``, shape (len, dim)."""
        raise NotImplementedError

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

    def _tilt(self, theta):
        """The cgf at theta and the tilted atom probabilities."""
        t = as_vector(theta, dim=self.dim, name="theta")
        return tilt_weights(self._atoms @ t + self._log_probs)

    def cgf(self, theta):
        return self._tilt(theta)[0]

    def cgf_grad(self, theta):
        return self._tilt(theta)[1] @ self._atoms

    def cgf_hess(self, theta):
        w = self._tilt(theta)[1]
        g = w @ self._atoms
        return (self._atoms.T * w) @ self._atoms - np.outer(g, g)

    def mean(self):
        return self._probs @ self._atoms

    def cov(self):
        mu = self.mean()
        second = (self._atoms.T * self._probs) @ self._atoms
        return CovarianceOperator(second - np.outer(mu, mu))

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
        return FiniteSupportSummands(self._atoms, self._tilt(theta)[1])

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
