"""Finite-dimensional dual pair: vectors, the pairing and covariance operators.

The ambient space for summand laws is R^h paired with itself through the
Euclidean inner product. Function-valued summands tabulated on a grid of h
sites live in the same pair: the primal vector holds function values, the
dual vector holds signed point-mass weights, and the pairing is the plain
weighted sum with no grid-spacing factor.

Covariance operators are symmetric positive semidefinite h x h matrices.
They may be singular (finite-support laws on fewer atoms than dimensions
produce rank-deficient covariances), so solving against them goes through a
spectral pseudo-inverse with an explicit image-membership check: a right-hand
side outside the image is reported as such, which downstream rate functions
translate to +infinity. The solve is row-wise: a (P, h) stack of right-hand
sides is solved at once, each row with its own residual test, by products
that give each row the bits of its one-row product; ``solve`` is the
one-row case.

Rate functions take values in [0, +inf] and a count cumulant's left-tail
limit in [-inf, 0]; both are plain floats, which carry the infinities.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Construction-time tolerance on |matrix - matrix.T|, elementwise.
SYMMETRY_TOL = 1e-12
# Eigenvalues of a covariance matrix may dip this far below zero before the
# matrix is rejected as not positive semidefinite.
PSD_EIGENVALUE_FLOOR = -1e-10
# Spectral cutoff for the pseudo-inverse, relative to the largest eigenvalue.
SOLVE_SPECTRAL_CUTOFF = 1e-10
# A candidate solution u of sigma @ u = x is accepted when the residual
# norm is below this, scaled by (1 + |x|).
SOLVE_RESIDUAL_TOL = 1e-8


def as_vector(values, dim=None, name="vector"):
    """Validate and freeze a 1-d array of finite reals.

    Returns a read-only float64 copy. ``dim``, when given, is enforced.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(
            f"{name} has length {arr.size}, expected {dim}"
        )
    arr.flags.writeable = False
    return arr


def finite_real(value, name, need="be a finite real", within=None):
    """``value`` as a float once it is a finite real (numpy scalars too,
    bools not) for which ``within``, if given, holds; else ValidationError:
    name must need."""
    if (isinstance(value, bool) or not (isinstance(value, numbers.Real)
            and math.isfinite(value) and (within is None or within(value)))):
        raise ValidationError(f"{name} must {need}, got {value!r}")
    return float(value)


def check_int(value, name, least):
    """value as an int once it is an integer (numpy integers too, bools not)
    of at least ``least``; else ValidationError. Never truncates."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValidationError(f"need an integer {name} >= {least}, got {value!r}")
    return int(value)


def _matvec_rows(matrix, rows):
    """matrix @ row for each row of a (P, n) stack. The stacked matmul runs
    one matrix-vector product per row, the same as ``matrix @ row``; the
    matrix-matrix product ``rows @ matrix.T`` may round differently."""
    return np.matmul(matrix, rows[..., None])[..., 0]


def _dot_rows(a, b):
    """a_i @ b_i for each pair of rows, bit for bit the one-dimensional dot."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _norm_rows(rows):
    """np.linalg.norm of each row, which is the square root of its dot."""
    return np.sqrt(_dot_rows(rows, rows))


def _row_scales(rows):
    """For each row of a (P, n) stack, 1 when its entries stay below 2^500,
    else the power of two that brings its largest entry into [2^499, 2^500).
    Scaling a row by it is exact, and the squares in its norm stay in the
    float range."""
    _, exponent = np.frexp(np.max(np.abs(rows), axis=1))
    return np.ldexp(1.0, np.minimum(0, 500 - exponent))


def tilt_weights(scores):
    """log sum exp(scores) and the weights exp(scores) normalised to sum one,
    by a shift to the largest score. For scores log p_i + <theta, u_i> these
    are a finite-support cgf at theta and the tilted atom probabilities."""
    peak = float(np.max(scores))
    weights = np.exp(scores - peak)
    total = float(weights.sum())
    return peak + math.log(total), weights / total


class CovarianceOperator:
    """Symmetric positive semidefinite operator on the dual pair.

    Wraps an h x h matrix, validated at construction:

    * symmetric elementwise within ``SYMMETRY_TOL``;
    * eigenvalues no lower than ``PSD_EIGENVALUE_FLOOR``.

    The stored matrix is the symmetrized copy, frozen read-only, so every
    later apply() sees an exactly symmetric operator.
    """

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(
                f"covariance matrix must be square, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("covariance matrix must be finite")
        asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValidationError(
                f"covariance matrix is asymmetric by {asym:.3e} "
                f"(tolerance {SYMMETRY_TOL:.0e})"
            )
        sym = (arr + arr.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(sym)
        if eigvals.min() < PSD_EIGENVALUE_FLOOR:
            raise ValidationError(
                f"covariance matrix has eigenvalue {eigvals.min():.3e} below "
                f"the positive-semidefinite floor {PSD_EIGENVALUE_FLOOR:.0e}"
            )
        sym.flags.writeable = False
        self._matrix = sym
        self._eigvals = eigvals
        self._eigvecs = eigvecs

    @property
    def matrix(self):
        return self._matrix

    @property
    def dim(self):
        return self._matrix.shape[0]

    def apply(self, v):
        """Matrix-vector product sigma @ v."""
        vec = as_vector(v, dim=self.dim, name="dual vector")
        return self._matrix @ vec

    def solve(self, x):
        """Solve sigma @ u = x through the spectral pseudo-inverse.

        Eigenvalues below ``SOLVE_SPECTRAL_CUTOFF`` times the largest are
        treated as zero. Returns u when the reconstruction residual passes
        ``SOLVE_RESIDUAL_TOL`` scaled by (1 + |x|); returns None when x is
        not in the image of sigma.
        """
        vec = as_vector(x, dim=self.dim, name="right-hand side")
        u, ok = self._solve_rows(vec[None])
        return u[0] if ok[0] else None

    def _solve_rows(self, rows):
        """``solve`` for each row of a (P, h) stack of finite right-hand
        sides: (U, ok), where row i of U solves it when ok[i] holds. A row
        past 2^500 is solved scaled by ``_row_scales``; its solution is
        scaled back, +inf entries where it passes the float range."""
        top = float(self._eigvals.max(initial=0.0))
        cutoff = SOLVE_SPECTRAL_CUTOFF * max(top, 0.0)
        # Safe reciprocal: entries at or below the cutoff never reach 1/eig.
        with np.errstate(divide="ignore"):
            inv = np.where(self._eigvals > cutoff, 1.0 / self._eigvals, 0.0)
        scale = _row_scales(rows)
        rows = rows * scale[:, None]
        u = _matvec_rows(self._eigvecs, inv * _matvec_rows(self._eigvecs.T, rows))
        residual = _norm_rows(_matvec_rows(self._matrix, u) - rows)
        with np.errstate(over="ignore"):
            u = u / scale[:, None]
        return u, residual <= SOLVE_RESIDUAL_TOL * (scale + _norm_rows(rows))

    def quadratic_form(self, theta):
        """<theta, sigma theta>, clipped at zero against roundoff."""
        vec = as_vector(theta, dim=self.dim, name="dual vector")
        return max(float(vec @ self._matrix @ vec), 0.0)

    def __repr__(self):
        return f"CovarianceOperator(dim={self.dim})"
