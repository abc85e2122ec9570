"""Gaussian field prior with a squared-inverse-elliptic covariance.

The covariance never exists as a matrix: it acts through solves with the
elliptic stiffness matrix K and multiplications by the mass matrix M,

* covariance action:        ``K^-1 M K^-1 M``   (two elliptic solves)
* covariance square root:   ``K^-1 M``
* precision action:         ``M^-1 K M^-1 K``
* sampling:                 ``mean + K^-1 W nhat``

The first three are self-adjoint in the M-weighted inner product.  K and M
are each factored once by banded Cholesky; ``W = U^T`` is the lower Cholesky
factor of ``M = U^T U``, so ``W W^T = M`` and the draws have exactly the
covariance ``K^-1 M K^-1`` of the nodal values.
"""

from __future__ import annotations

import numpy as np

from .fem import (AnisotropySpec, MassSpace, Mesh, assemble_mass,
                  assemble_prior_stiffness, banded_cholesky,
                  solve_banded_cholesky)

# Columns per block solve in ``pointwise_variance``; bounds the scratch
# memory at a few (n, 64) arrays whatever the number of points.
_VARIANCE_CHUNK = 64


class PriorModel:
    """Gaussian prior over nodal coefficient vectors.

    Every operation is a pure function of its arguments (callers own
    random-number state).  The stiffness matrix is factored once, here;
    ``stiffness_solves`` counts the columns solved with it since, as models
    count their ``forward_solves``.
    """

    def __init__(self, mesh: Mesh, mspace: MassSpace, stiffness, mean,
                 alpha, anisotropy: AnisotropySpec):
        self.mesh = mesh
        self.mspace = mspace
        self.stiffness = stiffness.tocsr()
        self.mean = np.asarray(mean, dtype=float)
        self.alpha = float(alpha)
        self.anisotropy = anisotropy
        if self.mean.shape != (mspace.n,):
            raise ValueError(f"mean has shape {self.mean.shape}, expected ({mspace.n},)")
        self._factor = banded_cholesky(self.stiffness)
        self.stiffness_solves = 0

    @property
    def n(self) -> int:
        return self.mspace.n

    def solve_stiffness(self, rhs):
        self.stiffness_solves += np.size(rhs) // self.n
        return solve_banded_cholesky(self._factor, rhs)

    def apply_covariance(self, v) -> np.ndarray:
        """Covariance action ``K^-1 M K^-1 M v`` (columnwise for 2-D input)."""
        m = self.mspace.matrix
        return self.solve_stiffness(m @ self.solve_stiffness(m @ np.asarray(v, float)))

    def apply_covariance_sqrt(self, v) -> np.ndarray:
        """Square-root action ``K^-1 M v``; composing it twice gives the covariance."""
        return self.solve_stiffness(self.mspace.matrix @ np.asarray(v, float))

    def apply_precision(self, v) -> np.ndarray:
        """Precision action ``M^-1 K M^-1 K v``."""
        k = self.stiffness
        return self.mspace.solve(k @ self.mspace.solve(k @ np.asarray(v, float)))

    def log_density(self, m) -> float:
        """Unnormalized log density ``-1/2 (m - mean)^T K M^-1 K (m - mean)``."""
        d = np.asarray(m, float) - self.mean
        t = self.stiffness @ d
        return -0.5 * float(t @ self.mspace.solve(t))

    def sample(self, nhat) -> np.ndarray:
        """Draw ``mean + K^-1 W nhat`` from a standard-normal vector.

        ``nhat`` may hold several standard-normal columns; one sample per
        column is returned.
        """
        nhat = np.asarray(nhat, float)
        shift = self.solve_stiffness(self.mspace.root @ nhat)
        return self.mean[:, None] + shift if nhat.ndim == 2 else self.mean + shift

    def pointwise_variance(self, points) -> np.ndarray:
        """Variance ``phi(x)^T K^-1 M K^-1 phi(x)`` of the field at query points.

        Solves for ``W = K^-1 Phi^T`` in blocks of points and sums the columns
        of ``W * (M W)``; at a node x_i this is the (i, i) entry of
        ``K^-1 M K^-1``.
        """
        phi_t = self.mesh.basis_matrix(points).T  # CSC: cheap column blocks
        out = np.empty(phi_t.shape[1])
        for lo in range(0, out.size, _VARIANCE_CHUNK):
            w = self.solve_stiffness(phi_t[:, lo:lo + _VARIANCE_CHUNK].toarray())
            out[lo:lo + w.shape[1]] = np.einsum("ij,ij->j", w, self.mspace.matrix @ w)
        return out

    def covariance_function(self, x, y) -> float:
        return covariance_function(self.apply_covariance, self.mesh, self.mspace, x, y)


def covariance_function(gamma_action, mesh: Mesh, mspace: MassSpace, x, y) -> float:
    """Discretized covariance function ``Phi(x)^T Gamma M^-1 Phi(y)``.

    ``gamma_action`` is any covariance action on the weighted space (prior or
    low-rank posterior); ``Phi(z)`` is the basis-evaluation vector at z.
    """
    phi_x = mesh.basis_eval(x)
    phi_y = mesh.basis_eval(y)
    return float(phi_x @ gamma_action(mspace.solve(phi_y)))


def build_prior(mesh: Mesh, alpha: float, anisotropy: AnisotropySpec, mean=None,
                mspace: MassSpace = None) -> PriorModel:
    """Assemble mass and stiffness for a mesh and wrap them in a PriorModel."""
    if mspace is None:
        mspace = MassSpace(assemble_mass(mesh))
    stiffness = assemble_prior_stiffness(mesh, alpha, anisotropy)
    if mean is None:
        mean = np.zeros(mesh.n)
    return PriorModel(mesh, mspace, stiffness, mean, alpha, anisotropy)
