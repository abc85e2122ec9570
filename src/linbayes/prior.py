"""Gaussian field prior with a squared-inverse-elliptic covariance.

The covariance is never formed whole: it acts through solves with the
elliptic stiffness matrix K and multiplications by the mass matrix M,

* covariance action:        ``K^-1 M K^-1 M``   (two elliptic solves)
* covariance square root:   ``K^-1 M``
* precision action:         ``M^-1 K M^-1 K``
* sampling:                 ``mean + K^-1 W nhat``
* pointwise variance:       diagonal blocks of ``K^-1 M K^-1`` from K's factor

The first three are self-adjoint in the M-weighted inner product.  K and M
are each factored once by banded Cholesky; ``W = U^T`` is the lower Cholesky
factor of ``M = U^T U``, so ``W W^T = M`` and the draws have exactly the
covariance ``K^-1 M K^-1`` of the nodal values.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .fem import (AnisotropySpec, MassSpace, Mesh, assemble_mass,
                  assemble_prior_stiffness, banded_cholesky,
                  solve_banded_cholesky, upper_band)

# Fewest rows per block in ``pointwise_variance``, for 1D meshes (bandwidth 1)
_MIN_BLOCK = 32


class PriorModel:
    """Gaussian prior over nodal coefficient vectors.

    Every operation is a pure function of its arguments (callers own
    random-number state).  The stiffness matrix is factored once, here;
    ``stiffness_solves`` counts the columns solved with it since, as models
    count their ``forward_solves``.
    """

    def __init__(self, mesh: Mesh, mspace: MassSpace, stiffness, mean):
        self.mesh = mesh
        self.mspace = mspace
        self.stiffness = stiffness.tocsr()
        self.mean = np.asarray(mean, dtype=float)
        if self.mean.shape != (mspace.n,):
            raise ValueError(f"mean has shape {self.mean.shape}, expected ({mspace.n},)")
        self._factor = banded_cholesky(upper_band(self.stiffness))
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
        """Variance ``phi(x)^T V phi(x)``, ``V = K^-1 M K^-1``, at query points.

        V is minus the yy block of ``B^-1``, ``B = [[M, K], [K, 0]]``, block
        tridiagonal in blocks of b >= bandwidth rows.  Its pivots invert to
        ``[[0, P_i], [P_i, Q_i]]`` with ``P_i = (U_ii^T U_ii)^-1`` from the held
        factor ``K = U^T U``; selected inversion (Takahashi, Fagan & Chin 1973)
        gives V's diagonal and subdiagonal blocks in O(n b^2) work and O(n b)
        memory.  They hold every node pair of an element: exact at any point.
        """
        n, u = self.n, max(len(self._factor), len(self.mspace.band)) - 1
        b = max(u, _MIN_BLOCK)
        nb = -(-n // b)
        width = (nb + 1) * b
        # U and M bands with a zero row u + 1, padded to nb + 1 blocks by I and 0
        u_band, m_band = np.zeros((2, u + 2, width))
        u_band[u + 1 - len(self._factor):u + 1, :n] = self._factor
        u_band[u, n:] = 1.0
        m_band[u + 1 - len(self.mspace.band):u + 1, :n] = self.mspace.band
        # flat indices of rows 0..b, columns 0..b+u of U and of symmetric M:
        # block row i reaches the first u columns of block i + 1 only
        row, col = np.arange(b)[:, None], np.arange(b + u)
        dist = np.abs(col - row)
        at_u = np.where((col >= row) & (dist <= u), u - dist, u + 1) * width + col
        at_m = np.where(dist <= u, u - dist, u + 1) * width + np.maximum(col, row)
        work = np.empty((nb, 2, b, b))  # P, Q; then V_ii and V_i+1,i (first u rows)
        mult = np.empty((nb, 2, b, u))  # alpha, beta on block i + 1's first u columns
        a_next = 0.0  # A_i+1 - M_i+1,i+1, nonzero in its first u rows and columns
        for i in range(nb):  # block row i is the gather shifted by i b
            ub, mb = u_band.take(at_u + i * b), m_band.take(at_m + i * b)
            t = scipy.linalg.lapack.dtrtri(ub[:, :b])[0]  # U_ii^-1
            a = mb[:, :b]  # M_ii, updated in place to A_i
            a[:u, :u] += a_next
            p, alpha = t @ t.T, t @ ub[:, b:]
            r = mb[:, b:] - a @ alpha
            work[i], mult[i] = (p, -p @ a @ p), (alpha, p @ r)
            a_next = -mb[:, b:].T @ alpha - alpha.T @ r
        g = h = np.zeros((u, u))  # first u rows, columns of (K^-1)_i+1,i+1, -V_i+1,i+1
        for i in reversed(range(nb)):
            (p, q), (alpha, beta) = work[i], mult[i]
            y, x = g @ alpha.T, g @ beta.T + h @ alpha.T
            h_ii = q + alpha @ x + beta @ y
            g, h = p[:u, :u] + alpha[:u] @ y[:, :u], h_ii[:u, :u]
            work[i, 0], work[i, 1, :u] = -h_ii, x
        # sum phi_a phi_b V[hi, lo] over each point's 2^dim basis functions
        phi = self.mesh.basis_matrix(points)
        idx, vals = (arr.reshape(-1, 2**self.mesh.dim) for arr in (phi.indices, phi.data))
        lo, hi = (pick(idx[:, :, None], idx[:, None, :]) for pick in (np.minimum, np.maximum))
        return np.einsum("pa,pb,pab->p", vals, vals,
                         work[lo // b, hi // b - lo // b, hi % b, lo % b])


def build_prior(mesh: Mesh, alpha: float, anisotropy: AnisotropySpec, mean=None) -> PriorModel:
    """Assemble mass and stiffness for a mesh and wrap them in a PriorModel."""
    stiffness = assemble_prior_stiffness(mesh, alpha, anisotropy)
    if mean is None:
        mean = np.zeros(mesh.n)
    return PriorModel(mesh, MassSpace(assemble_mass(mesh)), stiffness, mean)
