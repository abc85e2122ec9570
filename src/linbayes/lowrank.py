"""Low-rank posterior covariance from the prior-preconditioned misfit Hessian.

The data-misfit Hessian, symmetrized by the prior square root on both sides,
is a compact self-adjoint positive operator in the mass-weighted inner
product; its dominant eigenpairs are computed matrix-free by Lanczos
iteration in that inner product with full reorthogonalization.  With
eigenvalues lam_i and weighted-orthonormal eigenvectors v_i, writing
``d_i = lam_i / (lam_i + 1)`` and ``p_i = 1/sqrt(lam_i + 1) - 1``:

* posterior covariance action:  prior covariance minus
  ``tv_r diag(d) tv_r^T M`` where ``tv_r`` are the prior-sqrt-mapped vectors;
* the truncation error of dropping a tail is exactly ``sum d_i`` over it;
* a square-root factor for sampling is
  ``L = prior_sqrt (V_r diag(p) V_r^T M + I) U^-1`` with ``M = U^T U`` the
  mass Cholesky factorization, satisfying ``L L^T M = posterior covariance``;
  since ``M U^-1 = U^T = W`` it is applied as
  ``K^-1 (I + M V_r diag(p) V_r^T) W``, the prior sampler plus a rank-r term;
* the pointwise variance field is the prior one minus
  ``sum_i d_i (Phi(x)^T tv_i)^2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import MassSpace
from .models.base import ForwardModel
from .prior import PriorModel


def prior_preconditioned_hessian(prior: PriorModel, model: ForwardModel, m):
    """Return the action v -> prior_sqrt(H_misfit(prior_sqrt(v))) at point m."""
    m = np.asarray(m, dtype=float)

    def action(v):
        u = prior.apply_covariance_sqrt(v)
        u = model.gauss_newton_hessian_action(m, u)
        return prior.apply_covariance_sqrt(u)

    return action


def hessian_factor(prior: PriorModel, model: ForwardModel, m) -> np.ndarray:
    """The n x q block ``X = K^-1 J^T`` at m: the prior-preconditioned misfit
    Hessian is ``X X^T M / sigma^2``, with the nonzero spectrum of ``X^T M X / sigma^2``."""
    return prior.solve_stiffness(model.jacobian(m).T)


@dataclass
class EigenDecomposition:
    """Converged dominant eigenpairs, weighted-orthonormal columns.

    ``spectrum_incomplete`` flags that the rank cap or the iteration cap was
    hit while eigenvalues above the threshold may remain uncaptured, and
    ``diagnostic`` names it.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    spectrum_incomplete: bool = False
    iterations: int = 0
    diagnostic: str = ""

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]


def truncation_error_bound(lambdas) -> float:
    """``sum lam / (lam + 1)`` over the dropped eigenvalues: the error of dropping them."""
    lams = np.asarray(lambdas, dtype=float)
    return float(np.sum(lams / (lams + 1.0)))


def lanczos_eigs(operator, mspace: MassSpace, r_max: int = 50, eig_tol: float = 1e-6,
                 trunc_threshold: float = 0.1, seed: int = 0) -> EigenDecomposition:
    """Dominant eigenpairs of a self-adjoint PSD operator in the weighted
    inner product.

    Runs Lanczos from a seeded random start vector (deterministic per seed),
    reorthogonalizing each new vector against the whole basis by two passes
    of classical Gram-Schmidt.  A Ritz pair converges when its residual
    estimate is at most ``eig_tol * max(theta_i, trunc_threshold)``, relative
    to its own value however large the dominant one.  Iteration stops once
    every eigenvalue at or above ``trunc_threshold`` has converged and at
    least one converged value lies below the threshold but above
    ``eig_tol * trunc_threshold`` (the retained part of the spectrum is then
    fully captured), on Krylov breakdown, or at the cap of
    ``min(n, 2 r_max + 30)`` iterations, one operator call each.  At most
    ``r_max`` pairs are retained, each signed so that its largest-magnitude
    entry is positive; ``spectrum_incomplete`` is set when that cap cut
    converged pairs or the iteration cap stopped the run.
    """
    n = mspace.n
    if not 1 <= r_max <= n:
        raise ValueError(f"r_max must lie in [1, {n}], got {r_max}")
    cap = min(n, 2 * r_max + 30)
    basis = np.zeros((cap, n))   # the Lanczos vectors, one per row
    images = np.zeros((cap, n))  # their mass images
    alphas = np.zeros(cap)
    betas = np.zeros(cap)
    q = np.random.default_rng(seed).standard_normal(n)
    basis[0] = q / mspace.norm(q)
    images[0] = mspace.matrix @ basis[0]
    for j in range(cap):
        z = operator(basis[j])
        alphas[j] = z @ images[j]
        # betas[-1] is never set, so the first step subtracts a zero term
        z = z - alphas[j] * basis[j] - betas[j - 1] * basis[j - 1]
        for _ in range(2):
            z -= (images[: j + 1] @ z) @ basis[: j + 1]
        beta = mspace.norm(z)
        vals, vecs = scipy.linalg.eigh_tridiagonal(alphas[: j + 1], betas[:j])
        vals, vecs = vals[::-1], vecs[:, ::-1]
        breakdown = beta <= 1e-13 * max(abs(alphas[0]), 1.0)
        residuals = (0.0 if breakdown else beta) * np.abs(vecs[-1])
        converged = residuals <= eig_tol * np.maximum(vals, trunc_threshold)
        above = vals >= trunc_threshold
        # a Ritz value near 0 converges early from the null space and says
        # nothing about the spectrum above the threshold
        captured = np.all(converged[above]) and np.any(
            converged & ~above & (vals > eig_tol * trunc_threshold))
        if breakdown or captured or j + 1 == cap:
            break
        betas[j] = beta
        basis[j + 1] = z / beta
        images[j + 1] = mspace.matrix @ basis[j + 1]

    keep = np.flatnonzero(converged & above)
    capped = keep.size > r_max
    keep = keep[:r_max]
    at_cap = not (breakdown or captured)
    diagnostic = ""
    if capped:
        diagnostic = f"rank cap r_max = {r_max} cut converged eigenpairs above the threshold"
    elif at_cap:
        diagnostic = (f"iteration cap {cap} reached with the spectrum above the "
                      "threshold possibly uncaptured")
    elif keep.size == 0:
        diagnostic = ("Krylov breakdown before any retained eigenpair converged"
                      if breakdown else "no eigenvalue reached the retention threshold")
    vectors = basis[: j + 1].T @ vecs[:, keep]
    vectors *= np.where(vectors.max(axis=0) >= -vectors.min(axis=0), 1.0, -1.0)
    return EigenDecomposition(
        lambdas=np.clip(vals[keep], 0.0, None), vectors=vectors,
        spectrum_incomplete=bool(capped or at_cap), iterations=j + 1, diagnostic=diagnostic)


class LowRankPosterior:
    """Linearized posterior: MAP mean plus prior-minus-low-rank covariance, from
    the eigenvalues ``lambdas`` and eigenvector columns ``vectors`` of ``lanczos_eigs``."""

    def __init__(self, prior: PriorModel, m_map, lambdas, vectors):
        self.prior = prior
        self.m_map = np.asarray(m_map, dtype=float)
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.vectors = np.asarray(vectors, dtype=float)
        self.d_diag = self.lambdas / (self.lambdas + 1.0)
        self.p_diag = 1.0 / np.sqrt(self.lambdas + 1.0) - 1.0
        # prior-sqrt images of the eigenvectors, one elliptic solve per column
        self.tilde_vectors = prior.apply_covariance_sqrt(self.vectors)

    @property
    def rank(self) -> int:
        return self.lambdas.size

    def apply_covariance(self, v) -> np.ndarray:
        """Posterior covariance action: prior action minus the data-informed
        rank-r correction."""
        v = np.asarray(v, dtype=float)
        coeff = self.tilde_vectors.T @ (self.prior.mspace.matrix @ v)
        scaled = self.d_diag[:, None] * coeff if v.ndim == 2 else self.d_diag * coeff
        return self.prior.apply_covariance(v) - self.tilde_vectors @ scaled

    def apply_sampling_factor(self, nhat) -> np.ndarray:
        """The square-root factor L of the posterior covariance
        (``L L^T M = posterior covariance``) applied to ``nhat``."""
        mspace = self.prior.mspace
        rhs = mspace.root @ np.asarray(nhat, float)
        coeff = self.vectors.T @ rhs
        shrink = self.p_diag[:, None] * coeff if rhs.ndim == 2 else self.p_diag * coeff
        return self.prior.solve_stiffness(rhs + mspace.matrix @ (self.vectors @ shrink))

    def sample(self, nhat) -> np.ndarray:
        """MAP point plus the square-root factor applied to standard normals."""
        nhat = np.asarray(nhat, dtype=float)
        shift = self.apply_sampling_factor(nhat)
        return self.m_map[:, None] + shift if nhat.ndim == 2 else self.m_map + shift

    def pointwise_variance(self, points, prior_variance=None) -> np.ndarray:
        """Prior variance minus the per-point variance reduction; clamped at
        zero if round-off drives it negative.

        ``prior_variance`` is the prior variance at the same points, when the
        caller has already computed it.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if prior_variance is None:
            prior_variance = self.prior.pointwise_variance(pts)
        # (points, r) projections; a basis row has at most 2^dim nonzeros
        proj = self.prior.mesh.basis_matrix(pts) @ self.tilde_vectors
        out = np.asarray(prior_variance, dtype=float) - proj**2 @ self.d_diag
        if np.any(out < 0):
            floor = float(np.min(out))
            if floor < -1e-10 * max(1.0, float(np.max(np.abs(out)))):
                warnings.warn(f"posterior variance clipped at zero (min {floor:.3e})")
            out = np.clip(out, 0.0, None)
        return out
