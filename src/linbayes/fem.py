"""Meshes, finite-element assembly, and mass-weighted linear algebra.

The parameter space is a continuous Lagrange finite-element space on a
uniform tensor-product mesh (1D intervals or 2D axis-aligned quads, (bi)linear
elements).  All inner products between nodal coefficient vectors are weighted
by the mass matrix M so that ``u^T M v`` approximates the L2 pairing of the
underlying fields.  Adjoints are taken with respect to that weighted inner
product, so they differ from plain matrix transposes: a forward model's
Jacobian F, mapping the weighted space to Euclidean data, has adjoint
``M^-1 F^T``.

Every solve with an SPD matrix (the mass matrix here, the prior stiffness in
``prior``) goes through one banded Cholesky factorization of that matrix,
computed once when the object that owns it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# 2-point Gauss rule on [-1, 1]: exact for cubics, hence for all products of
# (bi)linear basis functions on affine elements.
_GAUSS_PTS = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
_GAUSS_WTS = np.array([1.0, 1.0])


def _shape_1d(xi):
    """Linear shape functions on [-1, 1], evaluated at points ``xi``."""
    xi = np.atleast_1d(xi)
    return np.stack([(1.0 - xi) / 2.0, (1.0 + xi) / 2.0], axis=-1)


# Derivatives of the 1D shape functions with respect to xi (constant).
_DSHAPE_1D = np.array([-0.5, 0.5])


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor-product mesh with lexicographic node ordering.

    Nodes are in one-to-one correspondence with the Lagrange basis functions:
    ``basis_eval(node_coords[i])`` is the i-th unit vector.
    """

    dim: int
    node_coords: np.ndarray  # (n, dim)
    elements: np.ndarray     # (ne, 2) segments or (ne, 4) quads, CCW
    domain_bounds: tuple     # ((lo, hi), ...) per axis
    counts: tuple            # elements per axis

    @property
    def n(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def spacings(self) -> tuple:
        return tuple(
            (hi - lo) / c for (lo, hi), c in zip(self.domain_bounds, self.counts)
        )

    @property
    def measure(self) -> float:
        out = 1.0
        for lo, hi in self.domain_bounds:
            out *= hi - lo
        return out

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            return False
        for xi, (lo, hi) in zip(x, self.domain_bounds):
            tol = 1e-10 * (hi - lo)
            if xi < lo - tol or xi > hi + tol:
                return False
        return True

    def _locate_axis(self, xi, axis):
        lo, hi = self.domain_bounds[axis]
        h = self.spacings[axis]
        idx = int(np.floor((xi - lo) / h))
        idx = min(max(idx, 0), self.counts[axis] - 1)
        local = 2.0 * (xi - (lo + idx * h)) / h - 1.0
        return idx, min(max(local, -1.0), 1.0)

    def _basis_support(self, x):
        """Indices and values of the basis functions that may be nonzero at a
        point; raises ValueError for points outside the domain."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.contains(x):
            raise ValueError(f"point {x} lies outside the domain {self.domain_bounds}")
        if self.dim == 1:
            el, xi = self._locate_axis(x[0], 0)
            return (el, el + 1), ((1.0 - xi) / 2.0, (1.0 + xi) / 2.0)
        ex, xi = self._locate_axis(x[0], 0)
        ey, eta = self._locate_axis(x[1], 1)
        nx = self.counts[0] + 1
        base = ex + nx * ey
        nodes = (base, base + 1, base + 1 + nx, base + nx)
        vals = (
            (1 - xi) * (1 - eta) / 4.0,
            (1 + xi) * (1 - eta) / 4.0,
            (1 + xi) * (1 + eta) / 4.0,
            (1 - xi) * (1 + eta) / 4.0,
        )
        return nodes, vals

    def basis_eval(self, x) -> np.ndarray:
        """Evaluate all Lagrange basis functions at a point of the domain.

        Returns the length-n vector (phi_1(x), ..., phi_n(x)); raises
        ValueError for points outside the domain.
        """
        nodes, vals = self._basis_support(x)
        out = np.zeros(self.n)
        out[list(nodes)] = vals
        return out

    def basis_matrix(self, points) -> sp.csr_matrix:
        """Sparse (points, n) matrix whose rows are ``basis_eval`` at each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        support = [self._basis_support(x) for x in pts]
        nodes = np.array([s[0] for s in support], dtype=np.int64).reshape(-1)
        vals = np.array([s[1] for s in support], dtype=float).reshape(-1)
        per_row = 2 ** self.dim
        indptr = np.arange(0, per_row * len(support) + 1, per_row)
        return sp.csr_matrix((vals, nodes, indptr), shape=(len(support), self.n))


def build_mesh(dim, counts, bounds) -> Mesh:
    """Build a uniform mesh of the axis-aligned box ``bounds``.

    ``counts`` gives elements per axis (int for 1D, pair for 2D); nodes are
    ordered lexicographically with the x index varying fastest.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if np.isscalar(counts):
        counts = (int(counts),)
    counts = tuple(int(c) for c in counts)
    if len(counts) != dim:
        raise ValueError(f"expected {dim} element counts, got {counts}")
    if any(c < 1 for c in counts):
        raise ValueError(f"element counts must be >= 1, got {counts}")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = bounds[None, :]
    if bounds.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) bound pairs, got shape {bounds.shape}")
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError(f"degenerate or inverted domain box {bounds.tolist()}")
    bounds_t = tuple((float(lo), float(hi)) for lo, hi in bounds)

    axes = [np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(bounds_t, counts)]
    if dim == 1:
        coords = axes[0][:, None]
        idx = np.arange(counts[0])
        elements = np.stack([idx, idx + 1], axis=1)
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="xy")
        coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
        nx = counts[0] + 1
        ex, ey = np.meshgrid(np.arange(counts[0]), np.arange(counts[1]), indexing="xy")
        base = (ex + nx * ey).ravel()
        elements = np.stack([base, base + 1, base + 1 + nx, base + nx], axis=1)
    return Mesh(dim=dim, node_coords=coords, elements=elements.astype(np.int64),
                domain_bounds=bounds_t, counts=counts)


# ---------------------------------------------------------------------------
# anisotropy tensor


def radial_anisotropy_tensor(x, beta, theta, radius) -> np.ndarray:
    """Radially varying SPD tensor ``beta * (I - s(x) x x^T)`` at a point or a
    stack of points.

    ``x`` has shape (..., d) and the result (..., d, d).  The scalar profile is
    ``s(x) = (1-theta)/(radius*|x|^2) * (2|x| - |x|^2/radius)`` away from the
    origin and 0 at the origin.  The radial eigenvalue shrinks from beta at
    the center to beta*theta at ``|x| = radius``, while tangential
    eigenvalues stay at beta, so correlation lengths are longer tangentially.
    Requires ``beta > 0`` and ``0 < theta <= 1``; a point outside the ball of
    the given radius is rejected.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # hypot-style norm: no |x|^2 underflows
    nx = np.hypot.reduce(np.abs(x), axis=-1)
    if np.any(nx > radius * (1.0 + 1e-12)):
        raise ValueError(f"|x| = {np.max(nx)} exceeds the modeled ball radius {radius}")
    # s x x^T rewritten through the unit vector, so that no 1/|x|^2 overflows
    # near the origin; at the origin the unit vector and the profile are 0
    unit = x / np.where(nx > 0.0, nx, 1.0)[..., None]
    radial = (1.0 - theta) / radius * (2.0 - nx / radius) * nx
    outer = unit[..., :, None] * unit[..., None, :]
    return beta * (np.eye(x.shape[-1]) - radial[..., None, None] * outer)


@dataclass(frozen=True)
class AnisotropySpec:
    """Diffusion tensor of the prior precision operator, per quadrature point.

    ``kind`` is "isotropic" (constant ``beta * I``) or "radial" (the radially
    anisotropic tensor above).  In 1D both kinds degenerate to the scalar beta.
    """

    kind: str
    beta: float
    theta: float = 1.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("isotropic", "radial"):
            raise ValueError(f"unknown anisotropy kind '{self.kind}'")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.kind == "radial":
            if not 0.0 < self.theta <= 1.0:
                raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
            if self.radius <= 0:
                raise ValueError(f"radius must be positive, got {self.radius}")

    @classmethod
    def isotropic(cls, beta):
        return cls(kind="isotropic", beta=float(beta))

    @classmethod
    def radial(cls, beta, theta, radius):
        return cls(kind="radial", beta=float(beta), theta=float(theta),
                   radius=float(radius))

    def quadrature_tensors(self, mesh) -> np.ndarray:
        """The tensor at every quadrature point of ``mesh``, (ne, nq, d, d);
        ValueError if a quadrature point lies outside a radial tensor's ball."""
        d = mesh.dim
        if d == 1 or self.kind == "isotropic":
            shape = (mesh.n_elements, len(_GAUSS_PTS) ** d, d, d)
            return self.beta * np.broadcast_to(np.eye(d), shape)
        xq = _shape_quad()[0] @ mesh.node_coords[mesh.elements]  # (ne, nq, 2)
        return radial_anisotropy_tensor(xq, self.beta, self.theta, self.radius)


# ---------------------------------------------------------------------------
# assembly


def _quad_points_1d(mesh):
    """Physical quadrature points (ne, nq) and shape values for a 1D mesh."""
    h = mesh.spacings[0]
    left = mesh.node_coords[mesh.elements[:, 0], 0]
    xq = left[:, None] + (1.0 + _GAUSS_PTS[None, :]) * h / 2.0
    return xq, _shape_1d(_GAUSS_PTS), h


def _scatter(mesh, local):
    """Sum per-element local matrices (ne, a, a), made exactly symmetric, into
    a CSR matrix."""
    local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
    conn = mesh.elements
    a = conn.shape[1]
    rows = np.repeat(conn, a, axis=1).ravel()
    cols = np.tile(conn, (1, a)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n, mesh.n))
    return mat.tocsr()


def assemble_mass(mesh: Mesh, coeff=None) -> sp.csr_matrix:
    """Assemble the mass matrix ``M_ij = int coeff(x) phi_i phi_j dx``.

    ``coeff`` is an optional nodal field (defaults to 1); the quadrature is
    exact for products of (bi)linear basis functions.  The result is
    symmetric positive definite.  In 2D the element matrices are one matmul
    of the coefficient at the quadrature points with a reference table.
    """
    if mesh.dim == 1:
        xq, phi, h = _quad_points_1d(mesh)
        jac = h / 2.0
        if coeff is None:
            cq = np.ones_like(xq)
        else:
            cq = np.asarray(coeff, float)[mesh.elements] @ phi.T
        local = np.einsum("q,eq,qa,qb->eab", _GAUSS_WTS * jac, cq, phi, phi)
    else:
        hx, hy = mesh.spacings
        jac = hx * hy / 4.0
        phi2, wts2 = _shape_quad()
        if coeff is None:
            cq = np.ones((mesh.n_elements, phi2.shape[0]))
        else:
            cq = np.asarray(coeff, float)[mesh.elements] @ phi2.T
        table = np.einsum("q,qa,qb->qab", wts2 * jac, phi2, phi2)
        local = (cq @ table.reshape(phi2.shape[0], -1)).reshape(-1, 4, 4)
    return _scatter(mesh, local)


def _shape_quad():
    """Bilinear shape values at the tensor 2x2 Gauss points of the quad."""
    pts = [(xi, eta) for eta in _GAUSS_PTS for xi in _GAUSS_PTS]
    vals = np.array([
        [(1 - xi) * (1 - eta) / 4.0,
         (1 + xi) * (1 - eta) / 4.0,
         (1 + xi) * (1 + eta) / 4.0,
         (1 - xi) * (1 + eta) / 4.0] for xi, eta in pts
    ])
    wts = np.array([wx * wy for wy in _GAUSS_WTS for wx in _GAUSS_WTS])
    return vals, wts


def _shape_quad_grads():
    """Reference gradients (nq, 4, 2) of the bilinear shape functions."""
    pts = [(xi, eta) for eta in _GAUSS_PTS for xi in _GAUSS_PTS]
    grads = np.array([
        [[-(1 - eta) / 4.0, -(1 - xi) / 4.0],
         [(1 - eta) / 4.0, -(1 + xi) / 4.0],
         [(1 + eta) / 4.0, (1 + xi) / 4.0],
         [-(1 + eta) / 4.0, (1 - xi) / 4.0]] for xi, eta in pts
    ])
    return grads


def assemble_prior_stiffness(mesh: Mesh, alpha, anisotropy: AnisotropySpec) -> sp.csr_matrix:
    """Assemble ``K_ij = alpha * int (Theta grad phi_i) . grad phi_j + phi_i phi_j dx``.

    This is the Galerkin matrix of the elliptic precision operator with a
    natural (zero-flux) boundary condition; on constant vectors the gradient
    term vanishes, so ``K c = alpha M c``.  The tensor is checked for
    symmetric positive definiteness at every quadrature point.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    grad = assemble_weighted_gradient_stiffness(mesh, anisotropy)
    mass = assemble_mass(mesh)
    out = alpha * (grad + mass)
    return out.tocsr()


def assemble_weighted_gradient_stiffness(mesh: Mesh, anisotropy: AnisotropySpec) -> sp.csr_matrix:
    """Assemble ``S_ij = int (Theta grad phi_i) . grad phi_j dx`` (no mass term).

    The tensor, checked SPD at every quadrature point, is contracted in 2D
    with the reference table ``G[q,c,d,a,b] = w_q jac dphi_a/dx_d dphi_b/dx_c``
    in one matmul.
    """
    theta_q = anisotropy.quadrature_tensors(mesh)  # (ne, nq, d, d)
    if np.any(np.linalg.eigvalsh(theta_q) <= 0):
        raise ValueError("anisotropy tensor is not SPD at a quadrature point")
    if mesh.dim == 1:
        h = mesh.spacings[0]
        dphi = _DSHAPE_1D * (2.0 / h)  # physical derivatives, constant per element
        wsum = (_GAUSS_WTS * (h / 2.0)) @ theta_q[..., 0, 0].T  # (ne,)
        local = wsum[:, None, None] * np.outer(dphi, dphi)[None, :, :]
    else:
        hx, hy = mesh.spacings
        jac = hx * hy / 4.0
        _, wts2 = _shape_quad()
        grads = _shape_quad_grads() * np.array([2.0 / hx, 2.0 / hy])
        table = np.einsum("q,qad,qbc->qcdab", wts2 * jac, grads, grads)
        local = (theta_q.reshape(mesh.n_elements, -1)
                 @ table.reshape(-1, 16)).reshape(-1, 4, 4)
    return _scatter(mesh, local)


# ---------------------------------------------------------------------------
# factored solves and the weighted inner-product algebra


def banded_cholesky(matrix: sp.csr_matrix) -> np.ndarray:
    """Upper Cholesky factor U (``matrix = U^T U``) of a sparse SPD matrix.

    The factor comes in LAPACK upper band storage, ``factor[u + i - j, j] =
    U[i, j]`` for upper bandwidth u, which stays narrow on the lexicographically
    ordered tensor meshes (1 in 1D, one row of nodes plus one in 2D).  Only
    the upper triangle is read; a matrix that is not positive definite raises
    ValueError.
    """
    n = matrix.shape[0]
    offset = matrix.indices - np.repeat(np.arange(n), np.diff(matrix.indptr))
    upper = offset >= 0
    u = int(np.max(offset, initial=0))
    band = np.zeros((u + 1, n))
    np.add.at(band, (u - offset[upper], matrix.indices[upper]), matrix.data[upper])
    try:
        return scipy.linalg.cholesky_banded(band)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite ({exc})") from None


def solve_banded_cholesky(factor, rhs) -> np.ndarray:
    """Solve with the matrix factored by ``banded_cholesky``; ``rhs`` may hold
    one right-hand side or a block of columns."""
    return scipy.linalg.cho_solve_banded((factor, False), np.asarray(rhs, dtype=float))


class MassSpace:
    """The mass matrix M, its Cholesky factorization ``M = U^T U`` and the
    weighted inner product.

    M is factored once, at construction.  ``root`` is the lower factor
    ``W = U^T`` as a sparse matrix: ``W W^T = M`` exactly, which is what
    sampling needs of a mass square root.
    """

    def __init__(self, mass: sp.csr_matrix):
        self.matrix = mass.tocsr()
        self.n = mass.shape[0]
        self._factor = banded_cholesky(self.matrix)
        u = self._factor.shape[0] - 1
        # row j of W holds U[j - u .. j, j], i.e. column j of the band storage
        cols = np.arange(self.n)[:, None] + np.arange(-u, 1)
        inside = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
        self.root = sp.csr_matrix((self._factor.T[inside], cols[inside], indptr),
                                  shape=mass.shape)

    def inner(self, u, v) -> float:
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        if u.shape != (self.n,) or v.shape != (self.n,):
            raise ValueError(f"expected length-{self.n} vectors, got {u.shape} and {v.shape}")
        return float(u @ (self.matrix @ v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def solve(self, rhs):
        return solve_banded_cholesky(self._factor, rhs)

