"""Meshes, finite-element assembly, and mass-weighted linear algebra.

The parameter space is a continuous Lagrange finite-element space on a
uniform tensor-product mesh (1D intervals or 2D axis-aligned quads, (bi)linear
elements).  All inner products between nodal coefficient vectors are weighted
by the mass matrix M so that ``u^T M v`` approximates the L2 pairing of the
underlying fields.  Adjoints are taken with respect to that weighted inner
product, so they differ from plain matrix transposes: a forward model's
Jacobian F, mapping the weighted space to Euclidean data, has adjoint
``M^-1 F^T``.

Every element is a scaled copy of the Q1 reference cell [-1, 1]^d.  Its
corners are listed once, in ``_CORNERS``, in element-local order: -1, +1 on
the interval and (-1, -1), (+1, -1), (+1, +1), (-1, +1), counterclockwise, on
the quad.  The shape function of corner c is the product of 1D hats
``prod_k (1 + c_k xi_k) / 2``.  The quadrature tables, the connectivity
``Mesh.elements`` and point location in ``Mesh.basis_matrix`` are all derived
from that one list.

Every solve with an SPD matrix (the mass matrix here, the prior stiffness in
``prior``) goes through one banded Cholesky factorization of that matrix,
computed once when the object that owns it is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# the reference cell's corners in element-local order, per dimension
_CORNERS = {1: np.array([[-1.0], [1.0]]),
            2: np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])}

# 2-point Gauss rule on [-1, 1]: exact for cubics, hence for all products of
# (bi)linear basis functions on affine elements.
_GAUSS_PTS = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
_GAUSS_WTS = np.array([1.0, 1.0])


def _lattice(axes):
    """Every point of the grid ``axes[0] x axes[1] x ...`` as rows of a
    (points, len(axes)) array, the first coordinate varying fastest."""
    out = np.empty([len(a) for a in axes[::-1]] + [len(axes)], np.result_type(*axes))
    for k, a in enumerate(axes):
        out[..., k] = a.reshape([-1] + [1] * k)
    return out.reshape(-1, len(axes))


def _hats(dim, xi):
    """The hat factors ``1 + c_k xi_k`` of every corner c at the reference
    points ``xi`` (points, d): one (points, 2^d) array per axis k."""
    return [1.0 + c * x[:, None] for c, x in zip(_CORNERS[dim].T, xi.T)]


@functools.cache
def _reference(dim):
    """The Q1 element's tables at its 2^d tensor Gauss points, the first
    coordinate varying fastest: the points (nq, d), the shape values
    (nq, 2^d), their reference gradients (nq, 2^d, d) and the weights (nq,).
    Computed once per dimension and read-only, since every caller shares them."""
    points = _lattice([_GAUSS_PTS] * dim)
    hats = _hats(dim, points)
    ones = np.ones_like(hats[0])
    grads = np.stack([c * functools.reduce(np.multiply, hats[:k] + hats[k + 1:], ones)
                      for k, c in enumerate(_CORNERS[dim].T)], axis=-1)
    tables = (points, functools.reduce(np.multiply, hats) / 2.0**dim, grads / 2.0**dim,
              np.prod(_lattice([_GAUSS_WTS] * dim), axis=-1))
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor-product mesh with lexicographic node ordering.

    Nodes are in one-to-one correspondence with the Lagrange basis functions:
    ``basis_eval(node_coords[i])`` is the i-th unit vector.
    """

    dim: int
    node_coords: np.ndarray  # (n, dim)
    elements: np.ndarray     # (ne, 2^dim) node indices in _CORNERS order
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

    def _outside(self, pts):
        """Which rows of ``pts`` (points, dim) lie outside the domain by more
        than 1e-10 of its width; a NaN coordinate lies outside."""
        lo, hi = np.array(self.domain_bounds).T
        tol = 1e-10 * (hi - lo)
        return ~np.all((pts >= lo - tol) & (pts <= hi + tol), axis=1)

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x.shape == (self.dim,) and not self._outside(x[None])[0]

    def basis_eval(self, x) -> np.ndarray:
        """Evaluate all Lagrange basis functions at a point of the domain.

        Returns the length-n vector (phi_1(x), ..., phi_n(x)), the single row
        of ``basis_matrix``; raises ValueError for points outside the domain.
        """
        return self.basis_matrix(np.reshape(x, (1, -1))).toarray()[0]

    def basis_matrix(self, points) -> sp.csr_matrix:
        """Sparse (points, n) matrix whose rows are ``basis_eval`` at each point.

        On each axis a point gets a cell index and a local coordinate in
        [-1, 1]; the cell's 2^d nonzeros are products of 1D hats of the
        local coordinates.  Raises ValueError naming the first point that
        lies outside the domain.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {pts.shape}")
        outside = self._outside(pts)
        if outside.any():
            raise ValueError(f"point {pts[np.argmax(outside)]} lies outside the "
                             f"domain {self.domain_bounds}")
        lo = np.array([b[0] for b in self.domain_bounds])
        h = np.array(self.spacings)
        cells = np.clip(np.floor((pts - lo) / h), 0, np.array(self.counts) - 1)
        local = np.clip(2.0 * (pts - (lo + cells * h)) / h - 1.0, -1.0, 1.0)
        # cells are numbered like the nodes, the first axis fastest
        nodes = self.elements[cells.astype(np.int64) @ np.cumprod((1,) + self.counts[:-1])]
        values = functools.reduce(np.multiply, _hats(self.dim, local)) / 2.0**self.dim
        indptr = np.arange(0, nodes.size + 1, nodes.shape[1])
        return sp.csr_matrix((values.ravel(), nodes.ravel(), indptr),
                             shape=(len(pts), self.n))


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
    # a cell's corner c is the node (c + 1) / 2 steps past its first node
    strides = np.cumprod((1,) + tuple(c + 1 for c in counts[:-1]))
    first = _lattice([np.arange(c) for c in counts]) @ strides
    offsets = ((_CORNERS[dim] + 1.0) / 2.0).astype(np.int64) @ strides
    elements = first[:, None] + offsets
    return Mesh(dim=dim, node_coords=_lattice(axes), elements=elements,
                domain_bounds=bounds_t, counts=counts)


# ---------------------------------------------------------------------------
# anisotropy tensor


@dataclass(frozen=True)
class AnisotropySpec:
    """Diffusion tensor Theta of the prior precision operator.

    ``kind`` is "isotropic", the constant ``beta * I``, or "radial", the
    radially varying ``beta * (I - s(x) x x^T)`` on the ball of ``radius``
    about the origin.  Its scalar profile is
    ``s(x) = (1-theta)/(radius*|x|^2) * (2|x| - |x|^2/radius)`` away from the
    origin and 0 at the origin: the radial eigenvalue shrinks from beta at
    the center to beta*theta at ``|x| = radius``, while tangential
    eigenvalues stay at beta, so correlation lengths are longer
    tangentially.  Requires ``beta > 0``, and for "radial" ``0 < theta <= 1``
    and ``radius > 0``.  In 1D both kinds degenerate to the scalar beta.
    """

    kind: str
    beta: float
    theta: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("isotropic", "radial"):
            raise ValueError(f"unknown anisotropy kind '{self.kind}'")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.kind == "radial":
            if self.theta is None or self.radius is None:
                raise ValueError("a radial tensor needs theta and radius")
            if not 0.0 < self.theta <= 1.0:
                raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
            if self.radius <= 0:
                raise ValueError(f"radius must be positive, got {self.radius}")

    def tensor(self, x) -> np.ndarray:
        """Theta at a point or a stack of points: ``x`` (..., d) gives
        (..., d, d).  A point outside a radial tensor's ball is rejected."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        eye = np.eye(x.shape[-1])
        if self.kind == "isotropic":
            return self.beta * np.broadcast_to(eye, x.shape + eye.shape[-1:])
        # hypot-style norm: no |x|^2 underflows
        nx = np.hypot.reduce(np.abs(x), axis=-1)
        if np.any(nx > self.radius * (1.0 + 1e-12)):
            raise ValueError(f"|x| = {np.max(nx)} exceeds the modeled ball radius {self.radius}")
        # s x x^T rewritten through the unit vector, so that no 1/|x|^2 overflows
        # near the origin; at the origin the unit vector and the profile are 0
        unit = x / np.where(nx > 0.0, nx, 1.0)[..., None]
        radial = (1.0 - self.theta) / self.radius * (2.0 - nx / self.radius) * nx
        outer = unit[..., :, None] * unit[..., None, :]
        return self.beta * (eye - radial[..., None, None] * outer)

    def quadrature_tensors(self, mesh) -> np.ndarray:
        """The tensor at every quadrature point of ``mesh``, (ne, nq, d, d);
        ValueError if a quadrature point lies outside a radial tensor's ball."""
        if mesh.dim == 1:
            return self.beta * np.broadcast_to(np.eye(1), (mesh.n_elements, len(_GAUSS_PTS), 1, 1))
        return self.tensor(_reference(2)[1] @ mesh.node_coords[mesh.elements])  # (ne, nq, 2)


# ---------------------------------------------------------------------------
# assembly


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


class ElementTables:
    """The Q1 element's tables on ``mesh`` at the reference Gauss points, the
    same on every element: the shape values ``phi`` (nq, 2^d), the physical
    gradients ``grads`` (nq, 2^d, d) and the weights times the Jacobian ``wj``."""

    def __init__(self, mesh: Mesh):
        _, self.phi, grads, wts = _reference(mesh.dim)
        h = np.array(mesh.spacings)
        self.grads = grads * (2.0 / h)
        self.wj = wts * (np.prod(h) / 2.0**mesh.dim)
        self.elements = mesh.elements

    def at_quadrature(self, f):
        """Values of the nodal field ``f`` at the quadrature points, (ne, nq);
        a stack of fields (nodes on the last axis) gives a stack of tables."""
        return np.asarray(f, float)[..., self.elements] @ self.phi.T


def assemble_mass(mesh: Mesh, coeff=None) -> sp.csr_matrix:
    """Assemble the mass matrix ``M_ij = int coeff(x) phi_i phi_j dx``.

    ``coeff`` is an optional nodal field (defaults to 1); the quadrature is
    exact for products of (bi)linear basis functions.  The result is
    symmetric positive definite.  In 1D and 2D alike the element matrices are
    one matmul of the coefficient at the quadrature points with the reference
    table ``T[q,a,b] = w_q jac phi_a phi_b``.
    """
    el = ElementTables(mesh)
    nq, a = el.phi.shape
    cq = np.ones((mesh.n_elements, nq)) if coeff is None else el.at_quadrature(coeff)
    table = np.einsum("q,qa,qb->qab", el.wj, el.phi, el.phi)
    return _scatter(mesh, (cq @ table.reshape(nq, -1)).reshape(-1, a, a))


def assemble_prior_stiffness(mesh: Mesh, alpha, anisotropy: AnisotropySpec) -> sp.csr_matrix:
    """Assemble ``K_ij = alpha * int (Theta grad phi_i) . grad phi_j + phi_i phi_j dx``.

    This is the Galerkin matrix of the elliptic precision operator with a
    natural (zero-flux) boundary condition; on constant vectors the gradient
    term vanishes, so ``K c = alpha M c``.  The tensor is checked for
    symmetric positive definiteness at every quadrature point.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        out = alpha * (assemble_weighted_gradient_stiffness(mesh, anisotropy) + assemble_mass(mesh))
    if not np.all(np.isfinite(out.data)):
        raise ValueError("the stiffness overflows a double: alpha or beta is too large")
    return out.tocsr()


def assemble_weighted_gradient_stiffness(mesh: Mesh, anisotropy: AnisotropySpec) -> sp.csr_matrix:
    """Assemble ``S_ij = int (Theta grad phi_i) . grad phi_j dx`` (no mass term).

    The tensor, checked SPD at every quadrature point, is contracted in 1D
    and 2D alike with the reference table
    ``G[q,c,d,a,b] = w_q jac dphi_a/dx_d dphi_b/dx_c`` in one matmul.
    """
    theta_q = anisotropy.quadrature_tensors(mesh)  # (ne, nq, d, d)
    if np.any(np.linalg.eigvalsh(theta_q) <= 0):
        raise ValueError("anisotropy tensor is not SPD at a quadrature point")
    el = ElementTables(mesh)
    a = el.phi.shape[1]
    table = np.einsum("q,qad,qbc->qcdab", el.wj, el.grads, el.grads)
    return _scatter(mesh, (theta_q.reshape(mesh.n_elements, -1)
                           @ table.reshape(-1, a * a)).reshape(-1, a, a))


# ---------------------------------------------------------------------------
# factored solves and the weighted inner-product algebra


def upper_band(matrix: sp.csr_matrix) -> np.ndarray:
    """The upper triangle of a sparse matrix in LAPACK upper band storage,
    ``band[u + i - j, j] = matrix[i, j]``; the bandwidth u is 1 on 1D meshes
    and one row of nodes plus one in 2D (nodes ordered lexicographically)."""
    n = matrix.shape[0]
    offset = matrix.indices - np.repeat(np.arange(n), np.diff(matrix.indptr))
    upper = offset >= 0
    u = int(np.max(offset, initial=0))
    band = np.zeros((u + 1, n))
    np.add.at(band, (u - offset[upper], matrix.indices[upper]), matrix.data[upper])
    return band


def banded_cholesky(band) -> np.ndarray:
    """Upper Cholesky factor U (``U^T U`` = the matrix) of an SPD matrix's
    ``upper_band``, in the same storage; ValueError unless positive definite."""
    try:
        return scipy.linalg.cholesky_banded(band)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite ({exc})") from None


def solve_banded_cholesky(factor, rhs) -> np.ndarray:
    """Solve with the matrix factored by ``banded_cholesky``; ``rhs`` may hold
    one right-hand side or a block of columns, inf and NaN passing through."""
    return scipy.linalg.cho_solve_banded((factor, False), np.asarray(rhs, dtype=float),
                                         check_finite=False)


class MassSpace:
    """The mass matrix M, its ``upper_band``, its Cholesky factorization
    ``M = U^T U`` and the weighted inner product.

    M is factored once, at construction.  ``root`` is the lower factor
    ``W = U^T`` as a sparse matrix: ``W W^T = M`` exactly, which is what
    sampling needs of a mass square root.
    """

    def __init__(self, mass: sp.csr_matrix):
        self.matrix = mass.tocsr()
        self.n = mass.shape[0]
        self.band = upper_band(self.matrix)
        self._factor = banded_cholesky(self.band)
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

