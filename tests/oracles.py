"""Independent dense reference implementations used as test oracles.

Everything here is written against the math directly, with explicit loops and
a 3-point Gauss rule, sharing no assembly code with the package: agreement is
evidence, not tautology.  The one exception is the linearized wave sweep,
which drives the package's own Runge-Kutta stepper with an independently
assembled coupling derivative: it is the forward-mode reference for the
package's reverse sweep.  The per-cell CSV field writer is the reference for
the package's block writer.
"""

import csv
import io

import numpy as np

from linbayes.models.wave1d import _forward_sweep, _rk4_step

GAUSS3_PTS, GAUSS3_WTS = np.polynomial.legendre.leggauss(3)


def field_csv_per_cell(mesh, values) -> bytes:
    """A field file's bytes as the per-cell writer made them: every
    coordinate and value formatted on its own with ``f"{x:.17g}"`` and the
    rows written by csv.writer's default dialect."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "value"] if mesh.dim == 1 else ["x", "y", "value"])
    writer.writerows([[f"{float(c):.17g}" for c in coord] + [f"{float(v):.17g}"]
                      for coord, v in zip(mesh.node_coords, values)])
    return buf.getvalue().encode("utf-8")


def dense_mass_1d(mesh):
    n = mesh.n
    h = mesh.spacings[0]
    out = np.zeros((n, n))
    for left, right in mesh.elements:
        x0 = mesh.node_coords[left, 0]
        for gp, gw in zip(GAUSS3_PTS, GAUSS3_WTS):
            x = x0 + (gp + 1.0) * h / 2.0
            vals = {left: (x0 + h - x) / h, right: (x - x0) / h}
            for i, vi in vals.items():
                for j, vj in vals.items():
                    out[i, j] += gw * (h / 2.0) * vi * vj
    return out


def _quad_shape(xi, eta):
    return np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                     (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)]) / 4.0


def _quad_shape_grad(xi, eta):
    return np.array([[-(1 - eta), -(1 - xi)], [(1 - eta), -(1 + xi)],
                     [(1 + eta), (1 + xi)], [-(1 + eta), (1 - xi)]]) / 4.0


def dense_mass_2d(mesh):
    n = mesh.n
    hx, hy = mesh.spacings
    out = np.zeros((n, n))
    for conn in mesh.elements:
        for gx, wx in zip(GAUSS3_PTS, GAUSS3_WTS):
            for gy, wy in zip(GAUSS3_PTS, GAUSS3_WTS):
                shape = _quad_shape(gx, gy)
                w = wx * wy * hx * hy / 4.0
                for a in range(4):
                    for b in range(4):
                        out[conn[a], conn[b]] += w * shape[a] * shape[b]
    return out


def dense_mass(mesh):
    return dense_mass_1d(mesh) if mesh.dim == 1 else dense_mass_2d(mesh)


def dense_prior_stiffness(mesh, alpha, theta_fn, points=3):
    """K by direct quadrature; ``theta_fn(x)`` returns the tensor at a point.

    ``points=3`` over-integrates (exact for constant tensors); ``points=2``
    replicates the defining rule for spatially varying tensors, where the
    quadrature choice is part of the discretization.
    """
    gauss_pts, gauss_wts = np.polynomial.legendre.leggauss(points)
    n = mesh.n
    out = np.zeros((n, n))
    if mesh.dim == 1:
        h = mesh.spacings[0]
        for left, right in mesh.elements:
            x0 = mesh.node_coords[left, 0]
            for gp, gw in zip(gauss_pts, gauss_wts):
                x = x0 + (gp + 1.0) * h / 2.0
                theta = float(np.atleast_2d(theta_fn(np.array([x])))[0, 0])
                vals = {left: (x0 + h - x) / h, right: (x - x0) / h}
                grads = {left: -1.0 / h, right: 1.0 / h}
                w = gw * h / 2.0
                for i in vals:
                    for j in vals:
                        out[i, j] += w * alpha * (theta * grads[i] * grads[j]
                                                  + vals[i] * vals[j])
        return out
    hx, hy = mesh.spacings
    for conn in mesh.elements:
        corners = mesh.node_coords[conn]
        for gx, wx in zip(gauss_pts, gauss_wts):
            for gy, wy in zip(gauss_pts, gauss_wts):
                shape = _quad_shape(gx, gy)
                grad = _quad_shape_grad(gx, gy)
                grad_phys = grad * np.array([2.0 / hx, 2.0 / hy])
                x = shape @ corners
                theta = np.atleast_2d(theta_fn(x))
                w = wx * wy * hx * hy / 4.0
                for a in range(4):
                    for b in range(4):
                        out[conn[a], conn[b]] += w * alpha * (
                            grad_phys[b] @ theta @ grad_phys[a]
                            + shape[a] * shape[b])
    return out


# --- dense Bayesian algebra (plain numpy, weighted-space conventions) -------


def gamma_prior_dense(mass, stiffness):
    kinv = np.linalg.inv(stiffness)
    return kinv @ mass @ kinv @ mass


def gamma_prior_inv_dense(mass, stiffness):
    minv = np.linalg.inv(mass)
    return minv @ stiffness @ minv @ stiffness


def misfit_hessian_dense(operator, mass, noise_sigma):
    return np.linalg.inv(mass) @ operator.T @ operator / noise_sigma**2


def gamma_post_dense(operator, mass, stiffness, noise_sigma):
    return np.linalg.inv(misfit_hessian_dense(operator, mass, noise_sigma)
                         + gamma_prior_inv_dense(mass, stiffness))


def preconditioned_hessian_eigs_dense(operator, mass, stiffness, noise_sigma):
    """All eigenpairs of the prior-preconditioned misfit Hessian, descending,
    columns normalized against the mass matrix."""
    import scipy.linalg
    kinv = np.linalg.inv(stiffness)
    sym = mass @ kinv @ operator.T @ operator @ kinv @ mass / noise_sigma**2
    sym = 0.5 * (sym + sym.T)
    vals, vecs = scipy.linalg.eigh(sym, mass)
    return vals[::-1], vecs[:, ::-1]


def map_normal_equations_dense(operator, mass, stiffness, noise_sigma, mean, y_obs):
    minv = np.linalg.inv(mass)
    lhs = (minv @ operator.T @ operator / noise_sigma**2
           + gamma_prior_inv_dense(mass, stiffness))
    rhs = minv @ operator.T @ (y_obs - operator @ mean) / noise_sigma**2
    return mean + np.linalg.solve(lhs, rhs)


def weighted_operator_norm(matrix, mass):
    """Operator norm of a weighted-space matrix: ||M^1/2 A M^-1/2||_2."""
    w, q = np.linalg.eigh(mass)
    sqrt_m = q @ np.diag(np.sqrt(w)) @ q.T
    inv_sqrt_m = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    return np.linalg.norm(sqrt_m @ matrix @ inv_sqrt_m, 2)


def central_difference(fun, x, direction, eps):
    return (fun(x + eps * direction) - fun(x - eps * direction)) / (2.0 * eps)


def central_difference_5pt(fun, x, direction, eps):
    return (-fun(x + 2 * eps * direction) + 8 * fun(x + eps * direction)
            - 8 * fun(x - eps * direction) + fun(x - 2 * eps * direction)) / (12 * eps)


# --- linearized wave propagation (forward mode) ------------------------------


def wave_coupling_derivative(mesh, rho, c, dc):
    """Dense ``C'(c; dc)_ij = int 2 rho c dc phi_i' phi_j dx`` with rho, c and
    dc nodal; the 2-point Gauss rule of the wave discretization is part of
    its definition."""
    gauss_pts, gauss_wts = np.polynomial.legendre.leggauss(2)
    h = mesh.spacings[0]
    out = np.zeros((mesh.n, mesh.n))
    for left, right in mesh.elements:
        x0 = mesh.node_coords[left, 0]
        for gp, gw in zip(gauss_pts, gauss_wts):
            x = x0 + (gp + 1.0) * h / 2.0
            vals = {left: (x0 + h - x) / h, right: (x - x0) / h}
            grads = {left: -1.0 / h, right: 1.0 / h}

            def interp(f):
                return sum(f[i] * vals[i] for i in vals)

            coeff = 2.0 * interp(rho) * interp(c) * interp(dc)
            for i in vals:
                for j in vals:
                    out[i, j] += gw * h / 2.0 * coeff * grads[i] * vals[j]
    return out


def wave_incremental_sweep(model, c, dc):
    """State history of the wave stepper linearized in the wavespeed
    direction ``dc``: the stepper from rest, driven at each stage by
    ``-inv(M_rho) C'(c; dc)`` applied to the forward stage dilatation, which
    is recomputed from the stored forward state."""
    disc = model.disc
    forward = model.forward_history(c)
    coupling = disc.wavespeed_coupling(c)
    cdot = wave_coupling_derivative(model.config.mesh, model.config.nodal_rho(), c, dc)

    def stage_sources(k):
        stage_e = _rk4_step(disc, coupling, forward.v[k], forward.e[k], disc.dt,
                            disc.source_stages(k))[2]
        return [-disc.inv_mrho * (cdot @ se) for se in stage_e]

    return _forward_sweep(disc, coupling, stage_sources)
