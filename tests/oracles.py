"""Independent dense reference implementations used as test oracles.

Everything here is written against the math directly, with explicit loops and
a 3-point Gauss rule, sharing no assembly code with the package: agreement is
evidence, not tautology.  The exceptions are the wave sweeps, the reference
for the package's assembled propagator.  The stage-by-stage forward sweep
runs the package's own Runge-Kutta step and rate matrix on one state at a
time; the stage-by-stage reverse sweep runs the transposed stage
arithmetic with the transposed rate matrix, which the package no longer
has (it transposes assembled forward maps instead).  The rate matrix they
share is checked against one assembled element by element here.  The
linearized wave sweep drives the stepper with an independently assembled
coupling derivative: it is the forward-mode reference for the reverse
sweep.  The per-cell CSV field writer is the reference for the
package's block writer.  The per-point 1D prior assembly repeats the
package's 1D arithmetic operation for operation, as the bitwise reference
for it.
"""

import csv
import io

import numpy as np
import scipy.sparse as sp

from linbayes.errors import StabilityError
from linbayes.models.wave1d import StateHistory, _rk4_step

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


def prior_matrices_1d_per_point(mesh, alpha, beta):
    """1D prior stiffness K and mass M as the per-quadrature-point assembly
    made them: the tensor filled in one point at a time, then the same
    floating-point operations in the same order as the package's 1D path,
    so a faithful 1D path matches these bitwise."""
    h = mesh.spacings[0]
    jac = h / 2.0
    pts = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    wts = np.array([1.0, 1.0])
    phi = np.stack([(1.0 - pts) / 2.0, (1.0 + pts) / 2.0], axis=-1)
    dphi = np.array([-0.5, 0.5]) * (2.0 / h)
    conn = mesh.elements
    theta_q = np.empty((mesh.n_elements, 2))
    for e in range(mesh.n_elements):
        for q in range(2):
            theta_q[e, q] = float(beta * np.eye(1)[0, 0])
    mass_local = np.einsum("q,eq,qa,qb->eab", wts * jac, np.ones_like(theta_q), phi, phi)
    grad_local = ((wts * jac) @ theta_q.T)[:, None, None] * np.outer(dphi, dphi)[None, :, :]

    def scatter(local):
        local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
        rows = np.repeat(conn, 2, axis=1).ravel()
        cols = np.tile(conn, (1, 2)).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n, mesh.n)).tocsr()

    mass = scatter(mass_local)
    return (alpha * (scatter(grad_local) + mass)).tocsr(), mass


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


def gauss_newton_step(jac, mass, stiffness, noise_sigma, grad):
    """The Gauss-Newton step -H^-1 grad for the weighted-space Hessian
    H = M^-1 J^T J / sigma^2 + Gamma^-1, by the Woodbury identity in data
    space: with X = K^-1 J^T and the q x q Gram G = X^T M X,
    H^-1 = Gamma - K^-1 M X (sigma^2 I + G)^-1 J Gamma, which takes one
    Cholesky factorization of sigma^2 I + G."""
    import scipy.linalg
    x = np.linalg.solve(stiffness, jac.T)
    gram = x.T @ mass @ x
    factor = scipy.linalg.cho_factor(noise_sigma**2 * np.eye(jac.shape[0]) + gram)
    w = gamma_prior_dense(mass, stiffness) @ grad
    return -(w - np.linalg.solve(stiffness, mass @ x @ scipy.linalg.cho_solve(factor, jac @ w)))


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


# --- stage-by-stage wave sweeps ----------------------------------------------

_BLOWUP_FACTOR = 1e6


def source_stages(disc, k):
    """The source term of the state rate at the four stages of step k."""
    return tuple(np.concatenate([f * disc.source_v, np.zeros(disc.n)])
                 for f in disc.source_factors[k])


def _check_blowup(x, driver_cum):
    """Raise when a column's field norm outgrows its integrated driver; the
    first axis of the state ``x`` runs over the 2n unknowns, ``driver_cum``
    holds one value per column."""
    norm = np.abs(x).max(axis=0)
    bad = (norm > _BLOWUP_FACTOR * driver_cum) & (driver_cum > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise StabilityError(
            f"field norm {np.atleast_1d(norm)[j]:.3e} exceeds {_BLOWUP_FACTOR:.0e} "
            f"times the integrated driver magnitude {np.atleast_1d(driver_cum)[j]:.3e}")


def accumulate_wavespeed_gradient(factor, av, out):
    """``out_k -= int 2 rho c phi_k av' e dx`` for every column of ``av``,
    with ``factor`` the (ne, 2) gradient factor of the stage dilatation e;
    element l couples nodes l and l+1, where ``av'`` is constant."""
    diff = av[1:] - av[:-1]
    out[:-1] += factor[:, 0, None] * diff
    out[1:] += factor[:, 1, None] * diff


def forward_sweep(disc, rate, stage_sources) -> StateHistory:
    """March the stepper with rate matrix ``rate`` from rest;
    ``stage_sources(k)`` gives the four state-rate sources of step k (the
    state sweep passes ``lambda k: source_stages(disc, k)``)."""
    n, steps, dt = disc.n, disc.n_steps, disc.dt
    xs = np.zeros((steps + 1, 2 * n))
    driver_cum = 0.0
    for k in range(steps):
        sources = stage_sources(k)
        xs[k + 1] = _rk4_step(rate, dt, xs[k], sources)[0]
        driver_cum += dt * float(np.max(np.abs(sources[0])))
        _check_blowup(xs[k + 1], driver_cum)
    return StateHistory(v=xs[:, :n], e=xs[:, n:])


def observation_seeds(rec_phi, weights):
    """The velocity seeds of the unit data vectors, k -> (q, n): observable p
    of receiver r enters step k as ``weights[k, p] * rec_phi[r]``, with rows
    receiver by receiver."""
    def seeds(k):
        return (weights[k][None, :, None] * rec_phi[:, None, :]).reshape(-1, rec_phi.shape[1])
    return seeds


def reverse_sweep(disc, c, rate, seeds, forward) -> np.ndarray:
    """Exact transpose of the stepper with rate matrix ``rate``, linearized
    in the wavespeed, run backward for a block of seed columns.  ``seeds(k)``
    gives the velocity seeds of step k as a (q, n) array, one row per
    column.  Returns the (q, n) Euclidean wavespeed gradients, one row per
    column (pair them with M^-1 for the weighted ones); seeded with the unit
    data vectors, that is the Jacobian."""
    n, steps, dt = disc.n, disc.n_steps, disc.dt
    seed = np.asarray(seeds(steps), dtype=float).T
    lam = np.vstack([seed, np.zeros_like(seed)])        # (2n, q) adjoint state
    grad = np.zeros_like(seed)
    driver_cum = np.max(np.abs(seed), axis=0, initial=0.0)
    weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    # stage-state carries: s2 = u + dt/2 k1, s3 = u + dt/2 k2, s4 = u + dt k3
    carries = (0.5 * dt, 0.5 * dt, dt)
    grad_weight = (-2.0 / disc.h) * disc.wj * disc.rho_q * disc.at_quadrature(c)
    for k in range(steps - 1, -1, -1):
        # forward stage dilatations of step k, once for all columns
        x = np.concatenate([forward.v[k], forward.e[k]])
        stage_e = [s[n:] for s in _rk4_step(rate, dt, x, source_stages(disc, k))[1]]
        factors = (grad_weight * disc.at_quadrature(stage_e)) @ disc.phi
        kb = [w * lam for w in weights]
        ub = lam
        for stage in (3, 2, 1, 0):
            sb = rate.T @ kb[stage]
            accumulate_wavespeed_gradient(factors[stage], disc.inv_mrho[:, None] * kb[stage][:n],
                                          grad)
            ub = ub + sb
            if stage > 0:
                kb[stage - 1] = kb[stage - 1] + carries[stage - 1] * sb
        seed = np.asarray(seeds(k), dtype=float).T
        lam = ub + np.vstack([seed, np.zeros_like(seed)])
        driver_cum = driver_cum + np.max(np.abs(seed), axis=0, initial=0.0)
        _check_blowup(lam, driver_cum)
    return grad.T


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


def wave_rate_dense(mesh, rho, c):
    """Dense rate matrix ``[[0, -inv(M_rho) C(c)], [inv(M_e) D, 0]]`` of the
    wave state (v, e) with rho and c nodal: ``C(c)_ij = int rho c^2 phi_i'
    phi_j dx``, ``D_ij = int phi_i phi_j' dx``, M_rho and M_e the row-sum
    lumped masses with and without rho, and the dilatation pinned at both
    endpoints; the 2-point Gauss rule of the wave discretization is part
    of its definition."""
    gauss_pts, gauss_wts = np.polynomial.legendre.leggauss(2)
    h = mesh.spacings[0]
    n = mesh.n
    coupling = np.zeros((n, n))
    pairing = np.zeros((n, n))
    lumped_rho = np.zeros(n)
    lumped = np.zeros(n)
    for left, right in mesh.elements:
        for gp, gw in zip(gauss_pts, gauss_wts):
            vals = {left: (1.0 - gp) / 2.0, right: (1.0 + gp) / 2.0}
            grads = {left: -1.0 / h, right: 1.0 / h}
            rho_x = sum(rho[i] * vals[i] for i in vals)
            c_x = sum(c[i] * vals[i] for i in vals)
            w = gw * h / 2.0
            for i in vals:
                lumped_rho[i] += w * rho_x * vals[i]
                lumped[i] += w * vals[i]
                for j in vals:
                    coupling[i, j] += w * rho_x * c_x**2 * grads[i] * vals[j]
                    pairing[i, j] += w * vals[i] * grads[j]
    pairing[[0, -1]] = 0.0
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = -coupling / lumped_rho[:, None]
    out[n:, :n] = pairing / lumped[:, None]
    return out


def wave_incremental_sweep(model, c, dc):
    """State history of the wave stepper linearized in the wavespeed
    direction ``dc``: the stepper from rest, driven at each stage by
    ``-inv(M_rho) C'(c; dc)`` applied to the forward stage dilatation, which
    is recomputed from the stored forward state."""
    disc = model.disc
    n = disc.n
    forward = model.forward_history(c)
    rate = disc.rate(c)
    cdot = wave_coupling_derivative(model.config.mesh, model.config.nodal_rho(), c, dc)

    def stage_sources(k):
        x = np.concatenate([forward.v[k], forward.e[k]])
        stages = _rk4_step(rate, disc.dt, x, source_stages(disc, k))[1]
        return [np.concatenate([-disc.inv_mrho * (cdot @ s[n:]), np.zeros(n)])
                for s in stages]

    return forward_sweep(disc, rate, stage_sources)
