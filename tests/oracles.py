"""Independent dense reference implementations used as test oracles.

Everything here is written against the math directly, with explicit loops and
a 3-point Gauss rule, sharing no assembly code with the package: agreement is
evidence, not tautology.  The exceptions are the wave sweeps, the reference
for the package's assembled propagator.  The stage-by-stage forward sweep
runs the package's own Runge-Kutta step one step at a time; the
stage-by-stage reverse sweep runs the transposed stage arithmetic, which
the package no longer has (it transposes assembled forward maps instead).
The linearized wave sweep drives the stepper with an independently
assembled coupling derivative: it is the forward-mode reference for the
reverse sweep.  The per-cell CSV field writer is the reference for the
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
    """The source term of the velocity rate at the four stages of step k."""
    return tuple(f * disc.source_v for f in disc.source_factors[k])


def _check_blowup(v, e, driver_cum):
    """Raise when a column's field norm outgrows its integrated driver; the
    last axis runs over nodes, ``driver_cum`` holds one value per column."""
    norm = np.maximum(np.abs(v).max(axis=-1), np.abs(e).max(axis=-1))
    bad = (norm > _BLOWUP_FACTOR * driver_cum) & (driver_cum > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise StabilityError(
            f"field norm {np.atleast_1d(norm)[j]:.3e} exceeds {_BLOWUP_FACTOR:.0e} "
            f"times the integrated driver magnitude {np.atleast_1d(driver_cum)[j]:.3e}")


def apply_transpose(band, x):
    """The transpose of a tridiagonal ``_TriBand`` applied along the last axis."""
    out = band.diag * x
    out[..., 1:] += band.sup[:-1] * x[..., :-1]
    out[..., :-1] += band.sub[1:] * x[..., 1:]
    return out


def rate_transpose(disc, coupling, av, pe):
    """Transpose of the wave rate applied to (pv, pe), given ``av = inv(M_rho) pv``."""
    out_v = apply_transpose(disc.grad_pairing, disc.inv_me * pe)
    out_e = -apply_transpose(coupling, av)
    out_e[..., 0] = 0.0
    out_e[..., -1] = 0.0
    return out_v, out_e


def accumulate_wavespeed_gradient(factor, av, out):
    """``out_k -= int 2 rho c phi_k av' e dx`` for every row of ``av``,
    with ``factor`` the (ne, 2) gradient factor of the stage dilatation e;
    element l couples nodes l and l+1, where ``av'`` is constant."""
    diff = av[..., 1:] - av[..., :-1]
    out[..., :-1] += factor[:, 0] * diff
    out[..., 1:] += factor[:, 1] * diff


def forward_sweep(disc, coupling, stage_sources) -> StateHistory:
    """March the stepper from rest; ``stage_sources(k)`` gives the four
    velocity-rate sources of step k (the state sweep passes
    ``lambda k: source_stages(disc, k)``)."""
    steps, dt = disc.n_steps, disc.dt
    vs = np.zeros((steps + 1, disc.n))
    es = np.zeros((steps + 1, disc.n))
    v = np.zeros(disc.n)
    e = np.zeros(disc.n)
    driver_cum = 0.0
    for k in range(steps):
        sources = stage_sources(k)
        v, e, _ = _rk4_step(disc, coupling, v, e, dt, sources)
        vs[k + 1] = v
        es[k + 1] = e
        driver_cum += dt * float(np.max(np.abs(sources[0])))
        _check_blowup(v, e, driver_cum)
    return StateHistory(v=vs, e=es)


def observation_seeds(rec_phi, weights):
    """The velocity seeds of the unit data vectors, k -> (q, n): observable p
    of receiver r enters step k as ``weights[k, p] * rec_phi[r]``, with rows
    receiver by receiver."""
    def seeds(k):
        return (weights[k][None, :, None] * rec_phi[:, None, :]).reshape(-1, rec_phi.shape[1])
    return seeds


def reverse_sweep(disc, c, coupling, seeds, forward) -> np.ndarray:
    """Exact transpose of the stepper linearized in the wavespeed, run
    backward for a block of seed columns.  ``seeds(k)`` gives the velocity
    seeds of step k as a (q, n) array, one row per column.  Returns the
    (q, n) Euclidean wavespeed gradients, one row per column (pair them with
    M^-1 for the weighted ones); seeded with the unit data vectors, that is
    the Jacobian."""
    steps, dt = disc.n_steps, disc.dt
    lam_v = np.asarray(seeds(steps), dtype=float)
    lam_e = np.zeros_like(lam_v)
    grad = np.zeros_like(lam_v)
    driver_cum = np.max(np.abs(lam_v), axis=-1, initial=0.0)
    weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    # stage-state carries: s2 = u + dt/2 k1, s3 = u + dt/2 k2, s4 = u + dt k3
    carries = (0.5 * dt, 0.5 * dt, dt)
    grad_weight = (-2.0 / disc.h) * disc.wj * disc.rho_q * disc.at_quadrature(c)
    for k in range(steps - 1, -1, -1):
        # forward stage dilatations of step k, once for all columns
        stage_e = _rk4_step(disc, coupling, forward.v[k], forward.e[k], dt,
                            source_stages(disc, k))[2]
        factors = (grad_weight * disc.at_quadrature(stage_e)) @ disc.phi
        kb = [(w * lam_v, w * lam_e) for w in weights]
        ub_v = lam_v
        ub_e = lam_e
        for stage in (3, 2, 1, 0):
            kb_v, kb_e = kb[stage]
            av = disc.inv_mrho * kb_v
            sb_v, sb_e = rate_transpose(disc, coupling, av, kb_e)
            accumulate_wavespeed_gradient(factors[stage], av, grad)
            ub_v = ub_v + sb_v
            ub_e = ub_e + sb_e
            if stage > 0:
                pv, pe = kb[stage - 1]
                kb[stage - 1] = (pv + carries[stage - 1] * sb_v,
                                 pe + carries[stage - 1] * sb_e)
        seed = seeds(k)
        lam_v = ub_v + seed
        lam_e = ub_e
        driver_cum = driver_cum + np.max(np.abs(seed), axis=-1, initial=0.0)
        _check_blowup(lam_v, lam_e, driver_cum)
    return grad


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
                            source_stages(disc, k))[2]
        return [-disc.inv_mrho * (cdot @ se) for se in stage_e]

    return forward_sweep(disc, coupling, stage_sources)
