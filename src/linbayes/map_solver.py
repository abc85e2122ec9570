"""Gauss-Newton conjugate-gradient solver for the MAP point.

Minimizes the negative log posterior

    J(m) = 1/2 |f(m) - y_obs|^2 / sigma^2  +  1/2 |precision-weighted (m - mean)|^2

over nodal parameter vectors.  Every inner product and norm is mass-weighted
so the discrete iteration mirrors the function-space one:

* every Newton system (GN misfit Hessian + prior precision) p = -gradient
  is whitened by the prior covariance square root L = K^-1 M: p = L w with
  (I + X X^T M / sigma^2) w = -L gradient, X = K^-1 J^T formed once per
  Newton iteration.  That operator is self-adjoint with eigenvalues >= 1, so
  plain CG solves it exactly, to relative residual ``CG_TOL`` in ``L r``
  (``sqrt(<r, Gamma r>_M)`` for the unwhitened residual r), with one mass
  matvec and two n x q products per operator application and no PDE, K or
  M solve.  A step cut short by ``MAX_CG_ITERS`` logs its residual;
* globalization is an Armijo backtracking line search; trial points that a
  model rejects as invalid (e.g. nonpositive wavespeed) count as failed
  decrease and trigger another backtrack;
* the iteration stops once the gradient norm falls to ``GRAD_TOL_REL`` of
  its initial value, and stops unconverged when the first objective or
  gradient norm, or a Newton step, is not finite.

The solve takes no settings; it logs each line of ``MapResult.log_lines``
at INFO on this module's logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .lowrank import hessian_factor
from .models.base import ForwardModel
from .prior import PriorModel

GRAD_TOL_REL = 1e-6
CG_TOL = 1e-12
MAX_CG_ITERS = 200
MAX_NEWTON_ITERS = 50
# the Armijo line search: sufficient-decrease constant, step cut per
# backtrack and backtracks before it fails
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass
class MapResult:
    m_map: np.ndarray
    converged: bool
    newton_iters: int
    cg_iters_total: int
    objective_history: list
    gradnorm_history: list
    log_lines: list = field(default_factory=list)
    message: str = ""


def objective(prior: PriorModel, model: ForwardModel, y_obs, m) -> float:
    """Data misfit plus prior quadratic at m."""
    return model.misfit(m, y_obs) - prior.log_density(m)


def gradient(prior: PriorModel, model: ForwardModel, y_obs, m) -> np.ndarray:
    """Mass-weighted gradient: misfit gradient plus precision of (m - mean)."""
    return (model.misfit_gradient(m, y_obs)
            + prior.apply_precision(np.asarray(m, float) - prior.mean))


def _whitened_hessian(prior: PriorModel, model: ForwardModel, m):
    """The Gauss-Newton Hessian H at m whitened by L = K^-1 M on both sides:
    ``w -> L H L w = w + X X^T M w / sigma^2``, M-self-adjoint, eigenvalues >= 1."""
    x = hessian_factor(prior, model, m)
    mass, sigma2 = prior.mspace.matrix, model.noise_sigma**2
    return lambda w: w + x @ (x.T @ (mass @ w)) / sigma2


def _pcg(apply_operator, rhs, mspace, rel_tol, max_iters):
    """Plain CG in the weighted inner product for an M-self-adjoint positive
    definite operator.  Returns (solution, iterations, relative residual)."""
    x, r, d, rel = np.zeros_like(rhs), rhs, rhs, 1.0
    rr0 = rr = mspace.inner(r, r)
    if rr0 == 0.0:
        return x, 0, 0.0
    for it in range(1, max_iters + 1):
        hd = apply_operator(d)
        alpha = rr / mspace.inner(d, hd)
        x = x + alpha * d
        r = r - alpha * hd
        rr, rr_old = mspace.inner(r, r), rr
        rel = np.sqrt(rr / rr0)
        if rel <= rel_tol:
            return x, it, rel
        d = r + (rr / rr_old) * d
    return x, max_iters, rel


_LOG_HEADER = "iter\tobjective\tgradnorm\tcg_iters\tstep_length"


def _log_line(it, obj, gnorm, cg, step):
    return f"{it}\t{obj:.17g}\t{gnorm:.17g}\t{cg}\t{step:.17g}"


def find_map(prior: PriorModel, model: ForwardModel, y_obs) -> MapResult:
    """Run the whitened Gauss-Newton iteration from the prior mean.

    Line-search failure and values that overflow are reported through
    ``converged=False`` with the best iterate retained; the call never raises
    for non-convergence.
    """
    m = prior.mean.copy()
    mspace = prior.mspace
    y_obs = np.asarray(y_obs, dtype=float)
    log = logging.getLogger(__name__)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        obj = objective(prior, model, y_obs, m)
        grad = gradient(prior, model, y_obs, m)
        gnorm = mspace.norm(grad)
    gnorm0 = gnorm

    result = MapResult(m_map=m, converged=False, newton_iters=0, cg_iters_total=0,
                       objective_history=[obj], gradnorm_history=[gnorm],
                       log_lines=[_LOG_HEADER, _log_line(0, obj, gnorm, 0, 0.0)])
    for line in result.log_lines:
        log.info(line)

    if not (np.isfinite(obj) and np.isfinite(gnorm0)):
        result.message = "the objective or its gradient is not finite at the initial point"
        return result
    if gnorm0 == 0.0:
        result.converged = True
        result.message = "gradient vanishes at the initial point"
        return result

    for it in range(1, MAX_NEWTON_ITERS + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            w, cg_iters, residual = _pcg(_whitened_hessian(prior, model, m),
                                         -prior.apply_covariance_sqrt(grad),
                                         mspace, CG_TOL, MAX_CG_ITERS)
        if not np.all(np.isfinite(w)):
            result.message = f"the Newton step of iteration {it} is not finite"
            return result
        p = prior.apply_covariance_sqrt(w)
        result.cg_iters_total += cg_iters
        if residual > CG_TOL:
            log.warning("Newton iteration %d: CG stopped after %d iterations at relative "
                        "residual %.3e", it, cg_iters, residual)
        # <g, L w>_M = -<w, (I + X X^T M / sigma^2) w>_M < 0 for every CG iterate
        slope = mspace.inner(grad, p)

        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = m + step * p
            try:
                obj_trial = objective(prior, model, y_obs, trial)
            except InvalidParameterError:
                obj_trial = np.inf
            if np.isfinite(obj_trial) and obj_trial <= obj + ARMIJO_C1 * step * slope:
                break
            step *= BACKTRACK_FACTOR
        else:
            result.message = f"line search failed after {MAX_BACKTRACKS} backtracks"
            return result

        m = trial
        obj = obj_trial
        grad = gradient(prior, model, y_obs, m)
        gnorm = mspace.norm(grad)
        result.m_map = m
        result.newton_iters = it
        result.objective_history.append(obj)
        result.gradnorm_history.append(gnorm)
        line = _log_line(it, obj, gnorm, cg_iters, step)
        result.log_lines.append(line)
        log.info(line)

        if gnorm <= GRAD_TOL_REL * gnorm0:
            result.converged = True
            result.message = "gradient reduction reached"
            return result

    result.message = "newton iteration limit reached"
    return result
