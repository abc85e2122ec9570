"""Gauss-Newton conjugate-gradient solver for the MAP point.

Minimizes the negative log posterior

    J(m) = 1/2 |f(m) - y_obs|^2 / sigma^2  +  1/2 |precision-weighted (m - mean)|^2

over nodal parameter vectors.  Every inner product and norm is mass-weighted
so the discrete iteration mirrors the function-space one:

* every Newton system (GN misfit Hessian + prior precision) p = -gradient
  is solved exactly, to relative residual ``CG_TOL``, by CG in the weighted
  inner product preconditioned by the prior covariance.  Models cache their
  Jacobian per parameter, so CG runs no PDE solves and an inexact forcing
  would only add Newton iterations.  A step cut short is logged as a warning;
* globalization is an Armijo backtracking line search; trial points that a
  model rejects as invalid (e.g. nonpositive wavespeed) count as failed
  decrease and trigger another backtrack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .models.base import ForwardModel
from .prior import PriorModel

CG_TOL = 1e-12
MAX_NEWTON_ITERS = 50
# the Armijo line search: sufficient-decrease constant, step cut per
# backtrack and backtracks before it fails
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class MapSolverConfig:
    grad_tol_rel: float = 1e-6
    max_cg_iters: int = 200

    def __post_init__(self):
        if self.grad_tol_rel <= 0:
            raise ValueError(f"grad_tol_rel must be positive, got {self.grad_tol_rel}")
        if self.max_cg_iters < 0:
            raise ValueError(f"max_cg_iters must be nonnegative, got {self.max_cg_iters}")


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


def _pcg(apply_hessian, apply_preconditioner, rhs, mspace, rel_tol, max_iters,
         curvature_tol=1e-14):
    """CG in the weighted inner product with a covariance preconditioner.

    Returns (step, iterations, relative residual).  Nonpositive curvature
    stops the iteration, falling back to the preconditioned residual on the
    first pass, so the step is always a descent direction for rhs = -g.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rnorm0 = mspace.norm(r)
    if rnorm0 == 0.0:
        return x, 0, 0.0
    rel = 1.0
    z = apply_preconditioner(r)
    d = z.copy()
    rz = mspace.inner(r, z)
    for it in range(1, max_iters + 1):
        hd = apply_hessian(d)
        curv = mspace.inner(d, hd)
        if curv <= curvature_tol * mspace.inner(d, d):
            if it == 1:
                x = z
            return x, it, rel
        alpha = rz / curv
        x = x + alpha * d
        r = r - alpha * hd
        rel = mspace.norm(r) / rnorm0
        if rel <= rel_tol:
            return x, it, rel
        z = apply_preconditioner(r)
        rz_new = mspace.inner(r, z)
        beta = rz_new / rz
        rz = rz_new
        d = z + beta * d
    return x, max_iters, rel


_LOG_HEADER = "iter\tobjective\tgradnorm\tcg_iters\tstep_length"


def _log_line(it, obj, gnorm, cg, step):
    return f"{it}\t{obj:.17g}\t{gnorm:.17g}\t{cg}\t{step:.17g}"


def find_map(prior: PriorModel, model: ForwardModel, y_obs, m_init,
             config: MapSolverConfig = MapSolverConfig(), log_fn=None) -> MapResult:
    """Run the preconditioned Gauss-Newton iteration from m_init.

    Line-search failure is reported through ``converged=False`` with the best
    iterate retained; the call never raises for non-convergence.
    """
    m = np.asarray(m_init, dtype=float).copy()
    mspace = prior.mspace
    y_obs = np.asarray(y_obs, dtype=float)

    def emit(line):
        if log_fn is not None:
            log_fn(line)

    obj = objective(prior, model, y_obs, m)
    grad = gradient(prior, model, y_obs, m)
    gnorm = mspace.norm(grad)
    gnorm0 = gnorm

    result = MapResult(m_map=m, converged=False, newton_iters=0, cg_iters_total=0,
                       objective_history=[obj], gradnorm_history=[gnorm],
                       log_lines=[_LOG_HEADER, _log_line(0, obj, gnorm, 0, 0.0)])
    for line in result.log_lines:
        emit(line)

    if gnorm0 == 0.0:
        result.converged = True
        result.message = "gradient vanishes at the initial point"
        return result

    for it in range(1, MAX_NEWTON_ITERS + 1):
        def hess_action(v):
            return (model.gauss_newton_hessian_action(m, v)
                    + prior.apply_precision(v))

        p, cg_iters, residual = _pcg(hess_action, prior.apply_covariance, -grad,
                                     mspace, CG_TOL, config.max_cg_iters)
        result.cg_iters_total += cg_iters
        if residual > CG_TOL:
            logging.getLogger(__name__).warning(
                "Newton iteration %d: CG stopped after %d iterations at relative "
                "residual %.3e", it, cg_iters, residual)
        slope = mspace.inner(grad, p)
        if slope >= 0.0:
            # Round-off can spoil the CG direction; the preconditioned
            # steepest-descent direction is always usable.
            p = -prior.apply_covariance(grad)
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
        emit(line)

        if gnorm <= config.grad_tol_rel * gnorm0:
            result.converged = True
            result.message = "gradient reduction reached"
            return result

    result.message = "newton iteration limit reached"
    return result
