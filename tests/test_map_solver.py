import logging
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import linbayes as lb
from linbayes.errors import InvalidParameterError
from linbayes.fem import MassSpace
from linbayes.map_solver import _pcg, _whitened_hessian
from linbayes.models.base import ForwardModel
from linbayes.models.linear import random_linear_model

import oracles


def test_objective_vanishes_at_mean_with_exact_data(linear_problem):
    prior, model, _, _ = linear_problem
    y0 = model.observe(prior.mean)
    assert lb.objective(prior, model, y0, prior.mean) == 0.0


def test_objective_prior_term_vanishes_at_mean(linear_problem):
    prior, model, _, y_obs = linear_problem
    r = model.observe(prior.mean) - y_obs
    expected = 0.5 * (r @ r) / model.noise_sigma**2
    assert np.isclose(lb.objective(prior, model, y_obs, prior.mean), expected,
                      rtol=1e-12)


def test_objective_matches_dense_quadratic(linear_problem):
    prior, model, _, y_obs = linear_problem
    mass = prior.mspace.matrix.toarray()
    stiff = prior.stiffness.toarray()
    rng = np.random.default_rng(0)
    m = rng.standard_normal(prior.n)
    r = model.operator @ m - y_obs
    d = m - prior.mean
    expected = (0.5 * (r @ r) / model.noise_sigma**2
                + 0.5 * d @ stiff @ np.linalg.solve(mass, stiff @ d))
    assert np.isclose(lb.objective(prior, model, y_obs, m), expected, rtol=1e-10)


def test_gradient_dense_oracle(linear_problem):
    prior, model, _, y_obs = linear_problem
    mass = prior.mspace.matrix.toarray()
    stiff = prior.stiffness.toarray()
    minv = np.linalg.inv(mass)
    rng = np.random.default_rng(1)
    m = rng.standard_normal(prior.n)
    dense = (minv @ model.operator.T @ (model.operator @ m - y_obs)
             / model.noise_sigma**2
             + minv @ stiff @ minv @ stiff @ (m - prior.mean))
    g = lb.gradient(prior, model, y_obs, m)
    assert np.linalg.norm(g - dense) <= 1e-11 * np.linalg.norm(dense)


def test_gradient_finite_difference(linear_problem):
    prior, model, _, y_obs = linear_problem
    rng = np.random.default_rng(2)
    m = prior.mean + 0.1 * rng.standard_normal(prior.n)
    g = lb.gradient(prior, model, y_obs, m)
    for _ in range(10):
        v = rng.standard_normal(prior.n)
        v /= prior.mspace.norm(v)
        fd = oracles.central_difference(
            lambda mm: lb.objective(prior, model, y_obs, mm), m, v, 1e-5)
        an = prior.mspace.inner(g, v)
        assert abs(fd - an) <= 1e-6 * abs(an)


def test_find_map_matches_normal_equations(linear_problem):
    prior, model, _, y_obs = linear_problem
    result = lb.find_map(prior, model, y_obs)
    oracle = oracles.map_normal_equations_dense(
        model.operator, prior.mspace.matrix.toarray(),
        prior.stiffness.toarray(), model.noise_sigma, prior.mean, y_obs)
    err = prior.mspace.norm(result.m_map - oracle) / prior.mspace.norm(oracle)
    assert result.converged
    assert result.newton_iters == 1
    assert err <= 1e-6


def test_find_map_exact_data_returns_immediately(linear_problem):
    prior, model, _, _ = linear_problem
    y0 = model.observe(prior.mean)
    result = lb.find_map(prior, model, y0)
    assert result.converged
    assert result.newton_iters == 0
    assert np.array_equal(result.m_map, prior.mean)


def test_objective_history_strictly_decreasing(linear_problem):
    prior, model, _, y_obs = linear_problem
    result = lb.find_map(prior, model, y_obs)  # one exact Gauss-Newton step
    assert result.converged
    hist = result.objective_history
    assert all(a > b for a, b in zip(hist, hist[1:]))
    assert result.gradnorm_history[-1] <= 1e-6 * result.gradnorm_history[0]


def test_log_line_format(linear_problem, caplog):
    prior, model, _, y_obs = linear_problem
    with caplog.at_level(logging.INFO, logger="linbayes"):
        result = lb.find_map(prior, model, y_obs)
    assert [r.name for r in caplog.records] == ["linbayes.map_solver"] * len(result.log_lines)
    assert [r.getMessage() for r in caplog.records] == result.log_lines
    assert result.log_lines[0] == "iter\tobjective\tgradnorm\tcg_iters\tstep_length"
    row = re.compile(r"^\d+\t[-0-9.e+]+\t[-0-9.e+]+\t\d+\t[-0-9.e+]+$")
    for line in result.log_lines[1:]:
        assert row.match(line), line
        fields = line.split("\t")
        assert len(fields) == 5
        float(fields[1]), float(fields[2]), float(fields[4])


def test_pcg_returns_descent_direction():
    rng = np.random.default_rng(3)
    mesh = lb.build_mesh(1, 19, (0.0, 1.0))
    mspace = MassSpace(lb.assemble_mass(mesh))
    n = mspace.n
    b = rng.standard_normal((n, n))
    # M^-1 (B B^T + I/2) is self-adjoint and positive definite in the M product
    hess = np.linalg.solve(mspace.matrix.toarray(), b @ b.T + 0.5 * np.eye(n))
    for trial in range(5):
        g = rng.standard_normal(n)
        p, iters, residual = _pcg(lambda v: hess @ v, -g, mspace, rel_tol=0.5, max_iters=30)
        assert iters >= 1 and residual <= 0.5
        assert mspace.inner(g, p) < 0


class _FragileModel(ForwardModel):
    """Observes only at its anchor point; everything else is invalid.

    Forces every line-search trial to fail, exercising the non-convergence
    path of the solver.
    """

    def __init__(self, anchor, mspace, noise_sigma=1.0):
        self.anchor = anchor
        self.mspace = mspace
        self.noise_sigma = noise_sigma
        self.n = mspace.n
        self.q = 1

    def observe(self, m):
        if not np.array_equal(m, self.anchor):
            raise InvalidParameterError("off-anchor evaluation")
        return np.array([1.0])

    def jacobian(self, m):
        return np.ones((1, self.n))


def test_line_search_failure_returns_best_iterate(prior2d, monkeypatch):
    monkeypatch.setattr(lb.map_solver, "MAX_BACKTRACKS", 3)
    model = _FragileModel(prior2d.mean, prior2d.mspace)
    y_obs = np.array([5.0])
    result = lb.find_map(prior2d, model, y_obs)
    assert not result.converged
    assert result.message == "line search failed after 3 backtracks"
    assert np.array_equal(result.m_map, prior2d.mean)


def _wave_problem(n_el, dt, horizon):
    mesh = lb.build_mesh(1, n_el, (0.0, 1.0))
    prior = lb.build_prior(mesh, 24.0, lb.AnisotropySpec("isotropic", 0.001875),
                           mean=np.ones(mesh.n))
    src = lb.SourceSpec(position=0.25, width=0.08, time_center=0.2,
                        time_std=0.06, amplitude=25.0)
    wcfg = lb.WaveConfig(mesh=mesh, dt=dt, source=src)
    obs = lb.ObservationSetup(receiver_positions=(0.65,),
                              sample_times=tuple(np.linspace(0.01, horizon, 120)),
                              noise_sigma=0.002, fourier_truncation=9)
    model = lb.WaveModel(wcfg, obs, mspace=prior.mspace)
    x = mesh.node_coords[:, 0]
    m_true = 1.0 + 0.08 * np.exp(-0.5 * ((x - 0.45) / 0.08) ** 2)
    y_obs = lb.synthesize_data(model, m_true, 0.002, seed=1)
    return prior, model, y_obs


def test_find_map_wave_desk_problem():
    prior, model, y_obs = _wave_problem(100, 0.0025, 1.0)
    result = lb.find_map(prior, model, y_obs)
    assert result.converged
    assert result.gradnorm_history[-1] <= 1e-6 * result.gradnorm_history[0]
    hist = result.objective_history
    assert all(a > b for a, b in zip(hist, hist[1:]))


def test_cg_iterations_mesh_stable(monkeypatch):
    # quadrupling the parameter dimension moves total CG work by < 50% and
    # leaves the Newton iterations and Jacobian builds unchanged; the time
    # step refines with the mesh to keep the stability bound
    monkeypatch.setattr(lb.map_solver, "GRAD_TOL_REL", 1e-5)
    counts, outer = {}, {}
    for n_el in (50, 200):
        prior, model, y_obs = _wave_problem(n_el, 0.25 / n_el, 1.0)
        result = lb.find_map(prior, model, y_obs)
        assert result.converged
        counts[n_el] = result.cg_iters_total
        outer[n_el] = (result.newton_iters, model.jacobian_builds)
    lo, hi = sorted(counts.values())
    assert hi <= 1.5 * lo, counts
    assert outer[50] == outer[200], outer


def _linear_radial_problem():
    # the benchmark's 2D setting, smaller: radial anisotropy and a random map
    mesh = lb.build_mesh(2, (10, 10), ((-1.0, 1.0), (-1.0, 1.0)))
    prior = lb.build_prior(mesh, 2.0, lb.AnisotropySpec("radial", 0.05, 0.5, 1.5))
    model = random_linear_model(prior.mspace, q=12, noise_sigma=0.05, seed=7)
    m_true = prior.sample(np.random.default_rng(5).standard_normal(prior.n))
    return prior, model, lb.synthesize_data(model, m_true, 0.05, seed=11)


@pytest.mark.parametrize("case", ["linear_radial", "wave"])
def test_whitened_hessian_matches_composed_preconditioned_hessian(case):
    # the CG operator I + X X^T M / sigma^2 from X = K^-1 J^T against the
    # identity plus the matrix-free K^-1 M H_misfit K^-1 M that Lanczos uses
    prior, model, _ = (_linear_radial_problem() if case == "linear_radial"
                       else _wave_problem(100, 0.0025, 1.0))
    m = prior.mean + 0.05 * np.sin(3.0 * prior.mesh.node_coords[:, 0])
    whitened = _whitened_hessian(prior, model, m)
    composed = lb.prior_preconditioned_hessian(prior, model, m)
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.standard_normal(prior.n)
        ref = v + composed(v)
        assert prior.mspace.norm(whitened(v) - ref) <= 1e-12 * prior.mspace.norm(ref)


def _assert_first_step_is_gram_step(prior, model, y_obs, monkeypatch):
    # the exact Gauss-Newton step against the Woodbury step from the q x q Gram
    monkeypatch.setattr(lb.map_solver, "MAX_NEWTON_ITERS", 1)
    result = lb.find_map(prior, model, y_obs)
    assert float(result.log_lines[2].split("\t")[-1]) == 1.0
    step = oracles.gauss_newton_step(
        model.jacobian(prior.mean), prior.mspace.matrix.toarray(),
        prior.stiffness.toarray(), model.noise_sigma,
        lb.gradient(prior, model, y_obs, prior.mean))
    err = prior.mspace.norm(result.m_map - prior.mean - step) / prior.mspace.norm(step)
    assert err <= 1e-10, err


def test_first_step_matches_data_space_gram_step(monkeypatch):
    _assert_first_step_is_gram_step(*_wave_problem(100, 0.0025, 1.0), monkeypatch)


def test_first_step_on_2d_radial_linear_problem_matches_gram_step(monkeypatch):
    _assert_first_step_is_gram_step(*_linear_radial_problem(), monkeypatch)


def test_cg_stopped_at_its_cap_logs_its_residual(caplog, monkeypatch):
    monkeypatch.setattr(lb.map_solver, "MAX_NEWTON_ITERS", 2)
    monkeypatch.setattr(lb.map_solver, "MAX_CG_ITERS", 2)
    prior, model, y_obs = _wave_problem(100, 0.0025, 1.0)
    with caplog.at_level(logging.WARNING, logger="linbayes"):
        result = lb.find_map(prior, model, y_obs)
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.name for r in warned] == ["linbayes.map_solver"] * 2
    for it, record in enumerate(warned, start=1):
        match = re.fullmatch(r"Newton iteration (\d+): CG stopped after (\d+) "
                             r"iterations at relative residual (\S+)", record.getMessage())
        assert match and int(match[1]) == it and int(match[2]) == 2
        assert float(match[3]) > lb.map_solver.CG_TOL
    assert result.cg_iters_total == 4


def test_line_search_backs_off_a_step_over_the_stability_bound(monkeypatch):
    # invert with a time step whose stability bound, 0.5 h / dt, sits at
    # wavespeed 1.0625: above the prior mean (1) and the largest wavespeed
    # of the half step (1.046), below that of the first full Gauss-Newton
    # step (1.091); that trial is an invalid parameter, not a configuration
    # error, so the line search halves the step
    prior, data_model, y_obs = _wave_problem(40, 0.005, 0.8)
    model = lb.WaveModel(replace(data_model.config, dt=0.8 / 68),
                         data_model.observation, mspace=prior.mspace)
    rejected = []
    observe = model.observe

    def spy(m):
        try:
            return observe(m)
        except InvalidParameterError as exc:
            rejected.append(str(exc))
            raise

    monkeypatch.setattr(model, "observe", spy)
    monkeypatch.setattr(lb.map_solver, "MAX_NEWTON_ITERS", 1)
    result = lb.find_map(prior, model, y_obs)
    assert len(rejected) == 1 and "violates the stability bound" in rejected[0]
    assert result.newton_iters == 1
    assert float(result.log_lines[2].split("\t")[-1]) == 0.5
    assert result.objective_history[1] < result.objective_history[0]
