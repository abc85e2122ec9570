"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Oracle equivalence and invariant checks at desk scale, plus scaled-down
analogs of the qualitative claims (spectral mesh-stability, eigenvector
smoothness ordering, variance monotonicity).  Every tolerance is pinned here.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import linbayes as lb
from linbayes.models.linear import random_linear_model
from linbayes.pipeline import run_pipeline

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:>2}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- shared problems ---------------------------------------------------------


@pytest.fixture(scope="module")
def linear49():
    """2D 6x6 mesh (n=49), q=10 linear problem with its dense oracles."""
    mesh = lb.build_mesh(2, (6, 6), ((0.0, 1.0), (0.0, 1.0)))
    prior = lb.build_prior(mesh, 2.0, lb.AnisotropySpec("isotropic", 0.05))
    model = random_linear_model(prior.mspace, q=10, noise_sigma=0.05, seed=7)
    mass = prior.mspace.matrix.toarray()
    stiff = prior.stiffness.toarray()
    dense = {
        "mass": mass,
        "stiff": stiff,
        "gamma_prior": oracles.gamma_prior_dense(mass, stiff),
        "gamma_post": oracles.gamma_post_dense(model.operator, mass, stiff,
                                               model.noise_sigma),
    }
    dense["eigs"] = oracles.preconditioned_hessian_eigs_dense(
        model.operator, mass, stiff, model.noise_sigma)
    return prior, model, dense


@pytest.fixture(scope="module")
def lowrank49(linear49):
    prior, model, dense = linear49
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=prior.n, eig_tol=1e-10,
                          trunc_threshold=0.0, seed=0)
    return lb.LowRankPosterior(prior, np.zeros(prior.n), eig.lambdas, eig.vectors)


def _wave_desk_problem(n_el, dt):
    mesh = lb.build_mesh(1, n_el, (0.0, 1.0))
    prior = lb.build_prior(mesh, 24.0, lb.AnisotropySpec("isotropic", 0.001875),
                           mean=np.ones(mesh.n))
    src = lb.SourceSpec(position=0.25, width=0.08, time_center=0.2,
                        time_std=0.06, amplitude=25.0)
    wcfg = lb.WaveConfig(mesh=mesh, dt=dt, source=src)
    obs = lb.ObservationSetup(receiver_positions=(0.65,),
                              sample_times=tuple(np.linspace(0.01, 1.0, 120)),
                              noise_sigma=0.002, fourier_truncation=9)
    model = lb.WaveModel(wcfg, obs, mspace=prior.mspace)
    return prior, model


@pytest.fixture(scope="module")
def wave200():
    """200-element, 400-step problem for the adjoint fidelity criteria."""
    mesh = lb.build_mesh(1, 200, (0.0, 1.0))
    mspace = lb.MassSpace(lb.assemble_mass(mesh))
    src = lb.SourceSpec(position=0.2, width=0.03, time_center=0.1,
                        time_std=0.03, amplitude=5.0)
    wcfg = lb.WaveConfig(mesh=mesh, dt=0.002, source=src)
    obs = lb.ObservationSetup(receiver_positions=(0.55, 0.8),
                              sample_times=tuple(np.linspace(0.1, 0.8, 50)),
                              noise_sigma=0.01, fourier_truncation=11)
    model = lb.WaveModel(wcfg, obs, mspace=mspace)
    x = mesh.node_coords[:, 0]
    m = 1.0 + 0.06 * np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2)
    y_obs = lb.synthesize_data(model, m, 0.01, seed=3)
    return mesh, model, m, y_obs


@pytest.fixture(scope="module")
def wave_desk_posterior():
    """MAP point and low-rank posterior of the 100-element desk inversion."""
    prior, model = _wave_desk_problem(100, 0.0025)
    x = prior.mesh.node_coords[:, 0]
    m_true = 1.0 + 0.08 * np.exp(-0.5 * ((x - 0.45) / 0.08) ** 2)
    y_obs = lb.synthesize_data(model, m_true, 0.002, seed=1)
    result = lb.find_map(prior, model, y_obs)
    assert result.converged
    action = lb.prior_preconditioned_hessian(prior, model, result.m_map)
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=30, eig_tol=1e-6,
                          trunc_threshold=0.1, seed=0)
    return prior, model, lb.LowRankPosterior(prior, result.m_map, eig.lambdas, eig.vectors)


# --- criteria ------------------------------------------------------------------


def test_criterion_01_dense_posterior_equivalence(linear49, lowrank49):
    start = time.perf_counter()
    prior, model, dense = linear49
    applied = lowrank49.apply_covariance(np.eye(prior.n))
    err = (np.linalg.norm(applied - dense["gamma_post"], "fro")
           / np.linalg.norm(dense["gamma_post"], "fro"))
    elapsed = time.perf_counter() - start
    _report(1, "dense-oracle posterior equivalence", err <= 1e-7 and elapsed < 10.0,
            f"rel Frobenius err {err:.2e}, {elapsed:.1f}s")


def test_criterion_02_truncation_bound_shape(linear49, lowrank49):
    start = time.perf_counter()
    prior, model, dense = linear49
    vals_true = np.clip(dense["eigs"][0], 0.0, None)
    prior_norm = oracles.weighted_operator_norm(dense["gamma_prior"], dense["mass"])
    mass = dense["mass"]
    # the exact-arithmetic bound, plus the floor set by the iterative solves
    # that realize the operators (relative tolerance 1e-12, amplified by the
    # stiffness conditioning); once r covers the full rank both sides are
    # pure round-off, ten orders below the smallest meaningful error
    floor = 100.0 * 1e-12 * prior_norm
    ok = True
    detail = []
    for r in range(lowrank49.rank + 1):
        tv = lowrank49.tilde_vectors[:, :r]
        d = lowrank49.d_diag[:r]
        approx = dense["gamma_prior"] - tv @ np.diag(d) @ tv.T @ mass
        err = oracles.weighted_operator_norm(approx - dense["gamma_post"], mass)
        bound = prior_norm * float(np.sum(vals_true[r:] / (vals_true[r:] + 1.0)))
        if err > bound * (1.0 + 1e-9) + floor:
            ok = False
            detail.append(f"r={r}: err {err:.3e} > bound {bound:.3e}")
    elapsed = time.perf_counter() - start
    _report(2, "truncation error bound shape", ok and elapsed < 30.0,
            "; ".join(detail) or f"all ranks within bound, {elapsed:.1f}s")


def test_criterion_03_sampling_factor_identity(linear49, lowrank49):
    prior, model, dense = linear49
    factor = lowrank49.apply_sampling_factor(np.eye(prior.n))
    lhs = factor @ factor.T @ dense["mass"]
    err = (np.linalg.norm(lhs - dense["gamma_post"], "fro")
           / np.linalg.norm(dense["gamma_post"], "fro"))
    _report(3, "sampling factor identity", err <= 1e-7, f"rel Frobenius err {err:.2e}")


def test_criterion_04_adjoint_gradient_fidelity(wave200):
    start = time.perf_counter()
    mesh, model, m, y_obs = wave200
    grad = model.misfit_gradient(m, y_obs)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(mesh.n)
        v /= model.mspace.norm(v)
        fd = oracles.central_difference(lambda mm: model.misfit(mm, y_obs),
                                        m, v, 1e-5)
        an = model.mspace.inner(grad, v)
        worst = max(worst, abs(fd - an) / abs(an))
    elapsed = time.perf_counter() - start
    _report(4, "adjoint gradient fidelity", worst < 1e-6 and elapsed < 60.0,
            f"max rel err {worst:.2e} over 10 directions, {elapsed:.1f}s")


def test_criterion_05_gn_hessian_symmetry_psd(wave200):
    mesh, model, m, _ = wave200
    rng = np.random.default_rng(23)
    sym_worst = 0.0
    rayleigh_min = np.inf
    for _ in range(20):
        u = rng.standard_normal(mesh.n)
        v = rng.standard_normal(mesh.n)
        hu = model.gauss_newton_hessian_action(m, u)
        hv = model.gauss_newton_hessian_action(m, v)
        lhs = model.mspace.inner(hu, v)
        rhs = model.mspace.inner(u, hv)
        sym_worst = max(sym_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        rayleigh_min = min(rayleigh_min,
                           model.mspace.inner(hu, u) / model.mspace.inner(u, u))
    ok = sym_worst < 1e-9 and rayleigh_min >= -1e-12
    _report(5, "GN Hessian symmetry and PSD", ok,
            f"symmetry {sym_worst:.2e}, min Rayleigh {rayleigh_min:.2e}")


def test_criterion_06_map_oracle_equivalence(linear49):
    prior, model, dense = linear49
    rng = np.random.default_rng(5)
    m_true = prior.mean + 0.4 * rng.standard_normal(prior.n)
    y_obs = lb.synthesize_data(model, m_true, model.noise_sigma, seed=11)
    result = lb.find_map(prior, model, y_obs)
    oracle = oracles.map_normal_equations_dense(
        model.operator, dense["mass"], dense["stiff"], model.noise_sigma,
        prior.mean, y_obs)
    err = prior.mspace.norm(result.m_map - oracle) / prior.mspace.norm(oracle)
    ok = result.converged and result.newton_iters == 1 and err <= 1e-6
    _report(6, "MAP normal-equations equivalence", ok,
            f"rel M-norm err {err:.2e}, newton iters {result.newton_iters}")


def test_criterion_07_monte_carlo_covariance():
    start = time.perf_counter()
    mesh = lb.build_mesh(2, (4, 4), ((0.0, 1.0), (0.0, 1.0)))  # n = 25
    prior = lb.build_prior(mesh, 2.0, lb.AnisotropySpec("isotropic", 0.05))
    model = random_linear_model(prior.mspace, q=8, noise_sigma=0.05, seed=3)
    mass = prior.mspace.matrix.toarray()
    minv = np.linalg.inv(mass)
    # nodal sample covariances estimate the covariance function at nodes,
    # i.e. the weighted-space covariance composed with the inverse mass
    target_prior = oracles.gamma_prior_dense(mass, prior.stiffness.toarray()) @ minv
    target_post = oracles.gamma_post_dense(
        model.operator, mass, prior.stiffness.toarray(), model.noise_sigma) @ minv

    draws = 20000
    rng = np.random.default_rng(1234)
    samples = prior.sample(rng.standard_normal((prior.n, draws)))
    dev = samples - prior.mean[:, None]
    err_prior = (np.linalg.norm(dev @ dev.T / draws - target_prior, "fro")
                 / np.linalg.norm(target_prior, "fro"))
    mean_ok = np.all(np.abs(samples.mean(axis=1) - prior.mean)
                     <= 3.0 * np.sqrt(np.diag(target_prior) / draws))
    nodal_var = prior.pointwise_variance(mesh.node_coords)
    var_ok = np.max(np.abs(dev.var(axis=1) - nodal_var) / nodal_var) <= 0.05

    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=prior.n, eig_tol=1e-10,
                          trunc_threshold=0.0, seed=0)
    lrp = lb.LowRankPosterior(prior, np.zeros(prior.n), eig.lambdas, eig.vectors)
    post = lrp.sample(rng.standard_normal((prior.n, draws)))
    err_post = (np.linalg.norm(post @ post.T / draws - target_post, "fro")
                / np.linalg.norm(target_post, "fro"))
    elapsed = time.perf_counter() - start
    ok = (err_prior <= 0.05 and err_post <= 0.05 and mean_ok and var_ok
          and elapsed < 60.0)
    _report(7, "Monte Carlo covariance", ok,
            f"prior {err_prior:.3f}, posterior {err_post:.3f}, {elapsed:.1f}s")


def test_criterion_08_variance_monotonicity(linear49, lowrank49, wave_desk_posterior):
    prior_l, _, _ = linear49
    nodes_l = prior_l.mesh.node_coords
    post_l = lowrank49.pointwise_variance(nodes_l)
    prior_var_l = prior_l.pointwise_variance(nodes_l)
    linear_ok = np.all(post_l <= prior_var_l + 1e-12)

    prior_w, model_w, lrp_w = wave_desk_posterior
    nodes_w = prior_w.mesh.node_coords
    post_w = lrp_w.pointwise_variance(nodes_w)
    prior_var_w = prior_w.pointwise_variance(nodes_w)
    wave_ok = np.all(post_w <= prior_var_w + 1e-12)
    receiver = model_w.observation.receiver_positions[0]
    nearest = int(np.argmin(np.abs(nodes_w[:, 0] - receiver)))
    reduction = (prior_var_w[nearest] - post_w[nearest]) / prior_var_w[nearest]
    strict_ok = post_w[nearest] < prior_var_w[nearest] * (1.0 - 1e-6)
    _report(8, "variance monotonicity", linear_ok and wave_ok and strict_ok,
            f"reduction at receiver node {reduction:.1%}")


def test_criterion_09_mesh_stable_spectrum():
    start = time.perf_counter()
    spectra = {}
    for n_el in (100, 200):
        prior, model = _wave_desk_problem(n_el, 0.0025)
        action = lb.prior_preconditioned_hessian(prior, model, prior.mean)
        eig = lb.lanczos_eigs(action, prior.mspace, r_max=40, eig_tol=1e-6,
                              trunc_threshold=0.1, seed=0)
        spectra[n_el] = eig.lambdas
    count_100 = int(np.sum(spectra[100] >= 1.0))
    count_200 = int(np.sum(spectra[200] >= 1.0))
    top5_diff = np.max(np.abs(spectra[100][:5] - spectra[200][:5])
                       / spectra[200][:5])
    elapsed = time.perf_counter() - start
    ok = abs(count_100 - count_200) <= 1 and top5_diff <= 0.05
    _report(9, "mesh-stable spectrum", ok,
            f"counts {count_100}/{count_200}, top-5 rel diff {top5_diff:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_10_eigenvector_smoothness(wave_desk_posterior):
    prior, _, lrp = wave_desk_posterior
    assert lrp.rank >= 2
    mesh = prior.mesh
    grad_energy = lb.assemble_weighted_gradient_stiffness(
        mesh, lb.AnisotropySpec("isotropic", 1.0))
    mass = prior.mspace.matrix

    def dirichlet_quotient(v):
        return float(v @ (grad_energy @ v)) / float(v @ (mass @ v))

    q_first = dirichlet_quotient(lrp.vectors[:, 0])
    q_last = dirichlet_quotient(lrp.vectors[:, -1])
    _report(10, "eigenvector smoothness ordering", q_first < q_last,
            f"quotients {q_first:.1f} (mode 1) vs {q_last:.1f} (mode {lrp.rank})")


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg = json.loads((CONFIG_DIR / "linear_small.json").read_text())
    runs = []
    for sub in ("a", "b"):
        cfg_run = json.loads(json.dumps(cfg))
        cfg_run["output"]["directory"] = str(tmp_path / sub)
        runs.append(run_pipeline(cfg_run))
    identical = runs[0].checksums == runs[1].checksums
    _report(11, "pipeline determinism", identical,
            f"{len(runs[0].checksums)} artifact checksums compared")
