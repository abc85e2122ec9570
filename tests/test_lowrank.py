import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linbayes as lb
from linbayes.fem import MassSpace
from linbayes.models.linear import random_linear_model

import oracles


class _ScalarPrior:
    """One-dimensional stand-in: mass 1, stiffness a, covariance 1/a^2."""

    def __init__(self, a):
        self.a = a
        self.mspace = MassSpace(sp.csr_matrix(np.array([[1.0]])))
        self.mean = np.zeros(1)
        self.n = 1

    def apply_covariance(self, v):
        return np.asarray(v, float) / self.a**2

    def apply_covariance_sqrt(self, v):
        return np.asarray(v, float) / self.a

    def solve_stiffness(self, v):
        return np.asarray(v, float) / self.a

    def pointwise_variance(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], 1.0 / self.a**2)


def _assembled_problem(q=12, seed=7):
    mesh = lb.build_mesh(2, (6, 6), ((0.0, 1.0), (0.0, 1.0)))
    prior = lb.build_prior(mesh, 2.0, lb.AnisotropySpec("isotropic", 0.05))
    model = random_linear_model(prior.mspace, q=q, noise_sigma=0.05, seed=seed)
    return prior, model


# --- prior-preconditioned Hessian action --------------------------------------


def test_preconditioned_hessian_zero():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    assert np.all(action(np.zeros(prior.n)) == 0.0)


def test_preconditioned_hessian_symmetric():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.standard_normal(prior.n), rng.standard_normal(prior.n)
        lhs = prior.mspace.inner(action(u), v)
        rhs = prior.mspace.inner(u, action(v))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_preconditioned_hessian_dense_oracle():
    prior, model = _assembled_problem()
    mass = prior.mspace.matrix.toarray()
    stiff = prior.stiffness.toarray()
    kinv = np.linalg.inv(stiff)
    dense = kinv @ mass @ oracles.misfit_hessian_dense(
        model.operator, mass, model.noise_sigma) @ kinv @ mass
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    v = np.random.default_rng(1).standard_normal(prior.n)
    assert np.linalg.norm(action(v) - dense @ v) <= 1e-9 * np.linalg.norm(dense @ v)


# --- Lanczos ---------------------------------------------------------------------


def test_lanczos_matches_dense_generalized_eigensolve():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=prior.n, eig_tol=1e-10,
                          trunc_threshold=0.0, seed=0)
    vals, _ = oracles.preconditioned_hessian_eigs_dense(
        model.operator, prior.mspace.matrix.toarray(),
        prior.stiffness.toarray(), model.noise_sigma)
    r = model.q       # the misfit Hessian has rank q
    assert eig.rank >= r
    assert np.all(np.abs(eig.lambdas[:r] - vals[:r]) <= 1e-8 * np.abs(vals[:r]))
    mass = prior.mspace.matrix.toarray()
    gram = eig.vectors.T @ mass @ eig.vectors
    assert np.max(np.abs(gram - np.eye(eig.rank))) <= 1e-8


def test_lanczos_residuals_within_tolerance():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=20, eig_tol=1e-8,
                          trunc_threshold=0.1, seed=1)
    top = max(eig.lambdas[0], 1.0)
    # the true residuals of the kept pairs are within the tolerance
    for k in range(eig.rank):
        v = eig.vectors[:, k]
        res = action(v) - eig.lambdas[k] * v
        assert prior.mspace.norm(res) <= 1e-7 * top


def test_lanczos_zero_operator_empty():
    prior, _ = _assembled_problem()
    eig = lb.lanczos_eigs(lambda v: np.zeros_like(v), prior.mspace, r_max=10)
    assert eig.rank == 0
    assert eig.diagnostic != ""


def test_lanczos_deterministic_per_seed():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    a = lb.lanczos_eigs(action, prior.mspace, r_max=10, seed=5)
    b = lb.lanczos_eigs(action, prior.mspace, r_max=10, seed=5)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_vector_signs_fixed_by_largest_entry():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=10, seed=5)
    assert eig.rank > 1
    largest = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), np.arange(eig.rank)]
    assert np.all(largest > 0)
    # a vector's sign changes neither the variance field nor the draws, bitwise
    signs = np.where(np.arange(eig.rank) % 2, 1.0, -1.0)  # every other vector turned
    m_map = np.random.default_rng(6).standard_normal(prior.n)
    kept, turned = (lb.LowRankPosterior(prior, m_map, eig.lambdas, vectors)
                    for vectors in (eig.vectors, eig.vectors * signs))
    pts = np.vstack([prior.mesh.node_coords,
                     np.random.default_rng(7).uniform(0.0, 1.0, (20, 2))])
    assert np.array_equal(kept.pointwise_variance(pts), turned.pointwise_variance(pts))
    nhat = np.random.default_rng(8).standard_normal((prior.n, 4))
    assert np.array_equal(kept.sample(nhat), turned.sample(nhat))


def test_lanczos_scalar_problem():
    # one unknown: single eigenvalue h / a^2
    a, h = 3.0, 5.0
    scalar = _ScalarPrior(a)
    eig = lb.lanczos_eigs(lambda v: (h / a**2) * v, scalar.mspace, r_max=1,
                          trunc_threshold=0.0)
    assert eig.rank == 1
    assert np.isclose(eig.lambdas[0], h / a**2, rtol=1e-12)


def test_lanczos_incomplete_flag():
    # identity mass; 100 eigenvalues in [0.5, 1] and 100 zeros.  The zero
    # eigenvalue converges early, and the iteration cap stops the run with
    # retained pairs still unconverged; the flag must be set
    n = 200
    mspace = MassSpace(sp.identity(n, format="csr"))
    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    operator = (basis * np.concatenate([np.linspace(0.5, 1.0, 100), np.zeros(100)])) @ basis.T
    for r_max in (1, 10):
        eig = lb.lanczos_eigs(lambda v: operator @ v, mspace, r_max=r_max)
        cap = 2 * r_max + 30
        assert eig.iterations == cap and eig.rank < r_max
        assert eig.spectrum_incomplete
        assert f"iteration cap {cap}" in eig.diagnostic
    # the rank cap cuts converged pairs above the threshold
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=2, eig_tol=1e-8,
                          trunc_threshold=0.1, seed=0)
    assert eig.rank == 2 and eig.spectrum_incomplete
    assert "r_max = 2" in eig.diagnostic


@pytest.mark.parametrize("n_el", [100, 200])
def test_lanczos_stops_at_the_rank_under_raw_samples(n_el):
    # one receiver's 120 raw samples at sigma 0.002 put lambda_1 near 5.4e5
    # at the prior mean: a residual tolerance relative to lambda_1 would
    # exceed the retention threshold, and the run go on to breakdown
    mesh = lb.build_mesh(1, n_el, (0.0, 1.0))
    prior = lb.build_prior(mesh, 24.0, lb.AnisotropySpec("isotropic", 0.001875),
                           mean=np.ones(mesh.n))
    src = lb.SourceSpec(position=0.25, width=0.08, time_center=0.2, time_std=0.06,
                        amplitude=25.0)
    wave = lb.WaveConfig(mesh=mesh, dt=0.25 / n_el, source=src)
    obs = lb.ObservationSetup(receiver_positions=(0.65,),
                              sample_times=tuple(np.linspace(0.01, 1.0, 120)), noise_sigma=0.002)
    model = lb.WaveModel(wave, obs, mspace=prior.mspace)
    # G = X^T M X / sigma^2 has the nonzero spectrum of the operator
    x = lb.lowrank.hessian_factor(prior, model, prior.mean)
    exact = np.linalg.eigvalsh(x.T @ (prior.mspace.matrix @ x) / model.noise_sigma**2)[::-1]
    rank = np.count_nonzero(exact >= 0.1)
    assert rank == 11
    action = lb.prior_preconditioned_hessian(prior, model, prior.mean)
    for seed in range(3):
        eig = lb.lanczos_eigs(action, prior.mspace, r_max=20, eig_tol=1e-6,
                              trunc_threshold=0.1, seed=seed)
        assert eig.iterations <= 20 and eig.rank == rank and not eig.spectrum_incomplete
        assert np.allclose(eig.lambdas, exact[:rank], rtol=1e-6, atol=0.0)


def test_lanczos_rejects_bad_rank(prior2d):
    with pytest.raises(ValueError):
        lb.lanczos_eigs(lambda v: v, prior2d.mspace, r_max=0)


# --- truncation error bound -------------------------------------------------------


def test_truncation_bound_values():
    assert lb.truncation_error_bound([]) == 0.0
    assert lb.truncation_error_bound([1.0]) == 0.5
    assert np.isclose(lb.truncation_error_bound([3.0, 1.0]), 1.25)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), max_size=8))
def test_truncation_bound_formula(lams):
    expected = sum(x / (x + 1.0) for x in lams)
    assert np.isclose(lb.truncation_error_bound(lams), expected, rtol=1e-12)


# --- posterior covariance action -----------------------------------------------


def _lowrank_full(prior, model, m_map=None, threshold=0.0):
    action = lb.prior_preconditioned_hessian(
        prior, model, np.zeros(prior.n) if m_map is None else m_map)
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=prior.n, eig_tol=1e-10,
                          trunc_threshold=threshold, seed=0)
    return lb.LowRankPosterior(prior, np.zeros(prior.n) if m_map is None else m_map,
                               eig.lambdas, eig.vectors)


def test_rank_zero_posterior_is_prior():
    prior, _ = _assembled_problem()
    lrp = lb.LowRankPosterior(prior, prior.mean, np.zeros(0), np.zeros((prior.n, 0)))
    v = np.random.default_rng(2).standard_normal(prior.n)
    assert np.allclose(lrp.apply_covariance(v), prior.apply_covariance(v))
    var_post = lrp.pointwise_variance(prior.mesh.node_coords[:5])
    var_prior = prior.pointwise_variance(prior.mesh.node_coords[:5])
    assert np.allclose(var_post, var_prior)


def test_posterior_covariance_scalar_case():
    # covariance 1/(a^2 + h): the rank-one correction reproduces it exactly
    a, h = 2.0, 7.0
    scalar = _ScalarPrior(a)
    lam = h / a**2
    lrp = lb.LowRankPosterior(scalar, np.zeros(1), np.array([lam]), np.ones((1, 1)))
    got = lrp.apply_covariance(np.ones(1))[0]
    assert np.isclose(got, 1.0 / (a**2 + h), rtol=1e-12)


def test_posterior_covariance_dense_oracle():
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model)
    dense = oracles.gamma_post_dense(model.operator, prior.mspace.matrix.toarray(),
                                     prior.stiffness.toarray(), model.noise_sigma)
    applied = lrp.apply_covariance(np.eye(prior.n))
    err = np.linalg.norm(applied - dense, "fro") / np.linalg.norm(dense, "fro")
    assert err <= 1e-7


def test_posterior_covariance_self_adjoint():
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u, v = rng.standard_normal(prior.n), rng.standard_normal(prior.n)
        lhs = prior.mspace.inner(lrp.apply_covariance(u), v)
        rhs = prior.mspace.inner(u, lrp.apply_covariance(v))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
        assert prior.mspace.inner(lrp.apply_covariance(u), u) > 0


def test_woodbury_identity_dense():
    # (I + V L V*)^-1 = I - V D V* with weighted-orthonormal V
    prior, model = _assembled_problem()
    mass = prior.mspace.matrix.toarray()
    vals, vecs = oracles.preconditioned_hessian_eigs_dense(
        model.operator, mass, prior.stiffness.toarray(), model.noise_sigma)
    vals = np.clip(vals, 0.0, None)
    v_adj = vecs.T @ mass
    lhs = np.linalg.inv(np.eye(prior.n) + vecs @ np.diag(vals) @ v_adj)
    rhs = np.eye(prior.n) - vecs @ np.diag(vals / (vals + 1.0)) @ v_adj
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


# --- sampling factor -----------------------------------------------------------


def test_sampling_factor_scalar_case():
    a, h = 2.0, 7.0
    scalar = _ScalarPrior(a)
    lam = h / a**2
    lrp = lb.LowRankPosterior(scalar, np.zeros(1), np.array([lam]), np.ones((1, 1)))
    factor = lrp.apply_sampling_factor(np.ones(1))[0]
    assert np.isclose(factor, 1.0 / (a * np.sqrt(lam + 1.0)), rtol=1e-12)
    assert np.isclose(factor**2, 1.0 / (a**2 + h), rtol=1e-12)


def test_sampling_factor_zero_modes_matches_prior():
    prior, _ = _assembled_problem()
    lrp = lb.LowRankPosterior(prior, prior.mean, np.zeros(0), np.zeros((prior.n, 0)))
    nhat = np.random.default_rng(4).standard_normal((prior.n, 3))
    assert np.array_equal(lrp.sample(nhat), prior.sample(nhat))


def test_sampling_factor_dense_identity():
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model)
    mass = prior.mspace.matrix.toarray()
    factor = lrp.apply_sampling_factor(np.eye(prior.n))
    lhs = factor @ factor.T @ mass
    dense = oracles.gamma_post_dense(model.operator, mass,
                                     prior.stiffness.toarray(), model.noise_sigma)
    assert np.linalg.norm(lhs - dense, "fro") <= 1e-7 * np.linalg.norm(dense, "fro")


def test_sample_zero_noise_returns_map():
    prior, model = _assembled_problem()
    m_map = np.random.default_rng(5).standard_normal(prior.n)
    lrp = _lowrank_full(prior, model, m_map=m_map)
    assert np.allclose(lrp.sample(np.zeros(prior.n)), m_map)


# --- pointwise variance ---------------------------------------------------------


def test_posterior_variance_never_exceeds_prior():
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model, threshold=0.1)
    pts = prior.mesh.node_coords
    post = lrp.pointwise_variance(pts)
    pri = prior.pointwise_variance(pts)
    assert np.all(post <= pri + 1e-12)
    assert np.all(post >= 0.0)


def test_posterior_variance_dense_oracle():
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model)
    mass = prior.mspace.matrix.toarray()
    dense = oracles.gamma_post_dense(model.operator, mass,
                                     prior.stiffness.toarray(), model.noise_sigma)
    nodal = np.diag(dense @ np.linalg.inv(mass))
    got = lrp.pointwise_variance(prior.mesh.node_coords)
    assert np.allclose(got, nodal, rtol=1e-7)


def test_posterior_variance_matches_per_point_reduction():
    # the vectorised reduction against sum_i d_i (phi(x)^T tv_i)^2 point by point
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model, threshold=0.1)
    pts = np.vstack([prior.mesh.node_coords,
                     np.random.default_rng(6).uniform(0.0, 1.0, (30, 2))])
    prior_var = prior.pointwise_variance(pts)
    expected = [v - lrp.d_diag @ (lrp.tilde_vectors.T @ oracles.hat_basis(prior.mesh, x)) ** 2
                for x, v in zip(pts, prior_var)]
    got = lrp.pointwise_variance(pts)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(lrp.pointwise_variance(pts, prior_variance=prior_var), got)


def test_posterior_variance_clipped_at_zero_with_a_warning():
    # a zero prior variance leaves only the reduction, which is negative
    prior, model = _assembled_problem()
    lrp = _lowrank_full(prior, model, threshold=0.1)
    pts = prior.mesh.node_coords
    with pytest.warns(UserWarning, match=r"posterior variance clipped at zero \(min -"):
        out = lrp.pointwise_variance(pts, prior_variance=0.0)
    assert np.array_equal(out, np.zeros(len(pts)))


def test_posterior_variance_monotone_in_rank():
    prior, model = _assembled_problem()
    action = lb.prior_preconditioned_hessian(prior, model, np.zeros(prior.n))
    eig = lb.lanczos_eigs(action, prior.mspace, r_max=prior.n, eig_tol=1e-10,
                          trunc_threshold=0.0, seed=0)
    pts = prior.mesh.node_coords[::5]
    previous = prior.pointwise_variance(pts)
    for r in (1, 3, 6, eig.rank):
        var = lb.LowRankPosterior(prior, np.zeros(prior.n), eig.lambdas[:r],
                                  eig.vectors[:, :r]).pointwise_variance(pts)
        assert np.all(var <= previous + 1e-12)
        previous = var
