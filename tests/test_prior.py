import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linbayes as lb
import linbayes.prior as prior_mod

import oracles


def _dense_pair(prior):
    return prior.mspace.matrix.toarray(), prior.stiffness.toarray()


def test_covariance_zero(prior2d):
    assert np.all(prior2d.apply_covariance(np.zeros(prior2d.n)) == 0.0)


def test_covariance_matches_dense(prior2d):
    mass, stiff = _dense_pair(prior2d)
    dense = oracles.gamma_prior_dense(mass, stiff)
    v = np.random.default_rng(0).standard_normal(prior2d.n)
    out = prior2d.apply_covariance(v)
    assert np.linalg.norm(out - dense @ v) <= 1e-9 * np.linalg.norm(dense @ v)


def test_precision_matches_dense(prior2d):
    mass, stiff = _dense_pair(prior2d)
    dense = oracles.gamma_prior_inv_dense(mass, stiff)
    v = np.random.default_rng(1).standard_normal(prior2d.n)
    out = prior2d.apply_precision(v)
    assert np.linalg.norm(out - dense @ v) <= 1e-9 * np.linalg.norm(dense @ v)


def test_covariance_precision_inverse_pair(prior1d):
    v = np.random.default_rng(2).standard_normal(prior1d.n)
    back = prior1d.apply_precision(prior1d.apply_covariance(v))
    assert np.linalg.norm(back - v) <= 1e-8 * np.linalg.norm(v)


def test_sqrt_composes_to_covariance(prior2d):
    v = np.random.default_rng(3).standard_normal(prior2d.n)
    twice = prior2d.apply_covariance_sqrt(prior2d.apply_covariance_sqrt(v))
    full = prior2d.apply_covariance(v)
    assert np.linalg.norm(twice - full) <= 1e-9 * np.linalg.norm(full)


def test_precision_on_constants(prior2d):
    # the gradient term vanishes, so constants are scaled by alpha squared
    # (the fixture's alpha is 2)
    c = np.full(prior2d.n, 1.7)
    out = prior2d.apply_precision(c)
    assert np.allclose(out, 2.0**2 * c, rtol=1e-10)


@pytest.mark.parametrize("action", ["apply_covariance", "apply_covariance_sqrt",
                                    "apply_precision"])
def test_actions_self_adjoint(prior2d, action):
    fn = getattr(prior2d, action)
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.standard_normal(prior2d.n)
        v = rng.standard_normal(prior2d.n)
        lhs = prior2d.mspace.inner(fn(u), v)
        rhs = prior2d.mspace.inner(u, fn(v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_covariance_positive_definite(prior1d):
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(prior1d.n)
        assert prior1d.mspace.inner(prior1d.apply_covariance(v), v) > 0


# --- log density -------------------------------------------------------------


def test_log_density_at_mean(prior2d):
    assert prior2d.log_density(prior2d.mean) == 0.0


def test_log_density_decreases_along_rays(prior2d):
    rng = np.random.default_rng(6)
    d = rng.standard_normal(prior2d.n)
    vals = [prior2d.log_density(prior2d.mean + t * d) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v < 0 for v in vals)


def test_log_density_matches_dense_quadratic(prior2d):
    mass, stiff = _dense_pair(prior2d)
    rng = np.random.default_rng(7)
    m = rng.standard_normal(prior2d.n)
    d = m - prior2d.mean
    expected = -0.5 * d @ stiff @ np.linalg.solve(mass, stiff @ d)
    assert np.isclose(prior2d.log_density(m), expected, rtol=1e-10)


# --- sampling ------------------------------------------------------------------


def test_sample_zero_noise_returns_mean(prior2d):
    assert np.allclose(prior2d.sample(np.zeros(prior2d.n)), prior2d.mean)


def test_sample_is_deterministic_in_noise(prior1d):
    nhat = np.random.default_rng(8).standard_normal(prior1d.n)
    a = prior1d.sample(nhat)
    b = prior1d.sample(nhat)
    assert np.array_equal(a, b)


def test_sample_covariance_matches_dense(prior2d):
    # K^-1 W with W W^T = M: the draw covariance of the nodal values is
    # exactly K^-1 M K^-1
    mass, stiff = _dense_pair(prior2d)
    factor = prior2d.sample(np.eye(prior2d.n)) - prior2d.mean[:, None]
    kinv = np.linalg.inv(stiff)
    dense = kinv @ mass @ kinv
    assert np.linalg.norm(factor @ factor.T - dense) <= 1e-12 * np.linalg.norm(dense)


# --- covariance function and variance -------------------------------------------


def test_covariance_function_symmetry(prior2d):
    x = np.array([0.31, 0.42])
    y = np.array([0.77, 0.18])
    cxy = oracles.covariance_function(prior2d, x, y)
    cyx = oracles.covariance_function(prior2d, y, x)
    assert abs(cxy - cyx) <= 1e-10 * abs(cxy)


def test_covariance_function_at_nodes(prior2d):
    mass, stiff = _dense_pair(prior2d)
    kinv = np.linalg.inv(stiff)
    nodal = kinv @ mass @ kinv
    for i, j in ((0, 0), (3, 11), (20, 20), (5, 40)):
        got = oracles.covariance_function(prior2d, prior2d.mesh.node_coords[i],
                                          prior2d.mesh.node_coords[j])
        assert np.isclose(got, nodal[i, j], rtol=1e-9)


def test_covariance_function_rejects_outside_points(prior1d):
    with pytest.raises(ValueError):
        oracles.covariance_function(prior1d, np.array([0.5]), np.array([2.0]))


def test_radial_anisotropy_elongates_tangentially():
    # near the boundary of the inscribed disk, correlation reaches farther
    # tangentially than radially
    mesh = lb.build_mesh(2, (20, 20), ((-0.5, 0.5), (-0.5, 0.5)))
    radius = 0.75  # must cover the square's corners
    aniso = lb.AnisotropySpec("radial", beta=7.5e-3 * radius**2, theta=4e-2,
                                     radius=radius)
    prior = lb.build_prior(mesh, 1.0, aniso)
    p = np.array([0.4, 0.0])
    step = 0.06
    tangential = oracles.covariance_function(prior, p, p + step * np.array([0.0, 1.0]))
    radial_out = oracles.covariance_function(prior, p, p + step * np.array([1.0, 0.0]))
    radial_in = oracles.covariance_function(prior, p, p - step * np.array([1.0, 0.0]))
    assert tangential > radial_out
    assert tangential > radial_in


def test_pointwise_variance_nonnegative_and_dense(prior2d):
    mass, stiff = _dense_pair(prior2d)
    kinv = np.linalg.inv(stiff)
    dense_diag = np.diag(kinv @ mass @ kinv)
    var = prior2d.pointwise_variance(prior2d.mesh.node_coords)
    assert np.all(var >= 0)
    assert np.allclose(var, dense_diag, rtol=1e-9)


def _variance_block(prior):
    """Rows per block of ``pointwise_variance``: the bandwidth, at least the floor."""
    return max(prior._factor.shape[0] - 1, prior_mod._MIN_BLOCK)


def test_pointwise_variance_chunked_matches_dense():
    # n = 65 spans three row blocks of the recursion, the last one of one row
    mesh = lb.build_mesh(2, (12, 4), ((-0.5, 0.5), (-0.5, 0.5)))
    prior = lb.build_prior(mesh, 2.0, lb.AnisotropySpec("radial", 0.05, 0.3, 1.0))
    b = _variance_block(prior)
    assert mesh.n % b == 1 and mesh.n > 2 * b
    mass, stiff = _dense_pair(prior)
    kinv = np.linalg.inv(stiff)
    dense_diag = np.diag(kinv @ mass @ kinv)
    var = prior.pointwise_variance(mesh.node_coords)
    assert np.max(np.abs(var - dense_diag) / dense_diag) <= 1e-12
    # off the nodes: the per-point quadratic form
    pts = np.random.default_rng(12).uniform(-0.5, 0.5, (70, 2))
    expected = [oracles.hat_basis(mesh, x) @ kinv @ mass @ kinv @ oracles.hat_basis(mesh, x)
                for x in pts]
    assert np.allclose(prior.pointwise_variance(pts), expected, rtol=1e-12, atol=0.0)


@st.composite
def variance_priors(draw):
    """A prior on a 1D or 2D mesh whose n lies below one row block, fills
    exactly one, ends one row past whole blocks, or is free."""
    floor = prior_mod._MIN_BLOCK
    dim = draw(st.sampled_from([1, 2]))
    case = draw(st.sampled_from(["below", "one", "last_row", "free"]))
    alpha = draw(st.floats(0.5, 30.0))
    beta = draw(st.floats(1e-3, 0.1))
    if dim == 1:  # bandwidth 1: the floor sets the block, n = counts + 1
        if case == "below":
            counts = draw(st.integers(1, floor - 2))
        elif case == "one":
            counts = floor - 1
        elif case == "last_row":
            counts = floor * draw(st.integers(1, 3))
        else:
            counts = draw(st.integers(1, 3 * floor))
        mesh = lb.build_mesh(1, counts, (0.0, 1.0))
        return lb.build_prior(mesh, alpha, lb.AnisotropySpec("isotropic", beta))
    if case == "below":  # (nx + 1)(ny + 1) < floor
        nx = draw(st.integers(1, (floor - 1) // 2 - 1))
        counts = (nx, draw(st.integers(1, (floor - 1) // (nx + 1) - 1)))
    elif case == "one":  # (nx + 1)(ny + 1) = floor with bandwidth nx + 2 <= floor
        d = draw(st.sampled_from([d for d in range(2, floor // 2 + 1) if floor % d == 0]))
        counts = (d - 1, floor // d - 1)
    elif case == "last_row":  # square, the bandwidth nx + 2 sets the block
        nx = draw(st.integers(floor - 2, floor + 6))
        counts = (nx, nx)
    else:
        counts = (draw(st.integers(1, floor + 4)), draw(st.integers(1, floor + 4)))
    mesh = lb.build_mesh(2, counts, ((-0.5, 0.5), (-0.5, 0.5)))
    anisotropy = (lb.AnisotropySpec("radial", beta, draw(st.floats(0.05, 1.0)),
                                           draw(st.floats(0.8, 3.0)))
                  if draw(st.booleans()) else lb.AnisotropySpec("isotropic", beta))
    return lb.build_prior(mesh, alpha, anisotropy)


@settings(max_examples=40, deadline=None)
@given(prior=variance_priors(), seed=st.integers(0, 2**32 - 1))
def test_pointwise_variance_matches_block_solve_oracle(prior, seed):
    mesh = prior.mesh
    lo, hi = np.array(mesh.domain_bounds).T
    pts = np.vstack([mesh.node_coords,
                     np.random.default_rng(seed).uniform(lo, hi, (25, mesh.dim))])
    expected = oracles.pointwise_variance_block_solve(prior, pts)
    got = prior.pointwise_variance(pts)
    assert np.max(np.abs(got - expected) / expected) <= 1e-12


@pytest.mark.parametrize("fixture", ["prior1d", "prior2d"])
def test_boundary_variance_exceeds_interior(fixture, request):
    prior = request.getfixturevalue(fixture)
    mesh = prior.mesh
    var = prior.pointwise_variance(mesh.node_coords)
    on_boundary = np.zeros(mesh.n, dtype=bool)
    for axis, (lo, hi) in enumerate(mesh.domain_bounds):
        coord = mesh.node_coords[:, axis]
        on_boundary |= np.isclose(coord, lo) | np.isclose(coord, hi)
    assert var[on_boundary].max() >= var[~on_boundary].max()


def test_generic_covariance_function_custom_action(prior1d):
    # the generic form accepts any covariance action on the weighted space:
    # a posterior with no modes has the prior's
    x = np.array([0.25])
    y = np.array([0.75])
    rank_zero = lb.LowRankPosterior(prior1d, prior1d.mean, np.zeros(0), np.zeros((prior1d.n, 0)))
    via_generic = oracles.covariance_function(prior1d, x, y, rank_zero.apply_covariance)
    assert np.isclose(via_generic, oracles.covariance_function(prior1d, x, y), rtol=1e-12)
