import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import linbayes as lb
from linbayes.fem import MassSpace

import oracles


# --- meshes ----------------------------------------------------------------


def test_build_mesh_1d_nodes():
    mesh = lb.build_mesh(1, 2, (0.0, 1.0))
    assert np.allclose(mesh.node_coords.ravel(), [0.0, 0.5, 1.0])
    assert mesh.n == 3


def test_build_mesh_2d_counts():
    mesh = lb.build_mesh(2, (2, 2), ((0.0, 1.0), (0.0, 1.0)))
    assert mesh.n == 9
    assert mesh.n_elements == 4


@pytest.mark.parametrize("args", [
    (1, 0, (0.0, 1.0)),
    (2, (2, 0), ((0.0, 1.0), (0.0, 1.0))),
    (1, 3, (1.0, 0.0)),
    (3, (1, 1, 1), ((0.0, 1.0),) * 3),
])
def test_build_mesh_invalid(args):
    with pytest.raises(ValueError):
        lb.build_mesh(*args)


@settings(max_examples=25, deadline=None)
@given(counts=st.integers(1, 6), lo=st.floats(-2, 2), width=st.floats(0.1, 3))
def test_mesh_1d_invariants(counts, lo, width):
    mesh = lb.build_mesh(1, counts, (lo, lo + width))
    assert mesh.n == counts + 1
    # element measures tile the box
    lengths = np.diff(mesh.node_coords[mesh.elements, 0], axis=1)
    assert np.isclose(lengths.sum(), mesh.measure)
    # Lagrange property: basis j is the delta at node j
    for i in range(mesh.n):
        vals = mesh.basis_eval(mesh.node_coords[i])
        expected = np.zeros(mesh.n)
        expected[i] = 1.0
        assert np.allclose(vals, expected, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(cx=st.integers(1, 4), cy=st.integers(1, 4))
def test_mesh_2d_invariants(cx, cy):
    mesh = lb.build_mesh(2, (cx, cy), ((0.0, 2.0), (-1.0, 1.0)))
    assert mesh.n == (cx + 1) * (cy + 1)
    hx, hy = mesh.spacings
    assert np.isclose(mesh.n_elements * hx * hy, mesh.measure)
    for i in range(mesh.n):
        vals = mesh.basis_eval(mesh.node_coords[i])
        assert np.isclose(vals[i], 1.0)
        assert np.isclose(vals.sum(), 1.0)


def test_basis_eval_outside_domain(mesh1d):
    with pytest.raises(ValueError):
        mesh1d.basis_eval([1.5])


def _coordinate(draw, lo, hi, count):
    """One coordinate of a query point: anywhere in [lo, hi], on a node (an
    element face), at an end of the axis, or in the 1e-10 tolerance band
    just outside it."""
    kind = draw(st.sampled_from(["inside", "node", "end", "band"]))
    if kind == "inside":
        return lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    if kind == "node":
        return lo + draw(st.integers(0, count)) * (hi - lo) / count
    if kind == "end":
        return draw(st.sampled_from([lo, hi]))
    gap = draw(st.floats(0.0, 0.9)) * 1e-10 * (hi - lo)
    return draw(st.sampled_from([lo - gap, hi + gap]))


@st.composite
def _mesh_and_points(draw):
    dim = draw(st.sampled_from([1, 2]))
    counts = [draw(st.integers(1, 8)) for _ in range(dim)]
    bounds = []
    for _ in range(dim):
        lo = draw(st.floats(-2.0, 2.0))
        bounds.append((lo, lo + draw(st.floats(0.1, 3.0))))
    mesh = lb.build_mesh(dim, counts, bounds)
    pts = [[_coordinate(draw, lo, hi, c) for (lo, hi), c in zip(mesh.domain_bounds, counts)]
           for _ in range(draw(st.integers(1, 12)))]
    return mesh, np.array(pts)


@settings(max_examples=60, deadline=None)
@given(case=_mesh_and_points(), data=st.data())
def test_basis_matrix_matches_dense_hat_oracle(case, data):
    mesh, pts = case
    block = mesh.basis_matrix(pts)
    assert block.shape == (len(pts), mesh.n)
    per_row = 2 ** mesh.dim
    assert np.array_equal(block.indptr, np.arange(0, per_row * len(pts) + 1, per_row))
    lo, hi = np.array(mesh.domain_bounds).T
    for i, x in enumerate(pts):
        # a point in the tolerance band counts as the nearest boundary point
        want = oracles.hat_basis(mesh, np.clip(x, lo, hi))
        row = block[i].toarray()[0]
        assert np.max(np.abs(row - want)) <= 1e-12
        # the block's row is the point's own call, bit for bit
        single = mesh.basis_matrix(x[None])
        assert np.array_equal(single.indices, block.indices[i * per_row:(i + 1) * per_row])
        assert single.data.tobytes() == block.data[i * per_row:(i + 1) * per_row].tobytes()
        assert mesh.basis_eval(x).tobytes() == row.tobytes()
    # one point beyond the band: the whole block is refused, naming the point
    bad = pts.copy()
    i, k = data.draw(st.integers(0, len(pts) - 1)), data.draw(st.integers(0, mesh.dim - 1))
    gap = data.draw(st.floats(2e-10, 1.0)) * (hi[k] - lo[k])
    bad[i, k] = data.draw(st.sampled_from([lo[k] - gap, hi[k] + gap]))
    with pytest.raises(ValueError, match=re.escape(f"point {bad[i]} lies outside")):
        mesh.basis_matrix(bad)


# --- mass assembly ----------------------------------------------------------


def test_mass_two_elements_hand_values():
    mesh = lb.build_mesh(1, 2, (0.0, 1.0))
    expected = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
    assert np.allclose(lb.assemble_mass(mesh).toarray(), expected, atol=1e-15)


def test_mass_single_element_hand_values():
    mesh = lb.build_mesh(1, 1, (0.0, 1.0))
    expected = np.array([[2, 1], [1, 2]]) / 6.0
    assert np.allclose(lb.assemble_mass(mesh).toarray(), expected, atol=1e-15)


@pytest.mark.parametrize("dim,counts,bounds", [
    (1, 7, (0.0, 2.5)),
    (2, (3, 4), ((0.0, 1.0), (0.0, 0.5))),
    (2, (5, 2), ((-1.0, 1.0), (0.0, 3.0))),
])
def test_mass_partition_of_unity(dim, counts, bounds):
    mesh = lb.build_mesh(dim, counts, bounds)
    mass = lb.assemble_mass(mesh)
    assert np.isclose(mass.sum(), mesh.measure, rtol=1e-13)


# 1D meshes of several sizes and offsets, for the oracles of M and K
MESHES_1D = [(1, (0.0, 1.0)), (7, (-1.0, 2.3)), (13, (0.1, 1.37)), (100, (0.0, 1.0))]


@pytest.mark.parametrize("dim,counts,bounds", [
    (1, 4, (0.0, 1.0)),
    (2, (3, 2), ((0.0, 1.0), (0.0, 1.0))),
    *((1, counts, bounds) for counts, bounds in MESHES_1D),
])
def test_mass_matches_independent_quadrature(dim, counts, bounds):
    mesh = lb.build_mesh(dim, counts, bounds)
    mass = lb.assemble_mass(mesh).toarray()
    assert np.allclose(mass, oracles.dense_mass(mesh), atol=1e-14)


def test_mass_exactly_symmetric_and_spd(mesh2d):
    mass = lb.assemble_mass(mesh2d)
    diff = (mass - mass.T).toarray()
    assert np.all(diff == 0.0)
    np.linalg.cholesky(mass.toarray())


def test_assembled_operators_spd_at_larger_size():
    # Cholesky as the SPD certificate, near the upper desk-test scale
    mesh = lb.build_mesh(2, (12, 12), ((0.0, 1.0), (0.0, 1.0)))  # n = 169
    mass = lb.assemble_mass(mesh)
    stiff = lb.assemble_prior_stiffness(
        mesh, 1.5, lb.AnisotropySpec("radial", beta=0.02, theta=0.3, radius=2.0))
    for mat in (mass, stiff):
        assert np.all((mat - mat.T).toarray() == 0.0)
        np.linalg.cholesky(mat.toarray())


# --- prior stiffness ---------------------------------------------------------


def test_stiffness_single_element_hand_values():
    # hand integration: [[1, -1], [-1, 1]] plus the unit-interval mass matrix
    mesh = lb.build_mesh(1, 1, (0.0, 1.0))
    k = lb.assemble_prior_stiffness(mesh, 1.0, lb.AnisotropySpec("isotropic", 1.0))
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) + np.array([[2, 1], [1, 2]]) / 6.0
    assert np.allclose(k.toarray(), expected, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_stiffness_constants(mesh2d, alpha):
    aniso = lb.AnisotropySpec("radial", beta=0.05, theta=0.3, radius=2.0)
    k = lb.assemble_prior_stiffness(mesh2d, alpha, aniso)
    mass = lb.assemble_mass(mesh2d)
    ones = np.ones(mesh2d.n)
    lhs = k @ ones
    rhs = alpha * (mass @ ones)
    assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_stiffness_matches_independent_quadrature():
    mesh = lb.build_mesh(2, (2, 2), ((0.0, 1.0), (0.0, 1.0)))
    beta = 0.7
    k = lb.assemble_prior_stiffness(mesh, 1.3, lb.AnisotropySpec("isotropic", beta))
    dense = oracles.dense_prior_stiffness(mesh, 1.3, lambda x: beta * np.eye(2))
    assert np.allclose(k.toarray(), dense, atol=1e-13)


@pytest.mark.parametrize("counts,bounds", MESHES_1D)
@pytest.mark.parametrize("radial", [False, True])
def test_stiffness_1d_matches_independent_quadrature(counts, bounds, radial):
    # in 1D the radial tensor degenerates to the scalar beta
    mesh = lb.build_mesh(1, counts, bounds)
    beta = 0.7
    spec = (lb.AnisotropySpec("radial", beta, 0.5, radius=0.1) if radial
            else lb.AnisotropySpec("isotropic", beta))
    k = lb.assemble_prior_stiffness(mesh, 1.3, spec)
    dense = oracles.dense_prior_stiffness(mesh, 1.3, lambda x: beta)
    assert np.allclose(k.toarray(), dense, atol=1e-13)


def test_stiffness_radial_matches_independent_quadrature():
    # spatially varying tensors define the entries through the 2-point rule
    mesh = lb.build_mesh(2, (3, 3), ((-0.5, 0.5), (-0.5, 0.5)))
    spec = lb.AnisotropySpec("radial", beta=0.2, theta=0.1, radius=1.0)
    k = lb.assemble_prior_stiffness(mesh, 0.8, spec)
    dense = oracles.dense_prior_stiffness(
        mesh, 0.8, spec.tensor, points=2)
    assert np.allclose(k.toarray(), dense, atol=1e-13)
    diff = (k - k.T).toarray()
    assert np.all(diff == 0.0)
    np.linalg.cholesky(k.toarray())


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), cx=st.integers(1, 6), cy=st.integers(1, 6),
       radial=st.booleans(), alpha=st.floats(0.1, 5.0), beta=st.floats(0.01, 2.0),
       theta=st.floats(0.05, 1.0), lo=st.floats(-0.7, 0.0), width=st.floats(0.05, 0.7))
def test_stiffness_matches_quadrature_oracle_on_random_meshes(
        dim, cx, cy, radial, alpha, beta, theta, lo, width):
    # the table contraction against the per-point loop of the oracle; for
    # radial tensors the 2-point rule defines the entries
    bounds = (lo, lo + width)
    mesh = (lb.build_mesh(1, cx, bounds) if dim == 1
            else lb.build_mesh(2, (cx, cy), (bounds, (lo / 2, lo / 2 + width))))
    if radial:
        spec = lb.AnisotropySpec("radial", beta, theta, radius=1.0)
        theta_fn = (lambda x: beta) if dim == 1 else spec.tensor
    else:
        spec = lb.AnisotropySpec("isotropic", beta)
        theta_fn = lambda x: beta * np.eye(dim)
    k = lb.assemble_prior_stiffness(mesh, alpha, spec).toarray()
    dense = oracles.dense_prior_stiffness(mesh, alpha, theta_fn, points=2 if radial else 3)
    assert np.max(np.abs(k - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_stiffness_rejects_tensor_outside_ball():
    # quadrature points beyond the modeled ball radius are invalid
    mesh = lb.build_mesh(2, (2, 2), ((-1.0, 1.0), (-1.0, 1.0)))
    spec = lb.AnisotropySpec("radial", beta=1.0, theta=0.5, radius=0.5)
    with pytest.raises(ValueError):
        lb.assemble_prior_stiffness(mesh, 1.0, spec)


def test_stiffness_rejects_bad_alpha(mesh1d):
    with pytest.raises(ValueError):
        lb.assemble_prior_stiffness(mesh1d, 0.0, lb.AnisotropySpec("isotropic", 1.0))


# --- radial anisotropy tensor ------------------------------------------------


def test_radial_tensor_at_origin():
    out = lb.AnisotropySpec("radial", beta=2.0, theta=0.3, radius=1.0).tensor(np.zeros(3))
    assert np.allclose(out, 2.0 * np.eye(3))


def test_radial_tensor_at_ball_surface():
    # radial eigenvalue beta*theta, tangential eigenvalues beta
    beta, theta, radius = 1.5, 0.25, 2.0
    x = np.array([0.0, 0.0, radius])
    out = lb.AnisotropySpec("radial", beta, theta, radius).tensor(x)
    evals = np.sort(np.linalg.eigvalsh(out))
    assert np.isclose(evals[0], beta * theta)
    assert np.allclose(evals[1:], beta)


@settings(max_examples=40, deadline=None)
@given(x1=st.floats(-0.7, 0.7), x2=st.floats(-0.7, 0.7),
       theta=st.floats(0.01, 1.0), beta=st.floats(0.1, 5.0))
@example(x1=3.6e-162, x2=0.0, theta=0.5, beta=1.0)  # |x|^2 underflows
def test_radial_tensor_spd_inside_ball(x1, x2, theta, beta):
    out = lb.AnisotropySpec("radial", beta, theta, radius=1.0).tensor(np.array([x1, x2]))
    assert np.all(np.linalg.eigvalsh(out) > 0)
    assert np.allclose(out, out.T)


@settings(max_examples=20, deadline=None)
@given(x1=st.floats(-0.7, 0.7), x2=st.floats(-0.7, 0.7))
def test_radial_tensor_theta_one_is_isotropic(x1, x2):
    x = np.array([x1, x2])
    out = lb.AnisotropySpec("radial", 2.0, 1.0, radius=1.0).tensor(x)
    assert np.allclose(out, 2.0 * np.eye(2), atol=1e-14)
    assert np.array_equal(lb.AnisotropySpec("isotropic", 2.0).tensor(x), 2.0 * np.eye(2))


@settings(max_examples=30, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
                       min_size=1, max_size=12),
       theta=st.floats(0.01, 1.0), beta=st.floats(0.1, 5.0))
@example(points=[(0.0, 0.0), (3.6e-162, 0.0), (0.5, -0.25)], theta=0.5, beta=1.0)
def test_radial_tensor_stack_matches_per_point(points, theta, beta):
    x = np.array(points)
    for spec in (lb.AnisotropySpec("radial", beta, theta, radius=1.0),
                 lb.AnisotropySpec("isotropic", beta)):
        stacked = spec.tensor(x)
        assert stacked.shape == (len(points), 2, 2)
        assert np.array_equal(stacked, np.stack([spec.tensor(p) for p in x]))
        # a deeper stack is the same tensors
        assert np.array_equal(spec.tensor(x.reshape(1, -1, 2))[0], stacked)


def test_radial_tensor_outside_ball_rejected():
    spec = lb.AnisotropySpec("radial", 1.0, 0.5, radius=1.0)
    with pytest.raises(ValueError):
        spec.tensor(np.array([1.5, 0.0]))
    # one point outside rejects the whole stack
    with pytest.raises(ValueError, match="exceeds the modeled ball"):
        spec.tensor(np.array([[0.1, 0.0], [0.0, -1.5]]))


# --- weighted inner product ---------------------------------------------------


def test_inner_product_basics(mesh2d):
    mspace = MassSpace(lb.assemble_mass(mesh2d))
    zero = np.zeros(mesh2d.n)
    ones = np.ones(mesh2d.n)
    assert mspace.inner(zero, zero) == 0.0
    assert np.isclose(mspace.inner(ones, ones), mesh2d.measure)


def test_inner_product_symmetry(mesh2d):
    mspace = MassSpace(lb.assemble_mass(mesh2d))
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal(mesh2d.n)
        v = rng.standard_normal(mesh2d.n)
        assert abs(mspace.inner(u, v) - mspace.inner(v, u)) <= 1e-14 * abs(mspace.inner(u, v))


def test_inner_product_dimension_mismatch(mesh1d):
    mspace = MassSpace(lb.assemble_mass(mesh1d))
    with pytest.raises(ValueError):
        mspace.inner(np.zeros(3), np.zeros(mesh1d.n))


def test_exact_sqrt_matches_dense(mesh2d):
    # the sampling root W is the lower Cholesky factor: W W^T = M
    mspace = MassSpace(lb.assemble_mass(mesh2d))
    root = mspace.root.toarray()
    mass = mspace.matrix.toarray()
    assert np.all(np.triu(root, 1) == 0.0)
    assert np.linalg.norm(root @ root.T - mass) <= 1e-12 * np.linalg.norm(mass)


# --- factored SPD solves -------------------------------------------------------


def test_solve_spd_zero_rhs(mesh1d, prior1d):
    assert np.all(MassSpace(lb.assemble_mass(mesh1d)).solve(np.zeros(mesh1d.n)) == 0.0)
    assert np.all(prior1d.solve_stiffness(np.zeros((mesh1d.n, 3))) == 0.0)


def test_solve_spd_known_solution(mesh2d):
    mass = lb.assemble_mass(mesh2d)
    ones = np.ones(mesh2d.n)
    x = MassSpace(mass).solve(mass @ ones)
    assert np.allclose(x, ones, atol=1e-12)


def test_solve_spd_matches_dense_factorization():
    # a dense SPD matrix is a banded one of full bandwidth
    rng = np.random.default_rng(8)
    a = rng.standard_normal((10, 10))
    spd = sp.csr_matrix(a @ a.T + 10 * np.eye(10))
    b = rng.standard_normal(10)
    x = MassSpace(spd).solve(b)
    assert np.linalg.norm(x - np.linalg.solve(spd.toarray(), b)) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([1, 2]), cx=st.integers(1, 9), cy=st.integers(1, 9),
       radial=st.booleans(), cols=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_solve_spd_block_rhs_matches_columns(dim, cx, cy, radial, cols, seed):
    counts = cx if dim == 1 else (cx, cy)
    bounds = (-0.5, 0.5) if dim == 1 else ((-0.5, 0.5), (-0.5, 0.5))
    mesh = lb.build_mesh(dim, counts, bounds)
    aniso = (lb.AnisotropySpec("radial", beta=0.05, theta=0.3, radius=1.0) if radial
             else lb.AnisotropySpec("isotropic", 0.05))
    prior = lb.build_prior(mesh, 2.0, aniso)
    b = np.random.default_rng(seed).standard_normal((mesh.n, cols))
    for solve, matrix in ((prior.solve_stiffness, prior.stiffness),
                          (prior.mspace.solve, prior.mspace.matrix)):
        block = solve(b)
        columns = np.stack([solve(b[:, j]) for j in range(cols)], axis=1)
        dense = np.linalg.solve(matrix.toarray(), b)
        assert np.array_equal(block, columns)
        assert np.linalg.norm(block - dense) <= 1e-12 * np.linalg.norm(dense)


def test_solve_spd_rejects_non_spd():
    indefinite = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        MassSpace(indefinite)
    with pytest.raises(ValueError, match="not positive definite"):
        lb.PriorModel(lb.build_mesh(1, 1, (0.0, 1.0)), MassSpace(sp.identity(2, format="csr")),
                      indefinite, np.zeros(2))
