import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase
from hypothesis import given, settings
from hypothesis import strategies as st

import linbayes as lb
import linbayes.models.wave1d as wave1d
from linbayes.errors import ConfigError, InvalidParameterError, StabilityError
from linbayes.models.wave1d import (_Propagator, _build_jacobian, _forward_sweep,
                                    energy_history)

import oracles


def _mesh(n_el=200):
    return lb.build_mesh(1, n_el, (0.0, 1.0))


def _source(**kw):
    base = dict(position=0.15, width=0.02, time_center=0.12, time_std=0.02,
                amplitude=1.0)
    base.update(kw)
    return lb.SourceSpec(**base)


def _model(cfg, horizon):
    """The model of ``cfg`` with one sample, at ``horizon``: it runs to there."""
    obs = lb.ObservationSetup(receiver_positions=(0.6,),
                              sample_times=(horizon,), noise_sigma=0.01)
    return lb.WaveModel(cfg, obs)


# --- configuration validation -------------------------------------------------


def test_config_rejects_2d_mesh():
    mesh2 = lb.build_mesh(2, (2, 2), ((0, 1), (0, 1)))
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=mesh2, dt=0.01, source=_source())


def test_config_rejects_source_outside_domain():
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=_mesh(), dt=0.002, source=_source(position=1.5))


def test_cfl_violation_at_solve():
    # an invalid parameter, like a nonpositive wavespeed, so that a MAP line
    # search backs off from it; the config parser maps it to a ConfigError
    cfg = lb.WaveConfig(mesh=_mesh(), dt=0.004, source=_source())
    with pytest.raises(InvalidParameterError, match="violates the stability bound"):
        _model(cfg, 1.0).forward_history(2.0 * np.ones(cfg.mesh.n))


def test_nonpositive_wavespeed_rejected():
    cfg = lb.WaveConfig(mesh=_mesh(), dt=0.002, source=_source())
    c = np.ones(cfg.mesh.n)
    c[3] = 0.0
    with pytest.raises(InvalidParameterError):
        _model(cfg, 1.0).forward_history(c)


# --- forward solves -------------------------------------------------------------


def test_zero_source_zero_history():
    cfg = lb.WaveConfig(mesh=_mesh(100), dt=0.005, source=_source(amplitude=0.0))
    hist = _model(cfg, 0.5).forward_history(np.ones(cfg.mesh.n))
    assert np.all(hist.v == 0.0)
    assert np.all(hist.e == 0.0)
    assert hist.v.shape == (101, cfg.mesh.n)


def test_history_starts_from_rest():
    cfg = lb.WaveConfig(mesh=_mesh(100), dt=0.005, source=_source())
    hist = _model(cfg, 0.5).forward_history(np.ones(cfg.mesh.n))
    assert np.all(hist.v[0] == 0.0)
    assert np.all(hist.e[0] == 0.0)
    assert np.any(hist.v[-1] != 0.0)
    # the dilatation stays pinned at both endpoints
    assert np.all(hist.e[:, 0] == 0.0)
    assert np.all(hist.e[:, -1] == 0.0)


def _pulse_centroid(hist, mesh, xr, t_arrival, half_window, dt):
    t = np.arange(hist.v.shape[0]) * dt
    s = hist.v @ mesh.basis_eval([xr])
    mask = (t >= t_arrival - half_window) & (t <= t_arrival + half_window)
    energy = s[mask] ** 2
    return float((t[mask] * energy).sum() / energy.sum())


def _travel_delay(c0, dt, horizon):
    mesh = _mesh()
    src = _source()
    cfg = lb.WaveConfig(mesh=mesh, dt=dt, source=src)
    hist = _model(cfg, horizon).forward_history(c0 * np.ones(mesh.n))
    half = 3 * (src.time_std + src.width / c0)
    near = _pulse_centroid(hist, mesh, 0.35, src.time_center + 0.2 / c0, half, dt)
    far = _pulse_centroid(hist, mesh, 0.75, src.time_center + 0.6 / c0, half, dt)
    return far - near


def test_travel_time_matches_wavespeed():
    dt = 0.002
    delay = _travel_delay(1.0, dt, 0.9)
    assert abs(delay - 0.4) <= 2 * dt


def test_travel_time_halves_when_wavespeed_doubles():
    d1 = _travel_delay(1.0, 0.002, 0.9)
    d2 = _travel_delay(2.0, 0.00125, 0.5)
    assert abs(d2 - 0.2) <= 2 * 0.00125
    assert abs(d2 - d1 / 2) <= 2 * 0.002


def test_energy_drift_after_source_extinguishes():
    mesh = _mesh()
    src = _source()
    cfg = lb.WaveConfig(mesh=mesh, dt=0.002, source=src)
    c = np.ones(mesh.n)
    hist = _model(cfg, 1.0).forward_history(c)
    energy = energy_history(cfg, c, hist)
    start = int((src.time_center + 6 * src.time_std) / cfg.dt) + 1
    window = energy[start:]
    assert window[0] > 0
    assert (window.max() - window.min()) / window[0] < 0.005


def test_instability_detected_without_cfl_guard():
    # the model refuses this dt up front; the sweep itself must still notice,
    # at the step where the stage-by-stage sweep does
    cfg = lb.WaveConfig(mesh=_mesh(), dt=0.02, source=_source())
    c = np.ones(cfg.mesh.n)
    disc = _model(cfg, 1.0).disc
    with pytest.raises(StabilityError) as expected:
        oracles.forward_sweep(disc, disc.rate(c),
                              lambda k: oracles.source_stages(disc, k))
    with pytest.raises(StabilityError, match=re.escape(str(expected.value))):
        _forward_sweep(_Propagator(disc, c))


def test_reverse_instability_detected_without_cfl_guard():
    # the impulse response runs the same unstable step map backward; the
    # stage-by-stage sweep seeded with one impulse at the last step fails at
    # the same step
    cfg = lb.WaveConfig(mesh=_mesh(), dt=0.02, source=_source())
    n = cfg.mesh.n
    c = np.ones(n)
    model = _model(cfg, 1.0)
    disc, op = model.disc, model.obs_op
    rest = lb.StateHistory(v=np.zeros((disc.n_steps + 1, n)), e=np.zeros((disc.n_steps + 1, n)))

    def impulse(k):
        return op.rec_phi if k == disc.n_steps else np.zeros_like(op.rec_phi)

    with pytest.raises(StabilityError) as expected:
        oracles.reverse_sweep(disc, c, disc.rate(c), impulse, rest)
    with pytest.raises(StabilityError, match=re.escape(str(expected.value))):
        _build_jacobian(_Propagator(disc, c), rest, op.rec_phi, op.step_weights)


# --- linearized and adjoint solves ----------------------------------------------


def test_zero_drivers_zero_solutions():
    cfg = lb.WaveConfig(mesh=_mesh(100), dt=0.005, source=_source())
    model = _model(cfg, 0.5)
    c = np.ones(cfg.mesh.n)
    fwd = model.forward_history(c)
    inc = oracles.wave_incremental_sweep(model, c, np.zeros(cfg.mesh.n))
    assert np.all(inc.v == 0.0) and np.all(inc.e == 0.0)
    silent = np.zeros((2, cfg.mesh.n))      # two receivers that see nothing
    grad = _build_jacobian(_Propagator(model.disc, c), fwd, silent, model.obs_op.step_weights)
    assert grad.shape == (2, cfg.mesh.n)
    assert np.all(grad == 0.0)


def test_incremental_solver_duality():
    # <seeds_j, incremental sweep(dc)> = <dc, row j of the Jacobian> for
    # arbitrary receiver rows and step weights, with no observation operator
    mesh = _mesh(80)
    cfg = lb.WaveConfig(mesh=mesh, dt=0.005, source=_source())
    model = _model(cfg, 0.5)
    steps = model.disc.n_steps
    c = 1.0 + 0.05 * np.sin(3 * np.pi * mesh.node_coords[:, 0])
    fwd = model.forward_history(c)
    prop = _Propagator(model.disc, c)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dc = rng.standard_normal(mesh.n)
        rec_phi = rng.standard_normal((3, mesh.n))
        weights = rng.standard_normal((steps + 1, 2))
        seeds = oracles.observation_seeds(rec_phi, weights)
        inc = oracles.wave_incremental_sweep(model, c, dc)
        grad = _build_jacobian(prop, fwd, rec_phi, weights)
        for j in range(grad.shape[0]):
            lhs = float(sum(seeds(k)[j] @ inc.v[k] for k in range(steps + 1)))
            rhs = float(dc @ grad[j])
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@settings(max_examples=12, deadline=None)
@given(n_el=st.integers(6, 30), q=st.integers(1, 5),
       c0=st.floats(0.3, 3.0), wiggle=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**16))
def test_block_reverse_sweep_matches_columns_and_forward_jacobian(n_el, q, c0, wiggle, seed):
    # the rows a block of receivers gives are those each receiver gives
    # alone, and the Jacobian is the forward-mode J e_i, column by column
    mesh = _mesh(n_el)
    x = mesh.node_coords[:, 0]
    c = c0 * (1.0 + wiggle * np.sin(2 * np.pi * x))
    dt = 0.4 * mesh.spacings[0] / float(np.max(c))
    cfg = lb.WaveConfig(mesh=mesh, dt=dt, source=_source(position=0.3, width=0.1,
                                                          time_center=10 * dt,
                                                          time_std=4 * dt))
    obs = lb.ObservationSetup(receiver_positions=(0.7,),
                              sample_times=tuple(np.linspace(10 * dt, 40 * dt, q)),
                              noise_sigma=0.01)
    model = lb.WaveModel(cfg, obs)
    fwd = model.forward_history(c)
    prop = _Propagator(model.disc, c)
    rng = np.random.default_rng(seed)
    rec_phi = rng.standard_normal((q, mesh.n))
    weights = rng.standard_normal((model.disc.n_steps + 1, 2))
    block = _build_jacobian(prop, fwd, rec_phi, weights).reshape(q, 2, mesh.n)
    for j in range(q):
        alone = _build_jacobian(prop, fwd, rec_phi[j:j + 1], weights)
        assert np.linalg.norm(block[j] - alone) <= 1e-12 * np.linalg.norm(alone)

    jac = model.jacobian(c)
    assert jac.shape == (q, mesh.n)
    for i in range(mesh.n):
        col = model.obs_op.extract(oracles.wave_incremental_sweep(model, c, np.eye(mesh.n)[i]).v)
        assert np.linalg.norm(jac[:, i] - col) <= 1e-12 * np.linalg.norm(jac)


def _random_wave(n_el, steps, c0, wiggle, cfl_used):
    """A model on n_el elements over ``steps`` steps, and a wavespeed for
    which dt sits at CFL number ``cfl_used`` (the bound is 0.5)."""
    mesh = _mesh(n_el)
    x = mesh.node_coords[:, 0]
    c = c0 * (1.0 + wiggle * np.sin(2 * np.pi * x))
    dt = cfl_used * mesh.spacings[0] / float(np.max(c))
    cfg = lb.WaveConfig(mesh=mesh, dt=dt, source=_source(position=0.3, width=0.1,
                                                          time_center=5 * dt,
                                                          time_std=3 * dt))
    return lb.WaveModel(cfg, lb.ObservationSetup((0.7,), (steps * dt,), 0.01)), c


_wave_cases = dict(n_el=st.integers(2, 30), steps=st.integers(1, 40),
                   c0=st.floats(0.3, 3.0), wiggle=st.floats(0.0, 0.5),
                   cfl_used=st.floats(0.05, 0.5))


@settings(max_examples=25, deadline=None)
@given(**_wave_cases)
def test_sparse_assembly_matches_stepper_on_identity_columns(n_el, steps, c0, wiggle,
                                                             cfl_used):
    # the stepper run on sparse input maps gives the maps that it gives on
    # dense identity columns, entry for entry
    model, c = _random_wave(n_el, steps, c0, wiggle, cfl_used)
    disc, n = model.disc, model.n
    prop = _Propagator(disc, c)
    rate = disc.rate(c)
    unit = np.zeros((4, 2 * n, 2 * n + 4))     # a unit source factor per stage
    for i in range(4):
        unit[i, :n, 2 * n + i] = disc.source_v
    step, stages = wave1d._rk4_step(rate, disc.dt, np.eye(2 * n, 2 * n + 4), unit)
    # the band holds the state block with the state interleaved, (v_0, e_0,
    # v_1, ...), padded with zero unknowns to its order; LAPACK's entry
    # (i, j) at band[ku + i - j, j] is diagonal ku - k at row k of dia storage
    dim, kl, ku = prop.dim, prop.kl, prop.ku
    assert prop.band.shape == (kl + ku + 1, dim) and prop.band.flags.f_contiguous
    assert dim == max(2 * n, kl + ku + 1) and max(kl, ku) <= 8
    interleaved = np.arange(2 * n).reshape(2, n).T.ravel()
    expected = np.zeros((dim, dim))
    expected[:2 * n, :2 * n] = step[np.ix_(interleaved, interleaved)]
    unpacked = sp.dia_matrix((prop.band, np.arange(ku, -kl - 1, -1)), shape=(dim, dim))
    assert np.array_equal(unpacked.toarray(), expected)
    # no entry outside the matrix, where dia storage does not look
    outside = np.add.outer(np.arange(kl + ku + 1) - ku, np.arange(dim))
    assert not prop.band[(outside < 0) | (outside >= dim)].any()
    assert prop.source.shape == (dim, 4)
    assert np.array_equal(prop.source[:2 * n], step[interleaved, 2 * n:])
    assert not prop.source[2 * n:].any()
    # the stage maps are node-major: row 4 i + s holds stage s at node i
    dilatations = np.stack([s[n:] for s in stages], axis=1).reshape(4 * n, 2 * n + 4)
    assert np.array_equal(prop.stage_dilatations.toarray(), dilatations)
    # the step's response to a unit velocity rate at one node and stage,
    # node by node; the adjoint stage velocities are its transposes, and the
    # sweep takes their element differences, row 4 l + s at element l
    unit_rates = np.zeros((4, 2 * n, 4 * n))
    for s in range(4):
        unit_rates[s, :n, s * n:(s + 1) * n] = np.eye(n)
    response, _ = wave1d._rk4_step(rate, disc.dt, np.zeros((2 * n, 4 * n)), unit_rates)
    for s in range(4):
        assembled = prop.stage_adjoints[s::4].toarray()
        expected = np.diff(disc.inv_mass[:, None] * response[:, s * n:(s + 1) * n].T, axis=0)
        assert np.abs(assembled - expected).max() <= 1e-15 * np.abs(expected).max()


@settings(max_examples=25, deadline=None)
@given(n_el=st.integers(2, 30), c0=st.floats(0.3, 3.0), wiggle=st.floats(0.0, 0.5))
def test_rate_matches_dense_element_assembly(n_el, c0, wiggle):
    # the sparse rate matrix against one assembled element by element, row
    # by row relative to the row's largest entry; the pinned dilatation rows
    # are zero
    mesh = _mesh(n_el)
    x = mesh.node_coords[:, 0]
    c = c0 * (1.0 + wiggle * np.sin(2 * np.pi * x))
    cfg = lb.WaveConfig(mesh=mesh, dt=0.5, source=_source())
    rate = _model(cfg, 1.0).disc.rate(c).toarray()
    dense = oracles.wave_rate_dense(mesh, c)
    scale = np.abs(dense).max(axis=1, keepdims=True)
    assert np.all(np.abs(rate - dense) <= 1e-14 * scale)


@settings(max_examples=25, deadline=None)
@given(q=st.integers(1, 5), seed=st.integers(0, 2**16), **_wave_cases)
def test_propagator_matches_stage_by_stage_sweeps(n_el, steps, c0, wiggle, cfl_used, q, seed):
    # the assembled forward sweep and Jacobian against the stage-by-stage
    # reference, over whole and partial blocks of steps and elements, for
    # arbitrary receiver rows and step weights
    model, c = _random_wave(n_el, steps, c0, wiggle, cfl_used)
    disc, n = model.disc, model.n
    prop = _Propagator(disc, c)
    rate = disc.rate(c)
    ref = oracles.forward_sweep(disc, rate, lambda k: oracles.source_stages(disc, k))
    hist = _forward_sweep(prop)
    for new, old in ((hist.v, ref.v), (hist.e, ref.e)):
        assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)
    rng = np.random.default_rng(seed)
    rec_phi = rng.standard_normal((q, n))
    weights = rng.standard_normal((steps + 1, 3))
    grad = _build_jacobian(prop, hist, rec_phi, weights)
    expected = oracles.reverse_sweep(disc, c, rate,
                                     oracles.observation_seeds(rec_phi, weights), ref)
    assert np.linalg.norm(grad - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=25, deadline=None)
@given(positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       count=st.integers(1, 8), fourier=st.sampled_from([None, 1, 2, 3]), **_wave_cases)
def test_jacobian_matches_stage_by_stage_oracle(n_el, steps, c0, wiggle, cfl_used,
                                                positions, count, fourier):
    # the model's Jacobian is the stage-by-stage reverse sweep seeded with
    # the unit data vectors, for raw samples and Fourier observables
    model, c = _random_wave(n_el, steps, c0, wiggle, cfl_used)
    cfg, disc = model.config, model.disc
    horizon = disc.n_steps * cfg.dt
    times = np.linspace(horizon / count, horizon, count)
    if fourier is not None:
        fourier = min(fourier, count // 2 + 1)
    model = lb.WaveModel(cfg, lb.ObservationSetup(tuple(positions), tuple(times), 0.01,
                                                  fourier_truncation=fourier))
    rate = disc.rate(c)
    ref = oracles.forward_sweep(disc, rate, lambda k: oracles.source_stages(disc, k))
    seeds = oracles.observation_seeds(model.obs_op.rec_phi, model.obs_op.step_weights)
    jac = oracles.reverse_sweep(disc, c, rate, seeds, ref)
    assert model.jacobian(c).shape == (model.q, model.n)
    assert np.linalg.norm(model.jacobian(c) - jac) <= 1e-12 * np.linalg.norm(jac)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 40), frac=st.just(0.0) | st.floats(1e-6, 1.0),
       gap=st.floats(1e-3, 20.0), positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       count=st.integers(1, 8), **{key: _wave_cases[key] for key in
                                  ("n_el", "c0", "wiggle", "cfl_used")})
def test_later_sample_time_leaves_earlier_observations(n_el, c0, wiggle, cfl_used, k, frac,
                                                       gap, positions, count):
    # the sweep runs the fewest steps that reach the last sample time, so a
    # later sample only lengthens it.  The earlier observations agree to
    # rounding, not bit for bit: BLAS orders the sums over the steps by the
    # sweep's length.  Their Jacobian rows agree to the rounding of the
    # longer sweep's FFT correlation, which scales with its whole Jacobian
    model, c = _random_wave(n_el, 1, c0, wiggle, cfl_used)
    cfg, dt = model.config, model.config.dt
    last = (k + frac) * dt
    times = np.linspace(last / count, last, count)
    short = lb.WaveModel(cfg, lb.ObservationSetup(tuple(positions), tuple(times), 0.01))
    assert short.disc.n_steps == k + (frac > 0.0)
    longer = lb.WaveModel(cfg, lb.ObservationSetup(tuple(positions),
                                                   (*times, last + gap * dt), 0.01))
    rows = (len(positions), count)
    expected = short.observe(c).reshape(rows)
    got = longer.observe(c).reshape(rows[0], count + 1)[:, :count]
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
    expected = short.jacobian(c).reshape(*rows, -1)
    whole = longer.jacobian(c)
    got = whole.reshape(rows[0], count + 1, -1)[:, :count]
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(whole)


def test_observe_zero_source_zero_data():
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, dt=0.005, source=_source(amplitude=0.0))
    obs = lb.ObservationSetup(receiver_positions=(0.6,),
                              sample_times=(0.1, 0.2, 0.4), noise_sigma=0.01)
    model = lb.WaveModel(cfg, obs)
    assert np.all(model.observe(np.ones(mesh.n)) == 0.0)


def test_receiver_and_sample_time_validation():
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, dt=0.005, source=_source())
    # the last sample time must be a finite number of steps away
    with pytest.raises(ConfigError, match="the last sample time is inf steps"):
        lb.WaveModel(cfg, lb.ObservationSetup(receiver_positions=(0.6,),
                                              sample_times=(0.1, 1e308),
                                              noise_sigma=0.01))
    with pytest.raises(ConfigError):
        lb.WaveModel(cfg, lb.ObservationSetup(receiver_positions=(1.4,),
                                              sample_times=(0.1,),
                                              noise_sigma=0.01))


def test_jacobian_linearity(wave_small):
    mesh, model, m = wave_small
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
    lhs = model.apply_jacobian(m, 1.5 * u - 0.5 * v)
    rhs = 1.5 * model.apply_jacobian(m, u) - 0.5 * model.apply_jacobian(m, v)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_jacobian_finite_difference(wave_small):
    mesh, model, m = wave_small
    rng = np.random.default_rng(2)
    dm = rng.standard_normal(mesh.n)
    dm /= np.linalg.norm(dm)
    eps = 1e-4
    fd = (model.observe(m + eps * dm) - model.observe(m - eps * dm)) / (2 * eps)
    lin = model.apply_jacobian(m, dm)
    assert np.linalg.norm(fd - lin) <= 1e-5 * np.linalg.norm(lin)


def test_adjoint_identity(wave_small):
    mesh, model, m = wave_small
    rng = np.random.default_rng(3)
    for _ in range(20):
        dm = rng.standard_normal(mesh.n)
        dy = rng.standard_normal(model.q)
        lhs = dy @ model.apply_jacobian(m, dm)
        rhs = model.mspace.inner(model.apply_jacobian_adjoint(m, dy), dm)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_misfit_gradient_finite_difference(wave_small):
    mesh, model, m = wave_small
    y_obs = model.observe(m) * 0.9
    g = model.misfit_gradient(m, y_obs)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.standard_normal(mesh.n)
        v /= model.mspace.norm(v)
        fd = oracles.central_difference(lambda mm: model.misfit(mm, y_obs), m, v, 1e-5)
        an = model.mspace.inner(g, v)
        assert abs(fd - an) <= 1e-6 * abs(an)


def test_full_gradient_from_adjoint_sweep(wave_small):
    # the backward sweep is the exact transpose of the stepper, so only the
    # finite-difference truncation error remains
    mesh, model, m = wave_small
    y_obs = model.observe(m) * 0.9
    g = model.misfit_gradient(m, y_obs)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(mesh.n)
        v /= model.mspace.norm(v)
        fd = oracles.central_difference_5pt(
            lambda mm: model.misfit(mm, y_obs), m, v, 1e-4)
        an = model.mspace.inner(g, v)
        assert abs(fd - an) <= 1e-8 * abs(an)


def test_gn_hessian_symmetric_psd(wave_small):
    mesh, model, m = wave_small
    rng = np.random.default_rng(6)
    for _ in range(5):
        u, v = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
        hu = model.gauss_newton_hessian_action(m, u)
        hv = model.gauss_newton_hessian_action(m, v)
        lhs = model.mspace.inner(hu, v)
        rhs = model.mspace.inner(u, hv)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        assert model.mspace.inner(hu, u) >= -1e-12 * model.mspace.inner(u, u)


def test_forward_cache_keyed_on_parameter(wave_small):
    mesh, model, m = wave_small
    m_other = m + 0.02
    y1 = model.observe(m)
    y2 = model.observe(m_other)
    assert not np.array_equal(y1, y2)
    assert np.array_equal(model.observe(m), y1)
    # mutating the caller's array must not poison the cached solve or the
    # cached Jacobian
    m_ref = m + 0.01            # not the cached parameter: a fresh solve
    m_mut = m_ref.copy()
    y_ref = model.observe(m_mut)
    jac_ref = model.jacobian(m_mut).copy()
    dm = np.linspace(-1.0, 1.0, mesh.n)
    jv_ref = model.apply_jacobian(m_mut, dm)
    m_mut += 0.05
    assert not np.array_equal(model.jacobian(m_mut), jac_ref)
    assert not np.array_equal(model.observe(m_mut), y_ref)
    assert np.array_equal(model.observe(m_ref), y_ref)
    assert np.array_equal(model.jacobian(m_ref), jac_ref)
    assert np.array_equal(model.apply_jacobian(m_ref, dm), jv_ref)
    # nor may writing into the returned Jacobian
    with pytest.raises(ValueError):
        model.jacobian(m)[0, 0] = 1.0


def test_one_reverse_sweep_per_parameter(wave_small, monkeypatch):
    mesh, model, m = wave_small
    calls = []

    def counted(*args):
        calls.append(1)
        return _build_jacobian(*args)

    monkeypatch.setattr(wave1d, "_build_jacobian", counted)
    rng = np.random.default_rng(7)
    builds, solves = model.jacobian_builds, model.forward_solves
    for _ in range(4):
        model.apply_jacobian(m, rng.standard_normal(mesh.n))
        model.apply_jacobian_adjoint(m, rng.standard_normal(model.q))
        model.gauss_newton_hessian_action(m, rng.standard_normal(mesh.n))
    assert len(calls) == 1
    assert model.jacobian_builds == builds + 1
    assert model.forward_solves == solves + 1
    m_other = m + 0.01
    model.apply_jacobian_adjoint(m_other, rng.standard_normal(model.q))
    model.apply_jacobian(m_other, rng.standard_normal(mesh.n))
    assert len(calls) == 2
    assert model.jacobian_builds == builds + 2
    assert model.forward_solves == solves + 2
    # observing alone solves forward but builds no Jacobian
    model.observe(m)
    assert len(calls) == 2 and model.forward_solves == solves + 3


def test_jacobian_build_multiplies_c_contiguous_states(wave_small):
    # a sparse product copies a right operand that is not C-contiguous; one
    # copy per element block made the build O(n^3) under the CFL bound
    _, model, m = wave_small
    prop = model._prepare(m).propagator
    layouts = []

    class Rows:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, run):
            return Rows(self.rows[run])

        def __matmul__(self, states):
            layouts.append(states.flags.c_contiguous)
            return self.rows @ states

    prop.stage_dilatations = Rows(prop.stage_dilatations)
    model.jacobian(m)
    assert layouts and all(layouts)


def _stage_major_jacobian(prop, forward, rec_phi, weights):
    """J as built from stage-major maps, cut by one fancy index per element
    block and map, its stage products kept C-contiguous."""
    disc = prop.disc
    n, steps, n_rec = disc.n, disc.n_steps, rec_phi.shape[0]
    stage_major = np.arange(4 * n).reshape(n, 4).T.ravel()
    dilatations = prop.stage_dilatations[stage_major]
    adjoints = prop.stage_adjoints[np.arange(4 * (n - 1)).reshape(n - 1, 4).T.ravel()]
    impulse = wave1d._impulse_responses(prop, rec_phi)
    kernel = disc.gradient_kernel(prop.c)
    states = np.ascontiguousarray(np.vstack([forward.v[:-1].T, forward.e[:-1].T,
                                             disc.source_factors.T]))
    jac = np.zeros((n_rec, weights.shape[1], n))
    for l0 in range(0, n - 1, wave1d._ELEMENT_BLOCK):
        l1 = min(l0 + wave1d._ELEMENT_BLOCK, n - 1)
        nodes = (n * np.arange(4)[:, None] + np.arange(l0, l1 + 1)).ravel()
        elements = ((n - 1) * np.arange(4)[:, None] + np.arange(l0, l1)).ravel()
        stage_e = (dilatations[nodes] @ states).reshape(4, -1, steps)
        diffs = (adjoints[elements] @ impulse).reshape(4, l1 - l0, n_rec, steps)
        pairs = np.zeros((2, l1 - l0, n_rec, steps + 1), dtype=complex)
        for s in range(4):
            e = np.fft.rfft(stage_e[s], 2 * steps)[:, None]
            d = np.fft.rfft(diffs[s], 2 * steps)
            pairs[0] += e[:-1] * d
            pairs[1] += e[1:] * d
        nodal = np.zeros((l1 - l0 + 1, n_rec, steps + 1), dtype=complex)
        for a in range(2):
            nodal[a:l1 - l0 + a] += (kernel[l0:l1, a, 0, None, None] * pairs[0]
                                     + kernel[l0:l1, a, 1, None, None] * pairs[1])
        lags = np.fft.irfft(nodal, 2 * steps)[..., :steps]
        jac[:, :, l0:l1 + 1] += (lags.reshape(-1, steps) @ weights[1:]).reshape(
            l1 - l0 + 1, n_rec, -1).transpose(1, 2, 0)
    return jac.reshape(-1, n)


@pytest.mark.parametrize("n_el", [1, 16, 17, 50])
def test_element_blocks_match_per_block_slicing(n_el):
    # J read from runs of node-major rows is bitwise J read from stage-major
    # rows cut per element block: both multiply the same rows in the same
    # order, and scipy forms each row of a sparse product on its own
    model, c = _random_wave(n_el, 12, 1.0, 0.3, 0.4)
    prop = _Propagator(model.disc, c)
    args = (_forward_sweep(prop), model.obs_op.rec_phi, model.obs_op.step_weights)
    jac = _build_jacobian(prop, *args)
    assert jac.tobytes() == _stage_major_jacobian(prop, *args).tobytes()


@settings(max_examples=40, deadline=None)
@given(n_el=st.sampled_from([1, 15, 16, 17, 33, 50]) | st.integers(1, 50),
       steps=st.integers(1, 40), c0=st.floats(0.3, 3.0), wiggle=st.floats(0.0, 0.5),
       cfl_used=st.floats(0.05, 0.5),
       positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       layout=st.sampled_from(["spread", "on-steps", "per-step"]),
       count=st.integers(1, 8), fourier=st.sampled_from([None, 1, 2, 3]))
def test_stage_sums_match_per_stage_jacobian(n_el, steps, c0, wiggle, cfl_used, positions,
                                             layout, count, fourier):
    # summing the stages before the element kernel, and contracting the
    # lags by one matrix product, reorders the per-stage build's
    # arithmetic: J agrees with it to rounding, for raw samples spread over
    # the horizon, on every step and several per step, and for Fourier
    # observables
    model, c = _random_wave(n_el, steps, c0, wiggle, cfl_used)
    cfg, n_steps = model.config, model.disc.n_steps
    horizon = n_steps * cfg.dt
    if layout == "on-steps":
        times = cfg.dt * np.arange(1, n_steps + 1)
    elif layout == "per-step":
        times = np.linspace(horizon / (count * n_steps), horizon, count * n_steps)
    else:
        times = np.linspace(horizon / count, horizon, count)
    if fourier is not None:
        fourier = min(fourier, len(times) // 2 + 1)
    model = lb.WaveModel(cfg, lb.ObservationSetup(tuple(positions), tuple(times), 0.01,
                                                  fourier_truncation=fourier))
    jac = model.jacobian(c)
    lin = model._prepare(c)
    expected = oracles.per_stage_jacobian(lin.propagator, lin.history, model.obs_op.rec_phi,
                                          model.obs_op.step_weights)
    assert jac.shape == expected.shape == (model.q, model.n)
    assert np.linalg.norm(jac - expected) <= 1e-12 * np.linalg.norm(expected)


def test_propagator_and_jacobian_run_the_stepper_once(monkeypatch):
    # one RK4 run on the input maps gives the step, the stage dilatations
    # and the stage responses; the Jacobian build runs none
    calls = []

    def counted(*args, _step=wave1d._rk4_step):
        calls.append(1)
        return _step(*args)

    monkeypatch.setattr(wave1d, "_rk4_step", counted)
    model, c = _random_wave(20, 12, 1.0, 0.3, 0.4)
    prop = _Propagator(model.disc, c)
    _build_jacobian(prop, _forward_sweep(prop), model.obs_op.rec_phi,
                    model.obs_op.step_weights)
    assert len(calls) == 1


def test_forward_only_propagation_forms_no_stage_maps(wave_small):
    # the stage maps serve the Jacobian alone: a forward solve (the data
    # twin, a line-search trial) forms neither, the first build forms both
    # and drops the stepper's output that they are formed from
    _, model, m = wave_small
    maps, parts = {"stage_dilatations", "stage_adjoints"}, {"_dilatations", "_responses"}
    model.observe(m)
    prop = model._prepare(m).propagator
    assert not maps & vars(prop).keys()
    assert parts <= vars(prop).keys()
    model.jacobian(m)
    assert maps <= vars(prop).keys()
    assert not parts & vars(prop).keys()


def test_sweeps_make_no_sparse_product_per_step(monkeypatch):
    # the forward sweep and the impulse recursion step on the band: the
    # sparse products of a Jacobian build (two per element block) are as
    # many at 40 steps as at 20, and the sweep makes none; every sparse
    # class inherits its products from one base
    products = []
    for name in ("__matmul__", "__rmatmul__"):
        def counted(self, other, _product=getattr(_spbase, name)):
            products.append(name)
            return _product(self, other)

        monkeypatch.setattr(_spbase, name, counted)
    counts = []
    for steps in (20, 40):
        model, c = _random_wave(30, steps, 1.0, 0.2, 0.4)
        prop = _Propagator(model.disc, c)
        products.clear()
        history = _forward_sweep(prop)
        sweep = len(products)
        _build_jacobian(prop, history, model.obs_op.rec_phi, model.obs_op.step_weights)
        counts.append((sweep, len(products)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 0 and counts[0][1] > 0


def test_fourier_and_plain_observables_consistent():
    # the DFT map is a fixed linear transformation of the sampled series
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, dt=0.005, source=_source())
    times = tuple(np.linspace(0.05, 0.5, 20))
    plain = lb.WaveModel(cfg, lb.ObservationSetup((0.6,), times, 0.01))
    four = lb.WaveModel(cfg, lb.ObservationSetup((0.6,), times, 0.01,
                                                 fourier_truncation=4))
    m = np.ones(mesh.n)
    samples = plain.observe(m)
    coeffs = four.observe(m)
    s_count = len(times)
    assert np.isclose(coeffs[0], samples.mean())
    j = np.arange(s_count)
    assert np.isclose(coeffs[1], 2 / s_count * (samples * np.cos(2 * np.pi * j / s_count)).sum())
    assert np.isclose(coeffs[2], 2 / s_count * (samples * np.sin(2 * np.pi * j / s_count)).sum())


@pytest.mark.parametrize("fourier", [None, 4])
def test_observation_map_and_seeds_are_transposes(fourier):
    # y . extract(V) = sum_k <seeds(k)^T y, V[k]> for any history V, with
    # the seeds formed from the step weights; plain samples are the linear
    # interpolation of the receiver series in time
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, dt=0.005, source=_source())
    times = tuple(np.linspace(0.0123, 0.5, 20))
    model = lb.WaveModel(cfg, lb.ObservationSetup((0.3, 0.6), times, 0.01,
                                                  fourier_truncation=fourier))
    n_steps = model.disc.n_steps
    rng = np.random.default_rng(8)
    vhist = rng.standard_normal((n_steps + 1, mesh.n))
    y = rng.standard_normal(model.q)
    op = model.obs_op
    seeds = oracles.observation_seeds(op.rec_phi, op.step_weights)
    lhs = y @ op.extract(vhist)
    rhs = sum((seeds(k).T @ y) @ vhist[k] for k in range(n_steps + 1))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
    if fourier is None:
        steps = cfg.dt * np.arange(n_steps + 1)
        series = vhist @ op.rec_phi.T
        expected = np.concatenate([np.interp(times, steps, col) for col in series.T])
        assert np.allclose(op.extract(vhist), expected, rtol=0.0, atol=1e-13)


def _identity_step_weights(op):
    """Raw-sample step weights formed through the S x S identity, the
    Fourier path's formula with the identity for the series map."""
    times = np.asarray(op.setup.sample_times)
    idx = np.minimum((times / op.dt).astype(int), op.n_steps - 1)
    frac = times / op.dt - idx
    series = np.eye(len(times))
    weights = np.zeros((op.n_steps + 1, len(times)))
    np.add.at(weights, idx, (1.0 - frac)[:, None] * series)
    np.add.at(weights, idx + 1, frac[:, None] * series)
    return weights


@pytest.mark.parametrize("times", [
    np.linspace(0.0123, 0.5, 20),
    np.linspace(0.001, 0.5, 300),  # several per step
    0.005 * np.arange(1, 41),  # on the steps
    np.sort(np.random.default_rng(3).uniform(0.0, 0.5, 50)),
], ids=["sparse", "dense", "on-steps", "random"])
def test_raw_sample_weights_match_the_identity_formula(times):
    setup = lb.ObservationSetup((0.6,), tuple(times), 0.01)
    op = wave1d._ObservationOperator(setup, _mesh(20), 0.005)
    assert op.step_weights.tobytes() == _identity_step_weights(op).tobytes()


def test_raw_sample_weights_allocate_no_identity():
    # 4,000 raw samples: the S x S identity alone would take 128 MB
    setup = lb.ObservationSetup((0.6,), tuple(np.linspace(0.001, 1.0, 4000)), 0.01)
    op = wave1d._ObservationOperator(setup, _mesh(20), 0.0025)
    tracemalloc.start()
    try:
        weights = op.step_weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.shape == (401, 4000)
    assert peak < 4 * weights.nbytes
