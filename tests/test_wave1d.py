import re

import numpy as np
import pytest
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


def _model(cfg):
    obs = lb.ObservationSetup(receiver_positions=(0.6,),
                              sample_times=(cfg.final_time,), noise_sigma=0.01)
    return lb.WaveModel(cfg, obs)


# --- configuration validation -------------------------------------------------


def test_config_rejects_2d_mesh():
    mesh2 = lb.build_mesh(2, (2, 2), ((0, 1), (0, 1)))
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=mesh2, final_time=1.0, dt=0.01, source=_source())


def test_config_rejects_fractional_steps():
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.003, source=_source())


def test_config_rejects_large_cfl():
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.002, source=_source(),
                      cfl=0.8)


def test_config_rejects_source_outside_domain():
    with pytest.raises(ConfigError):
        lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.002,
                      source=_source(position=1.5))


def test_cfl_violation_at_solve():
    # an invalid parameter, like a nonpositive wavespeed, so that a MAP line
    # search backs off from it; the config parser maps it to a ConfigError
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.004, source=_source())
    with pytest.raises(InvalidParameterError, match="violates the stability bound"):
        _model(cfg).forward_history(2.0 * np.ones(cfg.mesh.n))


def test_nonpositive_wavespeed_rejected():
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.002, source=_source())
    c = np.ones(cfg.mesh.n)
    c[3] = 0.0
    with pytest.raises(InvalidParameterError):
        _model(cfg).forward_history(c)


# --- forward solves -------------------------------------------------------------


def test_zero_source_zero_history():
    cfg = lb.WaveConfig(mesh=_mesh(100), final_time=0.5, dt=0.005,
                        source=_source(amplitude=0.0))
    hist = _model(cfg).forward_history(np.ones(cfg.mesh.n))
    assert np.all(hist.v == 0.0)
    assert np.all(hist.e == 0.0)
    assert hist.v.shape == (cfg.n_steps + 1, cfg.mesh.n)


def test_history_starts_from_rest():
    cfg = lb.WaveConfig(mesh=_mesh(100), final_time=0.5, dt=0.005, source=_source())
    hist = _model(cfg).forward_history(np.ones(cfg.mesh.n))
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


def _travel_delay(c0, dt, final_time):
    mesh = _mesh()
    src = _source()
    cfg = lb.WaveConfig(mesh=mesh, final_time=final_time, dt=dt, source=src)
    hist = _model(cfg).forward_history(c0 * np.ones(mesh.n))
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
    cfg = lb.WaveConfig(mesh=mesh, final_time=1.0, dt=0.002, source=src)
    c = np.ones(mesh.n)
    hist = _model(cfg).forward_history(c)
    energy = energy_history(cfg, c, hist)
    start = int((src.time_center + 6 * src.time_std) / cfg.dt) + 1
    window = energy[start:]
    assert window[0] > 0
    assert (window.max() - window.min()) / window[0] < 0.005


def test_instability_detected_without_cfl_guard():
    # the model refuses this dt up front; the sweep itself must still notice,
    # at the step where the stage-by-stage sweep does
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.02, source=_source())
    c = np.ones(cfg.mesh.n)
    disc = _model(cfg).disc
    with pytest.raises(StabilityError) as expected:
        oracles.forward_sweep(disc, disc.rate(c),
                              lambda k: oracles.source_stages(disc, k))
    with pytest.raises(StabilityError, match=re.escape(str(expected.value))):
        _forward_sweep(_Propagator(disc, c))


def test_reverse_instability_detected_without_cfl_guard():
    # the impulse response runs the same unstable step map backward; the
    # stage-by-stage sweep seeded with one impulse at the last step fails at
    # the same step
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.02, source=_source())
    n = cfg.mesh.n
    c = np.ones(n)
    model = _model(cfg)
    disc, op = model.disc, model.obs_op
    rest = lb.StateHistory(v=np.zeros((cfg.n_steps + 1, n)), e=np.zeros((cfg.n_steps + 1, n)))

    def impulse(k):
        return op.rec_phi if k == cfg.n_steps else np.zeros_like(op.rec_phi)

    with pytest.raises(StabilityError) as expected:
        oracles.reverse_sweep(disc, c, disc.rate(c), impulse, rest)
    with pytest.raises(StabilityError, match=re.escape(str(expected.value))):
        _build_jacobian(_Propagator(disc, c), rest, op.rec_phi, op.step_weights)


# --- linearized and adjoint solves ----------------------------------------------


def test_zero_drivers_zero_solutions():
    cfg = lb.WaveConfig(mesh=_mesh(100), final_time=0.5, dt=0.005, source=_source())
    model = _model(cfg)
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
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005, source=_source())
    model = _model(cfg)
    c = 1.0 + 0.05 * np.sin(3 * np.pi * mesh.node_coords[:, 0])
    fwd = model.forward_history(c)
    prop = _Propagator(model.disc, c)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dc = rng.standard_normal(mesh.n)
        rec_phi = rng.standard_normal((3, mesh.n))
        weights = rng.standard_normal((cfg.n_steps + 1, 2))
        seeds = oracles.observation_seeds(rec_phi, weights)
        inc = oracles.wave_incremental_sweep(model, c, dc)
        grad = _build_jacobian(prop, fwd, rec_phi, weights)
        for j in range(grad.shape[0]):
            lhs = float(sum(seeds(k)[j] @ inc.v[k] for k in range(cfg.n_steps + 1)))
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
    cfg = lb.WaveConfig(mesh=mesh, final_time=40 * dt, dt=dt,
                        source=_source(position=0.3, width=0.1,
                                       time_center=10 * dt, time_std=4 * dt))
    obs = lb.ObservationSetup(receiver_positions=(0.7,),
                              sample_times=tuple(np.linspace(10 * dt, 40 * dt, q)),
                              noise_sigma=0.01)
    model = lb.WaveModel(cfg, obs)
    fwd = model.forward_history(c)
    prop = _Propagator(model.disc, c)
    rng = np.random.default_rng(seed)
    rec_phi = rng.standard_normal((q, mesh.n))
    weights = rng.standard_normal((cfg.n_steps + 1, 2))
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
    cfg = lb.WaveConfig(mesh=mesh, final_time=steps * dt, dt=dt,
                        source=_source(position=0.3, width=0.1,
                                       time_center=5 * dt, time_std=3 * dt))
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
    assert np.array_equal(prop.step.toarray(), step)
    assert np.array_equal(prop.step_transpose.toarray(), step[:, :2 * n].T)
    dilatations = np.vstack([s[n:] for s in stages])
    assert np.array_equal(prop.stage_dilatations.toarray(), dilatations)
    # the step's response to a unit velocity rate at one node and stage,
    # node by node; the adjoint stage velocities are its transposes, and the
    # sweep takes their element differences
    unit_rates = np.zeros((4, 2 * n, 4 * n))
    for s in range(4):
        unit_rates[s, :n, s * n:(s + 1) * n] = np.eye(n)
    response, _ = wave1d._rk4_step(rate, disc.dt, np.zeros((2 * n, 4 * n)), unit_rates)
    for s in range(4):
        assembled = prop.stage_adjoints[s * (n - 1):(s + 1) * (n - 1)].toarray()
        expected = np.diff(disc.inv_mrho[:, None] * response[:, s * n:(s + 1) * n].T, axis=0)
        assert np.abs(assembled - expected).max() <= 1e-15 * np.abs(expected).max()


@settings(max_examples=25, deadline=None)
@given(n_el=st.integers(2, 30), c0=st.floats(0.3, 3.0), wiggle=st.floats(0.0, 0.5),
       rho0=st.floats(0.3, 3.0), rho_wiggle=st.floats(0.0, 0.5))
def test_rate_matches_dense_element_assembly(n_el, c0, wiggle, rho0, rho_wiggle):
    # the sparse rate matrix against one assembled element by element, row
    # by row relative to the row's largest entry; the pinned dilatation rows
    # are zero
    mesh = _mesh(n_el)
    x = mesh.node_coords[:, 0]
    c = c0 * (1.0 + wiggle * np.sin(2 * np.pi * x))
    rho = rho0 * (1.0 + rho_wiggle * np.cos(3 * np.pi * x))
    cfg = lb.WaveConfig(mesh=mesh, final_time=1.0, dt=0.5, source=_source(), rho=rho)
    rate = _model(cfg).disc.rate(c).toarray()
    dense = oracles.wave_rate_dense(mesh, rho, c)
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
    times = np.linspace(cfg.final_time / count, cfg.final_time, count)
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


def test_observe_zero_source_zero_data():
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005,
                        source=_source(amplitude=0.0))
    obs = lb.ObservationSetup(receiver_positions=(0.6,),
                              sample_times=(0.1, 0.2, 0.4), noise_sigma=0.01)
    model = lb.WaveModel(cfg, obs)
    assert np.all(model.observe(np.ones(mesh.n)) == 0.0)


def test_receiver_and_sample_time_validation():
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005, source=_source())
    with pytest.raises(ConfigError):
        lb.WaveModel(cfg, lb.ObservationSetup(receiver_positions=(0.6,),
                                              sample_times=(0.1, 0.8),
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


def test_fourier_and_plain_observables_consistent():
    # the DFT map is a fixed linear transformation of the sampled series
    mesh = _mesh(100)
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005, source=_source())
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
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005, source=_source())
    times = tuple(np.linspace(0.0123, 0.5, 20))
    model = lb.WaveModel(cfg, lb.ObservationSetup((0.3, 0.6), times, 0.01,
                                                  fourier_truncation=fourier))
    rng = np.random.default_rng(8)
    vhist = rng.standard_normal((cfg.n_steps + 1, mesh.n))
    y = rng.standard_normal(model.q)
    op = model.obs_op
    seeds = oracles.observation_seeds(op.rec_phi, op.step_weights)
    lhs = y @ op.extract(vhist)
    rhs = sum((seeds(k).T @ y) @ vhist[k] for k in range(cfg.n_steps + 1))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
    if fourier is None:
        steps = cfg.dt * np.arange(cfg.n_steps + 1)
        series = vhist @ op.rec_phi.T
        expected = np.concatenate([np.interp(times, steps, col) for col in series.T])
        assert np.allclose(op.extract(vhist), expected, rtol=0.0, atol=1e-13)
