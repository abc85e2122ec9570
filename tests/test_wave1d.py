import numpy as np
import pytest

import linbayes as lb
from linbayes.errors import ConfigError, InvalidParameterError, StabilityError
from linbayes.models.wave1d import (_forward_sweep, _incremental_sweep,
                                    _reverse_sweep, energy_history)

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
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.004, source=_source())
    with pytest.raises(ConfigError):
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
    # the model refuses this dt up front; the sweep itself must still notice
    cfg = lb.WaveConfig(mesh=_mesh(), final_time=1.0, dt=0.02, source=_source())
    disc = _model(cfg).disc
    coupling = disc.wavespeed_coupling(np.ones(cfg.mesh.n))
    with pytest.raises(StabilityError):
        _forward_sweep(disc, coupling, disc.source_stages)


# --- linearized and adjoint solves ----------------------------------------------


def test_zero_drivers_zero_solutions():
    cfg = lb.WaveConfig(mesh=_mesh(100), final_time=0.5, dt=0.005, source=_source())
    model = _model(cfg)
    c = np.ones(cfg.mesh.n)
    fwd = model.forward_history(c)
    coupling = model.disc.wavespeed_coupling(c)
    inc = _incremental_sweep(model.disc, c, coupling, np.zeros(cfg.mesh.n), fwd)
    assert np.all(inc.v == 0.0) and np.all(inc.e == 0.0)
    grad = _reverse_sweep(model.disc, c, coupling,
                          np.zeros((cfg.n_steps + 1, cfg.mesh.n)), fwd)
    assert np.all(grad == 0.0)


def test_incremental_solver_duality():
    # <seeds, incremental sweep(dc)> = <dc, reverse sweep(seeds)> directly
    # at the sweep level, with no observation operator involved
    mesh = _mesh(80)
    cfg = lb.WaveConfig(mesh=mesh, final_time=0.5, dt=0.005, source=_source())
    model = _model(cfg)
    c = 1.0 + 0.05 * np.sin(3 * np.pi * mesh.node_coords[:, 0])
    fwd = model.forward_history(c)
    coupling = model.disc.wavespeed_coupling(c)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dc = rng.standard_normal(mesh.n)
        seeds = rng.standard_normal((cfg.n_steps + 1, mesh.n))
        inc = _incremental_sweep(model.disc, c, coupling, dc, fwd)
        grad = _reverse_sweep(model.disc, c, coupling, seeds, fwd)
        lhs = float(np.sum(seeds * inc.v))
        rhs = float(dc @ grad)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


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
    # mutating the caller's array must not poison the cached solve
    m_mut = m.copy()
    y_ref = model.observe(m_mut)
    m_mut += 0.05
    assert np.array_equal(model.observe(m), y_ref)
    assert not np.array_equal(model.observe(m_mut), y_ref)


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
