"""1D first-order acoustic wave propagation with exact discrete adjoints.

State variables are the velocity v and the dilatation e on the same linear
finite-element mesh as the parameter (the wavespeed c), with lumped mass
matrices and classical four-stage Runge-Kutta time stepping:

    lumped(rho)   dv/dt = -C(c) e + g(t),    C(c)_ij = int rho c^2 phi_i' phi_j dx
    lumped(1)     de/dt =  D v,              D_ij    = int phi_i phi_j' dx

with e pinned to zero at both interval endpoints and zero initial conditions.
The wavespeed enters only through C(c).

``WaveModel`` is the one entry point.  It meets the forward-model contract
with ``observe`` and ``jacobian``; the base class derives J.v, the adjoint
and the Gauss-Newton Hessian from the Jacobian matrix.  One Runge-Kutta step
(``_rk4_step``) drives one forward loop (``_forward_sweep``), which gives the
state history.  One reverse loop (``_reverse_sweep``), the exact transpose of
the linearized stepper (reverse-mode differentiation through the Runge-Kutta
stages, not a discretization of the continuous adjoint equations), runs
backward for a block of seed columns at once and returns one wavespeed
gradient per column.  Seeded with the q unit data vectors it gives the q x n
Jacobian, built once per parameter and cached with the forward solve, so
every later J.v and J^T.y is a small matrix product with no PDE solve.
Gradient and adjoint identities hold to solver precision, so
finite-difference checks pass at tight tolerances.  The sweep pairs adjoint
stage values against forward stage dilatations recomputed once per step from
the cached forward history, for all columns together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, InvalidParameterError, StabilityError
from ..fem import _DSHAPE_1D, _GAUSS_WTS, MassSpace, Mesh, _quad_points_1d, assemble_mass
from .base import ForwardModel, ObservationSetup

_BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SourceSpec:
    """Smoothed point source: spatial Gaussian bump times a temporal Gaussian."""

    position: float
    width: float
    time_center: float
    time_std: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.width <= 0 or self.time_std <= 0:
            raise ValueError("source width and time_std must be positive")

    def time_factor(self, t: float) -> float:
        return float(np.exp(-0.5 * ((t - self.time_center) / self.time_std) ** 2))


@dataclass(frozen=True)
class WaveConfig:
    mesh: Mesh
    final_time: float
    dt: float
    source: SourceSpec
    rho: object = 1.0          # scalar or nodal array
    cfl: float = 0.5

    def __post_init__(self):
        if self.mesh.dim != 1:
            raise ConfigError("the wave model runs on 1D meshes only")
        if self.final_time <= 0 or self.dt <= 0:
            raise ConfigError("final_time and dt must be positive")
        steps = self.final_time / self.dt
        if abs(steps - round(steps)) > 1e-8 * max(steps, 1.0):
            raise ConfigError(
                f"final_time/dt = {steps} must be an integer number of steps")
        if not 0.0 < self.cfl <= 0.5:
            raise ConfigError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        lo, hi = self.mesh.domain_bounds[0]
        if not lo <= self.source.position <= hi:
            raise ConfigError(
                f"source position {self.source.position} outside the domain")
        rho = np.broadcast_to(np.asarray(self.rho, dtype=float), (self.mesh.n,))
        if np.any(rho <= 0):
            raise ConfigError("density must be strictly positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.final_time / self.dt))

    def nodal_rho(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.rho, dtype=float), (self.mesh.n,)).copy()


@dataclass
class StateHistory:
    """Per-step nodal fields of a forward-direction sweep.

    ``v`` holds the velocity-like variable, ``e`` the dilatation-like one;
    row k is the state at time k*dt, row 0 the rest state.
    """

    v: np.ndarray   # (steps+1, n)
    e: np.ndarray   # (steps+1, n)


class _TriBand:
    """Tridiagonal matrix as three length-n bands, with fast slice matvecs.

    ``sub[i] = A[i, i-1]``, ``diag[i] = A[i, i]``, ``sup[i] = A[i, i+1]``.
    Every operator of the semi-discrete system is tridiagonal on the uniform
    1D mesh, and slice arithmetic beats sparse-matrix dispatch by an order of
    magnitude at these sizes.  ``apply_transpose`` also takes a block with
    one column per row (nodes on the last axis), through its flat view with
    the bands tiled once per block size: ``sub[0]`` and ``sup[-1]`` are zero,
    so neighbouring columns never couple, and the contiguous slices run
    about twice as fast as strided ones.
    """

    __slots__ = ("sub", "diag", "sup", "_tiled")

    def __init__(self, sub, diag, sup):
        self.sub = sub
        self.diag = diag
        self.sup = sup
        self._tiled = {}

    def _flat(self, size) -> "_TriBand":
        """This matrix repeated along the diagonal to act on a flat block."""
        if size not in self._tiled:
            reps = size // self.diag.size
            self._tiled[size] = _TriBand(*(np.tile(b, reps)
                                           for b in (self.sub, self.diag, self.sup)))
        return self._tiled[size]

    def apply(self, x):
        out = self.diag * x
        out[1:] += self.sub[1:] * x[:-1]
        out[:-1] += self.sup[:-1] * x[1:]
        return out

    def apply_transpose(self, x):
        if x.ndim > 1:
            return self._flat(x.size).apply_transpose(x.reshape(-1)).reshape(x.shape)
        out = self.diag * x
        out[1:] += self.sup[:-1] * x[:-1]
        out[:-1] += self.sub[1:] * x[1:]
        return out


def _assemble_triband(n, local):
    """Scatter per-element 2x2 local matrices (ne, 2, 2) into bands; element
    l couples nodes l and l+1 on a uniform mesh."""
    sub = np.zeros(n)
    diag = np.zeros(n)
    sup = np.zeros(n)
    diag[:-1] += local[:, 0, 0]
    diag[1:] += local[:, 1, 1]
    sup[:-1] = local[:, 0, 1]
    sub[1:] = local[:, 1, 0]
    return _TriBand(sub, diag, sup)


class _Discretization:
    """Quadrature tables and fixed operators of the semi-discrete system."""

    def __init__(self, config: WaveConfig):
        mesh = config.mesh
        self.n = mesh.n
        self.n_steps = config.n_steps
        self.dt = config.dt
        self.conn = mesh.elements
        xq, phi, h = _quad_points_1d(mesh)
        self.h = h
        self.phi = phi                      # (nq, 2) shape values
        self.wj = _GAUSS_WTS * h / 2.0      # quadrature weights * jacobian
        self.dphi = _DSHAPE_1D * 2.0 / h    # physical derivatives, constant

        rho = config.nodal_rho()
        self.rho_q = self.at_quadrature(rho)

        lumped_rho = np.asarray(assemble_mass(mesh, coeff=rho).sum(axis=1)).ravel()
        lumped_plain = np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()
        self.inv_mrho = 1.0 / lumped_rho
        self.neg_inv_mrho = -self.inv_mrho
        self.inv_me = np.zeros(self.n)
        self.inv_me[1:-1] = 1.0 / lumped_plain[1:-1]  # dilatation pinned at ends

        # D_ij = int phi_i phi_j' dx
        local = np.einsum("q,qa,b->ab", self.wj, phi, self.dphi)
        self.grad_pairing = _assemble_triband(
            self.n, np.broadcast_to(local, (self.conn.shape[0], 2, 2)))

        src = config.source
        bump = src.amplitude * np.exp(-0.5 * ((xq - src.position) / src.width) ** 2)
        load = np.zeros(self.n)
        np.add.at(load, self.conn.ravel(), ((self.wj[None, :] * bump) @ phi).ravel())
        self.source_v = self.inv_mrho * load
        self.time_factor = src.time_factor

    def source_stages(self, k):
        """The source term of the velocity rate at the four stages of step k."""
        t = k * self.dt
        mid = self.time_factor(t + 0.5 * self.dt) * self.source_v
        return (self.time_factor(t) * self.source_v, mid, mid,
                self.time_factor(t + self.dt) * self.source_v)

    def at_quadrature(self, f):
        """Values of the nodal field ``f`` at the quadrature points, (ne, nq);
        a stack of fields (nodes on the last axis) gives a stack of tables."""
        return np.asarray(f, float)[..., self.conn] @ self.phi.T

    def wavespeed_coupling(self, c) -> _TriBand:
        """``C(c)_ij = int rho c^2 phi_i' phi_j dx``."""
        coeff = self.rho_q * self.at_quadrature(c)**2
        local = np.einsum("q,eq,a,qb->eab", self.wj, coeff, self.dphi, self.phi)
        return _assemble_triband(self.n, local)

    def rate(self, coupling, v, e):
        dv = self.neg_inv_mrho * coupling.apply(e)
        de = self.inv_me * self.grad_pairing.apply(v)
        return dv, de

    def rate_transpose(self, coupling, av, pe):
        """Transpose of ``rate`` applied to (pv, pe), given ``av = inv(M_rho) pv``."""
        out_v = self.grad_pairing.apply_transpose(self.inv_me * pe)
        out_e = -coupling.apply_transpose(av)
        out_e[..., 0] = 0.0
        out_e[..., -1] = 0.0
        return out_v, out_e

    def gradient_factors(self, weight, stage_e):
        """Per-element factors ``B[s] = (weight * e_s at quadrature) @ phi`` of
        the four stage dilatations, (4, ne, 2); ``weight`` holds
        ``-2/h * w rho c`` at the quadrature points."""
        return (weight * self.at_quadrature(np.stack(stage_e))) @ self.phi

    @staticmethod
    def accumulate_wavespeed_gradient(factor, av, out):
        """``out_k -= int 2 rho c phi_k av' e dx`` for every row of ``av``,
        with ``factor`` the (ne, 2) gradient factor of the stage dilatation e;
        element l couples nodes l and l+1, where ``av'`` is constant."""
        diff = av[..., 1:] - av[..., :-1]
        out[..., :-1] += factor[:, 0] * diff
        out[..., 1:] += factor[:, 1] * diff


def _validate_wavespeed(config: WaveConfig, c):
    c = np.asarray(c, dtype=float)
    if c.shape != (config.mesh.n,):
        raise ValueError(f"wavespeed has shape {c.shape}, expected ({config.mesh.n},)")
    if np.any(c <= 0):
        raise InvalidParameterError("wavespeed must be strictly positive at all nodes")
    h = config.mesh.spacings[0]
    limit = config.cfl * h / float(np.max(c))
    if config.dt > limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {config.dt} violates the stability bound {limit:.3e} "
            f"(cfl = {config.cfl}, h = {h}, max c = {float(np.max(c))})")
    return c


def _rk4_step(disc, coupling, v, e, dt, stage_sources):
    """One classical Runge-Kutta step, adding ``stage_sources[i]`` to the
    velocity rate at stage i.  Returns the new state and the dilatations of
    the four stage states."""
    k1v, k1e = disc.rate(coupling, v, e)
    k1v = k1v + stage_sources[0]
    s2v, s2e = v + 0.5 * dt * k1v, e + 0.5 * dt * k1e
    k2v, k2e = disc.rate(coupling, s2v, s2e)
    k2v = k2v + stage_sources[1]
    s3v, s3e = v + 0.5 * dt * k2v, e + 0.5 * dt * k2e
    k3v, k3e = disc.rate(coupling, s3v, s3e)
    k3v = k3v + stage_sources[2]
    s4v, s4e = v + dt * k3v, e + dt * k3e
    k4v, k4e = disc.rate(coupling, s4v, s4e)
    k4v = k4v + stage_sources[3]
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    e_new = e + dt / 6.0 * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
    return v_new, e_new, (e, s2e, s3e, s4e)


def _check_blowup(v, e, driver_cum):
    """Raise when a column's field norm outgrows its integrated driver; the
    last axis runs over nodes, ``driver_cum`` holds one value per column."""
    norm = np.maximum(np.abs(v).max(axis=-1), np.abs(e).max(axis=-1))
    bad = (norm > _BLOWUP_FACTOR * driver_cum) & (driver_cum > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise StabilityError(
            f"field norm {np.atleast_1d(norm)[j]:.3e} exceeds {_BLOWUP_FACTOR:.0e} "
            f"times the integrated driver magnitude {np.atleast_1d(driver_cum)[j]:.3e}")


def _forward_sweep(disc, coupling, stage_sources) -> StateHistory:
    """March the stepper from rest; ``stage_sources(k)`` gives the four
    velocity-rate sources of step k (the state sweep passes
    ``disc.source_stages``)."""
    steps, dt = disc.n_steps, disc.dt
    vs = np.zeros((steps + 1, disc.n))
    es = np.zeros((steps + 1, disc.n))
    v = np.zeros(disc.n)
    e = np.zeros(disc.n)
    driver_cum = 0.0
    for k in range(steps):
        sources = stage_sources(k)
        v, e, _ = _rk4_step(disc, coupling, v, e, dt, sources)
        vs[k + 1] = v
        es[k + 1] = e
        driver_cum += dt * float(np.max(np.abs(sources[0])))
        _check_blowup(v, e, driver_cum)
    return StateHistory(v=vs, e=es)


def _reverse_sweep(disc, c, coupling, seeds, forward) -> np.ndarray:
    """Exact transpose of the stepper linearized in the wavespeed, run
    backward for a block of seed columns.  ``seeds(k)`` gives the velocity
    seeds of step k as a (q, n) array, one row per column.  Returns the
    (q, n) Euclidean wavespeed gradients, one row per column (pair them with
    M^-1 for the weighted ones); seeded with the unit data vectors, that is
    the Jacobian."""
    steps, dt = disc.n_steps, disc.dt
    lam_v = np.asarray(seeds(steps), dtype=float)
    lam_e = np.zeros_like(lam_v)
    grad = np.zeros_like(lam_v)
    driver_cum = np.max(np.abs(lam_v), axis=-1, initial=0.0)
    weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    # stage-state carries: s2 = u + dt/2 k1, s3 = u + dt/2 k2, s4 = u + dt k3
    carries = (0.5 * dt, 0.5 * dt, dt)
    grad_weight = (-2.0 / disc.h) * disc.wj * disc.rho_q * disc.at_quadrature(c)
    for k in range(steps - 1, -1, -1):
        # forward stage dilatations of step k, once for all columns
        stage_e = _rk4_step(disc, coupling, forward.v[k], forward.e[k], dt,
                            disc.source_stages(k))[2]
        factors = disc.gradient_factors(grad_weight, stage_e)
        kb = [(w * lam_v, w * lam_e) for w in weights]
        ub_v = lam_v
        ub_e = lam_e
        for stage in (3, 2, 1, 0):
            kb_v, kb_e = kb[stage]
            av = disc.inv_mrho * kb_v
            sb_v, sb_e = disc.rate_transpose(coupling, av, kb_e)
            disc.accumulate_wavespeed_gradient(factors[stage], av, grad)
            ub_v = ub_v + sb_v
            ub_e = ub_e + sb_e
            if stage > 0:
                pv, pe = kb[stage - 1]
                kb[stage - 1] = (pv + carries[stage - 1] * sb_v,
                                 pe + carries[stage - 1] * sb_e)
        seed = seeds(k)
        lam_v = ub_v + seed
        lam_e = ub_e
        driver_cum = driver_cum + np.max(np.abs(seed), axis=-1, initial=0.0)
        _check_blowup(lam_v, lam_e, driver_cum)
    return grad


def energy_history(config: WaveConfig, wavespeed, history: StateHistory) -> np.ndarray:
    """Discrete energy ``1/2 int rho v^2 + rho c^2 e^2 dx`` per stored step."""
    c = np.asarray(wavespeed, dtype=float)
    mesh = config.mesh
    rho = config.nodal_rho()
    lumped_rho = np.asarray(assemble_mass(mesh, coeff=rho).sum(axis=1)).ravel()
    lumped_rc2 = np.asarray(assemble_mass(mesh, coeff=rho * c**2).sum(axis=1)).ravel()
    return 0.5 * (history.v**2 @ lumped_rho + history.e**2 @ lumped_rc2)


def _check_observation(config: WaveConfig, observation: ObservationSetup):
    """Raise ConfigError unless every receiver lies in the mesh and no sample
    time falls after the last step."""
    for p in observation.receiver_positions:
        if not config.mesh.contains(np.atleast_1d(p)):
            raise ConfigError(f"receiver {p} lies outside the domain")
    horizon = config.n_steps * config.dt
    last = observation.sample_times[-1]
    if last > horizon * (1.0 + 1e-12):
        raise ConfigError(f"sample time {last} exceeds the final time {horizon}")


class _ObservationOperator:
    """Linear map from a velocity history to the observation vector.

    Its transpose seeds the reverse sweep: data column j, observable p of
    receiver r, enters step k as the velocity seed ``w[k, p] * rec_phi[r]``,
    with ``w`` the step weights of the time interpolation and the Fourier
    map, the same for every receiver.
    """

    def __init__(self, setup: ObservationSetup, mesh: Mesh, n_steps: int, dt: float):
        positions = [np.atleast_1d(p) for p in setup.receiver_positions]
        self.rec_phi = np.stack([mesh.basis_eval(p) for p in positions])  # (R, n)
        times = np.asarray(setup.sample_times, dtype=float)
        idx = np.minimum((times / dt).astype(int), n_steps - 1)
        self.idx = idx
        self.frac = times / dt - idx
        self.n_steps = n_steps
        if setup.fourier_truncation is None:
            self.dft = None
        else:
            s_count = len(times)
            k = setup.fourier_truncation
            s = np.arange(s_count)
            rows = [np.full(s_count, 1.0 / s_count)]
            for j in range(1, k):
                ang = 2.0 * np.pi * j * s / s_count
                rows.append(2.0 / s_count * np.cos(ang))
                rows.append(2.0 / s_count * np.sin(ang))
            self.dft = np.stack(rows)  # (2k-1, S)

    def extract(self, vhist) -> np.ndarray:
        seis = vhist @ self.rec_phi.T                       # (steps+1, R)
        samp = ((1.0 - self.frac)[:, None] * seis[self.idx]
                + self.frac[:, None] * seis[self.idx + 1])  # (S, R)
        per = samp.T if self.dft is None else (self.dft @ samp).T  # (R, per)
        return per.ravel()

    @cached_property
    def step_weights(self) -> np.ndarray:
        """The (steps+1, per) weight of each per-receiver observable at each
        step: the transposed time interpolation and Fourier map.  Formed on
        the first Jacobian build, so constructing a model does not pay for
        it."""
        series = np.eye(len(self.idx)) if self.dft is None else self.dft.T  # (S, per)
        weights = np.zeros((self.n_steps + 1, series.shape[1]))
        np.add.at(weights, self.idx, (1.0 - self.frac)[:, None] * series)
        np.add.at(weights, self.idx + 1, self.frac[:, None] * series)
        return weights

    def seeds(self, k) -> np.ndarray:
        """Velocity seeds of step k for the q unit data vectors, (q, n):
        observable p of receiver r seeds that receiver's basis row."""
        block = self.step_weights[k][None, :, None] * self.rec_phi[:, None, :]
        return block.reshape(-1, self.rec_phi.shape[1])


@dataclass
class _Linearization:
    """The forward solve at one parameter and, once asked for, the Jacobian."""

    m: np.ndarray
    coupling: _TriBand
    history: StateHistory
    jacobian: np.ndarray | None = None


class WaveModel(ForwardModel):
    """Wave propagator behind the forward-model contract.

    The parameter is the nodal wavespeed itself.  The model caches the
    forward solve at the most recent parameter, and the Jacobian there once
    it is asked for, so every linearized action at a fixed point (as in
    inner CG loops) reuses one propagation and one reverse sweep.
    ``forward_solves`` and ``jacobian_builds`` count both.
    """

    def __init__(self, config: WaveConfig, observation: ObservationSetup,
                 mspace: MassSpace = None):
        self.config = config
        self.disc = _Discretization(config)
        self.mspace = mspace if mspace is not None else MassSpace(assemble_mass(config.mesh))
        if self.mspace.n != config.mesh.n:
            raise ValueError("mass space does not match the wave mesh")
        self.observation = observation
        _check_observation(config, observation)
        self.obs_op = _ObservationOperator(observation, config.mesh,
                                           config.n_steps, config.dt)
        self.noise_sigma = observation.noise_sigma
        self._cache = None

    @property
    def n(self) -> int:
        return self.config.mesh.n

    @property
    def q(self) -> int:
        return self.observation.q

    def _prepare(self, m) -> _Linearization:
        m = np.asarray(m, dtype=float)
        if self._cache is not None and np.array_equal(self._cache.m, m):
            return self._cache
        c = _validate_wavespeed(self.config, m)
        coupling = self.disc.wavespeed_coupling(c)
        history = _forward_sweep(self.disc, coupling, self.disc.source_stages)
        self.forward_solves += 1
        self._cache = _Linearization(m.copy(), coupling, history)
        return self._cache

    def forward_history(self, m) -> StateHistory:
        return self._prepare(m).history

    def observe(self, m) -> np.ndarray:
        return self.obs_op.extract(self._prepare(m).history.v)

    def receiver_series(self, m) -> np.ndarray:
        """Velocity seismograms at the receivers, one column each, every step."""
        return self._prepare(m).history.v @ self.obs_op.rec_phi.T

    def jacobian(self, m) -> np.ndarray:
        """The q x n Jacobian at m, by one reverse sweep seeded with the q
        unit data vectors; read-only, cached with the forward solve."""
        lin = self._prepare(m)
        if lin.jacobian is None:
            jac = _reverse_sweep(self.disc, lin.m, lin.coupling, self.obs_op.seeds,
                                 lin.history)
            jac.flags.writeable = False
            lin.jacobian = jac
            self.jacobian_builds += 1
        return lin.jacobian
