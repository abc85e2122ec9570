"""1D first-order acoustic wave propagation with exact discrete adjoints.

State variables are the velocity v and the dilatation e on the same linear
finite-element mesh as the parameter (the wavespeed c), with lumped mass
matrices and classical four-stage Runge-Kutta time stepping:

    lumped(rho)   dv/dt = -C(c) e + g(t),    C(c)_ij = int rho c^2 phi_i' phi_j dx
    lumped(1)     de/dt =  D v,              D_ij    = int phi_i phi_j' dx

with e pinned to zero at both interval endpoints and zero initial conditions.
The wavespeed enters only through C(c), and the source g(t) is a fixed
spatial load times a time factor.

``WaveModel`` is the one entry point.  It meets the forward-model contract
with ``observe`` and ``jacobian``; the base class derives J.v, the adjoint
and the Gauss-Newton Hessian from the Jacobian matrix.

For a fixed wavespeed one Runge-Kutta step is a fixed linear map.  Append
the source's time factors at the four stages, f_k, to the state
x_k = (v_k, e_k); then x_{k+1} = S (x_k, f_k) with S a sparse 2n x (2n+4)
matrix, and each stage dilatation of the step is another sparse map of
(x_k, f_k).  The adjoint stage velocities are linear maps of the adjoint
state after the step: the transposes of the step's responses to a velocity
rate added at each stage.  ``_Propagator`` assembles all of these once per
wavespeed from the one copy of the stage arithmetic (``_rk4_step``).  A step
couples nodes at most four apart, so 9 colored probes per input component
recover every entry exactly (Curtis, Powell & Reid 1974) in O(n) memory.

The forward sweep (``_forward_sweep``) is then one sparse matvec per step.
The reverse sweep (``_reverse_sweep``) is the recursion
lambda_k = S^T lambda_{k+1} + seed_k for a block of seed columns at once,
the exact transpose of the stepper (reverse-mode differentiation, not a
discretization of the continuous adjoint equations).  It gathers lambda over
a fixed block of steps and contracts the block's adjoint stage velocities
against its forward stage dilatations in a few batched products, giving one
wavespeed gradient per column.  Seeded with the q unit data vectors it gives
the q x n Jacobian, built once per parameter and cached with the forward
solve, so every later J.v and J^T.y is a small matrix product with no PDE
solve.  Gradient and adjoint identities hold to solver precision, so
finite-difference checks pass at tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, InvalidParameterError, StabilityError
from ..fem import _DSHAPE_1D, _GAUSS_WTS, MassSpace, Mesh, _quad_points_1d, assemble_mass
from .base import ForwardModel, ObservationSetup

_BLOWUP_FACTOR = 1e6
# one Runge-Kutta step couples nodes at most this far apart (one per stage)
_REACH = 4
_COLORS = 2 * _REACH + 1
# steps per block of the reverse sweep's gradient contraction and of the
# blow-up checks
_BLOCK = 16


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

    def time_factor(self, t):
        """The temporal Gaussian at time(s) ``t``."""
        return np.exp(-0.5 * ((np.asarray(t) - self.time_center) / self.time_std) ** 2)


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
    """Tridiagonal matrix as three length-n bands, with slice matvecs.

    ``sub[i] = A[i, i-1]``, ``diag[i] = A[i, i]``, ``sup[i] = A[i, i+1]``.
    Every operator of the semi-discrete system is tridiagonal on the uniform
    1D mesh.  ``apply`` acts on the last axis, so it takes a block of rows
    (nodes on the last axis) as well as one vector.
    """

    __slots__ = ("sub", "diag", "sup")

    def __init__(self, sub, diag, sup):
        self.sub = sub
        self.diag = diag
        self.sup = sup

    def apply(self, x):
        out = self.diag * x
        out[..., 1:] += self.sub[1:] * x[..., :-1]
        out[..., :-1] += self.sup[:-1] * x[..., 1:]
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
        # the source's time factor at the four stages of every step, (steps, 4)
        t = np.arange(self.n_steps) * self.dt
        self.source_factors = src.time_factor(
            np.stack([t, t + 0.5 * self.dt, t + 0.5 * self.dt, t + self.dt], axis=1))

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

    def gradient_factors(self, weight, stage_e):
        """Per-element factors ``B = (weight * e at quadrature) @ phi`` of a
        stack of stage dilatations e (nodes on the last axis), (..., ne, 2);
        ``weight`` holds ``-2/h * w rho c`` at the quadrature points.  The
        wavespeed gradient of a stage pairs them with the element differences
        of its adjoint velocity: ``out_l += B[l, 0] diff_l`` and
        ``out_{l+1} += B[l, 1] diff_l``, element l coupling nodes l and l+1."""
        return (weight * self.at_quadrature(stage_e)) @ self.phi


def _validate_wavespeed(config: WaveConfig, c):
    c = np.asarray(c, dtype=float)
    if c.shape != (config.mesh.n,):
        raise ValueError(f"wavespeed has shape {c.shape}, expected ({config.mesh.n},)")
    if np.any(c <= 0):
        raise InvalidParameterError("wavespeed must be strictly positive at all nodes")
    h = config.mesh.spacings[0]
    limit = config.cfl * h / float(np.max(c))
    if config.dt > limit * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"dt = {config.dt} violates the stability bound {limit:.3e} "
            f"(cfl = {config.cfl}, h = {h}, max c = {float(np.max(c))})")
    return c


def _rk4_step(disc, coupling, v, e, dt, stage_sources):
    """One classical Runge-Kutta step, adding ``stage_sources[i]`` to the
    velocity rate at stage i.  Returns the new state and the dilatations of
    the four stage states.  Takes a block of rows (nodes on the last axis)
    as well as one state."""
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


def _colored_probes(n):
    """The (9, n) colored probe block: row c is one at the nodes j = c (mod 9).
    Two nodes of one row lie at least nine apart, so no output of a step
    sees both."""
    probes = np.zeros((_COLORS, n))
    probes[np.arange(n) % _COLORS, np.arange(n)] = 1.0
    return probes


def _from_probes(images, n, comps):
    """The sparse matrix A, (m, comps n + extra), whose probe images are
    ``images``, the rows of A applied to each probe.  The first ``9 comps``
    rows of ``images`` are the images of the colored probes of each
    n-node component of the input in turn, any further row the image of a
    unit probe of one extra (dense) column.  Output row r reads each column
    j within ``_REACH`` nodes of it from the probe of j's color, which no
    other column of that color reaches."""
    m = images.shape[1]
    node = np.arange(m) % n
    band = node[:, None] + np.arange(-_REACH, _REACH + 1)
    rows, offset = np.nonzero((band >= 0) & (band < n))
    cols = band[rows, offset]
    extra = images.shape[0] - _COLORS * comps
    all_rows = [rows] * comps + [np.tile(np.arange(m), extra)]
    all_cols = [cols + comp * n for comp in range(comps)]
    all_cols.append(np.repeat(comps * n + np.arange(extra), m))
    values = [images[_COLORS * comp + cols % _COLORS, rows] for comp in range(comps)]
    values.append(images[_COLORS * comps:].ravel())
    out = sp.csr_matrix((np.concatenate(values),
                         (np.concatenate(all_rows), np.concatenate(all_cols))),
                        shape=(m, comps * n + extra))
    out.eliminate_zeros()
    return out


class _Propagator:
    """One Runge-Kutta step at a fixed wavespeed as assembled sparse maps.

    With the source's time factors f_k at the four stages appended to the
    state x_k = (v_k, e_k), the step is ``x_{k+1} = step @ (x_k, f_k)``.
    The reverse sweep also needs ``step_transpose`` (S^T on the state), the
    four stage dilatations as maps of (x_k, f_k), stacked into
    ``stage_dilatations`` (4n x (2n+4)), and the element differences of the
    four adjoint stage velocities ``inv(M_rho) kbar_s`` as maps of the
    adjoint state after the step, ``stage_adjoints`` (four (n-1) x 2n).
    kbar_s = T_s^T lambda, with T_s the response of the step to a velocity
    rate added at stage s.  ``step`` is built with the propagator and the
    reverse-sweep maps on first use, all by ``_rk4_step`` on colored probe
    blocks.
    """

    def __init__(self, disc, c):
        self.disc = disc
        self.c = c
        self.coupling = disc.wavespeed_coupling(c)
        v, e, _ = self._state_images()
        self.step = _from_probes(np.hstack([v, e]), disc.n, 2)

    def _probe_step(self, state, sources):
        n = self.disc.n
        return _rk4_step(self.disc, self.coupling, state[:, :n], state[:, n:],
                         self.disc.dt, sources)

    def _state_images(self):
        """The step on the colored state probes at zero source, then on zero
        state with a unit source at each stage in turn."""
        n, rows = self.disc.n, 2 * _COLORS + 4
        state = np.zeros((rows, 2 * n))
        state[:_COLORS, :n] = state[_COLORS:2 * _COLORS, n:] = _colored_probes(n)
        sources = np.zeros((4, rows, n))
        for i in range(4):
            sources[i, 2 * _COLORS + i] = self.disc.source_v
        return self._probe_step(state, sources)

    @cached_property
    def step_transpose(self):
        return self.step[:, :2 * self.disc.n].T.tocsr()

    @cached_property
    def stage_dilatations(self):
        n = self.disc.n
        return sp.vstack([_from_probes(img, n, 2) for img in self._state_images()[2]],
                         format="csr")

    @cached_property
    def stage_adjoints(self):
        disc = self.disc
        n, probes = disc.n, _colored_probes(disc.n)
        sources = np.zeros((4, 4 * _COLORS, n))
        for s in range(4):
            sources[s, s * _COLORS:(s + 1) * _COLORS] = probes
        v, e, _ = self._probe_step(np.zeros((4 * _COLORS, 2 * n)), sources)
        images = np.hstack([v, e])
        # element differences of inv(M_rho) applied to a nodal field
        diff = sp.diags([-disc.inv_mrho[:-1], disc.inv_mrho[1:]], [0, 1], shape=(n - 1, n))
        return [(diff @ _from_probes(images[s * _COLORS:(s + 1) * _COLORS], n, 1).T).tocsr()
                for s in range(4)]


def _check_blowup(norm, driver_cum):
    """Raise at the first step at which a column's field norm outgrows its
    integrated driver.  ``norm`` and ``driver_cum`` hold one row per step,
    in sweep order, and one entry per column."""
    bad = (norm > _BLOWUP_FACTOR * driver_cum) & (driver_cum > 0.0)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise StabilityError(
            f"field norm {norm[first]:.3e} exceeds {_BLOWUP_FACTOR:.0e} "
            f"times the integrated driver magnitude {driver_cum[first]:.3e}")


def _forward_sweep(prop) -> StateHistory:
    """March the assembled stepper from rest under the source."""
    disc = prop.disc
    n, steps = disc.n, disc.n_steps
    states = np.zeros((steps + 1, 2 * n + 4))
    states[:-1, 2 * n:] = disc.source_factors
    driver_cum = np.cumsum(disc.dt * (disc.source_factors[:, 0]
                                      * np.max(np.abs(disc.source_v))))
    for k0 in range(0, steps, _BLOCK):
        k1 = min(k0 + _BLOCK, steps)
        for k in range(k0, k1):
            states[k + 1, :2 * n] = prop.step @ states[k]
        _check_blowup(np.abs(states[k0 + 1:k1 + 1, :2 * n]).max(axis=1), driver_cum[k0:k1])
    return StateHistory(v=states[:, :n], e=states[:, n:2 * n])


def _reverse_sweep(prop, seeds, forward) -> np.ndarray:
    """Exact transpose of the stepper linearized in the wavespeed, run
    backward for a block of seed columns.  ``seeds(k)`` gives the velocity
    seeds of step k as a (q, n) array, one row per column; ``forward`` is
    the state history at the propagator's wavespeed.  Returns the (q, n)
    Euclidean wavespeed gradients, one row per column (pair them with M^-1
    for the weighted ones); seeded with the unit data vectors, that is the
    Jacobian."""
    disc = prop.disc
    n, steps = disc.n, disc.n_steps
    seed = np.asarray(seeds(steps), dtype=float)
    q = seed.shape[0]
    lam = np.zeros((2 * n, q))
    lam[:n] = seed.T
    driver_cum = np.max(np.abs(seed), axis=-1, initial=0.0)
    block = np.empty((2 * n, _BLOCK, q))    # lambda_{k+1} of the block's steps k
    norm = np.empty((_BLOCK, q))
    driver = np.empty((_BLOCK, q))
    grad = np.zeros((n - 1, 2, q))          # per-element gradient halves
    weight = (-2.0 / disc.h) * disc.wj * disc.rho_q * disc.at_quadrature(prop.c)
    for k1 in range(steps, 0, -_BLOCK):
        k0 = max(k1 - _BLOCK, 0)
        size = k1 - k0
        for i, k in enumerate(range(k1 - 1, k0 - 1, -1)):
            block[:, k - k0] = lam
            seed = seeds(k)
            lam = prop.step_transpose @ lam
            lam[:n] += seed.T
            driver_cum = driver_cum + np.max(np.abs(seed), axis=-1, initial=0.0)
            norm[i] = np.abs(lam).max(axis=0)
            driver[i] = driver_cum
        _check_blowup(norm[:size], driver[:size])
        states = np.hstack([forward.v[k0:k1], forward.e[k0:k1], disc.source_factors[k0:k1]])
        stage_e = (prop.stage_dilatations @ states.T).reshape(4, n, size)
        factors = disc.gradient_factors(weight, stage_e.transpose(0, 2, 1))
        lam_block = block[:, :size].reshape(2 * n, size * q)
        for s in range(4):
            diff = (prop.stage_adjoints[s] @ lam_block).reshape(n - 1, size, q)
            grad += factors[s].transpose(1, 2, 0) @ diff
    out = np.zeros((q, n))
    out[:, :-1] += grad[:, 0].T
    out[:, 1:] += grad[:, 1].T
    return out


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
    """Linear map from a velocity history V to the observation vector: the
    rows of ``W^T V R^T`` taken receiver by receiver, with ``R`` the
    receivers' basis rows and ``W`` the step weights.

    Its transpose seeds the reverse sweep: data column j, observable p of
    receiver r, enters step k as the velocity seed ``W[k, p] * rec_phi[r]``.
    """

    def __init__(self, setup: ObservationSetup, mesh: Mesh, n_steps: int, dt: float):
        positions = [np.atleast_1d(p) for p in setup.receiver_positions]
        self.rec_phi = np.stack([mesh.basis_eval(p) for p in positions])  # (R, n)
        self.setup = setup
        self.n_steps = n_steps
        self.dt = dt

    def extract(self, vhist) -> np.ndarray:
        return (self.step_weights.T @ (vhist @ self.rec_phi.T)).T.ravel()

    @cached_property
    def step_weights(self) -> np.ndarray:
        """The (steps+1, per) weight of each per-receiver observable at each
        step: the transposed time interpolation and Fourier map, the same
        for every receiver.  Formed on first use, so constructing a model
        does not pay for it."""
        times = np.asarray(self.setup.sample_times, dtype=float)
        idx = np.minimum((times / self.dt).astype(int), self.n_steps - 1)
        frac = times / self.dt - idx
        if self.setup.fourier_truncation is None:
            series = np.eye(len(times))
        else:
            s_count = len(times)
            s = np.arange(s_count)
            rows = [np.full(s_count, 1.0 / s_count)]
            for j in range(1, self.setup.fourier_truncation):
                ang = 2.0 * np.pi * j * s / s_count
                rows.append(2.0 / s_count * np.cos(ang))
                rows.append(2.0 / s_count * np.sin(ang))
            series = np.stack(rows, axis=1)  # (S, 2k-1)
        weights = np.zeros((self.n_steps + 1, series.shape[1]))
        np.add.at(weights, idx, (1.0 - frac)[:, None] * series)
        np.add.at(weights, idx + 1, frac[:, None] * series)
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
    propagator: _Propagator
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
        propagator = _Propagator(self.disc, c)
        history = _forward_sweep(propagator)
        self.forward_solves += 1
        self._cache = _Linearization(m.copy(), propagator, history)
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
            jac = _reverse_sweep(lin.propagator, self.obs_op.seeds, lin.history)
            jac.flags.writeable = False
            lin.jacobian = jac
            self.jacobian_builds += 1
        return lin.jacobian
