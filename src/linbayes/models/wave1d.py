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

For a fixed wavespeed the semi-discrete system is dx/dt = A(c) x plus the
source, with A(c) a sparse rate matrix, so one Runge-Kutta step is a
polynomial in A(c).  Append the source's time factors at the four stages,
f_k, to the state x_k = (v_k, e_k); then x_{k+1} = S (x_k, f_k) with S a
sparse 2n x (2n+4) matrix, and each stage dilatation of the step is another
sparse map of (x_k, f_k).  The adjoint stage velocities are linear maps of
the adjoint state after the step: the transposes of the step's responses
to a velocity rate added at each stage.  ``_Propagator`` assembles all of
these once per wavespeed by running the one copy of the stage arithmetic
(``_rk4_step``) on sparse input maps instead of state vectors.

The forward sweep (``_forward_sweep``) is then one sparse matvec per step.
The Jacobian (``_build_jacobian``) is the exact transpose of the stepper
linearized in the wavespeed (reverse-mode differentiation, not a
discretization of the continuous adjoint equations).  Each data column
seeds the adjoint recursion lambda_k = S^T lambda_{k+1} + seed_k with a step
weight times a receiver's basis row, so its adjoint state is a weighted sum
of time shifts of the receiver's impulse response H_i = (S^T)^i (rec_phi, 0),
and its wavespeed gradient is the zero-lag correlation of the forward and
adjoint fields (Tarantola 1984), one FFT convolution per element and stage.
J costs one recursion over the R receivers, whatever q; it is built once per
parameter and cached with the forward solve, so every later J.v and J^T.y is
a small matrix product.  Gradient and adjoint identities hold to solver
precision, so finite-difference checks pass at tight tolerances.
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
# steps per block of the forward sweep's blow-up checks
_BLOCK = 16
# elements per block of the Jacobian's time correlation; bounds its scratch memory
_ELEMENT_BLOCK = 16


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


class _Discretization:
    """Quadrature tables and fixed operators of the semi-discrete system."""

    def __init__(self, config: WaveConfig):
        mesh = config.mesh
        n = self.n = mesh.n
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
        inv_me = np.zeros(n)
        inv_me[1:-1] = 1.0 / lumped_plain[1:-1]  # dilatation pinned at ends

        # entry (a, b) of element l's 2 x 2 local matrix sits at (conn[l, a], conn[l, b])
        rows = self.conn[:, [0, 0, 1, 1]].ravel()
        cols = self.conn[:, [0, 1, 0, 1]].ravel()
        # the rate's fixed block inv(M_e) D, D_ij = int phi_i phi_j' dx, below
        # the place of its coupling block -inv(M_rho) C(c)
        local = np.einsum("q,qa,b->ab", self.wj, phi, self.dphi).ravel()
        self._pairing_values = inv_me[rows] * np.tile(local, len(self.conn))
        self._coupling_scale = -self.inv_mrho[rows]
        self._rate_rows = np.concatenate([rows, n + rows])
        self._rate_cols = np.concatenate([n + cols, cols])

        src = config.source
        bump = src.amplitude * np.exp(-0.5 * ((xq - src.position) / src.width) ** 2)
        load = np.zeros(n)
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

    def rate(self, c):
        """The (2n, 2n) CSR rate matrix ``[[0, -inv(M_rho) C(c)], [inv(M_e) D, 0]]``
        of the state (v, e), ``C(c)_ij = int rho c^2 phi_i' phi_j dx``."""
        coeff = self.rho_q * self.at_quadrature(c)**2
        local = np.einsum("q,eq,a,qb->eab", self.wj, coeff, self.dphi, self.phi)
        values = np.concatenate([self._coupling_scale * local.ravel(), self._pairing_values])
        return sp.csr_matrix((values, (self._rate_rows, self._rate_cols)),
                             shape=(2 * self.n, 2 * self.n))

    # The stepper's input maps are built on first use, so that a model that
    # never propagates does not pay for them.

    @cached_property
    def step_inputs(self):
        """The step's inputs as sparse maps of (x_k, f_k): the state, and the
        source at each stage, a velocity rate read from column 2n + i."""
        n, nodes = self.n, np.arange(self.n)
        return (sp.eye(2 * n, 2 * n + 4, format="csr"),
                [sp.csr_matrix((self.source_v, (nodes, np.full(n, 2 * n + i))),
                               shape=(2 * n, 2 * n + 4)) for i in range(4)])

    @cached_property
    def stage_rate_inputs(self):
        """A unit velocity rate at each node and stage, as four (2n, 4n) maps."""
        n, nodes = self.n, np.arange(self.n)
        return [sp.csr_matrix((np.ones(n), (nodes, s * n + nodes)), shape=(2 * n, 4 * n))
                for s in range(4)]

    @cached_property
    def stage_differences(self):
        """Element differences of inv(M_rho) applied to each stage's nodal
        field, (4(n-1), 4n)."""
        diff = sp.diags([-self.inv_mrho[:-1], self.inv_mrho[1:]], [0, 1],
                        shape=(self.n - 1, self.n))
        return sp.block_diag([diff] * 4, format="csr")

    def gradient_kernel(self, c):
        """Per-element (ne, 2, 2) G: a stage dilatation e gives element l the
        gradient factors ``B[l, a] = sum_b G[l, a, b] e[l + b]``, which pair with the
        element differences of the stage's adjoint velocity: ``out[l + a] += B[l, a] diff_l``."""
        weight = (-2.0 / self.h) * self.wj * self.rho_q * self.at_quadrature(c)
        return np.einsum("eq,qa,qb->eab", weight, self.phi, self.phi)


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


def _rk4_step(rate, dt, x, stage_sources):
    """One classical Runge-Kutta step of ``dx/dt = rate @ x``, adding
    ``stage_sources[i]`` to the rate at stage i.  Returns the new state and
    the four stage states.  Takes dense state columns, or sparse maps of an
    input, which makes the results maps of that input."""
    k1 = rate @ x + stage_sources[0]
    s2 = x + 0.5 * dt * k1
    k2 = rate @ s2 + stage_sources[1]
    s3 = x + 0.5 * dt * k2
    k3 = rate @ s3 + stage_sources[2]
    s4 = x + dt * k3
    k4 = rate @ s4 + stage_sources[3]
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, s2, s3, s4)


class _Propagator:
    """One Runge-Kutta step at a fixed wavespeed as assembled sparse maps.

    With the source's time factors f_k at the four stages appended to the
    state x_k = (v_k, e_k), the step is ``x_{k+1} = step @ (x_k, f_k)``, and
    the four stage dilatations, stacked into ``stage_dilatations``
    (4n x (2n+4)), are maps of (x_k, f_k) too; both come from one
    ``_rk4_step`` on the input maps.  The Jacobian also needs
    ``step_transpose`` (S^T on the state) and the element differences of
    the four adjoint stage velocities ``inv(M_rho) kbar_s`` as maps of the
    adjoint state after the step, stacked into ``stage_adjoints``
    (4(n-1) x 2n): kbar_s = T_s^T lambda, with T_s the response of the step
    to a velocity rate added at stage s, from one ``_rk4_step`` on the zero
    map.  Both are built on first use.
    """

    def __init__(self, disc, c):
        self.disc = disc
        self.c = c
        self.rate = disc.rate(c)
        step, stages = _rk4_step(self.rate, disc.dt, *disc.step_inputs)
        # sorted column indices: every product with a map sums in column order
        self.step = step.sorted_indices()
        self.stage_dilatations = sp.vstack([s[disc.n:] for s in stages],
                                           format="csr").sorted_indices()

    @cached_property
    def step_transpose(self):
        return self.step[:, :2 * self.disc.n].T.tocsr()

    @cached_property
    def stage_adjoints(self):
        disc = self.disc
        zero = sp.csr_matrix((2 * disc.n, 4 * disc.n))
        responses, _ = _rk4_step(self.rate, disc.dt, zero, disc.stage_rate_inputs)
        return (disc.stage_differences @ responses.T).tocsr().sorted_indices()


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


def _build_jacobian(prop, forward, rec_phi, weights) -> np.ndarray:
    """The Euclidean (R per, n) Jacobian at the propagator's wavespeed, rows
    receiver by receiver, from the ``forward`` history there, the (R, n)
    receiver rows ``rec_phi`` and the (steps+1, per) step ``weights`` W.
    Row (r, p) is ``sum_j W[j, p] A_j``, A_j the sum over the stages s and
    steps k + i = j - 1 of ``F_s(k) * D_s H_i``: F_s(k) the gradient factors
    of step k's stage dilatations, D_s the stage adjoints, H_i the receiver's
    impulse response.  The sum over k is a convolution, done by FFT."""
    disc = prop.disc
    n, steps, n_rec = disc.n, disc.n_steps, rec_phi.shape[0]
    impulse = np.empty((2 * n, n_rec, steps))
    lam = np.vstack([rec_phi.T, np.zeros((n, n_rec))])
    for i in range(steps):
        impulse[:, :, i] = lam
        lam = prop.step_transpose @ lam
    _check_blowup(np.abs(impulse).max(axis=0).T,
                  np.broadcast_to(np.abs(rec_phi).max(axis=1), (steps, n_rec)))
    impulse = impulse.reshape(2 * n, n_rec * steps)
    kernel = disc.gradient_kernel(prop.c)
    size = 2 * steps        # holds the linear convolution of two length-steps series
    states = np.vstack([forward.v[:-1].T, forward.e[:-1].T, disc.source_factors.T])
    jac = np.zeros((n_rec, weights.shape[1], n))
    for l0 in range(0, n - 1, _ELEMENT_BLOCK):
        l1 = min(l0 + _ELEMENT_BLOCK, n - 1)
        nodes = (n * np.arange(4)[:, None] + np.arange(l0, l1 + 1)).ravel()
        elements = ((n - 1) * np.arange(4)[:, None] + np.arange(l0, l1)).ravel()
        # the sparse rows read only the states within the stencil's reach
        stage_e = (prop.stage_dilatations[nodes] @ states).reshape(4, -1, steps)
        diffs = (prop.stage_adjoints[elements] @ impulse).reshape(4, l1 - l0, n_rec, steps)
        halves = 0.0
        for s in range(4):
            e = np.fft.rfft(stage_e[s], size)
            # the stage's gradient factors on the block's elements, (el, 2, freq)
            factors = (kernel[l0:l1, :, 0, None] * e[:-1, None]
                       + kernel[l0:l1, :, 1, None] * e[1:, None])
            halves += factors[:, :, None] * np.fft.rfft(diffs[s], size)[:, None]
        # node l sums the left half of element l and the right half of l - 1
        nodal = np.concatenate([halves[:, 0], halves[-1:, 1]])
        nodal[1:-1] += halves[:-1, 1]
        lags = np.fft.irfft(nodal, size)[..., :steps]     # A_1 ... A_steps
        jac[:, :, l0:l1 + 1] += np.einsum("tp,nrt->rpn", weights[1:], lags)
    return jac.reshape(-1, n)


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
    receivers' basis rows ``rec_phi`` and ``W`` the step weights."""

    def __init__(self, setup: ObservationSetup, mesh: Mesh, n_steps: int, dt: float):
        self.rec_phi = np.stack([mesh.basis_eval(np.atleast_1d(p))
                                 for p in setup.receiver_positions])  # (R, n)
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
    inner CG loops) reuses one propagation and one Jacobian build.
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
        """The q x n Jacobian at m, from one impulse response per receiver;
        read-only, cached with the forward solve."""
        lin = self._prepare(m)
        if lin.jacobian is None:
            jac = _build_jacobian(lin.propagator, lin.history, self.obs_op.rec_phi,
                                  self.obs_op.step_weights)
            jac.flags.writeable = False
            lin.jacobian = jac
            self.jacobian_builds += 1
        return lin.jacobian
