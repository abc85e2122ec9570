"""1D first-order acoustic wave propagation with exact discrete adjoints.

State variables are the velocity v and the dilatation e on the same linear
finite-element mesh as the parameter (the wavespeed c), with the lumped mass
matrix M and classical four-stage Runge-Kutta time stepping:

    M dv/dt = -C(c) e + g(t),    C(c)_ij = int c^2 phi_i' phi_j dx
    M de/dt =  D v,              D_ij    = int phi_i phi_j' dx

with e pinned to zero at both interval endpoints and zero initial conditions.
The wavespeed enters only through C(c), and the source g(t) is a fixed
spatial load times a time factor.  The density is 1: a known constant
density only rescales the source.  A sweep runs the fewest steps of dt that
reach the last sample time.

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
to a velocity rate added at each stage.  ``_Propagator`` gets the step,
the stage dilatations and the stage responses from one run of the stage
arithmetic (``_rk4_step``) on sparse input maps, and keeps the stage maps
node-major, so that an element block of the Jacobian reads one run of rows.

With the state interleaved, (v_0, e_0, v_1, e_1, ...), the step on the state
couples unknowns at most eight apart (RK4 is a quartic in the rate, which
couples nearest neighbours), so ``_Propagator`` also keeps it in LAPACK
general-band storage.  The forward sweep (``_forward_sweep``) is then one
BLAS ``dgbmv`` per step, added to the source's response at that step.  The
interleaving stays inside the two sweeps: histories, the rate and the
stage maps' columns are in block order (v, then e).

The Jacobian (``_build_jacobian``) is the exact transpose of the stepper
linearized in the wavespeed (reverse-mode differentiation, not a
discretization of the continuous adjoint equations).  Each data column
seeds the adjoint recursion lambda_k = S^T lambda_{k+1} + seed_k with a step
weight times a receiver's basis row, so its adjoint state is a weighted sum
of time shifts of the receiver's impulse response H_i = (S^T)^i (rec_phi, 0),
one transposed ``dgbmv`` per step on the same band, and its wavespeed
gradient is the zero-lag correlation of the forward and adjoint fields
(Tarantola 1984), by FFT over blocks of 16 elements: the spectra's products
are summed over the four stages before the real element kernel is applied.
J costs one recursion over the R receivers, whatever q; it is built once per
parameter and cached with the forward solve, so every later J.v and J^T.y is
a small matrix product.  Gradient and adjoint identities hold to solver
precision, so finite-difference checks pass at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgbmv

from ..errors import ConfigError, InvalidParameterError, StabilityError
from ..fem import ElementTables, MassSpace, Mesh, _reference, assemble_mass
from .base import ForwardModel, ObservationSetup

_BLOWUP_FACTOR = 1e6
# the CFL number c dt / h that dt must not exceed at any wavespeed
_CFL = 0.5
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


@dataclass(frozen=True)
class WaveConfig:
    mesh: Mesh
    dt: float
    source: SourceSpec

    def __post_init__(self):
        if self.mesh.dim != 1:
            raise ConfigError("the wave model runs on 1D meshes only")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        lo, hi = self.mesh.domain_bounds[0]
        if not lo <= self.source.position <= hi:
            raise ConfigError(f"source position {self.source.position} outside the domain")


@dataclass
class StateHistory:
    """Per-step nodal fields of a forward-direction sweep.

    ``v`` holds the velocity-like variable, ``e`` the dilatation-like one;
    row k is the state at time k*dt, row 0 the rest state.
    """

    v: np.ndarray   # (steps+1, n)
    e: np.ndarray   # (steps+1, n)


class _Discretization(ElementTables):
    """The element tables of the wave mesh, and the fixed operators of the
    semi-discrete system."""

    def __init__(self, config: WaveConfig, n_steps: int):
        mesh = config.mesh
        super().__init__(mesh)
        n = self.n = mesh.n
        self.n_steps = n_steps
        self.dt = config.dt
        h = self.h = mesh.spacings[0]
        self.dphi = self.grads[0, :, 0]     # physical derivatives, constant

        self.inv_mass = 1.0 / _lumped_mass(mesh)
        inv_me = self.inv_mass.copy()
        inv_me[[0, -1]] = 0.0               # dilatation pinned at ends

        # element l's local entry (a, b) sits at (elements[l, a], elements[l, b])
        rows = self.elements[:, [0, 0, 1, 1]].ravel()
        cols = self.elements[:, [0, 1, 0, 1]].ravel()
        # the rate's fixed block inv(M_e) D, D_ij = int phi_i phi_j' dx, below
        # the place of its coupling block -inv(M) C(c)
        local = np.einsum("q,qa,b->ab", self.wj, self.phi, self.dphi).ravel()
        self._pairing_values = inv_me[rows] * np.tile(local, len(self.elements))
        self._coupling_scale = -self.inv_mass[rows]
        self._rate_rows = np.concatenate([rows, n + rows])
        self._rate_cols = np.concatenate([n + cols, cols])

        src = config.source
        # the quadrature points (ne, nq): each element's left node + (1 + xi) h / 2
        xi = _reference(1)[0]
        xq = mesh.node_coords[self.elements[:, :1], 0] + (1.0 + xi[:, 0]) * h / 2.0
        t = np.arange(self.n_steps) * self.dt
        with np.errstate(over="ignore"):  # a bump or pulse too narrow to sample is 0
            bump = src.amplitude * np.exp(-0.5 * ((xq - src.position) / src.width) ** 2)
            # the source's time factor at the four stages of every step, (steps, 4)
            stages = np.stack([t, t + 0.5 * self.dt, t + 0.5 * self.dt, t + self.dt], axis=1)
            self.source_factors = np.exp(-0.5 * ((stages - src.time_center) / src.time_std) ** 2)
        load = np.zeros(n)
        np.add.at(load, self.elements.ravel(), ((self.wj[None, :] * bump) @ self.phi).ravel())
        self.source_v = self.inv_mass * load

    def rate(self, c):
        """The (2n, 2n) CSR rate matrix ``[[0, -inv(M) C(c)], [inv(M_e) D, 0]]``
        of the state (v, e), ``C(c)_ij = int c^2 phi_i' phi_j dx`` and M_e the
        lumped mass with the dilatation pinned at the ends."""
        coeff = self.at_quadrature(c)**2
        local = np.einsum("q,eq,a,qb->eab", self.wj, coeff, self.dphi, self.phi)
        values = np.concatenate([self._coupling_scale * local.ravel(), self._pairing_values])
        return sp.csr_matrix((values, (self._rate_rows, self._rate_cols)),
                             shape=(2 * self.n, 2 * self.n))

    # The stepper's input maps are built on first use, so that a model that
    # never propagates does not pay for them.

    @cached_property
    def step_inputs(self):
        """The step's inputs as sparse (2n, 6n + 4) maps of (x_k, f_k, r): the
        state x_k; and at stage i the source, a velocity rate read from column
        2n + i, plus a unit velocity rate at each node j, read from column
        2n + 4 + 4 j + i."""
        n, nodes = self.n, np.arange(self.n)
        shape = (2 * n, 6 * n + 4)
        return (sp.eye(*shape, format="csr"),
                [sp.csr_matrix((np.concatenate([self.source_v, np.ones(n)]),
                                (np.tile(nodes, 2), np.concatenate(
                                    [np.full(n, 2 * n + i), 2 * n + 4 + 4 * nodes + i]))),
                               shape=shape) for i in range(4)])

    def gradient_kernel(self, c):
        """Per-element (ne, 2, 2) G: a stage dilatation e gives element l the
        gradient factors ``B[l, a] = sum_b G[l, a, b] e[l + b]``, which pair with the
        element differences of the stage's adjoint velocity: ``out[l + a] += B[l, a] diff_l``."""
        weight = (-2.0 / self.h) * self.wj * self.at_quadrature(c)
        return np.einsum("eq,qa,qb->eab", weight, self.phi, self.phi)


def _validate_wavespeed(config: WaveConfig, c):
    c = np.asarray(c, dtype=float)
    if c.shape != (config.mesh.n,):
        raise ValueError(f"wavespeed has shape {c.shape}, expected ({config.mesh.n},)")
    if np.any(c <= 0):
        raise InvalidParameterError("wavespeed must be strictly positive at all nodes")
    h = config.mesh.spacings[0]
    limit = _CFL * h / float(np.max(c))
    if config.dt > limit * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"dt = {config.dt} violates the stability bound {limit:.3e} "
            f"(cfl = {_CFL}, h = {h}, max c = {float(np.max(c))})")
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
    """One Runge-Kutta step at a fixed wavespeed as assembled maps.

    One ``_rk4_step`` on ``step_inputs`` gives the step S, the four stage
    dilatations as maps of (x_k, f_k), and T_s, the step's response to a
    velocity rate added at stage s.  The adjoint stage velocities
    ``inv(M) kbar_s``, kbar_s = T_s^T lambda, are maps of the adjoint
    state after the step.  The Jacobian's two stage maps are formed from
    that run on first use: ``stage_dilatations`` (4n x (2n+4)) stacks the
    dilatations node-major, stage s at node i in row 4 i + s, and
    ``stage_adjoints`` (4(n-1) x 2n) holds in row 4 l + s the adjoint
    velocities' difference across element l.
    For the sweeps, S is copied entry for entry with the state interleaved,
    (v_0, e_0, v_1, e_1, ...): its state block into ``band``, LAPACK
    general-band storage with ``kl`` sub- and ``ku`` superdiagonals (entry
    (i, j) at ``band[ku + i - j, j]``), and its source block into ``source``
    (dim x 4).  The order ``dim`` is 2n, or kl + ku + 1 on meshes of at most
    eight nodes, the least that scipy's ``dgbmv`` accepts; the unknowns past
    2n stay zero.
    """

    def __init__(self, disc, c):
        self.disc = disc
        self.c = c
        n = disc.n
        full_step, stages = _rk4_step(disc.rate(c), disc.dt, *disc.step_inputs)
        # the parts of the stage maps, kept until these are formed
        self._dilatations = [s[n:, :2 * n + 4] for s in stages]
        self._responses = full_step[:, 2 * n + 4:]
        step = full_step[:, :2 * n + 4].tocoo()
        on_state = step.col < 2 * n
        # block index b n + i (v_i, then e_i) to its interleaved place 2 i + b
        rows, cols = (2 * (idx % n) + idx // n for idx in (step.row, step.col))
        rows_x, cols_x = rows[on_state], cols[on_state]
        self.kl = int(max(0, (rows_x - cols_x).max()))
        self.ku = int(max(0, (cols_x - rows_x).max()))
        self.dim = max(2 * n, self.kl + self.ku + 1)
        # Fortran order, as dgbmv reads it: any other layout is copied per call
        self.band = np.zeros((self.kl + self.ku + 1, self.dim), order="F")
        self.band[self.ku + rows_x - cols_x, cols_x] = step.data[on_state]
        self.source = np.zeros((self.dim, 4))
        self.source[rows[~on_state], step.col[~on_state] - 2 * n] = step.data[~on_state]

    # Formed on the first Jacobian build, which drops their parts: a
    # forward-only propagation (the data twin, a line-search trial) skips them.

    @cached_property
    def stage_dilatations(self):
        # sorted column indices: every product with a map sums in column order
        n = self.disc.n
        node_major = np.arange(4 * n).reshape(4, n).T.ravel()
        stacked = sp.vstack(self._dilatations, format="csr")[node_major].sorted_indices()
        del self._dilatations
        return stacked

    @cached_property
    def stage_adjoints(self):
        # stage s at node i in row 4 i + s, scaled by inv(M); element
        # l's difference takes row 4 l + s from row 4 (l + 1) + s
        scaled = (sp.diags(np.repeat(self.disc.inv_mass, 4)) @ self._responses.T).tocsr()
        del self._responses
        return (scaled[4:] - scaled[:-4]).sorted_indices()


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
    """March the banded step from rest under the source.  The history is one
    interleaved array, v and e its strided views: row k + 1 first holds the
    source's response at step k, and one ``dgbmv`` adds the band's product
    with row k to it in place."""
    disc = prop.disc
    dim, steps = prop.dim, disc.n_steps
    states = np.zeros((steps + 1, dim))
    np.matmul(disc.source_factors, prop.source.T, out=states[1:])
    driver_cum = np.cumsum(disc.dt * (disc.source_factors[:, 0]
                                      * np.max(np.abs(disc.source_v))))
    for k0 in range(0, steps, _BLOCK):
        k1 = min(k0 + _BLOCK, steps)
        for k in range(k0, k1):
            # positional, as keywords cost the wrapper about 1 us a call, a
            # third of the product: x, incx, offx, beta, y, incy, offy,
            # trans, overwrite_y
            dgbmv(dim, dim, prop.kl, prop.ku, 1.0, prop.band,
                  states[k], 1, 0, 1.0, states[k + 1], 1, 0, 0, 1)
        _check_blowup(np.abs(states[k0 + 1:k1 + 1]).max(axis=1), driver_cum[k0:k1])
    return StateHistory(v=states[:, 0:2 * disc.n:2], e=states[:, 1:2 * disc.n:2])


def _impulse_responses(prop, rec_phi) -> np.ndarray:
    """The receivers' impulse responses H_i = (S^T)^i (rec_phi, 0) for
    i < steps, as the (2n, R steps) C-contiguous array of columns (r, i) in
    block order (v, e).  The recursion runs on the band with the state
    interleaved, one transposed ``dgbmv`` per step and receiver (positional
    arguments as in the forward sweep), and is copied into block order once."""
    n, steps, dim = prop.disc.n, prop.disc.n_steps, prop.dim
    n_rec = rec_phi.shape[0]
    lams = np.zeros((steps, n_rec, dim))
    lams[0, :, 0:2 * n:2] = rec_phi
    for i in range(1, steps):
        for r in range(n_rec):
            dgbmv(dim, dim, prop.kl, prop.ku, 1.0, prop.band,
                  lams[i - 1, r], 1, 0, 0.0, lams[i, r], 1, 0, 1, 1)
    _check_blowup(np.abs(lams).max(axis=2),
                  np.broadcast_to(np.abs(rec_phi).max(axis=1), (steps, n_rec)))
    return (lams[..., :2 * n].reshape(steps, n_rec, n, 2).transpose(3, 2, 1, 0)
            .reshape(2 * n, n_rec * steps))


def _build_jacobian(prop, forward, rec_phi, weights) -> np.ndarray:
    """The Euclidean (R per, n) Jacobian at the propagator's wavespeed, rows
    receiver by receiver, from the ``forward`` history there, the (R, n)
    receiver rows ``rec_phi`` and the (steps+1, per) step ``weights`` W.
    Row (r, p) is ``sum_j W[j, p] A_j``, A_j the sum over the
    stages s and steps k + i = j - 1 of ``G (E_s(k), D_s H_i)``: E_s(k) step
    k's stage dilatations, D_s the stage adjoints' element differences, H_i
    the receiver's impulse response and G the real element kernel, which
    pairs node l + b of E with element l of D into nodes l and l + 1.  The
    sum over k is a convolution, done by FFT; as G does not depend on the
    stage or the lag, the stage products P_b[l] = sum_s E_s[l + b] D_s[l]
    are summed in the frequency domain first and G applied once."""
    disc = prop.disc
    n, steps, n_rec = disc.n, disc.n_steps, rec_phi.shape[0]
    impulse = _impulse_responses(prop, rec_phi)
    kernel = disc.gradient_kernel(prop.c)
    size = 2 * steps        # holds the linear convolution of two length-steps series
    # C order: a sparse product copies any other layout, once per element block
    states = np.ascontiguousarray(np.vstack([forward.v[:-1].T, forward.e[:-1].T,
                                             disc.source_factors.T]))
    lag_weights = weights[1:]     # rows for A_1 ... A_steps; step 0 is the rest state
    jac = np.zeros((n_rec, weights.shape[1], n))
    for l0 in range(0, n - 1, _ELEMENT_BLOCK):
        l1 = min(l0 + _ELEMENT_BLOCK, n - 1)
        # elements l0 to l1 - 1 read nodes l0 to l1: one run of rows of each
        # node-major map, whose products are reshaped to (stage, ...); the
        # sparse rows read only the states within the stencil's reach
        stage_e = ((prop.stage_dilatations[4 * l0:4 * l1 + 4] @ states)
                   .reshape(-1, 4, steps).transpose(1, 0, 2))
        diffs = ((prop.stage_adjoints[4 * l0:4 * l1] @ impulse)
                 .reshape(-1, 4, n_rec, steps).transpose(1, 0, 2, 3))
        # P_b[l] = sum_s E_s[l + b] D_s[l] over the stages, in the frequency domain
        pairs = np.zeros((2, l1 - l0, n_rec, size // 2 + 1), dtype=complex)
        for s in range(4):
            e = np.fft.rfft(stage_e[s], size)[:, None]
            d = np.fft.rfft(diffs[s], size)
            pairs[0] += e[:-1] * d
            pairs[1] += e[1:] * d
        # node l + a of element l gets sum_b G[l, a, b] P_b[l]
        nodal = np.zeros((l1 - l0 + 1, n_rec, size // 2 + 1), dtype=complex)
        for a in range(2):
            nodal[a:l1 - l0 + a] += (kernel[l0:l1, a, 0, None, None] * pairs[0]
                                     + kernel[l0:l1, a, 1, None, None] * pairs[1])
        lags = np.fft.irfft(nodal, size)[..., :steps]     # A_1 ... A_steps
        # (node, receiver) rows times W[1:]
        jac[:, :, l0:l1 + 1] += (lags.reshape(-1, steps) @ lag_weights).reshape(
            l1 - l0 + 1, n_rec, -1).transpose(1, 2, 0)
    return jac.reshape(-1, n)


def _lumped_mass(mesh, coeff=None) -> np.ndarray:
    """The row sums of ``assemble_mass(mesh, coeff)``: the lumped mass."""
    return np.asarray(assemble_mass(mesh, coeff=coeff).sum(axis=1)).ravel()


def energy_history(config: WaveConfig, wavespeed, history: StateHistory) -> np.ndarray:
    """Discrete energy ``1/2 int v^2 + c^2 e^2 dx`` per stored step."""
    c = np.asarray(wavespeed, dtype=float)
    lumped, lumped_c2 = _lumped_mass(config.mesh), _lumped_mass(config.mesh, c**2)
    return 0.5 * (history.v**2 @ lumped + history.e**2 @ lumped_c2)


def _check_observation(config: WaveConfig, observation: ObservationSetup):
    """Raise ConfigError unless every receiver lies in the mesh."""
    for p in observation.receiver_positions:
        if not config.mesh.contains(np.atleast_1d(p)):
            raise ConfigError(f"receiver {p} lies outside the domain")


def _step_count(dt, observation: ObservationSetup) -> int:
    """The fewest steps of ``dt`` that reach the last sample time, a step
    within 1e-8 steps of it counting; ConfigError when that is not a finite count."""
    steps = observation.sample_times[-1] / dt
    if not math.isfinite(steps):
        raise ConfigError(f"the last sample time is {steps} steps of dt = {dt}")
    return max(1, math.ceil(steps - 1e-8))


class _ObservationOperator:
    """Linear map from a velocity history V to the observation vector: the
    rows of ``W^T V R^T`` taken receiver by receiver, with ``R`` the
    receivers' basis rows ``rec_phi`` and ``W`` the step weights."""

    def __init__(self, setup: ObservationSetup, mesh: Mesh, dt: float):
        self.rec_phi = mesh.basis_matrix(
            np.reshape(setup.receiver_positions, (-1, 1))).toarray()  # (R, n)
        self.setup = setup
        self.n_steps = _step_count(dt, setup)
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
        s_count = len(times)
        s = np.arange(s_count)
        if self.setup.fourier_truncation is None:
            # raw sample s weighs its two steps in column s alone
            weights = np.zeros((self.n_steps + 1, s_count))
            weights[idx, s] = 1.0 - frac
            weights[idx + 1, s] = frac
            return weights
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
        self.observation = observation
        _check_observation(config, observation)
        self.obs_op = _ObservationOperator(observation, config.mesh, config.dt)
        self.disc = _Discretization(config, self.obs_op.n_steps)
        self.mspace = mspace if mspace is not None else MassSpace(assemble_mass(config.mesh))
        if self.mspace.n != config.mesh.n:
            raise ValueError("mass space does not match the wave mesh")
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
