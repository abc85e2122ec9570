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
2n x (2n+4) matrix, and each stage dilatation of the step is another map
of (x_k, f_k).  The adjoint stage velocities are linear maps of the
adjoint state after the step: the transposes of the step's responses to a
velocity rate added at each stage.  ``_Propagator`` gets the step, the
stage dilatations and the stage responses from one run of the stage
arithmetic (``_rk4_step``) on maps in band storage (``_Band``).

The state is interleaved, (v_0, e_0, v_1, e_1, ...), everywhere from the
rate to the Jacobian.  The rate couples unknowns at most three apart and
the step at most eight (RK4 is a quartic in the rate), so each map of the
state is a band, kept as its diagonals, and the source's factors a dense
block; ``rate(c)`` fills its band from the element-local values, and no
step of the model makes sparse-matrix arithmetic.  ``_Propagator`` copies
the step's state part into LAPACK general-band storage: the forward sweep
(``_forward_sweep``) is then one BLAS ``dgbmv`` per step, added to the
source's response at that step, into one (steps+1, dim) history.

The Jacobian (``_build_jacobian``) is the exact transpose of the stepper
linearized in the wavespeed (reverse-mode differentiation, not a
discretization of the continuous adjoint equations).  Each data column
seeds the adjoint recursion lambda_k = S^T lambda_{k+1} + seed_k with a step
weight times a receiver's basis row, so its adjoint state is a weighted sum
of time shifts of the receiver's impulse response H_i = (S^T)^i (rec_phi, 0),
one transposed ``dgbmv`` per step on the same band, and its wavespeed
gradient is the zero-lag correlation of the forward and adjoint fields
(Tarantola 1984), by FFT over blocks of 16 elements.  Each block has small
dense stage maps over the window of interleaved unknowns that its nodes
reach, which multiply strided views of the forward history and of the
recursion, with time on the last axis; the spectra's products are summed
over the four stages before the real element kernel is applied.  J costs
one recursion over the R receivers, whatever q; it is built once per
parameter and cached with the forward solve, so every later J.v and J^T.y
is a small matrix product.  Gradient and adjoint identities hold to solver
precision, so finite-difference checks pass at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
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

        # the local values of element l's entries (a, b) in the velocity rows,
        # -inv(M) times C(c)'s, and in the dilatation rows, inv(M_e) D's
        # with D_ij = int phi_i phi_j' dx
        self._coupling_scale = -self.inv_mass[self.elements][:, :, None]
        local = np.einsum("q,qa,b->ab", self.wj, self.phi, self.dphi)
        self._pairing = inv_me[self.elements][:, :, None] * local

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
        """The rate matrix ``[[0, -inv(M) C(c)], [inv(M_e) D, 0]]`` of the
        state (v, e) as a ``_Band`` with the state interleaved, diagonals -3
        to 3: ``C(c)_ij = int c^2 phi_i' phi_j dx`` and M_e the lumped mass
        with the dilatation pinned at the ends."""
        coeff = self.at_quadrature(c)**2
        coupling = self._coupling_scale * np.einsum("q,eq,a,qb->eab", self.wj, coeff,
                                                    self.dphi, self.phi)
        diags = np.zeros((7, 2 * self.n))
        stop = 2 * len(self.elements)
        # entry (a, b) of element l in the velocity rows (r = 0) sits at v_{l+a},
        # row 2 (l + a), and e_{l+b}, column 2 (l + b) + 1, on diagonal
        # 2 (b - a) + 1; in the dilatation rows (r = 1), at e_{l+a} and v_{l+b},
        # on diagonal 2 (b - a) - 1.  Two elements meet at a node's own v-e
        # entries, whose two terms sum the same in either order
        for r, local in enumerate((coupling, self._pairing)):
            for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                diags[2 * (b - a - r) + 4, r + 2 * a:r + 2 * a + stop:2] += local[:, a, b]
        return _Band(-3, diags)

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
    if not np.all(np.isfinite(c)):
        raise InvalidParameterError("wavespeed must be finite at all nodes")
    if np.any(c <= 0):
        raise InvalidParameterError("wavespeed must be strictly positive at all nodes")
    h = config.mesh.spacings[0]
    limit = _CFL * h / float(np.max(c))
    if config.dt > limit * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"dt = {config.dt} violates the stability bound {limit:.3e} "
            f"(cfl = {_CFL}, h = {h}, max c = {float(np.max(c))})")
    return c


class _Band:
    """A square matrix with the state interleaved, (v_0, e_0, v_1, e_1,
    ...), in diagonal storage: entry (i, i + d) at ``diags[d - lo, i]`` for
    lo <= d < hi, every other entry zero.

    It has the arithmetic ``_rk4_step`` needs.  A product sums its terms in
    ascending diagonal order, the column order of a sorted CSR row, and a
    zero term leaves a sum unchanged, so each entry is the one that
    scipy.sparse gives, bit for bit, on the same matrices in block order (v,
    then e): a rate row meets one block only, in the same order either way.
    """

    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __init__(self, lo, diags):
        self.lo, self.diags = lo, diags

    @property
    def hi(self):
        return self.lo + len(self.diags)

    def __matmul__(self, other):
        """Times dense columns, or times a band (its zero outer diagonals
        dropped)."""
        dense = isinstance(other, np.ndarray)
        if not (dense or isinstance(other, _Band)):
            return NotImplemented
        # the rows that the diagonals scale, zero-padded so that diagonal d
        # reads entry i + d of each at padded[:, pad + d + i]
        rows = other.T if dense else other.diags
        dim, pad = rows.shape[1], max(-self.lo, self.hi - 1, 0)
        padded = np.zeros((len(rows), dim + 2 * pad))
        padded[:, pad:pad + dim] = rows
        out = np.zeros((len(rows) if dense else len(self.diags) + len(rows) - 1, dim))
        for k in np.flatnonzero(self.diags.any(axis=1)):
            start = pad + self.lo + k
            out[slice(None) if dense else slice(k, k + len(rows))] += (
                self.diags[k] * padded[:, start:start + dim])
        if dense:
            return out.T
        kept = np.flatnonzero(out.any(axis=1))
        first, last = (kept[0], kept[-1]) if kept.size else (0, 0)
        return _Band(self.lo + other.lo + first, out[first:last + 1])

    def __add__(self, other):
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        diags = np.zeros((hi - lo, self.diags.shape[1]))
        for band in (self, other):
            diags[band.lo - lo:band.hi - lo] += band.diags
        return _Band(lo, diags)

    def __rmul__(self, scalar):
        return _Band(self.lo, scalar * self.diags)


class _Inputs(tuple):
    """Maps of several inputs, one entry each: a ``_Band``, dense columns,
    or None where the map is zero.  The stepper's arithmetic acts entry by
    entry."""

    __array_ufunc__ = None

    def __add__(self, other):
        return _Inputs(b if a is None else a if b is None else a + b for a, b in zip(self, other))

    def __rmul__(self, scalar):
        return _Inputs(None if a is None else scalar * a for a in self)

    def __rmatmul__(self, rate):
        return _Inputs(None if a is None else rate @ a for a in self)


def _rk4_step(rate, dt, x, stage_sources):
    """One classical Runge-Kutta step of ``dx/dt = rate @ x``, adding
    ``stage_sources[i]`` to the rate at stage i.  Returns the new state and
    the four stage states.  Takes dense state columns, or ``_Inputs`` maps
    of an input and the rate as a ``_Band``, which makes the results maps
    of that input."""
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

    One ``_rk4_step`` on ``_Inputs`` maps of three inputs, the state x_k
    (an identity band), the source's time factors f_k at the four stages
    (a dense 2n x 4 block) and a unit velocity rate at each node and stage
    (one band per stage), with the rate A(c) from ``rate(c)``, gives the
    step S, the four stage dilatations as maps of (x_k, f_k), and T_s, the
    step's response to a velocity rate added at stage s.  The adjoint stage
    velocities ``inv(M) kbar_s``, kbar_s = T_s^T lambda, are maps of the
    adjoint state after the step.  For the sweeps, S's state part is copied
    into ``band``, LAPACK general-band storage with ``kl`` sub- and ``ku``
    superdiagonals (entry (i, j) at ``band[ku + i - j, j]``), and its source
    part into ``source`` (dim x 4).  The order ``dim`` is 2n, or kl + ku + 1
    on meshes of at most eight nodes, the least that scipy's ``dgbmv``
    accepts; the unknowns past 2n stay zero.  Every map keeps the state
    interleaved, (v_0, e_0, v_1, ...).
    """

    def __init__(self, disc, c):
        self.disc = disc
        self.c = c
        n = disc.n
        # the inputs: the state, the stage factors, and a unit velocity rate
        # at each node for stages 0 to 3
        x = _Inputs((_Band(0, np.ones((1, 2 * n))), np.zeros((2 * n, 4))) + (None,) * 4)
        unit = _Band(0, np.tile([1.0, 0.0], (1, n)))
        sources = []
        for s in range(4):
            factors = np.zeros((2 * n, 4))
            factors[0::2, s] = disc.source_v
            sources.append(_Inputs((None, factors) + (None,) * s + (unit,) + (None,) * (3 - s)))
        step, stages = _rk4_step(disc.rate(c), disc.dt, x, sources)
        # the parts of the block maps, kept until these are formed
        self._dilatations = [s[:2] for s in stages]
        self._responses = step[2:]
        state = step[0]
        offsets = state.lo + np.flatnonzero(state.diags.any(axis=1))
        self.kl, self.ku = int(max(0, -offsets.min())), int(max(0, offsets.max()))
        self.dim = max(2 * n, self.kl + self.ku + 1)
        # Fortran order, as dgbmv reads it: any other layout is copied per call
        self.band = np.zeros((self.kl + self.ku + 1, self.dim), order="F")
        for d in range(-self.kl, self.ku + 1):
            i0, i1 = max(0, -d), min(2 * n, 2 * n - d)
            self.band[self.ku - d, i0 + d:i1 + d] = state.diags[d - state.lo, i0:i1]
        self.source = np.zeros((self.dim, 4))
        self.source[:2 * n] = step[1]

    @cached_property
    def block_maps(self):
        """The Jacobian's dense stage maps, one set per block of elements l0
        to l1 - 1: ``((l0, l1), (cols, dilatations, factors), (cols,
        adjoints))``.  Row s (l1 - l0 + 1) + i - l0 of ``dilatations`` and
        ``factors`` maps the state's unknowns ``cols`` and the stage factors
        to stage s's dilatation at node i, l0 <= i <= l1; row s (l1 - l0) + l
        - l0 of ``adjoints`` maps the adjoint state's unknowns ``cols`` to the
        difference of stage s's adjoint velocity across element l.  Formed on
        the first Jacobian build, which drops their parts: a forward-only
        propagation (the data twin, a line-search trial) skips them."""
        n = self.disc.n
        # node i's dilatation is interleaved row 2 i + 1, its entry at column
        # 2 i + 1 + d on diagonal d
        lo = min(band.lo for band, _ in self._dilatations)
        dilatations = np.zeros((4, n, max(band.hi for band, _ in self._dilatations) - lo))
        factors = np.zeros((4, n, 4))
        for s, (band, stage_factors) in enumerate(self._dilatations):
            dilatations[s, :, band.lo - lo:band.hi - lo] = band.diags[:, 1::2].T
            factors[s] = stage_factors[1::2]
        del self._dilatations
        # the adjoint velocity at node j: T_s's column 2 j, which meets
        # diagonal d at interleaved row 2 j - d, 2 j + r for r = -d; scaled by
        # inv(M), at scaled[s, j, r - r_min]
        r_min = 1 - max(band.hi for band in self._responses)
        width = 1 - min(band.lo for band in self._responses) - r_min
        scaled = np.zeros((4, n, width))
        for s, band in enumerate(self._responses):
            for k, d in enumerate(range(band.lo, band.hi)):
                j0, j1 = max(0, (d + 1) // 2), min(n, (2 * n + d + 1) // 2)
                if j0 < j1:
                    scaled[s, j0:j1, -d - r_min] = band.diags[k, 2 * j0 - d:2 * j1 - d:2]
        del self._responses
        scaled *= self.disc.inv_mass[:, None]
        blocks = []
        for l0 in range(0, n - 1, _ELEMENT_BLOCK):
            l1 = min(l0 + _ELEMENT_BLOCK, n - 1)
            cols, stage_e = _window_map(dilatations, 1 + lo, l0, l1 + 1)
            lam_cols, velocities = _window_map(scaled, r_min, l0, l1 + 1)
            # element l's difference is node l + 1's row less node l's
            blocks.append(((l0, l1),
                           (cols, stage_e.reshape(4 * (l1 - l0 + 1), -1),
                            factors[:, l0:l1 + 1].reshape(-1, 4)),
                           (lam_cols, np.diff(velocities, axis=1).reshape(4 * (l1 - l0), -1))))
        return blocks


def _window_map(local, first, i0, i1):
    """The dense map of rows i0 <= i < i1 of a map of the interleaved state
    given by its per-node stencils: row (s, i) holds ``local[s, i, k]`` at
    column 2 i + first + k.  Returns the columns that the rows reach within
    the state, as a slice, and the (stage, row, column) map over them."""
    count, width = i1 - i0, local.shape[2]
    start = 2 * i0 + first
    dense = np.zeros((len(local), count, 2 * count - 2 + width))
    j = np.arange(count)[:, None]
    dense[:, j, 2 * j + np.arange(width)] = local[:, i0:i1]
    c0, c1 = max(start, 0), min(start + dense.shape[2], 2 * local.shape[1])
    return slice(c0, c1), dense[..., c0 - start:c1 - start]


def _check_blowup(norm, driver_cum):
    """Raise at the first step at which a column's field norm outgrows its
    integrated driver or is NaN.  ``norm`` and ``driver_cum`` hold one row
    per step, in sweep order, and one entry per column.  Where the bound
    overflows a double, the field's magnitude is the driver's doing, and
    the caller's finiteness checks judge it."""
    bound = _BLOWUP_FACTOR * driver_cum
    bad = ~(norm <= bound) & (driver_cum > 0.0) & np.isfinite(bound)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise StabilityError(
            f"field norm {norm[first]:.3e} exceeds {_BLOWUP_FACTOR:.0e} "
            f"times the integrated driver magnitude {driver_cum[first]:.3e}")


def _forward_sweep(prop) -> np.ndarray:
    """March the banded step from rest under the source.  Returns the
    (steps+1, dim) history with the state interleaved, row k the state at
    time k dt: row k + 1 first holds the source's response at step k, and
    one ``dgbmv`` adds the band's product with row k to it in place."""
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
    return states


def _impulse_responses(prop, rec_phi) -> np.ndarray:
    """The receivers' impulse responses H_i = (S^T)^i (rec_phi, 0) for
    i < steps, as the (steps, R, dim) array with the state interleaved: one
    transposed ``dgbmv`` per step and receiver on the band (positional
    arguments as in the forward sweep)."""
    n, steps, dim = prop.disc.n, prop.disc.n_steps, prop.dim
    n_rec = rec_phi.shape[0]
    lams = np.zeros((steps, n_rec, dim))
    lams[0, :, 0:2 * n:2] = rec_phi
    for i in range(1, steps):
        for r in range(n_rec):
            dgbmv(dim, dim, prop.kl, prop.ku, 1.0, prop.band,
                  lams[i - 1, r], 1, 0, 0.0, lams[i, r], 1, 0, 1, 1)
    # the largest magnitudes without a second array of the recursion's size;
    # max and min keep a NaN
    _check_blowup(np.maximum(lams.max(axis=2), -lams.min(axis=2)),
                  np.broadcast_to(np.abs(rec_phi).max(axis=1), (steps, n_rec)))
    return lams


def _build_jacobian(prop, states, rec_phi, weights) -> np.ndarray:
    """The Euclidean (R per, n) Jacobian at the propagator's wavespeed, rows
    receiver by receiver, from the interleaved forward history ``states``
    there, the (R, n) receiver rows ``rec_phi`` and the (steps+1, per) step
    ``weights`` W.  Row (r, p) is ``sum_j W[j, p] A_j``, A_j the sum over the
    stages s and steps k + i = j - 1 of ``G (E_s(k), D_s H_i)``: E_s(k) step
    k's stage dilatations, D_s the stage adjoints' element differences, H_i
    the receiver's impulse response and G the real element kernel, which
    pairs node l + b of E with element l of D into nodes l and l + 1.  The
    sum over k is a convolution, done by FFT; as G does not depend on the
    stage or the lag, the stage products P_b[l] = sum_s E_s[l + b] D_s[l]
    are summed in the frequency domain first and G applied once.  Each
    element block's maps read strided views of the history and of the
    recursion, with time on the last axis."""
    disc = prop.disc
    n, steps, n_rec = disc.n, disc.n_steps, rec_phi.shape[0]
    lams = _impulse_responses(prop, rec_phi)
    kernel = disc.gradient_kernel(prop.c)
    size = 2 * steps        # holds the linear convolution of two length-steps series
    factors = disc.source_factors.T
    lag_weights = weights[1:]     # rows for A_1 ... A_steps; step 0 is the rest state
    jac = np.zeros((n_rec, weights.shape[1], n))
    for (l0, l1), (cols, dilatations, stage_factors), (lam_cols, adjoints) in prop.block_maps:
        # (stage, node, step) and (receiver, stage, element, step)
        stage_e = (dilatations @ states[:-1, cols].T
                   + stage_factors @ factors).reshape(4, -1, steps)
        diffs = (adjoints @ lams[:, :, lam_cols].transpose(1, 2, 0)).reshape(
            n_rec, 4, -1, steps)
        # P_b[l] = sum_s E_s[l + b] D_s[l] over the stages, in the frequency domain
        pairs = np.zeros((2, n_rec, l1 - l0, size // 2 + 1), dtype=complex)
        for s in range(4):
            e = np.fft.rfft(stage_e[s], size)
            d = np.fft.rfft(diffs[:, s], size)
            pairs[0] += e[:-1] * d
            pairs[1] += e[1:] * d
        # node l + a of element l gets sum_b G[l, a, b] P_b[l]
        nodal = np.zeros((n_rec, l1 - l0 + 1, size // 2 + 1), dtype=complex)
        for a in range(2):
            nodal[:, a:l1 - l0 + a] += (kernel[l0:l1, a, 0, None] * pairs[0]
                                        + kernel[l0:l1, a, 1, None] * pairs[1])
        lags = np.fft.irfft(nodal, size)[..., :steps]     # A_1 ... A_steps
        jac[:, :, l0:l1 + 1] += (lags @ lag_weights).transpose(0, 2, 1)
    return jac.reshape(-1, n)


def _lumped_mass(mesh, coeff=None) -> np.ndarray:
    """The row sums of ``assemble_mass(mesh, coeff)``: the lumped mass."""
    return np.asarray(assemble_mass(mesh, coeff=coeff).sum(axis=1)).ravel()


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
    states: np.ndarray      # the interleaved forward history
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
        states = _forward_sweep(propagator)
        self.forward_solves += 1
        self._cache = _Linearization(m.copy(), propagator, states)
        return self._cache

    def _velocities(self, m) -> np.ndarray:
        """The (steps+1, n) velocity history at m, a strided view."""
        return self._prepare(m).states[:, 0:2 * self.n:2]

    def observe(self, m) -> np.ndarray:
        return self.obs_op.extract(self._velocities(m))

    def receiver_series(self, m) -> np.ndarray:
        """Velocity seismograms at the receivers, one column each, every step."""
        return self._velocities(m) @ self.obs_op.rec_phi.T

    def jacobian(self, m) -> np.ndarray:
        """The q x n Jacobian at m, from one impulse response per receiver;
        read-only, cached with the forward solve."""
        lin = self._prepare(m)
        if lin.jacobian is None:
            jac = _build_jacobian(lin.propagator, lin.states, self.obs_op.rec_phi,
                                  self.obs_op.step_weights)
            jac.flags.writeable = False
            lin.jacobian = jac
            self.jacobian_builds += 1
        return lin.jacobian
