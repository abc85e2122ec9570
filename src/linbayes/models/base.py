"""Parameter-to-observable map contract shared by all forward models.

A forward model maps a nodal parameter vector (living in the mass-weighted
space) to a Euclidean observation vector.  It provides two things:

* ``observe(m)``    the map itself,
* ``jacobian(m)``   its derivative at m, a Euclidean q x n matrix.

``ForwardModel`` derives everything inversion needs from that pair, once for
every model:

* ``apply_jacobian(m, dm)``           ``J dm``, the directional derivative,
* ``apply_jacobian_adjoint(m, dy)``   ``M^-1 J^T dy``, its mass-weighted adjoint,
* ``misfit_gradient(m, y_obs)``       weighted gradient of the data misfit,
* ``gauss_newton_hessian_action``     the misfit Hessian without second-order
                                      terms: adjoint o noise-weighting o jacobian.

Observation noise is additive Gaussian with covariance ``sigma^2 I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ObservationSetup:
    """Receivers, sampling times, and the noise level of the observations.

    If ``fourier_truncation`` is set, each receiver's sampled time series is
    mapped to its first ``fourier_truncation`` real-DFT modes (one DC value
    plus cosine/sine pairs), giving ``2 * fourier_truncation - 1`` observables
    per receiver; otherwise the raw samples are the observables.
    """

    receiver_positions: tuple
    sample_times: tuple
    noise_sigma: float
    fourier_truncation: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "receiver_positions",
                           tuple(float(p) for p in self.receiver_positions))
        object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
        if len(self.receiver_positions) == 0:
            raise ValueError("at least one receiver is required")
        times = np.asarray(self.sample_times)
        if len(times) == 0:
            raise ValueError("at least one sample time is required")
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing and positive")
        if self.noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if self.fourier_truncation is not None:
            k = self.fourier_truncation
            if k < 1 or k > len(times) // 2 + 1:
                raise ValueError(
                    f"fourier_truncation must lie in [1, {len(times) // 2 + 1}], got {k}")

    @property
    def per_receiver(self) -> int:
        if self.fourier_truncation is None:
            return len(self.sample_times)
        return 2 * self.fourier_truncation - 1

    @property
    def q(self) -> int:
        return len(self.receiver_positions) * self.per_receiver


class ForwardModel:
    """Base class implementing the linearized actions and the misfit
    operations from ``observe`` and ``jacobian``.

    Subclasses provide those two plus the attributes ``mspace``, ``n``, ``q``
    and ``noise_sigma``.  ``forward_solves`` and ``jacobian_builds`` count the
    PDE solves a model runs (none for an explicit map).
    """

    forward_solves = 0
    jacobian_builds = 0

    def observe(self, m):
        raise NotImplementedError

    def jacobian(self, m):
        raise NotImplementedError

    def apply_jacobian(self, m, dm) -> np.ndarray:
        dm = np.asarray(dm, float)
        if dm.shape != (self.n,):
            raise ValueError(f"direction has shape {dm.shape}, expected ({self.n},)")
        return self.jacobian(m) @ dm

    def apply_jacobian_adjoint(self, m, dy) -> np.ndarray:
        dy = np.asarray(dy, float)
        if dy.shape != (self.q,):
            raise ValueError(f"data vector has shape {dy.shape}, expected ({self.q},)")
        return self.mspace.solve(self.jacobian(m).T @ dy)

    def misfit_gradient(self, m, y_obs) -> np.ndarray:
        """Weighted gradient of ``1/2 |f(m) - y_obs|^2 / sigma^2`` at m."""
        residual = self.observe(m) - np.asarray(y_obs, float)
        return self.apply_jacobian_adjoint(m, residual / self.noise_sigma**2)

    def misfit(self, m, y_obs) -> float:
        r = self.observe(m) - np.asarray(y_obs, float)
        return 0.5 * float(r @ r) / self.noise_sigma**2

    def gauss_newton_hessian_action(self, m, dm) -> np.ndarray:
        """Action of the noise-weighted normal operator; symmetric PSD in the
        weighted inner product."""
        dy = self.apply_jacobian(m, dm)
        return self.apply_jacobian_adjoint(m, dy / self.noise_sigma**2)


def synthesize_data(model: ForwardModel, m_true, noise_sigma, seed) -> np.ndarray:
    """Noisy synthetic observations ``observe(m_true) + sigma * xi``.

    The noise stream is drawn from a generator seeded with ``seed``, so the
    result is bitwise reproducible.
    """
    y = model.observe(np.asarray(m_true, float))
    xi = np.random.default_rng(seed).standard_normal(y.shape[0])
    return y + noise_sigma * xi
