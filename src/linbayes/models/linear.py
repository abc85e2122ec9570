"""Explicit linear parameter-to-observable map, the oracle-friendly model.

``observe(m) = G m`` for a dense matrix G, so ``jacobian(m)`` is G itself, the
linearization is exact, and everything downstream (MAP point, posterior
covariance) has a closed dense form that tests can compare against.
"""

from __future__ import annotations

import numpy as np

from ..fem import MassSpace
from .base import ForwardModel


class LinearMapModel(ForwardModel):
    def __init__(self, operator: np.ndarray, mspace: MassSpace, noise_sigma: float):
        self.operator = np.asarray(operator, dtype=float)
        if self.operator.ndim != 2 or self.operator.shape[1] != mspace.n:
            raise ValueError(
                f"operator shape {self.operator.shape} incompatible with n={mspace.n}")
        if noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be positive, got {noise_sigma}")
        self.mspace = mspace
        self.noise_sigma = float(noise_sigma)

    @property
    def n(self) -> int:
        return self.operator.shape[1]

    @property
    def q(self) -> int:
        return self.operator.shape[0]

    def observe(self, m) -> np.ndarray:
        m = np.asarray(m, float)
        if m.shape != (self.n,):
            raise ValueError(f"parameter has shape {m.shape}, expected ({self.n},)")
        return self.operator @ m

    def jacobian(self, m) -> np.ndarray:
        return self.operator


def random_linear_model(mspace: MassSpace, q: int, noise_sigma: float,
                        seed: int) -> LinearMapModel:
    """Seeded dense random map, used by configs and test harnesses."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q, mspace.n)) / np.sqrt(mspace.n)
    return LinearMapModel(g, mspace, noise_sigma)
