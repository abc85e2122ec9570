import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import linbayes as lb
from linbayes.models.linear import random_linear_model


@pytest.fixture
def mesh1d():
    return lb.build_mesh(1, 40, (0.0, 1.0))


@pytest.fixture
def mesh2d():
    return lb.build_mesh(2, (6, 6), ((0.0, 1.0), (0.0, 1.0)))


@pytest.fixture
def prior1d(mesh1d):
    return lb.build_prior(mesh1d, 3.0, lb.AnisotropySpec("isotropic", 0.02))


@pytest.fixture
def prior2d(mesh2d):
    return lb.build_prior(mesh2d, 2.0, lb.AnisotropySpec("isotropic", 0.05))


@pytest.fixture
def linear_problem(prior2d):
    """Small 2D linear inverse problem with synthetic data."""
    model = random_linear_model(prior2d.mspace, q=10, noise_sigma=0.05, seed=7)
    rng = np.random.default_rng(5)
    m_true = prior2d.mean + 0.4 * rng.standard_normal(prior2d.n)
    y_obs = lb.synthesize_data(model, m_true, 0.05, seed=11)
    return prior2d, model, m_true, y_obs


@pytest.fixture
def wave_small():
    """100-element wave model prepared for derivative checks."""
    mesh = lb.build_mesh(1, 100, (0.0, 1.0))
    src = lb.SourceSpec(position=0.2, width=0.03, time_center=0.1,
                        time_std=0.03, amplitude=5.0)
    wcfg = lb.WaveConfig(mesh=mesh, dt=0.004, source=src)
    obs = lb.ObservationSetup(receiver_positions=(0.8,),
                              sample_times=tuple(np.linspace(0.1, 0.8, 40)),
                              noise_sigma=0.01, fourier_truncation=9)
    model = lb.WaveModel(wcfg, obs)
    m = 1.0 + 0.05 * np.sin(2 * np.pi * mesh.node_coords[:, 0])
    return mesh, model, m
