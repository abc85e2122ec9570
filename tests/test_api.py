"""The public surface and the shape contract shared by the forward models."""

import numpy as np
import pytest

import linbayes as lb
import linbayes.fem
import linbayes.lowrank
import linbayes.models
import linbayes.models.wave1d
import linbayes.pipeline
from linbayes.models.linear import random_linear_model

# Standalone wave solvers, mass-weighted adjoint kinds and per-column
# linearized sweeps that WaveModel, LinearMapModel and the Jacobian built by
# one block reverse sweep replaced, the block tiling and per-step stage
# helpers that the assembled wave propagator replaced, the tridiagonal band
# class and colored-probe assembly that the sparse rate matrix replaced, the
# sampling-factor wrapper that LowRankPosterior.apply_sampling_factor
# replaced, the second readers of the raw config that the parsed
# PipelineConfig replaced, and the per-point tensor that
# AnisotropySpec.quadrature_tensors replaced; nothing may bring them back
# under these names.
REMOVED = ("solve_forward", "solve_incremental_forward", "solve_adjoint",
           "solve_incremental_adjoint", "AdjointSolution", "_require_partner",
           "apply_adjoint", "_incremental_sweep", "_stage_dilatations",
           "step_seeds", "_flat", "_tiled", "apply_transpose", "rate_transpose",
           "source_stages", "accumulate_wavespeed_gradient", "SamplingFactor",
           "sampling_factor", "_build_anisotropy", "_sample_times",
           "_build_observation", "_build_wave_model", "build_map_solver_config",
           "from_dict", "tensor_at", "seeds", "_reverse_sweep", "gradient_factors",
           "_TriBand", "_colored_probes", "_from_probes", "_state_images", "_probe_step",
           "wavespeed_coupling", "grad_pairing")


def test_exports_resolve():
    for module in (lb, lb.models):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_are_gone(wave_small):
    _, model, m = wave_small
    # the discretization and propagator as instances, which also carry the
    # attributes their constructors set
    for owner in (lb, lb.models, lb.models.wave1d, lb.fem,
                  lb.models.wave1d._ObservationOperator, model.disc,
                  lb.models.wave1d._Propagator(model.disc, m), lb.WaveModel,
                  lb.lowrank, lb.LowRankPosterior, lb.pipeline, lb.PipelineConfig,
                  lb.AnisotropySpec):
        for name in REMOVED:
            assert not hasattr(owner, name), f"{owner!r}.{name}"
            assert name not in getattr(owner, "__all__", ())


def _linear(request):
    prior = request.getfixturevalue("prior2d")
    model = random_linear_model(prior.mspace, q=8, noise_sigma=0.05, seed=3)
    return model, prior.mean


def _wave(request):
    _, model, m = request.getfixturevalue("wave_small")
    return model, m


@pytest.mark.parametrize("build", [_linear, _wave], ids=["linear", "wave"])
def test_adjoint_rejects_wrong_length_data(request, build):
    model, m = build(request)
    for q in (model.q - 1, model.q + 1):
        with pytest.raises(ValueError):
            model.apply_jacobian_adjoint(m, np.zeros(q))
    with pytest.raises(ValueError):
        model.apply_jacobian_adjoint(m, np.zeros((model.q, 1)))
    assert model.apply_jacobian_adjoint(m, np.zeros(model.q)).shape == (model.n,)
