"""The public surface and the shape contract shared by the forward models."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

import linbayes as lb
import linbayes.cli
import linbayes.fem
import linbayes.lowrank
import linbayes.models
import linbayes.models.wave1d
import linbayes.pipeline
from linbayes.errors import ConfigError
from linbayes.fem import MassSpace
from linbayes.models.linear import random_linear_model
from linbayes.models.wave1d import _validate_wavespeed

# Standalone wave solvers, mass-weighted adjoint kinds and per-column
# linearized sweeps that WaveModel, LinearMapModel and the Jacobian built by
# one block reverse sweep replaced, the block tiling and per-step stage
# helpers that the assembled wave propagator replaced, the tridiagonal band
# class and colored-probe assembly that the sparse rate matrix replaced, the
# sampling-factor wrapper that LowRankPosterior.apply_sampling_factor
# replaced, the second readers of the raw config that the parsed
# PipelineConfig replaced, the per-point tensor that
# AnisotropySpec.quadrature_tensors replaced, and the per-dimension shape
# tables and per-point location that the one Q1 reference element in fem
# replaced, the MAP solver's settings that its module constants replaced,
# the sparse transposed step that the banded step replaced, and the
# command-line seed and draw-count overrides and the stage flag that the
# config and one command per stage replaced, and the wave config's CFL
# number, the linear map's scale and the prior's stored alpha and
# anisotropy, which nothing varied or read, the inverse-crime switch, now
# always on for a wave model, the Lanczos record the low-rank posterior
# kept beside its eigenpairs, the per-block row cuts and second RK4
# input that one RK4 run with node-major stage maps replaced, and the free
# radial tensor and AnisotropySpec's second and third constructors that its
# one constructor and its tensor method replaced; nothing may bring them
# back under these names.
REMOVED = ("solve_forward", "solve_incremental_forward", "solve_adjoint",
           "solve_incremental_adjoint", "AdjointSolution", "_require_partner",
           "apply_adjoint", "_incremental_sweep", "_stage_dilatations",
           "step_seeds", "_flat", "_tiled", "apply_transpose", "rate_transpose",
           "source_stages", "accumulate_wavespeed_gradient", "SamplingFactor",
           "sampling_factor", "_build_anisotropy", "_sample_times",
           "_build_observation", "_build_wave_model", "build_map_solver_config",
           "from_dict", "tensor_at", "seeds", "_reverse_sweep", "gradient_factors",
           "_TriBand", "_colored_probes", "_from_probes", "_state_images", "_probe_step",
           "wavespeed_coupling", "grad_pairing", "_shape_1d", "_DSHAPE_1D",
           "_quad_points_1d", "_shape_quad", "_shape_quad_grads", "_locate_axis",
           "_basis_support", "_VARIANCE_CHUNK", "MapSolverConfig", "grad_tol_rel",
           "max_cg_iters", "step_transpose", "SEED_FLAGS", "_seeds", "_check_override",
           "_STAGE_COMMANDS", "cfl", "scale", "alpha", "anisotropy",
           "mitigate_inverse_crime", "eig", "element_blocks", "_split_rows",
           "stage_rate_inputs", "final_time", "rho", "nodal_rho", "rho_q", "inv_mrho",
           "residual_norms", "radial_anisotropy_tensor", "isotropic", "radial")


def test_exports_resolve():
    for module in (lb, lb.models):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_are_gone(wave_small, prior1d):
    _, model, m = wave_small
    # the discretization, propagator, wave config and prior as instances,
    # which also carry the attributes their constructors set
    for owner in (lb, model.config, prior1d, lb.models.linear, lb.WaveConfig,
                  lb.models, lb.models.wave1d, lb.fem,
                  lb.models.wave1d._ObservationOperator, model.disc,
                  lb.models.wave1d._Propagator(model.disc, m), lb.WaveModel,
                  lb.lowrank, lb.LowRankPosterior, lb.prior, lb.PriorModel,
                  lb.pipeline, lb.cli, lb.PipelineConfig, lb.map_solver,
                  lb.AnisotropySpec, lb.Mesh,
                  lb.lanczos_eigs(lambda v: v, prior1d.mspace, r_max=1)):
        for name in REMOVED:
            assert not hasattr(owner, name), f"{owner!r}.{name}"
            assert name not in getattr(owner, "__all__", ())
    assert list(inspect.signature(lb.find_map).parameters) == ["prior", "model", "y_obs"]
    assert list(inspect.signature(lb.run_pipeline).parameters) == ["config", "outdir", "stages"]
    assert list(inspect.signature(random_linear_model).parameters) == [
        "mspace", "q", "noise_sigma", "seed"]
    assert list(inspect.signature(lb.build_prior).parameters) == [
        "mesh", "alpha", "anisotropy", "mean"]
    assert list(inspect.signature(lb.PriorModel).parameters) == [
        "mesh", "mspace", "stiffness", "mean"]
    assert list(inspect.signature(lb.LowRankPosterior).parameters) == [
        "prior", "m_map", "lambdas", "vectors"]
    assert [field.name for field in dataclasses.fields(lb.WaveConfig)] == [
        "mesh", "dt", "source"]
    assert not hasattr(model.config, "n_steps")
    assert "mitigate_inverse_crime" not in {
        field.name for field in dataclasses.fields(lb.PipelineConfig)}


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


_MESH = lb.build_mesh(1, 4, (0.0, 1.0))
_ISO = lb.AnisotropySpec("isotropic", 1.0)


def _source(width=0.05):
    return lb.SourceSpec(position=0.3, width=width, time_center=0.1, time_std=0.03)


def _wave_config():
    return lb.WaveConfig(mesh=_MESH, dt=0.01, source=_source())


def _linear_model():
    return random_linear_model(MassSpace(lb.assemble_mass(_MESH)), q=2, noise_sigma=0.1, seed=0)


# each input check of the library: the call, the exception, its message
INPUT_CHECKS = {
    "basis_matrix_dim": (lambda: _MESH.basis_matrix([[0.5, 0.5]]), ValueError,
                         "expected points of dimension 1, got shape (1, 2)"),
    "build_mesh_counts": (lambda: lb.build_mesh(2, (3,), ((0, 1), (0, 1))), ValueError,
                          "expected 2 element counts, got (3,)"),
    "build_mesh_bounds": (lambda: lb.build_mesh(1, 3, ((0, 1), (0, 1))), ValueError,
                          "expected 1 (lo, hi) bound pairs, got shape (2, 2)"),
    "radial_beta": (lambda: lb.AnisotropySpec("radial", 0.0, 0.5, 1.0), ValueError,
                    "beta must be positive, got 0.0"),
    "radial_theta": (lambda: lb.AnisotropySpec("radial", 1.0, 1.5, 1.0), ValueError,
                     "theta must lie in (0, 1], got 1.5"),
    "radial_radius": (lambda: lb.AnisotropySpec("radial", 1.0, 0.5, 0.0), ValueError,
                      "radius must be positive, got 0.0"),
    "spec_beta": (lambda: lb.AnisotropySpec("isotropic", 0.0), ValueError,
                  "beta must be positive, got 0.0"),
    "spec_theta": (lambda: lb.AnisotropySpec("radial", 1.0, 0.0, 1.0), ValueError,
                   "theta must lie in (0, 1], got 0.0"),
    "spec_radius": (lambda: lb.AnisotropySpec("radial", 1.0, 0.5, -1.0), ValueError,
                    "radius must be positive, got -1.0"),
    "source_width": (lambda: _source(width=0.0), ValueError,
                     "source width and time_std must be positive"),
    "sample_times": (lambda: lb.ObservationSetup((0.5,), (), noise_sigma=0.1), ValueError,
                     "at least one sample time is required"),
    "wave_dt": (lambda: lb.WaveConfig(mesh=_MESH, dt=0.0, source=_source()), ConfigError,
                "dt must be positive"),
    "wave_steps": (lambda: lb.WaveModel(
        _wave_config(), lb.ObservationSetup((0.6,), (1e308,), noise_sigma=0.1)),
        ConfigError, "the last sample time is inf steps of dt = 0.01"),
    "wavespeed_shape": (lambda: _validate_wavespeed(_wave_config(), np.ones(3)), ValueError,
                        "wavespeed has shape (3,), expected (5,)"),
    "wave_mass_space": (lambda: lb.WaveModel(
        _wave_config(), lb.ObservationSetup((0.6,), (0.2,), noise_sigma=0.1),
        mspace=MassSpace(lb.assemble_mass(lb.build_mesh(1, 2, (0.0, 1.0))))),
        ValueError, "mass space does not match the wave mesh"),
    "linear_observe": (lambda: _linear_model().observe(np.zeros(3)), ValueError,
                       "parameter has shape (3,), expected (5,)"),
    "prior_mean": (lambda: lb.build_prior(_MESH, 1.0, _ISO, mean=np.zeros(3)), ValueError,
                   "mean has shape (3,), expected (5,)"),
    "apply_jacobian": (lambda: _linear_model().apply_jacobian(np.zeros(5), np.zeros(3)),
                       ValueError, "direction has shape (3,), expected (5,)"),
}


@pytest.mark.parametrize("check", INPUT_CHECKS)
def test_input_checks_raise_their_message(check):
    call, exc, message = INPUT_CHECKS[check]
    with pytest.raises(exc, match=re.escape(message)):
        call()
