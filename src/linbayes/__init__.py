"""Matrix-free linearized Bayesian inversion over FEM parameter fields."""

from .errors import (ConfigError, InvalidParameterError, MissingArtifactError,
                     SolverFailure, StabilityError)
from .fem import (AnisotropySpec, MassSpace, Mesh, assemble_mass,
                  assemble_prior_stiffness, assemble_weighted_gradient_stiffness,
                  build_mesh)
from .lowrank import (EigenDecomposition, LowRankPosterior, lanczos_eigs,
                      prior_preconditioned_hessian, truncation_error_bound)
from .map_solver import MapResult, find_map, gradient, objective
from .models import (ForwardModel, LinearMapModel, ObservationSetup, SourceSpec,
                     WaveConfig, WaveModel, synthesize_data)
from .pipeline import PipelineConfig, RunArtifacts, run_pipeline
from .prior import PriorModel, build_prior

__all__ = [
    "AnisotropySpec", "ConfigError", "EigenDecomposition", "ForwardModel",
    "InvalidParameterError", "LinearMapModel", "LowRankPosterior", "MapResult",
    "MassSpace", "Mesh", "MissingArtifactError",
    "ObservationSetup", "PipelineConfig", "PriorModel", "RunArtifacts",
    "SolverFailure", "SourceSpec", "StabilityError",
    "WaveConfig", "WaveModel", "assemble_mass",
    "assemble_prior_stiffness", "assemble_weighted_gradient_stiffness",
    "build_mesh", "build_prior", "find_map", "gradient", "lanczos_eigs", "objective",
    "prior_preconditioned_hessian", "run_pipeline",
    "synthesize_data", "truncation_error_bound",
]
