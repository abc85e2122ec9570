from .base import ForwardModel, ObservationSetup, synthesize_data
from .linear import LinearMapModel
from .wave1d import SourceSpec, WaveConfig, WaveModel

__all__ = [
    "ForwardModel", "ObservationSetup", "synthesize_data", "LinearMapModel",
    "SourceSpec", "WaveConfig", "WaveModel",
]
