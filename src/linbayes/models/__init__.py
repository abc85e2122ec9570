from .base import ForwardModel, ObservationSetup, synthesize_data
from .linear import LinearMapModel
from .wave1d import SourceSpec, StateHistory, WaveConfig, WaveModel

__all__ = [
    "ForwardModel", "ObservationSetup", "synthesize_data", "LinearMapModel",
    "SourceSpec", "StateHistory", "WaveConfig", "WaveModel",
]
