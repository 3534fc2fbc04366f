"""Monotonicity-penalized regression with a small reverse-mode autodiff core.

Exports the sweep API and the error classes; the rest lives in submodules."""

from .data import SyntheticConfig, generate_synthetic
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DimlabError,
    NumericError,
    ParameterError,
)
from .experiments import ExperimentConfig, run_experiment
from .models import ModelConfig
from .training import TrainConfig, lambda_grid_search, select_lambda

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DimensionError",
    "DimlabError",
    "ExperimentConfig",
    "ModelConfig",
    "NumericError",
    "ParameterError",
    "SyntheticConfig",
    "TrainConfig",
    "generate_synthetic",
    "lambda_grid_search",
    "run_experiment",
    "select_lambda",
]
