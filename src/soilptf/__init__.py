"""Pedotransfer functions built on contrast-pattern aided regression.

Predicts soil water retention curves and saturated hydraulic conductivity
from basic soil properties, with explicit handling of measurement-scale
effects (sample internal diameter and length).
"""

__version__ = "0.1.0"

from .cpxr import CpxrConfig, PxrModel, train_cpxr, train_cpxr_targets
from .data import Dataset, assign_folds, load_dataset, select_columns
from .discretize import DiscretizationScheme, build_scheme, build_schemes, mdl_discretize
from .evaluation import EvaluationReport, compare, cross_validate, metrics
from .hydrology import (
    MODEL_CONFIGS,
    ModelConfig,
    VgParameters,
    derived_water_contents,
    fit_vg,
    fit_vg_curves,
    texture_statistics,
    vg_theta,
)
from .linreg import LinearModel, fit_local
from .patterns import Item, Pattern
from .synth import SynthConfig, default_synth_config, generate

__all__ = [
    "CpxrConfig",
    "Dataset",
    "DiscretizationScheme",
    "EvaluationReport",
    "Item",
    "LinearModel",
    "MODEL_CONFIGS",
    "ModelConfig",
    "Pattern",
    "PxrModel",
    "SynthConfig",
    "VgParameters",
    "assign_folds",
    "build_scheme",
    "build_schemes",
    "compare",
    "cross_validate",
    "default_synth_config",
    "derived_water_contents",
    "fit_local",
    "fit_vg",
    "fit_vg_curves",
    "generate",
    "load_dataset",
    "mdl_discretize",
    "metrics",
    "select_columns",
    "texture_statistics",
    "train_cpxr",
    "train_cpxr_targets",
    "vg_theta",
]
