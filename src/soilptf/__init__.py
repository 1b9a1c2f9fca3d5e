"""Pedotransfer functions built on contrast-pattern aided regression.

Predicts soil water retention curves and saturated hydraulic conductivity
from basic soil properties, with explicit handling of measurement-scale
effects (sample internal diameter and length).
"""

__version__ = "0.1.0"

from importlib import import_module

# The module that defines each public name. A name, or a submodule named as
# an attribute, is imported on first use (PEP 562), so each command pays
# only for the modules it runs.
_EXPORTS = {
    "cpxr": ("CpxrConfig", "PxrModel", "train_cpxr", "train_cpxr_targets"),
    "data": ("Dataset", "assign_folds", "load_dataset", "select_columns"),
    "discretize": ("DiscretizationScheme", "build_scheme", "build_schemes", "mdl_discretize"),
    "evaluation": ("EvaluationReport", "compare", "cross_validate", "cross_validate_methods",
                   "metrics"),
    "hydrology": ("MODEL_CONFIGS", "ModelConfig", "VgParameters", "derived_water_contents",
                  "fit_vg", "fit_vg_curves", "texture_statistics", "vg_theta"),
    "linreg": ("LinearModel", "fit_local", "fit_local_targets"),
    "patterns": ("Item", "Pattern"),
    "synth": ("SynthConfig", "default_synth_config", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
