"""Instrumental-variable estimation of structural quantile functions for
competing-risks durations under random right censoring.

The package estimates, for each treatment level, the quantile function of
the duration attributable to a primary cause, using a categorical
instrument to handle treatment endogeneity. Point estimates cover the
quantile range where the system is point identified; beyond it, outer
bounds are computed. Bootstrap bands, synthetic-data designs with known
truth, and a Monte Carlo harness round out the toolkit.

The public names below are resolved on first use (PEP 562), so ``import
crqiv`` loads neither numpy nor any submodule. Each access returns the
defining module's current object; nothing is cached here.
"""

import importlib

_EXPORTS = {
    "_rng": ("stream", "substream_seed"),
    "data": (
        "CAUSE1", "CAUSE2", "CENSORED", "CellIndex", "DataValidationError", "Dataset", "load_csv",
        "resample", "save_csv", "swap_causes",
    ),
    "survival": (
        "CellProcess", "CountingProcesses", "StepFunction", "aalen_johansen_cause1",
        "aalen_johansen_incidence", "build_counting_processes", "incidence_from",
        "product_limit_survival",
    ),
    "smoothing": ("SmoothedCurve", "rule_of_thumb_bandwidth", "smooth"),
    "surface": ("EstimationError", "SmoothedSurvivalSurface", "assemble_surface", "residual_vector"),
    "optim": ("CERT_TOL", "MinimizeResult", "minimize_box_multistart"),
    "estimator": ("FrontierEstimates", "QuantileCurveFit", "QuantileGrid", "fit_curve", "naive_curve"),
    "derived": (
        "DerivedLevel", "MonotoneCurve", "RankConditionReport", "derived_quantities",
        "rank_condition_diagnostic",
    ),
    "bounds": (
        "BoundFrontiers", "IntervalProduct", "OuterSet", "capped_residual", "estimate_caps", "estimate_y1",
        "outer_set", "outer_set_2d", "outer_set_recursive", "verify_membership",
    ),
    "inference": (
        "BootstrapConfig", "ConfidenceBand", "CoverageResult", "bootstrap_band", "coverage_study",
    ),
    "simulate": (
        "DgpSpec", "GroundTruth", "LatentTrace", "McResult", "TrueSurface", "generate", "mc_study",
        "true_phi",
    ),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a library module, reachable from ``import crqiv`` as before
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
