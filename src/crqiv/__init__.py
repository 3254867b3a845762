"""Instrumental-variable estimation of structural quantile functions for
competing-risks durations under random right censoring.

The package estimates, for each treatment level, the quantile function of
the duration attributable to a primary cause, using a categorical
instrument to handle treatment endogeneity. Point estimates cover the
quantile range where the system is point identified; beyond it, outer
bounds are computed. Bootstrap bands, synthetic-data designs with known
truth, and a Monte Carlo harness round out the toolkit.
"""

from ._rng import stream, substream_seed
from .data import (
    CAUSE1,
    CAUSE2,
    CENSORED,
    CellIndex,
    DataValidationError,
    Dataset,
    ObservationRecord,
    cell_counts,
    load_csv,
    resample,
    save_csv,
    swap_causes,
)
from .survival import (
    CellProcess,
    CountingProcesses,
    StepFunction,
    aalen_johansen_cause1,
    aalen_johansen_incidence,
    build_counting_processes,
    incidence_from,
    product_limit_survival,
)
from .smoothing import (
    SmoothedCurve,
    default_bandwidth,
    epanechnikov_cdf,
    rule_of_thumb_bandwidth,
    smooth,
)
from .surface import SmoothedSurvivalSurface, assemble_surface
from .optim import CERT_TOL, MinimizeResult, minimize_box_multistart
from .estimator import (
    EstimationError,
    FrontierEstimates,
    QuantileCurveFit,
    QuantileGrid,
    WeightingPolicy,
    default_delta,
    estimate_caps,
    estimate_y1,
    fit_curve,
    naive_curve,
    objective,
    residual_system,
    residual_vector,
)
from .derived import (
    DerivedLevel,
    MonotoneCurve,
    RankConditionReport,
    derived_quantities,
    rank_condition_diagnostic,
)
from .bounds import (
    BoundFrontiers,
    IntervalProduct,
    OuterSet,
    capped_residual,
    outer_set,
    outer_set_2d,
    outer_set_recursive,
    verify_membership,
)
from .inference import (
    BootstrapConfig,
    ConfidenceBand,
    CoverageResult,
    bootstrap_band,
    coverage_study,
    percentile_bounds,
)
from .simulate import (
    DgpSpec,
    GroundTruth,
    LatentTrace,
    McResult,
    TrueSurface,
    generate,
    mc_study,
    true_phi,
)

__version__ = "0.1.0"
