"""Software-reliability forecasting over cumulative defect growth curves.

The centerpiece is the three-stage adjusted regression forecast: block-wise
line fits, a trend forecast over the fitted coefficients, and a residual
correction blended with a moving average of prior coefficients. Classical
NHPP growth models (Goel-Okumoto, delayed S-shaped, Weibull) serve as
baselines, scored side by side with predictive metrics.
"""

__version__ = "0.1.0"

from .dataset import (
    FailureTimes,
    GrowthCurve,
    SplitCurve,
    auto_split_len,
    load_failure_times,
    load_growth_curve_csv,
    read_curve_file,
    split,
    to_growth_curve,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateDataError,
    DegenerateWindowError,
    InsufficientDataError,
    MetricDomainError,
    RankDeficiencyError,
    TsarfError,
    UsageError,
)
from .metrics import evaluate_model, pmse, pp, prr
from .pipeline import (
    CoefficientHistory,
    StageTwoFit,
    TsarfConfig,
    TsarfModel,
    apply_moving_average,
    auto_window_size,
    error_correct,
    fit_windows,
    forecast_coefficients,
    predicted_line,
    select_ma_length,
    tsarf_forecast,
    window_fitted_values,
)
from .regression import design_matrix, ols_fit
from .srgm import (
    SrgmFit,
    SrgmKind,
    SrgmParams,
    fit_srgm,
    mvf,
    simulate_nhpp,
    srgm_predict,
)

__all__ = [
    "__version__",
    "FailureTimes",
    "GrowthCurve",
    "SplitCurve",
    "auto_split_len",
    "load_failure_times",
    "load_growth_curve_csv",
    "read_curve_file",
    "split",
    "to_growth_curve",
    "TsarfError",
    "UsageError",
    "DataError",
    "RankDeficiencyError",
    "InsufficientDataError",
    "DegenerateWindowError",
    "DegenerateDataError",
    "MetricDomainError",
    "ConvergenceError",
    "evaluate_model",
    "pmse",
    "prr",
    "pp",
    "TsarfConfig",
    "TsarfModel",
    "CoefficientHistory",
    "StageTwoFit",
    "auto_window_size",
    "fit_windows",
    "forecast_coefficients",
    "error_correct",
    "select_ma_length",
    "apply_moving_average",
    "predicted_line",
    "window_fitted_values",
    "tsarf_forecast",
    "design_matrix",
    "ols_fit",
    "SrgmKind",
    "SrgmParams",
    "SrgmFit",
    "mvf",
    "fit_srgm",
    "srgm_predict",
    "simulate_nhpp",
]
