"""Three-stage adjusted regression forecasting over cumulative growth curves.

Stage 1 fits a straight line to each block of k consecutive training points
and records the coefficients. Stage 2 regresses each coefficient on the
window index and extrapolates one window ahead. Stage 3 corrects the
extrapolation with the last window's residual, then blends it 50/50 with a
moving average of the window coefficients immediately before the last
window. The result is the "predicted line" for the next, unseen window.

Windows are non-overlapping blocks of exactly k points aligned to the end of
training; when k does not divide the training length the oldest points are
dropped, so the final window always ends at the training boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GrowthCurve, auto_window_size
from .errors import (
    DataError,
    DegenerateWindowError,
    InsufficientDataError,
    RankDeficiencyError,
    UsageError,
)
# unused, but perfbench/tracing.py wraps design_matrix here and fails on an absent name
from .regression import design_matrix, ols_fit


@dataclass(frozen=True)
class CoefficientHistory:
    """Per-window line coefficients: row w holds (intercept, slope) of window w,
    which covers training indices n_dropped + w*k up to, not including,
    n_dropped + (w+1)*k."""

    matrix: np.ndarray
    k: int
    n_dropped: int

    @property
    def W(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class TsarfModel:
    """Predicted-line coefficients plus every stage's intermediates."""

    coefficients: np.ndarray  # final (intercept, slope) after all stages
    raw_forecast: np.ndarray
    corrected_forecast: np.ndarray
    epsilon: np.ndarray
    trend: np.ndarray  # stage 2: row rho holds (intercept, slope) over the window index
    history: CoefficientHistory
    d_used: int
    d_auto: bool
    d_fallback: bool
    ma_candidates: tuple[tuple[int, float], ...]


def fit_windows(train: GrowthCurve, k: int) -> CoefficientHistory:
    """Fit a line (raw time -> cumulative count) to every window in one call.

    The windows are non-overlapping blocks of exactly k points, aligned to the
    training end: the first train.n % k points are dropped so the last window
    ends at the last training point, and the rest reshapes to one (W, k)
    stack of predictors. Requires at least two full windows.
    """
    if k < 3:
        raise UsageError(f"window size k must be >= 3, got {k}")
    n = train.n
    if n < 2 * k:
        raise InsufficientDataError(
            f"need at least {2 * k} training points for window size {k}, have {n}"
        )
    n_dropped = n % k
    t = train.times[n_dropped:].reshape(-1, k)
    y = train.counts[n_dropped:].reshape(-1, k)
    try:
        matrix = ols_fit(t, y)
    except RankDeficiencyError as exc:
        start = n_dropped + exc.index * k
        raise DegenerateWindowError(
            f"window {exc.index + 1} (points {start + 1}..{start + k}) cannot support a line fit: {exc}"
        ) from None
    return CoefficientHistory(matrix=matrix, k=k, n_dropped=n_dropped)


def _trend_at(trend: np.ndarray, index: float) -> np.ndarray:
    """Trend value of every coefficient at the given window index."""
    return trend[:, 0] + index * trend[:, 1]


def forecast_coefficients(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regress each coefficient column of the (W, 2) matrix on the window
    index and extrapolate to W + 1.

    Returns the (2, 2) trend, whose row rho holds (intercept, slope) of
    coefficient rho over the window index, and the raw forecast. The two
    coefficient columns are fitted as one stack of two systems on the same
    window index.
    """
    n_windows = len(matrix)
    if n_windows < 2:
        raise InsufficientDataError(
            f"coefficient trend needs at least 2 windows, have {n_windows}"
        )
    index = np.arange(1, n_windows + 1, dtype=float)
    trend = ols_fit(np.tile(index, (2, 1)), matrix.T)
    return trend, _trend_at(trend, n_windows + 1)


def error_correct(raw: np.ndarray, trend: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift the raw forecast by the trend residual at the last window.

    epsilon is the gap between the last window's fitted coefficients and the
    trend's value there, so the shifted trend passes exactly through them.
    """
    epsilon = matrix[-1] - _trend_at(trend, len(matrix))
    return raw + epsilon, epsilon


def apply_moving_average(corrected: np.ndarray, matrix: np.ndarray, d: int) -> np.ndarray:
    """Blend the corrected forecast 50/50 with the mean of the d window
    coefficient rows immediately before the last window."""
    n_windows = len(matrix)
    if not 1 <= d <= n_windows - 1:
        raise UsageError(
            f"moving-average length d must be in 1..{n_windows - 1}, got {d}"
        )
    ma = matrix[n_windows - 1 - d: n_windows - 1].mean(axis=0)
    return 0.5 * (corrected + ma)


def select_ma_length(
    history: CoefficientHistory,
    train: GrowthCurve,
) -> tuple[int, tuple[tuple[int, float], ...], bool]:
    """Pick the moving-average length with the least holdout MSE.

    The last training window is held out. Stage 2 and the error correction
    do not depend on d, so they run once on the first W - 1 windows; the
    moving average for every candidate d in 1..W-2 comes from one reversed
    cumulative sum of the coefficient rows before the held-out window, and
    all W - 2 blended lines are scored against the held-out points at once.
    RMSEs within 1000·eps·max|y_hold| of the least differ only by rounding,
    so they tie; ties break toward the smallest d. With fewer than 3 windows
    there is nothing to hold out, so d = 1 is returned as a fallback.
    """
    n_windows = history.W
    if n_windows < 3:
        return 1, (), True

    sub = history.matrix[:-1]
    t_hold = train.times[-history.k:]
    y_hold = train.counts[-history.k:]

    trend, raw = forecast_coefficients(sub)
    corrected, _ = error_correct(raw, trend, sub)
    lengths = np.arange(1, n_windows - 1)
    # row d-1 of ma: mean of the d rows before the last row of sub
    ma = np.cumsum(sub[-2::-1], axis=0) / lengths[:, None]
    coeffs = 0.5 * (corrected + ma)
    pred = coeffs[:, :1] + coeffs[:, 1:] * t_hold
    mses = np.mean((pred - y_hold) ** 2, axis=1)
    candidates = tuple(zip(lengths.tolist(), mses.tolist()))
    rmses = np.sqrt(mses)
    tolerance = 1000 * np.finfo(float).eps * np.abs(y_hold).max()
    return int(np.argmax(rmses <= rmses.min() + tolerance)) + 1, candidates, False


@np.errstate(over="ignore", invalid="ignore")
def predicted_line(model: TsarfModel, times) -> np.ndarray:
    """Evaluate the predicted line at the requested times; a value past float64 reads inf."""
    times = np.asarray(times, dtype=float)
    return model.coefficients[0] + model.coefficients[1] * times


@np.errstate(over="ignore", invalid="ignore")
def window_fitted_values(model: TsarfModel, train: GrowthCurve) -> np.ndarray:
    """Per-window fitted line evaluated over training; NaN for dropped points."""
    history = model.history
    fitted = np.full(train.n, np.nan)
    t = train.times[history.n_dropped:].reshape(history.W, history.k)
    fitted[history.n_dropped:] = (history.matrix[:, :1] + history.matrix[:, 1:] * t).ravel()
    return fitted


@np.errstate(over="ignore", invalid="ignore")
def tsarf_forecast(train: GrowthCurve, k: int | None = None, d: int | None = None) -> TsarfModel:
    """Run the full three-stage pipeline on a training curve.

    k is the number of points per window and d the moving-average length;
    ``None`` picks k = max(3, train.n // 10) and the d with the least holdout
    MSE. ``fit_windows`` rejects k < 3 and ``apply_moving_average`` a d
    outside 1..W-1. A holdout MSE past float64 is inf, and a predicted line
    past float64 raises DataError.
    """
    history = fit_windows(train, auto_window_size(train.n) if k is None else k)
    d_auto = d is None
    if d_auto:
        d, candidates, fallback = select_ma_length(history, train)
    else:
        candidates, fallback = (), False

    trend, raw = forecast_coefficients(history.matrix)
    corrected, epsilon = error_correct(raw, trend, history.matrix)
    final = apply_moving_average(corrected, history.matrix, d)
    if not np.isfinite(final).all():
        raise DataError(f"the predicted line {final.tolist()} overflows float64")
    return TsarfModel(
        coefficients=final,
        raw_forecast=raw,
        corrected_forecast=corrected,
        epsilon=epsilon,
        trend=trend,
        history=history,
        d_used=d,
        d_auto=d_auto,
        d_fallback=fallback,
        ma_candidates=candidates,
    )
