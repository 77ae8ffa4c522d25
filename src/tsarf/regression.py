"""Least-squares line kernel shared by every forecasting stage.

Every regression in TSARF fits a line y = b0 + b1·x, so the kernel fits a
stack of predictors against a stack of responses of the same shape, centred
on the means x̄ and ȳ of each system: b1 = Σ(x - x̄)(y - ȳ) / Sxx and
b0 = ȳ - b1·x̄. Sxx is Chan, Golub & LeVeque's corrected two-pass sum
Σ(x - x̄)² - (Σ(x - x̄))²/n (Amer. Statistician 37(3), 1983). Centring takes
the offset of the times out of every sum, so a window far from t = 0 keeps
its digits, and the second term of Sxx takes out the rounding of x̄. Every
sum is an ``np.add.reduce`` over the last axis of a C-ordered array and no
step calls BLAS, so a fit's bits follow neither OpenBLAS's kernel nor the
memory layout of the arrays passed in.

A system fails when its sums or coefficients are not finite (overflow) or
when Sxx is not above SINGULARITY_RTOL·Σ(x - x̄)² (singular). By
Cauchy-Schwarz that happens only when the times are equal up to the rounding
of x̄, and the rule depends on neither the scale nor the offset of the
times. Both are per-system masks, so the first failing system of a stack is
found without refitting anything.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, UsageError

#: Least share of Σ(x - x̄)² that Sxx must keep for a system to count as regular.
SINGULARITY_RTOL = 1e-12


def design_matrix(x) -> np.ndarray:
    """Stack an intercept column of ones against the predictor values.

    A ``(n,)`` predictor gives an ``(n, 2)`` design; a ``(W, k)`` stack of
    predictors gives a ``(W, k, 2)`` stack of designs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise UsageError("predictor values must be one- or two-dimensional")
    return np.stack([np.ones_like(x), x], axis=-1)


def ols_fit(x, y) -> np.ndarray:
    """Least-squares coefficients (b0, b1) of the line y = b0 + b1·x.

    x is one ``(n,)`` predictor or a ``(W, k)`` stack of W, and y the
    response of the same shape. The result is (2,) or (W, 2). Each system of
    a stack gets bitwise the coefficients it would get on its own.

    Raises RankDeficiencyError when the sums or the coefficients overflow, or
    when the times of a system are equal up to rounding. Its ``index`` is the
    first failing system (0 for a single predictor) and its message is that
    system's own.
    """
    x = np.asarray(x, dtype=float, order="C")
    y = np.asarray(y, dtype=float, order="C")
    if x.ndim not in (1, 2):
        raise UsageError(f"predictor must have shape (n,) or (W, k), got {x.shape}")
    if y.shape != x.shape:
        raise UsageError(f"response shape {y.shape} does not match predictor shape {x.shape}")
    n_obs = x.shape[-1]
    if n_obs < 2:
        raise UsageError(f"need at least 2 observations to fit a line, got {n_obs}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise UsageError("predictor and response must be finite")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x_mean = np.add.reduce(x, axis=-1) / n_obs
        y_mean = np.add.reduce(y, axis=-1) / n_obs
        dx = x - x_mean[..., None]
        # an overflowing mean or product leaves one of these sums inf or nan
        sums = [np.add.reduce(a, axis=-1) for a in (dx, dx * dx, dx * (y - y_mean[..., None]))]
        sdx, sxx, sxy = sums
        sxx_corrected = sxx - sdx * sdx / n_obs
        singular = ~(sxx_corrected > SINGULARITY_RTOL * sxx)
        b1 = sxy / sxx_corrected
        beta = np.stack([y_mean - b1 * x_mean, b1], axis=-1)
        # a singular system's coefficients mean nothing; a regular one's may overflow
        overflow = ~(np.isfinite(sums).all(axis=0) & (singular | np.isfinite(beta).all(axis=-1)))
    failed = overflow | singular
    if failed.any():
        index = int(np.argmax(failed))
        if overflow.flat[index]:
            exc = RankDeficiencyError("normal equations overflow")
        else:
            exc = RankDeficiencyError(f"normal equations singular to tolerance {SINGULARITY_RTOL:g}")
        exc.index = index
        raise exc
    return beta
