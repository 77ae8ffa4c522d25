"""Ordinary least squares core shared by every forecasting stage.

Coefficients are found from the normal equations via a Cholesky
factorization, never an explicit inverse; singular systems are rejected by a
pivot threshold relative to the largest diagonal of X'X.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from .errors import RankDeficiencyError, UsageError

#: Relative pivot threshold below which the normal equations count as singular.
SINGULARITY_RTOL = 1e-12


def design_matrix(x) -> np.ndarray:
    """Stack an intercept column of ones against the predictor values."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise UsageError("predictor values must be one-dimensional")
    return np.column_stack([np.ones_like(x), x])


def ols_fit(X, y) -> np.ndarray:
    """Least-squares coefficients minimizing the sum of squared errors.

    Raises RankDeficiencyError when the smallest Cholesky pivot of X'X falls
    below SINGULARITY_RTOL times its largest diagonal entry.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise UsageError("design matrix must be two-dimensional")
    n_obs, m = X.shape
    if y.shape != (n_obs,):
        raise UsageError(f"response length {y.shape} does not match {n_obs} observations")
    if n_obs < m:
        raise UsageError(f"need at least {m} observations to fit {m} parameters, got {n_obs}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise UsageError("design matrix and response must be finite")

    gram = X.T @ X
    rhs = X.T @ y
    largest = float(np.max(np.diag(gram)))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("normal equations are singular") from None
    if float(np.min(np.diag(chol)) ** 2) <= SINGULARITY_RTOL * largest:
        raise RankDeficiencyError(
            f"normal equations singular to tolerance {SINGULARITY_RTOL:g}"
        )
    return cho_solve((chol, True), rhs)


def ols_predict(X, beta) -> np.ndarray:
    """Evaluate the fitted linear model, yhat = X beta."""
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.ndim != 2 or beta.ndim != 1 or X.shape[1] != beta.size:
        raise UsageError(
            f"design matrix with {X.shape} columns does not match {beta.size} coefficients"
        )
    return X @ beta


def sse(y, yhat) -> float:
    """Sum of squared errors between observed and predicted responses."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise UsageError(f"length mismatch: {y.shape} vs {yhat.shape}")
    return float(np.sum((y - yhat) ** 2))
