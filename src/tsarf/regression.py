"""Ordinary least squares core shared by every forecasting stage.

Coefficients are found from the normal equations via a Cholesky
factorization, never an explicit inverse; singular systems are rejected by a
pivot threshold relative to the largest diagonal of X'X. Several responses
sharing one design are solved against a single factorization.
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

    y is either an (n,) response, giving (m,) coefficients, or an (n, r)
    matrix of r responses, giving (m, r) coefficients with one column per
    response. Raises RankDeficiencyError when X'X or X'y overflows, or when
    the smallest Cholesky pivot of X'X falls below SINGULARITY_RTOL times its
    largest diagonal entry.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise UsageError("design matrix must be two-dimensional")
    n_obs, m = X.shape
    if y.ndim not in (1, 2) or y.shape[0] != n_obs:
        raise UsageError(f"response shape {y.shape} does not match {n_obs} observations")
    if n_obs < m:
        raise UsageError(f"need at least {m} observations to fit {m} parameters, got {n_obs}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise UsageError("design matrix and response must be finite")

    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.T @ X
        rhs = X.T @ y
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise RankDeficiencyError("normal equations overflow")
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
