"""Least-squares line kernel shared by every forecasting stage.

Every regression in TSARF fits a two-parameter line, so the kernel takes
designs with exactly two columns, either one ``(n, 2)`` design or a stack of
``(W, k, 2)`` designs fitted at once. The normal equations X'X b = X'y of
every system are formed with one batched matmul and factored with one
batched Cholesky call; the two 2x2 triangular solves are written out in
closed form with reciprocal pivots, so no explicit inverse is formed and no
per-system Python loop runs. A system counts as singular when one of its
Cholesky pivots, squared, falls below SINGULARITY_RTOL times its own
diagonal entry of X'X, which does not depend on the scale of the time axis.
Several responses sharing one design are solved against a single
factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, UsageError

#: Relative pivot threshold below which the normal equations count as singular.
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


def _factor(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of 2x2 Gram matrices, or RankDeficiencyError
    when any system of the stack overflowed or is singular."""
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise RankDeficiencyError("normal equations overflow")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("normal equations are singular") from None
    pivots = np.diagonal(chol, axis1=-2, axis2=-1)
    if np.any(pivots**2 <= SINGULARITY_RTOL * np.diagonal(gram, axis1=-2, axis2=-1)):
        raise RankDeficiencyError(
            f"normal equations singular to tolerance {SINGULARITY_RTOL:g}"
        )
    return chol


def ols_fit(X, y) -> np.ndarray:
    """Least-squares line coefficients minimizing the sum of squared errors.

    X is one ``(n, 2)`` design or a ``(W, k, 2)`` stack of W designs. For one
    design, y is an (n,) response, giving (2,) coefficients, or an (n, r)
    matrix of r responses, giving (2, r) coefficients with one column per
    response. For a stack, y is (W, k) or (W, k, r) and the result gains a
    leading axis of W: (W, 2) or (W, 2, r). Each system of a stack gets
    bitwise the coefficients it would get on its own.

    Raises RankDeficiencyError when X'X or X'y overflows, or when a Cholesky
    pivot of X'X, squared, falls below SINGULARITY_RTOL times its diagonal
    entry; for a stack, its ``index`` is the first failing system.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-1] != 2:
        raise UsageError(f"design must have shape (n, 2) or (W, k, 2), got {X.shape}")
    n_obs = X.shape[-2]
    single = y.ndim == X.ndim - 1
    if y.ndim not in (X.ndim - 1, X.ndim) or y.shape[: X.ndim - 1] != X.shape[:-1]:
        raise UsageError(f"response shape {y.shape} does not match design shape {X.shape}")
    if n_obs < 2:
        raise UsageError(f"need at least 2 observations to fit a line, got {n_obs}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise UsageError("design matrix and response must be finite")

    stacked = X.ndim == 3
    if not stacked:
        X, y = X[None], y[None]
    if single:
        y = y[..., None]
    XT = np.swapaxes(X, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = XT @ X
        rhs = XT @ y
    try:
        chol = _factor(gram, rhs)
    except RankDeficiencyError:
        # name the first system that fails on its own
        for i in range(len(gram)):
            try:
                _factor(gram[i : i + 1], rhs[i : i + 1])
            except RankDeficiencyError as exc:
                exc.index = i
                raise
        raise

    inv11 = 1.0 / chol[:, 0, 0, None]
    inv22 = 1.0 / chol[:, 1, 1, None]
    l21 = chol[:, 1, 0, None]
    z1 = rhs[:, 0] * inv11
    z2 = (rhs[:, 1] - l21 * z1) * inv22
    x2 = z2 * inv22
    x1 = (z1 - l21 * x2) * inv11
    beta = np.stack([x1, x2], axis=1)
    if single:
        beta = beta[..., 0]
    return beta if stacked else beta[0]
