"""Least-squares line kernel shared by every forecasting stage.

Every regression in TSARF fits a line y = b0 + b1·x, so the kernel fits a
stack of predictors against a stack of responses of the same shape. With
the design [1, x], X'X = [[n, Σx], [Σx, Σx²]] and X'y = [Σy, Σxy], so four
``np.add.reduce`` sums over the last axis of C-ordered copies give the
normal equations. The closed-form Cholesky factor is l11 = √n,
l21 = Σx (1/l11) and l22 = sqrt(Σx² - l21 l21), LAPACK's expressions, and
the two triangular solves use the same reciprocal pivots. No step calls
BLAS, so a fit's bits follow neither OpenBLAS's kernel nor the memory
layout of the arrays passed in.

A system fails when its sums or coefficients are not finite (overflow) or
when l22² is not above SINGULARITY_RTOL·Σx² (singular), a rule that does
not depend on the scale of the time axis. Both are per-system masks, so the
first failing system of a stack is found without refactoring anything.
"""

from __future__ import annotations

import math

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


def ols_fit(x, y) -> np.ndarray:
    """Least-squares coefficients (b0, b1) of the line y = b0 + b1·x.

    x is one ``(n,)`` predictor or a ``(W, k)`` stack of W, and y the
    response of the same shape. The result is (2,) or (W, 2). Each system of
    a stack gets bitwise the coefficients it would get on its own, and the
    factor equals LAPACK's Cholesky factor of X'X bit for bit.

    Raises RankDeficiencyError when the sums or the coefficients overflow, or
    when the second pivot, squared, is not above SINGULARITY_RTOL·Σx² (a pivot
    that is not a real number counts as singular). Its ``index`` is the first
    failing system (0 for a single predictor) and its message is that
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

    inv11 = 1.0 / math.sqrt(n_obs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = [np.add.reduce(a, axis=-1) for a in (x, x * x, y, x * y)]
        sx, sxx, sy, sxy = sums
        l21 = sx * inv11
        l22 = np.sqrt(sxx - l21 * l21)
        singular = ~(l22 * l22 > SINGULARITY_RTOL * sxx)
        inv22 = 1.0 / l22
        z1 = sy * inv11
        b1 = (sxy - l21 * z1) * inv22 * inv22
        b0 = (z1 - l21 * b1) * inv11
        beta = np.stack([b0, b1], axis=-1)
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
