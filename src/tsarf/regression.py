"""Least-squares line kernel shared by every forecasting stage.

Every regression in TSARF fits a two-parameter line, so the kernel fits a
stack of lines, each with one response: a ``(..., n, 2)`` stack of designs
against a ``(..., n)`` stack of responses. The normal equations X'X b = X'y
come from five sums, Σx0², Σx0x1, Σx1², Σx0y and Σx1y, each an
``np.add.reduce`` of elementwise products over the observation axis of
C-ordered copies, so every sum runs along a dense axis. Each 2x2 Gram matrix
is factored in closed form: l11 = sqrt(g00), l21 = g10 (1/l11) and
l22 = sqrt(g11 - l21 l21), the expressions LAPACK's unblocked Cholesky
evaluates. The two triangular solves are written out with the same
reciprocal pivots, so no explicit inverse is formed and no per-system Python
loop runs. No step calls BLAS, and numpy's sums follow a fixed order, so a
fit's bits depend neither on numpy's SIMD level, nor on OpenBLAS's kernel,
nor on the memory layout of the arrays passed in.

A system fails when its Gram matrix, right-hand side or coefficients are
not finite (overflow) or when a pivot, squared, is not above SINGULARITY_RTOL
times its own diagonal entry of X'X (singular), a rule that does not depend
on the scale of the time axis. Both are per-system masks, so the first failing
system of a stack is found without refactoring anything.
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


def ols_fit(X, y) -> np.ndarray:
    """Least-squares line coefficients minimizing the sum of squared errors.

    X is one ``(n, 2)`` design or a ``(W, k, 2)`` stack of W designs, and y
    is the response of each: ``(n,)`` or ``(W, k)``. The result is (2,) or
    (W, 2) coefficients, (intercept, slope) per system. Each system of a
    stack gets bitwise the coefficients it would get on its own, whatever
    the memory layout of X and y, and the closed-form factor equals LAPACK's
    Cholesky factor bit for bit.

    Raises RankDeficiencyError when X'X, X'y or the coefficients overflow, or
    when a Cholesky pivot of X'X, squared, is not above SINGULARITY_RTOL times
    its diagonal entry (a pivot that is not a real number counts as singular).
    Its ``index`` is the first failing system (0 for a single design) and its
    message is that system's own.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-1] != 2:
        raise UsageError(f"design must have shape (n, 2) or (W, k, 2), got {X.shape}")
    if y.shape != X.shape[:-1]:
        raise UsageError(f"response shape {y.shape} does not match design shape {X.shape}")
    n_obs = X.shape[-2]
    if n_obs < 2:
        raise UsageError(f"need at least 2 observations to fit a line, got {n_obs}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise UsageError("design matrix and response must be finite")

    x0, x1 = X[..., 0], X[..., 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # X'X and X'y
        sums = [np.add.reduce(a * b, axis=-1) for a, b in ((x0, x0), (x0, x1), (x1, x1), (x0, y), (x1, y))]
        g00, g10, g11, h0, h1 = sums
        l11 = np.sqrt(g00)
        inv11 = 1.0 / l11
        l21 = g10 * inv11
        l22 = np.sqrt(g11 - l21 * l21)
        singular = ~((l11 * l11 > SINGULARITY_RTOL * g00) & (l22 * l22 > SINGULARITY_RTOL * g11))
        inv22 = 1.0 / l22
        z1 = h0 * inv11
        z2 = (h1 - l21 * z1) * inv22
        b1 = z2 * inv22
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
