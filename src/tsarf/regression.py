"""Least-squares line kernel shared by every forecasting stage.

Every regression in TSARF fits a two-parameter line, so the kernel takes
designs with exactly two columns, either one ``(n, 2)`` design or a stack of
``(W, k, 2)`` designs fitted at once. The normal equations X'X b = X'y of
every system are formed with one batched matmul, and each 2x2 Gram matrix is
factored in closed form: l11 = sqrt(g00), l21 = g10 (1/l11) and
l22 = sqrt(g11 - l21 l21), the expressions LAPACK's unblocked Cholesky
evaluates. The two triangular solves are written out with the same
reciprocal pivots, so no explicit inverse is formed and no per-system Python
loop runs. The Gram matrix and right-hand side stay a matmul: explicit sums
or ``einsum`` round differently in the last bit, which can move the
automatic moving-average length.

A system fails when its Gram matrix or right-hand side is not finite
(overflow) or when a pivot, squared, is not above SINGULARITY_RTOL times its
own diagonal entry of X'X (singular), a rule that does not depend on the
scale of the time axis. Both are per-system masks, so the first failing
system of a stack is found without refactoring anything. Several responses
sharing one design are solved against a single factorization.
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

    X is one ``(n, 2)`` design or a ``(W, k, 2)`` stack of W designs. For one
    design, y is an (n,) response, giving (2,) coefficients, or an (n, r)
    matrix of r responses, giving (2, r) coefficients with one column per
    response. For a stack, y is (W, k) or (W, k, r) and the result gains a
    leading axis of W: (W, 2) or (W, 2, r). Each system of a stack gets
    bitwise the coefficients it would get on its own, and the closed-form
    factor equals LAPACK's Cholesky factor bit for bit.

    Raises RankDeficiencyError when X'X or X'y overflows, or when a Cholesky
    pivot of X'X, squared, is not above SINGULARITY_RTOL times its diagonal
    entry (a pivot that is not a real number counts as singular). Its
    ``index`` is the first failing system (0 for a single design) and its
    message is that system's own.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = XT @ X
        rhs = XT @ y
        g00, g10, g11 = gram[:, 0, 0], gram[:, 1, 0], gram[:, 1, 1]
        l11 = np.sqrt(g00)
        inv11 = 1.0 / l11
        l21 = g10 * inv11
        l22 = np.sqrt(g11 - l21 * l21)
        overflow = ~(np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2)))
        singular = ~((l11 * l11 > SINGULARITY_RTOL * g00) & (l22 * l22 > SINGULARITY_RTOL * g11))
    failed = overflow | singular
    if failed.any():
        index = int(np.argmax(failed))
        if overflow[index]:
            exc = RankDeficiencyError("normal equations overflow")
        else:
            exc = RankDeficiencyError(f"normal equations singular to tolerance {SINGULARITY_RTOL:g}")
        exc.index = index
        raise exc

    inv11, l21 = inv11[:, None], l21[:, None]
    inv22 = 1.0 / l22[:, None]
    z1 = rhs[:, 0] * inv11
    z2 = (rhs[:, 1] - l21 * z1) * inv22
    x2 = z2 * inv22
    x1 = (z1 - l21 * x2) * inv11
    beta = np.stack([x1, x2], axis=1)
    if single:
        beta = beta[..., 0]
    return beta if stacked else beta[0]
