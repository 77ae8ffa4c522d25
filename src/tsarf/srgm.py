"""NHPP software reliability growth models.

Mean value functions for the Goel-Okumoto, delayed S-shaped, and Weibull
models, least-squares fitting via multi-start Nelder-Mead on log-parameters,
prediction, and an event simulator used as a statistical oracle in tests.

Fitting minimizes the squared error between the mean value function and the
cumulative counts, which keeps the estimation criterion aligned with the
squared-error comparison metrics.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dataset import FailureTimes, GrowthCurve
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    InsufficientDataError,
    UsageError,
)

#: Nelder-Mead iteration cap per restart.
MAX_ITER = 10_000
#: Relative objective tolerance declaring a restart converged.
SSE_RTOL = 1e-10


class SrgmKind(enum.Enum):
    GO = "go"
    DSS = "dss"
    WEIBULL = "weibull"

    @property
    def param_count(self) -> int:
        return 3 if self is SrgmKind.WEIBULL else 2

    @classmethod
    def from_label(cls, label: str) -> "SrgmKind":
        try:
            return cls(label.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise UsageError(f"unknown model kind {label!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class SrgmParams:
    """Positive model parameters: a = eventual fault count, b = rate/scale,
    c = Weibull shape (ignored by GO and DSS)."""

    a: float
    b: float
    c: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not np.isfinite(value) or value <= 0:
                raise UsageError(f"parameter {name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SrgmFit:
    kind: SrgmKind
    params: SrgmParams
    sse: float
    converged: bool
    iterations: int
    restarts: int


def _mvf(kind: SrgmKind, a, b, c, t):
    """Mean value function with unchecked parameters and times."""
    if kind is SrgmKind.GO:
        return a * (1.0 - np.exp(-b * t))
    if kind is SrgmKind.DSS:
        return a * (1.0 - (1.0 + b * t) * np.exp(-b * t))
    if kind is SrgmKind.WEIBULL:
        return a * (1.0 - np.exp(-b * t**c))
    raise UsageError(f"unhandled kind {kind}")  # pragma: no cover


def mvf(kind: SrgmKind, params: SrgmParams, t):
    """Expected cumulative faults by time t (scalar or array, t >= 0)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise UsageError("mean value function is defined for t >= 0 only")
    out = _mvf(kind, params.a, params.b, params.c, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _sse_objective(kind: SrgmKind, t: np.ndarray, counts: np.ndarray):
    def objective(log_params: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            params = np.exp(log_params)
            if not np.all(np.isfinite(params)):
                return np.inf
            c = params[2] if params.size == 3 else 1.0
            value = np.sum((_mvf(kind, params[0], params[1], c, t) - counts) ** 2)
        return float(value) if np.isfinite(value) else np.inf

    return objective


def _starting_points(kind: SrgmKind, counts: np.ndarray, t: np.ndarray) -> list[np.ndarray]:
    n_max = float(np.max(counts))
    t_bar = float(np.mean(t))
    a_grid = [m * n_max for m in (1.0, 2.0, 5.0)]
    b_grid = [theta / t_bar for theta in (0.5, 1.0, 2.0)]
    if kind is SrgmKind.WEIBULL:
        c_grid = [0.5, 1.0, 2.0]
        combos = itertools.product(a_grid, b_grid, c_grid)
    else:
        combos = itertools.product(a_grid, b_grid)
    return [np.log(np.asarray(combo, dtype=float)) for combo in combos]


def fit_srgm(train: GrowthCurve, kind: SrgmKind) -> SrgmFit:
    """Least-squares fit of the mean value function to a training curve.

    Multi-start Nelder-Mead over log-parameters; the winner is the converged
    restart with the lowest SSE (ties broken by restart order).
    """
    t = train.times
    counts = train.counts
    if train.n < kind.param_count + 1:
        raise InsufficientDataError(
            f"{kind.value} needs at least {kind.param_count + 1} points, have {train.n}"
        )
    if np.max(counts) <= np.min(counts):
        raise DegenerateDataError("counts show no growth; nothing to fit")
    if np.max(t) <= np.min(t) or np.mean(t) <= 0:
        raise DegenerateDataError("times show no spread; rate is unidentifiable")

    objective = _sse_objective(kind, t, counts)
    best: tuple[float, int, np.ndarray, int] | None = None  # (sse, order, x, nit)
    restarts = 0
    for order, x0 in enumerate(_starting_points(kind, counts, t)):
        restarts += 1
        f0 = objective(x0)
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": MAX_ITER,
                "maxfev": 2 * MAX_ITER,
                "xatol": 1e-8,
                "fatol": SSE_RTOL * max(1.0, f0),
            },
        )
        if not result.success:
            continue
        if best is None or result.fun < best[0]:
            best = (float(result.fun), order, result.x, int(result.nit))
    if best is None:
        raise ConvergenceError(
            f"{kind.value}: none of the {restarts} restarts converged"
        )

    values = np.exp(best[2])
    params = SrgmParams(
        a=float(values[0]),
        b=float(values[1]),
        c=float(values[2]) if values.size == 3 else 1.0,
    )
    return SrgmFit(
        kind=kind,
        params=params,
        sse=best[0],
        converged=True,
        iterations=best[3],
        restarts=restarts,
    )


def srgm_predict(fit: SrgmFit, times) -> np.ndarray:
    """Mean value function of a converged fit at the requested times."""
    if not fit.converged:
        raise UsageError("cannot predict from a non-converged fit")
    return mvf(fit.kind, fit.params, np.asarray(times, dtype=float))


def simulate_nhpp(
    kind: SrgmKind, params: SrgmParams, horizon: float, seed: int
) -> FailureTimes:
    """Draw one NHPP sample path on [0, horizon].

    The event count is Poisson with mean mvf(horizon); event times are i.i.d.
    with CDF mvf(t)/mvf(horizon), inverted by bisection to 1e-9 * horizon.
    Deterministic for a fixed seed (numpy PCG64 generator).
    """
    if horizon <= 0:
        raise UsageError(f"horizon must be positive, got {horizon}")
    total = mvf(kind, params, horizon)
    if total <= 1e-12:
        raise DegenerateDataError(
            f"mean value at the horizon is {total:g}; intensity is degenerate"
        )
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(total))
    if count == 0:
        return FailureTimes(np.empty(0))
    target = rng.uniform(size=count) * total
    lo = np.zeros(count)
    hi = np.full(count, float(horizon))
    tol = 1e-9 * horizon
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        below = mvf(kind, params, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return FailureTimes(np.sort(0.5 * (lo + hi)))
