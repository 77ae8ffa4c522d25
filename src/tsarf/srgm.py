"""NHPP software reliability growth models.

Mean value functions for the Goel-Okumoto, delayed S-shaped, and Weibull
models, least-squares fitting on log-parameters, prediction, and an event
simulator used as a statistical oracle in tests.

Fitting minimizes the squared error between the mean value function and the
cumulative counts, which keeps the estimation criterion aligned with the
squared-error comparison metrics. The multi-start search runs one
Nelder-Mead, written in numpy, that advances all restarts together one step
at a time. The update is that of
``scipy.optimize.minimize(method="Nelder-Mead")`` with the same simplex,
coefficients, tolerances and limits, so each restart follows the scalar
solver's path bit for bit but keeps tied vertices in order. A fit costs
numpy call overhead more than arithmetic at about a hundred points, so a
step scores the live restarts in at most three in-place batches of ``_sse``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GrowthCurve
from .errors import ConvergenceError, DegenerateDataError, InsufficientDataError, UsageError

#: Nelder-Mead iteration cap per restart; twice as many SSE evaluations.
MAX_ITER = 10_000
#: Relative objective tolerance declaring a restart converged.
SSE_RTOL = 1e-10
#: Absolute log-parameter tolerance declaring a restart converged.
X_ATOL = 1e-8


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
    """A successful fit; ``fit_srgm`` raises rather than return a failed one."""

    kind: SrgmKind
    params: SrgmParams
    sse: float
    iterations: int
    restarts: int


def _mvf(kind: SrgmKind, a, b, c, t):
    """Mean value function with unchecked parameters; t is an array of at
    least one dimension, and the parameters broadcast against it.

    After the first product every operation runs in place on one array. The
    operands keep the order of the textbook form a*(1 - exp(-b*t)) and its
    kin except that products may be commuted, so the values are bitwise
    those of that form.
    """
    if kind is SrgmKind.WEIBULL:
        x = t**c
        x *= b
    else:
        x = b * t
    # -(b*t) is bitwise (-b)*t
    e = np.negative(x) if kind is SrgmKind.DSS else np.negative(x, out=x)
    np.exp(e, out=e)
    if kind is SrgmKind.DSS:
        np.add(1.0, x, out=x)
        x *= e
    np.subtract(1.0, x, out=x)
    x *= a
    return x


def mvf(kind: SrgmKind, params: SrgmParams, t):
    """Expected cumulative faults by time t (scalar or array, t >= 0).

    Extreme parameters overflow to inf, or to NaN where DSS meets inf * 0,
    without a warning."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise UsageError("mean value function is defined for t >= 0 only")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _mvf(kind, params.a, params.b, params.c, t_arr.reshape(-1)).reshape(t_arr.shape)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _sse(kind: SrgmKind, log_params: np.ndarray, t: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SSE of the mean value function at each row of (M, P) log-parameters;
    inf where a parameter or the sum is not finite.

    The caller holds ``np.errstate(over="ignore", invalid="ignore")``.
    """
    params = np.exp(log_params)
    c = params[:, 2:] if params.shape[1] == 3 else 1.0
    x = _mvf(kind, params[:, :1], params[:, 1:2], c, t)
    x -= counts
    x *= x
    sse = np.fmin(x.sum(axis=1), np.inf)  # NaN -> inf
    # exp is finite up to 709.78; NaN fails the comparison too
    if not log_params.max(initial=-np.inf) <= 709.0:
        sse[~np.isfinite(params).all(axis=1)] = np.inf
    return sse


def _starting_points(kind: SrgmKind, counts: np.ndarray, t: np.ndarray) -> np.ndarray:
    n_max = float(np.max(counts))
    t_bar = float(np.mean(t))
    a_grid = [m * n_max for m in (1.0, 2.0, 5.0)]
    b_grid = [theta / t_bar for theta in (0.5, 1.0, 2.0)]
    if kind is SrgmKind.WEIBULL:
        c_grid = [0.5, 1.0, 2.0]
        combos = itertools.product(a_grid, b_grid, c_grid)
    else:
        combos = itertools.product(a_grid, b_grid)
    return np.log(np.array(list(combos), dtype=float))


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's simplex, its vertices stably sorted by objective value."""
    n_vertices = fsim.shape[1]
    flat = np.argsort(fsim, axis=1, kind="stable") + np.arange(0, fsim.size, n_vertices)[:, None]
    return sim.reshape(fsim.size, -1).take(flat, axis=0), fsim.take(flat)


def _nelder_mead(objective, x0: np.ndarray):
    """Minimize from every row of x0 (R, N) at once; objective maps (M, N)
    points to M values.

    Each restart takes the steps of scipy's Nelder-Mead with xatol=X_ATOL,
    fatol=SSE_RTOL * max(1, f(x0)), maxiter=MAX_ITER and maxfev=2 * MAX_ITER,
    except that tied vertices keep their order. Returns per restart the best
    vertex, its value and the iteration count when the tolerance test passed
    within those limits; the value is inf for a restart that hit a limit
    instead.

    A step costs about 50 numpy calls for all live restarts together, plus
    the objective calls. The caller holds ``np.errstate(over="ignore",
    invalid="ignore")``: the objective and the spread tests meet inf. The
    sort is stable, so the path does not depend on the CPU, whereas scipy's
    ``np.argsort`` orders ties by numpy's SIMD sort kernel.
    """
    n_starts, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    fsim = objective(sim.reshape(-1, dim)).reshape(n_starts, dim + 1)
    fatol = SSE_RTOL * np.maximum(1.0, fsim[:, 0])
    # scipy sorts the first simplex twice; a second stable sort changes nothing
    sim, fsim = _sorted(sim, fsim)
    # Scipy's second point of a step (rho=1, chi=2, psi=0.5) is
    # c1*xbar - c2*worst, with (c1, c2) in the row expand + 2*contract +
    # inside: reflection accepted (no second point), expansion, outside and
    # inside contraction. Each product and difference is bitwise scipy's.
    coef = np.array([[1.0, 0.0], [3.0, 2.0], [1.5, 0.5], [0.5, -0.5]])

    best_x = np.array(x0)
    best_f = np.full(n_starts, np.inf)
    best_nit = np.zeros(n_starts, dtype=int)
    # state of the restarts still running, one row each; they share nit
    live = np.arange(n_starts)
    nfev = np.full(n_starts, dim + 1)
    nit = 1
    while True:
        # The vertices are sorted, so fsim[:, -1] - fsim[:, 0] is the largest
        # f-spread. While no restart passes it, none can stop; and none can
        # have reached a limit while nit*(dim+2) + dim+1 < 2*MAX_ITER, since a
        # step makes at most dim + 2 evaluations.
        near = fsim[:, -1] - fsim[:, 0] <= fatol
        if near.any() or nit * (dim + 2) + dim + 1 >= 2 * MAX_ITER:
            done = near & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= X_ATOL)
            within = (nfev < 2 * MAX_ITER) & (nit < MAX_ITER)
            keep = within & ~done
            if not keep.all():
                stop = within & done
                best_x[live[stop]] = sim[stop, 0]
                best_f[live[stop]] = fsim[stop, 0]
                best_nit[live[stop]] = nit
                live, sim, fsim, fatol, nfev = (a[keep] for a in (live, sim, fsim, fatol, nfev))
                if not live.size:
                    return best_x, best_f, best_nit

        xbar = np.add.reduce(sim[:, :-1], 1) / dim
        worst = sim[:, -1]
        xr = 2 * xbar - worst
        fxr = objective(xr)
        expand = fxr < fsim[:, 0]
        contract = fxr >= fsim[:, -2]
        inside = fxr >= fsim[:, -1]
        c = coef.take(expand + 2 * contract + inside, axis=0)
        x2 = c[:, :1] * xbar - c[:, 1:] * worst
        second = expand | contract
        f2 = np.full(len(fxr), np.inf)
        f2[second] = objective(x2[second])
        take2 = np.where(inside, f2 < fsim[:, -1], np.where(expand, f2 < fxr, f2 <= fxr))
        shrink = contract & ~take2
        if shrink.any():
            # every vertex but the best, the worst too, moves halfway to it
            best = sim[shrink, :1]
            shrunk = best + 0.5 * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = objective(shrunk.reshape(-1, dim)).reshape(-1, dim)
            # so that the update below keeps their new last vertex
            xr[shrink] = shrunk[:, -1]
            fxr[shrink] = fsim[shrink, -1]
            nfev += dim * shrink
        sim[:, -1] = np.where(take2[:, None], x2, xr)
        fsim[:, -1] = np.where(take2, f2, fxr)
        nfev += 1 + second
        nit += 1
        sim, fsim = _sorted(sim, fsim)


def fit_srgm(train: GrowthCurve, kind: SrgmKind) -> SrgmFit:
    """Least-squares fit of the mean value function to a training curve.

    Multi-start Nelder-Mead over log-parameters, all restarts in lockstep;
    the winner is the converged restart with the lowest SSE (ties broken by
    restart order).
    """
    t, counts = train.times, train.counts
    if train.n < kind.param_count + 1:
        raise InsufficientDataError(f"{kind.value} needs at least {kind.param_count + 1} points, have {train.n}")
    if np.max(counts) <= np.min(counts):
        raise DegenerateDataError("counts show no growth; nothing to fit")
    if np.max(t) <= np.min(t) or np.mean(t) <= 0:
        raise DegenerateDataError("times show no spread; rate is unidentifiable")

    starts = _starting_points(kind, counts, t)
    with np.errstate(over="ignore", invalid="ignore"):
        x, sse, nit = _nelder_mead(lambda p: _sse(kind, p, t, counts), starts)
    best = int(np.argmin(sse))
    if np.isinf(sse[best]):
        raise ConvergenceError(f"{kind.value}: none of the {len(starts)} restarts converged")

    params = SrgmParams(*np.exp(x[best]).tolist())
    return SrgmFit(kind, params, float(sse[best]), int(nit[best]), len(starts))


def srgm_predict(fit: SrgmFit, times) -> np.ndarray:
    """Mean value function of a fit at the requested times."""
    return mvf(fit.kind, fit.params, times)


#: Taylor coefficients 1/n! of e^x - 1 - x, n = 18 down to 2: for 0 <= x <= 1
#: the next term is below eps/4 of the sum.
_EXPM1_LESS_X = [1.0 / math.factorial(n) for n in range(18, 1, -1)]
#: The DSS mass fraction 1 - 2/e at x = 1, where its inverse changes equation.
_DSS_SPLIT = 1.0 - 2.0 / math.e


def _inverse_mvf(kind: SrgmKind, a, b, c, y: np.ndarray) -> np.ndarray:
    """Times t with mvf(t) = y, for 0 <= y <= a (inf where y/a rounds to 1).

    Each is within a few ulps times 1 + κ of the exact inverse, κ being its
    condition number |u t'(u) / t| at u = y/a. GO and Weibull invert in closed
    form, t = (-log1p(-u)/b)^(1/c). DSS takes Newton steps on
    1 - (1+x)e^{-x} = u, x = b*t, in forms that do not cancel:

    - x < 1: q = x/s, s = sqrt(2u), solves q^2 p(x) e^{-x} = 1/2, where
      p(x) = (e^x - 1 - x)/x^2 is summed from its series; three steps from
      the series of the root, 1 + s/3 + s^2/36.
    - x >= 1: x - log1p(x) = w = -log1p(-u), which is convex; five steps from
      w + log1p(w + log1p(w)), below the root.
    """
    u = y / a
    if kind is not SrgmKind.DSS:
        v = np.log1p(np.negative(u, out=u), out=u)
        v /= -b
        if kind is SrgmKind.GO:
            return v
        # 1/c is rounded, which costs v**(1/c) about |log v| ulps; one Newton
        # step on t**c = v takes them out (it is 0/0 or inf/inf at t = 0 or inf)
        t = v ** (1.0 / c)
        step = t * ((v / t**c - 1.0) / c)
        return t + np.where(np.isnan(step), 0.0, step)
    low = u < _DSS_SPLIT
    s = np.sqrt(2.0 * u[low])
    q = 1.0 + s * (1.0 / 3.0 + s / 36.0)
    for _ in range(3):
        x = s * q
        q = q * (1.0 - np.polyval(_EXPM1_LESS_X, x)) + np.exp(x) / (2.0 * q)
    w = -np.log1p(-u[~low])
    x = w + np.log1p(w + np.log1p(w))
    for _ in range(5):
        x = (w + np.log1p(x)) * (1.0 + 1.0 / x) - 1.0
    u[low] = s * q
    u[~low] = x
    u /= b
    return u


def simulate_nhpp(kind: SrgmKind, params: SrgmParams, horizon: float, seed: int) -> np.ndarray:
    """Draw one NHPP sample path on [0, horizon]: its event times, sorted.

    The event count is Poisson with mean mvf(horizon); event times are i.i.d.
    with CDF mvf(t)/mvf(horizon), each the inverse mean value of a uniform
    target y in [0, mvf(horizon)) (``_inverse_mvf``). Deterministic for a
    fixed seed (numpy PCG64 generator).
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise UsageError(f"horizon must be positive and finite, got {horizon}")
    total = mvf(kind, params, horizon)
    if not np.isfinite(total):
        raise UsageError(f"mean value at the horizon is {total:g}; the parameters are too extreme to simulate")
    if total <= 1e-12:
        raise DegenerateDataError(f"mean value at the horizon is {total:g}; intensity is degenerate")
    if seed < 0:  # numpy's generator rejects it with a ValueError
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    # numpy refuses a huge mean or array size (ValueError), or cannot allocate
    # the arrays (MemoryError)
    try:
        count = int(rng.poisson(total))
        target = rng.uniform(size=count) * total
    except (ValueError, MemoryError):
        raise UsageError(f"expected failure count {total:g} is too large to simulate") from None
    # y/a may round to 1, whose inverse is inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        times = _inverse_mvf(kind, params.a, params.b, params.c, target)
    # the rounding of mvf(horizon) and of the target can put a time past the horizon
    return np.sort(np.minimum(times, horizon, out=times))


def poisson_band(mean: float) -> tuple[int, int]:
    """Central 99.9% interval of a Poisson count, as ``scipy.stats.poisson.interval``.

    Each end is the smallest k whose CDF reaches (1 -/+ 0.999)/2. The pmf is
    taken over mode +- (40 + 12 sqrt(mean)), which holds all but a negligible
    tail of the mass, and normalised to sum to one. Its logarithm is summed
    from the steps log(pmf(k) / pmf(k - 1)) = log(mean / k): at means of 1e8
    and 1e9 this puts the CDF within 1e-14 of its exact value, where
    ``k log(mean) - mean - lgamma(k + 1)`` is only within about 1e-12.
    The tests check exact equality with scipy for means from 1e-3 to 1e8.
    """
    mode = math.floor(mean)
    half = int(40 + 12 * math.sqrt(mean))
    k = np.arange(max(0, mode - half), mode + half + 1)
    steps = np.log1p((mean - k[1:]) / k[1:])
    log_pmf = np.concatenate([[0.0], np.cumsum(steps)])
    pmf = np.exp(log_pmf - log_pmf.max())
    cdf = np.cumsum(pmf) / pmf.sum()
    lo, hi = np.searchsorted(cdf, [(1.0 - 0.999) / 2, (1.0 + 0.999) / 2])
    return int(k[0] + lo), int(k[0] + hi)
