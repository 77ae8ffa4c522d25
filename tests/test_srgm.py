import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_changepoint_curve
from tsarf import (
    ConvergenceError,
    DegenerateDataError,
    GrowthCurve,
    InsufficientDataError,
    SrgmKind,
    SrgmParams,
    UsageError,
    fit_srgm,
    mvf,
    simulate_nhpp,
    srgm_predict,
)
from tsarf import srgm


def go_curve(a=100.0, b=0.05, t_max=100):
    t = np.arange(1, t_max + 1, dtype=float)
    return GrowthCurve(t, mvf(SrgmKind.GO, SrgmParams(a=a, b=b), t))


class TestMvf:
    def test_go_boundary(self):
        assert mvf(SrgmKind.GO, SrgmParams(a=123.0, b=0.7), 0.0) == 0.0

    def test_go_hand_value(self):
        value = mvf(SrgmKind.GO, SrgmParams(a=100.0, b=0.5), 2.0)
        assert value == pytest.approx(100.0 * (1.0 - np.exp(-1.0)), abs=1e-12)
        assert value == pytest.approx(63.21205588, abs=1e-6)

    def test_dss_boundary(self):
        assert mvf(SrgmKind.DSS, SrgmParams(a=50.0, b=1.0), 0.0) == 0.0

    def test_weibull_with_unit_shape_equals_go(self):
        t = np.linspace(0.0, 50.0, 1000)
        params_w = SrgmParams(a=80.0, b=0.11, c=1.0)
        params_g = SrgmParams(a=80.0, b=0.11)
        diff = np.abs(mvf(SrgmKind.WEIBULL, params_w, t) - mvf(SrgmKind.GO, params_g, t))
        assert np.max(diff) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(UsageError):
            mvf(SrgmKind.GO, SrgmParams(a=1.0, b=1.0), -0.5)

    @pytest.mark.parametrize("kind", list(SrgmKind))
    def test_monotone_and_bounded(self, kind):
        params = SrgmParams(a=40.0, b=0.3, c=1.7)
        t = np.linspace(0.0, 80.0, 500)
        values = mvf(kind, params, t)
        assert np.all(np.diff(values) >= 0)
        assert values[0] == 0.0
        # strictly below the asymptote until exp() underflows
        assert np.all(values <= params.a)
        assert values[1] < params.a

    @pytest.mark.parametrize("kind", list(SrgmKind))
    def test_asymptote(self, kind):
        params = SrgmParams(a=250.0, b=0.8, c=1.0)
        assert mvf(kind, params, 100.0 / params.b) == pytest.approx(params.a, rel=1e-6)

    def test_dss_intensity_peaks_at_inverse_rate(self):
        b = 0.25
        t = np.linspace(0.0, 40.0, 4001)
        values = mvf(SrgmKind.DSS, SrgmParams(a=100.0, b=b), t)
        rate = np.diff(values) / np.diff(t)
        peak = t[np.argmax(rate)]
        assert peak == pytest.approx(1.0 / b, abs=2 * (t[1] - t[0]))
        # rises before the peak, falls after
        i_peak = np.argmax(rate)
        assert np.all(np.diff(rate[:i_peak]) > 0)
        assert np.all(np.diff(rate[i_peak + 1 :]) < 0)


def textbook_mvf(kind, a, b, c, t):
    """The mean value functions as first written, one new array per operation."""
    if kind is SrgmKind.GO:
        return a * (1.0 - np.exp(-b * t))
    if kind is SrgmKind.DSS:
        return a * (1.0 - (1.0 + b * t) * np.exp(-b * t))
    return a * (1.0 - np.exp(-b * t**c))


def textbook_sse(kind, log_params, t, counts):
    """The batched SSE as first written, with one errstate per call."""
    with np.errstate(over="ignore", invalid="ignore"):
        params = np.exp(log_params)
        c = params[:, 2:] if params.shape[1] == 3 else 1.0
        sse = ((textbook_mvf(kind, params[:, :1], params[:, 1:2], c, t) - counts) ** 2).sum(axis=1)
    sse[~(np.isfinite(params).all(axis=1) & np.isfinite(sse))] = np.inf
    return sse


log_param_values = st.one_of(
    st.floats(-12.0, 12.0),
    st.floats(700.0, 720.0),
    st.sampled_from([-np.inf, np.inf, np.nan, 709.0, 709.78, 709.79, -745.2]),
)
time_values = st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(0.0, 1e-3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SrgmKind)), st.integers(1, 40), st.integers(1, 30), st.data())
def test_sse_matches_textbook_form_bitwise(kind, rows, n, data):
    size = rows * kind.param_count
    log_params = np.array(data.draw(st.lists(log_param_values, min_size=size, max_size=size)))
    log_params = log_params.reshape(rows, kind.param_count)
    t = np.array(data.draw(st.lists(time_values, min_size=n, max_size=n)))
    counts = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)))
    expected = textbook_sse(kind, log_params, t, counts)
    with np.errstate(over="ignore", invalid="ignore"):
        got = srgm._sse(kind, log_params, t, counts)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(SrgmKind)),
    st.floats(-3.0, 9.0).map(lambda e: 10.0**e),
    st.floats(-9.0, 2.0).map(lambda e: 10.0**e),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 5.0)),
    st.one_of(time_values, st.lists(time_values, min_size=1, max_size=30)),
)
def test_mvf_matches_textbook_form_bitwise(kind, a, b, c, t):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = textbook_mvf(kind, a, b, c, np.asarray(t))
    got = mvf(kind, SrgmParams(a=a, b=b, c=c), t)
    assert isinstance(got, float) == np.isscalar(t)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestFit:
    def test_recovers_go_parameters(self):
        fit = fit_srgm(go_curve(), SrgmKind.GO)
        assert fit.params.a == pytest.approx(100.0, rel=1e-3)
        assert fit.params.b == pytest.approx(0.05, rel=1e-3)

    def test_weibull_nests_go(self):
        fit = fit_srgm(go_curve(t_max=60), SrgmKind.WEIBULL)
        assert fit.params.c == pytest.approx(1.0, abs=1e-2)

    def test_constant_counts_degenerate(self):
        curve = GrowthCurve(np.arange(1.0, 9.0), np.full(8, 5.0))
        with pytest.raises(DegenerateDataError):
            fit_srgm(curve, SrgmKind.GO)

    def test_too_few_points(self):
        curve = GrowthCurve(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(InsufficientDataError):
            fit_srgm(curve, SrgmKind.GO)

    def test_solver_beats_coarse_grid(self):
        curve = go_curve(a=60.0, b=0.08, t_max=50)
        fit = fit_srgm(curve, SrgmKind.GO)
        best_grid = np.inf
        for a in np.linspace(30.0, 120.0, 19):
            for b in np.linspace(0.01, 0.2, 20):
                m = mvf(SrgmKind.GO, SrgmParams(a=a, b=b), curve.times)
                best_grid = min(best_grid, float(np.sum((m - curve.counts) ** 2)))
        assert fit.sse <= best_grid + 1e-9

    def test_fit_diagnostics(self):
        fit = fit_srgm(go_curve(t_max=40), SrgmKind.GO)
        assert fit.restarts == 9
        assert fit.iterations > 0
        assert fit.kind is SrgmKind.GO


def scipy_restarts(curve, kind):
    """One scipy.optimize.minimize call per restart, with the options the
    lockstep solver reproduces."""
    from scipy.optimize import minimize

    t, counts = curve.times, curve.counts

    def objective(log_params):
        with np.errstate(over="ignore", invalid="ignore"):
            params = np.exp(log_params)
            if not np.all(np.isfinite(params)):
                return np.inf
            c = params[2] if params.size == 3 else 1.0
            value = np.sum((srgm._mvf(kind, params[0], params[1], c, t) - counts) ** 2)
        return float(value) if np.isfinite(value) else np.inf

    grids = [
        [m * float(np.max(counts)) for m in (1.0, 2.0, 5.0)],
        [theta / float(np.mean(t)) for theta in (0.5, 1.0, 2.0)],
    ]
    if kind is SrgmKind.WEIBULL:
        grids.append([0.5, 1.0, 2.0])
    starts = [np.log(np.asarray(combo, dtype=float)) for combo in itertools.product(*grids)]
    return [
        minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": srgm.MAX_ITER,
                "maxfev": 2 * srgm.MAX_ITER,
                "xatol": 1e-8,
                "fatol": 1e-10 * max(1.0, objective(x0)),
            },
        )
        for x0 in starts
    ]


def scipy_reference_fit(curve, kind):
    """The winning scipy restart (the first of the lowest converged values)
    and the number of restarts."""
    results = scipy_restarts(curve, kind)
    best = min((r for r in results if r.success), key=lambda r: r.fun, default=None)
    return best, len(results)


ORACLE_CURVES = {
    "go": go_curve,
    "changepoint": lambda: make_changepoint_curve(np.random.default_rng(7), n=60),
    "line": lambda: GrowthCurve((np.arange(1.0, 41.0) - 1.0) / 2.0, np.arange(1.0, 41.0)),
}


def assert_matches_reference(curve, kind):
    expected, restarts = scipy_reference_fit(curve, kind)
    fit = fit_srgm(curve, kind)
    values = np.exp(expected.x)
    assert fit.sse == expected.fun
    assert (fit.params.a, fit.params.b) == (values[0], values[1])
    assert fit.params.c == (values[2] if kind is SrgmKind.WEIBULL else 1.0)
    assert fit.iterations == expected.nit
    assert fit.restarts == restarts == (27 if kind is SrgmKind.WEIBULL else 9)


@pytest.mark.parametrize("kind", list(SrgmKind))
@pytest.mark.parametrize("curve_name", sorted(ORACLE_CURVES))
def test_lockstep_matches_scipy_per_restart(curve_name, kind):
    assert_matches_reference(ORACLE_CURVES[curve_name](), kind)


# On go_curve() the restarts need 62-78 (GO) and 152-296 (Weibull) iterations,
# so these caps stop some restarts and the winner comes from the rest.
@pytest.mark.parametrize("kind, cap", [(SrgmKind.GO, 70), (SrgmKind.WEIBULL, 250)])
def test_lockstep_matches_scipy_when_some_restarts_hit_the_cap(monkeypatch, kind, cap):
    monkeypatch.setattr(srgm, "MAX_ITER", cap)
    assert_matches_reference(go_curve(), kind)


# On the changepoint curve a GO or DSS restart makes about 2.1 evaluations per
# iteration, so with the first two caps some restarts stop on the evaluation
# cap while others converge. With the last, no restart converges and none is
# near convergence when it reaches the evaluation cap, so only the solver's
# bound on evaluations can stop it there.
@pytest.mark.parametrize("kind, cap", [(SrgmKind.GO, 120), (SrgmKind.DSS, 90), (SrgmKind.WEIBULL, 10)])
def test_lockstep_matches_scipy_when_some_restarts_hit_the_evaluation_cap(monkeypatch, kind, cap):
    monkeypatch.setattr(srgm, "MAX_ITER", cap)
    curve = ORACLE_CURVES["changepoint"]()
    results = scipy_restarts(curve, kind)
    capped = sum(r.nfev >= 2 * cap and r.nit < cap for r in results)
    assert capped
    scored = []
    sse = srgm._sse
    monkeypatch.setattr(srgm, "_sse", lambda *args: scored.append(len(args[1])) or sse(*args))
    if any(r.success for r in results):
        assert_matches_reference(curve, kind)
    else:
        with pytest.raises(ConvergenceError):
            fit_srgm(curve, kind)
    # Scipy stops a capped restart inside the step that reaches the cap; the
    # lockstep ends that step, at most dim + 1 more evaluations, and no other.
    spent = sum(r.nfev for r in results)
    assert spent <= sum(scored) <= spent + (kind.param_count + 1) * capped


@pytest.mark.parametrize("n_vertices", [3, 4])
@pytest.mark.parametrize("values", [[1.0, 2.0], [np.inf, 7.0]])
def test_sorted_keeps_tied_vertices_in_order(n_vertices, values):
    # numpy's default argsort orders ties by its SIMD sort kernel, which
    # differs between CPUs; the vertex order must not
    rng = np.random.default_rng(5)
    fsim = rng.choice(values, size=(500, n_vertices))
    # vertex j of restart r is the point (r, j, ...)
    sim = np.zeros((500, n_vertices, n_vertices - 1))
    sim[:, :, 0] = np.arange(500)[:, None]
    sim[:, :, 1] = np.arange(n_vertices)
    sorted_sim, sorted_f = srgm._sorted(sim, fsim)
    for r in range(500):
        order = sorted(range(n_vertices), key=lambda j: fsim[r, j])  # Python's sort is stable
        assert sorted_sim[r].tolist() == sim[r, order].tolist()
        assert sorted_f[r].tolist() == fsim[r, order].tolist()


def test_every_restart_capped_raises(monkeypatch):
    monkeypatch.setattr(srgm, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="none of the 9 restarts converged"):
        fit_srgm(go_curve(), SrgmKind.GO)


#: Fits on ORACLE_CURVES with an interior optimum.
INTERIOR_FITS = [("changepoint", SrgmKind.DSS), ("go", SrgmKind.DSS), ("line", SrgmKind.DSS), ("line", SrgmKind.GO)]
#: Fits on ORACLE_CURVES that run towards a -> inf, b -> 0, where
#: 1 - exp(-b*t) keeps few digits, so their SSE carries rounding noise
#: (ROADMAP item 3). GO and Weibull on go_curve() end at an SSE near 1e-14,
#: which is rounding noise too, and are in neither list.
BOUNDARY_FITS = [("changepoint", SrgmKind.GO), ("changepoint", SrgmKind.WEIBULL), ("line", SrgmKind.WEIBULL)]


# Rescaling time moves an interior fit's SSE only by rounding; a boundary
# fit's moves by up to 9e-2 relative, so those are left out until item 3.
@pytest.mark.parametrize("curve_name, kind", INTERIOR_FITS)
def test_interior_fit_sse_is_invariant_to_time_scale(curve_name, kind):
    curve = ORACLE_CURVES[curve_name]()
    base = fit_srgm(curve, kind).sse
    for scale in (1e-3, 0.1, 3.7, 60.0, 3600.0, 1e6):
        scaled = fit_srgm(GrowthCurve(curve.times * scale, curve.counts), kind)
        assert scaled.sse == pytest.approx(base, rel=1e-14, abs=0)


def _simd_targets() -> list[str]:
    """The SIMD targets above its baseline that numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]


def _exp_probe() -> str:
    return np.exp(np.linspace(-700.0, 700.0, 1001)).tobytes().hex()


#: Reads [times, counts, kind] triples from stdin; prints the probe and each SSE.
_CHILD_FITS = """
import json, sys
import numpy as np
from tsarf import GrowthCurve, SrgmKind, fit_srgm
fits = json.load(sys.stdin)
probe = np.exp(np.linspace(-700.0, 700.0, 1001)).tobytes().hex()
print(json.dumps([probe, [fit_srgm(GrowthCurve(t, c), SrgmKind(kind)).sse for t, c, kind in fits]]))
"""


@pytest.fixture(scope="module")
def baseline_kernel_sses():
    """The SSE of each fit in INTERIOR_FITS and BOUNDARY_FITS, in this process
    and in a child whose numpy runs only its baseline kernels."""
    targets = _simd_targets()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target above its baseline here")
    fits = [*INTERIOR_FITS, *BOUNDARY_FITS]
    curves = {name: ORACLE_CURVES[name]() for name, _ in fits}
    payload = [[curves[name].times.tolist(), curves[name].counts.tolist(), kind.value] for name, kind in fits]
    src = str(Path(srgm.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_FITS], input=json.dumps(payload), env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    probe, sses = json.loads(result.stdout)
    if probe == _exp_probe():
        pytest.skip(f"np.exp gives the same bits with {' '.join(targets)} disabled")
    here = {(name, kind): fit_srgm(curves[name], kind).sse for name, kind in fits}
    return here, dict(zip(fits, sses))


# CI machines differ in the SIMD kernels numpy picks (ROADMAP item 9). The
# interior fits agree to rounding; the boundary fits move by up to 6e-2
# until item 3 removes the noise they fit.
@pytest.mark.parametrize(
    "curve_name, kind",
    INTERIOR_FITS
    + [
        pytest.param(*fit, marks=pytest.mark.xfail(strict=True, reason="SIMD exp noise (ROADMAP item 3)"))
        for fit in BOUNDARY_FITS
    ],
)
def test_fit_sse_does_not_depend_on_numpy_simd_kernels(curve_name, kind, baseline_kernel_sses):
    here, baseline = baseline_kernel_sses
    assert baseline[curve_name, kind] == pytest.approx(here[curve_name, kind], rel=1e-12, abs=0)


class TestPredict:
    def test_reproduces_training_curve(self):
        curve = go_curve(t_max=50)
        fit = fit_srgm(curve, SrgmKind.GO)
        pred = srgm_predict(fit, curve.times)
        assert pred == pytest.approx(curve.counts, abs=1e-2)

    def test_approaches_asymptote(self):
        fit = fit_srgm(go_curve(), SrgmKind.GO)
        far = srgm_predict(fit, np.array([150.0, 1e6]))
        assert np.all(far <= fit.params.a)
        assert far[0] < fit.params.a
        assert far[-1] == pytest.approx(fit.params.a, rel=1e-6)

    def test_nondecreasing(self):
        fit = fit_srgm(go_curve(), SrgmKind.GO)
        pred = srgm_predict(fit, np.linspace(0, 300, 100))
        assert np.all(np.diff(pred) >= 0)


EPS = np.finfo(float).eps


def decimal_inverse(kind, a, b, c, y):
    """The time t with mvf(t) = y in exact arithmetic, to 50 significant
    digits, and the condition number κ = |u t'(u) / t| of the inverse at
    u = y/a; t is inf when y >= a."""
    if y == 0:
        return 0.0, 0.0
    with localcontext() as ctx:
        # 1 - u cancels the digits of u's exponent, and so does x - ln(1 + x) at small u
        ctx.prec = 55 + max(0, -(Decimal(y) / Decimal(a)).adjusted())
        u = Decimal(y) / Decimal(a)
        if u >= 1:
            return math.inf, math.inf
        w = -(1 - u).ln()
        if kind is not SrgmKind.DSS:
            shape = Decimal(c) if kind is SrgmKind.WEIBULL else Decimal(1)
            return float((w / Decimal(b)) ** (1 / shape)), float(u / ((1 - u) * w) / shape)
        # 1 - (1 + x)e^-x = u is x - ln(1 + x) = w, convex in x; Newton from
        # the bound w + sqrt(w^2 + 2w), which lies above the root, falls to it
        x = w + (w * w + 2 * w).sqrt()
        for _ in range(200):
            step = (x - (1 + x).ln() - w) * (1 + x) / x
            x -= step
            if step <= x.scaleb(5 - ctx.prec):
                break
        return float(x / Decimal(b)), float(u * x.exp() / (x * x))


def assert_within_condition_ulps(times, targets, kind, params, horizon):
    """Each time is within 8 (1 + κ) ulps of the exact inverse of its target,
    both clipped to the horizon; below the normal range an ulp is that of the
    least normal float."""
    for t, y in zip(times.tolist(), targets.tolist()):
        exact, kappa = decimal_inverse(kind, params.a, params.b, params.c, y)
        if math.isinf(exact):
            assert t == horizon, (y, t)
        else:
            bound = 8 * (1 + kappa) * EPS * max(exact, np.finfo(float).tiny)
            assert abs(t - min(exact, horizon)) <= bound, (y, t, exact, kappa)


class TestSimulate:
    params = SrgmParams(a=60.0, b=0.04)

    def test_deterministic_for_fixed_seed(self):
        a = simulate_nhpp(SrgmKind.GO, self.params, horizon=25.0, seed=7)
        b = simulate_nhpp(SrgmKind.GO, self.params, horizon=25.0, seed=7)
        assert np.array_equal(a, b)

    def test_sorted_within_horizon(self):
        times = simulate_nhpp(SrgmKind.GO, self.params, horizon=25.0, seed=3)
        assert isinstance(times, np.ndarray) and times.dtype == float
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0
        assert times[-1] <= 25.0

    def test_mean_count_matches_intensity(self):
        total = mvf(SrgmKind.GO, self.params, 25.0)
        counts = [
            len(simulate_nhpp(SrgmKind.GO, self.params, horizon=25.0, seed=s))
            for s in range(200)
        ]
        se = np.sqrt(total / len(counts))
        assert abs(np.mean(counts) - total) <= 3 * se

    def test_degenerate_intensity_rejected(self):
        with pytest.raises(DegenerateDataError):
            simulate_nhpp(SrgmKind.GO, SrgmParams(a=1e-14, b=1e-9), horizon=1e-6, seed=0)

    def test_non_finite_mean_value_rejected(self):
        # b*t overflows to inf and DSS's (1 + inf) * exp(-inf) is NaN, silently
        assert np.isnan(mvf(SrgmKind.DSS, SrgmParams(a=10.0, b=1e300), 1e10))
        with pytest.raises(UsageError, match="^mean value at the horizon is nan; "):
            simulate_nhpp(SrgmKind.DSS, SrgmParams(a=10.0, b=1e300), horizon=1e10, seed=0)

    def test_invalid_horizon(self):
        with pytest.raises(UsageError):
            simulate_nhpp(SrgmKind.GO, self.params, horizon=0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="^seed must be a non-negative integer, got -1$"):
            simulate_nhpp(SrgmKind.GO, self.params, horizon=25.0, seed=-1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(list(SrgmKind)),
        st.floats(-1.0, 6.0).map(lambda e: 10.0**e),
        st.floats(1e-3, 30.0),
        st.floats(0.3, 3.0),
        st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
        # fractions of the mean value at the horizon; from 1e-280 up, y/a stays a normal float
        st.lists(
            st.one_of(
                st.floats(-280.0, -1.0).map(lambda e: 10.0**e),
                st.floats(1e-280, 1.0),
                st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_inverse_is_within_eight_condition_ulps_of_the_decimal_inverse(
        self, kind, a, x_horizon, c, horizon, fractions
    ):
        # x_horizon is b * horizon^c, the mvf's argument at the horizon
        b = x_horizon / (horizon**c if kind is SrgmKind.WEIBULL else horizon)
        params = SrgmParams(a=a, b=b, c=c)
        targets = np.array(fractions) * mvf(kind, params, horizon)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as simulate_nhpp
            times = np.minimum(srgm._inverse_mvf(kind, a, b, c, targets), horizon)
        assert_within_condition_ulps(times, targets, kind, params, horizon)

    @pytest.mark.parametrize("kind", list(SrgmKind))
    def test_draws_are_unchanged_and_each_time_inverts_its_own(self, kind):
        params, horizon = SrgmParams(a=30.0, b=0.1, c=1.3), 25.0
        total = mvf(kind, params, horizon)
        for seed in (0, 1, 2**32):
            rng = np.random.default_rng(seed)
            count = int(rng.poisson(total))
            targets = np.sort(rng.uniform(size=count) * total)
            times = simulate_nhpp(kind, params, horizon, seed)
            assert times.size == count
            assert_within_condition_ulps(times, targets, kind, params, horizon)

    @pytest.mark.parametrize("kind", list(SrgmKind))
    def test_mass_near_one_stays_within_the_horizon_without_warnings(self, kind):
        # b * horizon = 50: the mean value rounds to a, and y/a can round to 1
        params, horizon = SrgmParams(a=2000.0, b=2.0, c=1.0), 25.0
        times = simulate_nhpp(kind, params, horizon, seed=5)
        assert times.size > 0 and np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] <= horizon

    @pytest.mark.parametrize("kind", list(SrgmKind))
    def test_end_targets_map_to_zero_and_the_horizon(self, kind, monkeypatch):
        class Draws:
            def poisson(self, mean):
                return 3

            def uniform(self, size):
                return np.array([0.0, 0.5, 1.0])  # numpy never draws 1.0

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        params, horizon = SrgmParams(a=10.0, b=2.0, c=1.5), 25.0
        times = simulate_nhpp(kind, params, horizon, seed=0)
        assert times[0] == 0.0 and 0.0 < times[1] < horizon and times[2] == horizon

    def test_event_time_distribution_tracks_mvf(self):
        # empirical CDF at the horizon midpoint vs mvf ratio, pooled over seeds
        t_half = 12.5
        for kind, params in [
            (SrgmKind.GO, self.params),
            (SrgmKind.DSS, SrgmParams(a=60.0, b=0.15)),
            (SrgmKind.WEIBULL, SrgmParams(a=60.0, b=0.01, c=1.5)),
        ]:
            expected = mvf(kind, params, t_half) / mvf(kind, params, 25.0)
            below = total = 0
            for seed in range(120):
                times = simulate_nhpp(kind, params, horizon=25.0, seed=seed)
                below += int(np.sum(times <= t_half))
                total += len(times)
            assert below / total == pytest.approx(expected, abs=0.02), kind


def test_poisson_band_equals_scipy_interval():
    from scipy.stats import poisson

    # At the last two means, an unnormalised pmf from
    # k log(mean) - mean - lgamma(k + 1) puts an end one count off.
    grid = np.concatenate([
        np.logspace(-3, 8, 500),
        [0.5, 1.0, 7.0, 106_000.0, 1e7, 18_015_200.40802024, 100_000_000.0],
    ])
    for mean in grid.tolist():
        lo, hi = poisson.interval(0.999, mean)
        assert srgm.poisson_band(mean) == (lo, hi), mean


def test_kind_labels():
    assert SrgmKind.from_label("GO") is SrgmKind.GO
    assert SrgmKind.from_label(" weibull ") is SrgmKind.WEIBULL
    with pytest.raises(UsageError):
        SrgmKind.from_label("gompertz")


def test_params_must_be_positive():
    with pytest.raises(UsageError):
        SrgmParams(a=-1.0, b=1.0)
    with pytest.raises(UsageError):
        SrgmParams(a=1.0, b=0.0)
