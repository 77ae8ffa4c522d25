"""Differential tests of the program against the frozen seed copy.

``perfbench/control/tsarf_control`` is the program as the benchmark first
recorded it, kept unedited as its control. On noisy growth curves, exact
lines and tied times at any time scale the forecast must pick the same window
size, the same moving-average length up to rounding ties, and the same test
PMSE within the benchmark's tolerance, or fail as the control does. Where the
times carry an offset the control is the side in error, and the forecast is
held to exact arithmetic (``exact_tsarf``) instead. Each SRGM fit must fail as
the control's does, or reach an SSE no higher.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import tsarf
from conftest import make_changepoint_curve
from exact_tsarf import exact_tsarf
from tsarf import GrowthCurve, pmse, predicted_line, split, tsarf_forecast

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench" / "control"))
control = pytest.importorskip("tsarf_control")

#: The benchmark's relative tolerance on TSARF PMSE (perfbench/workloads.py).
PMSE_RTOL = 1e-3
#: Relative tolerance on TSARF PMSE against exact arithmetic.
EXACT_PMSE_RTOL = 1e-8
#: The benchmark's relative tolerance on SRGM training SSE (perfbench/workloads.py).
SSE_RTOL = 1e-9
#: select_ma_length's tie tolerance on holdout RMSEs, per unit of max|y_hold|.
TIE = 1000 * np.finfo(float).eps


def shaped_times(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n sorted failure times drawn from the shape of a GO, DSS or Weibull
    mean value function, or from a changepoint curve."""
    if kind == "changepoint":
        return make_changepoint_curve(rng, n).times
    if kind == "go":
        times = rng.exponential(size=n)
    elif kind == "dss":
        times = rng.gamma(2.0, size=n)  # 1 - (1 + t) e^-t is the Gamma(2) CDF
    else:
        times = rng.weibull(rng.uniform(0.5, 3.0), size=n)
    return np.sort(times)


def noisy_curve(kind: str, n: int, rng: np.random.Generator) -> GrowthCurve:
    """A noisy curve of the given shape; GO, DSS and Weibull shapes at a
    random time scale."""
    if kind == "changepoint":
        return make_changepoint_curve(rng, n)
    return GrowthCurve(shaped_times(kind, n, rng) * 10.0 ** rng.uniform(-1, 3), np.arange(1.0, n + 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["go", "dss", "weibull", "changepoint"]),
    n=st.integers(30, 400),
    k=st.none() | st.integers(3, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_tsarf_forecast_matches_control(kind, n, k, seed):
    parts = split(noisy_curve(kind, n, np.random.default_rng(seed)), k=k)
    train = control.GrowthCurve(parts.train.times, parts.train.counts)
    model = tsarf_forecast(parts.train, k=k)
    ref = control.tsarf_forecast(train, control.TsarfConfig(k=k))
    assert model.history.k == ref.k_used

    d = model.d_used
    if d != ref.d_used:
        # the control takes the strict least holdout MSE; the program calls
        # RMSEs within rounding of the least a tie and takes the smaller d
        rmse = {length: np.sqrt(mse) for length, mse in model.ma_candidates}
        tolerance = TIE * np.abs(parts.train.counts[-model.history.k:]).max()
        assert abs(rmse[d] - rmse[ref.d_used]) <= tolerance
        ref = control.tsarf_forecast(train, control.TsarfConfig(k=k, d=d))

    got = pmse(predicted_line(model, parts.test.times), parts.test.counts)
    want = control.pmse(control.predicted_line(ref, parts.test.times), parts.test.counts)
    assert got == pytest.approx(want, rel=PMSE_RTOL)


def drawn_times(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n sorted times spanning about n: the exact line t = count - 1, a noisy
    shape, or a noisy shape rounded onto n/4 to n/2 ticks, so times tie."""
    if shape == "line":
        return np.arange(float(n))
    if shape == "ties":
        times = shaped_times(rng.choice(["go", "dss", "weibull", "changepoint"]), n, rng)
        ticks = int(rng.integers(n // 4, n // 2))
        return np.ceil(times / times[-1] * ticks) * (n / ticks)
    times = shaped_times(shape, n, rng)
    return times * (n / times[-1])


def _forecast_or_error(package, train: GrowthCurve, k: int | None, d: int | None = None):
    """The package's TSARF model on the training curve, or the name of the error it raises."""
    try:
        if package is tsarf:
            return tsarf.tsarf_forecast(train, k, d)
        return control.tsarf_forecast(control.GrowthCurve(train.times, train.counts), control.TsarfConfig(k=k, d=d))
    except package.TsarfError as exc:
        return type(exc).__name__


def assert_matches_exact(model, parts, k: int | None, shape: str) -> None:
    """The program's outcome against the 90-digit oracle: the same failure,
    or a d whose holdout RMSE is within the tie tolerance of the exact least
    and a test PMSE within EXACT_PMSE_RTOL of exact at that d."""
    train, test = parts.train, parts.test
    args = (train.times, train.counts, test.times, test.counts, tsarf.auto_window_size(train.n) if k is None else k)
    exact = exact_tsarf(*args)
    if isinstance(model, str) or exact is None:
        assert (model, exact) == ("DegenerateWindowError", None)
        return
    _, mses, _ = exact
    if mses:
        tolerance = TIE * np.abs(train.counts[-model.history.k:]).max()
        assert float(mses[model.d_used].sqrt()) <= float(min(mses.values()).sqrt()) + tolerance
    _, _, want = exact_tsarf(*args, d=model.d_used)
    got = pmse(predicted_line(model, test.times), test.counts)
    if not (shape == "line" and max(got, want) <= 1e-9):
        assert got == pytest.approx(float(want), rel=EXACT_PMSE_RTOL)


# The program runs on the curve at time scale 10^log_scale, and the control on
# the curve in its own unit, where its pivot test holds: that test compares
# against the largest diagonal of X'X and so rejects windows at time scales
# far from 1 (CHANGES, MENDED), while a TSARF forecast does not depend on the
# time unit. Offsets are in units of the mean gap, up to 2e9: epoch seconds.
# The control's uncentred window fits lose digits to an offset (a changepoint
# curve, n = 30, at 10^5.5 gaps gives a PMSE 1.4e-3 from exact) and reject
# windows from 1e8 gaps on, so an offset curve is checked against the exact
# oracle instead.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(["line", "ties", "go", "dss", "weibull", "changepoint"]),
    n=st.integers(30, 400),
    k=st.none() | st.integers(3, 10),
    log_scale=st.floats(-6, 6),
    offset=st.just(0.0) | st.floats(0, np.log10(2e9)).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape="changepoint", n=30, k=None, log_scale=0.0, offset=10.0**5.5, seed=0)
def test_tsarf_forecast_matches_control_on_lines_ties_and_scales(shape, n, k, log_scale, offset, seed):
    times = drawn_times(shape, n, np.random.default_rng(seed)) + offset
    counts = np.arange(1.0, n + 1)
    parts = split(GrowthCurve(times * 10.0**log_scale, counts), k=k)
    model = _forecast_or_error(tsarf, parts.train, k)
    if offset:
        assert_matches_exact(model, parts, k, shape)
        return
    unit = split(GrowthCurve(times, counts), k=k)
    ref = _forecast_or_error(control, unit.train, k)
    if isinstance(model, str) or isinstance(ref, str):
        assert model == ref
        return
    assert model.history.k == ref.k_used

    d = model.d_used
    if d != ref.d_used:
        rmse = {length: np.sqrt(mse) for length, mse in model.ma_candidates}
        tolerance = TIE * np.abs(parts.train.counts[-model.history.k:]).max()
        assert abs(rmse[d] - rmse[ref.d_used]) <= tolerance
        ref = _forecast_or_error(control, unit.train, k, d)

    got = pmse(predicted_line(model, parts.test.times), parts.test.counts)
    want = control.pmse(control.predicted_line(ref, unit.test.times), unit.test.counts)
    if not (shape == "line" and max(got, want) <= 1e-9):
        assert got == pytest.approx(want, rel=PMSE_RTOL)


def _fit_or_error(package, curve: GrowthCurve, kind: str):
    """``package.fit_srgm`` on the curve, or the name of the error it raises."""
    try:
        return package.fit_srgm(package.GrowthCurve(curve.times, curve.counts), package.SrgmKind(kind))
    except package.TsarfError as exc:
        return type(exc).__name__


# a control fit takes about a quarter of a second, so few curves keep this
# short, and a failure is reported as drawn: shrinking it would rerun the fits
# for minutes
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(
    shape=st.sampled_from(["go", "dss", "weibull", "changepoint"]),
    n=st.integers(20, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_srgm_fits_match_control(shape, n, seed):
    curve = noisy_curve(shape, n, np.random.default_rng(seed))
    for kind in ("go", "dss", "weibull"):
        got = _fit_or_error(tsarf, curve, kind)
        want = _fit_or_error(control, curve, kind)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, kind
        else:
            assert got.sse <= want.sse * (1.0 + SSE_RTOL), kind
