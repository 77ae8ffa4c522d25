"""Differential tests of the program against the frozen seed copy.

``perfbench/control/tsarf_control`` is the program as the benchmark first
recorded it, kept unedited as its control. On noisy growth curves the
forecast must pick the same window size, the same moving-average length up
to rounding ties, and the same test PMSE within the benchmark's tolerance;
each SRGM fit must fail as the control's does, or reach an SSE no higher.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import tsarf
from conftest import make_changepoint_curve
from tsarf import GrowthCurve, pmse, predicted_line, split, tsarf_forecast

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench" / "control"))
control = pytest.importorskip("tsarf_control")

#: The benchmark's relative tolerance on TSARF PMSE (perfbench/workloads.py).
PMSE_RTOL = 1e-3
#: The benchmark's relative tolerance on SRGM training SSE (perfbench/workloads.py).
SSE_RTOL = 1e-9
#: select_ma_length's tie tolerance on holdout RMSEs, per unit of max|y_hold|.
TIE = 1000 * np.finfo(float).eps


def noisy_curve(kind: str, n: int, rng: np.random.Generator) -> GrowthCurve:
    """n failure times drawn from the shape of a GO, DSS or Weibull mean value
    function at a random time scale, or a changepoint curve."""
    if kind == "changepoint":
        return make_changepoint_curve(rng, n)
    if kind == "go":
        times = rng.exponential(size=n)
    elif kind == "dss":
        times = rng.gamma(2.0, size=n)  # 1 - (1 + t) e^-t is the Gamma(2) CDF
    else:
        times = rng.weibull(rng.uniform(0.5, 3.0), size=n)
    return GrowthCurve(np.sort(times) * 10.0 ** rng.uniform(-1, 3), np.arange(1.0, n + 1))


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
