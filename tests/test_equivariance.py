"""TSARF commutes with affine maps of the counts and of the times.

For fixed times, window size k and moving-average length d, stages 1-3 are
linear in the counts, so forecasting c·y + α + β·t gives c·(forecast of y)
+ α + β·t, and the forecast of y1 + y2 is the sum of their forecasts. A map
a·t + s of the times leaves every prediction as it was, since each stage
measures time from the first training time and the window fits are centred.
Every comparison is at the test times, within 1e-10 of the size of the
counts' terms: α and β·t may cancel c·y, and the stages round relative to
each term.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsarf
from conftest import make_changepoint_curve
from tsarf import GrowthCurve, predicted_line, split, tsarf_forecast

RTOL = 1e-10


def draw_curve(rng, kind, n):
    """A changepoint curve, or an exact line at a drawn slope."""
    if kind == "changepoint":
        return make_changepoint_curve(rng, n)
    counts = np.arange(1, n + 1, dtype=float)
    return GrowthCurve((counts - 1.0) / rng.uniform(0.5, 4.0), counts)


def forecast(times, counts, test_times, k=None, d=None):
    """The model fitted on (times, counts) and its predicted line at the test times."""
    model = tsarf_forecast(GrowthCurve(times, counts), k, d)
    return model, predicted_line(model, test_times)


curve_params = dict(
    kind=st.sampled_from(["changepoint", "line"]),
    n=st.integers(30, 400),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
# c·y + α + β·t is 0 up to rounding, so every holdout RMSE ties
@example(kind="line", n=40, seed=2, c=1.0, alpha=-1.0, beta=-1.4156424698726073)
@given(
    **curve_params,
    c=st.floats(0.1, 10),
    alpha=st.floats(-50, 50),
    beta=st.floats(-2, 2),
)
def test_forecast_commutes_with_affine_map_of_counts(kind, n, seed, c, alpha, beta):
    parts = split(draw_curve(np.random.default_rng(seed), kind, n))
    t, y, t_test = parts.train.times, parts.train.counts, parts.test.times
    mapped = c * y + alpha + beta * t
    scale = c * np.abs(y).max() + abs(alpha) + abs(beta) * np.abs(t).max()

    model, pred = forecast(t, y, t_test)
    mapped_model, mapped_pred = forecast(t, mapped, t_test)
    assert mapped_model.history.k == model.history.k
    # every holdout score maps to c times its own, up to rounding
    rmse, mapped_rmse = (np.sqrt([mse for _, mse in m.ma_candidates]) for m in (model, mapped_model))
    assert np.all(np.abs(mapped_rmse - c * rmse) <= RTOL * scale)
    if mapped_model.d_used != model.d_used:
        # The tie rule treats RMSEs within 1000·eps·max|y_hold| of the least
        # as equal, and α and β move max|y_hold| but not the RMSEs. So the
        # two curves may break a rounding-level tie differently: then the two
        # d score alike, and the lines are compared at d fixed to y's.
        d, mapped_d = model.d_used - 1, mapped_model.d_used - 1
        assert abs(mapped_rmse[d] - mapped_rmse[mapped_d]) <= RTOL * scale
        mapped_model, mapped_pred = forecast(t, mapped, t_test, d=model.d_used)
    assert np.all(np.abs(mapped_pred - (c * pred + alpha + beta * t_test)) <= RTOL * scale)


@settings(max_examples=100, deadline=None)
@given(**curve_params, d_fraction=st.floats(0, 1))
def test_forecast_is_additive_at_fixed_k_and_d(kind, n, seed, d_fraction):
    rng = np.random.default_rng(seed)
    parts = split(draw_curve(rng, kind, n))
    t, y1, t_test = parts.train.times, parts.train.counts, parts.test.times
    y2 = np.cumsum(rng.normal(1.0, 3.0, size=len(t)))
    k = max(3, len(t) // 10)
    d = 1 + int(d_fraction * (len(t) // k - 2))  # in 1..W-1
    preds = [forecast(t, y, t_test, k, d)[1] for y in (y1, y2, y1 + y2)]
    scale = np.abs(y1).max() + np.abs(y2).max()
    assert np.all(np.abs(preds[2] - (preds[0] + preds[1])) <= RTOL * scale)


@settings(max_examples=150, deadline=None)
@given(
    **curve_params,
    log_a=st.floats(-6, 6),
    s=st.sampled_from([0.0, 1.7e9, 2e9]) | st.floats(0, 2e9),
)
def test_forecast_is_invariant_under_affine_map_of_times(kind, n, seed, log_a, s):
    """The mapped times a·t + s are rounded, by up to eps·s/a in units of t,
    which is more than a gap at a = 1e-6 and s = 2e9. So the forecast on them
    is compared with the forecast on the times they stand for, (x - s)/a, at
    the same k and d."""
    a = 10.0**log_a
    parts = split(draw_curve(np.random.default_rng(seed), kind, n))
    y = parts.train.counts
    mapped, mapped_test = a * parts.train.times + s, a * parts.test.times + s
    t, t_test = (mapped - s) / a, (mapped_test - s) / a
    scale = np.abs(y).max()

    model, pred = forecast(t, y, t_test)
    mapped_model, mapped_pred = forecast(mapped, y, mapped_test)
    assert mapped_model.history.k == model.history.k
    rmse, mapped_rmse = (np.sqrt([mse for _, mse in m.ma_candidates]) for m in (model, mapped_model))
    assert np.all(np.abs(mapped_rmse - rmse) <= RTOL * scale)
    if mapped_model.d_used != model.d_used:
        # the two break a rounding-level tie differently (see the counts test)
        mapped_model, mapped_pred = forecast(mapped, y, mapped_test, d=model.d_used)
    assert np.all(np.abs(mapped_pred - pred) <= RTOL * scale)


def test_epoch_second_times_forecast_as_their_offset_from_the_first(tmp_path):
    """A format-A file in epoch seconds forecasts through the CLI as the same
    times from 0 do: times on a 1/1024 s grid shift exactly, so k, d and the
    metrics agree bit for bit."""
    times = np.round(make_changepoint_curve(np.random.default_rng(4), n=120).times * 1024) / 1024
    src = str(Path(tsarf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    entries = []
    for name, offset in (("plain", 0.0), ("epoch", 1.7e9)):
        (tmp_path / f"{name}.txt").write_text("".join(f"{t!r}\n" for t in (times + offset).tolist()))
        argv = ["-m", "tsarf", "compare", f"{name}.txt", "--models", "tsarf",
                "--output", f"{name}.json", "--curves", f"{name}.csv"]
        result = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        [entry] = json.loads((tmp_path / f"{name}.json").read_text())["models"]
        entries.append((entry["status"], entry["tsarf"]["k"], entry["tsarf"]["d"], entry["metrics"]))
    assert entries[0] == entries[1]
