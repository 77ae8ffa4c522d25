"""TSARF commutes with affine maps of the counts.

For fixed times, window size k and moving-average length d, stages 1-3 are
linear in the counts, so forecasting c·y + α + β·t gives c·(forecast of y)
+ α + β·t, and the forecast of y1 + y2 is the sum of their forecasts. Every
comparison is at the test times, within 1e-10 of the size of the counts'
terms: α and β·t may cancel c·y, and the stages round relative to each term.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
