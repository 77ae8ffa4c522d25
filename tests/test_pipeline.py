import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsarf import (
    DegenerateWindowError,
    GrowthCurve,
    InsufficientDataError,
    UsageError,
    apply_moving_average,
    auto_window_size,
    error_correct,
    fit_windows,
    forecast_coefficients,
    pmse,
    predicted_line,
    select_ma_length,
    split,
    tsarf_forecast,
    window_fitted_values,
)
from conftest import make_changepoint_curve


class TestPartitionWindows:
    """fit_windows' split of training into blocks of k points ending at its end."""

    def test_exact_division(self, line_curve):
        history = fit_windows(line_curve(20), 5)
        assert (history.W, history.k, history.n_dropped) == (4, 5, 0)

    def test_remainder_drops_oldest(self, line_curve):
        history = fit_windows(line_curve(22), 5)
        assert (history.W, history.k, history.n_dropped) == (4, 5, 2)

    def test_single_window_is_insufficient(self, line_curve):
        with pytest.raises(InsufficientDataError):
            fit_windows(line_curve(9), 5)

    def test_small_k_rejected(self, line_curve):
        with pytest.raises(UsageError):
            fit_windows(line_curve(20), 2)


class TestFitWindows:
    def test_exact_line_fixed_point(self, line_curve):
        curve = line_curve(20)
        history = fit_windows(curve, 5)
        assert history.matrix == pytest.approx(np.tile([1.0, 2.0], (4, 1)), abs=1e-10)
        assert history.W == 4
        assert history.k == 5

    def test_identical_timestamps_degenerate(self):
        curve = GrowthCurve(np.repeat(3.0, 12), np.arange(1, 13, dtype=float))
        with pytest.raises(DegenerateWindowError, match="window 1"):
            fit_windows(curve, 6)

    def test_duplicate_times_name_the_first_degenerate_window(self):
        # n = 22 drops the first 2 points, so window 3 starts 2 points later
        for n, points in ((20, r"11\.\.15"), (22, r"13\.\.17")):
            t = np.arange(n, dtype=float)
            t[n - 10:] = n - 10.0  # windows 3 and 4 hold one repeated time each
            curve = GrowthCurve(t, np.arange(1, n + 1, dtype=float))
            with pytest.raises(
                DegenerateWindowError,
                match=rf"^window 3 \(points {points}\) cannot support a line fit: ",
            ):
                fit_windows(curve, 5)

    def test_piecewise_slopes(self):
        t = np.arange(20, dtype=float)
        counts = np.where(t < 10, 1.0 + t, 11.0 + 3.0 * (t - 9.0))
        curve = GrowthCurve(t, counts)
        history = fit_windows(curve, 5)
        assert history.matrix[:, 1] == pytest.approx([1.0, 1.0, 3.0, 3.0], abs=1e-10)


class TestForecastCoefficients:
    def test_exact_trend(self):
        matrix = np.column_stack([[2, 4, 6, 8, 10], np.ones(5)])
        trend, raw = forecast_coefficients(matrix)
        assert trend[0] == pytest.approx([0.0, 2.0], abs=1e-10)
        assert raw[0] == pytest.approx(12.0, abs=1e-10)

    def test_constant_history(self):
        matrix = np.tile([7.5, 3.0], (4, 1))
        trend, raw = forecast_coefficients(matrix)
        assert trend[:, 1] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert raw == pytest.approx([7.5, 3.0], abs=1e-10)

    def test_hand_computed_trend(self):
        # column (1, 2, 5) at i=1..3: OLS gives intercept -4/3, slope 2
        matrix = np.column_stack([[1.0, 2.0, 5.0], np.zeros(3)])
        trend, raw = forecast_coefficients(matrix)
        assert trend[0] == pytest.approx([-4.0 / 3.0, 2.0], abs=1e-10)
        assert raw[0] == pytest.approx(20.0 / 3.0, abs=1e-10)

    def test_single_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            forecast_coefficients(np.array([[1.0, 2.0]]))


class TestErrorCorrect:
    def test_zero_residual_leaves_raw(self):
        matrix = np.column_stack([[2.0, 4.0, 6.0], np.ones(3)])
        trend, raw = forecast_coefficients(matrix)
        corrected, epsilon = error_correct(raw, trend, matrix)
        assert epsilon == pytest.approx([0.0, 0.0], abs=1e-10)
        assert corrected == pytest.approx(raw, abs=1e-12)

    def test_hand_computed_epsilon(self):
        # continuing the (1, 2, 5) example: eps = 5 - 14/3 = 1/3, corrected 7
        matrix = np.column_stack([[1.0, 2.0, 5.0], np.zeros(3)])
        trend, raw = forecast_coefficients(matrix)
        corrected, epsilon = error_correct(raw, trend, matrix)
        assert epsilon[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert corrected[0] == pytest.approx(7.0, abs=1e-10)

    def test_sign_tracks_last_window(self):
        # last value pushed above the trend line -> positive correction
        matrix = np.column_stack([[1.0, 2.0, 9.0], np.zeros(3)])
        trend, raw = forecast_coefficients(matrix)
        _, epsilon = error_correct(raw, trend, matrix)
        assert epsilon[0] > 0

    @settings(max_examples=60)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 9), st.just(2)),
            elements=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        )
    )
    def test_corrected_trend_passes_through_last_row(self, matrix):
        trend, raw = forecast_coefficients(matrix)
        _, epsilon = error_correct(raw, trend, matrix)
        anchored = trend[:, 0] + len(matrix) * trend[:, 1] + epsilon
        assert anchored == pytest.approx(matrix[-1], abs=1e-10)

    def test_stage2_residuals_orthogonal_to_index(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(0, 20, size=(7, 2))
        trend, _ = forecast_coefficients(matrix)
        idx = np.arange(1, 8, dtype=float)
        for rho in range(2):
            residual = matrix[:, rho] - (trend[rho, 0] + idx * trend[rho, 1])
            assert abs(residual.sum()) < 1e-8
            assert abs((residual * idx).sum()) < 1e-7


class TestMovingAverage:
    def test_hand_value(self):
        matrix = np.column_stack([[1.0, 2.0, 5.0], np.zeros(3)])
        blended = apply_moving_average(np.array([7.0, 0.0]), matrix, d=1)
        assert blended[0] == pytest.approx(4.5, abs=1e-12)

    def test_constant_history_is_identity(self):
        matrix = np.tile([4.0, 2.0], (5, 1))
        blended = apply_moving_average(np.array([4.0, 2.0]), matrix, d=3)
        assert blended == pytest.approx([4.0, 2.0], abs=1e-12)

    def test_d_equal_to_window_count_rejected(self):
        matrix = np.tile([1.0, 1.0], (3, 1))
        with pytest.raises(UsageError):
            apply_moving_average(np.array([1.0, 1.0]), matrix, d=3)

    def test_averages_rows_before_last(self):
        matrix = np.column_stack([[10.0, 20.0, 30.0, 99.0], np.zeros(4)])
        blended = apply_moving_average(np.zeros(2), matrix, d=2)
        # rows W-1 and W-2 (20, 30), never the last row (99)
        assert blended[0] == pytest.approx(0.5 * ((20.0 + 30.0) / 2.0), abs=1e-12)


def exhaustive_best_d(history, train):
    """Independent recomputation of the holdout search using np.polyfit."""
    n_windows = history.W
    sub = history.matrix[:-1]
    idx = np.arange(1, n_windows, dtype=float)
    start = history.n_dropped + (n_windows - 1) * history.k
    stop = start + history.k
    t_hold, y_hold = train.times[start:stop], train.counts[start:stop]
    mses = []
    for d in range(1, n_windows - 1):
        line = []
        for rho in range(2):
            col = sub[:, rho]
            slope, intercept = np.polyfit(idx, col, 1)
            raw = intercept + n_windows * slope
            eps = col[-1] - (intercept + (n_windows - 1) * slope)
            ma = col[len(col) - 1 - d : len(col) - 1].mean()
            line.append(0.5 * (raw + eps + ma))
        mses.append(float(np.mean((line[0] + line[1] * t_hold - y_hold) ** 2)))
    best = int(np.argmin(mses)) + 1
    return best, mses


class TestSelectMaLength:
    def test_constant_history_ties_to_one(self, line_curve):
        curve = line_curve(25)
        history = fit_windows(curve, 5)
        d, candidates, fallback = select_ma_length(history, curve)
        assert d == 1
        assert not fallback
        assert [c for c, _ in candidates] == [1, 2, 3]

    def test_three_windows_yield_singleton(self, line_curve):
        curve = line_curve(15)
        history = fit_windows(curve, 5)
        d, candidates, _ = select_ma_length(history, curve)
        assert d == 1
        assert len(candidates) == 1

    def test_two_windows_fall_back(self, line_curve):
        curve = line_curve(10)
        history = fit_windows(curve, 5)
        d, candidates, fallback = select_ma_length(history, curve)
        assert (d, candidates, fallback) == (1, (), True)

    @staticmethod
    def assert_matches_oracle(curve, k):
        history = fit_windows(curve, k)
        d, candidates, _ = select_ma_length(history, curve)
        oracle_d, oracle_mses = exhaustive_best_d(history, curve)
        assert d == oracle_d
        assert [c for c, _ in candidates] == list(range(1, history.W - 1))
        assert [mse for _, mse in candidates] == pytest.approx(oracle_mses, rel=1e-9)
        assert candidates[d - 1][1] == min(mse for _, mse in candidates)
        return history

    def test_matches_exhaustive_recomputation(self):
        for seed in range(8):
            curve = make_changepoint_curve(np.random.default_rng(seed), n=60)
            self.assert_matches_oracle(curve, 6)

    def test_matches_exhaustive_recomputation_with_100_windows(self):
        curve = make_changepoint_curve(np.random.default_rng(8), n=300)
        assert self.assert_matches_oracle(curve, 3).W == 100

    @staticmethod
    def exact_line(n, scale, offset, base=0.0):
        """Counts base + 1..n at times scale·(i - 1)/2, shifted by ``offset`` spans."""
        times = scale * np.arange(n) / 2
        return GrowthCurve(times + offset * times[-1], base + np.arange(1.0, n + 1))

    # (300, 3) at scale 37 (times 37·i/2, 100 windows) and (40, 3) at scale 1
    # with offset 1000/19.5 spans (times 1000 + i/2) picked d = 9 and d = 2
    # with uncentred window fits
    @pytest.mark.parametrize("n,k", [(40, 3), (100, 10), (300, 3)])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.5, 1.0, 37.0, 3600.0, 1e6])
    @pytest.mark.parametrize("offset", [0.0, 0.25, 1000 / 19.5])
    def test_exact_line_ties_to_one(self, n, k, scale, offset):
        """Every holdout MSE of an exact line is rounding noise, so every d ties."""
        curve = self.exact_line(n, scale, offset)
        d, candidates, _ = select_ma_length(fit_windows(curve, k), curve)
        assert d == 1
        assert len(candidates) == n // k - 2

    def test_gap_above_tolerance_is_not_a_tie(self):
        """Shrinking a curve onto a line shrinks every RMSE gap by the same factor,
        since the pipeline is linear in the counts: d = 8 wins by 75 tolerances
        at 1e-6 and ties down to 1 at 1e-13."""
        curve = make_changepoint_curve(np.random.default_rng(33), n=60)
        line = 1.0 + 2.0 * curve.times
        for shrink, want in [(1.0, 8), (1e-6, 8), (1e-13, 1)]:
            shrunk = GrowthCurve(curve.times, line + shrink * (curve.counts - line))
            assert select_ma_length(fit_windows(shrunk, 3), shrunk)[0] == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(32, 3), (40, 3), (60, 5), (100, 10)]),
        st.floats(-6, 6),
        st.floats(0, 0.25),
        st.sampled_from([0.0, 1.0, 1000.0]),
        st.lists(st.floats(-1, 1), min_size=100, max_size=100),
    )
    def test_noise_far_below_tolerance_keeps_d(self, shape, log_scale, offset, base, noise):
        """Noise up to eps·max|y|, a thousandth of the tolerance, leaves an exact line's d at 1."""
        n, k = shape
        curve = self.exact_line(n, 10.0**log_scale, offset, base)
        jitter = np.finfo(float).eps * curve.counts.max() * np.asarray(noise[:n])
        noisy = GrowthCurve(curve.times, curve.counts + jitter)
        d, _, _ = select_ma_length(fit_windows(curve, k), curve)
        noisy_d, _, _ = select_ma_length(fit_windows(noisy, k), noisy)
        assert d == noisy_d == 1


class TestForecastEndToEnd:
    def test_predicted_line_hand_values(self, line_curve):
        model = tsarf_forecast(line_curve(20), k=5, d=1)
        assert predicted_line(model, [3.0]) == pytest.approx([7.0], abs=1e-9)

    def test_exact_line_all_configs(self, line_curve):
        curve = line_curve(35)
        parts = split(curve, 5)
        for k in (3, 5, 8):
            max_d = parts.train.n // k - 1
            for d in [None, *range(1, max_d + 1)]:
                model = tsarf_forecast(parts.train, k=k, d=d)
                assert model.coefficients == pytest.approx([1.0, 2.0], abs=1e-9)
                pred = predicted_line(model, parts.test.times)
                assert pmse(pred, parts.test.counts) < 1e-9

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1.7e9])
    def test_exact_line_forecasts_at_epoch_offsets(self, offset):
        """Unit-spaced times from an epoch-second offset: uncentred window
        fits raised DegenerateWindowError from 1e8 on."""
        times = offset + np.arange(100.0)
        parts = split(GrowthCurve(times, np.arange(1.0, 101.0)), 10)
        model = tsarf_forecast(parts.train)
        assert pmse(predicted_line(model, parts.test.times), parts.test.counts) <= 1e-9

    def test_deterministic(self):
        curve = make_changepoint_curve(np.random.default_rng(5))
        a = tsarf_forecast(curve)
        b = tsarf_forecast(curve)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.epsilon, b.epsilon)
        assert np.array_equal(a.history.matrix, b.history.matrix)
        assert a.d_used == b.d_used and a.history.k == b.history.k
        assert a.ma_candidates == b.ma_candidates

    @pytest.mark.parametrize(("k", "d", "message"), [
        (2, None, "window size k must be >= 3, got 2"),
        (5, 0, "moving-average length d must be in 1..3, got 0"),
        (5, 4, "moving-average length d must be in 1..3, got 4"),
    ])
    def test_stage_rejects_its_out_of_range_value(self, line_curve, k, d, message):
        with pytest.raises(UsageError) as exc:
            tsarf_forecast(line_curve(20), k=k, d=d)
        assert str(exc.value) == message

    def test_auto_window_size_policy(self):
        assert auto_window_size(95) == 9
        assert auto_window_size(12) == 3

    def test_auto_d_fallback_with_two_windows(self, line_curve):
        model = tsarf_forecast(line_curve(10), k=5)
        assert model.d_used == 1
        assert model.d_fallback

    def test_fallback_logs_nothing(self, line_curve, caplog):
        caplog.set_level(logging.DEBUG)
        assert tsarf_forecast(line_curve(10), k=5).d_fallback
        assert caplog.records == []

    def test_window_fitted_values_cover_windows_only(self, line_curve):
        curve = line_curve(22)
        model = tsarf_forecast(curve, k=5, d=1)
        fitted = window_fitted_values(model, curve)
        assert np.isnan(fitted[:2]).all()
        assert fitted[2:] == pytest.approx(curve.counts[2:], abs=1e-9)

    @pytest.mark.parametrize(("n", "k"), [(22, 5), (157, 10), (3002, 3), (4500, 3)])
    def test_window_fitted_values_equal_per_window_loop_bitwise(self, n, k):
        curve = make_changepoint_curve(np.random.default_rng(n), n=n)
        model = tsarf_forecast(curve, k=k, d=1)
        # the per-window loop the reshape replaced; the lines are over time from the origin
        expected = np.full(n, np.nan)
        for w, (b0, b1) in enumerate(model.history.matrix):
            start = model.history.n_dropped + w * k
            expected[start:start + k] = b0 + b1 * (curve.times[start:start + k] - model.origin)
        assert model.history.n_dropped == n % k
        assert window_fitted_values(model, curve).tobytes() == expected.tobytes()

    def test_beats_single_curve_on_changepoint_data(self):
        from tsarf import SrgmKind, fit_srgm, srgm_predict

        curve = make_changepoint_curve(np.random.default_rng(123), n=60)
        parts = split(curve, 5)
        model = tsarf_forecast(parts.train)
        tsarf_pmse = pmse(predicted_line(model, parts.test.times), parts.test.counts)
        go = fit_srgm(parts.train, SrgmKind.GO)
        go_pmse = pmse(srgm_predict(go, parts.test.times), parts.test.counts)
        assert tsarf_pmse < go_pmse
