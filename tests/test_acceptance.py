"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 8 needs the
CSR3 (and optionally S2) failure logs, which cannot ship with the repo; point
TSARF_CSR3 / TSARF_S2 at local copies to enable it.
"""

import json
import os
import time

import numpy as np
import pytest

from tsarf import (
    GrowthCurve,
    SrgmKind,
    SrgmParams,
    error_correct,
    fit_srgm,
    forecast_coefficients,
    mvf,
    ols_fit,
    pmse,
    pp,
    predicted_line,
    prr,
    simulate_nhpp,
    split,
    srgm_predict,
    tsarf_forecast,
)
from tsarf.cli import main
from conftest import make_changepoint_curve


def ok(message: str) -> None:
    print(f"ACCEPTANCE PASS: {message}")


def test_criterion_01_exact_line_fixed_point():
    start = time.perf_counter()
    for n in (30, 50, 100):
        counts = np.arange(1, n + 1, dtype=float)
        curve = GrowthCurve((counts - 1.0) / 2.0, counts)
        for k in (3, 5, 9):
            parts = split(curve, k)
            if parts.train.n < 2 * k:
                continue
            max_d = parts.train.n // k - 1
            for d in [None, 1, max_d]:
                model = tsarf_forecast(parts.train, k=k, d=d)
                assert model.coefficients == pytest.approx([1.0, 2.0], abs=1e-9)
                pred = predicted_line(model, parts.test.times)
                assert pmse(pred, parts.test.counts) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(f"criterion 1 - exact-line fixed point across n/k/d grid ({elapsed:.2f}s)")


def test_criterion_02_ols_grid_oracle():
    start = time.perf_counter()
    step = 0.01
    axis = np.arange(-10.0, 10.0 + step / 2, step)
    b0 = axis[:, None]
    b1 = axis[None, :]
    b0_sq, b1_sq, outer = b0**2, b1**2, b0 * b1
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x = rng.uniform(0, 10, size=6)
        y = rng.uniform(-8, 8, size=6)
        n = x.size
        sx, sxx = x.sum(), (x * x).sum()
        sy, sxy, syy = y.sum(), (x * y).sum(), (y * y).sum()
        grid_min = (
            n * b0_sq + 2 * sx * outer + sxx * b1_sq - 2 * sy * b0 - 2 * sxy * b1 + syy
        ).min()
        intercept, slope = ols_fit(x, y)
        closed = np.sum((y - (intercept + slope * x)) ** 2)
        assert closed <= grid_min + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(f"criterion 2 - closed form beats 0.01-step grid on 100 instances ({elapsed:.1f}s)")


def test_criterion_03_error_correction_identity():
    rng = np.random.default_rng(99)
    for _ in range(200):
        w = rng.integers(2, 12)
        matrix = rng.normal(0, 100, size=(w, 2))
        trend, raw = forecast_coefficients(matrix)
        _, epsilon = error_correct(raw, trend, matrix)
        anchored = trend[:, 0] + w * trend[:, 1] + epsilon
        assert np.all(np.abs(anchored - matrix[-1]) < 1e-10)
    ok("criterion 3 - corrected trend passes through the last window's coefficients")


def test_criterion_04_weibull_nests_go():
    t = np.linspace(0.0, 60.0, 1000)
    a, b = 120.0, 0.07
    diff = np.abs(
        mvf(SrgmKind.WEIBULL, SrgmParams(a=a, b=b, c=1.0), t)
        - mvf(SrgmKind.GO, SrgmParams(a=a, b=b), t)
    )
    assert np.max(diff) < 1e-12
    ok("criterion 4 - Weibull at unit shape equals Goel-Okumoto on a 1000-point grid")


def test_criterion_05_srgm_recovery():
    start = time.perf_counter()
    t = np.arange(1, 101, dtype=float)
    curve = GrowthCurve(t, mvf(SrgmKind.GO, SrgmParams(a=100.0, b=0.05), t))
    go = fit_srgm(curve, SrgmKind.GO)
    assert go.params.a == pytest.approx(100.0, rel=1e-3)
    assert go.params.b == pytest.approx(0.05, rel=1e-3)
    weibull = fit_srgm(curve, SrgmKind.WEIBULL)
    assert weibull.params.c == pytest.approx(1.0, abs=1e-2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(f"criterion 5 - noiseless recovery of (a, b) and unit Weibull shape ({elapsed:.2f}s)")


def test_criterion_06_simulator_poisson_mean():
    params = SrgmParams(a=60.0, b=0.04)
    horizon = 25.0
    total = mvf(SrgmKind.GO, params, horizon)
    counts = [
        len(simulate_nhpp(SrgmKind.GO, params, horizon=horizon, seed=seed))
        for seed in range(1000)
    ]
    se = np.sqrt(total / len(counts))
    assert abs(np.mean(counts) - total) <= 3 * se
    ok(
        f"criterion 6 - mean simulated count {np.mean(counts):.2f} within 3 se of {total:.2f}"
    )


def test_criterion_07_changepoint_advantage():
    wins = 0
    for i in range(100):
        curve = make_changepoint_curve(np.random.default_rng(10_000 + i), n=60)
        parts = split(curve, 5)
        model = tsarf_forecast(parts.train)
        tsarf_pmse = pmse(predicted_line(model, parts.test.times), parts.test.counts)
        go = fit_srgm(parts.train, SrgmKind.GO)
        go_pmse = pmse(srgm_predict(go, parts.test.times), parts.test.counts)
        wins += tsarf_pmse < go_pmse
    assert wins >= 95
    ok(f"criterion 7 - forecast beats single-curve fit on {wins}/100 changepoint instances")


csr3_path = os.environ.get("TSARF_CSR3", "")
needs_csr3 = pytest.mark.skipif(
    not (csr3_path and os.path.exists(csr3_path)),
    reason="set TSARF_CSR3 to the CSR3 failure-times file to enable",
)


@needs_csr3
def test_criterion_08_reference_dataset_reproduction(tmp_path):
    start = time.perf_counter()
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "compare", csr3_path,
            "--output", str(report_path),
            "--curves", str(tmp_path / "curves.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    by_model = {e["model"]: e["metrics"]["pmse"] for e in payload["models"]}
    assert by_model["tsarf"] < by_model["weibull"] < by_model["go"] < by_model["dss"]

    rc = main(
        [
            "compare", csr3_path,
            "--window-size", "9",
            "--output", str(report_path),
            "--curves", str(tmp_path / "curves.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    tsarf_pmse = next(e for e in payload["models"] if e["model"] == "tsarf")["metrics"]["pmse"]
    assert 0.5 <= tsarf_pmse <= 1.5

    inputs = [csr3_path]
    s2_path = os.environ.get("TSARF_S2", "")
    if s2_path and os.path.exists(s2_path):
        inputs.append(s2_path)
    window_csv = tmp_path / "window_sweep.csv"
    rc = main(["sweep", *inputs, "--param", "window", "--values", "4..12",
               "--output", str(window_csv)])
    assert rc == 0
    assert len(window_csv.read_text().strip().splitlines()) == 10
    ma_csv = tmp_path / "ma_sweep.csv"
    rc = main(["sweep", *inputs, "--param", "ma", "--values", "1..6",
               "--output", str(ma_csv)])
    assert rc == 0
    assert len(ma_csv.read_text().strip().splitlines()) == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"criterion 8 - reference-dataset ranking, k=9 window PMSE, sweep tables ({elapsed:.1f}s)")


def test_criterion_09_metric_hand_values():
    assert pmse([2.0], [1.0]) == 1.0
    assert prr([2.0], [1.0]) == 0.25
    assert pp([2.0], [1.0]) == 1.0
    ok("criterion 9 - metric hand values exact")
