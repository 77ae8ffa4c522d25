import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsarf
from conftest import make_changepoint_curve
from tsarf import RankDeficiencyError, UsageError, design_matrix, forecast_coefficients, ols_fit, tsarf_forecast
from tsarf.regression import SINGULARITY_RTOL

TOLERANCE_MESSAGE = f"normal equations singular to tolerance {SINGULARITY_RTOL:g}"


def grid_min_sse(X, y, lo=-10.0, hi=10.0, step=0.01):
    """Brute-force SSE minimum over an intercept/slope grid (independent oracle)."""
    b0 = np.arange(lo, hi + step / 2, step)[:, None]
    b1 = np.arange(lo, hi + step / 2, step)[None, :]
    x = X[:, 1]
    n = len(y)
    sx, sxx = x.sum(), (x * x).sum()
    sy, sxy, syy = y.sum(), (x * y).sum(), (y * y).sum()
    values = (
        n * b0**2 + 2 * sx * (b0 * b1) + sxx * b1**2 - 2 * sy * b0 - 2 * sxy * b1 + syy
    )
    return float(values.min())


def test_exact_line():
    X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    beta = ols_fit(X, np.array([3.0, 5.0, 7.0]))
    assert beta == pytest.approx([1.0, 2.0], abs=1e-12)


def test_duplicate_rows_are_rank_deficient():
    with pytest.raises(RankDeficiencyError):
        ols_fit(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_underdetermined_is_usage_error():
    with pytest.raises(UsageError):
        ols_fit(np.array([[1.0, 2.0]]), np.array([1.0]))


def test_fit_beats_grid_on_random_instance():
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 10, size=6)
    y = rng.uniform(-5, 5, size=6)
    X = design_matrix(x)
    beta = ols_fit(X, y)
    assert np.sum((y - X @ beta) ** 2) <= grid_min_sse(X, y) + 1e-9


def test_predict_identity_slope():
    assert (design_matrix([5.0]) @ np.array([0.0, 1.0])).tolist() == [5.0]


def test_predict_hand_values():
    assert (design_matrix([0.0, 10.0]) @ np.array([1.0, 2.0])).tolist() == [1.0, 21.0]


def test_predict_constant_for_zero_slope():
    X = design_matrix(np.array([3.0, 8.0, 9.0]))
    assert (X @ np.array([4.5, 0.0])).tolist() == [4.5, 4.5, 4.5]


@settings(max_examples=50, deadline=None)
@given(
    n_windows=st.integers(2, 5_000),
    scale=st.floats(-3, 3).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_trend_equals_per_column_single_fits_bitwise(n_windows, scale, seed):
    """Stage 2's two-system stack gives each coefficient column the fit it gets on its own."""
    matrix = scale * np.random.default_rng(seed).normal(size=(n_windows, 2))
    trend, _ = forecast_coefficients(matrix)
    index = design_matrix(np.arange(1, n_windows + 1, dtype=float))
    expected = np.stack([ols_fit(index, matrix[:, rho]) for rho in range(2)])
    assert trend.shape == (2, 2) and np.array_equal(trend, expected)


@pytest.mark.parametrize("y", [np.array([1.0, 2.0]), np.ones((3, 2))], ids=["length", "two-columns"])
def test_response_shape_mismatch(y):
    with pytest.raises(UsageError, match="response shape"):
        ols_fit(design_matrix([1.0, 2.0, 3.0]), y)


def test_overflowing_normal_equations_are_rank_deficient():
    X = design_matrix(1e200 * np.arange(1.0, 6.0))
    with pytest.raises(RankDeficiencyError, match="overflow"):
        ols_fit(X, np.arange(1.0, 6.0))


def test_overflowing_coefficients_are_rank_deficient():
    # X'X and X'y stay finite, but system 2's slope, 1e311, does not
    t = 1e-5 * np.arange(1.0, 13.0).reshape(4, 3)
    y = np.arange(1.0, 13.0).reshape(4, 3)
    y[2] *= 1e306
    with pytest.raises(RankDeficiencyError) as info:
        ols_fit(design_matrix(t), y)
    assert (info.value.index, str(info.value)) == (2, "normal equations overflow")


def test_residual_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        X = design_matrix(rng.uniform(0, 100, size=12))
        y = rng.normal(0, 50, size=12)
        beta = ols_fit(X, y)
        residual = y - X @ beta
        assert np.linalg.norm(X.T @ residual) <= 1e-8 * np.linalg.norm(X.T @ y) + 1e-12


def test_exact_recovery():
    rng = np.random.default_rng(11)
    for _ in range(25):
        beta_true = rng.uniform(-5, 5, size=2)
        X = design_matrix(rng.uniform(0, 50, size=10))
        beta = ols_fit(X, X @ beta_true)
        assert np.linalg.norm(beta - beta_true) <= 1e-10 * max(1.0, np.linalg.norm(beta_true))


def test_rejects_non_finite():
    with pytest.raises(UsageError):
        ols_fit(np.array([[1.0, np.nan], [1.0, 2.0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("columns", [1, 3])
def test_design_without_two_columns_is_usage_error(columns):
    X = np.random.default_rng(3).uniform(size=(8, columns))
    with pytest.raises(UsageError, match="shape"):
        ols_fit(X, np.arange(8.0))


@pytest.mark.parametrize("x", [3.0, np.ones((2, 3, 4))])
def test_design_matrix_rejects_other_dimensions(x):
    with pytest.raises(UsageError) as info:
        design_matrix(x)
    assert str(info.value) == "predictor values must be one- or two-dimensional"


def test_singularity_rule_ignores_time_scale():
    t = 1e-8 * np.arange(1.0, 6.0)
    beta = ols_fit(design_matrix(t), 1e8 * t)
    assert beta == pytest.approx([0.0, 1e8], rel=1e-9, abs=1e-9)


def test_stacked_error_names_first_failing_system():
    t = np.arange(20.0).reshape(4, 5)
    t[2] = 7.0
    t[3] = 9.0
    with pytest.raises(RankDeficiencyError) as info:
        ols_fit(design_matrix(t), np.arange(20.0).reshape(4, 5))
    assert info.value.index == 2


def window_stack(k, n_windows, offset, scale, seed):
    """n_windows windows of k growth-curve points: times with 10 % ties
    from ``offset`` at spacing ``scale``, and noisy counts."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=n_windows * k) * (rng.uniform(size=n_windows * k) < 0.9)
    t = (offset + scale * np.cumsum(gaps)).reshape(n_windows, k)
    y = np.arange(1.0, n_windows * k + 1).reshape(n_windows, k) + rng.normal(size=(n_windows, k))
    return design_matrix(t), y


def loop_outcome(X, y):
    """Per-window reference: every window fitted on its own, in order."""
    rows = []
    for w in range(len(X)):
        try:
            rows.append(ols_fit(X[w], y[w]))
        except RankDeficiencyError as exc:
            return w, str(exc)
    return np.stack(rows)


def stacked_outcome(X, y):
    try:
        return ols_fit(X, y)
    except RankDeficiencyError as exc:
        return exc.index, str(exc)


def assert_same_outcome(got, expected):
    """The same coefficients bit for bit, or the same (index, message) failure."""
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)


stack_params = dict(
    k=st.integers(3, 50),
    n_windows=st.integers(2, 40),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]) | st.floats(0, 1e6),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(**stack_params)
def test_stacked_fit_equals_per_window_loop_bitwise(k, n_windows, offset, scale, seed):
    X, y = window_stack(k, n_windows, offset, scale, seed)
    assert_same_outcome(stacked_outcome(X, y), loop_outcome(X, y))


@settings(max_examples=200, deadline=None)
@given(**stack_params)
def test_fit_does_not_depend_on_memory_layout(k, n_windows, offset, scale, seed):
    """numpy's sums follow the memory layout, so the kernel sums C-ordered copies."""
    X, y = window_stack(k, n_windows, offset, scale, seed)
    fortran_X, transposed_y = np.asfortranarray(X), np.ascontiguousarray(y.T).T
    assert not (fortran_X.flags.c_contiguous or transposed_y.flags.c_contiguous)
    loop = loop_outcome(X, y)
    for design, response in ((fortran_X, y), (X, transposed_y), (fortran_X, transposed_y)):
        assert_same_outcome(stacked_outcome(design, response), loop)


def _cholesky_factor(gram, rhs):
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise RankDeficiencyError("normal equations overflow")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("normal equations are singular") from None
    pivots = np.diagonal(chol, axis1=-2, axis2=-1)
    if np.any(pivots**2 <= SINGULARITY_RTOL * np.diagonal(gram, axis1=-2, axis2=-1)):
        raise RankDeficiencyError(TOLERANCE_MESSAGE)
    return chol


def cholesky_oracle(X, y):
    """The LAPACK solve the closed-form factor replaced: one batched
    ``np.linalg.cholesky``, then one system at a time to name the first that
    fails. Returns the coefficients, or (index, message) of the first failure.
    The Gram matrix and right-hand side come from numpy sums, not a matmul,
    whose bits would follow OpenBLAS's kernel."""
    stacked = X.ndim == 3
    if not stacked:
        X, y = X[None], y[None]
    # the five sums, each reduced over the observation axis as ols_fit does
    x0, x1 = X[..., 0], X[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        s00, s01, s11, r0, r1 = (
            np.add.reduce(a * b, axis=-1) for a, b in [(x0, x0), (x0, x1), (x1, x1), (x0, y), (x1, y)]
        )
        gram = np.stack([np.stack([s00, s01], -1), np.stack([s01, s11], -1)], -2)
        rhs = np.stack([r0, r1], -1)
    try:
        chol = _cholesky_factor(gram, rhs)
    except RankDeficiencyError:
        for i in range(len(gram)):
            try:
                _cholesky_factor(gram[i : i + 1], rhs[i : i + 1])
            except RankDeficiencyError as exc:
                return i, str(exc)
        raise
    inv11, inv22, l21 = 1.0 / chol[:, 0, 0], 1.0 / chol[:, 1, 1], chol[:, 1, 0]
    z1 = rhs[:, 0] * inv11
    x2 = (rhs[:, 1] - l21 * z1) * inv22 * inv22
    beta = np.stack([(z1 - l21 * x2) * inv11, x2], axis=1)
    return beta if stacked else beta[0]


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 200),
    n_windows=st.integers(1, 30),
    one_design=st.booleans(),
    offset=st.sampled_from([0.0, 1e3, 1e6, 1e9, 1.7e9]) | st.floats(0, 1.7e9),
    scale=st.floats(-8, 6).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_factor_equals_cholesky_oracle_bitwise(k, n_windows, one_design, offset, scale, seed):
    X, y = window_stack(k, n_windows, offset, scale, seed)
    if one_design:
        X, y = X[0], y[0]
    oracle = cholesky_oracle(X, y)
    if isinstance(oracle, tuple):
        index, message = oracle
        # LAPACK stops at a pivot that is not positive; the closed form
        # counts it as singular to tolerance
        oracle = index, TOLERANCE_MESSAGE if message == "normal equations are singular" else message
    assert_same_outcome(stacked_outcome(X, y), oracle)


@pytest.mark.parametrize(
    ("singular_at", "overflow_at", "message"),
    [(1, 3, TOLERANCE_MESSAGE), (3, 1, "normal equations overflow")],
)
def test_mixed_stack_names_first_failure_with_its_own_message(singular_at, overflow_at, message):
    t = np.arange(20.0).reshape(4, 5)
    t[singular_at] = 7.0
    t[overflow_at] = 1e200 * np.arange(1.0, 6.0)
    with pytest.raises(RankDeficiencyError) as info:
        ols_fit(design_matrix(t), np.arange(20.0).reshape(4, 5))
    assert (info.value.index, str(info.value)) == (1, message)


@pytest.mark.parametrize("n", [3, 5])
def test_equal_times_raise_the_tolerance_error(n):
    """Three equal times 0.1 give a negative last pivot, five a tiny positive one."""
    with pytest.raises(RankDeficiencyError) as info:
        ols_fit(design_matrix(np.full(n, 0.1)), np.arange(float(n)))
    assert (info.value.index, str(info.value)) == (0, TOLERANCE_MESSAGE)


def line_fit_digests() -> dict[str, str]:
    """Digests of a plain X'X matmul and of ols_fit on stacked changepoint
    designs at k = 3 and 10, and of a TSARF forecast's arrays on that curve."""
    curve = make_changepoint_curve(np.random.default_rng(3), n=9_990)
    arrays = {}
    for k in (3, 10):
        X, y = design_matrix(curve.times.reshape(-1, k)), curve.counts.reshape(-1, k)
        arrays[f"probe k={k}"] = np.swapaxes(X, -1, -2) @ X
        arrays[f"ols_fit k={k}"] = ols_fit(X, y)
    model = tsarf_forecast(curve, k=3)
    for name in ("coefficients", "raw_forecast", "corrected_forecast", "epsilon", "trend"):
        arrays[f"model.{name}"] = getattr(model, name)
    arrays["model.history.matrix"] = model.history.matrix
    arrays["model.ma_candidates"] = np.array(model.ma_candidates)
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


def test_line_fits_do_not_depend_on_openblas_kernel():
    """OpenBLAS picks its matmul kernel by CPU; the line fits use none."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(tsarf.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])),
    }
    script = "import json, test_regression; print(json.dumps(test_regression.line_fit_digests()))"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    child, here = json.loads(result.stdout), line_fit_digests()
    if all(child[f"probe k={k}"] == here[f"probe k={k}"] for k in (3, 10)):
        pytest.skip("X'X by matmul gives the same bits under OPENBLAS_CORETYPE=Prescott")
    fits = {name for name in here if not name.startswith("probe")}
    assert {name for name in fits if child[name] != here[name]} == set()
