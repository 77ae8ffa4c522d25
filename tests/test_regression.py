import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsarf import RankDeficiencyError, UsageError, design_matrix, ols_fit
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


def test_two_column_response_matches_single_columns():
    rng = np.random.default_rng(5)
    for _ in range(25):
        X = design_matrix(rng.uniform(0, 100, size=9))
        Y = rng.normal(0, 50, size=(9, 2))
        joint = ols_fit(X, Y)
        assert joint.shape == (2, 2)
        for col in range(2):
            assert joint[:, col] == pytest.approx(ols_fit(X, Y[:, col]), rel=1e-12)


def test_response_length_mismatch():
    with pytest.raises(UsageError):
        ols_fit(design_matrix([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


def test_overflowing_normal_equations_are_rank_deficient():
    X = design_matrix(1e200 * np.arange(1.0, 6.0))
    with pytest.raises(RankDeficiencyError, match="overflow"):
        ols_fit(X, np.arange(1.0, 6.0))


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


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(3, 50),
    n_windows=st.integers(2, 40),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]) | st.floats(0, 1e6),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_fit_equals_per_window_loop_bitwise(k, n_windows, offset, scale, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=n_windows * k) * (rng.uniform(size=n_windows * k) < 0.9)
    t = (offset + scale * np.cumsum(gaps)).reshape(n_windows, k)
    y = np.arange(1.0, n_windows * k + 1).reshape(n_windows, k) + rng.normal(size=(n_windows, k))
    X = design_matrix(t)
    for response in (y, np.stack([y, -3.0 * y], axis=-1)):
        stacked, loop = stacked_outcome(X, response), loop_outcome(X, response)
        if isinstance(loop, tuple):
            assert stacked == loop
        else:
            assert stacked.dtype == loop.dtype and stacked.shape == loop.shape
            assert np.array_equal(stacked, loop)


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
    fails. Returns the coefficients, or (index, message) of the first failure."""
    stacked, single = X.ndim == 3, y.ndim == X.ndim - 1
    if not stacked:
        X, y = X[None], y[None]
    if single:
        y = y[..., None]
    XT = np.swapaxes(X, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, rhs = XT @ X, XT @ y
    try:
        chol = _cholesky_factor(gram, rhs)
    except RankDeficiencyError:
        for i in range(len(gram)):
            try:
                _cholesky_factor(gram[i : i + 1], rhs[i : i + 1])
            except RankDeficiencyError as exc:
                return i, str(exc)
        raise
    inv11, inv22, l21 = 1.0 / chol[:, 0, 0, None], 1.0 / chol[:, 1, 1, None], chol[:, 1, 0, None]
    z1 = rhs[:, 0] * inv11
    x2 = (rhs[:, 1] - l21 * z1) * inv22 * inv22
    beta = np.stack([(z1 - l21 * x2) * inv11, x2], axis=1)
    if single:
        beta = beta[..., 0]
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
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=n_windows * k) * (rng.uniform(size=n_windows * k) < 0.9)
    t = (offset + scale * np.cumsum(gaps)).reshape(n_windows, k)
    y = np.arange(1.0, n_windows * k + 1).reshape(n_windows, k) + rng.normal(size=(n_windows, k))
    X = design_matrix(t)
    if one_design:
        X, y = X[0], y[0]
    for response in (y, np.stack([y, -3.0 * y], axis=-1)):
        closed, oracle = stacked_outcome(X, response), cholesky_oracle(X, response)
        if isinstance(oracle, tuple):
            index, message = oracle
            # LAPACK stops at a pivot that is not positive; the closed form
            # counts it as singular to tolerance
            expected = TOLERANCE_MESSAGE if message == "normal equations are singular" else message
            assert closed == (index, expected)
        else:
            assert closed.dtype == oracle.dtype and closed.shape == oracle.shape
            assert np.array_equal(closed, oracle)


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
