import numpy as np
import pytest

from tsarf import RankDeficiencyError, UsageError, design_matrix, ols_fit


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
