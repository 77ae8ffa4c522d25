import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsarf import MetricDomainError, UsageError, evaluate_model, pmse, pp, prr

nonzero_vectors = st.lists(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False), min_size=1, max_size=40
)


def test_hand_values():
    assert pmse([2.0], [1.0]) == 1.0
    assert pmse([2.0, 4.0], [1.0, 2.0]) == 2.5
    assert prr([2.0], [1.0]) == 0.25
    assert prr([0.5], [1.0]) == 1.0
    assert pp([2.0], [1.0]) == 1.0
    assert pp([0.5], [1.0]) == 0.25


def test_zero_on_perfect_prediction():
    v = [3.0, 4.0, 5.0]
    assert pmse(v, v) == prr(v, v) == pp(v, v) == 0.0


@given(nonzero_vectors, st.data())
def test_zero_iff_equal(actual, data):
    actual = np.asarray(actual)
    pred = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
                min_size=len(actual),
                max_size=len(actual),
            )
        )
    )
    equal = bool(np.array_equal(pred, actual))
    assert (pmse(pred, actual) == 0.0) == equal
    assert (prr(pred, actual) == 0.0) == equal
    assert (pp(pred, actual) == 0.0) == equal


@given(nonzero_vectors, st.data())
def test_pmse_symmetric_and_prr_pp_swap(a, data):
    a = np.asarray(a)
    b = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
                min_size=len(a),
                max_size=len(a),
            )
        )
    )
    assert pmse(a, b) == pmse(b, a)
    assert prr(a, b) == pp(b, a)
    assert pp(a, b) == prr(b, a)


@pytest.mark.parametrize("delta", np.linspace(0.01, 0.49, 13))
def test_underestimates_cost_more_in_prr(delta):
    over = prr([1.0 + delta], [1.0])
    under = prr([1.0 - delta], [1.0])
    assert over < under


def test_prr_zero_prediction_identifies_index():
    with pytest.raises(MetricDomainError, match="index 1"):
        prr([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])


def test_pp_zero_actual_identifies_index():
    with pytest.raises(MetricDomainError, match="index 2"):
        pp([1.0, 1.0, 1.0], [1.0, 2.0, 0.0])


def test_empty_rejected():
    with pytest.raises(UsageError):
        pmse([], [])


def test_length_mismatch_rejected():
    with pytest.raises(UsageError):
        pp([1.0], [1.0, 2.0])


def test_evaluate_model_records_undefined_metrics():
    report = evaluate_model([0.0, 2.0], [1.0, 0.0])
    assert report["pmse"] == pytest.approx(2.5)
    assert report["prr"] is None
    assert report["pp"] is None
    assert report["n_test"] == 2
    assert any("prr" in note for note in report["notes"])
    assert any("pp" in note for note in report["notes"])


def test_evaluate_model_full():
    report = evaluate_model([2.0], [1.0])
    assert (report["pmse"], report["prr"], report["pp"]) == (1.0, 0.25, 1.0)
    assert report["notes"] == []
