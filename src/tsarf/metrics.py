"""Predictive goodness-of-fit measures over a held-out test partition.

pmse averages squared errors; prr normalizes residuals by the prediction, so
underestimates are punished harder; pp normalizes by the actual value, so
overestimates are punished harder. prr and pp are sums, not means.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricDomainError, UsageError


def _validate(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise UsageError(f"length mismatch: {pred.shape} vs {actual.shape}")
    if pred.size == 0:
        raise UsageError("metrics need a nonempty test partition")
    return pred, actual


def pmse(pred, actual) -> float:
    """Mean squared prediction error over the test partition."""
    pred, actual = _validate(pred, actual)
    return float(np.mean((pred - actual) ** 2))


def prr(pred, actual) -> float:
    """Sum of squared residuals relative to the prediction."""
    pred, actual = _validate(pred, actual)
    zeros = np.nonzero(pred == 0)[0]
    if zeros.size:
        raise MetricDomainError(f"prediction is zero at index {zeros[0]}")
    return float(np.sum(((pred - actual) / pred) ** 2))


def pp(pred, actual) -> float:
    """Sum of squared residuals relative to the actual value."""
    pred, actual = _validate(pred, actual)
    zeros = np.nonzero(actual == 0)[0]
    if zeros.size:
        raise MetricDomainError(f"actual value is zero at index {zeros[0]}")
    return float(np.sum(((pred - actual) / actual) ** 2))


def evaluate_model(pred, actual) -> dict:
    """Score one model as the run report's ``metrics`` entry: ``pmse``, ``prr``,
    ``pp``, ``n_test`` and ``notes``. An undefined metric reads None, with a note
    saying why, instead of failing."""
    pred, actual = _validate(pred, actual)
    metrics: dict = {}
    notes: list[str] = []
    for name, fn in (("pmse", pmse), ("prr", prr), ("pp", pp)):
        try:
            metrics[name] = fn(pred, actual)
        except MetricDomainError as exc:
            metrics[name] = None
            notes.append(f"{name} undefined: {exc}")
    metrics["n_test"] = int(actual.size)
    metrics["notes"] = notes
    return metrics
