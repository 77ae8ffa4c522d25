"""Run reports, curve tables, and sweep tables.

A run report is a plain JSON document with stable keys (documented in the
README) so runs can be diffed and reloaded. Curve tables are CSV with one
predicted column per model and a partition flag, ready for any plotting tool.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .pipeline import TsarfModel
from .srgm import SrgmFit, SrgmKind

#: Every model name with its display label, in the canonical order of table
#: rows, report entries and curve columns.
MODEL_LABELS = {"tsarf": "TSARF", "dss": "DSS", "go": "GO", "weibull": "Weibull"}


def order_models(models: list[str] | tuple[str, ...]) -> list[str]:
    """Sort model names into the canonical table order."""
    return [m for m in MODEL_LABELS if m in models]


def tsarf_entry(model: TsarfModel) -> dict:
    """Report fields of a fitted TSARF model."""
    return {
        "k": model.history.k,
        "d": model.d_used,
        "d_auto": model.d_auto,
        "d_fallback": model.d_fallback,
        "windows": model.history.W,
        "points_dropped": model.history.n_dropped,
        "coefficients": model.coefficients.tolist(),
        "raw_forecast": model.raw_forecast.tolist(),
        "corrected_forecast": model.corrected_forecast.tolist(),
        "epsilon": model.epsilon.tolist(),
        "coefficient_history": model.history.matrix.tolist(),
        "stage2_trend": model.stage2.trend.tolist(),
        "ma_candidates": [[d, mse] for d, mse in model.ma_candidates],
    }


def srgm_entry(fit: SrgmFit) -> dict:
    """Report fields of a fitted NHPP baseline; ``c`` only for Weibull."""
    entry = {
        "a": fit.params.a,
        "b": fit.params.b,
        "sse": fit.sse,
        "iterations": fit.iterations,
        "restarts": fit.restarts,
    }
    if fit.kind is SrgmKind.WEIBULL:
        entry["c"] = fit.params.c
    return entry


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _render_table(rows: list[tuple[str, ...] | list[str]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def render_metrics_table(entries: list[dict]) -> str:
    """One row per report entry; a model that failed reads ``error``, a vanished metric ``n/a``."""
    rows = [("Model", "PMSE", "PRR", "PP")]
    for entry in entries:
        if entry["status"] == "ok":
            metrics = entry["metrics"]
            cells = ["n/a" if metrics[key] is None else f"{metrics[key]:.6g}" for key in ("pmse", "prr", "pp")]
        else:
            cells = ["error"] * 3
        rows.append((MODEL_LABELS[entry["model"]], *cells))
    return _render_table(rows)


#: Rows formatted at a time, which bounds the cell strings held at once. On a
#: 10^5-row curve, formatting whole columns instead holds about 20 MB more.
_CSV_BLOCK_ROWS = 8192


def _csv_cells(values: np.ndarray) -> list[str]:
    """``.10g`` text of every value.

    When every value is an integer below 1e10 in magnitude, ``str(int)`` gives
    the same text at about twice the speed; -0.0 is left to ``.10g``, which
    prints it as ``-0``.
    """
    if (
        (np.abs(values) < 1e10).all()
        and (values == np.trunc(values)).all()
        and not (np.signbit(values) & (values == 0)).any()
    ):
        return list(map(str, values.astype(np.int64).tolist()))
    return [f"{v:.10g}" for v in values.tolist()]


def _prediction_cells(values: np.ndarray) -> list[str]:
    """Like ``_csv_cells``, with non-finite predictions (dropped points) blank."""
    cells = _csv_cells(values)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    return cells


def write_curves_csv(
    path: str | Path,
    times: np.ndarray,
    actual: np.ndarray,
    predictions: dict[str, np.ndarray],
    train_n: int,
) -> None:
    """Emit header ``t,actual,<model>...,partition``; NaN cells are left blank.

    Rows end in ``\\r\\n``, as ``csv.writer`` writes them; no cell holds a
    comma or a quote, so cells are joined without quoting.
    """
    models = order_models(list(predictions))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(["t", "actual", *models, "partition"]) + "\r\n")
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = len(times[block])
            n_train = min(max(train_n - start, 0), rows)
            columns = [
                _csv_cells(times[block]),
                _csv_cells(actual[block]),
                *(_prediction_cells(predictions[model][block]) for model in models),
                ["train"] * n_train + ["test"] * (rows - n_train),
            ]
            handle.write("\r\n".join(map(",".join, zip(*columns))))
            handle.write("\r\n")


def write_failure_times(path: str | Path, header: list[str], times: np.ndarray) -> None:
    """Emit a format-A file: ``# `` header lines, then one ``.10g`` time per line."""
    with open(path, "w") as handle:
        handle.writelines(f"# {line}\n" for line in header)
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            handle.write("\n".join(_csv_cells(times[start:start + _CSV_BLOCK_ROWS])))
            handle.write("\n")


def write_sweep_csv(path: str | Path, value_label: str, dataset_names: list[str], rows: list[list[str]]) -> None:
    """Emit the header, then one formatted row per swept value (failed cells read ``error``)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([value_label, *dataset_names])
        writer.writerows(rows)


def render_sweep_table(value_label: str, dataset_names: list[str], rows: list[list[str]]) -> str:
    return _render_table([(value_label.capitalize(), *dataset_names), *rows])
