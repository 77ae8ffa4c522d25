"""Run reports, curve tables, and sweep tables.

A run report is a plain JSON document with stable keys (documented in the
README) so runs can be diffed and reloaded. Curve tables are CSV with one
predicted column per model and a partition flag, ready for any plotting tool.
Every file is written as UTF-8 whatever the locale, and the surrogate escapes
that stand for a path's undecodable bytes are written back as those bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import SplitCurve
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
        "stage2_trend": model.trend.tolist(),
        "ma_candidates": [[d, mse if math.isfinite(mse) else None] for d, mse in model.ma_candidates],
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


def run_report(meta: dict, parts: SplitCurve, entries: list[dict]) -> dict:
    """The run report document: dataset provenance, split, model entries and version."""
    split = {"train_n": parts.train.n, "test_n": parts.test.n, "policy": parts.policy}
    return {"dataset": meta, "split": split, "models": entries, "version": __version__}


def write_report(report: dict, path: str | Path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")


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


#: Rows formatted at a time, which bounds memory: a 10^5-row curve with one
#: model peaks at 1.5 MiB under tracemalloc, and at 16.3 MiB as one block.
_CSV_BLOCK_ROWS = 8192


def _cell_format(values: np.ndarray) -> str:
    """The ``%`` conversion that prints each value as ``f"{v:.10g}"`` does.

    ``%.10g`` and the f-string make the same C call. When every value is an
    integer below 1e10 in magnitude, ``%d`` gives the same text faster; -0.0
    is left to ``%.10g``, which prints it as ``-0``.
    """
    if (
        (np.abs(values) < 1e10).all()
        and (values == np.trunc(values)).all()
        and not (np.signbit(values) & (values == 0)).any()
    ):
        return "%d"
    return "%.10g"


def write_curves_csv(
    path: str | Path,
    times: np.ndarray,
    actual: np.ndarray,
    predictions: dict[str, np.ndarray],
    train_n: int,
) -> None:
    """Emit header ``t,actual,<model>...,partition``; NaN cells are left blank.

    Rows end in ``\\r\\n``, as ``csv.writer`` writes them; no cell holds a
    comma or a quote, so cells are joined without quoting. Each run of rows in
    one partition whose predictions are finite in the same columns is one ``%``
    on a repeated row template, which leaves the other prediction cells blank.
    """
    models = order_models(list(predictions))
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        handle.write(",".join(["t", "actual", *models, "partition"]) + "\r\n")
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            columns = [c[start:start + _CSV_BLOCK_ROWS] for c in (times, actual, *(predictions[m] for m in models))]
            formats = [_cell_format(column) for column in columns]
            cells = np.column_stack(columns)
            shown = np.isfinite(cells)
            shown[:, :2] = True  # t and actual print even where not finite
            train = np.arange(start, start + len(cells)) < train_n
            # a run ends where the partition or the finiteness of some cell changes
            ends = train[1:] != train[:-1]
            ends[np.flatnonzero(shown[1:] != shown[:-1]) // shown.shape[1]] = True
            cuts = (np.flatnonzero(ends) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(cells)]):
                # "%.0s" formats a value as nothing, which leaves its cell blank
                row = ",".join(f if s else "%.0s" for f, s in zip(formats, shown[lo]))
                end = ",train\r\n" if train[lo] else ",test\r\n"
                handle.write((row + end) * (hi - lo) % tuple(cells[lo:hi].ravel().tolist()))


def write_failure_times(path: str | Path, header: list[str], times: np.ndarray) -> None:
    """Emit a format-A file: ``# `` header lines, then one ``.10g`` time per line."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
        handle.writelines(f"# {line}\n" for line in header)
        for block in np.split(times, range(_CSV_BLOCK_ROWS, len(times), _CSV_BLOCK_ROWS)):
            handle.write((_cell_format(block) + "\n") * len(block) % tuple(block.tolist()))


def write_sweep_csv(path: str | Path, value_label: str, dataset_names: list[str], rows: list[list[str]]) -> None:
    """Emit the header, then one formatted row per swept value (failed cells read ``error``)."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([value_label, *dataset_names])
        writer.writerows(rows)


def render_sweep_table(value_label: str, dataset_names: list[str], rows: list[list[str]]) -> str:
    return _render_table([(value_label.capitalize(), *dataset_names), *rows])
