"""Run reports, curve tables, and sweep tables.

A run report is a plain JSON document with stable keys (documented in the
README) so runs can be diffed and reloaded. Curve tables are CSV with one
predicted column per model and a partition flag, ready for any plotting tool.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .metrics import MetricsReport

#: Canonical display order for model rows in tables and reports.
MODEL_ORDER = ("tsarf", "dss", "go", "weibull")

MODEL_LABELS = {"tsarf": "TSARF", "go": "GO", "dss": "DSS", "weibull": "Weibull"}


def order_models(models: list[str] | tuple[str, ...]) -> list[str]:
    """Sort model names into the canonical table order."""
    return [m for m in MODEL_ORDER if m in models]


@dataclass
class RunReport:
    """Everything one compare/fit invocation produced."""

    dataset: dict
    split: dict
    models: list[dict] = field(default_factory=list)
    version: str = ""
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        return cls(
            dataset=payload["dataset"],
            split=payload["split"],
            models=payload["models"],
            version=payload.get("version", ""),
            seed=payload.get("seed"),
        )


def metrics_to_dict(report: MetricsReport) -> dict:
    return {
        "pmse": report.pmse,
        "prr": report.prr,
        "pp": report.pp,
        "n_test": report.n_test,
        "notes": list(report.notes),
    }


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def read_report(path: str | Path) -> RunReport:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load report {path}: {exc}") from None
    return RunReport.from_dict(payload)


def _fmt(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def render_metrics_table(reports: list[MetricsReport], failed: dict[str, str] | None = None) -> str:
    """Fixed-width table: one row per model in canonical order."""
    failed = failed or {}
    by_model = {r.model: r for r in reports}
    rows = [("Model", "PMSE", "PRR", "PP")]
    for model in MODEL_ORDER:
        label = MODEL_LABELS.get(model, model)
        if model in by_model:
            r = by_model[model]
            rows.append((label, _fmt(r.pmse), _fmt(r.prr), _fmt(r.pp)))
        elif model in failed:
            rows.append((label, "error", "error", "error"))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def write_curves_csv(
    path: str | Path,
    times: np.ndarray,
    actual: np.ndarray,
    predictions: dict[str, np.ndarray],
    train_n: int,
) -> None:
    """Emit header ``t,actual,<model>...,partition``; NaN cells are left blank."""
    models = order_models(list(predictions))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "actual", *models, "partition"])
        for i in range(len(times)):
            row = [f"{times[i]:.10g}", f"{actual[i]:.10g}"]
            for model in models:
                value = predictions[model][i]
                row.append("" if not np.isfinite(value) else f"{value:.10g}")
            row.append("train" if i < train_n else "test")
            writer.writerow(row)


def write_sweep_csv(
    path: str | Path,
    value_label: str,
    dataset_names: list[str],
    rows: list[tuple[int, dict[str, float | None]]],
) -> None:
    """Emit one row per swept value; failed cells carry the marker ``error``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([value_label, *dataset_names])
        for value, cells in rows:
            record = [str(value)]
            for name in dataset_names:
                pmse_value = cells.get(name)
                record.append("error" if pmse_value is None else f"{pmse_value:.6g}")
            writer.writerow(record)


def render_sweep_table(
    value_label: str,
    dataset_names: list[str],
    rows: list[tuple[int, dict[str, float | None]]],
) -> str:
    header = (value_label.capitalize(), *dataset_names)
    body = [
        (str(value), *[
            "error" if cells.get(name) is None else f"{cells[name]:.6g}"
            for name in dataset_names
        ])
        for value, cells in rows
    ]
    table = [header, *body]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    )
