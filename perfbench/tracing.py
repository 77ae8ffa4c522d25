"""Spans and counters around the public names the tsarf CLI calls.

The program is not edited: ``Tracer.install`` replaces names in the
namespaces of ``tsarf.cli``, ``tsarf.pipeline`` and ``tsarf.srgm`` with timing
wrappers, and ``Tracer.uninstall`` puts the originals back. A name a later
version no longer has is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "dataset", "pipeline", "regression", "srgm", "metrics", "report")
SRGM_KINDS = ("go", "dss", "weibull")

# (module, name, layer): the public calls each layer is timed at.
WRAPPED = (
    ("tsarf.cli", "read_curve_file", "dataset"),
    ("tsarf.cli", "tsarf_forecast", "pipeline"),
    ("tsarf.cli", "predicted_line", "pipeline"),
    ("tsarf.cli", "window_fitted_values", "pipeline"),
    ("tsarf.cli", "fit_srgm", "srgm"),
    ("tsarf.cli", "srgm_predict", "srgm"),
    ("tsarf.cli", "simulate_nhpp", "srgm"),
    ("tsarf.cli", "evaluate_model", "metrics"),
    ("tsarf.cli", "write_report", "report"),
    ("tsarf.cli", "write_curves_csv", "report"),
    ("tsarf.cli", "write_sweep_csv", "report"),
    ("tsarf.cli", "render_metrics_table", "report"),
    ("tsarf.cli", "render_sweep_table", "report"),
    ("tsarf.pipeline", "fit_windows", "pipeline"),
    ("tsarf.pipeline", "select_ma_length", "pipeline"),
    ("tsarf.pipeline", "forecast_coefficients", "pipeline"),
    ("tsarf.pipeline", "design_matrix", "regression"),
    ("tsarf.pipeline", "ols_fit", "regression"),
    ("tsarf.srgm", "minimize", "srgm"),
)
#: Layers whose peak allocation is taken with tracemalloc in a separate pass.
MEMORY_LAYERS = ("dataset", "report")

# name: (unit, better). The per-layer metrics of one traced round.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_optimize_s": ("s", "lower"),
    "cli.import.scipy_stats_s": ("s", "lower"),
    "cli.import.scipy_linalg_s": ("s", "lower"),
    "dataset.read_s": ("s", "lower"),
    "dataset.points_read": ("count", "higher"),
    "dataset.bytes_read": ("count", "lower"),
    "dataset.peak_alloc_mb": ("MB", "lower"),
    "pipeline.forecast_s": ("s", "lower"),
    "pipeline.forecast_calls": ("count", "lower"),
    "pipeline.stage1_s": ("s", "lower"),
    "pipeline.dselect_s": ("s", "lower"),
    "pipeline.stage2_calls": ("count", "lower"),
    "pipeline.windows": ("count", "higher"),
    "regression.ols_fit_calls": ("count", "lower"),
    "regression.ols_fit_s": ("s", "lower"),
    **{
        f"srgm.{metric}.{kind}": (unit, better)
        for kind in SRGM_KINDS
        for metric, unit, better in (
            ("fit_s", "s", "lower"),
            ("restarts", "count", "lower"),
            ("restarts_ok", "ratio", "higher"),
            ("nfev", "count", "lower"),
        )
    },
    "srgm.simulate_s": ("s", "lower"),
    "srgm.events_simulated": ("count", "higher"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.evaluate_calls": ("count", "lower"),
    "report.write_report_s": ("s", "lower"),
    "report.write_curves_s": ("s", "lower"),
    "report.write_sweep_s": ("s", "lower"),
    "report.rows_written": ("count", "higher"),
    "report.bytes_written": ("count", "lower"),
    "report.peak_alloc_mb": ("MB", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

# Inclusive span time per wrapped name.
_SPAN_TIMES = {
    "dataset.read_s": "read_curve_file",
    "pipeline.forecast_s": "tsarf_forecast",
    "pipeline.stage1_s": "fit_windows",
    "pipeline.dselect_s": "select_ma_length",
    "regression.ols_fit_s": "ols_fit",
    "srgm.simulate_s": "simulate_nhpp",
    "metrics.evaluate_s": "evaluate_model",
    "report.write_report_s": "write_report",
    "report.write_curves_s": "write_curves_csv",
    "report.write_sweep_s": "write_sweep_csv",
    **{f"srgm.fit_s.{kind}": f"fit_srgm.{kind}" for kind in SRGM_KINDS},
}
_CALL_COUNTS = {
    "pipeline.forecast_calls": "tsarf_forecast",
    "pipeline.stage2_calls": "forecast_coefficients",
    "regression.ols_fit_calls": "ols_fit",
    "metrics.evaluate_calls": "evaluate_model",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans of the current traced round, plus counters recorded at the same calls.

    A span is (span id, parent span id, invocation id, name, layer, start, end).
    Spans stay in memory; ``rounds`` keeps one list per finished round.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.rounds: list[tuple[list[tuple], Counter]] = []
        self.peaks: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.memory = False
        self.invocation = 0
        self._stack: list[tuple[int, str]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append((span_id, name))
        tracing = self.memory and layer in MEMORY_LAYERS and not tracemalloc.is_tracing()
        if tracing:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if tracing:
                self.peaks[layer] = max(self.peaks[layer], tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.invocation, name, layer, start, end)

    def enclosing(self, prefix: str) -> str | None:
        for _, name in reversed(self._stack):
            if name.startswith(prefix):
                return name
        return None

    def end_round(self) -> None:
        self.rounds.append((self.spans, self.counts))
        self.spans, self.counts = [], Counter()

    def drop_round(self) -> None:
        self.spans, self.counts = [], Counter()

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        for module_name, name, layer in WRAPPED:
            qualified = f"{module_name}.{name}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
            except (ImportError, AttributeError):
                if qualified not in self.absent:
                    self.absent.append(qualified)
                continue
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(name, layer, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, name: str, layer: str, fn):
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "fit_srgm" and len(args) > 1:
                label = f"fit_srgm.{getattr(args[1], 'value', args[1])}"
            result = self.call(label, layer, fn, *args, **kwargs)
            self.counts[f"calls.{name}"] += 1
            if after is not None:
                # A counter a later signature no longer feeds reads 0; the call stands.
                with contextlib.suppress(LookupError, TypeError, AttributeError):
                    after(args, result)
            return result

        return wrapper

    def _after_read_curve_file(self, args, result) -> None:
        self.counts["dataset.points_read"] += getattr(result[0], "n", 0)
        self.counts["dataset.bytes_read"] += _file_size(args[0])

    def _after_tsarf_forecast(self, args, result) -> None:
        self.counts["pipeline.windows"] += getattr(getattr(result, "history", None), "W", 0)

    def _after_minimize(self, args, result) -> None:
        fit = self.enclosing("fit_srgm.")
        kind = fit.split(".", 1)[1] if fit else "unknown"
        self.counts[f"srgm.restarts.{kind}"] += 1
        self.counts[f"srgm.restarts_good.{kind}"] += bool(getattr(result, "success", False))
        self.counts[f"srgm.nfev.{kind}"] += int(getattr(result, "nfev", 0))

    def _after_simulate_nhpp(self, args, result) -> None:
        self.counts["srgm.events_simulated"] += len(result)

    def _after_write_report(self, args, result) -> None:
        self.counts["report.bytes_written"] += _file_size(args[1])

    def _after_write_curves_csv(self, args, result) -> None:
        self.counts["report.bytes_written"] += _file_size(args[0])
        self.counts["report.rows_written"] += len(args[1])

    def _after_write_sweep_csv(self, args, result) -> None:
        self.counts["report.bytes_written"] += _file_size(args[0])
        self.counts["report.rows_written"] += len(args[3])

    # -- metrics -----------------------------------------------------------

    def round_metrics(self, spans: list[tuple], counts: Counter) -> dict[str, float]:
        """Per-layer metrics of one traced round (times in seconds)."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for span_id, parent, _, name, _, start, end in spans:
            inclusive[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, _, _, layer, start, end in spans:
            self_time[layer] += end - start - children[span_id]

        metrics = {key: inclusive[name] for key, name in _SPAN_TIMES.items()}
        metrics.update({key: float(counts[f"calls.{name}"]) for key, name in _CALL_COUNTS.items()})
        for key in ("dataset.points_read", "dataset.bytes_read", "pipeline.windows",
                    "srgm.events_simulated", "report.rows_written", "report.bytes_written"):
            metrics[key] = float(counts[key])
        for kind in SRGM_KINDS:
            attempts = counts[f"srgm.restarts.{kind}"]
            metrics[f"srgm.restarts.{kind}"] = float(attempts)
            metrics[f"srgm.restarts_ok.{kind}"] = counts[f"srgm.restarts_good.{kind}"] / attempts if attempts else 0.0
            metrics[f"srgm.nfev.{kind}"] = float(counts[f"srgm.nfev.{kind}"])
        metrics.update({f"{layer}.self_s": value for layer, value in self_time.items()})
        return metrics

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced rounds of every per-round metric, plus peak allocations."""
        per_round = [self.round_metrics(spans, counts) for spans, counts in self.rounds]
        metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
        for layer in MEMORY_LAYERS:
            metrics[f"{layer}.peak_alloc_mb"] = self.peaks[layer]
        return metrics

    def dump_spans(self, path) -> None:
        """Write every recorded span as ``[round, *span]``, one JSON array per line."""
        with open(path, "w") as handle:
            for index, (spans, _) in enumerate(self.rounds):
                for span in spans:
                    handle.write(json.dumps([index, *span]) + "\n")
