"""Command-line surface: compare, sweep, simulate, fit.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence failure
(compare still writes a partial report with failed models marked).

The TSARF_OUTDIR environment variable, when set, is the base directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import GrowthCurve, SplitCurve, auto_split_len, read_curve_file, split
from .errors import ConvergenceError, DataError, TsarfError, UsageError
from .metrics import evaluate_model, pmse
from .pipeline import (
    TsarfConfig,
    predicted_line,
    tsarf_forecast,
    window_fitted_values,
)
from .report import (
    MODEL_LABELS,
    order_models,
    render_metrics_table,
    render_sweep_table,
    srgm_entry,
    tsarf_entry,
    write_curves_csv,
    write_failure_times,
    write_report,
    write_sweep_csv,
)
from .srgm import SrgmKind, SrgmParams, fit_srgm, mvf, simulate_nhpp, srgm_predict


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via UsageError so they exit 1, not 2."""

    def error(self, message: str):
        raise UsageError(message)


def _parse_auto_int(value: str, what: str, minimum: int) -> int | None:
    if value.strip().lower() == "auto":
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise UsageError(f"{what} must be an integer or 'auto', got {value!r}") from None
    if parsed < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {parsed}")
    return parsed


def _parse_models(raw: str) -> list[str]:
    """The requested model names, each once, in canonical order."""
    models = [m.strip().lower() for m in raw.split(",") if m.strip()]
    if not models:
        raise UsageError("at least one model must be requested")
    for m in models:
        if m not in MODEL_LABELS:
            raise UsageError(f"unknown model {m!r}; expected subset of {','.join(MODEL_LABELS)}")
    return order_models(models)


def _parse_values(raw: str) -> list[int]:
    raw = raw.strip()
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse value range {raw!r}; use 'a..b' or 'a,b,c'") from None
    if not values:
        raise UsageError("value range is empty")
    return values


def _resolve_output(path: str | Path) -> Path:
    path = Path(path)
    outdir = os.environ.get("TSARF_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_split(curve: GrowthCurve, args, k: int | None) -> SplitCurve:
    policy = None
    if args.test_len is not None:
        test_len = args.test_len
    elif args.test_fraction is not None:
        if not 0 < args.test_fraction < 1:
            raise UsageError(f"test fraction must lie in (0, 1), got {args.test_fraction}")
        test_len = min(max(int(args.test_fraction * curve.n), 1), curve.n - 1)
        policy = f"fraction={args.test_fraction} (test_len={test_len})"
    elif k is not None:
        test_len, policy = k, f"test_len=k={k}"
    else:
        test_len = auto_split_len(curve.n)
        policy = f"auto (test_len={test_len})"
    parts = split(curve, test_len)
    return dataclasses.replace(parts, policy=policy) if policy else parts


def _run_models(
    curve: GrowthCurve, parts: SplitCurve, models: list[str], k: int | None, d: int | None
) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Fit each model on train and score it on test: one report entry per model,
    plus the predicted curve of each model that fitted."""
    entries: list[dict] = []
    predictions: dict[str, np.ndarray] = {}

    for name in models:
        entry: dict = {"model": name}
        entries.append(entry)
        try:
            if name == "tsarf":
                model = tsarf_forecast(parts.train, TsarfConfig(k=k, d=d))
                pred_test = predicted_line(model, parts.test.times)
                predictions[name] = np.concatenate(
                    [window_fitted_values(model, parts.train), pred_test]
                )
                entry["tsarf"] = tsarf_entry(model)
            else:
                fit = fit_srgm(parts.train, SrgmKind.from_label(name))
                pred_test = srgm_predict(fit, parts.test.times)
                predictions[name] = srgm_predict(fit, curve.times)
                entry["srgm"] = srgm_entry(fit)
        except ConvergenceError as exc:
            entry["status"] = "convergence_error"
            entry["error"] = str(exc)
            continue
        entry["status"] = "ok"
        entry["metrics"] = evaluate_model(pred_test, parts.test.counts)
    return entries, predictions


def _run_and_report(
    args, models: str
) -> tuple[GrowthCurve, SplitCurve, list[dict], dict[str, np.ndarray]]:
    """Read, split and run the models of ``compare`` or ``fit``, then write the run report."""
    curve, meta = read_curve_file(args.input)
    k = _parse_auto_int(args.window_size, "window size", 3)
    parts = _resolve_split(curve, args, k)
    names = _parse_models(models)
    d = _parse_auto_int(args.ma, "moving-average length", 1)

    entries, predictions = _run_models(curve, parts, names, k, d)
    report = {
        "dataset": meta,
        "split": {"train_n": parts.train.n, "test_n": parts.test.n, "policy": parts.policy},
        "models": entries,
        "version": __version__,
    }
    write_report(report, _resolve_output(args.output))
    return curve, parts, entries, predictions


def cmd_compare(args) -> int:
    curve, parts, entries, predictions = _run_and_report(args, args.models)
    write_curves_csv(_resolve_output(args.curves), curve.times, curve.counts, predictions, parts.train.n)
    print(render_metrics_table(entries))
    failed = [entry for entry in entries if entry["status"] != "ok"]
    for entry in failed:
        print(f"warning: {entry['model']} failed: {entry['error']}", file=sys.stderr)
    return 3 if failed else 0


def _sweep_cell(curve: GrowthCurve, args, k: int | None, d: int | None) -> float:
    """Test PMSE of one sweep cell; the default split tracks its window size."""
    config = TsarfConfig(k=k, d=d)  # rejects k < 3 before the split uses it
    parts = _resolve_split(curve, args, k)
    model = tsarf_forecast(parts.train, config)
    return pmse(predicted_line(model, parts.test.times), parts.test.counts)


def cmd_sweep(args) -> int:
    values = _parse_values(args.values)
    # a column is headed by its file stem, or by the path as given when
    # another input shares that stem
    stems = [Path(path).stem for path in args.inputs]
    names = [path if stems.count(stem) > 1 else stem for path, stem in zip(args.inputs, stems)]
    datasets = [(name, read_curve_file(path)[0]) for name, path in zip(names, args.inputs)]
    k = _parse_auto_int(args.window_size, "window size", 3)
    d = _parse_auto_int(args.ma, "moving-average length", 1)

    rows: list[list[str]] = []
    for value in values:
        cell = (value, d) if args.param == "window" else (k, value)
        row = [str(value)]
        for name, curve in datasets:
            try:
                row.append(f"{_sweep_cell(curve, args, *cell):.6g}")
            except TsarfError as exc:
                row.append("error")
                print(f"warning: {args.param}={value} on {name}: {exc}", file=sys.stderr)
        rows.append(row)

    label = "size" if args.param == "window" else "length"
    write_sweep_csv(_resolve_output(args.output), label, names, rows)
    print(render_sweep_table(label, names, rows))
    return 0


def _poisson_band(mean: float) -> tuple[int, int]:
    """Central 99.9% interval of a Poisson count, as ``scipy.stats.poisson.interval``.

    Each end is the smallest k whose CDF reaches (1 -/+ 0.999)/2. The pmf is
    taken over mode +- (40 + 12 sqrt(mean)), which holds all but a negligible
    tail of the mass, and normalised to sum to one. Its logarithm is summed
    from the steps log(pmf(k) / pmf(k - 1)) = log(mean / k): at means of 1e8
    and 1e9 this puts the CDF within 1e-14 of its exact value, where
    ``k log(mean) - mean - lgamma(k + 1)`` is only within about 1e-12.
    The tests check exact equality with scipy for means from 1e-3 to 1e8.
    """
    mode = math.floor(mean)
    half = int(40 + 12 * math.sqrt(mean))
    k = np.arange(max(0, mode - half), mode + half + 1)
    steps = np.log1p((mean - k[1:]) / k[1:])
    log_pmf = np.concatenate([[0.0], np.cumsum(steps)])
    pmf = np.exp(log_pmf - log_pmf.max())
    cdf = np.cumsum(pmf) / pmf.sum()
    lo, hi = np.searchsorted(cdf, [(1.0 - 0.999) / 2, (1.0 + 0.999) / 2])
    return int(k[0] + lo), int(k[0] + hi)


def cmd_simulate(args) -> int:
    kind = SrgmKind.from_label(args.kind)
    params = SrgmParams(a=args.a, b=args.b, c=args.c)
    times = simulate_nhpp(kind, params, args.horizon, args.seed)
    path = _resolve_output(args.output)
    header = [
        f"simulated {kind.value} failure times",
        f"a={args.a} b={args.b} c={args.c} horizon={args.horizon} seed={args.seed}",
    ]
    write_failure_times(path, header, times.times)

    total = mvf(kind, params, args.horizon)
    lo, hi = _poisson_band(total)
    count = len(times)
    print(f"wrote {count} failure times to {path}")
    if not lo <= count <= hi:
        print(
            f"warning: realized count {count} falls outside the 99.9% Poisson band "
            f"[{lo}, {hi}] around {total:.2f}",
            file=sys.stderr,
        )
    return 0


def cmd_fit(args) -> int:
    _, _, entries, _ = _run_and_report(args, args.model)
    entry = entries[0]
    if entry["status"] != "ok":
        print(f"error: {entry['error']}", file=sys.stderr)
        return 3
    if "tsarf" in entry:
        info = entry["tsarf"]
        b0, b1 = info["coefficients"]
        print(f"tsarf: k={info['k']} d={info['d']} windows={info['windows']}")
        print(f"predicted line: {b0:.6g} + {b1:.6g} t")
    else:
        info = entry["srgm"]
        extra = f" c={info['c']:.6g}" if "c" in info else ""
        print(f"{args.model}: a={info['a']:.6g} b={info['b']:.6g}{extra} sse={info['sse']:.6g}")
    print(render_metrics_table(entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tsarf",
        description="Forecast cumulative software-defect growth and compare "
        "the three-stage adjusted regression forecast against NHPP growth models.",
        epilog="Set TSARF_OUTDIR to redirect relative output paths.",
    )
    parser.add_argument("--version", action="version", version=f"tsarf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_split_options(p):
        p.add_argument("--test-len", type=int, default=None, help="test partition length (default: window size)")
        p.add_argument("--test-fraction", type=float, default=None, help="test partition fraction in (0,1)")

    def add_model_options(p):
        p.add_argument("--window-size", default="auto", help="points per window, or 'auto' (10%% of training)")
        p.add_argument("--ma", default="auto", help="moving-average length, or 'auto' (least holdout MSE)")

    p = sub.add_parser("compare", help="fit several models and score them on the test partition")
    p.add_argument("input", help="failure-times file (format A) or time,count CSV (format B)")
    p.add_argument("--models", default="tsarf,go,dss,weibull", help="comma-separated model list")
    add_model_options(p)
    add_split_options(p)
    p.add_argument("--output", default="report.json", help="structured run report path")
    p.add_argument("--curves", default="curves.csv", help="actual-vs-predicted curves CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sensitivity sweep of window size or moving-average length")
    p.add_argument("inputs", nargs="+", help="one dataset file per table column")
    p.add_argument("--param", choices=("window", "ma"), required=True)
    p.add_argument("--values", required=True, help="swept values: 'a..b' or 'a,b,c'")
    add_model_options(p)
    add_split_options(p)
    p.add_argument("--output", default="sweep.csv", help="sweep table CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="draw failure times from an NHPP and write a format-A file")
    p.add_argument("--kind", required=True, help="go, dss, or weibull")
    p.add_argument("--a", type=float, required=True, help="expected total fault count")
    p.add_argument("--b", type=float, required=True, help="detection rate / scale")
    p.add_argument("--c", type=float, default=1.0, help="Weibull shape (default 1)")
    p.add_argument("--horizon", type=float, required=True, help="simulation horizon T")
    p.add_argument("--seed", type=int, default=0, help="generator seed (recorded in the output)")
    p.add_argument("--output", default="simulated_times.txt", help="failure-times file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a single model and print its parameters and metrics")
    p.add_argument("input")
    p.add_argument("--model", required=True, choices=list(MODEL_LABELS))
    add_model_options(p)
    add_split_options(p)
    p.add_argument("--output", default="report.json", help="structured run report path")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # library warnings (unsorted input, too few windows) read like the CLI's own
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("tsarf")
    logger.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
