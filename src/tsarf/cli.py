"""Command-line surface: compare, sweep, simulate, fit.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence failure
(compare still writes a partial report with failed models marked).

The TSARF_OUTDIR environment variable, when set, is the base directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import GrowthCurve, SplitCurve, read_curve_file, split
from .errors import ConvergenceError, DataError, TsarfError, UsageError
from .metrics import evaluate_model
from .pipeline import TsarfModel, predicted_line, tsarf_forecast, window_fitted_values
from .report import (
    MODEL_LABELS,
    order_models,
    render_metrics_table,
    render_sweep_table,
    run_report,
    srgm_entry,
    tsarf_entry,
    write_curves_csv,
    write_failure_times,
    write_report,
    write_sweep_csv,
)
from .srgm import SrgmKind, SrgmParams, fit_srgm, mvf, poisson_band, simulate_nhpp, srgm_predict


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via UsageError so they exit 1, not 2,
    and a --help or --version that cannot be printed raises its OSError."""

    def error(self, message: str):
        raise UsageError(message)

    def _print_message(self, message: str, file=None) -> None:
        # argparse's own swallows the OSError, and --help then exits 0
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def _print_err(text: str) -> None:
    """Print one line to stderr as UTF-8, whatever the locale.

    A path's undecodable bytes, which arrive as surrogate escapes, go out as
    those bytes, where a C-locale stderr would print them as escapes.
    """
    buffer = getattr(sys.stderr, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        print(text, file=sys.stderr)
        return
    sys.stderr.flush()
    buffer.write((text + "\n").encode("utf-8", "surrogateescape"))
    buffer.flush()


def _at_least(value: int, what: str, minimum: int) -> int:
    if value < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {value}")
    return value


def _parse_auto_int(value: str, what: str, minimum: int) -> int | None:
    if value.strip().lower() == "auto":
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise UsageError(f"{what} must be an integer or 'auto', got {value!r}") from None
    return _at_least(parsed, what, minimum)


def _parse_models(raw: str) -> list[str]:
    """The requested model names, each once, in canonical order."""
    models = [m.strip().lower() for m in raw.split(",") if m.strip()]
    if not models:
        raise UsageError("at least one model must be requested")
    for m in models:
        if m not in MODEL_LABELS:
            raise UsageError(f"unknown model {m!r}; expected subset of {','.join(MODEL_LABELS)}")
    return order_models(models)


def _parse_values(raw: str, what: str, minimum: int) -> range | list[int]:
    raw = raw.strip()
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse value range {raw!r}; use 'a..b' or 'a,b,c'") from None
    if not values:
        raise UsageError("value range is empty")
    # a range is never expanded here; it ascends, so its first value is its least
    for value in values[:1] if isinstance(values, range) else values:
        _at_least(value, what, minimum)
    return values


def _write(*outputs) -> list[Path]:
    """Write every ``(path, write)`` output of a command, or none of them.

    Relative paths start from TSARF_OUTDIR when it is set, and missing
    directories are created. A new or regular file is written to a temporary
    sibling that replaces it once every write has succeeded; a link, device
    or directory is written in place. An output that cannot be created or
    written is a usage error, and so are two outputs that name one file.
    """
    # an absolute path replaces the base
    paths = [Path(os.environ.get("TSARF_OUTDIR", ""), path) for path, _ in outputs]
    targets = [os.path.realpath(path) for path in paths]
    for index, target in enumerate(targets):
        if target in targets[:index]:
            raise UsageError(f"two outputs name one file: {paths[index]}")
    replacements: list[tuple[Path, Path]] = []
    try:
        for path, (_, write) in zip(paths, outputs):
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_symlink() or (path.exists() and not path.is_file()):
                write(path)
            else:
                temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
                replacements.append((path, temporary))
                write(temporary)
        for path, temporary in replacements:
            os.replace(temporary, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for _, temporary in replacements:
            temporary.unlink(missing_ok=True)
    return paths


def _read(path: str) -> tuple[GrowthCurve, dict]:
    """``read_curve_file``, with a warning when the failure times had to be sorted."""
    curve, meta = read_curve_file(path)
    if meta["required_sorting"]:
        _print_err(f"warning: failure times were not sorted; sorting {meta['n']} entries")
    return curve, meta


def _forecast(train: GrowthCurve, k: int | None, d: int | None) -> TsarfModel:
    """``tsarf_forecast``, with a warning when too few windows fix d at 1."""
    model = tsarf_forecast(train, k, d)
    if model.d_fallback:
        _print_err(f"warning: only {model.history.W} windows: falling back to moving-average length 1")
    return model


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
                model = _forecast(parts.train, k, d)
                pred_test = predicted_line(model, parts.test.times)
                predictions[name] = np.concatenate(
                    [window_fitted_values(model, parts.train), pred_test]
                )
                entry["tsarf"] = tsarf_entry(model)
            else:
                fit = fit_srgm(parts.train, SrgmKind.from_label(name))
                predictions[name] = srgm_predict(fit, curve.times)
                pred_test = predictions[name][parts.train.n :]
                entry["srgm"] = srgm_entry(fit)
        except ConvergenceError as exc:
            entry["status"] = "convergence_error"
            entry["error"] = str(exc)
            continue
        entry["status"] = "ok"
        entry["metrics"] = evaluate_model(pred_test, parts.test.counts)
    return entries, predictions


def _run_and_report(args, models: list[str], curves: str | None = None) -> list[dict]:
    """Read, split and run the models of ``compare`` or ``fit``, then write the
    run report and, when ``curves`` is given, the curves table there."""
    curve, meta = _read(args.input)
    k = _parse_auto_int(args.window_size, "window size", 3)
    parts = split(curve, args.test_len, test_fraction=args.test_fraction, k=k)
    d = _parse_auto_int(args.ma, "moving-average length", 1)

    entries, predictions = _run_models(curve, parts, models, k, d)
    report = run_report(meta, parts, entries)
    outputs = [(args.output, lambda path: write_report(report, path))]
    if curves is not None:
        outputs.append((curves, lambda path: write_curves_csv(path, curve.times, curve.counts, predictions, parts.train.n)))
    _write(*outputs)
    return entries


def cmd_compare(args) -> int:
    entries = _run_and_report(args, args.models, args.curves)
    print(render_metrics_table(entries))
    failed = [entry for entry in entries if entry["status"] != "ok"]
    for entry in failed:
        _print_err(f"warning: {entry['model']} failed: {entry['error']}")
    return 3 if failed else 0


def cmd_sweep(args) -> int:
    what, minimum = ("window size", 3) if args.param == "window" else ("moving-average length", 1)
    values = _parse_values(args.values, what, minimum)
    # split would reject these in every cell
    if args.test_len is not None:
        _at_least(args.test_len, "test length", 1)
    if args.test_fraction is not None and not 0 < args.test_fraction < 1:
        raise UsageError(f"test fraction must lie in (0, 1), got {args.test_fraction}")
    # a column is headed by its file stem, or by the path as given when
    # another input shares that stem
    stems = [Path(path).stem for path in args.inputs]
    names = [path if stems.count(stem) > 1 else stem for path, stem in zip(args.inputs, stems)]
    datasets = [(name, _read(path)[0]) for name, path in zip(names, args.inputs)]
    # no window (2k <= train_n) or length (d <= W - 1) above every point count fits
    longest = max(curve.n for _, curve in datasets)
    if isinstance(values, range) and values[-1] > longest:
        raise UsageError(f"value range {args.values.strip()} ends above {longest}, the most points in any input")
    k = _parse_auto_int(args.window_size, "window size", 3)
    d = _parse_auto_int(args.ma, "moving-average length", 1)

    rows: list[list[str]] = []
    for value in values:
        cell_k, cell_d = (value, d) if args.param == "window" else (k, value)
        row = [str(value)]
        for name, curve in datasets:
            try:
                parts = split(curve, args.test_len, test_fraction=args.test_fraction, k=cell_k)
                model = _forecast(parts.train, cell_k, cell_d)
                metrics = evaluate_model(predicted_line(model, parts.test.times), parts.test.counts)
                row.append("n/a" if metrics["pmse"] is None else f"{metrics['pmse']:.6g}")
            except TsarfError as exc:
                row.append("error")
                _print_err(f"warning: {args.param}={value} on {name}: {exc}")
        rows.append(row)

    label = "size" if args.param == "window" else "length"
    _write((args.output, lambda path: write_sweep_csv(path, label, names, rows)))
    print(render_sweep_table(label, names, rows))
    return 0


def cmd_simulate(args) -> int:
    kind = SrgmKind.from_label(args.kind)
    params = SrgmParams(a=args.a, b=args.b, c=args.c)
    times = simulate_nhpp(kind, params, args.horizon, args.seed)
    header = [
        f"simulated {kind.value} failure times",
        f"a={args.a} b={args.b} c={args.c} horizon={args.horizon} seed={args.seed}",
    ]
    [path] = _write((args.output, lambda path: write_failure_times(path, header, times)))

    total = mvf(kind, params, args.horizon)
    lo, hi = poisson_band(total)
    count = len(times)
    print(f"wrote {count} failure times to {path}")
    if not lo <= count <= hi:
        _print_err(
            f"warning: realized count {count} falls outside the 99.9% Poisson band "
            f"[{lo}, {hi}] around {total:.2f}"
        )
    return 0


def cmd_fit(args) -> int:
    if len(args.model) != 1:
        raise UsageError(f"fit takes one model, got {len(args.model)}")
    entries = _run_and_report(args, args.model)
    entry = entries[0]
    if entry["status"] != "ok":
        _print_err(f"convergence error: {entry['error']}")
        return 3
    if "tsarf" in entry:
        info = entry["tsarf"]
        b0, b1 = info["coefficients"]
        print(f"tsarf: k={info['k']} d={info['d']} windows={info['windows']}")
        print(f"predicted line: {b0:.6g} + {b1:.6g} t")
    else:
        info = entry["srgm"]
        extra = f" c={info['c']:.6g}" if "c" in info else ""
        print(f"{entry['model']}: a={info['a']:.6g} b={info['b']:.6g}{extra} sse={info['sse']:.6g}")
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
        # exclusive at parse time, so sweep exits 1 rather than failing every cell
        group = p.add_mutually_exclusive_group()
        group.add_argument("--test-len", type=int, default=None, help="test partition length (default: window size)")
        group.add_argument("--test-fraction", type=float, default=None, help="test partition fraction in (0,1)")

    def add_model_options(p):
        p.add_argument("--window-size", default="auto", help="points per window, or 'auto' (10%% of training)")
        p.add_argument("--ma", default="auto", help="moving-average length, or 'auto' (least holdout MSE)")

    p = sub.add_parser("compare", help="fit several models and score them on the test partition")
    p.add_argument("input", help="failure-times file (format A) or time,count CSV (format B)")
    p.add_argument("--models", type=_parse_models, default="tsarf,go,dss,weibull", help="comma-separated model list")
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
    p.add_argument("--model", type=_parse_models, required=True, help="one of " + ", ".join(MODEL_LABELS))
    add_model_options(p)
    add_split_options(p)
    p.add_argument("--output", default="report.json", help="structured run report path")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # only stdout can fail here: every output file is written, or a UsageError,
        # by now; fd 1 on devnull quiets the exit flush
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            _print_err("usage error: standard output was closed")
        else:
            _print_err(f"usage error: cannot write standard output: {exc.strerror or exc}")
        return 1
    except UsageError as exc:
        _print_err(f"usage error: {exc}")
        return 1
    except DataError as exc:
        _print_err(f"data error: {exc}")
        return 2
    except ConvergenceError as exc:
        _print_err(f"convergence error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
