"""Workload definitions for the tsarf benchmark: fixtures, invocations, checks.

A workload is a round of CLI invocations run one after another. Fixtures are
written here with numpy alone, so no change to the program can change the
inputs it is measured on. The seed picks one of ``VARIANTS`` fixture sets;
``reference.json`` holds, for every variant, the results the program gave
when the benchmark was defined, and every invocation is checked against them.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 64
REFERENCE = Path(__file__).with_name("reference.json")

#: Relative tolerance on TSARF PMSE: the conditioning error a centred line
#: kernel may legitimately remove from today's normal-equation solver.
PMSE_RTOL = 1e-3
#: An SRGM fit may not end worse than its recorded SSE by more than this.
SSE_RTOL = 1e-9
#: "About zero" for TSARF on a curve that lies exactly on a line.
EXACT_LINE_PMSE = 1e-9

WORKLOADS = {
    "compare-small": "compare with all four models on three ~100-failure curves: SRGM fits dominate",
    "sweep-windows": "window sweep 3,10,100 with auto d on a 10^4-point curve: d-selection and line fits dominate",
    "io-large": "simulate ~10^5 GO events, then compare --models tsarf on them: file read and write dominate",
}

#: Fixture sizes per scale; "tiny" serves the self-test.
SCALES = {
    "full": {"compare_n": 104, "sweep_n": 10_000, "sweep_values": "3,10,100", "io_a": 120_000.0},
    "tiny": {"compare_n": 40, "sweep_n": 300, "sweep_values": "3,10", "io_a": 1_200.0},
}
GO_B = 0.004
GO_HORIZON = 600.0
SMALL_FIXTURES = ("exact_line", "changepoint", "go_sim")
SRGM_MODELS = ("go", "dss", "weibull")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` after ``tsarf``, and what its outputs must show."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "compare", "sweep" or "simulate"
    out: Path  # directory holding this invocation's outputs
    fixture: str
    models: tuple[str, ...] = ()

    @property
    def outputs(self) -> tuple[str, ...]:
        return {"compare": ("report.json", "curves.csv"), "sweep": ("sweep.csv",), "simulate": ("sim.txt",)}[self.kind]

    def clear_outputs(self) -> None:
        """Remove what this invocation writes, so a stale file cannot pass a check."""
        for name in self.outputs:
            (self.out / name).unlink(missing_ok=True)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _write_times(path: Path, times: np.ndarray, header: str) -> int:
    path.write_text("\n".join([f"# {header}", *(f"{t:.10g}" for t in times)]) + "\n")
    return int(times.size)


def _changepoint_times(rng: np.random.Generator, n: int) -> np.ndarray:
    half = n // 2
    gaps = np.concatenate(
        [60.0 * rng.uniform(0.8, 1.2, half), 20.0 * rng.uniform(0.8, 1.2, n - half)]
    )
    return np.cumsum(gaps)


def _go_times(rng: np.random.Generator, a: float) -> np.ndarray:
    """One Goel-Okumoto sample path on [0, GO_HORIZON] by exact CDF inversion."""
    mass = 1.0 - math.exp(-GO_B * GO_HORIZON)
    count = int(rng.poisson(a * mass))
    return np.sort(-np.log1p(-rng.uniform(size=count) * mass) / GO_B)


def go_mean(a: float) -> float:
    """Expected GO event count on the simulation horizon."""
    return a * (1.0 - math.exp(-GO_B * GO_HORIZON))


def write_fixtures(workload: str, scale: str, variant: int, fixdir: Path) -> dict[str, int]:
    """Write the workload's input files; returns the point count of each."""
    sizes = SCALES[scale]
    if fixdir.exists():
        shutil.rmtree(fixdir)
    fixdir.mkdir(parents=True)
    rng = np.random.default_rng([variant, 2024])
    if workload == "compare-small":
        n = sizes["compare_n"]
        return {
            "exact_line": _write_times(
                fixdir / "exact_line.txt", (np.arange(1, n + 1) - 1.0) / 2.0, "counts follow 1 + 2t"
            ),
            "changepoint": _write_times(
                fixdir / "changepoint.txt", _changepoint_times(rng, n), "detection rate triples"
            ),
            "go_sim": _write_times(
                fixdir / "go_sim.txt", _go_times(rng, 1.2 * n), f"GO path a={1.2 * n} b={GO_B}"
            ),
        }
    if workload == "sweep-windows":
        times = _changepoint_times(rng, sizes["sweep_n"])
        return {"changepoint": _write_times(fixdir / "changepoint.txt", times, "changepoint")}
    if workload == "io-large":
        return {"sim_expected": round(go_mean(sizes["io_a"]))}  # the CLI draws the path
    raise ValueError(f"unknown workload {workload!r}")


def invocations(workload: str, scale: str, variant: int, fixdir: Path, outdir: Path) -> list[Invocation]:
    """The round of CLI calls one operation of the workload makes, in order."""
    sizes = SCALES[scale]
    if workload == "compare-small":
        models = ("tsarf",) + SRGM_MODELS
        return [
            _compare(f"compare:{name}", fixdir / f"{name}.txt", outdir / name, name, models)
            for name in SMALL_FIXTURES
        ]
    if workload == "sweep-windows":
        out = outdir / "sweep"
        argv = ("sweep", str(fixdir / "changepoint.txt"), "--param", "window",
                "--values", sizes["sweep_values"], "--ma", "auto", "--output", str(out / "sweep.csv"))
        return [Invocation("sweep:changepoint", argv, "sweep", out, "changepoint")]
    if workload == "io-large":
        out = outdir / "io"
        sim = out / "sim.txt"
        simulate = ("simulate", "--kind", "go", "--a", repr(sizes["io_a"]), "--b", repr(GO_B),
                    "--horizon", repr(GO_HORIZON), "--seed", str(variant), "--output", str(sim))
        return [
            Invocation("simulate:go", simulate, "simulate", out, "sim"),
            _compare("compare:sim", sim, out, "sim", ("tsarf",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _compare(label: str, path: Path, out: Path, fixture: str, models: tuple[str, ...]) -> Invocation:
    argv = ("compare", str(path), "--models", ",".join(models),
            "--output", str(out / "report.json"), "--curves", str(out / "curves.csv"))
    return Invocation(label, argv, "compare", out, fixture, models)


# --- output summaries and checks -------------------------------------------


def summarize(inv: Invocation) -> dict:
    """The recorded part of an invocation's output (empty for simulate)."""
    if inv.kind == "compare":
        report = json.loads((inv.out / "report.json").read_text())
        summary: dict = {"n": report["dataset"]["n"]}
        for entry in report["models"]:
            if entry.get("status") != "ok":
                continue
            if "tsarf" in entry:
                info = entry["tsarf"]
                summary["tsarf"] = {"k": info["k"], "d": info["d"], "pmse": entry["metrics"]["pmse"]}
            else:
                summary[entry["model"]] = {"sse": entry["srgm"]["sse"]}
        return summary
    if inv.kind == "sweep":
        with open(inv.out / "sweep.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        return {row[0]: _to_float(row[1]) for row in rows[1:]}
    return {}


def _to_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def check(inv: Invocation, returncode: int | None, stdout: str, reference: dict | None, scale: str) -> list[str]:
    """Every problem found in one invocation's outputs; empty when all hold."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    try:
        if inv.kind == "compare":
            problems = _check_compare(inv)
        elif inv.kind == "sweep":
            problems = _check_sweep(inv, scale)
        else:
            problems = _check_simulate(inv, stdout, scale)
        if inv.kind != "simulate":
            problems += _check_against_reference(inv, summarize(inv), reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_compare(inv: Invocation) -> list[str]:
    problems = []
    report = json.loads((inv.out / "report.json").read_text())
    entries = {entry["model"]: entry for entry in report["models"]}
    if sorted(entries) != sorted(inv.models):
        problems.append(f"report lists models {sorted(entries)}, expected {sorted(inv.models)}")
    n = report["dataset"]["n"]
    test_n = report["split"]["test_n"]
    with open(inv.out / "curves.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    if len(body) != n:
        problems.append(f"curves.csv has {len(body)} rows, expected n={n}")
    test = [row for row in body if row[-1] == "test"]
    if len(test) != test_n:
        problems.append(f"curves.csv has {len(test)} test rows, report says {test_n}")
    actual = np.array([float(row[1]) for row in test])
    for name, entry in entries.items():
        if entry.get("status") != "ok":
            problems.append(f"{name}: status {entry.get('status')!r}")
            continue
        metrics = entry["metrics"]
        if not all(_finite(metrics.get(key)) for key in ("pmse", "prr", "pp")):
            problems.append(f"{name}: non-finite metrics {metrics}")
            continue
        pred = np.array([float(row[header.index(name)]) for row in test])
        # curves.csv holds 10 significant digits, so each cell is off by at
        # most 5e-10 relative; bound how far that moves the recomputed PMSE.
        err = 5e-10 * (np.abs(pred) + np.abs(actual))
        resid = np.abs(pred - actual)
        tol = float(np.mean(2.0 * resid * err + err**2)) + 1e-12 * metrics["pmse"]
        recomputed = float(np.mean((pred - actual) ** 2))
        if abs(recomputed - metrics["pmse"]) > tol:
            problems.append(f"{name}: PMSE from curves.csv {recomputed!r} != report {metrics['pmse']!r}")
    return problems


def _check_sweep(inv: Invocation, scale: str) -> list[str]:
    with open(inv.out / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    expected = SCALES[scale]["sweep_values"].split(",")
    problems = []
    if rows[0] != ["size", inv.fixture]:
        problems.append(f"sweep.csv header {rows[0]}")
    if [row[0] for row in rows[1:]] != expected:
        problems.append(f"sweep.csv rows {[row[0] for row in rows[1:]]}, expected {expected}")
    problems += [f"window {row[0]}: PMSE {row[1]!r}" for row in rows[1:] if not _finite(_to_float(row[1]))]
    return problems


def _check_simulate(inv: Invocation, stdout: str, scale: str) -> list[str]:
    from scipy.stats import poisson

    times = np.loadtxt(inv.out / "sim.txt", comments="#", ndmin=1)
    problems = []
    if np.any(np.diff(times) < 0):
        problems.append("simulated times are not sorted")
    if np.any(times < 0) or np.any(times > GO_HORIZON):
        problems.append("simulated times leave [0, horizon]")
    lo, hi = poisson.interval(0.999, go_mean(SCALES[scale]["io_a"]))
    if not lo <= times.size <= hi:
        problems.append(f"{times.size} events fall outside the 99.9% Poisson band [{lo}, {hi}]")
    if f"wrote {times.size} failure times" not in stdout:
        problems.append(f"stdout does not report {times.size} events: {stdout.strip()!r}")
    return problems


def _check_against_reference(inv: Invocation, summary: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return [f"no recorded reference for {inv.label}"]
    if inv.kind == "sweep":
        return [
            f"window {value}: PMSE {summary.get(value)!r}, recorded {ref!r}"
            for value, ref in reference.items()
            if not _close(summary.get(value), ref)
        ]
    problems = []
    if summary["n"] != reference["n"]:
        problems.append(f"n={summary['n']}, recorded {reference['n']}")
    for model in inv.models:
        got, ref = summary.get(model), reference[model]
        if got is None:
            continue  # already reported by the generic check
        if model == "tsarf":
            if (got["k"], got["d"]) != (ref["k"], ref["d"]):
                problems.append(f"tsarf k,d = {got['k']},{got['d']}, recorded {ref['k']},{ref['d']}")
            if not _close(got["pmse"], ref["pmse"]):
                problems.append(f"tsarf PMSE {got['pmse']!r}, recorded {ref['pmse']!r}")
            if inv.fixture == "exact_line" and not got["pmse"] <= EXACT_LINE_PMSE:
                problems.append(f"tsarf PMSE {got['pmse']!r} on an exact line")
        elif not got["sse"] <= ref["sse"] * (1.0 + SSE_RTOL):
            problems.append(f"{model} SSE {got['sse']!r} above recorded {ref['sse']!r}")
    return problems


def _close(value, ref: float) -> bool:
    return _finite(value) and abs(value - ref) <= PMSE_RTOL * abs(ref) + EXACT_LINE_PMSE


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_for(references: dict, scale: str, workload: str, variant: int, fixture: str) -> dict | None:
    return references.get(scale, {}).get(workload, {}).get(str(variant), {}).get(fixture)
