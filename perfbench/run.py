#!/usr/bin/env python3
"""Benchmark of the tsarf CLI: cold and warm time per workload, and a traced run.

Usage (from the repository root; the program is taken from ``src/``):

    python3 perfbench/run.py --workload compare-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/selftest.py                    # fast check of the harness

One closed-loop client runs one invocation at a time and starts the next only
when the previous one has ended; it starts no threads, and BLAS is held to one
thread in this process and its children. With ``--trace 0`` the run alternates
a cold ``python -m tsarf`` subprocess with the same call to ``tsarf.cli.main``
in this process, each paired with the same invocation of the control (see
CONTROL below), and reports the end-to-end metrics. With ``--trace 1`` it
times the layers instead (see ``tracing.py``). Every invocation's outputs are
checked; the last line printed is one JSON object with the result. Full
results, raw samples, the environment and the spans go to ``.perfbench-work/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import PER_LAYER, Tracer
from workloads import (
    REFERENCE,
    SCALES,
    VARIANTS,
    WORKLOADS,
    check,
    invocations,
    load_reference,
    reference_for,
    summarize,
    variant_of,
    write_fixtures,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# name: (unit, better). Each "*.p50" is the median time of one round of the
# workload's invocations: the sum over its invocations of their medians.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s.p50": ("s", "lower"),
    "inproc_s.p50": ("s", "lower"),
    "cpu_s.p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: The control is a verbatim copy of src/tsarf as it was when the benchmark
#: was defined; it is never edited. It runs next to every timed invocation.
#: On a shared 2-vCPU VM the speed one process sees drifts by up to a third
#: over minutes, alike for both, so each time is reported as the program's
#: figure times the control's recorded figure (reference.json, "control")
#: over the control's figure in the same run.
CONTROL = Path(__file__).resolve().parent / "control"
CONTROL_MODULE = "tsarf_control"
CONTROLLED = ("setup_s", "wall_s.p50", "inproc_s.p50", "cpu_s.p50")
#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Share of a traced run spent timing fresh-interpreter imports.
IMPORT_SHARE = 0.3
SCIPY_MODULES = ("scipy.optimize", "scipy.stats", "scipy.linalg")


class Program:
    """A tsarf package to time: the one under test in ``src/``, or the control."""

    def __init__(self, module: str, path: Path, invs: list) -> None:
        self.module, self.invs = module, invs
        for inv in invs:
            inv.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(path), os.environ.get("PYTHONPATH")) if p))
        self.env.pop("TSARF_OUTDIR", None)
        self.main = importlib.import_module(f"{module}.cli").main

    def cold(self, inv) -> tuple[float, float, float, int, str]:
        """One ``python -m`` subprocess: wall s, user+sys CPU s, max RSS MB, exit code, stdout."""
        inv.clear_outputs()
        log = WORK / "child.out"
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", self.module, *inv.argv],
                stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, log.read_text()

    def inproc(self, inv, tracer: Tracer | None = None) -> tuple[float, object, str]:
        """The same call to ``cli.main`` in this process: wall s, exit code, stdout."""
        inv.clear_outputs()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(list(inv.argv))
                else:
                    tracer.invocation += 1
                    code = tracer.call("main", "cli", self.main, list(inv.argv))
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                code = "exception: " + traceback.format_exc(limit=-1).strip().replace("\n", " | ")
            wall = time.perf_counter() - start
        return wall, code, out.getvalue()


class Bench:
    """One workload at one seed: fixtures, the program and its control, checks."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.variant = variant_of(seed)
        self.fixdir = WORK / workload / "fixtures"
        os.environ.pop("TSARF_OUTDIR", None)
        self.program, self.control = (
            Program(module, path, invocations(workload, scale, self.variant, self.fixdir, WORK / workload / out))
            for module, path, out in (("tsarf", SRC, "out"), (CONTROL_MODULE, CONTROL, "control-out"))
        )
        self.invs = self.program.invs
        references = load_reference()
        self.refs = {
            inv.label: reference_for(references, scale, workload, self.variant, inv.fixture)
            for inv in self.invs
        }
        self.nominal = references.get("control", {}).get(scale, {}).get(workload)
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def verify(self, program: Program, inv, returncode, stdout: str) -> None:
        """Check one invocation's outputs and count it; the control only has to succeed."""
        if program is self.control:
            if returncode != 0:
                raise SystemExit(f"error: control {inv.label} ended with {returncode}")
            return
        self.attempted += 1
        problems = check(inv, returncode, stdout, self.refs[inv.label], self.scale)
        self.failed += bool(problems)
        self.failures += [f"{inv.label}: {problem}" for problem in problems]

    def setup(self, program: Program) -> float:
        """Write the fixtures and run the first invocation once, untimed but checked."""
        start = time.perf_counter()
        self.sizes = write_fixtures(self.workload, self.scale, self.variant, self.fixdir)
        self.verify(program, program.invs[0], *program.inproc(program.invs[0])[1:])
        return time.perf_counter() - start

    def pair(self, step: int) -> tuple[Program, Program]:
        """Both programs, the one that goes first alternating by step."""
        return (self.program, self.control) if step % 2 == 0 else (self.control, self.program)


def round_median(samples: dict[str, list[float]]) -> float:
    """Median time of one round: the sum of each invocation's median."""
    return sum(statistics.median(values) for values in samples.values())


def sample_count(samples: dict[str, list[float]]) -> int:
    return sum(len(values) for values in samples.values())


def measure(bench: Bench, seconds: float) -> dict[str, dict]:
    """Raw samples of both programs, each timed invocation next to the control's."""
    raw = {
        program.module: {"setup_s": [], "wall_s.p50": defaultdict(list), "inproc_s.p50": defaultdict(list),
                         "cpu_s.p50": defaultdict(list), "peak_rss_mb": []}
        for program in (bench.program, bench.control)
    }
    for step in range(SETUPS):
        for program in bench.pair(step):
            raw[program.module]["setup_s"].append(bench.setup(program))
    deadline = time.perf_counter() + seconds
    step = 0
    while step < len(bench.invs) or time.perf_counter() < deadline:
        index = step % len(bench.invs)
        for program in bench.pair(step):
            inv, samples = program.invs[index], raw[program.module]
            wall, cpu, rss, code, stdout = program.cold(inv)
            bench.verify(program, inv, code, stdout)
            samples["wall_s.p50"][inv.label].append(wall)
            samples["cpu_s.p50"][inv.label].append(cpu)
            samples["peak_rss_mb"].append(rss)
        for program in bench.pair(step):
            inv = program.invs[index]
            wall, code, stdout = program.inproc(inv)
            bench.verify(program, inv, code, stdout)
            raw[program.module]["inproc_s.p50"][inv.label].append(wall)
        step += 1
    return raw


def summarize_samples(samples: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s.p50": round_median(samples["wall_s.p50"]),
        "inproc_s.p50": round_median(samples["inproc_s.p50"]),
        "cpu_s.p50": round_median(samples["cpu_s.p50"]),
        "peak_rss_mb": max(samples["peak_rss_mb"]),
    }


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics. Each time is the program's raw figure scaled by the
    control's recorded figure over the control's figure in this run."""
    if bench.nominal is None:
        raise SystemExit(f"error: no recorded control timings for {bench.workload} at scale {bench.scale}")
    raw = measure(bench, seconds)
    program, control = (summarize_samples(raw[p.module]) for p in (bench.program, bench.control))
    metrics = {key: program[key] * bench.nominal[key] / control[key] for key in CONTROLLED}
    metrics["peak_rss_mb"] = program["peak_rss_mb"]
    samples = raw[bench.program.module]
    counts = {key: len(value) if isinstance(value, list) else sample_count(value)
              for key, value in samples.items()}
    return {key: metrics[key] for key in END_TO_END}, counts, {"raw": {"program": program, "control": control}, **raw}


def import_times(bench: Bench) -> tuple[float, dict[str, float]]:
    """Fresh-interpreter ``import tsarf.cli``: seconds, and the ``-X importtime``
    seconds spent importing each scipy submodule (0 when it is not imported)."""
    timer = "import time; t = time.perf_counter(); import tsarf.cli; print(time.perf_counter() - t)"
    plain = subprocess.run([sys.executable, "-c", timer], env=bench.program.env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    traced = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tsarf.cli"],
                            env=bench.program.env, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(plain.stdout.strip()), {m: importtime_seconds(traced.stderr, m) for m in SCIPY_MODULES}


def importtime_seconds(log: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package`` and its submodules.

    ``-X importtime`` prints each module after its children, indented two
    spaces per level; a package can be missing its own line (scipy loads
    ``scipy.stats`` through a module ``__getattr__``), so its outermost
    submodules are summed instead.
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in log.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(fields[1]), children))

    def total(node) -> int:
        _, name, cumulative, children = node
        if name == package or name.startswith(package + "."):
            return cumulative
        return sum(total(child) for child in children)

    return sum(total(node) for node in pending) / 1e6


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict, Tracer]:
    program = bench.program
    bench.setup(program)
    start = time.perf_counter()
    deadline = start + seconds
    imports: list[float] = []
    scipy: dict[str, list[float]] = defaultdict(list)
    while not imports or time.perf_counter() < start + IMPORT_SHARE * seconds:
        seconds_import, cumulative = import_times(bench)
        imports.append(seconds_import)
        for module, value in cumulative.items():
            scipy[module].append(value)

    tracer = Tracer()
    untraced, traced = defaultdict(list), defaultdict(list)
    while not tracer.rounds or time.perf_counter() < deadline:
        for inv in bench.invs:
            wall, code, stdout = program.inproc(inv)
            bench.verify(program, inv, code, stdout)
            untraced[inv.label].append(wall)
        tracer.install()
        try:
            for inv in bench.invs:
                wall, code, stdout = program.inproc(inv, tracer)
                bench.verify(program, inv, code, stdout)
                traced[inv.label].append(wall)
        finally:
            tracer.uninstall()
        tracer.end_round()

    # One more traced round for peak allocations only: tracemalloc slows
    # what it watches, so this round's spans are dropped.
    tracer.memory = True
    tracer.install()
    try:
        for inv in bench.invs:
            bench.verify(program, inv, *program.inproc(inv, tracer)[1:])
    finally:
        tracer.uninstall()
        tracer.memory = False
    tracer.drop_round()

    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = statistics.median(imports)
    for module in SCIPY_MODULES:
        metrics[f"cli.import.{module.replace('.', '_')}_s"] = statistics.median(scipy[module])
    metrics["trace.overhead_s"] = round_median(traced) - round_median(untraced)
    counts = dict.fromkeys(metrics, len(tracer.rounds))
    counts.update({key: len(imports) for key in metrics if key.startswith("cli.import")})
    counts["dataset.peak_alloc_mb"] = counts["report.peak_alloc_mb"] = 1
    counts["trace.overhead_s"] = sample_count(traced) + sample_count(untraced)
    return {key: metrics[key] for key in PER_LAYER}, counts, tracer


def environment(bench: Bench) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": bench.seed,
        "variant": bench.variant,
        "scale": bench.scale,
        "fixture_sizes": bench.sizes,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    bench = Bench(workload, seed, scale)
    tracer = None
    samples: dict = {}
    if trace:
        metrics, counts, tracer = run_traced(bench, seconds)
        units = PER_LAYER
    else:
        metrics, counts, samples = run_untraced(bench, seconds)
        units = END_TO_END
    result = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(bench),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "absent": tracer.absent if tracer else [],
        "samples": samples,
        "metrics": {key: {"value": value, "unit": units[key][0], "samples": counts[key]}
                    for key, value in metrics.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.dump_spans(WORK / f"{stem}-spans.jsonl")
    (WORK / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def record_results(scale: str) -> dict:
    """Run every variant of every workload in process; returns what the checks compare against."""
    table: dict = {}
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            bench = Bench(workload, variant, scale)
            program = bench.program
            bench.sizes = write_fixtures(workload, scale, variant, bench.fixdir)
            for inv in bench.invs:
                wall, code, stdout = program.inproc(inv)
                bench.refs[inv.label] = summary = summarize(inv) if code == 0 else None
                bench.verify(program, inv, code, stdout)
                table.setdefault(workload, {}).setdefault(str(variant), {})[inv.fixture] = summary
            if bench.failed:
                raise SystemExit(f"{workload} variant {variant}: {bench.failures}")
    return table


def record_control(scale: str, seconds: float) -> dict:
    """Time the control on every workload; its figures set the scale of reported times."""
    table = {}
    for workload in WORKLOADS:
        bench = Bench(workload, 0, scale)
        table[workload] = summarize_samples(measure(bench, seconds)[bench.control.module])
    return table


def report(result: dict) -> None:
    """Human-readable lines: environment, failures, one metric per line."""
    print(f"# {result['workload']} trace={result['trace']} {json.dumps(result['environment'])}")
    for name in result["absent"]:
        print(f"# absent: {name} (its metrics read 0)")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"# ops_failed_frac = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    if "raw" in result["samples"]:
        print(f"# raw seconds before scaling: {json.dumps(result['samples']['raw'])}")
    for key, metric in result["metrics"].items():
        print(f"{result['workload']:14s} {key:32s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"(n={metric['samples']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="fixture sizes; tiny is for the self-test")
    parser.add_argument("--record", choices=("results", "control"),
                        help="rewrite that part of reference.json from this checkout")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "tsarf" / "cli.py").is_file():
        print(f"error: no tsarf program under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(CONTROL)]
    import tsarf

    if SRC.resolve() not in Path(tsarf.__file__).resolve().parents:
        print(f"error: imported tsarf from {tsarf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record:
        references = load_reference() if REFERENCE.exists() else {}
        if args.record == "results":
            references[args.scale] = record_results(args.scale)
        else:
            references.setdefault("control", {})[args.scale] = record_control(args.scale, args.seconds)
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        return 0

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale) for w in workloads]
    for result in results:
        report(result)
    single = len(results) == 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (key if single else f"{r['workload']}/{key}"): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for key, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
