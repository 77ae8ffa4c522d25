#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny fixture sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It runs the benchmark command on every workload, checks the shape of what it
prints against BENCHMARK.json, shows that the output checks reject broken
outputs and that a wrapped name the program no longer has is reported as
absent, and that the benchmark fails without the program beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def require(ok, message) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def bench_command(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_spec() -> None:
    require([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
        require(listed == table, f"{section} in BENCHMARK.json differs from the harness")


def check_command(workload: str, trace: int) -> None:
    proc = bench_command("--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny")
    require(proc.returncode == 0, proc.stdout + proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout)
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    require(set(result["metrics"]) == names, set(result["metrics"]) ^ names)
    for metric in result["metrics"].values():
        require(isinstance(metric["value"], float) and metric["unit"], metric)
    print(f"ok: {workload} trace={trace}")


def problems_after(bench: run.Bench, inv, edit) -> list[str]:
    """Apply ``edit`` to a passing output set, check it, then restore it."""
    saved = {name: (inv.out / name).read_bytes() for name in inv.outputs}
    try:
        edit()
        return workloads.check(inv, 0, "", bench.refs[inv.label], "tiny")
    finally:
        for name, data in saved.items():
            (inv.out / name).write_bytes(data)


def edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def edit_lines(path: Path, change) -> None:
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")


def tsarf_entry(report: dict) -> dict:
    return next(m for m in report["models"] if m["model"] == "tsarf")


def check_rejects_broken_outputs() -> None:
    bench = run.Bench("compare-small", 5, "tiny")
    bench.setup(bench.program)
    require(bench.failed == 0, bench.failures)
    inv = bench.invs[1]  # changepoint: every model fits
    report = inv.out / "report.json"
    curves = inv.out / "curves.csv"

    def bump_sse(payload):
        go = next(m for m in payload["models"] if m["model"] == "go")
        go["srgm"]["sse"] *= 1 + 1e-6

    def drop_weibull(payload):
        payload["models"] = [m for m in payload["models"] if m["model"] != "weibull"]

    mutations = {
        "exit code": lambda: None,
        "d changed": lambda: edit_json(report, lambda p: tsarf_entry(p)["tsarf"].update(d=tsarf_entry(p)["tsarf"]["d"] + 1)),
        "pmse changed": lambda: edit_json(report, lambda p: tsarf_entry(p)["metrics"].update(pmse=tsarf_entry(p)["metrics"]["pmse"] * 1.01)),
        "sse worse": lambda: edit_json(report, bump_sse),
        "model missing": lambda: edit_json(report, drop_weibull),
        "curves row dropped": lambda: edit_lines(curves, lambda lines: lines[:-1]),
    }
    for name, edit in mutations.items():
        if name == "exit code":
            found = workloads.check(inv, 1, "", bench.refs[inv.label], "tiny")
        else:
            found = problems_after(bench, inv, edit)
        require(found, f"check missed: {name}")

    bench = run.Bench("io-large", 5, "tiny")
    bench.setup(bench.program)
    sim = bench.invs[0]
    stdout = bench.program.inproc(sim)[2]
    require(not workloads.check(sim, 0, stdout, None, "tiny"), "simulation output rejected")
    edit_lines(sim.out / "sim.txt", lambda lines: [lines[0], *reversed(lines[1:])])
    require(workloads.check(sim, 0, stdout, None, "tiny"), "check missed: unsorted simulation")

    bench = run.Bench("sweep-windows", 5, "tiny")
    bench.setup(bench.program)
    sweep = bench.invs[0]
    found = problems_after(bench, sweep, lambda: edit_lines(
        sweep.out / "sweep.csv", lambda lines: [*lines[:-1], lines[-1].split(",")[0] + ",error"]))
    require(found, "check missed: failed sweep cell")
    print("ok: checks reject broken outputs")


def check_absent_names() -> None:
    import tsarf.srgm

    io = run.Bench("io-large", 6, "tiny")
    io.setup(io.program)
    minimize = tsarf.srgm.minimize
    del tsarf.srgm.minimize  # io-large fits no SRGM, so the program still runs
    try:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for inv in io.invs:
                io.verify(io.program, inv, *io.program.inproc(inv, tracer)[1:])
        finally:
            tracer.uninstall()
        tracer.end_round()
    finally:
        tsarf.srgm.minimize = minimize
    require(io.failed == 0, io.failures)
    require(tracer.absent == ["tsarf.srgm.minimize"], tracer.absent)
    metrics = tracer.layer_metrics()
    require(metrics["srgm.nfev.go"] == 0 and metrics["srgm.events_simulated"] > 0, metrics)
    print("ok: absent names are reported, not fatal")


def check_fails_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_command("--workload", "io-large", "--seed", "0", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    require(proc.returncode != 0 and "{" not in proc.stdout, proc.stdout)
    print("ok: fails without the program")


def main() -> None:
    sys.path[:0] = [str(run.SRC), str(run.CONTROL)]
    run.WORK.mkdir(exist_ok=True)
    check_spec()
    check_fails_without_program()
    check_rejects_broken_outputs()
    check_absent_names()
    for workload in workloads.WORKLOADS:
        check_command(workload, 0)
    check_command("io-large", 1)
    print("selftest passed")


if __name__ == "__main__":
    main()
