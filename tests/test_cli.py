import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tsarf
from tsarf import ConvergenceError
from tsarf.cli import main
from tsarf.report import (
    _g10_tables,
    _TextBlock,
    order_models,
    render_metrics_table,
    render_sweep_table,
    run_report,
    write_curves_csv,
    write_failure_times,
)


@pytest.fixture
def line_file(tmp_path):
    """Format-A file whose growth curve lies exactly on y = 1 + 2t."""
    times = (np.arange(1, 41) - 1) / 2.0
    path = tmp_path / "line.txt"
    path.write_text("# exact line\n" + "\n".join(repr(float(t)) for t in times) + "\n")
    return path


@pytest.fixture
def go_file(tmp_path):
    """Simulated exponential-ish dataset every baseline can fit."""
    rc = main(
        [
            "simulate",
            "--kind", "go",
            "--a", "80",
            "--b", "0.05",
            "--horizon", "60",
            "--seed", "1",
            "--output", str(tmp_path / "go_sim.txt"),
        ]
    )
    assert rc == 0
    return tmp_path / "go_sim.txt"


def test_compare_exact_line(tmp_path, line_file, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "compare", str(line_file),
            "--models", "tsarf",
            "--output", str(report_path),
            "--curves", str(tmp_path / "curves.csv"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TSARF" in out
    payload = json.loads(report_path.read_text())
    entry = payload["models"][0]
    assert entry["status"] == "ok"
    assert entry["metrics"]["pmse"] < 1e-9
    assert entry["tsarf"]["coefficients"] == pytest.approx([1.0, 2.0], abs=1e-9)


def test_compare_table_row_order(tmp_path, go_file, capsys):
    rc = main(
        [
            "compare", str(go_file),
            "--output", str(tmp_path / "r.json"),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 0
    lines = [l.split()[0] for l in capsys.readouterr().out.strip().splitlines()]
    assert lines == ["Model", "TSARF", "DSS", "GO", "Weibull"]


def test_compare_missing_input_exits_2(tmp_path, capsys):
    rc = main(["compare", str(tmp_path / "missing.txt")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def run_fresh(*args, cwd, env=None, text=True, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports tsarf from this checkout, with
    ``env`` added to the environment."""
    src = str(Path(tsarf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=text)


def test_compare_overflowing_times_is_one_line_data_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("\n".join(repr(1e200 * i) for i in range(1, 41)) + "\n")
    result = run_fresh("-m", "tsarf", "compare", str(path), cwd=tmp_path)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:"), result.stderr


# Runs one command through tsarf.cli.main after importing it, then prints the
# exit code, every loaded scipy module, and the numpy.ma modules the command
# added: a numpy that imports numpy.ma eagerly loads it at import time.
_MODULE_SET_SCRIPT = """
import json, sys
import tsarf.cli
imported = set(sys.modules)
argv = json.loads(sys.argv[1])
rc = tsarf.cli.main(argv)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
ma = sorted(m for m in set(sys.modules) - imported if m.split(".")[:2] == ["numpy", "ma"])
print(json.dumps([rc, scipy, ma]))
"""


@pytest.mark.parametrize("argv", [
    ["compare", "{go}"],
    ["compare", "{go}", "--models", "tsarf"],
    ["fit", "{go}", "--model", "go"],
    ["sweep", "{go}", "--param", "window", "--values", "3,4"],
    ["simulate", "--kind", "go", "--a", "50", "--b", "0.1", "--horizon", "30", "--output", "sim.txt"],
], ids=["compare", "compare-tsarf", "fit", "sweep", "simulate"])
def test_cli_loads_no_scipy_or_numpy_ma_module(tmp_path, go_file, argv):
    argv = [arg.format(go=go_file) for arg in argv]
    result = run_fresh("-c", _MODULE_SET_SCRIPT, json.dumps(argv), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, [], []]


@pytest.mark.parametrize("unbuffered, argv", [
    ("1", ["compare", "{go}"]),
    ("1", ["sweep", "{go}", "--param", "window", "--values", "3,4"]),
    ("1", ["simulate", "--kind", "go", "--a", "50", "--b", "0.1", "--horizon", "30", "--output", "sim.txt"]),
    ("1", ["fit", "{go}", "--model", "go"]),
    ("", ["compare", "{go}"]),  # buffered: the first write to fail is the flush
], ids=["compare", "sweep", "simulate", "fit", "compare-buffered"])
def test_closed_stdout_is_one_line_usage_error(tmp_path, go_file, unbuffered, argv):
    """A reader that exits before the command prints costs one stderr line, not a traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_fresh("-m", "tsarf", *(arg.format(go=go_file) for arg in argv), cwd=tmp_path,
                           env={"PYTHONUNBUFFERED": unbuffered}, stdout=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "usage error: standard output was closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["compare", "{go}"],
    ["sweep", "{go}", "--param", "window", "--values", "3,4"],
    ["simulate", "--kind", "go", "--a", "50", "--b", "0.1", "--horizon", "30", "--output", "sim.txt"],
    ["fit", "{go}", "--model", "go"],
    ["--help"],
    ["--version"],
], ids=["compare", "sweep", "simulate", "fit", "help", "version"])
def test_full_stdout_is_one_line_usage_error(tmp_path, go_file, unbuffered, argv):
    """A standard output that cannot take the printout costs one stderr line,
    not a traceback; argparse prints --help and --version itself."""
    with open("/dev/full", "wb") as full:
        result = run_fresh("-m", "tsarf", *(arg.format(go=go_file) for arg in argv), cwd=tmp_path,
                           env={"PYTHONUNBUFFERED": unbuffered}, stdout=full)
    expected = f"usage error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (1, expected)


def test_outputs_do_not_depend_on_the_locale(tmp_path, go_file):
    # under the C locale argv's non-ASCII bytes arrive as surrogate escapes
    data = tmp_path / "cafè.txt"
    data.write_bytes(go_file.read_bytes())
    outputs = {}
    for name, env in [("c", {"LC_ALL": "C", "PYTHONUTF8": "0"}), ("utf8", {"PYTHONUTF8": "1"})]:
        out = tmp_path / name
        out.mkdir()
        for args in (["sweep", data.name, "--param", "window", "--values", "3,4", "--output", f"{name}/sweep.csv"],
                     ["compare", data.name, "--output", f"{name}/report.json", "--curves", f"{name}/curves.csv"]):
            result = run_fresh("-m", "tsarf", *args, cwd=tmp_path, env=env)
            assert result.returncode == 0, result.stderr
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert list(outputs["c"]) == ["curves.csv", "report.json", "sweep.csv"]
    assert outputs["c"] == outputs["utf8"]
    assert json.loads(outputs["c"]["report.json"])["dataset"]["path"] == "cafè.txt"
    assert outputs["c"]["sweep.csv"].startswith("size,cafè\r\n".encode())


@pytest.mark.parametrize("argv, message", [
    (["compare", "missing_é.txt"], "data error: cannot read missing_é.txt: No such file or directory"),
    (["simulate", "--kind", "go", "--a", "5", "--b", "1", "--horizon", "3", "--output", "file_é/sim.txt"],
     "usage error: cannot write file_é/sim.txt: File exists"),
], ids=["cannot-read", "cannot-write"])
def test_error_messages_keep_path_bytes_under_every_locale(tmp_path, argv, message):
    # under the C locale argv's non-ASCII bytes arrive as surrogate escapes
    (tmp_path / "file_é").write_text("")
    for env in ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONUTF8": "1"}):
        result = run_fresh("-m", "tsarf", *argv, cwd=tmp_path, env=env, text=False)
        assert result.returncode in (1, 2)
        assert result.stderr == f"{message}\n".encode()


def test_compare_exact_line_at_tiny_time_scale(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(repr(i * 1e-8) for i in range(1, 61)) + "\n")
    report_path = tmp_path / "report.json"
    rc = main(["compare", str(path), "--models", "tsarf",
               "--output", str(report_path), "--curves", str(tmp_path / "curves.csv")])
    assert rc == 0, capsys.readouterr().err
    entry = json.loads(report_path.read_text())["models"][0]
    assert entry["status"] == "ok"
    assert entry["metrics"]["pmse"] < 1e-20


@pytest.mark.parametrize("a", ["1e300", "1e19"])
def test_simulate_huge_mean_is_one_line_usage_error(tmp_path, capsys, a):
    rc = main(["simulate", "--kind", "go", "--a", a, "--b", "1", "--horizon", "1",
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
    assert not (tmp_path / "sim.txt").exists()


class _NoMemoryGenerator:
    """numpy's generator, except that drawing the event times cannot allocate."""

    def __init__(self, seed, default_rng=np.random.default_rng):
        self._rng = default_rng(seed)

    def poisson(self, lam):
        return self._rng.poisson(lam)

    def uniform(self, size):
        raise MemoryError


def test_simulate_unallocatable_count_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError rather than ValueError for counts of about
    # 1e10 to 1e18; the stub stands in so that nothing that large is allocated
    monkeypatch.setattr("tsarf.srgm.np.random.default_rng", _NoMemoryGenerator)
    rc = main(["simulate", "--kind", "go", "--a", "1e12", "--b", "1", "--horizon", "100",
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: expected failure count 1e+12 is too large to simulate"
    ]
    assert not (tmp_path / "sim.txt").exists()


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_non_finite_horizon_is_one_line_usage_error(tmp_path, capsys, horizon):
    rc = main(["simulate", "--kind", "go", "--a", "5", "--b", "1", "--horizon", horizon,
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"usage error: horizon must be positive and finite, got {horizon}"]
    assert not (tmp_path / "sim.txt").exists()


def test_simulate_negative_seed_is_one_line_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--kind", "go", "--a", "5", "--b", "1", "--horizon", "3", "--seed", "-1",
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["usage error: seed must be a non-negative integer, got -1"]
    assert not (tmp_path / "sim.txt").exists()


@pytest.mark.parametrize("params", [
    ["--kind", "weibull", "--a", "10", "--b", "1", "--c", "1e308", "--horizon", "2"],
    ["--kind", "go", "--a", "10", "--b", "1e300", "--horizon", "1e10"],
])
def test_simulate_overflowing_mean_value_prints_no_warning(tmp_path, capsys, params):
    assert main(["simulate", *params, "--output", str(tmp_path / "sim.txt")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("wrote ")


def test_simulate_nan_mean_value_is_one_line_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--kind", "dss", "--a", "10", "--b", "1e300", "--horizon", "1e10",
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: mean value at the horizon is nan; the parameters are too extreme to simulate"
    ]
    assert not (tmp_path / "sim.txt").exists()


def test_simulate_and_compare_golden_bytes(tmp_path, capsys):
    sim, curves = tmp_path / "sim.txt", tmp_path / "curves.csv"
    assert main(["simulate", "--kind", "go", "--a", "3000", "--b", "0.004", "--horizon", "600",
                 "--seed", "11", "--output", str(sim)]) == 0
    assert main(["compare", str(sim), "--models", "tsarf", "--output", str(tmp_path / "report.json"),
                 "--curves", str(curves)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (sim, curves)}
    # each of the 2 660 times in sim.txt is the .10g of the 50-digit inverse of its target
    assert digests == {
        "sim.txt": "8e3d8df1dcb2aa0080cab77f04ca46648bc3ac2ead9210ea434c8bab94df1291",
        "curves.csv": "8fe4bf65523cc954b32b14722f10f2667e5969617a635d132e2d86acf753e0e9",
    }


def test_multi_block_golden_bytes(tmp_path, capsys):
    """Four 8 192-row blocks, with blank TSARF cells in the first."""
    sim, curves = tmp_path / "sim.txt", tmp_path / "curves.csv"
    assert main(["simulate", "--kind", "go", "--a", "30000", "--b", "0.004", "--horizon", "600",
                 "--seed", "11", "--output", str(sim)]) == 0
    assert main(["compare", str(sim), "--models", "tsarf,go", "--output", str(tmp_path / "report.json"),
                 "--curves", str(curves)]) == 0
    rows = curves.read_text().splitlines()[1:]
    assert len(rows) == 27_063 > 3 * 8192
    assert rows[0].split(",")[2] == "" and rows[-1].split(",")[2] != ""
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (sim, curves)}
    assert digests == {
        "sim.txt": "01fa469a01bade567a2f130dfcf42c0a3e095019a9831bba81a04bbe8db2c004",
        "curves.csv": "38569afc00ce88e73e1398d0c087120dc0ba849f8f73c888ebe5b555c67922cb",
    }


def test_compare_undecodable_file_is_one_line_data_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"1.0\n2.0\n\xff\xfe\x00\n")
    rc = main(["compare", str(path), "--models", "tsarf",
               "--output", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines


def test_compare_single_point_is_one_line_data_error(tmp_path, capsys):
    # GrowthCurve rejects an empty curve, so one point is the only unsplittable count
    path = tmp_path / "one.txt"
    path.write_text("# one failure\n5.0\n")
    report, curves = tmp_path / "report.json", tmp_path / "curves.csv"
    rc = main(["compare", str(path), "--output", str(report), "--curves", str(curves)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["data error: curve with 1 point cannot be split"]
    assert not report.exists() and not curves.exists()


def test_simulate_warns_when_count_leaves_poisson_band(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("tsarf.cli.simulate_nhpp", lambda *args: np.arange(1.0, 4.0))
    rc = main(
        ["simulate", "--kind", "go", "--a", "100", "--b", "0.1", "--horizon", "50",
         "--output", str(tmp_path / "sim.txt")]
    )
    assert rc == 0
    lo, hi = tsarf.srgm.poisson_band(tsarf.mvf(tsarf.SrgmKind.GO, tsarf.SrgmParams(100, 0.1), 50.0))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: realized count 3 falls outside")
    assert f"Poisson band [{lo}, {hi}]" in err[0]


@pytest.mark.parametrize("times", [[], [0.125, 1 / 3, 2.0, 1e-320, 123456789.0123]])
def test_simulate_file_bytes(tmp_path, monkeypatch, times):
    monkeypatch.setattr("tsarf.cli.simulate_nhpp", lambda *args: np.array(times, dtype=float))
    path = tmp_path / "sim.txt"
    args = ["--a", "5", "--b", "0.1", "--horizon", "50", "--seed", "4"]
    assert main(["simulate", "--kind", "dss", *args, "--output", str(path)]) == 0
    header = "# simulated dss failure times\n# a=5.0 b=0.1 c=1.0 horizon=50.0 seed=4\n"
    assert path.read_text() == header + "".join(f"{float(t):.10g}\n" for t in times)


def test_library_warnings_carry_cli_prefix(tmp_path):
    path = tmp_path / "unsorted.txt"
    path.write_text("\n".join(map(str, [3, 1, 2, 5, 4, 6, 8, 7, 9, 11, 10, 12])) + "\n")
    result = run_fresh(
        "-m", "tsarf", "compare", str(path), "--models", "tsarf", "--window-size", "4", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "warning: failure times were not sorted; sorting 12 entries",
        "warning: only 2 windows: falling back to moving-average length 1",
    ]


def test_warnings_print_once_under_a_configured_root_logger(tmp_path):
    # an embedding program's logging.basicConfig() attaches a stderr handler to
    # the root logger, which must not print the CLI's warnings a second time
    path = tmp_path / "unsorted.txt"
    path.write_text("\n".join(map(str, [3, 1, 2, 5, 4, 6, 8, 7, 9, 11, 10, 12])) + "\n")
    argv = ["compare", str(path), "--models", "tsarf", "--window-size", "4"]
    code = f"import logging, sys\nfrom tsarf.cli import main\nlogging.basicConfig()\nsys.exit(main({argv!r}))"
    result = run_fresh("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "warning: failure times were not sorted; sorting 12 entries",
        "warning: only 2 windows: falling back to moving-average length 1",
    ]


def test_compare_bad_test_len_exits_1(line_file, capsys):
    rc = main(["compare", str(line_file), "--test-len", "0"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compare"], ["fit", "--model", "tsarf"], ["sweep", "--param", "window", "--values", "3,4"],
])
def test_test_len_with_test_fraction_exits_1(tmp_path, line_file, capsys, command):
    rc = main([*command, str(line_file), "--test-len", "5", "--test-fraction", "0.2",
               "--output", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("param", "values", "message"), [
    ("window", "0,1,2,3", "window size must be >= 3, got 0"),
    ("window", "10,4,2", "window size must be >= 3, got 2"),
    ("ma", "0..3", "moving-average length must be >= 1, got 0"),
    ("window", "3..x", "cannot parse value range '3..x'; use 'a..b' or 'a,b,c'"),
    ("ma", "5..4", "value range is empty"),
    ("window", ",", "value range is empty"),
])
def test_sweep_value_below_minimum_exits_1(tmp_path, line_file, capsys, param, values, message):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(line_file), "--param", param, "--values", values, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


def test_sweep_range_beyond_every_input_exits_1(tmp_path, line_file, capsys):
    # 3..10**12 must be rejected without expanding it; line_file holds 40 points
    out = tmp_path / "sweep.csv"
    with mock.patch("tsarf.cli.tsarf_forecast") as forecast:
        rc = main(["sweep", str(line_file), "--param", "window", "--values", f"3..{10**12}", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: value range 3..{10**12} ends above 40, the most points in any input"
    ]
    assert not forecast.called and not out.exists()


@pytest.mark.parametrize(("option", "message"), [
    (["--test-fraction", "1.5"], "test fraction must lie in (0, 1), got 1.5"),
    (["--test-fraction", "0"], "test fraction must lie in (0, 1), got 0.0"),
    (["--test-fraction", "nan"], "test fraction must lie in (0, 1), got nan"),
    (["--test-len", "0"], "test length must be >= 1, got 0"),
    (["--test-len", "-3"], "test length must be >= 1, got -3"),
])
def test_sweep_impossible_split_option_exits_1(tmp_path, line_file, capsys, option, message):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(line_file), "--param", "window", "--values", "3,10", *option, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


def test_compare_unknown_model_exits_1(line_file, capsys):
    # the stage-3 blend is fixed at 50/50, so no option sets its weight
    for extra in (["--models", "tsarf,arima"], ["--blend-weight", "0.5"]):
        assert main(["compare", str(line_file), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize(("option", "message"), [
    (["--window-size", "x"], "window size must be an integer or 'auto', got 'x'"),
    (["--ma", "1.5"], "moving-average length must be an integer or 'auto', got '1.5'"),
    (["--models", ","], "at least one model must be requested"),
])
def test_compare_unparsable_option_exits_1(tmp_path, line_file, capsys, option, message):
    report, curves = tmp_path / "report.json", tmp_path / "curves.csv"
    rc = main(["compare", str(line_file), *option, "--output", str(report), "--curves", str(curves)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not report.exists() and not curves.exists()


@pytest.mark.parametrize(("argv", "target"), [
    (["compare", "{go}", "--output", "{dir}"], "{dir}"),
    (["compare", "{go}", "--curves", "{dir}"], "{dir}"),
    (["compare", "{go}", "--output", "{file}/r.json"], "{file}/r.json"),
    (["fit", "{go}", "--model", "go", "--output", "{dir}"], "{dir}"),
    (["sweep", "{go}", "--param", "window", "--values", "3", "--output", "{dir}"], "{dir}"),
    (["simulate", "--kind", "go", "--a", "5", "--b", "1", "--horizon", "3", "--output", "{dir}"], "{dir}"),
], ids=["compare-output-dir", "compare-curves-dir", "compare-output-under-file", "fit", "sweep", "simulate"])
def test_unwritable_output_is_one_line_usage_error(tmp_path, go_file, capsys, monkeypatch, argv, target):
    """A command that cannot write one output writes none: compare's default
    report.json and curves.csv would land in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    paths = {"go": go_file, "dir": tmp_path, "file": tmp_path / "file"}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"usage error: cannot write {target.format(**paths)}: "), lines
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file", go_file.name]


def test_output_through_a_symbolic_link_is_written_in_place(tmp_path, go_file):
    """An output is replaced whole through a temporary, except a link, which keeps its target."""
    (tmp_path / "link.json").symlink_to("target.json")
    rc = main(["compare", str(go_file), "--models", "tsarf",
               "--output", str(tmp_path / "link.json"), "--curves", str(tmp_path / "curves.csv")])
    assert rc == 0
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "target.json").read_text())["models"][0]["status"] == "ok"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["curves.csv", go_file.name, "link.json", "target.json"]


@pytest.mark.parametrize("curves", ["same/x", "./same/x", "same/link"], ids=["literal", "dot", "symlink"])
def test_outputs_naming_one_file_are_a_usage_error(tmp_path, line_file, curves):
    """Two outputs that resolve to one file would leave only the last one
    written, so the command writes neither."""
    (tmp_path / "same").mkdir()
    (tmp_path / "same" / "link").symlink_to("x")
    result = run_fresh("-m", "tsarf", "compare", line_file.name, "--models", "tsarf",
                       "--output", "same/x", "--curves", curves, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr == f"usage error: two outputs name one file: {Path(curves)}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [line_file.name, "same"]
    assert sorted(path.name for path in (tmp_path / "same").iterdir()) == ["link"]


def test_compare_reads_csv_curves(tmp_path, capsys):
    t = np.arange(1.0, 41.0)
    counts = 2.0 + 3.0 * t
    csv_in = tmp_path / "curve.csv"
    csv_in.write_text("time,count\n" + "\n".join(f"{a},{b}" for a, b in zip(t, counts)))
    rc = main(
        [
            "compare", str(csv_in),
            "--models", "tsarf",
            "--output", str(tmp_path / "r.json"),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["dataset"]["format"] == "curve"
    assert payload["models"][0]["metrics"]["pmse"] < 1e-9


def test_compare_marks_convergence_failures(tmp_path, go_file, capsys, monkeypatch):
    def explode(train, kind):
        raise ConvergenceError(f"{kind.value}: forced failure")

    monkeypatch.setattr("tsarf.cli.fit_srgm", explode)
    report_path = tmp_path / "r.json"
    rc = main(
        [
            "compare", str(go_file),
            "--models", "tsarf,go",
            "--output", str(report_path),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 3
    out = capsys.readouterr()
    assert "error" in out.out  # failed row still rendered
    payload = json.loads(report_path.read_text())
    by_model = {e["model"]: e for e in payload["models"]}
    assert by_model["go"]["status"] == "convergence_error"
    assert by_model["tsarf"]["status"] == "ok"


def test_compare_reports_capped_srgm_restarts(tmp_path, go_file, monkeypatch):
    monkeypatch.setattr("tsarf.srgm.MAX_ITER", 2)
    report_path = tmp_path / "r.json"
    rc = main(
        [
            "compare", str(go_file),
            "--models", "tsarf,go",
            "--output", str(report_path),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 3
    by_model = {e["model"]: e for e in json.loads(report_path.read_text())["models"]}
    assert by_model["go"]["status"] == "convergence_error"
    assert "none of the 9 restarts converged" in by_model["go"]["error"]
    assert by_model["tsarf"]["status"] == "ok"


def test_report_roundtrip(tmp_path, line_file):
    report_path = tmp_path / "r.json"
    main(
        [
            "compare", str(line_file),
            "--models", "tsarf",
            "--output", str(report_path),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    report = json.loads(report_path.read_text())
    assert report["split"]["train_n"] + report["split"]["test_n"] == 40
    assert report["models"][0]["model"] == "tsarf"


def test_table_layouts():
    entries = [
        {"model": "tsarf", "status": "ok", "metrics": {"pmse": 0.5, "prr": 0.0123456789, "pp": 2.0}},
        {"model": "go", "status": "ok", "metrics": {"pmse": 12.25, "prr": None, "pp": 0.1}},
        {"model": "weibull", "status": "convergence_error", "error": "weibull: no fit"},
    ]
    assert render_metrics_table(entries) == (
        "Model    PMSE   PRR        PP\n"
        "TSARF    0.5    0.0123457  2\n"
        "GO       12.25  n/a        0.1\n"
        "Weibull  error  error      error"
    )
    rows = [["3", "0.211225", "error"], ["100", "error", "1.50161"]]
    assert render_sweep_table("size", ["a", "long_name"], rows) == (
        "Size  a         long_name\n"
        "3     0.211225  error\n"
        "100   error     1.50161"
    )


def test_compare_report_keys_match_readme_schema(tmp_path, go_file):
    """The keys listed under "Run report schema" in the README."""
    report_path = tmp_path / "r.json"
    argv = ["compare", str(go_file), "--output", str(report_path), "--curves", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"dataset", "split", "models", "version"}
    assert set(payload["dataset"]) == {"path", "format", "n", "required_sorting"}
    assert set(payload["split"]) == {"train_n", "test_n", "policy"}
    assert [entry["model"] for entry in payload["models"]] == ["tsarf", "dss", "go", "weibull"]
    srgm_keys = {"a", "b", "sse", "iterations", "restarts"}
    for entry in payload["models"]:
        detail = "tsarf" if entry["model"] == "tsarf" else "srgm"
        assert set(entry) == {"model", "status", "metrics", detail}
        assert entry["status"] == "ok"
        assert set(entry["metrics"]) == {"pmse", "prr", "pp", "n_test", "notes"}
        if entry["model"] == "tsarf":
            assert set(entry["tsarf"]) == {
                "k", "d", "d_auto", "d_fallback", "windows", "points_dropped",
                "coefficients", "raw_forecast", "corrected_forecast", "epsilon",
                "coefficient_history", "stage2_trend", "ma_candidates",
            }
        else:
            weibull = {"c"} if entry["model"] == "weibull" else set()
            assert set(entry["srgm"]) == srgm_keys | weibull


def test_run_report_has_readme_top_level_keys(line_curve):
    parts = tsarf.split(line_curve(20), 4)
    meta = {"path": "x.txt", "format": "times", "n": 20, "required_sorting": False}
    report = run_report(meta, parts, [])
    assert set(report) == {"dataset", "split", "models", "version"}
    assert report["split"] == {"train_n": 16, "test_n": 4, "policy": "test_len=4"}
    assert (report["dataset"], report["models"], report["version"]) == (meta, [], tsarf.__version__)


def test_reports_deterministic(tmp_path, go_file):
    for name in ("r1.json", "r2.json"):
        main(
            [
                "compare", str(go_file),
                "--output", str(tmp_path / name),
                "--curves", str(tmp_path / "c.csv"),
            ]
        )
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_curves_csv_shape(tmp_path, line_file):
    curves_path = tmp_path / "curves.csv"
    main(
        [
            "compare", str(line_file),
            "--models", "tsarf",
            "--output", str(tmp_path / "r.json"),
            "--curves", str(curves_path),
        ]
    )
    lines = curves_path.read_text().strip().splitlines()
    assert lines[0] == "t,actual,tsarf,partition"
    assert len(lines) == 41
    partitions = [l.rsplit(",", 1)[1] for l in lines[1:]]
    assert partitions.count("test") > 0
    assert partitions == sorted(partitions, key=lambda p: p == "test")


def per_row_curves_csv(path, times, actual, predictions, train_n):
    """The row-by-row ``csv.writer`` loop the column-wise writer replaced."""
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


cell_values = st.floats(allow_nan=True, allow_infinity=True, width=64)
#: Integral cells, with the edges of the ``str(int)`` shortcut: -0.0 prints as
#: ``-0`` and 1e10 switches ``.10g`` to an exponent.
integral_values = st.one_of(
    st.sampled_from([0.0, -0.0, -7.0, 9_999_999_999.0, -9_999_999_999.0, 1e10, 2.0**53, 1e300]),
    st.integers(-(10**11), 10**11).map(float),
)


@settings(max_examples=80)
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.tuples(
            st.lists(cell_values, min_size=n, max_size=n),
            st.sampled_from([integral_values, st.one_of(integral_values, cell_values)]).flatmap(
                lambda values: st.lists(values, min_size=n, max_size=n)
            ),
            st.lists(st.tuples(cell_values, cell_values, cell_values), min_size=n, max_size=n),
            st.integers(0, n),
            st.sets(st.sampled_from(["go", "weibull", "tsarf", "dss"]), min_size=1),
        )
    ),
    st.sampled_from([4, 8192]),
)
def test_curves_csv_matches_csv_writer_bytes(case, block_rows):
    times, actual, preds, train_n, models = case
    times = np.asarray(times, dtype=float)
    actual = np.asarray(actual, dtype=float)
    columns = np.asarray(preds, dtype=float).reshape(-1, 3)
    predictions = {m: columns[:, i % 3] for i, m in enumerate(sorted(models))}
    with tempfile.TemporaryDirectory() as tmp, mock.patch("tsarf.report._CSV_BLOCK_ROWS", block_rows):
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_curves_csv(got, times, actual, predictions, train_n)
        per_row_curves_csv(want, times, actual, predictions, train_n)
        assert got.read_bytes() == want.read_bytes()


def test_curves_csv_bytes_with_dropped_training_points(tmp_path, monkeypatch):
    monkeypatch.setattr("tsarf.report._CSV_BLOCK_ROWS", 4)
    times = np.array([0.5, 1.0, 2.25, 3.0, 1.7e9, 1e-320])
    predictions = {
        "weibull": np.array([1.0, 2.0, np.inf, 4.0, 5.5, 6.0]),
        "tsarf": np.array([np.nan, np.nan, 3.0000000001, 4.0, 5.0, -1e200]),
        "go": np.array([0.9, 2.1, 3.2, 3.9, np.nan, 6.1]),
    }
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curves_csv(got, times, np.arange(1.0, 7.0), predictions, 4)
    per_row_curves_csv(want, times, np.arange(1.0, 7.0), predictions, 4)
    data = got.read_bytes()
    assert data == want.read_bytes()
    assert data.startswith(b"t,actual,tsarf,go,weibull,partition\r\n0.5,1,,0.9,1,train\r\n")
    assert data.endswith(b"9.999888672e-321,6,-1e+200,6.1,6,test\r\n")


def test_curves_csv_dropped_run_across_block_and_cut(tmp_path, monkeypatch):
    """Blank cells from row 2 to 6 span the block edge at 4 and the cut at 6; every other cell is integral."""
    monkeypatch.setattr("tsarf.report._CSV_BLOCK_ROWS", 4)
    times = np.arange(1.0, 11.0)
    actual = 2.0 * times
    predictions = {
        "go": np.array([5.0, -3.0, 9_999_999_999.0, 0.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0]),
        "tsarf": np.array([1.0, 2.0, *[np.nan] * 5, 8.0, 9.0, 10.0]),
    }
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curves_csv(got, times, actual, predictions, 6)
    per_row_curves_csv(want, times, actual, predictions, 6)
    assert got.read_bytes() == want.read_bytes() == (
        b"t,actual,tsarf,go,partition\r\n"
        b"1,2,1,5,train\r\n2,4,2,-3,train\r\n3,6,,9999999999,train\r\n4,8,,0,train\r\n"
        b"5,10,,7,train\r\n6,12,,7,train\r\n7,14,,7,test\r\n8,16,8,7,test\r\n"
        b"9,18,9,7,test\r\n10,20,10,7,test\r\n"
    )


subnormal_values = st.sampled_from([5e-324, -5e-324, 1e-320, 2.2250738585072009e-308])


@settings(max_examples=80)
@given(
    st.sampled_from([integral_values, st.one_of(integral_values, subnormal_values, cell_values)]).flatmap(
        lambda values: st.lists(values, max_size=30)
    ),
    st.sampled_from([4, 8192]),
)
def test_failure_times_match_per_line_bytes(times, block_rows):
    header = ["simulated go failure times", "a=1 b=2"]
    with tempfile.TemporaryDirectory() as tmp, mock.patch("tsarf.report._CSV_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "sim.txt"
        write_failure_times(path, header, np.asarray(times, dtype=float))
        want = "".join(f"# {line}\n" for line in header) + "".join(f"{t:.10g}\n" for t in times)
        assert path.read_bytes() == want.encode()


def kernel_texts(values):
    """The ``.10g`` kernel's text of each value, one block row per value."""
    values = np.asarray(values, dtype=float)
    block = _TextBlock(len(values), 1)
    block.values[:, 0] = values
    block.render(len(values))
    return [row.tobytes().translate(None, b"\0").decode() for row in block.words]


#: Every float64, from its raw bits: NaN payloads, subnormals and both zeros included.
float_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(max_examples=300)
@given(st.lists(st.one_of(float_bits, st.floats(width=64)), max_size=40))
def test_kernel_matches_format(values):
    assert kernel_texts(values) == [format(v, ".10g") for v in values]


#: Values at each edge of the kernel, with their text: ties, carries, a
#: guess at a power of ten, the notation switches that end the kernel's
#: exponent range, and what only ``%`` prints.
KERNEL_EDGES = [
    (1234567890.5, "1234567890"),  # exact tie, to even
    (953784502.45, "953784502.5"),  # near tie: the scaled 9537845024.5 would round to even
    (9999999999.5, "1e+10"),  # carry into an eleventh digit
    (9999999999.7, "1e+10"),
    (float(np.nextafter(1e8, 0)), "100000000"),  # log10 rounds up to 8
    (1e-5, "1e-05"),
    (0.0001, "0.0001"),
    (0.000123456789012, "0.000123456789"),
    (9999999999.0, "9999999999"),
    (1e10, "1e+10"),
    (1.5e-13, "1.5e-13"),  # exponent forms, which only ``%`` prints
    (1e31, "1e+31"),
    (1e32, "1e+32"),
    (-2.5e100, "-2.5e+100"),
    (1.7976931348623157e308, "1.797693135e+308"),
    (5e-324, "4.940656458e-324"),
    (0.0, "0"),
    (-0.0, "-0"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-12.5, "-12.5"),
    (100.0, "100"),
    (123456.0, "123456"),
]


def test_kernel_edges():
    values, texts = zip(*KERNEL_EDGES)
    assert [format(v, ".10g") for v in values] == list(texts)
    assert kernel_texts(values) == list(texts)


def test_kernel_scales_by_exact_powers_of_ten():
    mul = _g10_tables()[0]
    assert np.isnan(mul[[0, -1]]).all()
    assert mul[1:-1].tolist() == [float(10**j) for j in range(13, -1, -1)]


@pytest.mark.parametrize("error", [-1.0, -1e-6, 1e-6, 1.0])
def test_kernel_is_exact_whatever_log10_returns(monkeypatch, error):
    """A log10 off by ``error`` guesses the wrong exponent near (or at) every power of ten."""
    rng = np.random.default_rng(5)
    powers = 10.0 ** np.arange(-14, 33)
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), powers * (1 - 4e-10), powers * (1 + 4e-10),
        rng.uniform(0.5, 2, 200) * 10.0 ** rng.integers(-15, 33, 200), [v for v, _ in KERNEL_EDGES],
    ])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x, out: np.add(log10(x, out=out), error, out=out))
    assert kernel_texts(values) == [format(v, ".10g") for v in values.tolist()]


def test_kernel_matches_format_in_bulk():
    rng = np.random.default_rng(2024)
    values = np.concatenate([
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
        rng.uniform(0, 600, 20_000),
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-16, 34, 20_000),
        np.arange(-10_000.0, 10_000.0),
        np.round(rng.uniform(-1e6, 1e6, 20_000) * (scale := 10.0 ** rng.integers(0, 10, 20_000))) / scale,
    ])
    assert kernel_texts(values) == [format(v, ".10g") for v in values.tolist()]


def test_sweep_window_rows_and_error_marker(tmp_path, go_file, capsys):
    out_csv = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep", str(go_file),
            "--param", "window",
            "--values", "4..12",
            "--output", str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == f"size,{go_file.stem}"
    assert len(lines) == 10
    # a window too large for the training data yields a marker, not an abort
    rc = main(
        [
            "sweep", str(go_file),
            "--param", "window",
            "--values", "5,40",
            "--output", str(out_csv),
        ]
    )
    assert rc == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[-1].endswith("error")


def test_sweep_overflowing_pmse_reads_na(tmp_path, capsys):
    # the window line y = t predicts 1e200 at the held-out point, whose squared error overflows
    data = tmp_path / "far.txt"
    data.write_text("1\n2\n3\n4\n5\n6\n1e200\n")
    out_csv = tmp_path / "sweep.csv"
    argv = ["sweep", str(data), "--param", "window", "--values", "3", "--test-len", "1", "--output", str(out_csv)]
    assert main(argv) == 0
    assert out_csv.read_bytes() == b"size,far\r\n3,n/a\r\n"
    assert capsys.readouterr().err == "warning: only 2 windows: falling back to moving-average length 1\n"


def test_sweep_ma_rows(tmp_path, go_file):
    out_csv = tmp_path / "sweep_ma.csv"
    rc = main(
        [
            "sweep", str(go_file),
            "--param", "ma",
            "--values", "1..6",
            "--output", str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == f"length,{go_file.stem}"
    assert len(lines) == 7


def test_sweep_multiple_datasets(tmp_path, go_file, line_file):
    out_csv = tmp_path / "s.csv"
    rc = main(
        [
            "sweep", str(go_file), str(line_file),
            "--param", "window",
            "--values", "4,5",
            "--output", str(out_csv),
        ]
    )
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == f"size,{go_file.stem},{line_file.stem}"


def test_sweep_columns_of_inputs_sharing_a_stem(tmp_path, go_file, line_file):
    """Each column holds its own input's PMSE, even when two inputs share a file
    stem; those columns are headed by their paths as given."""
    paths = []
    for name, source in (("a", go_file), ("b", line_file)):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "x.txt")
        paths[-1].write_bytes(source.read_bytes())

    def sweep(*inputs):
        out_csv = tmp_path / "s.csv"
        argv = ["sweep", *map(str, inputs), "--param", "window", "--values", "4,5", "--output", str(out_csv)]
        assert main(argv) == 0
        return [line.split(",")[1:] for line in out_csv.read_text().splitlines()]

    alone = [sweep(path) for path in paths]
    both = sweep(*paths)
    assert alone[0][0] == alone[1][0] == ["x"]
    assert both[0] == [str(path) for path in paths]
    assert both[0][0] != both[0][1]
    assert [row[0] for row in alone[0][1:]] != [row[0] for row in alone[1][1:]]
    assert both[1:] == [a + b for a, b in zip(alone[0][1:], alone[1][1:])]


def test_simulate_deterministic_and_round_trips(tmp_path, capsys):
    args = [
        "simulate",
        "--kind", "go",
        "--a", "100",
        "--b", "0.01",
        "--horizon", "500",
        "--seed", "7",
    ]
    f1, f2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert main([*args, "--output", str(f1)]) == 0
    assert main([*args, "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert "wrote" in capsys.readouterr().out
    rc = main(
        [
            "compare", str(f1),
            "--models", "tsarf,go",
            "--output", str(tmp_path / "r.json"),
            "--curves", str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 0


def test_simulate_rejects_bad_params(capsys):
    rc = main(["simulate", "--kind", "go", "--a", "-5", "--b", "0.1", "--horizon", "10"])
    assert rc == 1


def test_outdir_env_redirects_relative_outputs(tmp_path, line_file, monkeypatch):
    outdir = tmp_path / "runs"
    monkeypatch.setenv("TSARF_OUTDIR", str(outdir))
    rc = main(["compare", str(line_file), "--models", "tsarf"])
    assert rc == 0
    assert (outdir / "report.json").exists()
    assert (outdir / "curves.csv").exists()


def test_fit_single_srgm(tmp_path, go_file, capsys):
    rc = main(
        [
            "fit", str(go_file),
            "--model", "go",
            "--output", str(tmp_path / "fit.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "a=" in out and "b=" in out
    assert "GO" in out


def test_fit_model_name_parses_like_compare_models(tmp_path, go_file, capsys):
    """``fit --model GO`` runs and prints what ``--model go`` prints."""
    capsys.readouterr()
    runs = []
    for name, report in (("go", "lower.json"), ("GO", "upper.json"), (" Go ", "spaced.json")):
        assert main(["fit", str(go_file), "--model", name, "--output", str(tmp_path / report)]) == 0
        runs.append((capsys.readouterr(), (tmp_path / report).read_bytes()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0].out.startswith("go: a=")


def test_fit_convergence_failure_is_one_convergence_error_line(tmp_path, go_file, capsys, monkeypatch):
    monkeypatch.setattr("tsarf.srgm.MAX_ITER", 2)
    assert main(["fit", str(go_file), "--model", "go", "--output", str(tmp_path / "fit.json")]) == 3
    assert capsys.readouterr().err.splitlines() == ["convergence error: go: none of the 9 restarts converged"]


@pytest.mark.parametrize(("model", "message"), [
    ("go,dss", "fit takes one model, got 2"),
    ("arima", "unknown model 'arima'; expected subset of tsarf,dss,go,weibull"),
])
def test_fit_needs_exactly_one_known_model(tmp_path, line_file, capsys, model, message):
    out = tmp_path / "fit.json"
    assert main(["fit", str(line_file), "--model", model, "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


def test_fit_tsarf_prints_line(tmp_path, line_file, capsys):
    rc = main(
        [
            "fit", str(line_file),
            "--model", "tsarf",
            "--window-size", "5",
            "--output", str(tmp_path / "fit.json"),
        ]
    )
    assert rc == 0
    assert "predicted line" in capsys.readouterr().out
    # with no test length given, the test partition is one window
    split = json.loads((tmp_path / "fit.json").read_text())["split"]
    assert (split["test_n"], split["policy"]) == (5, "test_len=k=5")


def test_fit_tsarf_overflowing_holdout_mse_reads_null(tmp_path, capsys):
    # slope 1e150 over the first windows predicts about 1e155 at the held-out
    # window, whose squared error overflows float64
    data = tmp_path / "steep.txt"
    data.write_text("\n".join([f"{i}e-150" for i in range(1, 7)] + [f"{i}e5" for i in range(1, 7)]) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--model", "tsarf", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    entry = strict_json(out.read_text())["models"][0]
    assert entry["tsarf"]["ma_candidates"] == [[1, None]]
    assert (entry["metrics"]["pmse"], entry["metrics"]["pp"]) == (None, None)


def test_compare_overflowing_predicted_line_is_one_line_data_error(tmp_path, capsys):
    # both window lines are finite, but stage 2 extrapolates past float64
    counts = [c + step for c in (-5e307, 2e307) for step in (0.0, 1e300, 2e300)] + [3e307]
    data = tmp_path / "far.csv"
    data.write_text("time,count\n" + "".join(f"{i * 1e-3!r},{c!r}\n" for i, c in enumerate(counts, 1)))
    argv = ["compare", str(data), "--models", "tsarf", "--window-size", "3", "--ma", "1", "--test-len", "1",
            "--output", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: the predicted line [inf, ") and err[0].endswith(
        "] overflows float64"
    )
    assert not (tmp_path / "r.json").exists()


def test_every_public_name_resolves():
    assert [name for name in tsarf.__all__ if not hasattr(tsarf, name)] == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


fuzz_cells = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1.7e9", "1e200", "1e-320", "-1", "0", "x", "", "#", "time,count"]),
    st.floats(min_value=0, max_value=1e3).map(repr),
    st.integers(0, 10_000).map(str),
)
fuzz_increasing = st.tuples(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=8, max_size=50),
    st.sampled_from([1e-3, 1.0, 1e6]),
    st.sampled_from([0.0, 1.7e9, 1e200]),
).map(lambda case: np.cumsum(case[0]) * case[1] + case[2])
fuzz_inputs = st.one_of(
    st.lists(fuzz_cells, max_size=50).map("\n".join),
    st.lists(st.tuples(fuzz_cells, fuzz_cells).map(",".join) | fuzz_cells, max_size=50).map(
        lambda rows: "\n".join(["time,count", *rows])
    ),
    fuzz_increasing.map(lambda t: "\n".join(repr(float(v)) for v in t)),
    fuzz_increasing.map(
        lambda t: "\n".join(["time,count", *(f"{v!r},{i}" for i, v in enumerate(t.tolist(), 1))])
    ),
)


def strict_json(text):
    """Parse RFC 8259 JSON: reject the NaN and Infinity tokens Python writes by default."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_inputs)
# TSARF's PMSE and PP overflow float64 on this curve
@example("1.7e9\n1.7e9\n1.7e9\n1.7e9\n1e200\n1e-320\n1e-320\n1.0\n1.0")
# the holdout squared error overflows float64: the first windows have slope 1e150
@example("\n".join([f"{i}e-150" for i in range(1, 7)] + [f"{i}e5" for i in range(1, 7)]))
# every window's slope, about 1e311, overflows in the line fit
@example("\n".join(["time,count", *(f"{i * 1e-5!r},{i * 1e306!r}" for i in range(1, 13))]))
def test_compare_fuzz_exits_with_a_known_code(text):
    assert_one_line_contract(["compare", "--models", "tsarf,go"], text)


fuzz_commands = st.one_of(
    st.just(["compare", "--models", "tsarf,go,dss,weibull"]),
    st.sampled_from(["tsarf", "go", "dss", "weibull"]).map(lambda model: ["fit", "--model", model]),
    st.sampled_from([("window", "3..6"), ("window", "3,10,100"), ("ma", "1..3"), ("ma", "1,5,40")]).map(
        lambda case: ["sweep", "--param", case[0], "--values", case[1]]
    ),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_commands, fuzz_inputs)
def test_fit_sweep_and_all_models_fuzz_exit_with_a_known_code(command, text):
    assert_one_line_contract(command, text)


def assert_one_line_contract(command, text):
    """The command on a file of the text exits 0-3, every stderr line carries a
    known prefix, and a JSON report it writes is strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "in.txt", Path(tmp) / "r.json"
        data.write_text(text + "\n")
        argv = [command[0], str(data), *command[1:]]
        if command[0] == "sweep":
            argv += ["--output", str(Path(tmp) / "sweep.csv")]
        else:
            argv += ["--output", str(report)]
        if command[0] == "compare":
            argv += ["--curves", str(Path(tmp) / "c.csv")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        assert rc in (0, 1, 2, 3)
        prefixes = ("warning: ", "usage error: ", "data error: ", "convergence error: ")
        assert all(line.startswith(prefixes) for line in stderr.getvalue().splitlines())
        if rc in (0, 3) and command[0] != "sweep":
            assert strict_json(report.read_text())["models"]
