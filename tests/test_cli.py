import contextlib
import csv
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tsarf
from tsarf import ConvergenceError, FailureTimes
from tsarf.cli import _poisson_band, main
from tsarf.report import (
    order_models,
    render_metrics_table,
    render_sweep_table,
    write_curves_csv,
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


def run_fresh(*args, cwd):
    """Run a fresh interpreter that imports tsarf from this checkout."""
    src = str(Path(tsarf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def test_compare_overflowing_times_is_one_line_data_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("\n".join(repr(1e200 * i) for i in range(1, 41)) + "\n")
    result = run_fresh("-m", "tsarf", "compare", str(path), cwd=tmp_path)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:"), result.stderr


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    code = "import sys, tsarf.cli; print('scipy.stats' in sys.modules)"
    result = run_fresh("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    code = "import sys, tsarf.cli; print('scipy.optimize' in sys.modules)"
    result = run_fresh("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_simulate_leaves_scipy_stats_and_optimize_unloaded(tmp_path):
    code = (
        "import sys; from tsarf.cli import main; "
        "rc = main(['simulate', '--kind', 'go', '--a', '50', '--b', '0.1', '--horizon', '30', "
        "'--output', 'sim.txt']); print(rc, 'scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    result = run_fresh("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False False"


def test_compare_tsarf_loads_no_scipy_module(tmp_path, line_file):
    code = (
        "import sys, tsarf.cli; "
        f"rc = tsarf.cli.main(['compare', {str(line_file)!r}, '--models', 'tsarf']); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = run_fresh("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


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


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_non_finite_horizon_is_one_line_usage_error(tmp_path, capsys, horizon):
    rc = main(["simulate", "--kind", "go", "--a", "5", "--b", "1", "--horizon", horizon,
               "--output", str(tmp_path / "sim.txt")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"usage error: horizon must be positive and finite, got {horizon}"]
    assert not (tmp_path / "sim.txt").exists()


def test_simulate_and_compare_golden_bytes(tmp_path, capsys):
    sim, curves = tmp_path / "sim.txt", tmp_path / "curves.csv"
    assert main(["simulate", "--kind", "go", "--a", "3000", "--b", "0.004", "--horizon", "600",
                 "--seed", "11", "--output", str(sim)]) == 0
    assert main(["compare", str(sim), "--models", "tsarf", "--output", str(tmp_path / "report.json"),
                 "--curves", str(curves)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (sim, curves)}
    assert digests == {
        "sim.txt": "18ef6028287952589936b9ed7e12bef0d0601a582fc5ca72ed456bf0194cbae5",
        "curves.csv": "ee3b22e8f4332469903dbbba4f0aee992169132b56f415542e4cad9955b7091a",
    }


def test_compare_undecodable_file_is_one_line_data_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"1.0\n2.0\n\xff\xfe\x00\n")
    rc = main(["compare", str(path), "--models", "tsarf",
               "--output", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines


def test_poisson_band_equals_scipy_interval():
    from scipy.stats import poisson

    # At the last two means, an unnormalised pmf from
    # k log(mean) - mean - lgamma(k + 1) puts an end one count off.
    grid = np.concatenate([
        np.logspace(-3, 8, 500),
        [0.5, 1.0, 7.0, 106_000.0, 1e7, 18_015_200.40802024, 100_000_000.0],
    ])
    for mean in grid.tolist():
        lo, hi = poisson.interval(0.999, mean)
        assert _poisson_band(mean) == (lo, hi), mean


def test_simulate_warns_when_count_leaves_poisson_band(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("tsarf.cli.simulate_nhpp", lambda *args: FailureTimes(np.arange(1.0, 4.0)))
    rc = main(
        ["simulate", "--kind", "go", "--a", "100", "--b", "0.1", "--horizon", "50",
         "--output", str(tmp_path / "sim.txt")]
    )
    assert rc == 0
    lo, hi = _poisson_band(tsarf.mvf(tsarf.SrgmKind.GO, tsarf.SrgmParams(100, 0.1), 50.0))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: realized count 3 falls outside")
    assert f"Poisson band [{lo}, {hi}]" in err[0]


@pytest.mark.parametrize("times", [[], [0.125, 1 / 3, 2.0, 1e-320, 123456789.0123]])
def test_simulate_file_bytes(tmp_path, monkeypatch, times):
    monkeypatch.setattr("tsarf.cli.simulate_nhpp", lambda *args: FailureTimes(np.array(times)))
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


def test_compare_bad_test_len_exits_1(line_file, capsys):
    rc = main(["compare", str(line_file), "--test-len", "0"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_compare_unknown_model_exits_1(line_file, capsys):
    # the stage-3 blend is fixed at 50/50, so no option sets its weight
    for extra in (["--models", "tsarf,arima"], ["--blend-weight", "0.5"]):
        assert main(["compare", str(line_file), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_inputs)
def test_compare_fuzz_exits_with_a_known_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "in.txt", Path(tmp) / "r.json"
        data.write_text(text + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(
                ["compare", str(data), "--models", "tsarf,go",
                 "--output", str(report), "--curves", str(Path(tmp) / "c.csv")]
            )
        assert rc in (0, 1, 2, 3)
        if rc in (0, 3):
            assert json.loads(report.read_text())["models"]
