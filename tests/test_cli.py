import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsarf
from tsarf import ConvergenceError
from tsarf.cli import main
from tsarf.report import read_report


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


def test_compare_unknown_model_exits_1(line_file):
    assert main(["compare", str(line_file), "--models", "tsarf,arima"]) == 1


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
    report = read_report(report_path)
    assert report.split["train_n"] + report.split["test_n"] == 40
    assert report.models[0]["model"] == "tsarf"


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
