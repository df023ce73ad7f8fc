"""The output-comparison tool refuses inputs that would give a false verdict."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture(scope="module")
def compare_outputs():
    path = os.path.join(ROOT, "tools", "compare_outputs.py")
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_non_empty_work_dir_refused(compare_outputs, tmp_path, capsys):
    # a reused run directory would crash mid-run with exit 1, "outputs differ"
    (tmp_path / "old").mkdir()
    assert compare_outputs.main([SRC, SRC, "--work", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == ["old"]
    err = capsys.readouterr().err
    assert "not an empty directory" in err and err.count("\n") == 1


def test_src_without_package_refused(compare_outputs, tmp_path, capsys):
    # every command would fail alike in both trees: 0 differences, exit 0
    work = tmp_path / "work"
    assert compare_outputs.main([SRC, str(tmp_path), "--work", str(work)]) == 2
    assert not work.exists()
    err = capsys.readouterr().err
    assert "no phasebus package" in err and err.count("\n") == 1


OLD_REPORT = (b"metric,value,stderr,units\r\n"
              b"estimate,-0.15840941881907367,0.01,\r\n"
              b"settings,2,,count\r\n"
              b"mode,exact,,\r\n")
NEW_REPORT = (b"metric,value,stderr,units\r\n"
              b"spectroscopy_calibrated,1,,\r\n"
              b"estimate,-0.15840941881907336,0.01,\r\n"
              b"settings,2,,counts\r\n"
              b"mode,sampled,,\r\n")


def test_numeric_deltas_of_report_rows(compare_outputs):
    # a changed float field is sized; a changed text field, an unchanged
    # field and a metric on one side only are not
    lines = compare_outputs.numeric_deltas(OLD_REPORT, NEW_REPORT)
    assert lines == ["estimate value: -0.15840941881907367 -> -0.15840941881907336 "
                     "(abs 3.05e-16, rel 1.93e-15)"]


def test_delta_from_zero_is_relatively_infinite(compare_outputs):
    old = b"metric,value\r\nx,0.0\r\n"
    assert compare_outputs.numeric_deltas(old, b"metric,value\r\nx,1e-300\r\n") == [
        "x value: 0.0 -> 1e-300 (abs 1e-300, rel inf)"]


def test_compare_prints_deltas_for_report_csv_only(compare_outputs, tmp_path, capsys):
    for side, report in (("old", OLD_REPORT), ("new", NEW_REPORT)):
        out = tmp_path / side / "out" / "run"
        out.mkdir(parents=True)
        (out / "report.csv").write_bytes(report)
        (out / "terms.csv").write_bytes(report)
    assert compare_outputs.compare(str(tmp_path / "old"), str(tmp_path / "new"), {}, {}) == 2
    printed = capsys.readouterr().out
    assert printed.count("    delta ") == 1
    assert "delta estimate value: " in printed
    assert printed.index("DIFF run/report.csv") < printed.index("delta estimate")
    assert printed.index("delta estimate") < printed.index("DIFF run/terms.csv")
