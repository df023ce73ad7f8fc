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
