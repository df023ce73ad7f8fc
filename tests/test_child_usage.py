"""The child-usage probe keeps its own process small and refuses inputs
that would measure nothing."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOL = os.path.join(ROOT, "tools", "child_usage.py")


@pytest.fixture(scope="module")
def child_usage():
    spec = importlib.util.spec_from_file_location("child_usage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parent_loads_neither_numpy_nor_phasebus():
    # a child's ru_maxrss counts its parent's resident size
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('child_usage', {TOOL!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in ('numpy', 'phasebus', 'workloads') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_src_without_package_refused(child_usage, tmp_path, capsys):
    assert child_usage.main([SRC, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no phasebus package" in err and err.count("\n") == 1


def test_table_gives_medians_per_tree(child_usage):
    # CPU median, then its first and third quartiles, per tree
    samples = {"w-witness/witness-w5": ([(0.2, 37.5), (0.3, 37.7), (0.1, 37.6)],
                                        [(0.2, 34.1), (0.2, 34.0), (0.4, 34.2)])}
    lines = child_usage.table(samples).splitlines()
    assert lines[0].split()[1:7:2] == ["cpu_s", "q1", "q3"]
    assert lines[1].split() == ["w-witness/witness-w5", "0.200", "0.100", "0.300",
                                "0.200", "0.200", "0.400", "37.60", "34.10"]
    one_round = {"lab-day/tomo": ([(0.16, 34.4)], [(0.17, 34.5)])}
    assert child_usage.table(one_round).splitlines()[1].split()[1:7] == [
        "0.160", "0.160", "0.160", "0.170", "0.170", "0.170"]
