"""The process entry ``phasebus.__main__.run``: a command process runs with
the cyclic collector off and its heap frozen before exit, keeps every exit
code and writes the same files as ``cli.main``; in-process callers of
``cli.main`` keep their own collector."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEMO_CONFIG
from phasebus.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child(argv, cwd):
    """Run ``argv`` after this interpreter, with phasebus importable."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )


def test_run_disables_and_freezes_the_collector(tmp_path):
    # numpy must not load before run() has turned the collector off
    code = (
        "import gc, sys\n"
        "from phasebus.__main__ import run\n"
        "print('numpy' in sys.modules)\n"
        "code = run()\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0, code)"
    )
    proc = child(["-c", code, "w-state", "--n", "2", "--config", DEMO_CONFIG,
                  "--out", "o"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "0"]


def _unknown_key_config(tmp_path):
    data = json.loads(Path(DEMO_CONFIG).read_text())
    data["device"]["readout_fidelty"] = 0.9
    path = tmp_path / "unknown_key.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv, config, expected", [
    (["w-state", "--n", "2"], "demo", 0),
    (["witness", "--target", "c4", "--shots", "1"], "demo", 2),
    (["w-state", "--n", "2"], "unknown-key", 3),
    (["witness", "--target", "c4", "--decomposed"], "demo", 4),
    (["w-state", "--n", "2", "--out", "blocker/sub"], "demo", 5),
    (["--help"], None, 0),
    (["w-state", "--n", "2", "--no-such-option"], "demo", 2),
], ids=["ok", "usage", "invalid-config", "physics", "io", "help", "unknown-option"])
def test_module_entry_keeps_exit_codes(tmp_path, argv, config, expected):
    (tmp_path / "blocker").write_text("a file, not a directory")
    if config is not None:
        path = DEMO_CONFIG if config == "demo" else _unknown_key_config(tmp_path)
        argv = [*argv, "--config", path]
    proc = child(["-m", "phasebus", *argv], tmp_path)
    assert proc.returncode == expected, proc.stderr


def test_in_process_main_keeps_the_callers_collector(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["w-state", "--n", "2", "--config", DEMO_CONFIG,
                 "--out", str(tmp_path / "o")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def _files(outdir):
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}


@pytest.mark.parametrize("argv", [
    ["witness", "--target", "c4", "--shots", "50", "--emit-shots"],
    ["spectroscopy", "--points", "300"],
    ["tomo", "--target", "bell:1:2", "--shots", "1000"],
    ["cluster", "--n", "4", "--search-corrections"],
    ["w-state", "--n", "3"],
], ids=lambda argv: argv[0])
def test_outputs_survive_the_collector_being_off(tmp_path, monkeypatch, argv):
    # every writer closes its file before main returns; a file left in a
    # reference cycle would never be flushed in a process without the collector
    argv = [*argv, "--config", DEMO_CONFIG, "--out", "out"]
    (tmp_path / "proc").mkdir()
    proc = child(["-m", "phasebus", *argv], tmp_path / "proc")
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "inproc").mkdir()
    monkeypatch.chdir(tmp_path / "inproc")
    assert main(argv) == 0
    in_process = _files(tmp_path / "inproc" / "out")
    assert len(in_process) > 3
    assert _files(tmp_path / "proc" / "out") == in_process
