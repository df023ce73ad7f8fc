"""Lazy loading: ``import phasebus`` and each CLI command load only the
submodules they use, and every public name still resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasebus
from conftest import DEMO_CONFIG

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_after(code: str, *args: str, package: str = "phasebus") -> set[str]:
    """The modules of ``package`` in ``sys.modules`` after ``code`` runs
    with ``args`` as its command line in a fresh interpreter."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r})]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_command(tmp_path, *argv: str, package: str = "phasebus") -> set[str]:
    code = (
        "import sys\n"
        "from phasebus.cli import main\n"
        "if main(sys.argv[1:]) != 0:\n"
        "    raise SystemExit('command failed')"
    )
    return loaded_after(code, *argv, "--config", DEMO_CONFIG, "--out", str(tmp_path),
                        package=package)


def test_process_entry_loads_what_main_loads(tmp_path):
    argv = ("witness", "--target", "c4", "--config", DEMO_CONFIG)
    code = (
        "from phasebus.__main__ import run\n"
        "if run() != 0:\n"
        "    raise SystemExit('command failed')"
    )
    through_run = loaded_after(code, *argv, "--out", str(tmp_path / "run"))
    assert through_run - {"phasebus.__main__"} == loaded_by_command(
        tmp_path / "main", *argv[:3]
    )


def test_load_config_loads_only_its_layers():
    code = "import sys, phasebus\nphasebus.load_config(sys.argv[1])"
    assert loaded_after(code, DEMO_CONFIG) == {
        "phasebus", "phasebus.config_io", "phasebus.device", "phasebus.states",
    }


@pytest.mark.parametrize("argv", [
    ("spectroscopy", "--points", "50"),
    ("rwa-check", "--tls", "1"),
], ids=lambda argv: argv[0])
def test_device_commands_skip_the_protocol_layers(tmp_path, argv):
    loaded = loaded_by_command(tmp_path, *argv)
    for layer in ("protocols", "paulis", "witnesses", "measurement"):
        assert f"phasebus.{layer}" not in loaded


@pytest.mark.parametrize("argv", [
    ("witness", "--target", "w3"),
    ("witness", "--target", "c4"),
    ("w-state", "--n", "3"),
], ids=" ".join)
def test_exact_runs_skip_sampling_and_spectroscopy(tmp_path, argv):
    loaded = loaded_by_command(tmp_path, *argv)
    assert "phasebus.measurement" not in loaded
    assert "phasebus.spectroscopy" not in loaded


@pytest.mark.parametrize("shots, loads", [("0", False), ("1000", True)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("package", ["numpy.random", "_hashlib"])
def test_only_sampled_tomography_loads_the_random_stack(tmp_path, package, shots, loads):
    # the readout stream is derived on first draw, and exact tomography
    # draws nothing
    argv = ("tomo", "--target", "bell:1:2", "--shots", shots)
    assert bool(loaded_by_command(tmp_path, *argv, package=package)) is loads


def test_unknown_name_raises_and_loads_nothing():
    code = (
        "import phasebus\n"
        "try:\n"
        "    phasebus.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')"
    )
    assert loaded_after(code) == {"phasebus"}
    with pytest.raises(AttributeError):
        phasebus.no_such_name


def test_every_export_resolves_to_its_definition():
    assert len(set(phasebus.__all__)) == len(phasebus.__all__)
    listed = dir(phasebus)
    for name in phasebus.__all__:
        value = getattr(phasebus, name)
        assert value.__module__.startswith("phasebus.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in listed
    assert "__version__" in listed
    namespace = {}
    exec("from phasebus import *", namespace)
    for name in phasebus.__all__:
        assert namespace[name] is getattr(phasebus, name)
