"""Traced-allocation bounds on the paths that set the peak memory of the
demo's everyday commands: the ten-TLS cluster correction search, the
100,000-shot c10 witness estimate, the same estimate writing its shot
files, and the 2,000-point spectroscopy report.

Each bound sits between the measured peak of the bounded working set
(4.3, 4.3, 4.3 and 2.4 MiB) and that of the whole-array code it replaced
(16.1, 19.3, 24.8 and 5.0 MiB), so building the 4^n overlap tensor,
drawing every uniform at once, unpacking every shot's outcomes before
writing them or collecting the scan rows as Python lists fails here.
"""

import tracemalloc

import pytest

from conftest import DEMO_CONFIG
from phasebus.cli import main
from phasebus.config_io import load_config
from phasebus.measurement import ReadoutModel, estimate_witness_sampled
from phasebus.protocols import run_cluster_protocol
from phasebus.witnesses import cluster_witness

MIB = 2**20


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def demo():
    return load_config(DEMO_CONFIG)


def test_cluster_correction_search(demo):
    assert traced_peak(lambda: run_cluster_protocol(demo, 10)) < 8 * MIB


def test_c10_estimate_at_100000_shots(demo):
    state = run_cluster_protocol(demo, 10)[1].corrected_state
    witness = cluster_witness(10)
    peak = traced_peak(
        lambda: estimate_witness_sampled(state, witness, 100000, ReadoutModel(0.96, 1))
    )
    assert peak < 8 * MIB


def test_c10_shot_files_at_100000_shots(tmp_path):
    argv = ["witness", "--target", "c10", "--shots", "100000", "--emit-shots",
            "--config", DEMO_CONFIG, "--out", str(tmp_path)]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) < 8 * MIB
    assert codes == [0]


def test_spectroscopy_report_at_2000_points(tmp_path):
    argv = ["spectroscopy", "--points", "2000", "--config", DEMO_CONFIG,
            "--out", str(tmp_path)]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) < 3.5 * MIB
    assert codes == [0]
