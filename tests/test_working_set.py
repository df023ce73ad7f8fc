"""Traced-allocation bounds on the paths that set the peak memory of the
demo's everyday commands: the ten-TLS cluster correction search, the
100,000-shot c10 witness estimate, the same estimate writing its shot
files, and the 2,000-point spectroscopy report.

Each bound sits between the measured peak of the bounded working set
(0.3, 1.7, 4.3 and 2.4 MiB) and that of the code it replaced (4.3, 19.3,
24.8 and 5.0 MiB), so scoring the cluster corrections 4^(n-3) at a time
without pruning, drawing every uniform at once, unpacking every shot's
outcomes before writing them or collecting the scan rows as Python lists
fails here.  The pruned correction search keeps its slices small even
where nothing can be pruned: on the all-ground register, whose 4^10
candidates tie exactly, and on a random ten-TLS state it traced 1.7 and
1.0 MiB, against 52 and 5.0 MiB for the same search expanding whole levels.

At 10^6 shots per setting the sampled paths are bounded by bytes per
shot: the c10 estimate (9.6 MiB), the same estimate keeping its records
(11.5 MiB) and ``tomography_two_qubit`` on ``bell:1:2`` (1.2 MiB) stay
below bounds that int64 patterns (8 bytes per shot, counted through a
whole-record ``np.bincount``), a separate variance temporary or the
previous setting's arrays, still alive during the next draw, exceed:
those traced 23.6, 30.5 and 15.5 MiB.

A cluster chain longer than the device is refused before its 2^n target
or witness is built: at n = 22 that target and its sign arithmetic traced
164 MiB before the refusal.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import DEMO_CONFIG
from phasebus.cli import main
from phasebus.config_io import load_config
from phasebus.device import ProtocolError
from phasebus.measurement import (
    ReadoutModel,
    estimate_witness_sampled,
    tomography_two_qubit,
)
from phasebus.protocols import (
    _correction_search,
    cluster_state,
    run_bell,
    run_cluster_protocol,
)
from phasebus.states import StateVector, basis_state
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
    assert traced_peak(lambda: run_cluster_protocol(demo, 10)) < 1 * MIB


@pytest.mark.parametrize("case", ["all-ground", "random"])
def test_correction_search_on_hard_inputs(case):
    if case == "all-ground":
        final = basis_state("0" + "g" * 10)
    else:
        rng = np.random.default_rng(10)
        psi = rng.normal(size=2**11) + 1j * rng.normal(size=2**11)
        final = StateVector(psi / np.linalg.norm(psi))
    target = cluster_state(10)
    assert traced_peak(lambda: _correction_search(final, target, 10)) < 5 * MIB


@pytest.fixture(scope="module")
def c10_state(demo):
    return run_cluster_protocol(demo, 10)[1].corrected_state


def test_c10_estimate_at_100000_shots(c10_state):
    witness = cluster_witness(10)
    peak = traced_peak(
        lambda: estimate_witness_sampled(c10_state, witness, 100000, ReadoutModel(0.96, 1))
    )
    assert peak < 8 * MIB


@pytest.mark.parametrize("keep_records, bound", [(False, 12), (True, 14)])
def test_c10_estimate_at_a_million_shots(c10_state, keep_records, bound):
    witness = cluster_witness(10)
    peak = traced_peak(lambda: estimate_witness_sampled(
        c10_state, witness, 10**6, ReadoutModel(0.96, 1), keep_records=keep_records
    ))
    assert peak < bound * MIB


def test_tomography_at_a_million_shots(demo):
    state = run_bell(demo, 1, 2).final_state
    peak = traced_peak(
        lambda: tomography_two_qubit(state, 1, 2, 10**6, ReadoutModel(0.96, 1))
    )
    assert peak < 3 * MIB


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


def test_cluster_chain_longer_than_device(demo):
    def run():
        with pytest.raises(ProtocolError, match="n=22 outside"):
            run_cluster_protocol(demo, 22)

    assert traced_peak(run) < 1 * MIB


def test_cluster_witness_longer_than_device(tmp_path):
    argv = ["witness", "--target", "c22", "--config", DEMO_CONFIG,
            "--out", str(tmp_path / "out")]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) < 1 * MIB
    assert codes == [4]
    assert not (tmp_path / "out").exists()
