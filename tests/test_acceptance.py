"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 13 is implemented exactly as stated; see the test body for
why its strict inequality cannot hold on a single-TLS device.
"""

import json
import os

import numpy as np
import pytest

from conftest import GHZ, literal_cluster_operator, ten_defect_config, simple_config
from phasebus.cli import main as cli_main
from phasebus.device import DeviceConfig, TlsParams, rwa_infidelity
from phasebus.measurement import (
    ReadoutModel,
    estimate_witness_sampled,
    measure_bus,
    tomography_two_qubit,
)
from phasebus.protocols import (
    cluster_state,
    run_bell,
    run_cluster_protocol,
    run_w_protocol,
    w_state,
)
from phasebus.spectroscopy import (
    bare_bus_frequency,
    default_bias_grid,
    extract_tls_parameters,
    synth_spectroscopy,
)
from phasebus.states import StateVector, basis_state, expectation
from phasebus.witnesses import (
    cluster_stabilizers,
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
    witness_value_exact,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c01_iswap_truth_table():
    cfg = simple_config(1)
    from phasebus.device import resonant_evolution

    tau = cfg.swap_time(1)
    targets = {
        "0g": {0: 1.0},
        "1g": {2: -1j},
        "0e": {1: -1j},
        "1e": {3: 1.0},
    }
    worst = 0.0
    for label, expect in targets.items():
        out = resonant_evolution(basis_state(label), 1, tau, cfg)
        want = np.zeros(4, dtype=complex)
        for idx, val in expect.items():
            want[idx] = val
        worst = max(worst, float(np.abs(out.amplitudes - want).max()))
    ok = worst < 1e-12
    report(1, ok, f"full-swap truth table, worst amplitude error {worst:.2e}")
    assert ok


def test_c02_w_states_one_through_ten():
    cfg = simple_config(10)
    worst_fid, worst_amp, all_clean = 1.0, 0.0, True
    for n in range(1, 11):
        rep = run_w_protocol(cfg, n)
        worst_fid = min(worst_fid, rep.target_fidelity)
        all_clean &= rep.bus_disentangled
        amps = rep.final_state.amplitudes
        raw = np.array([amps[1 << j] for j in range(1, n + 1)])
        worst_amp = max(worst_amp, float(np.abs(raw - (-1j / np.sqrt(n))).max()))
        worst_amp = max(
            worst_amp, float(np.abs(rep.amplitude_profile - 1 / np.sqrt(n)).max())
        )
    ok = worst_fid >= 1 - 1e-9 and all_clean and worst_amp < 1e-10
    report(
        2, ok,
        f"W(1..10): worst fidelity deficit {1 - worst_fid:.2e}, "
        f"worst raw -i/sqrt(N) error {worst_amp:.2e}, bus clean {all_clean}",
    )
    assert ok


def test_c03_bell_protocol():
    cfg = simple_config(4)
    rep = run_bell(cfg, 1, 3)
    ok = abs(rep.target_fidelity - 1.0) < 1e-10
    report(3, ok, f"Bell fidelity 1 - {1 - rep.target_fidelity:.2e}")
    assert ok


def test_c04_three_qubit_fraction_discrepancy():
    cfg = simple_config(3)
    rep = run_w_protocol(cfg, 3, mode="paper-n3")
    closed = (0.5 + np.sqrt(6) / 4 + np.sqrt(3) / 4) ** 2 / 3
    residual = abs(rep.final_state.amplitudes[1]) ** 2
    ok = abs(rep.target_fidelity - closed) < 1e-6 and abs(residual - 3 / 16) < 1e-10
    report(
        4, ok,
        f"tau/3,tau/2,tau/2 timing: fidelity {rep.target_fidelity:.6f} "
        f"(closed form {closed:.6f}), bus residue {residual:.6f} (3/16)",
    )
    assert ok


def test_c05_cluster_search_and_stabilizers():
    ok = True
    details = []
    for n in range(2, 7):
        cfg = simple_config(n)
        _, corr = run_cluster_protocol(cfg, n)
        details.append(f"N={n}: {corr.best_fidelity:.9f} ({corr.best_bus_init})")
        state = cluster_state(n)
        for gen in cluster_stabilizers(n):
            ok &= abs(expectation(state, gen) - 1.0) < 1e-10
        ok &= corr.best_fidelity >= 0.0  # search completed with a result
    report(5, ok, "corrected cluster fidelity " + "; ".join(details))
    assert ok


def test_c06_five_setting_decomposition_equality():
    w3 = w_state(3).amplitudes
    projector_form = (2 / 3) * np.eye(8) - np.outer(w3, w3.conj())
    decomposed = w3_witness_decomposed()
    err = float(np.abs(decomposed.to_matrix() - projector_form).max())
    n_settings = len(group_settings(decomposed))
    ok = err < 1e-12 and n_settings == 5
    report(6, ok, f"decomposition matrix error {err:.2e}, settings {n_settings}")
    assert ok


def test_c07_cluster_witness():
    ok = True
    worst = 0.0
    for n in range(2, 7):
        val = witness_value_exact(cluster_state(n), cluster_witness(n))
        worst = max(worst, abs(val + 1.0))
    ok &= worst < 1e-10
    setting_counts = {n: len(group_settings(cluster_witness(n))) for n in range(2, 11)}
    ok &= all(c == 2 for c in setting_counts.values())
    literal = witness_value_exact(cluster_state(4), literal_cluster_operator(4))
    ok &= literal >= 0.0
    report(
        7, ok,
        f"projector witness -1 within {worst:.2e} (N=2..6), two settings up to "
        f"N=10, bare-product form value {literal:+.2f} on the 4-qubit target",
    )
    assert ok


def _random_product(rng, n):
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(q / np.linalg.norm(q), amps)
    return amps


def test_c08_separable_nonnegativity():
    cases = [
        ("W3 projector", w_witness(3)),
        ("W3 decomposed", w3_witness_decomposed()),
        ("W4", w_witness(4)),
        ("W5", w_witness(5)),
        ("W6", w_witness(6)),
        ("C3", cluster_witness(3)),
        ("C4", cluster_witness(4)),
        ("C5", cluster_witness(5)),
        ("C6", cluster_witness(6)),
    ]
    rng = np.random.default_rng(20260809)
    overall_min = np.inf
    for _, witness in cases:
        dense = witness.to_matrix()
        n = witness.qubit_count
        vals = [
            float(np.real(np.vdot(v, dense @ v)))
            for v in (_random_product(rng, n) for _ in range(1000))
        ]
        overall_min = min(overall_min, min(vals))
    ok = overall_min >= -1e-10
    report(8, ok, f"minimum over 9 x 1000 random product states: {overall_min:.3e}")
    assert ok


def test_c09_sampled_estimation():
    cfg3 = simple_config(3)
    cfg4 = simple_config(4)
    wd = w3_witness_decomposed()
    cw = cluster_witness(4)

    state_w = run_w_protocol(cfg3, 3).final_state
    state_c = run_cluster_protocol(cfg4, 4)[1].corrected_state

    hits = {"W3": 0, "C4": 0}
    for rep_idx in range(20):
        for name, state, witness, exact in (
            ("W3", state_w, wd, -1 / 3),
            ("C4", state_c, cw, -1.0),
        ):
            ro = ReadoutModel(1.0, seed=1000 + rep_idx)
            est = estimate_witness_sampled(state, witness, 100_000, ro)
            if abs(est.value - exact) <= 4 * est.stderr:
                hits[name] += 1
    # stderr scaling: quadrupling the shots halves the error within 20%
    small = estimate_witness_sampled(state_w, wd, 25_000, ReadoutModel(1.0, 7000))
    large = estimate_witness_sampled(state_w, wd, 100_000, ReadoutModel(1.0, 7001))
    ratio = large.stderr / small.stderr
    ok = all(h >= 19 for h in hits.values()) and 0.4 < ratio < 0.6
    report(
        9, ok,
        f"within 4 standard errors: {hits['W3']}/20 (W3), {hits['C4']}/20 (C4); "
        f"stderr ratio at 4x shots {ratio:.3f}",
    )
    assert ok


def test_c10_readout_frequency():
    ro = ReadoutModel(0.96, seed=31)
    shots = 100_000
    ones = sum(measure_bus(basis_state("1"), ro)[0] for _ in range(shots))
    freq = ones / shots
    sigma = np.sqrt(0.96 * 0.04 / shots)
    ok = abs(freq - 0.96) < 3 * sigma
    report(10, ok, f"excited bus reported 1 at {freq:.5f} (3 sigma = {3*sigma:.5f})")
    assert ok


def test_c11_tomography():
    cfg = simple_config(3)
    target = StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    state = run_bell(cfg, 1, 2).final_state

    exact = tomography_two_qubit(state, 1, 2, None, ReadoutModel(1.0, 0), target=target)
    noisy = tomography_two_qubit(
        state, 1, 2, 100_000, ReadoutModel(0.96, 17), target=target
    )
    ok = (
        abs(exact.fidelity_vs_target - 1.0) < 1e-10
        and exact.settings_used == 9
        and exact.expectations.size == 16
        and 0.85 < noisy.fidelity_vs_target < 1.0
    )
    report(
        11, ok,
        f"exact fidelity 1 - {1 - exact.fidelity_vs_target:.1e}; 9 settings, 16 "
        f"expectations; F=0.96 fidelity {noisy.fidelity_vs_target:.4f}",
    )
    assert ok


@pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
def test_c12_spectroscopy_round_trip():
    cfg = ten_defect_config(seed=42)
    grid = default_bias_grid(cfg, 2000)
    scan = synth_spectroscopy(cfg, grid)
    crossings = extract_tls_parameters(scan)
    truth = sorted((t.frequency_hz, t.splitting_hz) for t in cfg.tls)
    ok = len(crossings) == 10
    worst_rel, worst_fratio = 0.0, 0.0
    step = grid[1] - grid[0]
    if ok:
        for (f_true, d_true), c in zip(truth, crossings):
            worst_rel = max(worst_rel, abs(c.splitting - d_true) / d_true)
            f_step = abs(
                bare_bus_frequency(c.center_bias + step, cfg.bias_model.omega_p0)
                - bare_bus_frequency(c.center_bias, cfg.bias_model.omega_p0)
            )
            worst_fratio = max(worst_fratio, abs(c.tls_frequency - f_true) / f_step)
        ok = worst_rel < 0.05 and worst_fratio <= 1.0
    report(
        12, ok,
        f"{len(crossings)}/10 crossings; worst splitting error "
        f"{100 * worst_rel:.4f}%, worst frequency offset {worst_fratio:.3f} "
        "grid steps",
    )
    assert ok


def test_c13_rwa_strict_monotone_pair():
    """Full-model vs exchange-window infidelity at t = tau, single-TLS device.

    As stated this cannot hold: with one TLS on resonance the {|1g>, |0e>}
    pair is an exactly closed block of the full Hamiltonian, so the
    evolution from |1, g> is the exchange map itself (up to the phase of the
    transferred amplitude, which a full swap hides from the fidelity).  Both
    infidelities are therefore identically zero and the strict inequality
    fails; the spectator-driven mismatch the diagnostic is meant to expose
    needs at least one off-resonant TLS (see
    test_device.py::TestRwaInfidelity::test_spectator_tls_makes_mismatch_monotone).
    """
    omega = 6.0 * GHZ
    infid = {}
    for ratio in (1e-3, 1e-2):
        cfg = DeviceConfig(
            omega10=omega, tls=(TlsParams("solo", omega, ratio * omega),)
        )
        infid[ratio] = rwa_infidelity(cfg, 1, cfg.swap_time(1))
    ok = infid[1e-3] < infid[1e-2]
    report(
        13, ok,
        f"single-TLS infidelity at tau: {infid[1e-3]:.3e} (ratio 1e-3) vs "
        f"{infid[1e-2]:.3e} (ratio 1e-2); strict decrease required",
    )
    assert ok, (
        "both infidelities are identically zero on a single-TLS device "
        "(closed two-state block), so no strict ordering exists"
    )


@pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
def test_c14_cli_determinism(tmp_path):
    config = {
        "device": {"omega10_ghz": 6.0, "readout_fidelity": 0.96,
                   "omega_p0_ghz": 6.5},
        "tls": [
            {"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0},
            {"id": "b", "omega_r_ghz": 5.2, "splitting_mhz": 25.0},
            {"id": "c", "omega_r_ghz": 5.4, "splitting_mhz": 60.0},
        ],
    }
    cfg_path = tmp_path / "device.json"
    cfg_path.write_text(json.dumps(config))

    matrix = [
        ["w-state", "--n", "3"],
        ["bell", "--target", "bell:1:3"],
        ["cluster", "--n", "3", "--search-corrections"],
        ["witness", "--target", "w3", "--decomposed", "--shots", "5000"],
        ["witness", "--target", "c3", "--shots", "5000"],
        ["tomo", "--target", "bell:1:2", "--shots", "5000"],
        ["spectroscopy", "--points", "800"],
        ["rwa-check", "--tls", "1"],
    ]

    def run_all():
        blobs = {}
        for cmd in matrix:
            tag = cmd[0] + ("-d" if "--decomposed" in cmd else "")
            out = tmp_path / "runs" / tag
            rc = cli_main(
                cmd[:1]
                + ["--config", str(cfg_path), "--seed", "5", "--out", str(out)]
                + cmd[1:]
            )
            assert rc == 0
            for name in sorted(os.listdir(out)):
                blobs[f"{tag}/{name}"] = (out / name).read_bytes()
        return blobs

    first = run_all()
    second = run_all()
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    report(14, same, f"{len(first)} output files byte-identical across reruns")
    assert same
