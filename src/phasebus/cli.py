"""Batch command line: load a device config, run one experiment, emit a
deterministic report.  The report's manifest is the parsed command line;
each command's handler fills that report with its rows and attachments.

Exit codes: 0 success, 2 usage or config parse error, 3 config invariant
violation, 4 physics-layer error or a run too large for memory, 5 output
I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config_io import load_config
from .device import ConfigError, DeviceConfig, ProtocolError
from .reporting import Report, emit_report

# Each command handler imports the layers it runs, so a process compiles
# and executes only those modules.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebus",
        description="bus + TLS entanglement protocols, witnesses and spectroscopy",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="device config JSON")
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--out", default="phasebus_out", help="output directory")
    common.add_argument(
        "--readout-f", type=float, default=None, help="override readout fidelity"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("w-state", parents=[common], help="shared-excitation W state")
    p.add_argument("--n", type=int, required=True, help="number of TLS qubits")
    p.add_argument("--mode", choices=["general", "paper-n3"], default="general",
                   help="window timing; paper-n3 is the paper's tau/3, tau/2, "
                        "tau/2 variant (n = 3 only)")

    p = sub.add_parser("bell", parents=[common], help="Bell pair of two TLSs")
    p.add_argument("--target", default="bell:1:2", help="bell:j:k")

    p = sub.add_parser("cluster", parents=[common], help="cluster chain")
    p.add_argument("--n", type=int, required=True, help="number of TLS qubits")
    p.add_argument("--bus-init", choices=["plus", "ground"], default="plus",
                   help="bus state before the chain is linked: |+> or |0>")
    p.add_argument("--search-corrections", action="store_true",
                   help="attach corrections.csv; the search itself always runs")

    p = sub.add_parser("witness", parents=[common], help="witness evaluation")
    p.add_argument("--target", required=True, help="wN or cN, e.g. w3, c4")
    p.add_argument("--decomposed", action="store_true",
                   help="five-setting form (w3 only)")
    p.add_argument("--shots", type=int, default=0,
                   help="shots per setting, at least 2; 0 = exact only")
    p.add_argument("--emit-shots", action="store_true",
                   help="attach each setting's shot record (needs --shots)")

    p = sub.add_parser("tomo", parents=[common], help="two-qubit tomography")
    p.add_argument("--target", default="bell:1:2", help="bell:j:k pair")
    p.add_argument("--shots", type=int, default=0,
                   help="shots per setting; 0 = exact expectations")

    p = sub.add_parser("spectroscopy", parents=[common], help="synthetic bias scan")
    p.add_argument("--points", type=int, default=2000,
                   help="bias grid points, at least 3")

    p = sub.add_parser("rwa-check", parents=[common],
                       help="full-model vs exchange-window mismatch per TLS")
    p.add_argument("--tls", type=int, default=None,
                   help="check a single TLS (a full-device check evolves "
                        "each TLS in the 2^N odd-parity block and takes a few "
                        "seconds)")
    return parser


class UsageError(Exception):
    """A malformed command-line value (exit 2)."""


def _parse_pair(target: str) -> tuple[int, int]:
    parts = target.split(":")
    if len(parts) != 3 or parts[0] != "bell" or not all(
        p.isdecimal() for p in parts[1:]
    ):
        raise UsageError(f"expected bell:j:k, got {target!r}")
    return int(parts[1]), int(parts[2])


def _check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{name} must be at least {least}, got {value}")


def _parse_witness_target(target: str) -> tuple[str, int]:
    kind, num = target[:1].lower(), target[1:]
    if kind not in ("w", "c") or not num.isdecimal():
        raise UsageError(f"expected wN or cN, got {target!r}")
    return kind, int(num)


def _manifest(args) -> dict:
    """Every parsed argument; the readout override under its report name."""
    manifest = vars(args).copy()
    manifest["readout_fidelity_override"] = manifest.pop("readout_f")
    return manifest


def _cmd_w_state(args, config: DeviceConfig, report: Report) -> None:
    from .protocols import run_w_protocol

    rep = run_w_protocol(config, args.n, args.mode)
    report.add("target_fidelity", rep.target_fidelity)
    report.add("bus_disentangled", rep.bus_disentangled)
    report.add("bus_ground_population", rep.bus_ground_population)
    for j, mag in enumerate(rep.amplitude_profile, start=1):
        report.add(f"excitation_amplitude_{j}", float(mag))
    report.attach_text("schedule.txt", rep.schedule.to_text())
    report.attach_csv(
        "amplitudes.csv",
        ["tls_index", "amplitude_magnitude"],
        [(j, float(m)) for j, m in enumerate(rep.amplitude_profile, start=1)],
    )


def _cmd_bell(args, config: DeviceConfig, report: Report) -> None:
    from .protocols import run_bell
    from .states import partial_trace

    j, k = _parse_pair(args.target)
    rep = run_bell(config, j, k)
    report.add("target_fidelity", rep.target_fidelity)
    report.add("bus_disentangled", rep.bus_disentangled)
    purity = partial_trace(rep.final_state, [j]).purity()
    report.add(f"tls_{j}_reduced_purity", purity)
    report.attach_text("schedule.txt", rep.schedule.to_text())


def _cmd_cluster(args, config: DeviceConfig, report: Report) -> None:
    from .protocols import run_cluster_protocol, tls_register_state
    from .states import expectation
    from .witnesses import cluster_stabilizers

    rep, corr = run_cluster_protocol(config, args.n, args.bus_init)
    report.add("uncorrected_fidelity", rep.target_fidelity)
    report.add("best_corrected_fidelity", corr.best_fidelity)
    report.add("best_bus_init", corr.best_bus_init, units="variant")
    for variant, fid in sorted(corr.fidelity_by_init.items()):
        report.add(f"corrected_fidelity_{variant}", fid)
    report.add("sequence_inexact", corr.sequence_inexact)

    tls_state = tls_register_state(corr.corrected_state, args.n)
    for idx, gen in enumerate(cluster_stabilizers(args.n), start=1):
        report.add(f"stabilizer_{idx}", expectation(tls_state, gen))
    if args.search_corrections:
        report.attach_csv(
            "corrections.csv",
            ["tls_index", "correction"],
            [(j, c) for j, c in enumerate(corr.corrections, start=1)],
        )
    report.attach_text("schedule.txt", rep.schedule.to_text())


def _witness_preparation(args, config: DeviceConfig):
    """(witness, state); the protocol checks n before the witness is built."""
    from .protocols import run_cluster_protocol, run_w_protocol
    from .witnesses import cluster_witness, w3_witness_decomposed, w_witness

    kind, n = _parse_witness_target(args.target)
    if args.decomposed and (kind, n) != ("w", 3):
        raise ProtocolError("--decomposed applies to the three-qubit W witness")
    if kind == "w":
        state = run_w_protocol(config, n).final_state
        return (w3_witness_decomposed() if args.decomposed else w_witness(n)), state
    state = run_cluster_protocol(config, n)[1].corrected_state
    return cluster_witness(n), state


def _cmd_witness(args, config: DeviceConfig, report: Report) -> None:
    from .protocols import tls_register_state
    from .witnesses import group_settings, witness_value_exact

    _check_count("--shots", args.shots, 0)
    if args.shots == 1:
        raise UsageError("--shots must be 0 (exact) or at least 2 for a standard error")
    if args.emit_shots and args.shots == 0:
        raise UsageError("--emit-shots needs --shots of at least 2")
    witness, state = _witness_preparation(args, config)
    tls_state = tls_register_state(state, witness.qubit_count)
    report.add("exact_value", witness_value_exact(tls_state, witness))
    settings = group_settings(witness)
    report.add("settings", len(settings), units="count")
    if args.shots > 0:
        from .measurement import ReadoutModel, estimate_witness_sampled

        readout = ReadoutModel(config.readout_fidelity, args.seed)
        est = estimate_witness_sampled(
            state, witness, args.shots, readout, keep_records=args.emit_shots
        )
        report.add("estimate", est.value, stderr=est.stderr)
        report.add("readout_bias_factor", readout.bias_factor)
        if args.emit_shots:
            for idx, record in enumerate(est.records):
                report.attach_file(f"shots_setting_{idx}.csv", record.to_csv)
    report.attach_csv("witness_terms.csv", ["coefficient", "pauli_string"],
                      [(float(c), p.labels) for c, p in witness.terms])


def _cmd_tomo(args, config: DeviceConfig, report: Report) -> None:
    from .measurement import ReadoutModel, tomography_two_qubit
    from .protocols import bell_state, run_bell

    _check_count("--shots", args.shots, 0)
    j, k = _parse_pair(args.target)
    target = bell_state(2, 1, 2)
    state = run_bell(config, j, k).final_state
    readout = ReadoutModel(config.readout_fidelity, args.seed)
    shots = args.shots if args.shots > 0 else None
    result = tomography_two_qubit(state, j, k, shots, readout, target=target)
    report.add("fidelity_vs_target", result.fidelity_vs_target)
    report.add("physical", result.physical)
    report.add("settings_used", result.settings_used, units="count")
    axes = "IXYZ"
    for a in range(4):
        for b in range(4):
            report.add(
                f"expectation_{axes[a]}{axes[b]}", float(result.expectations[a, b])
            )
    rho = result.rho.matrix
    report.attach_csv("rho_real.csv", [f"c{c}" for c in range(4)], np.real(rho).tolist())
    report.attach_csv("rho_imag.csv", [f"c{c}" for c in range(4)], np.imag(rho).tolist())


def _cmd_spectroscopy(args, config: DeviceConfig, report: Report) -> None:
    from .spectroscopy import (
        default_bias_grid, extract_tls_parameters, synth_spectroscopy,
    )

    _check_count("--points", args.points, 3)  # a crossing needs a three-point bracket
    grid = default_bias_grid(config, args.points)
    scan = synth_spectroscopy(config, grid)
    crossings = extract_tls_parameters(scan)
    report.add("spectroscopy_calibrated", scan.calibrated)
    report.add("crossings_found", len(crossings), units="count")
    for idx, c in enumerate(crossings, start=1):
        report.add(f"crossing_{idx}_bias", c.center_bias, units="I/I0")
        report.add(f"crossing_{idx}_splitting", c.splitting, units="Hz")
        report.add(f"crossing_{idx}_frequency", c.tls_frequency, units="Hz")

    def nearest_tls(c):
        return min(config.tls, key=lambda t: abs(t.frequency_hz - c.tls_frequency))

    for tls in config.tls:  # ascending frequency
        matches = [c for c in crossings if nearest_tls(c) is tls]
        if not matches:
            report.add(f"tls_{tls.id}_unmatched", True)
            continue
        c = min(matches, key=lambda c: abs(c.tls_frequency - tls.frequency_hz))
        rel = abs(c.splitting - tls.splitting_hz) / tls.splitting_hz
        report.add(f"tls_{tls.id}_splitting_rel_err", rel)
    report.attach_file("scan.csv", scan.to_csv)
    report.attach_csv(
        "crossings.csv",
        ["center_bias", "splitting_hz", "tls_frequency_hz"],
        [(c.center_bias, c.splitting, c.tls_frequency) for c in crossings],
    )


def _cmd_rwa_check(args, config: DeviceConfig, report: Report) -> None:
    from .device import rwa_infidelity

    for j in [args.tls] if args.tls is not None else range(1, config.num_tls + 1):
        tls = config.tls_params(j)
        infid = rwa_infidelity(config, j, config.swap_time(j))
        report.add(f"rwa_infidelity_{tls.id}", infid)
        report.add(f"coupling_ratio_{tls.id}", tls.coupling / tls.omega_r)


_HANDLERS = {
    "w-state": _cmd_w_state,
    "bell": _cmd_bell,
    "cluster": _cmd_cluster,
    "witness": _cmd_witness,
    "tomo": _cmd_tomo,
    "spectroscopy": _cmd_spectroscopy,
    "rwa-check": _cmd_rwa_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.readout_f is not None:
            config = dataclasses.replace(config, readout_fidelity=args.readout_f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"phasebus: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"phasebus: invalid config: {exc}", file=sys.stderr)
        return 3

    report = Report(_manifest(args))
    try:
        _HANDLERS[args.command](args, config, report)
    except UsageError as exc:
        print(f"phasebus: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, ValueError) as exc:
        print(f"phasebus: {args.command}: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"phasebus: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 4

    try:
        emit_report(report, args.out)
    except OSError as exc:
        print(f"phasebus: cannot write output: {exc}", file=sys.stderr)
        return 5
    return 0
