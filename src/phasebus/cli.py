"""Batch command line: load a device config, run one experiment, emit a
deterministic report.

Exit codes: 0 success, 2 usage or config parse error, 3 config invariant
violation, 4 physics-layer error, 5 output I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .config_io import load_config
from .device import ConfigError, DeviceConfig, ProtocolError, rwa_infidelity
from .measurement import ReadoutModel, estimate_witness_sampled, tomography_two_qubit
from .protocols import (
    run_bell,
    run_cluster_protocol,
    run_w_protocol,
    tls_register_state,
)
from .reporting import Report, emit_report
from .spectroscopy import default_bias_grid, extract_tls_parameters, synth_spectroscopy
from .states import StateVector, expectation, partial_trace
from .witnesses import (
    cluster_stabilizers,
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
    witness_to_csv,
    witness_value_exact,
)


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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["general", "paper-n3"], default="general")

    p = sub.add_parser("bell", parents=[common], help="Bell pair of two TLSs")
    p.add_argument("--target", default="bell:1:2", help="bell:j:k")

    p = sub.add_parser("cluster", parents=[common], help="cluster chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bus-init", choices=["plus", "ground"], default="plus")
    p.add_argument("--search-corrections", action="store_true")

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
    p.add_argument("--points", type=int, default=2000)

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


def _manifest(args, extra: dict) -> dict:
    base = {
        "command": args.command,
        "config": args.config,
        "seed": args.seed,
        "out": args.out,
        "readout_fidelity_override": args.readout_f,
    }
    base.update(extra)
    return base


def _cmd_w_state(args, config: DeviceConfig) -> Report:
    rep = run_w_protocol(config, args.n, args.mode)
    report = Report(_manifest(args, {"n": args.n, "mode": args.mode}))
    report.add("target_fidelity", rep.target_fidelity)
    report.add("bus_disentangled", rep.bus_disentangled)
    rho_bus = partial_trace(rep.final_state, [0])
    report.add("bus_ground_population", float(np.real(rho_bus.matrix[0, 0])))
    for j, mag in enumerate(rep.amplitude_profile, start=1):
        report.add(f"excitation_amplitude_{j}", float(mag))
    report.attach_text("schedule.txt", rep.schedule.to_text())
    report.attach_csv(
        "amplitudes.csv",
        ["tls_index", "amplitude_magnitude"],
        [(j, float(m)) for j, m in enumerate(rep.amplitude_profile, start=1)],
    )
    return report


def _cmd_bell(args, config: DeviceConfig) -> Report:
    j, k = _parse_pair(args.target)
    rep = run_bell(config, j, k)
    report = Report(_manifest(args, {"target": args.target}))
    report.add("target_fidelity", rep.target_fidelity)
    report.add("bus_disentangled", rep.bus_disentangled)
    purity = partial_trace(rep.final_state, [j]).purity()
    report.add(f"tls_{j}_reduced_purity", purity)
    report.attach_text("schedule.txt", rep.schedule.to_text())
    return report


def _cmd_cluster(args, config: DeviceConfig) -> Report:
    rep, corr = run_cluster_protocol(config, args.n, args.bus_init)
    report = Report(
        _manifest(
            args,
            {"n": args.n, "bus_init": args.bus_init,
             "search_corrections": args.search_corrections},
        )
    )
    report.add("uncorrected_fidelity", corr.uncorrected_fidelity)
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
    return report


def _witness_preparation(args, config: DeviceConfig):
    kind, n = _parse_witness_target(args.target)
    if args.decomposed and (kind, n) != ("w", 3):
        raise ProtocolError("--decomposed applies to the three-qubit W witness")
    if kind == "w":
        witness = w3_witness_decomposed() if args.decomposed else w_witness(n)
        state = run_w_protocol(config, n).final_state
    else:
        witness = cluster_witness(n)
        _, corr = run_cluster_protocol(config, n)
        state = corr.corrected_state
    return witness, n, state


def _cmd_witness(args, config: DeviceConfig) -> Report:
    _check_count("--shots", args.shots, 0)
    if args.shots == 1:
        raise UsageError("--shots must be 0 (exact) or at least 2 for a standard error")
    if args.emit_shots and args.shots == 0:
        raise UsageError("--emit-shots needs --shots of at least 2")
    witness, n, state = _witness_preparation(args, config)
    report = Report(
        _manifest(
            args,
            {"target": args.target, "decomposed": args.decomposed,
             "shots": args.shots},
        )
    )
    tls_state = tls_register_state(state, n)
    report.add("exact_value", witness_value_exact(tls_state, witness))
    settings = group_settings(witness)
    report.add("settings", len(settings), units="count")
    if args.shots > 0:
        readout = ReadoutModel(config.readout_fidelity, args.seed)
        est = estimate_witness_sampled(
            state, witness, args.shots, readout, keep_records=args.emit_shots
        )
        report.add("estimate", est.value, stderr=est.stderr)
        report.add("readout_bias_factor", est.bias_factor)
        if args.emit_shots:
            for idx, record in enumerate(est.records):
                report.attach_file(f"shots_setting_{idx}.csv", record.to_csv)
    report.attach_file("witness_terms.csv", functools.partial(witness_to_csv, witness))
    return report


def _cmd_tomo(args, config: DeviceConfig) -> Report:
    _check_count("--shots", args.shots, 0)
    j, k = _parse_pair(args.target)
    target = StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    state = run_bell(config, j, k).final_state
    readout = ReadoutModel(config.readout_fidelity, args.seed)
    shots = args.shots if args.shots > 0 else None
    result = tomography_two_qubit(state, j, k, shots, readout, target=target)
    report = Report(_manifest(args, {"target": args.target, "shots": args.shots}))
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
    return report


def _cmd_spectroscopy(args, config: DeviceConfig) -> Report:
    _check_count("--points", args.points, 3)  # a crossing needs a three-point bracket
    grid = default_bias_grid(config, args.points)
    scan = synth_spectroscopy(config, grid)
    crossings = extract_tls_parameters(scan)
    report = Report(_manifest(args, {"points": args.points}))
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
    return report


def _cmd_rwa_check(args, config: DeviceConfig) -> Report:
    report = Report(_manifest(args, {"tls": args.tls}))
    targets = (
        [(args.tls, config.tls_params(args.tls))]
        if args.tls is not None
        else list(enumerate(config.tls, start=1))
    )
    for j, tls in targets:
        tuned = dataclasses.replace(config, omega10=tls.omega_r)
        infid = rwa_infidelity(tuned, j, tuned.swap_time(j))
        report.add(f"rwa_infidelity_{tls.id}", infid)
        report.add(f"coupling_ratio_{tls.id}", tls.coupling / tls.omega_r)
    return report


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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"phasebus: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"phasebus: invalid config: {exc}", file=sys.stderr)
        return 3

    try:
        report = _HANDLERS[args.command](args, config)
    except UsageError as exc:
        print(f"phasebus: {args.command}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"phasebus: invalid config: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, ValueError) as exc:
        print(f"phasebus: {args.command}: {exc}", file=sys.stderr)
        return 4

    try:
        emit_report(report, args.out)
    except OSError as exc:
        print(f"phasebus: cannot write output: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
