"""The benchmark's workloads: seeded inputs, experiment lists and the
correctness check of every experiment's report.

Every experiment is one ``phasebus`` command. Its check gets the rows of
the ``report.csv`` it wrote and its output directory, and returns a list of
broken conditions; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEMO_CONFIG = os.path.join("demos", "device_config.json")

WORKLOADS = ("lab-day", "w-witness", "full-model")

WHY = {
    "lab-day": "the README's everyday experiment set: process start and import, "
               "cluster correction search, few-setting many-shot sampling, "
               "spectroscopy sweep, report writing",
    "w-witness": "the W_N witness path: Pauli expansion, greedy grouping, "
                 "term-by-term exact values, hundreds of few-shot settings",
    "full-model": "the only path through full_hamiltonian, the dense eigh in evolve "
                  "and rotating_frame_transform, at two register sizes",
}


@dataclass
class Experiment:
    name: str
    args: list
    check: object  # callable(rows, outdir) -> list[str]
    config: str
    out: str = ""

    def argv(self, seed):
        return self.args + ["--config", self.config, "--seed", str(seed), "--out", self.out]


def read_report(outdir):
    """metric -> (value, stderr) text from a report.csv."""
    with open(os.path.join(outdir, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: (r[1], r[2]) for r in rows[1:]}


def _num(rows, key):
    return float(rows[key][0])


# checks -------------------------------------------------------------------------


def check_fidelity(rows, outdir):
    f = _num(rows, "target_fidelity")
    return [] if f >= 1 - 1e-9 else [f"target_fidelity {f!r} < 1 - 1e-9"]


def check_cluster(n):
    def check(rows, outdir):
        bad = []
        f = _num(rows, "best_corrected_fidelity")
        if f < 1 - 1e-6:
            bad.append(f"best_corrected_fidelity {f!r} < 1 - 1e-6")
        for k in range(1, n + 1):
            s = _num(rows, f"stabilizer_{k}")
            if abs(s - 1.0) > 1e-9:
                bad.append(f"stabilizer_{k} {s!r} not within 1e-9 of +1")
        return bad
    return check


def check_witness(exact_target):
    def check(rows, outdir):
        bad = []
        exact = _num(rows, "exact_value")
        if abs(exact - exact_target) > 1e-9:
            bad.append(f"exact_value {exact!r} not within 1e-9 of {exact_target!r}")
        estimate, stderr = float(rows["estimate"][0]), float(rows["estimate"][1])
        if not abs(estimate - exact) <= 5 * stderr + 1e-9:
            bad.append(f"estimate {estimate!r} +- {stderr!r} misses exact {exact!r}")
        return bad
    return check


def min_eigenvalue(outdir):
    re = np.loadtxt(os.path.join(outdir, "rho_real.csv"), delimiter=",", skiprows=1)
    im = np.loadtxt(os.path.join(outdir, "rho_imag.csv"), delimiter=",", skiprows=1)
    return float(np.linalg.eigvalsh(re + 1j * im).min())


def check_tomo(shots):
    # A pure target reconstructed by linear inversion from finite shots has
    # eigenvalues that scatter around 0 by ~1/sqrt(shots), so the smallest is
    # almost always slightly negative and ``physical`` is 0. The check holds
    # it to five times that scatter, and holds ``physical`` to its definition.
    floor = -5.0 / math.sqrt(shots)

    def check(rows, outdir):
        bad = []
        f = _num(rows, "fidelity_vs_target")
        if f < 0.99:
            bad.append(f"fidelity_vs_target {f!r} < 0.99")
        lam = min_eigenvalue(outdir)
        if lam < floor:
            bad.append(f"smallest eigenvalue {lam!r} < {floor!r}")
        if rows["physical"][0] != str(int(lam >= -1e-6)):
            bad.append(f"physical {rows['physical'][0]} disagrees with eigenvalue {lam!r}")
        return bad
    return check


def check_spectroscopy(num_tls):
    def check(rows, outdir):
        bad = []
        found = int(rows["crossings_found"][0])
        if found != num_tls:
            bad.append(f"crossings_found {found} != {num_tls}")
        errs = {k: float(v[0]) for k, v in rows.items() if k.endswith("_splitting_rel_err")}
        if len(errs) != num_tls:
            bad.append(f"{len(errs)} splitting errors reported, expected {num_tls}")
        bad += [f"{k} {v!r} > 1e-3" for k, v in errs.items() if not v <= 1e-3]
        return bad
    return check


def check_rwa(reference):
    """``reference`` maps TLS id -> infidelity computed by ``rwa_reference``."""
    def check(rows, outdir):
        bad = []
        for tls_id, ref in reference.items():
            key = f"rwa_infidelity_{tls_id}"
            if key not in rows:
                bad.append(f"{key} missing")
                continue
            got = float(rows[key][0])
            if not (math.isfinite(got) and abs(got - ref) <= 1e-10):
                bad.append(f"{key} {got!r} differs from reference {ref!r}")
        extra = {k for k in rows if k.startswith("rwa_infidelity_")} - {
            f"rwa_infidelity_{i}" for i in reference}
        bad += [f"unexpected row {k}" for k in sorted(extra)]
        return bad
    return check


def run_check(exp, outdir):
    """Broken conditions of one finished experiment (empty when correct)."""
    try:
        return exp.check(read_report(outdir), outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]


# full-model reference -----------------------------------------------------------


def _device(config_dict):
    """(TLS ids, omega_r rad/s, coupling rad/s), sorted by omega_r as the
    device model orders them."""
    rows = sorted(config_dict["tls"], key=lambda r: float(r["omega_r_ghz"]))
    ids = [str(r["id"]) for r in rows]
    omega = np.array([float(r["omega_r_ghz"]) * 2e9 * np.pi for r in rows])
    coupling = np.array([np.pi * float(r["splitting_mhz"]) * 1e6 for r in rows])
    return ids, omega, coupling


def rwa_reference(config_dict, j):
    """Infidelity of the full bus + TLS evolution against the ideal exchange
    window on TLS j (1-based), bus tuned to TLS j, from |1, g, ..., g> for
    the full-swap time.

    Written independently of phasebus: every X_bus X_k coupling flips two
    bits, so the evolution stays in the odd-excitation half of the basis,
    which is diagonalized on its own.
    """
    _, omega_r, coupling = _device(config_dict)
    n = len(omega_r) + 1
    omega = np.concatenate([[omega_r[j - 1]], omega_r])  # qubit 0 is the bus
    t = np.pi / (2.0 * coupling[j - 1])

    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    odd = idx[bits.sum(axis=1) % 2 == 1]
    pos = {int(b): p for p, b in enumerate(odd)}
    z = 1 - 2 * bits[odd]  # +1 for |0>/|g>
    h = np.diag(-(z @ omega) / 2.0)
    for k in range(1, n):
        flip = odd ^ (1 | (1 << k))
        rows = np.arange(odd.size)
        cols = np.array([pos[int(f)] for f in flip])
        h[rows, cols] = -coupling[k - 1]

    w, v = np.linalg.eigh(h)
    psi0 = np.zeros(odd.size)
    psi0[pos[1]] = 1.0
    full = v @ (np.exp(-1j * w * t) * (v.T @ psi0))
    framed = full * np.exp(-1j * (omega[0] * t / 2.0) * z.sum(axis=1))

    c, s = np.cos(coupling[j - 1] * t), np.sin(coupling[j - 1] * t)
    overlap = c * framed[pos[1]] + 1j * s * framed[pos[1 << j]]
    return 1.0 - float(abs(overlap) ** 2)


# workloads ----------------------------------------------------------------------


def experiments(workload, seed, workdir):
    """The fixed experiment list of one pass, with seeded inputs written
    under ``workdir``."""
    if workload == "lab-day":
        f1 = ["--readout-f", "1"]
        exps = [
            Experiment("w-state", ["w-state", "--n", "10"], check_fidelity, DEMO_CONFIG),
            Experiment("bell", ["bell", "--target", "bell:1:2"], check_fidelity, DEMO_CONFIG),
            Experiment("cluster", ["cluster", "--n", "10", "--search-corrections"],
                       check_cluster(10), DEMO_CONFIG),
            Experiment("witness-c10", ["witness", "--target", "c10", "--shots", "100000", *f1],
                       check_witness(-1.0), DEMO_CONFIG),
            Experiment("witness-w3", ["witness", "--target", "w3", "--decomposed",
                                      "--shots", "100000", *f1],
                       check_witness(-1.0 / 3.0), DEMO_CONFIG),
            Experiment("tomo", ["tomo", "--target", "bell:1:2", "--shots", "100000", *f1],
                       check_tomo(100000), DEMO_CONFIG),
            Experiment("spectroscopy", ["spectroscopy", "--points", "2000"],
                       check_spectroscopy(10), DEMO_CONFIG),
        ]
    elif workload == "w-witness":
        exps = [
            Experiment(f"witness-w{n}", ["witness", "--target", f"w{n}", "--shots", "1000",
                                         "--readout-f", "1"],
                       check_witness(-1.0 / n), DEMO_CONFIG)
            for n in (5, 6, 7)
        ]
    elif workload == "full-model":
        from phasebus import example_config_dict

        k = seed % 10 + 1
        with open(DEMO_CONFIG) as fh:
            demo = json.load(fh)
        small = example_config_dict(8, seed)
        small_path = os.path.join(workdir, "tls8.json")
        with open(small_path, "w") as fh:
            json.dump(small, fh, indent=2)
        demo_ids = _device(demo)[0]
        small_ids = _device(small)[0]
        exps = [
            Experiment(f"rwa-check-tls{k}", ["rwa-check", "--tls", str(k)],
                       check_rwa({demo_ids[k - 1]: rwa_reference(demo, k)}), DEMO_CONFIG),
            Experiment("rwa-check-8tls", ["rwa-check"],
                       check_rwa({tid: rwa_reference(small, j)
                                  for j, tid in enumerate(small_ids, start=1)}),
                       small_path),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, exp in enumerate(exps):
        exp.out = os.path.join(workdir, f"{i}-{exp.name}")
    return exps
