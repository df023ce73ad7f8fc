"""Run the same phasebus commands against two source trees and report every
difference in exit code, stdout or output file.

Usage (from anywhere):

    python3 tools/compare_outputs.py OLD/src NEW/src [--work DIR]

Each tree runs in its own directory under ``--work`` (a fresh temporary
directory, removed afterwards, by default), which holds a copy of this
repository's ``demos/``. Every command runs there with the same relative
``--config`` and ``--out`` paths, so the manifests match byte for byte. The
commands are:

- the ``lab-day`` and ``w-witness`` experiment lists of
  ``bench/workloads.py``, for seeds 1 and 2
- the commands of its ``full-model`` list, for the same seeds:
  ``rwa-check --tls k`` on the demo config, with k = seed mod 10 + 1, and
  a full ``rwa-check`` on ``example_config_dict(8, seed)``, written into
  each run directory beside the demo config
- ``witness`` w3 ``--decomposed``, c4, c5, w5 and c10, each with 50 shots
  and ``--emit-shots``; exact ``witness`` c7, w8 and w10; exact ``tomo`` and
  ``tomo`` with 1000 shots; ``spectroscopy --points 3``. These run at the
  demo readout fidelity (0.96), so report flips fire, unlike in
  ``lab-day``, which reads out at ``--readout-f 1``. The odd chains c5
  and c7 have stabilizer groups of unequal size, unlike c4 and c10
- at the same fidelity, shot counts that cross the sampler's uniform-draw
  blocks of 4,096 shots: ``witness`` c4 with 3 * 4096 + 7 shots and
  ``--emit-shots``, ``witness`` w6 with 4096 + 1 shots and
  ``--emit-shots`` (collective Bloch directions, a full block and a
  partial last block in the reused draw buffer), and ``tomo`` with
  4096 + 1 shots
- the largest register through the one-qubit basis rotations: ``witness``
  w10 with 50 shots
- targets listed in descending qubit order, which reach the gate
  calculus, the partial trace and the sampler unsorted: exact ``tomo
  --target bell:2:1`` and with 1000 shots, and ``bell --target bell:3:1``
- protocol runs where most TLSs are spectators in |g>, which the
  TLS-register slice and the correction search skip: ``cluster --n 2
  --search-corrections``, ``w-state --n 1``, ``bell --target bell:9:10``
  and ``tomo --target bell:3:7`` with 1000 shots
- every command the lists above leave out, since each command handler
  imports its own layers: ``rwa-check --tls 1``, ``w-state --n 3 --mode
  paper-n3``, ``cluster --n 4 --bus-init ground`` and exact ``witness`` c4;
  and the error exits of ``witness`` c4 with ``--decomposed`` (4) or
  ``--shots 1`` (2), and of ``bell --target bell:1`` (2)
- ``spectroscopy`` on coarse and middle grids, whose calibration stops
  early or prunes differently from the 2,000-point sweep: ``--points`` 12,
  20, 50 and 300
- a copy of the demo config with its ``tls`` list reversed, which the
  device sorts back into frequency order: ``spectroscopy --points 300``
  and ``w-state --n 10``
- ``tomo --target bell:3:1`` with 4096 + 1 shots: a descending pair across
  a draw block, at the demo readout fidelity
- the exact per-term cluster sum at its smallest sizes, where a stabilizer
  group has a single site: exact ``witness`` c2 and c3; and the density
  matrix assembled on the last TLS pair: exact ``tomo --target bell:9:10``
- a descending pair that spans the register, whose windows run on the bus
  with TLS 10 and with TLS 1 and whose Born distribution covers TLS 1 and
  10: ``tomo --target bell:10:1``, exact and with 1000 shots
- a full-device ``rwa-check`` (no ``--tls``), which tunes the bus onto
  each of the ten TLSs in turn
- the two sides of the pattern-width boundary, where a shot's outcome
  pattern moves from one byte to two: ``witness`` w8 and w9, each with 50
  shots and ``--emit-shots``, at the demo readout fidelity; and ``tomo``
  with 3 * 4096 + 7 shots, whose pattern counts run block by block into a
  partial last block
- registers longer than the ten-TLS device, which must exit 4 before
  anything 2^n-sized is built and write no output: ``cluster --n 11``,
  ``witness --target c11`` and ``witness --target w11``
- a copy of the demo config without its optional ``readout_fidelity`` and
  ``omega_p0_ghz``: ``w-state --n 3``, ``tomo --target bell:1:2 --shots
  1000`` (read out at the default F = 1) and ``spectroscopy --points 50``,
  which exits 4 with no bias model and writes no output
- a copy of the demo config whose TLS ids hold a comma or a double quote
  (``TLS,1``, ``TLS"2``, ...), so the metric names of ``report.csv`` are
  quoted: a full ``rwa-check`` and ``spectroscopy --points 50``
- the cluster correction search at every chain length: ``cluster --n N
  --search-corrections`` for N = 3, 5, 6, 7, 8 and 9, ``cluster --n 10
  --bus-init ground --search-corrections`` and exact ``witness`` c6, c8
  and c9.  Every cluster run searches both bus preparations, so with the
  lists above each length from 2 to 10 goes through the search under both
- ``spectroscopy --points 2000``, the benchmark's grid, on the two 8-TLS
  configs above and on a crowded 9-TLS config written beside them, whose
  TLS T1 splits wider than its spacing: its calibration stops on a gap
  minimum at the scan edge, so the edge fallback and the dip test that
  follows it are compared at 2,000 points too
- every demo script

stderr is not compared: warnings carry source paths and line numbers.
Exits 1 when anything differs, 0 otherwise. Exits 2 before running anything
when a ``src`` path holds no ``phasebus`` package (every command would fail
alike in both trees) or ``--work`` names anything but an empty directory.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from phasebus import example_config_dict  # noqa: E402

CONFIG = workloads.DEMO_CONFIG
EXTRA = {
    "witness-w3-decomposed": ["witness", "--target", "w3", "--decomposed",
                              "--shots", "50", "--emit-shots"],
    "witness-c4": ["witness", "--target", "c4", "--shots", "50", "--emit-shots"],
    "witness-c5": ["witness", "--target", "c5", "--shots", "50", "--emit-shots"],
    "witness-w5": ["witness", "--target", "w5", "--shots", "50", "--emit-shots"],
    "witness-c10": ["witness", "--target", "c10", "--shots", "50", "--emit-shots"],
    "witness-c7-exact": ["witness", "--target", "c7"],
    "witness-w8-exact": ["witness", "--target", "w8"],
    "witness-w10-exact": ["witness", "--target", "w10"],
    "tomo-exact": ["tomo", "--target", "bell:1:2"],
    "tomo-1000": ["tomo", "--target", "bell:1:2", "--shots", "1000"],
    "spectroscopy-3": ["spectroscopy", "--points", "3"],
    "witness-c4-blocks": ["witness", "--target", "c4", "--shots", "12295", "--emit-shots"],
    "witness-w6-blocks": ["witness", "--target", "w6", "--shots", "4097", "--emit-shots"],
    "witness-w10-50": ["witness", "--target", "w10", "--shots", "50"],
    "tomo-blocks": ["tomo", "--target", "bell:1:2", "--shots", "4097"],
    "tomo-reversed-exact": ["tomo", "--target", "bell:2:1"],
    "tomo-reversed-1000": ["tomo", "--target", "bell:2:1", "--shots", "1000"],
    "bell-reversed": ["bell", "--target", "bell:3:1"],
    "cluster-2-search": ["cluster", "--n", "2", "--search-corrections"],
    "w-state-1": ["w-state", "--n", "1"],
    "bell-9-10": ["bell", "--target", "bell:9:10"],
    "tomo-3-7-1000": ["tomo", "--target", "bell:3:7", "--shots", "1000"],
    "rwa-check-1": ["rwa-check", "--tls", "1"],
    "w-state-3-paper": ["w-state", "--n", "3", "--mode", "paper-n3"],
    "cluster-4-ground": ["cluster", "--n", "4", "--bus-init", "ground"],
    "witness-c4-exact": ["witness", "--target", "c4"],
    "witness-c4-decomposed": ["witness", "--target", "c4", "--decomposed"],
    "witness-c4-one-shot": ["witness", "--target", "c4", "--shots", "1"],
    "bell-malformed": ["bell", "--target", "bell:1"],
    "spectroscopy-12": ["spectroscopy", "--points", "12"],
    "spectroscopy-20": ["spectroscopy", "--points", "20"],
    "spectroscopy-50": ["spectroscopy", "--points", "50"],
    "spectroscopy-300": ["spectroscopy", "--points", "300"],
    "tomo-3-1-blocks": ["tomo", "--target", "bell:3:1", "--shots", "4097"],
    "witness-c2-exact": ["witness", "--target", "c2"],
    "witness-c3-exact": ["witness", "--target", "c3"],
    "tomo-9-10-exact": ["tomo", "--target", "bell:9:10"],
    "tomo-10-1-exact": ["tomo", "--target", "bell:10:1"],
    "tomo-10-1-1000": ["tomo", "--target", "bell:10:1", "--shots", "1000"],
    "rwa-check-all": ["rwa-check"],
    "witness-w8-emit": ["witness", "--target", "w8", "--shots", "50", "--emit-shots"],
    "witness-w9-emit": ["witness", "--target", "w9", "--shots", "50", "--emit-shots"],
    "tomo-partial-block": ["tomo", "--target", "bell:1:2", "--shots", "12295"],
    "cluster-11": ["cluster", "--n", "11"],
    "witness-c11": ["witness", "--target", "c11"],
    "witness-w11": ["witness", "--target", "w11"],
    **{f"cluster-{n}-search": ["cluster", "--n", str(n), "--search-corrections"]
       for n in (3, 5, 6, 7, 8, 9)},
    "cluster-10-ground-search": ["cluster", "--n", "10", "--bus-init", "ground",
                                 "--search-corrections"],
    **{f"witness-c{n}-exact": ["witness", "--target", f"c{n}"] for n in (6, 8, 9)},
}
# the demo config with its TLS list reversed, written into each run directory
REVERSED_CONFIG = os.path.join("demos", "device_config_reversed.json")
REVERSED = {
    "spectroscopy-300-reversed": ["spectroscopy", "--points", "300"],
    "w-state-10-reversed": ["w-state", "--n", "10"],
}
# the demo config without its optional keys, written beside it
MINIMAL_CONFIG = os.path.join("demos", "device_config_minimal.json")
MINIMAL = {
    "w-state-3-minimal": ["w-state", "--n", "3"],
    "tomo-1000-minimal": ["tomo", "--target", "bell:1:2", "--shots", "1000"],
    "spectroscopy-50-minimal": ["spectroscopy", "--points", "50"],
}
# the demo config with CSV-quoted TLS ids, written beside it
QUOTED_CONFIG = os.path.join("demos", "device_config_quoted.json")
QUOTED = {
    "rwa-check-all-quoted": ["rwa-check"],
    "spectroscopy-50-quoted": ["spectroscopy", "--points", "50"],
}
# a 9-TLS config whose T1 splitting exceeds its spacing to T2, written
# beside the demo config
CROWDED_CONFIG = os.path.join("demos", "device_config_tls9_crowded.json")
CROWDED_TLS = [(5.01671, 29.722), (5.112652, 91.722), (5.192194, 46.517),
               (5.303341, 47.748), (5.411604, 20.72), (5.510599, 90.213),
               (5.599926, 58.727), (5.718418, 82.606), (5.840489, 76.568)]
SPECTROSCOPY_2000 = ["spectroscopy", "--points", "2000"]
SEEDS = (1, 2)


def tls8_config(seed: int) -> str:
    """The 8-TLS config of the full-model workload at ``seed``, written
    beside the demo config."""
    return os.path.join("demos", f"device_config_tls8_seed{seed}.json")


def cases() -> dict[str, list[str]]:
    """Case name -> argv, relative to a run directory."""
    phasebus = [sys.executable, "-m", "phasebus"]
    out = {}
    for workload in ("lab-day", "w-witness"):
        for seed in SEEDS:
            workdir = os.path.join("out", f"{workload}-seed{seed}")
            for exp in workloads.experiments(workload, seed, workdir):
                out[exp.out] = phasebus + exp.argv(seed)
    for seed in SEEDS:
        k = seed % 10 + 1
        full_model = {f"rwa-check-tls{k}": (["rwa-check", "--tls", str(k)], CONFIG),
                      "rwa-check-8tls": (["rwa-check"], tls8_config(seed))}
        for name, (args, config) in full_model.items():
            outdir = os.path.join("out", f"full-model-seed{seed}", name)
            out[outdir] = phasebus + args + ["--config", config, "--seed", str(seed),
                                             "--out", outdir]
    grid_2000 = [(tls8_config(seed), {f"spectroscopy-2000-tls8-seed{seed}": SPECTROSCOPY_2000})
                 for seed in SEEDS]
    grid_2000.append((CROWDED_CONFIG, {"spectroscopy-2000-crowded": SPECTROSCOPY_2000}))
    for config, extra in ((CONFIG, EXTRA), (REVERSED_CONFIG, REVERSED),
                          (MINIMAL_CONFIG, MINIMAL), (QUOTED_CONFIG, QUOTED),
                          *grid_2000):
        for name, args in extra.items():
            out[name] = phasebus + args + ["--config", config, "--seed", "1",
                                           "--out", os.path.join("out", name)]
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            out[demo] = [sys.executable, os.path.join("demos", demo)]
    return out


def run_tree(src: str, rundir: str) -> dict[str, tuple[int, bytes]]:
    """Run every case against ``src``; case name -> (exit code, stdout)."""
    shutil.copytree(os.path.join(ROOT, "demos"), os.path.join(rundir, "demos"))
    with open(os.path.join(rundir, CONFIG)) as fh:
        config = json.load(fh)
    variants = {
        REVERSED_CONFIG: dict(config, tls=config["tls"][::-1]),
        MINIMAL_CONFIG: dict(config, device={"omega10_ghz": config["device"]["omega10_ghz"]}),
        QUOTED_CONFIG: dict(config, tls=[
            dict(row, id=row["id"].replace("-", (",", '"')[k % 2]))
            for k, row in enumerate(config["tls"])
        ]),
        **{tls8_config(seed): example_config_dict(8, seed) for seed in SEEDS},
        CROWDED_CONFIG: {
            "device": {"omega10_ghz": 6.0, "omega_p0_ghz": 7.6},
            "tls": [{"id": f"T{k}", "omega_r_ghz": f, "splitting_mhz": d}
                    for k, (f, d) in enumerate(CROWDED_TLS)],
        },
    }
    for path, variant in variants.items():
        with open(os.path.join(rundir, path), "w") as fh:
            json.dump(variant, fh, indent=2)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    results = {}
    for name, argv in cases().items():
        proc = subprocess.run(argv, cwd=rundir, env=env, capture_output=True)
        results[name] = (proc.returncode, proc.stdout)
    return results


def files_under(top: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), top)
        for d, _, names in os.walk(top)
        for f in names
    }


def show_diff(label: str, a: bytes, b: bytes) -> None:
    lines = difflib.unified_diff(
        a.decode(errors="replace").splitlines(),
        b.decode(errors="replace").splitlines(),
        "old", "new", lineterm="", n=0,
    )
    print(f"DIFF {label}")
    for line in list(lines)[:20]:
        print(f"    {line}")


def compare(old_dir: str, new_dir: str, old_runs: dict, new_runs: dict) -> int:
    differences = 0
    for name in old_runs:
        (old_code, old_out), (new_code, new_out) = old_runs[name], new_runs[name]
        if old_code != new_code:
            print(f"DIFF {name}: exit code {old_code} -> {new_code}")
            differences += 1
        if old_out != new_out:
            show_diff(f"{name}: stdout", old_out, new_out)
            differences += 1
    old_files = files_under(os.path.join(old_dir, "out"))
    new_files = files_under(os.path.join(new_dir, "out"))
    for rel in sorted(old_files ^ new_files):
        side = "old" if rel in old_files else "new"
        print(f"DIFF {rel}: only in {side}")
        differences += 1
    for rel in sorted(old_files & new_files):
        with open(os.path.join(old_dir, "out", rel), "rb") as fh:
            a = fh.read()
        with open(os.path.join(new_dir, "out", rel), "rb") as fh:
            b = fh.read()
        if a != b:
            show_diff(rel, a, b)
            differences += 1
    print(f"{len(old_runs)} commands, {len(old_files | new_files)} output files, "
          f"{differences} differences")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="src directory of the old tree")
    parser.add_argument("new_src", help="src directory of the new tree")
    parser.add_argument("--work", help="run directory (kept); default: temporary")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "phasebus", "__init__.py")):
            print(f"compare_outputs: no phasebus package under {src}", file=sys.stderr)
            return 2
    if args.work and os.path.lexists(args.work) and (
        not os.path.isdir(args.work) or os.listdir(args.work)
    ):
        print(f"compare_outputs: --work {args.work} is not an empty directory",
              file=sys.stderr)
        return 2

    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        dirs = [os.path.join(work, "old"), os.path.join(work, "new")]
        runs = []
        for src, rundir in zip((args.old_src, args.new_src), dirs):
            os.makedirs(rundir)
            runs.append(run_tree(src, rundir))
        return 1 if compare(*dirs, *runs) else 0
    finally:
        if args.work is None:
            shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
