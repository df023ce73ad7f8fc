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
- ``witness`` w3 ``--decomposed``, c4, w5 and c10, each with 50 shots and
  ``--emit-shots``; exact ``witness`` w8 and w10; exact ``tomo`` and
  ``tomo`` with 1000 shots; ``spectroscopy --points 3``. These run at the
  demo readout fidelity (0.96), so report flips fire, unlike in
  ``lab-day``, which reads out at ``--readout-f 1``
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
- every demo script

stderr is not compared: warnings carry source paths and line numbers.
Exits 1 when anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

CONFIG = workloads.DEMO_CONFIG
EXTRA = {
    "witness-w3-decomposed": ["witness", "--target", "w3", "--decomposed",
                              "--shots", "50", "--emit-shots"],
    "witness-c4": ["witness", "--target", "c4", "--shots", "50", "--emit-shots"],
    "witness-w5": ["witness", "--target", "w5", "--shots", "50", "--emit-shots"],
    "witness-c10": ["witness", "--target", "c10", "--shots", "50", "--emit-shots"],
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
}


def cases() -> dict[str, list[str]]:
    """Case name -> argv, relative to a run directory."""
    phasebus = [sys.executable, "-m", "phasebus"]
    out = {}
    for workload in ("lab-day", "w-witness"):
        for seed in (1, 2):
            workdir = os.path.join("out", f"{workload}-seed{seed}")
            for exp in workloads.experiments(workload, seed, workdir):
                out[exp.out] = phasebus + exp.argv(seed)
    for name, args in EXTRA.items():
        out[name] = phasebus + args + ["--config", CONFIG, "--seed", "1",
                                       "--out", os.path.join("out", name)]
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            out[demo] = [sys.executable, os.path.join("demos", demo)]
    return out


def run_tree(src: str, rundir: str) -> dict[str, tuple[int, bytes]]:
    """Run every case against ``src``; case name -> (exit code, stdout)."""
    shutil.copytree(os.path.join(ROOT, "demos"), os.path.join(rundir, "demos"))
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
