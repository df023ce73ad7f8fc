"""Median child CPU and peak RSS of every benchmark experiment, on two source
trees, measured from a small parent process.

Usage (from anywhere):

    python3 tools/child_usage.py OLD/src NEW/src [--rounds N] [--seed S]

A child's ``ru_maxrss`` is a high-water mark that survives ``exec``, so it
counts the resident size of the process that spawned it. The benchmark's
parent, ``bench/run.py``, holds numpy, so every child it spawns reads at
least that parent's size, and a child that needs less shows no change. This
tool imports neither numpy nor phasebus: one helper process imports
``bench/workloads.py`` (read-only, as ``tools/compare_outputs.py`` does),
writes the experiments' inputs and lists their command lines, which this
process then runs.

Each round runs every experiment of the ``lab-day``, ``w-witness`` and
``full-model`` lists once per tree as ``python -m phasebus``, alternating
which tree goes first, with one BLAS thread as the benchmark runs them. Each
child's user plus system CPU and its peak RSS come from ``os.wait4``. The
table gives the median over the rounds per experiment and tree, and beside
each CPU median its first and third quartiles (``statistics.quantiles``, as
``bench/run.py`` takes them), so a move can be told from host noise. Exits 1 if
any child fails, naming it, and 2 when a ``src`` path holds no ``phasebus``
package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
WORKLOADS = ("lab-day", "w-witness", "full-model")

# run by the helper process, in the run directory: argv is the bench
# directory, this repository's src (for example_config_dict), the seed and
# the workloads; prints [[label, argv], ...]
LIST_CODE = """
import json, os, sys
sys.path[:0] = sys.argv[1:3]
import workloads
seed = int(sys.argv[3])
out = []
for workload in json.loads(sys.argv[4]):
    workdir = os.path.join("out", workload)
    os.makedirs(workdir)
    for exp in workloads.experiments(workload, seed, workdir):
        out.append([f"{workload}/{exp.name}", exp.argv(seed)])
print(json.dumps(out))
"""


def list_experiments(rundir: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, phasebus arguments) of every benchmark experiment, with their
    inputs written under ``rundir``."""
    proc = subprocess.run(
        [sys.executable, "-c", LIST_CODE, os.path.join(ROOT, "bench"),
         os.path.join(ROOT, "src"), str(seed), json.dumps(WORKLOADS)],
        cwd=rundir, env=dict(os.environ, **BLAS_ENV), capture_output=True, text=True,
        check=True,
    )
    return [(label, argv) for label, argv in json.loads(proc.stdout)]


def spawn(argv: list[str], env: dict, rundir: str) -> tuple[int, float, float]:
    """(exit code, CPU seconds, peak RSS MB) of one child run to completion."""
    with open(os.path.join(rundir, "child.stderr"), "w") as err:
        proc = subprocess.Popen(argv, cwd=rundir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def measure(srcs: list[str], rounds: int, seed: int, rundir: str):
    """label -> per-tree lists of (CPU seconds, peak RSS MB) samples."""
    shutil.copytree(os.path.join(ROOT, "demos"), os.path.join(rundir, "demos"))
    exps = list_experiments(rundir, seed)
    envs = [dict(os.environ, PYTHONPATH=os.path.abspath(src), **BLAS_ENV) for src in srcs]
    samples = {label: ([], []) for label, _ in exps}
    for r in range(rounds):
        for label, args in exps:
            for tree in (0, 1) if r % 2 == 0 else (1, 0):
                out = args[args.index("--out") + 1]
                shutil.rmtree(os.path.join(rundir, out), ignore_errors=True)
                code, cpu, rss = spawn([sys.executable, "-m", "phasebus", *args],
                                       envs[tree], rundir)
                if code != 0:
                    with open(os.path.join(rundir, "child.stderr")) as fh:
                        tail = fh.read()[-400:]
                    raise RuntimeError(f"{label} on {srcs[tree]} exited {code}: {tail}")
                samples[label][tree].append((cpu, rss))
    return samples


def quartiles(xs) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is all three."""
    return tuple(statistics.quantiles(xs, n=4)) if len(xs) > 1 else (xs[0],) * 3


def table(samples) -> str:
    lines = [f"{'experiment':<28} {'cpu_s A':>8} {'q1 A':>6} {'q3 A':>6} "
             f"{'cpu_s B':>8} {'q1 B':>6} {'q3 B':>6} {'rss_mb A':>9} {'rss_mb B':>9}"]
    for label, trees in samples.items():
        cpu = [quartiles([s[0] for s in tree]) for tree in trees]
        rss = [statistics.median(s[1] for s in tree) for tree in trees]
        lines.append(f"{label:<28} "
                     + " ".join(f"{med:>8.3f} {q1:>6.3f} {q3:>6.3f}" for q1, med, q3 in cpu)
                     + f" {rss[0]:>9.2f} {rss[1]:>9.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="src directory of tree A")
    parser.add_argument("src_b", help="src directory of tree B")
    parser.add_argument("--rounds", type=int, default=9, help="runs per experiment and tree")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for src in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(src, "phasebus", "__init__.py")):
            print(f"child_usage: no phasebus package under {src}", file=sys.stderr)
            return 2

    rundir = tempfile.mkdtemp(prefix="child_usage_")
    try:
        samples = measure([args.src_a, args.src_b], args.rounds, args.seed, rundir)
    except RuntimeError as exc:
        print(f"child_usage: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir)
    print(f"A = {args.src_a}\nB = {args.src_b}\n"
          f"medians (CPU also quartiles) of {args.rounds} rounds, seed {args.seed}")
    print(table(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
