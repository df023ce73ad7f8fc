"""phasebus benchmark: run a workload's experiments as fresh CLI processes.

Usage (from the repository root):

    python3 bench/run.py --workload lab-day --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

Load model: a closed loop with one client. One experiment process runs at
a time and the next starts when it has exited; every experiment is a fresh
``python -m phasebus`` process, as users run it, so caches inside a process
never carry over. A pass is one run of the workload's fixed experiment list;
passes repeat while the next one is expected to end within ``--seconds``
(at least one runs).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import phasebus and load the workload's config),
``cpu_s`` (the sum over the experiment list of each experiment's median
CPU time over the run) and ``peak_rss_mb`` (median per-pass largest child
resident set). Both times are CPU seconds at a fixed reference speed of the
host (see ``Probes``). ``--trace 1`` alternates untraced passes with passes
whose experiments run under ``trace_child.py`` and reports the per-layer
metrics of ``tracing.py``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A results file with every sample and the
environment goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import numpy

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT, the working directory of every run

# Every experiment process runs BLAS on one thread (at most nproc). A second
# BLAS thread on a small shared host spins against other tenants' load and
# makes the many small products of the witness path far less repeatable.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_CODE = "import sys, phasebus; phasebus.load_config(sys.argv[1])"
EXPERIMENT_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

REFERENCE = os.path.join(BENCH, "reference_load.py")
REFERENCE_S = 0.30
PROBE_EVERY_S = 2.5
MIN_PROBES = 5


def spawn(argv, env, stderr_path):
    """Run one child to completion: (spawn-to-exit seconds, CPU seconds,
    peak RSS MB, exit code). CPU seconds are user plus system time of the
    child and everything it waited for. A child still running after
    EXPERIMENT_TIMEOUT_S is killed."""
    with open(stderr_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(EXPERIMENT_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def spawn_checked(argv, env, stderr_path, what):
    wall, cpu, _, code = spawn(argv, env, stderr_path)
    if code != 0:
        with open(stderr_path) as fh:
            raise RuntimeError(f"{what} failed ({code}): {fh.read()}")
    return wall, cpu


class Probes:
    """Set-up time and the host's speed, sampled through the run.

    A probe is one run of ``reference_load.py``, a fixed load that does not
    use phasebus, and one set-up process (interpreter start, ``import
    phasebus``, load the workload's config), both fresh processes. One
    unmeasured set-up process first compiles the bytecode, which users pay
    once, not per command. Probes are due every PROBE_EVERY_S from the
    first measured child on; before each measured child every probe that
    has fallen due runs, and after the last pass more run until there are
    MIN_PROBES. Long children are thus followed by several probes, and every
    workload spends about the same share of its run on them.

    ``scale()`` is REFERENCE_S over the mean of the middle half of the
    reference runs' CPU times: a CPU time times the scale is the time it
    would take at the speed where the reference load takes REFERENCE_S. The
    middle half drops reference runs caught in a burst, and its mean varies
    less from run to run than the median does.
    """

    def __init__(self, config, env, workdir):
        self.env = env
        self.setup_argv = [sys.executable, "-c", SETUP_CODE, config]
        self.stderr = os.path.join(workdir, "probe.stderr")
        self.samples = {k: [] for k in ("reference_cpu_s", "reference_wall_s",
                                        "setup_cpu_s", "setup_wall_s")}
        spawn_checked(self.setup_argv, env, self.stderr, "set-up process")
        self.due = None

    def _probe(self):
        for kind, argv in (("reference", [sys.executable, REFERENCE]),
                           ("setup", self.setup_argv)):
            wall, cpu = spawn_checked(argv, self.env, self.stderr, kind)
            self.samples[f"{kind}_wall_s"].append(wall)
            self.samples[f"{kind}_cpu_s"].append(cpu)
        self.due += PROBE_EVERY_S

    def before_child(self):
        if self.due is None:
            self.due = perf_counter()
        while perf_counter() >= self.due:
            self._probe()

    def finish(self):
        while len(self.samples["setup_cpu_s"]) < MIN_PROBES:
            self._probe()

    def scale(self):
        times = sorted(self.samples["reference_cpu_s"])
        quarter = len(times) // 4
        return REFERENCE_S / statistics.fmean(times[quarter:len(times) - quarter])


def run_pass(exps, seed, env, traced, workdir, probes=None):
    """One pass over the experiment list; returns per-experiment samples."""
    out = {"wall_s": [], "cpu_s": [], "rss_mb": [], "failures": [], "dumps": []}
    for i, exp in enumerate(exps):
        shutil.rmtree(exp.out, ignore_errors=True)
        spans = os.path.join(workdir, f"{i}.spans.json")
        prefix = ([sys.executable, os.path.join(BENCH, "trace_child.py"), spans]
                  if traced else [sys.executable, "-m", "phasebus"])
        stderr_path = os.path.join(workdir, f"{i}.stderr")
        if probes is not None:
            probes.before_child()
        wall, cpu, rss, code = spawn(prefix + exp.argv(seed), env, stderr_path)
        if code != 0:
            with open(stderr_path) as fh:
                tail = fh.read()[-400:]
            problems = [f"exit code {code}: {tail}"]
        else:
            problems = workloads.run_check(exp, exp.out)
        out["wall_s"].append(wall)
        out["cpu_s"].append(cpu)
        out["rss_mb"].append(rss)
        if problems:
            out["failures"].append({"experiment": exp.name, "problems": problems})
        if traced:
            with open(spans) as fh:
                out["dumps"].append(json.load(fh))
    return out


def summary(values):
    """Median, quartiles and sample count; with at least 20 samples also the
    highest percentile that has ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0], s[0], s[0])
    out = {"n": n, "median": statistics.median(s), "q1": q1, "q3": q3}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = s[n - 11]
    return out


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    exps = workloads.experiments(name, seed, workdir)
    result = {"workload": name, "why": workloads.WHY[name], "seed": seed,
              "seconds": seconds, "trace": trace,
              "experiments": [[exp.name] + exp.argv(seed) for exp in exps]}

    probes = None if trace else Probes(exps[0].config, env, workdir)
    # passes (or untraced/traced pairs) repeat while the next one, taking as
    # long as the last, still ends by the deadline
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        untraced.append(run_pass(exps, seed, env, False, workdir, probes))
        if trace:
            traced.append(run_pass(exps, seed, env, True, workdir))
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    passes = untraced + traced

    samples = {"pass_wall_s": [sum(p["wall_s"]) for p in untraced],
               "pass_cpu_s": [sum(p["cpu_s"]) for p in untraced]}
    if probes:
        probes.finish()
        samples.update(probes.samples)
        scale = probes.scale()
        result["scale"] = scale
        samples["setup_s"] = [t * scale for t in samples["setup_cpu_s"]]
        samples["cpu_s"] = [t * scale for t in samples["pass_cpu_s"]]
        # a typical pass: each experiment at its median over the whole run
        result["cpu_s"] = scale * sum(statistics.median(p["cpu_s"][i] for p in untraced)
                                      for i in range(len(exps)))
    samples["peak_rss_mb"] = [max(p["rss_mb"]) for p in untraced]
    for i, exp in enumerate(exps):
        samples[f"experiment.{exp.name}.wall_s"] = [p["wall_s"][i] for p in untraced]
        samples[f"experiment.{exp.name}.cpu_s"] = [p["cpu_s"][i] for p in untraced]
    attempted = sum(len(p["wall_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = []

    if trace:
        per_pass = [tracing.pass_metrics(p["dumps"]) for p in traced]
        traced_wall = [sum(p["wall_s"]) for p in traced]
        for m, wall in zip(per_pass, traced_wall):
            if m["trace.self_sum_s"] > wall:
                problems.append(f"layer self times {m['trace.self_sum_s']!r} s exceed "
                                f"traced wall {wall!r} s")
        samples["trace.wall_s"] = traced_wall
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.wall_s"] = statistics.median(traced_wall)
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / statistics.median(samples["pass_wall_s"]) - 1.0)
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        metrics = {k: statistics.median(samples[k]) for k in END_TO_END}
        metrics["cpu_s"] = result["cpu_s"]
        units = END_TO_END

    result.update(
        attempted=attempted, failed=len(failures), failures=failures,
        problems=problems, passes=len(untraced),
        failed_frac=len(failures) / attempted,
        summaries={k: summary(v) for k, v in samples.items()},
        samples=samples,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    return result


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "phasebus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "reference_s": REFERENCE_S,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "load_model": "closed loop, one client, one experiment process at a time",
    }


def print_human(result):
    print(f"== {result['workload']}  seed={result['seed']}  passes={result['passes']}  "
          f"failed_frac={result['failed']}/{result['attempted']}"
          f" = {result['failed_frac']:.4g}")
    for key, s in result["summaries"].items():
        extra = "".join(f"  {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"   {key:<44} n={s['n']:<3} median={s['median']:.6g}  "
              f"q1={s['q1']:.6g}  q3={s['q3']:.6g}{extra}")
    for key, m in result["metrics"].items():
        print(f"   metric {key:<48} {m['value']:.6g} {m['unit']}")
    for f in result["failures"] + result["problems"]:
        print(f"   FAILED {f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "phasebus", "cli.py"),
                           os.path.join(ROOT, workloads.DEMO_CONFIG))
               if not os.path.isfile(p)]
    if missing:
        print(f"bench: program files missing: {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    env = environment(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        result["environment"] = env
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        path = os.path.join(WORK, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print_human(result)
        results.append(result)

    single = len(results) == 1
    metrics = {(k if single else f"{r['workload']}.{k}"): m
               for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["failures"] and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
