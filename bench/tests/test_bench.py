"""Fast checks of the benchmark's own machinery; no timing assertions.

Run from the repository root: python -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import phasebus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _inputs(workload, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    exps = workloads.experiments(workload, seed, str(workdir))
    configs = {}
    for exp in exps:
        with open(exp.config) as fh:
            configs[exp.name] = fh.read()
    return [exp.argv(seed) for exp in exps], configs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs_repeat_and_differ(workload, at_root, tmp_path):
    first = _inputs(workload, 1, tmp_path / "a")
    again = _inputs(workload, 1, tmp_path / "a")
    other = _inputs(workload, 2, tmp_path / "a")
    assert first == again
    assert first != other


def _span(name, start, end, parent, raised=False, amount=0):
    return (list(tracing.WRAPPED).index(name), start, end, parent, raised, amount)


def test_self_time_on_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("protocols.run_w_protocol", 1.0, 4.0, 0),
        _span("states.apply_unitary", 2.0, 3.0, 1),
        _span("witnesses.group_settings", 5.0, 9.0, 0, amount=7),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    dump = {"import_s": 0.5, "names": list(tracing.WRAPPED), "spans": spans}
    m = tracing.pass_metrics([dump, dump])
    assert m["cli.main.self_s"] == 6.0
    assert m["states.apply_unitary.calls"] == 2
    assert m["witnesses.group_settings.settings"] == 14
    assert m["protocols.preparations_per_state"] == 1.0
    assert m["trace.self_sum_s"] == 2 * (0.5 + 10.0)


def test_errors_count_once_per_layer_exit():
    spans = [
        _span("cli.main", 0.0, 4.0, -1, raised=True),
        _span("protocols.run_w_protocol", 1.0, 3.0, 0, raised=True),
        _span("protocols.execute_schedule", 1.5, 2.5, 1, raised=True),
    ]
    m = tracing.pass_metrics([{"import_s": 0.0, "names": list(tracing.WRAPPED),
                               "spans": spans}])
    assert m["cli.errors"] == 1
    assert m["protocols.errors"] == 1
    assert m["states.errors"] == 0


def test_wrapper_counts_calls_through_importing_module():
    from phasebus import protocols, states

    original = states.apply_unitary
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert protocols.apply_unitary is not original
        state = states.ground_register(2)
        protocols.apply_unitary(state, protocols.SIGMA["X"], [0])
    finally:
        tracer.uninstall()
    assert protocols.apply_unitary is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["states.apply_unitary"]


def _fake_spawn(broken):
    """Stand-in for run.spawn: writes a W_N witness report instead of running
    phasebus, with ``exact_value`` edited for the experiments in ``broken``."""
    def spawn(argv, env, stderr_path):
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            n = int(argv[argv.index("--target") + 1][1:])
            exact = 0.5 if f"w{n}" in broken else -1.0 / n
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "report.csv"), "w") as fh:
                fh.write("metric,value,stderr,units\n")
                fh.write(f"exact_value,{exact!r},,dimensionless\n")
                fh.write(f"estimate,{-1.0 / n!r},0.01,dimensionless\n")
        return 0.01, 0.01, 1.0, 0
    return spawn


def test_edited_report_counts_in_failed_frac(at_root, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "spawn", _fake_spawn(set()))
    clean = run.run_workload("w-witness", 3, 0, 0)
    assert clean["failed_frac"] == 0

    monkeypatch.setattr(run, "spawn", _fake_spawn({"w7"}))
    result = run.run_workload("w-witness", 3, 0, 0)
    assert result["attempted"] == 3
    assert result["failed_frac"] == pytest.approx(1 / 3)
    assert [f["experiment"] for f in result["failures"]] == ["witness-w7"]


def test_probes_scale_by_the_middle_half_of_reference_cpu_times(monkeypatch, tmp_path):
    cpu_times = iter([0.2, 0.5, 0.1, 0.3, 0.9, 0.2, 0.4, 0.1, 0.6, 0.3, 0.7])
    monkeypatch.setattr(run, "spawn", lambda argv, env, err: (1.0, next(cpu_times), 1.0, 0))
    probes = run.Probes("config.json", {}, str(tmp_path))  # 0.2 compiles, unmeasured
    probes.before_child()
    probes.before_child()  # not due yet
    probes.finish()  # four more, to MIN_PROBES = 5
    assert probes.samples["reference_cpu_s"] == [0.5, 0.3, 0.2, 0.1, 0.3]
    assert probes.samples["setup_cpu_s"] == [0.1, 0.9, 0.4, 0.6, 0.7]
    # sorted 0.1 | 0.2, 0.3, 0.3 | 0.5: the quarter at each end is dropped
    assert probes.scale() == pytest.approx(run.REFERENCE_S / (0.8 / 3))


def test_rwa_reference_matches_program_on_small_device():
    config_dict = phasebus.example_config_dict(3, 11)
    config = phasebus.config_io.parse_config(config_dict)
    for j in (1, 2, 3):
        tuned = dataclasses.replace(config, omega10=config.tls_params(j).omega_r)
        want = phasebus.rwa_infidelity(tuned, j, tuned.swap_time(j))
        assert abs(workloads.rwa_reference(config_dict, j) - want) < 1e-12


def test_summary_reports_tail_only_with_twenty_samples():
    assert set(run.summary([1.0, 2.0, 3.0])) == {"n", "median", "q1", "q3"}
    s = run.summary([float(v) for v in range(40)])
    assert s["median"] == 19.5
    assert s["p75"] == 29.0  # ten samples (30..39) lie beyond it



def test_benchmark_json_names_what_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    traced = list(tracing.pass_metrics([])) + ["trace.wall_s", "trace.overhead_frac"]
    assert [m["name"] for m in doc["per_layer"]] == traced
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in doc["per_layer"])
