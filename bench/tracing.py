"""Out-of-program tracing: wrap phasebus's public functions, record spans,
and reduce them to per-layer metrics.

A span is ``(name_id, start, end, parent, raised, amount)``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``amount`` a per-call
quantity such as the shots requested or the bytes of a returned matrix.
Spans stay in memory and are written once, when the traced process ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (defining module, attribute, amount recorded per call or None)
WRAPPED = {
    "cli.main": ("phasebus.cli", "main", None),
    "config_io.load_config": ("phasebus.config_io", "load_config", None),
    "device.full_hamiltonian": (
        "phasebus.device", "full_hamiltonian", lambda a, k, r: r.nbytes),
    "device.rotating_frame_transform": (
        "phasebus.device", "rotating_frame_transform", None),
    "device.rwa_infidelity": ("phasebus.device", "rwa_infidelity", None),
    "states.evolve": ("phasebus.states", "evolve", None),
    "states.apply_unitary": ("phasebus.states", "apply_unitary", None),
    "states.expectation": ("phasebus.states", "expectation", None),
    "states.partial_trace": ("phasebus.states", "partial_trace", None),
    "paulis.pauli_decompose": (
        "phasebus.paulis", "pauli_decompose", lambda a, k, r: len(r)),
    "paulis.apply_pauli": ("phasebus.paulis", "apply_pauli", None),
    "witnesses.w_witness": ("phasebus.witnesses", "w_witness", None),
    "witnesses.cluster_witness": ("phasebus.witnesses", "cluster_witness", None),
    "witnesses.group_settings": (
        "phasebus.witnesses", "group_settings", lambda a, k, r: len(r)),
    "witnesses.witness_value_exact": (
        "phasebus.witnesses", "witness_value_exact",
        lambda a, k, r: len(_arg(a, k, 1, "witness").terms)),
    "measurement.sample_shots": (
        "phasebus.measurement", "sample_shots",
        lambda a, k, r: _arg(a, k, 3, "shots")),
    "measurement.estimate_witness_sampled": (
        "phasebus.measurement", "estimate_witness_sampled", None),
    "measurement.tomography_two_qubit": (
        "phasebus.measurement", "tomography_two_qubit", None),
    "measurement.rotate_for_basis": ("phasebus.measurement", "rotate_for_basis", None),
    "protocols.run_cluster_protocol": (
        "phasebus.protocols", "run_cluster_protocol", None),
    "protocols.run_w_protocol": ("phasebus.protocols", "run_w_protocol", None),
    "protocols.run_bell": ("phasebus.protocols", "run_bell", None),
    "protocols.execute_schedule": ("phasebus.protocols", "execute_schedule", None),
    "protocols.cluster_state": ("phasebus.protocols", "cluster_state", None),
    "spectroscopy.synth_spectroscopy": (
        "phasebus.spectroscopy", "synth_spectroscopy", None),
    "spectroscopy.extract_tls_parameters": (
        "phasebus.spectroscopy", "extract_tls_parameters", None),
    "reporting.emit_report": (
        "phasebus.reporting", "emit_report",
        lambda a, k, r: sum(os.path.getsize(p) for p in r)),
    "numpy.eigh": ("numpy.linalg", "eigh", lambda a, k, r: _arg(a, k, 0, "a").shape[-1]),
    "numpy.eigvalsh": ("numpy.linalg", "eigvalsh", None),
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in WRAPPED))

# protocol runs that each prepare one register state
_PREPARATIONS = ("protocols.run_w_protocol", "protocols.run_cluster_protocol",
                 "protocols.run_bell")


class Tracer:
    """Records a span around every call of the functions in ``WRAPPED``."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name_id, fn, amount):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised, result = True, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                size = amount(args, kwargs, result) if amount and not raised else 0
                spans[idx] = (name_id, start, end, parent, raised, size)

        return traced

    def install(self):
        """Replace each wrapped function in its defining module and wherever
        a ``phasebus`` module bound it by name."""
        bindings = [m for n, m in sys.modules.items()
                    if m is not None and (n == "phasebus" or n.startswith("phasebus."))]
        for name_id, (module, attr, amount) in enumerate(WRAPPED.values()):
            home = importlib.import_module(module)
            fn = getattr(home, attr)
            wrapper = self._wrap(name_id, fn, amount)
            for mod in [home] + bindings:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "names": self.names,
                       "spans": self.spans}, fh)


def self_times(spans):
    """Per-span duration minus the durations of its direct children.

    Spans of one process nest without overlapping, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _per_name(spans, names):
    """name -> [calls, self seconds, inclusive seconds, amount sum, amount max]"""
    acc = {name: [0, 0.0, 0.0, 0, 0] for name in WRAPPED}
    for span, own in zip(spans, self_times(spans)):
        row = acc[names[span[0]]]
        row[0] += 1
        row[1] += own
        row[2] += span[2] - span[1]
        row[3] += span[5]
        row[4] = max(row[4], span[5])
    return acc


def _errors(spans, names):
    """Exceptions that left a layer: raised by a span whose caller is in
    another layer (or is the top of the process)."""
    counts = dict.fromkeys(LAYERS, 0)
    for name_id, _, _, parent, raised, _ in spans:
        if not raised:
            continue
        layer = names[name_id].split(".")[0]
        if parent < 0 or names[spans[parent][0]].split(".")[0] != layer:
            counts[layer] += 1
    return counts


def pass_metrics(dumps):
    """Per-layer metrics of one traced pass, from each experiment's dump."""
    acc = {name: [0, 0.0, 0.0, 0, 0] for name in WRAPPED}
    errors = dict.fromkeys(LAYERS, 0)
    import_s, self_sum, needing_state = 0.0, 0.0, 0
    for dump in dumps:
        spans, names = dump["spans"], dump["names"]
        import_s += dump["import_s"]
        self_sum += dump["import_s"] + sum(self_times(spans))
        one = _per_name(spans, names)
        if any(one[name][0] for name in _PREPARATIONS):
            needing_state += 1
        for name, row in one.items():
            total = acc[name]
            for i in range(4):
                total[i] += row[i]
            total[4] = max(total[4], row[4])
        for layer, n in _errors(spans, names).items():
            errors[layer] += n

    def calls(name):
        return acc[name][0]

    def self_s(name):
        return acc[name][1]

    shots_time = acc["measurement.sample_shots"][2]
    preparations = sum(calls(name) for name in _PREPARATIONS)
    m = {
        "cli.import_s": import_s,
        "cli.main.self_s": self_s("cli.main"),
        "config_io.load_config.self_s": self_s("config_io.load_config"),
        "device.full_hamiltonian.calls": calls("device.full_hamiltonian"),
        "device.full_hamiltonian.self_s": self_s("device.full_hamiltonian"),
        "device.full_hamiltonian.bytes_computed": acc["device.full_hamiltonian"][3],
        "device.rotating_frame_transform.self_s": self_s("device.rotating_frame_transform"),
        "device.rwa_infidelity.self_s": self_s("device.rwa_infidelity"),
        "states.evolve.calls": calls("states.evolve"),
        "states.evolve.self_s": self_s("states.evolve"),
        "numpy.eigh.calls": calls("numpy.eigh"),
        "numpy.eigh.max_dim": acc["numpy.eigh"][4],
        "numpy.eigh.self_s": self_s("numpy.eigh"),
        "states.apply_unitary.calls": calls("states.apply_unitary"),
        "states.apply_unitary.self_s": self_s("states.apply_unitary"),
        "states.expectation.calls": calls("states.expectation"),
        "states.expectation.self_s": self_s("states.expectation"),
        "states.partial_trace.self_s": self_s("states.partial_trace"),
        "paulis.pauli_decompose.self_s": self_s("paulis.pauli_decompose"),
        "paulis.pauli_decompose.terms": acc["paulis.pauli_decompose"][3],
        "paulis.apply_pauli.calls": calls("paulis.apply_pauli"),
        "paulis.apply_pauli.self_s": self_s("paulis.apply_pauli"),
        "witnesses.w_witness.self_s": self_s("witnesses.w_witness"),
        "witnesses.cluster_witness.self_s": self_s("witnesses.cluster_witness"),
        "witnesses.group_settings.self_s": self_s("witnesses.group_settings"),
        "witnesses.group_settings.settings": acc["witnesses.group_settings"][3],
        "witnesses.witness_value_exact.self_s": self_s("witnesses.witness_value_exact"),
        "witnesses.witness_value_exact.terms": acc["witnesses.witness_value_exact"][3],
        "measurement.sample_shots.calls": calls("measurement.sample_shots"),
        "measurement.sample_shots.self_s": self_s("measurement.sample_shots"),
        "measurement.sample_shots.shots": acc["measurement.sample_shots"][3],
        "measurement.shots_per_s": (
            acc["measurement.sample_shots"][3] / shots_time if shots_time else 0.0),
        "measurement.estimate_witness_sampled.self_s": self_s(
            "measurement.estimate_witness_sampled"),
        "measurement.tomography_two_qubit.self_s": self_s("measurement.tomography_two_qubit"),
        "measurement.rotate_for_basis.calls": calls("measurement.rotate_for_basis"),
        "protocols.run_cluster_protocol.calls": calls("protocols.run_cluster_protocol"),
        "protocols.run_cluster_protocol.self_s": self_s("protocols.run_cluster_protocol"),
        "protocols.run_w_protocol.calls": calls("protocols.run_w_protocol"),
        "protocols.execute_schedule.calls": calls("protocols.execute_schedule"),
        "protocols.execute_schedule.self_s": self_s("protocols.execute_schedule"),
        "protocols.cluster_state.self_s": self_s("protocols.cluster_state"),
        "protocols.preparations_per_state": (
            preparations / needing_state if needing_state else 0.0),
        "spectroscopy.synth_spectroscopy.self_s": self_s("spectroscopy.synth_spectroscopy"),
        "numpy.eigvalsh.calls": calls("numpy.eigvalsh"),
        "spectroscopy.extract_tls_parameters.self_s": self_s(
            "spectroscopy.extract_tls_parameters"),
        "reporting.emit_report.self_s": self_s("reporting.emit_report"),
        "reporting.emit_report.bytes": acc["reporting.emit_report"][3],
    }
    m.update({f"{layer}.errors": n for layer, n in errors.items()})
    m["trace.self_sum_s"] = self_sum
    return m


# checked in order: "_per_s" must precede "_s"
UNITS = {"_per_s": "1/s", "_s": "s", ".calls": "count", ".bytes": "B",
         ".bytes_computed": "B", ".max_dim": "count", ".terms": "count",
         ".settings": "count", ".shots": "count", ".errors": "count",
         "_per_state": "ratio", "_frac": "ratio"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)
