"""phasebus: a phase-qubit bus coupled to two-level-system qubits.

Exact state-vector simulation of the bus-TLS exchange gate calculus,
entanglement-generation schedules (W states, Bell pairs, cluster chains),
entanglement witnesses with local measurement settings, shot-sampled
readout with finite fidelity, two-qubit tomography, and synthetic
avoided-crossing spectroscopy with parameter extraction.

``import phasebus`` loads no submodule: each public name below loads its
defining submodule on first access (PEP 562), so a process compiles and
runs only the layers it uses.
"""

import importlib

_SUBMODULE_EXPORTS = {
    "config_io": ("example_config_dict", "load_config"),
    "device": (
        "BiasModel",
        "ConfigError",
        "DeviceConfig",
        "ProtocolError",
        "TlsParams",
        "full_hamiltonian",
        "resonant_evolution",
        "rwa_infidelity",
    ),
    "measurement": (
        "ReadoutModel",
        "ShotRecord",
        "derive_rng",
        "estimate_witness_sampled",
        "measure_bus",
        "rotate_for_basis",
        "sample_shots",
        "tomography_two_qubit",
    ),
    "paulis": ("PauliString", "pauli_decompose", "pauli_sum_matrix"),
    "protocols": (
        "BusExcite",
        "BusReset",
        "BusRotation",
        "CorrectionReport",
        "ProtocolReport",
        "PulseSchedule",
        "ResonantWindow",
        "apply_phase_corrections",
        "bell_schedule",
        "cluster_sequence",
        "cluster_state",
        "execute_schedule",
        "run_bell",
        "run_cluster_protocol",
        "run_w_protocol",
        "tls_register_state",
        "w_schedule",
        "w_state_times",
    ),
    "spectroscopy": (
        "AvoidedCrossing",
        "SpectroscopyScan",
        "bare_bus_frequency",
        "default_bias_grid",
        "extract_tls_parameters",
        "synth_spectroscopy",
    ),
    "states": (
        "DensityMatrix",
        "StateVector",
        "apply_unitary",
        "basis_state",
        "evolve",
        "expectation",
        "fidelity",
        "ground_register",
        "partial_trace",
        "w_state",
    ),
    "witnesses": (
        "MeasurementSetting",
        "WitnessOperator",
        "cluster_stabilizers",
        "cluster_witness",
        "group_settings",
        "w3_witness_decomposed",
        "w_witness",
        "witness_value_exact",
    ),
}

# public name -> defining submodule
_EXPORTS = {
    name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later accesses skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
