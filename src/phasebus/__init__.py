"""phasebus: a phase-qubit bus coupled to two-level-system qubits.

Exact state-vector simulation of the bus-TLS exchange gate calculus,
entanglement-generation schedules (W states, Bell pairs, cluster chains),
entanglement witnesses with local measurement settings, shot-sampled
readout with finite fidelity, two-qubit tomography, and synthetic
avoided-crossing spectroscopy with parameter extraction.
"""

from .device import (
    BiasModel,
    ConfigError,
    DeviceConfig,
    ProtocolError,
    TlsParams,
    full_hamiltonian,
    iswap,
    resonant_evolution,
    rwa_infidelity,
)
from .measurement import (
    ReadoutModel,
    ShotRecord,
    derive_rng,
    estimate_witness_sampled,
    measure_bus,
    read_tls,
    rotate_for_basis,
    sample_shots,
    tomography_two_qubit,
)
from .paulis import PauliString, pauli_decompose, pauli_sum_matrix
from .protocols import (
    BusExcite,
    BusReset,
    BusRotation,
    CorrectionReport,
    ProtocolReport,
    PulseSchedule,
    ResonantWindow,
    apply_phase_corrections,
    bell_schedule,
    cluster_sequence,
    cluster_state,
    execute_schedule,
    run_bell,
    run_cluster_protocol,
    run_w_protocol,
    tls_register_state,
    w_schedule,
    w_state,
    w_state_times,
)
from .spectroscopy import (
    AvoidedCrossing,
    SpectroscopyScan,
    bare_bus_frequency,
    default_bias_grid,
    extract_tls_parameters,
    synth_spectroscopy,
)
from .states import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    evolve,
    expectation,
    fidelity,
    ground_register,
    partial_trace,
)
from .witnesses import (
    MeasurementSetting,
    StabilizerSet,
    WitnessOperator,
    cluster_stabilizers,
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
    witness_to_csv,
    witness_value_exact,
)
from .config_io import load_config, example_config_dict

__version__ = "0.1.0"
