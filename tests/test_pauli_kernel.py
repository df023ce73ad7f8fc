"""Property tests: the (x, z) bit-mask Pauli kernel and the popcount paths
against dense oracles built letter by letter."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebus.config_io import example_config_dict, parse_config
from phasebus.device import full_hamiltonian, rotating_frame_transform
from phasebus.paulis import PauliString, apply_pauli
from phasebus.protocols import cluster_state
from phasebus.states import StateVector

PROPERTY = settings(max_examples=150, deadline=None)


def labels_of(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


strings = st.integers(1, 6).flatmap(labels_of)


def random_amplitudes(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=2**n) + 1j * rng.normal(size=2**n)


def kron_hamiltonian(config):
    """The letter-by-letter construction: one dense Pauli matrix per term."""
    n = config.num_qubits
    h = np.zeros((2**n, 2**n), dtype=np.complex128)

    def term(letters):
        return PauliString("".join(letters.get(q, "I") for q in range(n))).matrix()

    h += -(config.omega10 / 2.0) * term({0: "Z"})
    for j, tls in enumerate(config.tls, start=1):
        h += -(tls.omega_r / 2.0) * term({j: "Z"})
        h += -tls.coupling * term({0: "X", j: "X"})
    return h


def loop_frame_transform(state, omega, t):
    n = state.num_qubits
    amps = state.amplitudes.copy()
    for idx in range(amps.size):
        zsum = sum(1 if not (idx >> k) & 1 else -1 for k in range(n))
        amps[idx] *= np.exp(-1j * (omega * t / 2.0) * zsum)
    return amps


@PROPERTY
@given(strings, st.integers(0, 2**32 - 1))
def test_apply_pauli_equals_matrix(labels, seed):
    p = PauliString(labels)
    v = random_amplitudes(seed, len(labels))
    assert np.array_equal(apply_pauli(p, StateVector(v)).amplitudes, p.matrix() @ v)


@PROPERTY
@given(strings)
def test_masks_follow_letters(labels):
    p = PauliString(labels)
    for q, c in enumerate(labels):
        assert (p.x_mask >> q & 1, p.z_mask >> q & 1) == {
            "I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)
        }[c]


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_full_hamiltonian_equals_kron_construction(num_tls, seed, resonant):
    config = parse_config(example_config_dict(num_tls, seed))
    if resonant:  # rwa-check tunes the bus onto one TLS
        tls = config.tls[(resonant - 1) % num_tls]
        config = dataclasses.replace(config, omega10=tls.omega_r)
    h = full_hamiltonian(config)
    assert h.dtype == np.complex128
    assert h.tobytes() == kron_hamiltonian(config).tobytes()


@PROPERTY
@given(
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
    st.floats(1e8, 1e11),
    st.floats(0.0, 1e-7),
)
def test_rotating_frame_transform_equals_loop(n, seed, omega, t):
    state = StateVector(random_amplitudes(seed, n))
    out = rotating_frame_transform(state, omega, t).amplitudes
    assert out.tobytes() == loop_frame_transform(state, omega, t).tobytes()


def test_cluster_state_equals_pair_count_loop():
    for n in range(2, 11):
        norm = 2 ** (-n / 2.0)
        expected = np.array(
            [
                norm * (-1.0) ** sum((k >> q) & (k >> (q + 1)) & 1 for q in range(n - 1))
                for k in range(2**n)
            ],
            dtype=np.complex128,
        )
        assert cluster_state(n).amplitudes.tobytes() == expected.tobytes()
