"""Physics of the bus-TLS hybrid device.

All frequencies are stored as angular frequencies (rad/s, hbar = 1); config
files speak MHz/GHz and convert once on load.  TLS indices are 1-based and
coincide with register qubit indices (qubit 0 is the bus).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .states import StateVector, apply_unitary, basis_state, evolve, fidelity

MAX_TLS = 10


class ConfigError(ValueError):
    """A device description violates its physical constraints."""


class ProtocolError(RuntimeError):
    """A physics-layer operation was asked to do something invalid."""


@dataclass(frozen=True)
class TlsParams:
    """One two-level defect: level spacing and bus coupling, both rad/s."""

    id: str
    omega_r: float
    coupling: float

    def __post_init__(self):
        if not np.isfinite(self.omega_r) or self.omega_r <= 0:
            raise ConfigError(f"TLS {self.id}: omega_r must be positive and finite")
        if not np.isfinite(self.coupling) or self.coupling <= 0:
            raise ConfigError(f"TLS {self.id}: coupling must be positive and finite")
        if self.coupling / self.omega_r > 0.05:
            warnings.warn(
                f"TLS {self.id}: coupling/omega_r = "
                f"{self.coupling / self.omega_r:.3g} > 0.05; weak-coupling "
                "assumptions are strained",
                stacklevel=2,
            )

    @property
    def splitting_hz(self) -> float:
        """Spectroscopic splitting Delta (Hz); the dressed gap is 2S rad/s."""
        return self.coupling / np.pi

    @property
    def frequency_hz(self) -> float:
        return self.omega_r / (2 * np.pi)


@dataclass(frozen=True)
class BiasModel:
    """Parameters of the bias -> bus-frequency curve used for spectroscopy.

    The critical current is normalized to 1; ``omega_p0`` sets the zero-bias
    plasma-frequency scale (rad/s).
    """

    omega_p0: float

    def __post_init__(self):
        if not (np.isfinite(self.omega_p0) and self.omega_p0 > 0):
            raise ConfigError("bias model parameters must be positive and finite")


@dataclass(frozen=True)
class DeviceConfig:
    """Single source of device constants: bus frequency, TLS list, readout."""

    omega10: float
    tls: tuple[TlsParams, ...]
    readout_fidelity: float = 1.0
    bias_model: BiasModel | None = None

    def __post_init__(self):
        if not np.isfinite(self.omega10) or self.omega10 <= 0:
            raise ConfigError("omega10 must be positive and finite")
        if not 0.5 < self.readout_fidelity <= 1.0:
            raise ConfigError(
                f"readout fidelity {self.readout_fidelity} outside (0.5, 1]"
            )
        tls = tuple(sorted(self.tls, key=lambda t: t.omega_r))
        if not 1 <= len(tls) <= MAX_TLS:
            raise ConfigError(f"need 1..{MAX_TLS} TLSs, got {len(tls)}")
        ids = [t.id for t in tls]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ConfigError(f"TLS ids must be unique; repeated: {', '.join(repeated)}")
        for a, b in zip(tls, tls[1:]):
            if abs(a.omega_r - b.omega_r) <= a.coupling + b.coupling:
                raise ConfigError(
                    f"TLSs {a.id!r} and {b.id!r} are not spectrally resolvable: "
                    f"|omega_r difference| <= S_{a.id} + S_{b.id}"
                )
        object.__setattr__(self, "tls", tls)

    @property
    def num_tls(self) -> int:
        return len(self.tls)

    @property
    def num_qubits(self) -> int:
        return len(self.tls) + 1

    def tls_params(self, j: int) -> TlsParams:
        """TLS by 1-based index (== its register qubit index)."""
        if not 1 <= j <= self.num_tls:
            raise ProtocolError(f"TLS index {j} out of range 1..{self.num_tls}")
        return self.tls[j - 1]

    def coupling(self, j: int) -> float:
        return self.tls_params(j).coupling

    def swap_time(self, j: int) -> float:
        """Full-transfer window duration tau_j = pi / (2 S_j), seconds."""
        return np.pi / (2.0 * self.coupling(j))


def _diagonal(config: DeviceConfig, k: np.ndarray) -> np.ndarray:
    """Energies of the basis states with register indices ``k``."""
    z = 1 - 2 * (k[:, None] >> np.arange(config.num_qubits) & 1)  # column q: Z_q
    diag = -(config.omega10 / 2.0) * z[:, 0]
    for j, tls in enumerate(config.tls, start=1):
        diag = diag + -(tls.omega_r / 2.0) * z[:, j]
    return diag


def full_hamiltonian(config: DeviceConfig) -> np.ndarray:
    """Dense lab-frame Hamiltonian of the bus plus every TLS.

    H = -(omega10/2) Z_bus - sum_j [ (omega_r^j/2) Z_j + S_j X_bus X_j ],
    real symmetric in the computational basis.  Each X_bus X_j flips two
    bits, so H conserves excitation parity; ``rwa_infidelity`` evolves only
    the odd block (``odd_parity_block``) and never builds this matrix.
    """
    n = config.num_qubits
    k = np.arange(2**n)
    h = np.zeros((2**n, 2**n), dtype=np.complex128)
    for j, tls in enumerate(config.tls, start=1):
        h[k, k ^ (1 | 1 << j)] = -tls.coupling  # X_bus X_j flips bits 0 and j
    h[k, k] = _diagonal(config, k)
    return h


def odd_parity_block(config: DeviceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The block of ``full_hamiltonian`` on odd excitation parity, built
    directly: a real symmetric 2^N x 2^N matrix and, for each of its rows,
    the register index of that basis state.

    Row p holds TLS bits p and the bus bit that makes the parity odd, so the
    indices ascend and row 0 is |1, g, ..., g>.  Each X_bus X_j moves row p
    to row p ^ 2^(j-1).
    """
    p = np.arange(2**config.num_tls)
    index = (p << 1) | (1 - np.bitwise_count(p) % 2)
    h = np.zeros((p.size, p.size))
    for j, tls in enumerate(config.tls, start=1):
        h[p, p ^ 1 << (j - 1)] = -tls.coupling
    h[p, p] = _diagonal(config, index)
    return h, index


def exchange_window_gate(coupling: float, t: float) -> np.ndarray:
    """Two-qubit map of a resonant coupling window of duration t.

    Basis order (|0g>, |1g>, |0e>, |1e>) with the bus as gate bit 0:
    |0g> and |1e> are untouched; |1g> and |0e> rotate into each other as
    cos(S t) on the diagonal and -i sin(S t) off it.
    """
    c = np.cos(coupling * t)
    s = np.sin(coupling * t)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )


def resonant_evolution(
    state: StateVector, j: int, t: float, config: DeviceConfig
) -> StateVector:
    """Evolve under the resonant bus-TLS exchange for time t (seconds).

    Acts on (bus, TLS j) only; every other qubit is untouched.  At
    t = tau_j = pi/(2 S_j) this is the full iSWAP: |1g> -> -i|0e>.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ProtocolError(f"window duration must be finite and >= 0, got {t}")
    coupling = config.coupling(j)  # validates j
    gate = exchange_window_gate(coupling, t)
    return apply_unitary(state, gate, [0, j])


def iswap(state: StateVector, j: int, config: DeviceConfig) -> StateVector:
    """Full excitation swap between the bus and TLS j (window of tau_j)."""
    return resonant_evolution(state, j, config.swap_time(j), config)


def rotating_frame_transform(state: StateVector, omega: float, t: float) -> StateVector:
    """Undo free rotation at angular frequency omega on every qubit.

    Applies exp(+i H0 t) with H0 = -(omega/2) sum_k Z_k, i.e. a diagonal
    phase exp(-i (omega t / 2) * sum_k z_k) per basis state.
    """
    n = state.num_qubits
    amps = state.amplitudes
    # sum_k z_k = n - 2 * popcount(index) takes n + 1 values
    phases = np.array(
        [np.exp(-1j * (omega * t / 2.0) * (n - 2 * c)) for c in range(n + 1)]
    )
    ph = phases[np.bitwise_count(np.arange(amps.size))]
    # product in real parts: numpy's vectorised complex multiply may fuse
    # multiply-adds and so round differently from the scalar product
    out = np.empty_like(amps)
    out.real = amps.real * ph.real - amps.imag * ph.imag
    out.imag = amps.real * ph.imag + amps.imag * ph.real
    return StateVector(out)


def rwa_infidelity(config: DeviceConfig, j: int, t: float) -> float:
    """Mismatch between the full-Hamiltonian evolution and the ideal
    exchange window, starting from |1, g, ..., g>.

    The bus must be exactly on resonance with TLS j; the full evolution is
    moved to the frame rotating at omega10 on every qubit before comparing.
    Off-resonant TLSs in the config are the dominant contribution.  The
    full evolution runs in the odd-parity block only: the Hamiltonian
    conserves excitation parity and the start state is odd.
    """
    tls = config.tls_params(j)
    if abs(config.omega10 - tls.omega_r) > 1e-9 * config.omega10:
        raise ProtocolError(
            f"rwa check is defined on resonance; omega10 != omega_r of TLS {j}"
        )
    psi0 = basis_state([1] + [0] * config.num_tls)
    block, index = odd_parity_block(config)
    odd = evolve(StateVector(psi0.amplitudes[index]), block, t)
    amps = np.zeros_like(psi0.amplitudes)
    amps[index] = odd.amplitudes
    framed = rotating_frame_transform(StateVector(amps), config.omega10, t)
    ideal = resonant_evolution(psi0, j, t, config)
    return 1.0 - fidelity(ideal, framed)
