"""Physics of the bus-TLS hybrid device.

All frequencies are stored as angular frequencies (rad/s, hbar = 1); config
files speak MHz/GHz and convert once on load.  TLS indices are 1-based and
coincide with register qubit indices (qubit 0 is the bus).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import StateVector, apply_unitary, evolve, fidelity

HBAR = 1.0545718176461565e-34  # J*s

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
    critical_current: float = 1.0

    def __post_init__(self):
        params = (self.omega_p0, self.critical_current)
        if not all(np.isfinite(v) and v > 0 for v in params):
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


class MicroscopicCoupling(NamedTuple):
    magnitude: float  # rad/s
    sign: int


def coupling_from_microscopics(
    icr: float, icl: float, omega10: float, capacitance: float
) -> MicroscopicCoupling:
    """Bus-TLS coupling from the defect's two critical currents.

    S = ((icr - icl)/2) * sqrt(hbar / (2 * omega10 * C)) in energy units,
    returned as |S|/hbar in rad/s together with the sign of icr - icl.
    A symmetric defect (icr == icl) decouples.
    """
    if omega10 <= 0:
        raise ValueError("omega10 must be positive")
    if capacitance <= 0:
        raise ValueError("capacitance must be positive")
    energy = ((icr - icl) / 2.0) * np.sqrt(HBAR / (2.0 * omega10 * capacitance))
    s = energy / HBAR
    sign = 0 if s == 0 else (1 if s > 0 else -1)
    return MicroscopicCoupling(abs(s), sign)


def full_hamiltonian(config: DeviceConfig) -> np.ndarray:
    """Dense lab-frame Hamiltonian of the bus plus every TLS.

    H = -(omega10/2) Z_bus - sum_j [ (omega_r^j/2) Z_j + S_j X_bus X_j ],
    real symmetric in the computational basis.
    """
    n = config.num_qubits
    k = np.arange(2**n)
    z = 1 - 2 * (k[:, None] >> np.arange(n) & 1)  # column q: Z_q eigenvalue
    h = np.zeros((2**n, 2**n), dtype=np.complex128)
    diag = -(config.omega10 / 2.0) * z[:, 0]
    for j, tls in enumerate(config.tls, start=1):
        diag = diag + -(tls.omega_r / 2.0) * z[:, j]
        h[k, k ^ (1 | 1 << j)] = -tls.coupling  # X_bus X_j flips bits 0 and j
    h[k, k] = diag
    return h


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
    if t < 0:
        raise ProtocolError(f"window duration must be >= 0, got {t}")
    coupling = config.coupling(j)  # validates j
    gate = exchange_window_gate(coupling, t)
    return apply_unitary(state, gate, [0, j])


def iswap(state: StateVector, j: int, config: DeviceConfig) -> StateVector:
    """Full excitation swap between the bus and TLS j (window of tau_j)."""
    return resonant_evolution(state, j, config.swap_time(j), config)


def dispersive_coupling(splitting: float, detuning: float) -> float:
    """Residual coupling Delta^2 / (4 * detuning) of a far-detuned TLS (Hz in,
    Hz out)."""
    if detuning == 0:
        raise ValueError("detuning must be nonzero")
    return splitting**2 / (4.0 * detuning)


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
    Off-resonant TLSs in the config are the dominant contribution.
    """
    tls = config.tls_params(j)
    if abs(config.omega10 - tls.omega_r) > 1e-9 * config.omega10:
        raise ProtocolError(
            f"rwa check is defined on resonance; omega10 != omega_r of TLS {j}"
        )
    labels = [1] + [0] * config.num_tls
    from .states import basis_state

    psi0 = basis_state(labels)
    full = evolve(psi0, full_hamiltonian(config), t)
    framed = rotating_frame_transform(full, config.omega10, t)
    ideal = resonant_evolution(psi0, j, t, config)
    return 1.0 - fidelity(ideal, framed)
