"""Entanglement-generation schedules: W states, Bell pairs and cluster
chains, all driven through the bus with resonant exchange windows.

A schedule is an ordered list of abstract instructions; the executor turns
it into exact state-vector evolution.  The only primitives are the ones the
hardware offers: resonant windows to one TLS at a time, bus rotations, bus
reset and bus excitation.  Readout belongs to the measurement layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceConfig, ProtocolError, resonant_evolution
from .paulis import SIGMA
from .states import (
    StateVector,
    apply_unitary,
    fidelity,
    ground_register,
    join_qubit_rows,
    partial_trace,
    qubit_rows,
    w_state,
)

DISENTANGLE_TOL = 1e-9

# instruction set ------------------------------------------------------------


@dataclass(frozen=True)
class ResonantWindow:
    """Couple the bus to TLS ``tls`` for ``duration`` seconds."""

    tls: int
    duration: float


@dataclass(frozen=True)
class BusRotation:
    """exp(-i * angle * sigma_axis / 2) on the bus."""

    axis: str
    angle: float


@dataclass(frozen=True)
class BusReset:
    """Replace the bus state by |0>; valid only on a disentangled bus."""


@dataclass(frozen=True)
class BusExcite:
    """Bit flip on the bus (exact X, so |0> -> |1> with amplitude +1)."""


Instruction = ResonantWindow | BusRotation | BusReset | BusExcite


@dataclass(frozen=True)
class PulseSchedule:
    steps: tuple[Instruction, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if isinstance(step, ResonantWindow):
                if not (np.isfinite(step.duration) and step.duration >= 0):
                    raise ProtocolError(f"bad window duration {step.duration}")
                # bool is an int subclass, but to_text would write "j=True"
                is_int = isinstance(step.tls, (int, np.integer)) and not isinstance(step.tls, bool)
                if not (is_int and step.tls >= 1):
                    raise ProtocolError(f"bad TLS index {step.tls}")
            elif isinstance(step, BusRotation):
                if step.axis not in ("x", "y", "z"):
                    raise ProtocolError(f"bad rotation axis {step.axis!r}")
                if not np.isfinite(step.angle):
                    raise ProtocolError(f"bad rotation angle {step.angle}")
            elif not isinstance(step, (BusReset, BusExcite)):
                raise ProtocolError(f"unknown instruction {step!r}")

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def to_text(self) -> str:
        """Line-oriented form, one instruction per line; window durations
        in ns, which may round the stored seconds in the last bit."""
        lines = []
        for step in self.steps:
            if isinstance(step, ResonantWindow):
                lines.append(f"WINDOW j={step.tls} t={step.duration * 1e9!r}ns")
            elif isinstance(step, BusRotation):
                lines.append(f"ROT axis={step.axis} angle={step.angle!r}")
            elif isinstance(step, BusReset):
                lines.append("RESET")
            elif isinstance(step, BusExcite):
                lines.append("EXCITE")
        return "".join(f"{line}\n" for line in lines)


# executor -------------------------------------------------------------------


def reset_bus(state: StateVector) -> StateVector:
    """Put the bus in |0>, keeping the TLS register.

    The bus must be disentangled (reduced purity within 1e-9 of 1); the
    surviving register keeps the phase of the dominant bus branch, so a bus
    already in |0> passes through bit-exactly.
    """
    rho = partial_trace(state, [0])
    if rho.purity() < 1.0 - DISENTANGLE_TOL:
        raise ProtocolError(
            f"bus reset on an entangled bus (purity {rho.purity():.12f})"
        )
    rows = qubit_rows(state, [0])
    norms = np.linalg.norm(rows, axis=1)
    branch = int(np.argmax(norms))
    out = np.zeros_like(rows)
    out[0] = rows[branch] / norms[branch]
    return join_qubit_rows(out, [0])


def bus_rotation_gate(axis: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    return np.cos(half) * np.eye(2) - 1j * np.sin(half) * SIGMA[axis.upper()]


def execute_schedule(schedule: PulseSchedule, config: DeviceConfig) -> StateVector:
    """Run a generation schedule deterministically from |0, g, ..., g>."""
    state = ground_register(config.num_tls)
    for step in schedule:
        if isinstance(step, ResonantWindow):
            state = resonant_evolution(state, step.tls, step.duration, config)
        elif isinstance(step, BusRotation):
            state = apply_unitary(state, bus_rotation_gate(step.axis, step.angle), [0])
        elif isinstance(step, BusReset):
            state = reset_bus(state)
        else:  # BusExcite: PulseSchedule admits no other instruction
            state = apply_unitary(state, SIGMA["X"], [0])
    return state


# reports --------------------------------------------------------------------


@dataclass
class ProtocolReport:
    final_state: StateVector
    target_fidelity: float
    bus_disentangled: bool
    bus_ground_population: float
    amplitude_profile: np.ndarray
    schedule: PulseSchedule

    def __post_init__(self):
        if not 0.0 <= self.target_fidelity <= 1.0 + 1e-12:
            raise ProtocolError(
                f"fidelity {self.target_fidelity} outside [0, 1]"
            )


@dataclass
class CorrectionReport:
    """Outcome of the per-TLS phase-correction search after a cluster run.

    ``corrections`` lists one label per TLS from {I, Z^{pi/2}, Z^{pi},
    Z^{3pi/2}} and ``exponents`` the matching k of diag(1, i^k);
    ``fidelity_by_init`` records the best corrected fidelity of each bus
    preparation variant; ``sequence_inexact`` is True when no searched
    correction reproduces the target within 1e-6.  ``corrected_state`` is
    the best variant's final register state with its corrections applied.
    """

    best_fidelity: float
    best_bus_init: str
    corrections: tuple[str, ...]
    exponents: tuple[int, ...]
    fidelity_by_init: dict[str, float]
    uncorrected_fidelity: float
    sequence_inexact: bool
    corrected_state: StateVector


def _score(
    schedule: PulseSchedule, final: StateVector, target: StateVector, profile_tls: int
) -> ProtocolReport:
    """Score a run against bus |0> x ``target`` on TLS 1..n x spectators |g>.

    The profile lists |<0, g..e_j..g|final>| for TLS j = 1..profile_tls.
    """
    rho_bus = partial_trace(final, [0])
    ground_pop = float(np.real(rho_bus.matrix[0, 0]))
    return ProtocolReport(
        final_state=final,
        target_fidelity=fidelity(final, _embed_tls_state(target, final.num_qubits - 1)),
        bus_disentangled=(
            rho_bus.purity() > 1.0 - DISENTANGLE_TOL
            and ground_pop > 1.0 - DISENTANGLE_TOL
        ),
        bus_ground_population=ground_pop,
        amplitude_profile=np.array(
            [abs(final.amplitudes[1 << j]) for j in range(1, profile_tls + 1)]
        ),
        schedule=schedule,
    )


# W states and Bell pairs ----------------------------------------------------


def w_state_times(n: int, couplings) -> list[float]:
    """Window durations t_j = arcsin(1/sqrt(N+1-j)) / S_j, j = 1..N.

    These make every partial product cos(S_1 t_1)...cos(S_{l-1} t_{l-1})
    sin(S_l t_l) equal 1/sqrt(N), sharing the single excitation evenly; the
    last entry is always the full swap pi/(2 S_N).
    """
    couplings = list(couplings)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(couplings) < n:
        raise ValueError(f"need {n} couplings, got {len(couplings)}")
    times = []
    for j in range(1, n + 1):
        s = couplings[j - 1]
        if s <= 0:
            raise ValueError(f"coupling {j} must be positive")
        times.append(float(np.arcsin(1.0 / np.sqrt(n + 1 - j)) / s))
    return times


W_MODE_GENERAL = "general"
W_MODE_FRACTION_N3 = "paper-n3"


def w_schedule(config: DeviceConfig, n: int, mode: str = W_MODE_GENERAL) -> PulseSchedule:
    """Excite the bus, then share the excitation across TLS 1..n."""
    if not 1 <= n <= config.num_tls:
        raise ProtocolError(f"n={n} outside configured register (N={config.num_tls})")
    couplings = [config.coupling(j) for j in range(1, n + 1)]
    if mode == W_MODE_GENERAL:
        times = w_state_times(n, couplings)
    elif mode == W_MODE_FRACTION_N3:
        if n != 3:
            raise ProtocolError("the tau/3, tau/2, tau/2 timing variant is three-qubit only")
        taus = [config.swap_time(j) for j in (1, 2, 3)]
        times = [taus[0] / 3.0, taus[1] / 2.0, taus[2] / 2.0]
    else:
        raise ProtocolError(f"unknown W timing mode {mode!r}")
    steps: list[Instruction] = [BusExcite()]
    steps += [ResonantWindow(j, t) for j, t in enumerate(times, start=1)]
    return PulseSchedule(tuple(steps))


def run_w_protocol(
    config: DeviceConfig, n: int, mode: str = W_MODE_GENERAL
) -> ProtocolReport:
    """Generate the N-TLS W state and score it against the ideal target."""
    schedule = w_schedule(config, n, mode)
    return _score(schedule, execute_schedule(schedule, config), w_state(n), n)


def bell_schedule(config: DeviceConfig, j: int, k: int) -> PulseSchedule:
    """Half window on TLS j, full window on TLS k: a shared excitation."""
    if j == k:
        raise ProtocolError("Bell pair needs two distinct TLSs")
    return PulseSchedule(
        (
            BusExcite(),
            ResonantWindow(j, config.swap_time(j) / 2.0),
            ResonantWindow(k, config.swap_time(k)),
        )
    )


def bell_state(num_tls: int, j: int, k: int) -> StateVector:
    """(|g_j e_k> + |e_j g_k>)/sqrt(2) on the TLS register."""
    amps = np.zeros(2**num_tls, dtype=np.complex128)
    amps[1 << (j - 1)] = 1.0 / np.sqrt(2)
    amps[1 << (k - 1)] = 1.0 / np.sqrt(2)
    return StateVector(amps)


def run_bell(config: DeviceConfig, j: int, k: int) -> ProtocolReport:
    schedule = bell_schedule(config, j, k)
    final = execute_schedule(schedule, config)
    return _score(schedule, final, bell_state(config.num_tls, j, k), config.num_tls)


def _tls_slice(n: int) -> slice:
    """Register indices with the bus in |0>, TLS n+1.. in |g>: TLS 1..n."""
    return slice(None, 2 ** (n + 1), 2)


def _embed_tls_state(tls_state: StateVector, num_tls: int) -> StateVector:
    """Tensor a TLS 1..n state with the bus in |0> and spectators in |g>."""
    if tls_state.num_qubits > num_tls:
        raise ValueError("TLS state larger than register")
    full = np.zeros(2 ** (num_tls + 1), dtype=np.complex128)
    full[_tls_slice(tls_state.num_qubits)] = tls_state.amplitudes
    return StateVector(full)


def tls_register_state(state: StateVector, n: int) -> StateVector:
    """Pure state of TLS 1..n, given the bus in |0> and quiet spectators.

    Raises when n is not in 1..num_qubits - 1 or the register carries
    weight outside that subspace.
    """
    if not 1 <= n < state.num_qubits:
        raise ProtocolError(f"TLS count {n} outside 1..{state.num_qubits - 1}")
    sub = state.amplitudes[_tls_slice(n)].copy()
    norm = np.linalg.norm(sub)
    if norm < 1.0 - DISENTANGLE_TOL:
        raise ProtocolError("register is not confined to bus |0> and TLS 1..n")
    return StateVector(sub / norm)


# cluster chains ---------------------------------------------------------------


def cluster_state(num_qubits: int) -> StateVector:
    """Linear cluster state: the joint +1 eigenstate of the chain
    stabilizers X_1 Z_2, Z_{j-1} X_j Z_{j+1}, Z_{N-1} X_N.

    Built as nearest-neighbor controlled-Z on |+>^N: the amplitude of a
    basis state flips sign once per adjacent excited pair.
    """
    if num_qubits < 2:
        raise ValueError("cluster chain needs at least two qubits")
    k = np.arange(2**num_qubits)
    pairs = np.bitwise_count(k & (k >> 1))
    signs = np.where(pairs & 1, -1.0, 1.0)
    return StateVector(2 ** (-num_qubits / 2.0) * signs)


BUS_INIT_GROUND = "ground"
BUS_INIT_PLUS = "plus"


def cluster_sequence(
    config: DeviceConfig, n: int, bus_init: str = BUS_INIT_PLUS
) -> PulseSchedule:
    """Chain-building schedule: prepare, then link TLS 1..N through the bus.

    Preparation drives each of TLS 1..N-1 to a |+>-class state through the
    bus (reset, rotate the bus onto the equator, swap in); TLS N stays in
    |g>.  The chain itself sandwiches each full swap window between two z
    rotations of the bus and ends with a bare full swap onto TLS N.  Swap
    transfer phases are deliberately left in place; the correction search
    owns them.
    """
    if n < 2:
        raise ProtocolError("cluster chain needs n >= 2")
    if n > config.num_tls:
        raise ProtocolError(f"n={n} outside configured register (N={config.num_tls})")
    if bus_init not in (BUS_INIT_GROUND, BUS_INIT_PLUS):
        raise ProtocolError(f"unknown bus_init {bus_init!r}")
    steps: list[Instruction] = []
    for j in range(1, n):
        steps += [
            BusReset(),
            BusRotation("y", np.pi / 2.0),
            ResonantWindow(j, config.swap_time(j)),
        ]
    if bus_init == BUS_INIT_PLUS:
        steps.append(BusRotation("y", np.pi / 2.0))
    for j in range(1, n):
        steps += [
            BusRotation("z", np.pi / 2.0),
            ResonantWindow(j, config.swap_time(j)),
            BusRotation("z", np.pi / 2.0),
        ]
    steps.append(ResonantWindow(n, config.swap_time(n)))
    return PulseSchedule(tuple(steps))


_CORRECTION_LABELS = ("I", "Z^{pi/2}", "Z^{pi}", "Z^{3pi/2}")


def _correction_search(final: StateVector, target_tls: StateVector, n: int):
    """Best per-TLS phase correction diag(1, i^k) maximizing the overlap
    with bus|0> x target x spectators |g>.

    The overlap as a function of the per-qubit phase choices factorizes,
    so each TLS axis of the overlap tensor expands from (ground, excited)
    amplitudes to the four phased combinations.  All but the last three
    TLS axes are expanded at once; the last three are combined one choice
    at a time, each level reusing its parent's partial sum, so at most
    4^(n-3) candidates are scored at once, never all 4^n.  Ties resolve to
    the first candidate in flat order.
    """
    # spectator TLSs must sit in |g>, so only the TLS 1..n slice overlaps
    w = np.conj(target_tls.amplitudes) * final.amplitudes[_tls_slice(n)]
    t = w.reshape((2,) * n)  # axis 0 = TLS n, axis -1 = TLS 1
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])
    expand = np.stack([np.ones(4), phases], axis=1)
    tail = min(n, 3)
    for _ in range(n - tail):
        # consume the last remaining amplitude axis, prepend its choice axis;
        # the result axes end up ordered
        # (choice_(n-tail), ..., choice_1, amplitude_n, ..., amplitude_(n-tail+1))
        t = np.tensordot(expand, t, axes=([1], [n - 1]))
    best, best_flat = -np.inf, 0

    def descend(u, level, flat):
        # level l consumes the amplitude axis of TLS n-tail+1+l, whose
        # choice weighs 4^(n-tail+l) in the flat order (choice_n leads)
        nonlocal best, best_flat
        for choice, phase in enumerate(phases):
            # multiplying by a power of i is exact: the floats tensordot gives
            v = u[..., 0] + phase * u[..., 1]
            at = flat + choice * 4 ** (n - tail + level)
            if level + 1 < tail:
                descend(v, level + 1, at)
                continue
            overlaps = np.abs(v) ** 2
            i = int(np.argmax(overlaps))
            value = float(overlaps.flat[i])
            if (value, -(at + i)) > (best, -best_flat):
                best, best_flat = value, at + i

    descend(t, 0, 0)
    idx = tuple(reversed(np.unravel_index(best_flat, (4,) * n)))
    labels = tuple(_CORRECTION_LABELS[k] for k in idx)
    return best, labels, idx


def apply_phase_corrections(state: StateVector, exponents) -> StateVector:
    """diag(1, i^k) on each TLS (qubit j gets exponent k = exponents[j-1])."""
    out = state
    for j, k in enumerate(exponents, start=1):
        if k % 4:
            gate = np.diag([1.0, 1j ** (k % 4)])
            out = apply_unitary(out, gate, [j])
    return out


def run_cluster_protocol(
    config: DeviceConfig, n: int, bus_init: str = BUS_INIT_PLUS
) -> tuple[ProtocolReport, CorrectionReport]:
    """Execute the chain schedule and search phase corrections.

    The report scores the requested bus preparation; the correction search
    always covers both preparations and every per-TLS Z^{k pi/2} choice,
    recording which combination best matches the cluster target and the
    state it produces.
    """
    target = cluster_state(n)
    results = {}
    for variant in (BUS_INIT_GROUND, BUS_INIT_PLUS):
        schedule = cluster_sequence(config, n, variant)
        final = execute_schedule(schedule, config)
        best, labels, idx = _correction_search(final, target, n)
        results[variant] = (schedule, final, best, labels, idx)

    best_variant = max(results, key=lambda v: results[v][2])
    _, best_final, best, labels, idx = results[best_variant]
    exponents = tuple(int(k) for k in idx)
    report = _score(*results[bus_init][:2], target, config.num_tls)
    correction = CorrectionReport(
        best_fidelity=best,
        best_bus_init=best_variant,
        corrections=labels,
        exponents=exponents,
        fidelity_by_init={v: results[v][2] for v in results},
        uncorrected_fidelity=report.target_fidelity,
        sequence_inexact=best < 1.0 - 1e-6,
        corrected_state=apply_phase_corrections(best_final, exponents),
    )
    return report, correction
