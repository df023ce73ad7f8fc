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
from .reporting import fmt
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
        """Line-oriented form, one instruction per line; durations (the
        double of the stored seconds in ns, which may round it in the last
        bit) and angles are written as report values, numpy floats alike."""
        lines = []
        for step in self.steps:
            if isinstance(step, ResonantWindow):
                lines.append(f"WINDOW j={step.tls} t={fmt(float(step.duration) * 1e9)}ns")
            elif isinstance(step, BusRotation):
                lines.append(f"ROT axis={step.axis} angle={fmt(step.angle)}")
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
    Z^{3pi/2}}, the correction diag(1, i^k) for k = 0..3;
    ``fidelity_by_init`` records the best corrected fidelity of each bus
    preparation variant; ``sequence_inexact`` is True when no searched
    correction reproduces the target within 1e-6.  ``corrected_state`` is
    the best variant's final register state with its corrections applied.
    """

    best_fidelity: float
    best_bus_init: str
    corrections: tuple[str, ...]
    fidelity_by_init: dict[str, float]
    sequence_inexact: bool
    corrected_state: StateVector


def _score(
    schedule: PulseSchedule, final: StateVector, target: StateVector
) -> ProtocolReport:
    """Score a run against bus |0> x ``target`` on TLS 1..n x spectators |g>.

    The profile lists |<0, g..e_j..g|final>| for the TLSs the target
    covers, j = 1..n with n = ``target.num_qubits``.
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
            [abs(final.amplitudes[1 << j]) for j in range(1, target.num_qubits + 1)]
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
    return _score(schedule, execute_schedule(schedule, config), w_state(n))


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
    return _score(schedule, final, bell_state(config.num_tls, j, k))


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

    The one TLS read rule: the exact witness value, the sampled estimate
    and tomography (n = all TLSs: the bus only) call it.  Raises when n is
    not in 1..num_qubits - 1 or the slice's norm is below 1 - 1e-9.
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

    The overlap factorizes: contracting TLS 1, 2, ... in turn, a prefix of
    choices leaves a row of amplitudes, and each TLS turns a row's (ground,
    excited) pairs into four rows ground + i^k excited.  Multiplying by a
    power of i is exact, so every overlap is the float the full 4^n tensor
    expansion gives.  No completion of a row beats the sum of its
    |amplitudes|: a greedy dive along the largest such bound sets a floor,
    and a prefix whose squared bound, times 1 + 1e-9 against rounding, is
    below the best value so far is dropped.  The rest is expanded depth
    first, at most 2^12 amplitudes at a time, so even 4^n exact ties stay
    small.  Ties go to the lowest flat index (TLS n's choice leads).
    Overlaps are squared on arrays, as the expansion squares them: a numpy
    scalar's ``** 2`` goes through ``pow`` and can differ in the last bit.
    """
    # spectator TLSs must sit in |g>, so only the TLS 1..n slice overlaps
    w = np.conj(target_tls.amplitudes) * final.amplitudes[_tls_slice(n)]
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])

    def expand(rows, flats):
        # contract the next TLS, the lowest bit of each row, under each choice
        weight = 4 ** (n + 1 - rows.shape[1].bit_length())
        rows = rows[:, None, 0::2] + phases[None, :, None] * rows[:, None, 1::2]
        rows = rows.reshape(-1, rows.shape[2])
        flats = (flats[:, None] + np.arange(4) * weight).reshape(-1)
        return rows, flats, np.abs(rows).sum(axis=1)

    root = (w[None, :], np.zeros(1, dtype=np.int64))
    rows, flats = root
    for _ in range(n):
        rows, flats, bound = expand(rows, flats)
        i = int(np.argmax(bound))
        rows, flats, bound = rows[i:i + 1], flats[i:i + 1], bound[i:i + 1]
    best, best_flat = float((bound**2)[0]), int(flats[0])
    stack = [root]
    while stack:
        rows, flats, bound = expand(*stack.pop())
        if rows.shape[1] == 1:
            values = bound**2
            top = float(values.max())
            flat = int(flats[values == top].min())
            if (top, -flat) > (best, -best_flat):
                best, best_flat = top, flat
            continue
        keep = bound**2 * (1 + 1e-9) >= best
        rows, flats = rows[keep], flats[keep]
        step = max(1, 2**12 // rows.shape[1])
        stack += [(rows[s:s + step], flats[s:s + step])
                  for s in reversed(range(0, len(rows), step))]
    idx = tuple(int(k) for k in reversed(np.unravel_index(best_flat, (4,) * n)))
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

    The requested schedule, whose builder checks n and ``bus_init``, comes
    first, and both come before the 2^n target.  The report scores the
    requested bus preparation; the correction search always covers both
    preparations (a tie goes to ground) and finds the per-TLS Z^{k pi/2}
    choice that best matches the cluster target, pruning only prefixes no
    completion of which can win, and records it and the state it produces.
    """
    requested = cluster_sequence(config, n, bus_init)
    schedules = {v: requested if v == bus_init else cluster_sequence(config, n, v)
                 for v in (BUS_INIT_GROUND, BUS_INIT_PLUS)}
    target = cluster_state(n)
    results = {}
    for variant, schedule in schedules.items():
        final = execute_schedule(schedule, config)
        best, labels, idx = _correction_search(final, target, n)
        results[variant] = (schedule, final, best, labels, idx)

    best_variant = max(results, key=lambda v: results[v][2])
    _, best_final, best, labels, idx = results[best_variant]
    correction = CorrectionReport(
        best_fidelity=best,
        best_bus_init=best_variant,
        corrections=labels,
        fidelity_by_init={v: results[v][2] for v in results},
        sequence_inexact=best < 1.0 - 1e-6,
        corrected_state=apply_phase_corrections(best_final, idx),
    )
    return _score(*results[bus_init][:2], target), correction
