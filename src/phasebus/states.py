"""Dense state-vector substrate for the bus + TLS register.

Conventions used throughout the package:

* Qubit 0 is the phase-qubit bus; qubits 1..N are the TLSs.
* Basis index bit k encodes the state of qubit k (little-endian), so
  ``amplitudes[5]`` of a 3-qubit register is ``|1,g,e>``.  One layout rule
  reaches qubits: split the amplitudes at each listed qubit, each run of
  unlisted qubits one axis, highest first, and move the listed axes to the
  front.  ``qubit_rows``, ``join_qubit_rows`` and ``_measured_probabilities``
  use it, so no other module does axis arithmetic.
* ``Z|0> = +|0>`` and ``Z|g> = +|g>``: the 0/g level is the ground state.
* Global phase is physical: operations never renormalize or strip phases.
  ``fidelity`` is the phase-insensitive comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

MAX_QUBITS = 16

_LABEL_BITS = {"0": 0, "g": 0, "1": 1, "e": 1}


@dataclass(eq=False)
class StateVector:
    """Complex amplitudes of a qubit register, index bit k = qubit k."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        n = amps.size
        if n == 0 or (n & (n - 1)) != 0:
            raise ValueError(f"amplitude length must be a power of two, got {n}")
        self.amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix; positivity is not enforced (finite-shot
    reconstructions may dip slightly negative)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(1.0, float(np.abs(m).max()))
        if not np.abs(m - m.conj().T).max() <= 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian")
        if not abs(m.trace() - 1.0) <= 1e-9:
            raise ValueError(f"density matrix trace {m.trace():.3g} != 1")
        self.matrix = m

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def basis_state(labels) -> StateVector:
    """Computational basis state from per-qubit labels.

    Labels may be '0'/'1' or 'g'/'e' (or the ints 0/1, read as '0'/'1');
    any other label is a ``ValueError``.  The first label is qubit 0 (the
    bus).  ``basis_state("0ge")`` is ``|0,g,e>``.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("empty label list")
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {len(labels)}")
    index = 0
    for k, lab in enumerate(labels):
        bit = _LABEL_BITS.get(str(lab))
        if bit is None:
            raise ValueError(f"bad qubit label {lab!r}")
        index |= bit << k
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def w_state(num_qubits: int) -> StateVector:
    """|W_N> = sum_k |1_k> / sqrt(N), one excitation shared evenly."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[1 << np.arange(num_qubits)] = 1.0 / np.sqrt(num_qubits)
    return StateVector(amps)


def ground_register(num_tls: int) -> StateVector:
    """|0> on the bus and |g> on every TLS."""
    return basis_state([0] * (num_tls + 1))


def _check_targets(n: int, targets) -> list[int]:
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"target qubit {q} out of range for {n} qubits")
    return targets


@lru_cache(maxsize=1024)  # bounded: any order of any qubit subset is a key
def _layout(n: int, qubits: tuple) -> tuple:
    """The split of an n-qubit register at ``qubits``: (split shape, the
    transpose that brings the listed axes to the front in row-bit order,
    the transposed shape, the inverse transpose)."""
    held, shape = [], []  # per axis: its listed qubit (-1 for a run), its size
    for q, run in groupby(range(n - 1, -1, -1), lambda q: q if q in qubits else -1):
        held.append(q)
        shape.append(2 ** len(list(run)))
    order = [held.index(q) for q in reversed(qubits)]
    order += [a for a, q in enumerate(held) if q < 0]
    inverse = tuple(order.index(a) for a in range(len(order)))
    return tuple(shape), tuple(order), tuple(shape[a] for a in order), inverse


def qubit_rows(state: StateVector, qubits) -> np.ndarray:
    """The amplitudes as a (2^m, 2^(n-m)) matrix over m listed qubits.

    Row bit p is qubit ``qubits[p]``; column bit i is the i-th smallest of
    the other qubits.  ``join_qubit_rows`` is the inverse.
    """
    shape, order, _, _ = _layout(state.num_qubits, tuple(qubits))
    return state.amplitudes.reshape(shape).transpose(order).reshape(2 ** len(qubits), -1)


def join_qubit_rows(rows: np.ndarray, qubits) -> StateVector:
    """The state whose ``qubit_rows(state, qubits)`` is ``rows``."""
    _, _, moved, inverse = _layout(rows.size.bit_length() - 1, tuple(qubits))
    return StateVector(np.ascontiguousarray(rows.reshape(moved).transpose(inverse)).reshape(-1))


def apply_unitary(state: StateVector, gate: np.ndarray, targets) -> StateVector:
    """Apply a 2^m x 2^m unitary to the listed target qubits.

    Gate basis bit p corresponds to ``targets[p]``, matching the global
    little-endian convention.  Untouched qubits keep their amplitudes exactly.
    """
    n = state.num_qubits
    targets = _check_targets(n, targets)
    m = len(targets)
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2**m, 2**m):
        raise ValueError(f"gate shape {gate.shape} does not match {m} targets")
    if not np.abs(gate @ gate.conj().T - np.eye(2**m)).max() <= 1e-12:
        raise ValueError("gate is not unitary within 1e-12")

    return join_qubit_rows(gate @ qubit_rows(state, targets), targets)


def evolve(state: StateVector, generator: np.ndarray, t: float) -> StateVector:
    """exp(-i * generator * t) |state>, by exact Hermitian diagonalization.

    The generator is an angular-frequency operator (rad/s, hbar = 1); no
    series truncation is involved, so the only error is float roundoff.  A
    real generator stays real: it is checked for symmetry and diagonalized
    with no complex copy of it or of its eigenvectors.
    """
    real = np.isrealobj(generator)
    h = np.asarray(generator, dtype=np.float64 if real else np.complex128)
    d = state.amplitudes.size
    if h.shape != (d, d):
        raise ValueError(f"generator shape {h.shape} does not match dim {d}")
    scale = max(1.0, float(np.abs(h).max()))
    if not np.abs(h - h.conj().T).max() <= 1e-12 * scale:
        raise ValueError("generator is not Hermitian")
    if not np.isfinite(t):
        raise ValueError(f"evolution time {t} is not finite")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * t)
    if real:
        out = _real_matvec(v, phases * _real_matvec(v.T, state.amplitudes))
    else:
        out = v @ (phases * (v.conj().T @ state.amplitudes))
    return StateVector(out)


def _real_matvec(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """m @ a for a real matrix and a complex vector, without casting m to
    complex."""
    out = np.empty(m.shape[0], dtype=np.complex128)
    out.real = m @ a.real
    out.imag = m @ a.imag
    return out


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-insensitive overlap of two pure states."""
    if a.amplitudes.size != b.amplitudes.size:
        raise ValueError("state dimensions differ")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (sorted ascending in the output).

    Bit p of the reduced index is the p-th smallest kept qubit.
    """
    n = state.num_qubits
    keep = sorted(_check_targets(n, keep))
    if not keep:
        raise ValueError("keep list is empty")
    mat = qubit_rows(state, keep)
    return DensityMatrix(mat @ mat.conj().T)


def _measured_probabilities(state: StateVector, qubits) -> np.ndarray:
    """Joint Born distribution over ``qubits`` (ascending), axis 0 = first."""
    shape, order, _, _ = _layout(state.num_qubits, tuple(qubits))
    probs = np.abs(state.amplitudes.reshape(shape)) ** 2
    runs = order[len(qubits):]
    p = probs.sum(axis=runs) if runs else probs
    # the listed axes run high-qubit-first; flip into measurement order
    return p.T


def expectation(state: StateVector, pauli) -> float:
    """<psi|P|psi> for one PauliString P, as a float.  A Pauli string is
    Hermitian, so the imaginary part must be roundoff."""
    from .paulis import apply_pauli  # local import: layering

    val = np.vdot(state.amplitudes, apply_pauli(pauli, state).amplitudes)
    if not np.isfinite(val):
        raise ValueError(f"expectation {val} is not finite")
    if not abs(val.imag) <= 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary part {val.imag:.3g}")
    return float(val.real)
