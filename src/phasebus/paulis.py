"""Pauli-string algebra over the {I, X, Y, Z} single-qubit basis.

A string like ``"XZI"`` puts X on qubit 0, Z on qubit 1 and identity on
qubit 2 (reading order matches qubit order).

Every action goes through the binary (x, z) form of Aaronson & Gottesman,
PRA 70, 052328 (2004): P = i^{|x & z|} X^x Z^z, where bit q of each mask
is qubit q.  X sets the x bit, Z the z bit and Y = i X Z sets both, so
P|psi> is one gather and one sign vector over integer masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .states import StateVector

SIGMA = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, one letter per qubit.

    ``x_mask`` and ``z_mask`` are derived from ``labels`` on construction.
    """

    labels: str

    def __post_init__(self):
        labels = self.labels
        # strip leaves a string empty exactly when every letter is in IXYZ
        if not isinstance(labels, str) or not labels or labels.strip("IXYZ"):
            raise ValueError(f"bad Pauli string {labels!r}")
        # int(..., 2) reads the highest bit first, so reverse to put qubit 0 lowest
        reverse = labels[::-1]
        object.__setattr__(self, "x_mask", int(reverse.translate(_X_BITS), 2))
        object.__setattr__(self, "z_mask", int(reverse.translate(_Z_BITS), 2))

    def __str__(self) -> str:
        return self.labels

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def is_identity(self) -> bool:
        return self.weight == 0

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, c in enumerate(self.labels) if c != "I")

    def matrix(self) -> np.ndarray:
        # np.kron is big-endian, so the highest qubit goes outermost
        return reduce(np.kron, (SIGMA[c] for c in reversed(self.labels)))


def apply_pauli(pauli: PauliString, state: StateVector) -> StateVector:
    """P|psi> as one gather and one sign vector:
    (P psi)[k] = i^{|x & z|} (-1)^{|(k ^ x) & z|} psi[k ^ x]."""
    if pauli.num_qubits != state.num_qubits:
        raise ValueError("qubit counts differ")
    src = np.arange(state.amplitudes.size) ^ pauli.x_mask
    phase = _I_POWERS[(pauli.x_mask & pauli.z_mask).bit_count() % 4]
    sign = np.where(np.bitwise_count(src & pauli.z_mask) & 1, -phase, phase)
    return StateVector(sign * state.amplitudes[src])


def pauli_sum_matrix(terms, num_qubits: int) -> np.ndarray:
    """Dense matrix of sum_k coeff_k * P_k on ``num_qubits`` qubits."""
    mat = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    for coeff, pauli in terms:
        mat += coeff * pauli.matrix()
    return mat


def pauli_decompose(matrix: np.ndarray, drop_below: float = 1e-12):
    """Expand a 2^n x 2^n matrix in the Pauli basis.

    Returns a list of (coefficient, PauliString) with coefficient
    tr(P M) / 2^n; entries below ``drop_below`` in magnitude are discarded
    and real coefficients are returned as plain floats.  One qubit axis pair
    is contracted at a time, so the transform stays cheap up to ~10 qubits.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    d = m.shape[0]
    n = d.bit_length() - 1
    if m.ndim != 2 or m.shape != (d, d) or 2**n != d:
        raise ValueError("matrix dimension is not a power of two")

    t = m.reshape((2,) * (2 * n))
    # reorder to one (row_q, col_q) pair per qubit, qubit 0 first
    perm = []
    for q in range(n):
        perm.append(n - 1 - q)
        perm.append(2 * n - 1 - q)
    t = t.transpose(perm).reshape((4,) * n)

    # tr(P M) = sum P[a,b] M[b,a]; axis value f = 2*row + col of M, so the
    # per-qubit weight is sigma_alpha[col, row] = sigma[f % 2, f // 2]
    weight = np.empty((4, 4), dtype=np.complex128)
    for ai, a in enumerate("IXYZ"):
        for f in range(4):
            weight[ai, f] = SIGMA[a][f % 2, f // 2]

    # each step consumes the last remaining qubit axis and prepends its alpha,
    # leaving final axes ordered (alpha_0, ..., alpha_{n-1})
    for _ in range(n):
        t = np.tensordot(weight, t, axes=([1], [n - 1]))
    coeffs = t / d

    terms = []
    for idx in np.ndindex(*(4,) * n):
        coeff = complex(coeffs[idx])
        if abs(coeff) <= drop_below:
            continue
        if abs(coeff.imag) < 1e-13 * max(1.0, abs(coeff.real)):
            coeff = coeff.real
        terms.append((coeff, PauliString("".join("IXYZ"[a] for a in idx))))
    return terms
