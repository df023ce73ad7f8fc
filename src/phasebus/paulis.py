"""Pauli-string algebra over the {I, X, Y, Z} single-qubit basis.

A string like ``"XZI"`` puts X on qubit 0, Z on qubit 1 and identity on
qubit 2 (reading order matches qubit order).

``apply_pauli``, ``pauli_sum_matrix`` and ``pauli_decompose`` share ``_action``, the
(x, z) form of Aaronson & Gottesman, PRA 70, 052328 (2004): P = i^{|x & z|} X^x Z^z,
bit q of a mask being qubit q (X sets x, Z sets z, Y = i X Z both), so row k of P
holds one phase, at column k ^ x.  ``PauliString.matrix`` is the Kronecker reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

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


def _action(pauli: PauliString, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, factor) with P[k, src[k]] = factor[k], row k's one nonzero entry:
    src = k ^ x and factor = i^{|x & z|} (-1)^{|(k ^ x) & z|}."""
    if pauli.num_qubits != num_qubits:
        raise ValueError("qubit counts differ")
    src = np.arange(2**num_qubits) ^ pauli.x_mask
    phase = _I_POWERS[(pauli.x_mask & pauli.z_mask).bit_count() % 4]
    return src, np.where(np.bitwise_count(src & pauli.z_mask) & 1, -phase, phase)


def apply_pauli(pauli: PauliString, state: StateVector) -> StateVector:
    """P|psi> as one gather and one phase vector: (P psi)[k] = factor[k] psi[src[k]]."""
    src, factor = _action(pauli, state.num_qubits)
    return StateVector(factor * state.amplitudes[src])


def pauli_sum_matrix(terms, num_qubits: int) -> np.ndarray:
    """Dense matrix of sum_k coeff_k * P_k on ``num_qubits`` qubits."""
    mat = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    rows = np.arange(2**num_qubits)
    for coeff, pauli in terms:
        src, factor = _action(pauli, num_qubits)
        mat[rows, src] += coeff * factor
    return mat


def pauli_decompose(matrix: np.ndarray, drop_below: float = 1e-12):
    """Expand a 2^n x 2^n matrix in the Pauli basis, by definition.

    Returns a list of (coefficient, PauliString) in ``product("IXYZ",
    repeat=n)`` order, with coefficient tr(P M) / 2^n = sum_k factor[k]
    M[src[k], k] / 2^n; entries below ``drop_below`` in magnitude are
    discarded and real coefficients are returned as plain floats.  One
    2^n-long sum per string makes it O(8^n): 1 to 1.5 s at n = 8.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    d = m.shape[0] if m.ndim == 2 else 0
    n = d.bit_length() - 1
    if n < 1 or m.shape != (d, d) or 2**n != d:
        raise ValueError("matrix is not 2^n x 2^n with n >= 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    cols = np.arange(d)
    terms = []
    for letters in product("IXYZ", repeat=n):
        pauli = PauliString("".join(letters))
        src, factor = _action(pauli, n)
        coeff = complex(factor @ m[src, cols]) / d
        if abs(coeff) <= drop_below:
            continue
        if abs(coeff.imag) < 1e-13 * max(1.0, abs(coeff.real)):
            coeff = coeff.real
        terms.append((coeff, pauli))
    return terms
