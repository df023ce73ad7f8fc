import itertools

import numpy as np
import pytest

from phasebus.paulis import (
    PauliString,
    apply_pauli,
    pauli_decompose,
    pauli_sum_matrix,
)
from phasebus.states import StateVector


def test_rejects_bad_labels():
    for labels in ("", "x", "X1", "XA", "IXYZ ", "XQ", " X", "I_X", "-X"):
        with pytest.raises(ValueError, match="bad Pauli string"):
            PauliString(labels)


def _enumerated_masks(labels):
    x = sum(1 << q for q, c in enumerate(labels) if c in "XY")
    z = sum(1 << q for q, c in enumerate(labels) if c in "ZY")
    return x, z


def test_masks_match_enumeration():
    for n in range(1, 6):
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString("".join(letters))
            assert (p.x_mask, p.z_mask) == _enumerated_masks(p.labels)
    rng = np.random.default_rng(9)
    for _ in range(2000):
        labels = "".join(rng.choice(list("IXYZ"), size=int(rng.integers(1, 11))))
        p = PauliString(labels)
        assert (p.x_mask, p.z_mask) == _enumerated_masks(labels)


def test_weight_and_support():
    p = PauliString("IXZI")
    assert p.weight == 2
    assert p.support() == (1, 2)
    assert PauliString("II").is_identity()


def test_matrix_is_little_endian():
    # Z on qubit 0 of two qubits: diagonal follows bit 0 of the index
    m = PauliString("ZI").matrix()
    assert np.allclose(np.diag(m), [1, -1, 1, -1])
    m = PauliString("IZ").matrix()
    assert np.allclose(np.diag(m), [1, 1, -1, -1])


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    state = StateVector(v)
    p = PauliString("XYZ")
    assert np.allclose(apply_pauli(p, state).amplitudes, p.matrix() @ v, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decompose_roundtrip(n):
    rng = np.random.default_rng(10 + n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    h = a + a.conj().T
    terms = pauli_decompose(h, drop_below=0.0)
    assert np.abs(pauli_sum_matrix(terms, n) - h).max() < 1e-12 * max(1, np.abs(h).max())


def test_decompose_drops_small_coefficients():
    m = 2.0 * PauliString("XX").matrix() + 1e-15 * PauliString("ZZ").matrix()
    terms = pauli_decompose(m)
    assert len(terms) == 1
    coeff, p = terms[0]
    assert p.labels == "XX" and coeff == pytest.approx(2.0)


def test_decompose_coefficient_convention():
    # tr(P M) / 2^n for a known mixture
    m = 0.3 * PauliString("IZ").matrix() - 1.2 * PauliString("XY").matrix()
    got = {p.labels: c for c, p in pauli_decompose(m)}
    assert got == pytest.approx({"IZ": 0.3, "XY": -1.2})
