import itertools

import numpy as np
import pytest

from conftest import simple_config
from phasebus.measurement import ReadoutModel, tomography_two_qubit
from phasebus.paulis import (
    PauliString,
    apply_pauli,
    pauli_decompose,
    pauli_sum_matrix,
)
from phasebus.protocols import run_bell
from phasebus.states import StateVector
from phasebus.witnesses import cluster_witness, w3_witness_decomposed, w_witness


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


def _kron_sum(terms, n):
    """The dense reference: one Kronecker-product matrix added per term."""
    mat = np.zeros((2**n, 2**n), dtype=np.complex128)
    for coeff, p in terms:
        mat += coeff * p.matrix()
    return mat


def _random_terms(rng, n, count, complex_coeffs):
    terms = []
    for _ in range(count):
        coeff = rng.normal()
        if complex_coeffs:
            coeff += 1j * rng.normal()
        labels = "".join(rng.choice(list("IXYZ"), size=n))
        terms.append((coeff, PauliString(labels)))
    return terms


def _tomography_terms(shots):
    state = run_bell(simple_config(3), 1, 2).final_state
    res = tomography_two_qubit(state, 1, 2, shots, ReadoutModel(0.96, 3))
    terms = [(res.expectations[a, b], PauliString(pa + pb))
             for (a, pa), (b, pb) in itertools.product(enumerate("IXYZ"), repeat=2)]
    return terms, res.rho.matrix


@pytest.mark.parametrize("shots", [None, 1000])
def test_sum_matrix_is_the_kron_sum_for_tomography(shots):
    # zero signs count: the bytes, not the values, must agree
    terms, rho = _tomography_terms(shots)
    assert pauli_sum_matrix(terms, 2).tobytes() == _kron_sum(terms, 2).tobytes()
    assert rho.tobytes() == (_kron_sum(terms, 2) / 4).tobytes()


@pytest.mark.parametrize("witness", [
    *(cluster_witness(n) for n in range(2, 7)), w_witness(3), w3_witness_decomposed(),
])
def test_sum_matrix_is_the_kron_sum_for_witnesses(witness):
    n = witness.qubit_count
    got = pauli_sum_matrix(witness.terms, n)
    assert got.tobytes() == _kron_sum(witness.terms, n).tobytes()


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sum_matrix_is_the_kron_sum_for_random_terms(n, complex_coeffs):
    rng = np.random.default_rng(20 + n + 10 * complex_coeffs)
    terms = _random_terms(rng, n, 40, complex_coeffs)
    # repeated strings, cancelling pairs and zero coefficients touch the
    # same entries more than once and leave exact zeros behind
    terms += [(-c, p) for c, p in terms[:5]] + [(0.0, terms[6][1]), (-0.0, terms[7][1])]
    assert pauli_sum_matrix(terms, n).tobytes() == _kron_sum(terms, n).tobytes()


def test_sum_matrix_rejects_a_term_of_another_size():
    terms = [(1.0, PauliString("XZ")), (0.5, PauliString("Z"))]
    with pytest.raises(ValueError, match="qubit counts differ"):
        pauli_sum_matrix(terms, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decompose_is_the_trace_definition(n):
    rng = np.random.default_rng(30 + n)
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    terms = pauli_decompose(m, drop_below=0.0)
    strings = ["".join(letters) for letters in itertools.product("IXYZ", repeat=n)]
    assert [p.labels for _, p in terms] == strings
    for coeff, p in terms:
        assert abs(coeff - np.trace(p.matrix() @ m) / 2**n) < 1e-15


@pytest.mark.parametrize("shape", [(), (4,), (1, 1), (3, 3), (2, 4), (2, 2, 2)])
def test_decompose_rejects_non_square_power_of_two_shapes(shape):
    # 0-d and 1 x 1 inputs too: no Pauli string has zero letters
    with pytest.raises(ValueError, match="not 2\\^n x 2\\^n"):
        pauli_decompose(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_decompose_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=np.complex128)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pauli_decompose(m)
