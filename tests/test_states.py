import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebus.paulis import SIGMA, PauliString
from phasebus.states import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    evolve,
    expectation,
    fidelity,
    ground_register,
    join_qubit_rows,
    partial_trace,
    qubit_rows,
)


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(v / np.linalg.norm(v))


def w3_vector():
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    return StateVector(amps)


class TestBasisState:
    def test_all_ground_is_index_zero(self):
        s = basis_state("0gg")
        assert s.amplitudes[0] == 1.0 and np.count_nonzero(s.amplitudes) == 1

    def test_bus_excited_sets_bit_zero(self):
        s = basis_state("1g")
        assert s.amplitudes[1] == 1.0

    def test_third_qubit_excited_sets_bit_two(self):
        s = basis_state("0geg")
        assert s.amplitudes[0b0100] == 1.0

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            basis_state([])

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            basis_state([0] * 17)


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(0)
        s = _random_state(rng, 3)
        out = apply_unitary(s, np.eye(4), [0, 2])
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_x_flips_tls(self):
        out = apply_unitary(basis_state("0g"), SIGMA["X"], [1])
        assert out.amplitudes[2] == 1.0

    def test_exchange_window_at_swap_time(self):
        # |1g> -> -i|0e> under the full-swap window gate
        c, s = 0.0, 1.0
        gate = np.array(
            [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, 1]]
        )
        out = apply_unitary(basis_state("1g"), gate, [0, 1])
        assert abs(out.amplitudes[2] - (-1j)) < 1e-12
        assert abs(out.amplitudes[1]) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(basis_state("0"), np.array([[1, 0], [0, 2]]), [0])

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            apply_unitary(basis_state("00"), np.eye(4), [1, 1])

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="range"):
            apply_unitary(basis_state("00"), SIGMA["X"], [2])

    def test_norm_preserved_under_random_unitaries(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, min(n, 2) + 1))
            targets = list(rng.choice(n, size=m, replace=False))
            s = _random_state(rng, n)
            out = apply_unitary(s, _haar_unitary(rng, 2**m), targets)
            assert abs(out.norm() - 1.0) < 1e-12


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(2)
        s = _random_state(rng, 2)
        h = rng.normal(size=(4, 4))
        h = h + h.T
        out = evolve(s, h, 0.0)
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-14)

    def test_diagonal_generator_adds_phases(self):
        omega = 3.0
        h = -(omega / 2) * SIGMA["Z"]
        s = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        out = evolve(s, h, 0.7)
        expected = np.array([np.exp(1j * omega * 0.7 / 2), np.exp(-1j * omega * 0.7 / 2)])
        assert np.allclose(out.amplitudes, expected / np.sqrt(2), atol=1e-12)

    def test_exchange_generator_reproduces_window_amplitudes(self):
        # exp(-i t (S/2)(XX+YY)) on |1g>: cos on |1g>, -i sin on |0e>
        coupling = 2.0
        xx = np.kron(SIGMA["X"], SIGMA["X"])
        yy = np.kron(SIGMA["Y"], SIGMA["Y"])
        gen = 0.5 * coupling * (xx + yy)
        for t in (0.3, 0.9, np.pi / (2 * coupling)):
            out = evolve(basis_state("1g"), gen, t)
            assert abs(out.amplitudes[1] - np.cos(coupling * t)) < 1e-12
            assert abs(out.amplitudes[2] - (-1j * np.sin(coupling * t))) < 1e-12

    def test_time_additivity(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(8, 8))
        h = h + h.T
        s = _random_state(rng, 3)
        once = evolve(s, h, 1.1)
        twice = evolve(evolve(s, h, 0.4), h, 0.7)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-10

    def test_rejects_non_hermitian(self):
        h = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(basis_state("0"), h, 1.0)

    def test_real_generator_matches_complex_cast(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 6):
            a = rng.normal(size=(2**n, 2**n))
            h = a + a.T
            s = _random_state(rng, n)
            t = float(rng.uniform(0, 3))
            real = evolve(s, h, t).amplitudes
            cast = evolve(s, h.astype(np.complex128), t).amplitudes
            assert np.abs(real - cast).max() < 1e-12

    def test_rejects_non_symmetric_real(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(basis_state("0"), h, 1.0)

    def test_norm_preserved_under_random_generators(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            h = a + a.conj().T
            s = _random_state(rng, n)
            out = evolve(s, h, float(rng.uniform(0, 3)))
            assert abs(out.norm() - 1.0) < 1e-12


class TestExpectation:
    def test_ground_z(self):
        assert expectation(basis_state("0"), PauliString("Z")) == pytest.approx(1.0)

    def test_w3_zzz_matches_diagonal_sum(self):
        # independent oracle: sum over basis weights with parity signs
        state = w3_vector()
        oracle = sum(
            abs(a) ** 2 * (-1.0) ** bin(i).count("1")
            for i, a in enumerate(state.amplitudes)
        )
        assert oracle == pytest.approx(-1.0, abs=1e-12)
        assert expectation(state, PauliString("ZZZ")) == pytest.approx(oracle, abs=1e-10)

    def test_plus_state_z_vanishes(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert abs(expectation(plus, PauliString("Z"))) < 1e-12

    def test_pauli_expectation_bounded(self):
        rng = np.random.default_rng(5)
        letters = "IXYZ"
        for _ in range(300):
            n = int(rng.integers(1, 4))
            labels = "".join(rng.choice(list(letters), size=n))
            if labels == "I" * n:
                continue
            val = expectation(_random_state(rng, n), PauliString(labels))
            assert -1 - 1e-10 <= val <= 1 + 1e-10

    def test_weighted_sum_and_dense_agree(self):
        rng = np.random.default_rng(6)
        terms = [(0.5, PauliString("XZ")), (-1.5, PauliString("YI"))]
        dense = 0.5 * PauliString("XZ").matrix() - 1.5 * PauliString("YI").matrix()
        s = _random_state(rng, 2)
        by_dense = float(np.real(np.vdot(s.amplitudes, dense @ s.amplitudes)))
        assert expectation(s, terms) == pytest.approx(by_dense, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(basis_state("00"), PauliString("Z"))


class TestFidelity:
    def test_identical(self):
        rng = np.random.default_rng(7)
        s = _random_state(rng, 3)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(basis_state("01"), basis_state("10")) == 0.0

    def test_plus_vs_ground(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert fidelity(plus, basis_state("0")) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state("0"), basis_state("00"))


class TestPartialTrace:
    def test_product_state_stays_pure(self):
        rng = np.random.default_rng(8)
        a = _random_state(rng, 1).amplitudes
        b = _random_state(rng, 2).amplitudes
        joint = StateVector(np.kron(b, a))  # qubit 0 = a
        rho = partial_trace(joint, [0])
        assert np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-10) == 1
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_bell_reduction_is_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        rho = partial_trace(bell, [1])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w3_single_qubit_reduction_rank_two(self):
        # oracle: eigenvalues of the 2x2 reduction are 2/3 and 1/3
        rho = partial_trace(w3_vector(), [2])
        eig = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(eig, [1 / 3, 2 / 3], atol=1e-10)
        assert np.sum(eig > 1e-10) == 2

    def test_keep_all_returns_projector(self):
        rng = np.random.default_rng(9)
        s = _random_state(rng, 3)
        rho = partial_trace(s, [0, 1, 2])
        eig = np.linalg.eigvalsh(rho.matrix)
        assert abs(eig[-1] - 1.0) < 1e-10
        assert np.sum(eig > 1e-10) == 1

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(basis_state("00"), [])


def moveaxis_rows(state, q):
    """The n-axis ``np.moveaxis`` layout of ``qubit_rows(state, [q])``."""
    n = state.num_qubits
    return np.moveaxis(state.amplitudes.reshape((2,) * n), n - 1 - q, 0).reshape(2, -1)


def moveaxis_join(rows, q):
    n = rows.size.bit_length() - 1
    psi = np.moveaxis(rows.reshape((2,) * n), 0, n - 1 - q)
    return np.ascontiguousarray(psi).reshape(-1)


class TestOneQubitRows:
    # one listed qubit takes a three-axis transpose instead of the n-axis
    # np.moveaxis; every entry and every gate product must stay the same
    @pytest.mark.parametrize("n", range(1, 12))
    def test_rows_and_gate_match_moveaxis_bitwise(self, n):
        rng = np.random.default_rng(700 + n)
        s = _random_state(rng, n)
        for q in range(n):
            rows = qubit_rows(s, [q])
            expected = moveaxis_rows(s, q)
            assert np.array_equal(rows, expected)
            assert rows.flags.c_contiguous == expected.flags.c_contiguous
            assert np.array_equal(join_qubit_rows(rows, [q]).amplitudes, moveaxis_join(rows, q))
            gate = _haar_unitary(rng, 2)
            out = apply_unitary(s, gate, [q])
            assert np.array_equal(out.amplitudes, moveaxis_join(gate @ expected, q))


@st.composite
def registers_and_qubit_lists(draw):
    """A random state of 1..7 qubits and a list of distinct qubits in any
    order, as ``apply_unitary`` accepts for its targets."""
    n = draw(st.integers(1, 7))
    state = _random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    qubits = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return state, qubits


class TestQubitRows:
    @settings(max_examples=200, deadline=None)
    @given(registers_and_qubit_lists())
    def test_join_inverts_split_bitwise(self, case):
        state, qubits = case
        back = join_qubit_rows(qubit_rows(state, qubits), qubits)
        assert np.array_equal(back.amplitudes, state.amplitudes)

    @settings(max_examples=200, deadline=None)
    @given(registers_and_qubit_lists())
    def test_entry_layout(self, case):
        # row bit p is qubits[p]; column bits fill the other qubits, the
        # smallest on bit 0
        state, qubits = case
        n, m = state.num_qubits, len(qubits)
        others = [q for q in range(n) if q not in qubits]
        rows = qubit_rows(state, qubits)
        assert rows.shape == (2**m, 2 ** (n - m))
        for r in range(2**m):
            for c in range(2 ** (n - m)):
                index = sum(((r >> p) & 1) << q for p, q in enumerate(qubits))
                index += sum(((c >> i) & 1) << q for i, q in enumerate(others))
                assert rows[r, c] == state.amplitudes[index]


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_ground_register_shape(self):
        s = ground_register(4)
        assert s.num_qubits == 5
        assert s.amplitudes[0] == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteRejected:
    """Each tolerance check fails closed: a NaN or infinite input raises
    instead of comparing False against its tolerance."""

    def test_apply_unitary_gate(self, bad):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(ground_register(3), np.full((2, 2), bad), [0])
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(ground_register(3), np.diag([1.0, bad]), [2])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_evolve_generator(self, bad, dtype):
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(ground_register(1), np.full((4, 4), bad, dtype=dtype), 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(ground_register(1), np.diag([0.0, 1.0, bad, 2.0]).astype(dtype), 1.0)

    def test_evolve_time(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            evolve(ground_register(1), np.eye(4), bad)

    def test_density_matrix(self, bad):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="Hermitian|trace"):
            DensityMatrix(np.diag([bad, 0.0]))

    def test_expectation(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            expectation(StateVector(np.array([bad, 0.0])), PauliString("Z"))
        with pytest.raises(ValueError, match="not finite"):
            expectation(basis_state("0"), [(bad, PauliString("Z"))])
