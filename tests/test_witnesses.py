import csv
import itertools
import math

import numpy as np
import pytest

from conftest import DEMO_CONFIG, literal_cluster_operator
from phasebus.cli import main
from phasebus.paulis import SIGMA, apply_pauli, pauli_decompose, pauli_sum_matrix
from phasebus.protocols import cluster_state, w_state
from phasebus.states import StateVector, expectation
from phasebus.witnesses import (
    BASIS_DIRECTIONS,
    MeasurementSetting,
    WitnessOperator,
    _w_terms,
    cluster_stabilizers,
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
    witness_value_exact,
)

AXIS_MATRIX = {
    "x": SIGMA["X"],
    "y": SIGMA["Y"],
    "z": SIGMA["Z"],
    "z+x": (SIGMA["Z"] + SIGMA["X"]) / np.sqrt(2),
    "z-x": (SIGMA["Z"] - SIGMA["X"]) / np.sqrt(2),
    "z+y": (SIGMA["Z"] + SIGMA["Y"]) / np.sqrt(2),
    "z-y": (SIGMA["Z"] - SIGMA["Y"]) / np.sqrt(2),
}


def random_product_state(rng, n) -> StateVector:
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(q / np.linalg.norm(q), amps)
    return StateVector(amps)


def axis_matrix(basis) -> np.ndarray:
    """sigma . n for a basis label or a Bloch direction (theta, phi)."""
    if isinstance(basis, str):
        return AXIS_MATRIX[basis]
    theta, phi = basis
    return (
        np.sin(theta) * np.cos(phi) * SIGMA["X"]
        + np.sin(theta) * np.sin(phi) * SIGMA["Y"]
        + np.cos(theta) * SIGMA["Z"]
    )


def kron_qubits(mats) -> np.ndarray:
    """Tensor product with qubit 0 innermost."""
    full = np.array([[1.0]], dtype=complex)
    for m in reversed(mats):
        full = np.kron(full, m)
    return full


def term_operator(bases, weights, support) -> np.ndarray:
    """sum over outcome strings o on the support of weights[#(o_q = +1)]
    prod_{q in support} P_q(o_q), identity elsewhere, with
    P_q(o) = (I + o sigma . n_q) / 2."""
    n = len(bases)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for signs in itertools.product((1, -1), repeat=len(support)):
        factors = [np.eye(2)] * n
        for q, o in zip(support, signs):
            factors[q] = (np.eye(2) + o * axis_matrix(bases[q])) / 2
        total += weights[signs.count(1)] * kron_qubits(factors)
    return total


def w3_formula_matrix() -> np.ndarray:
    """Dense five-setting decomposition of the three-qubit W witness,
    24 W = 17 I + 3 sum Z + 5 sum ZZ + 7 ZZZ - sum (I + Z +- sigma_eta)^x3."""
    ident = np.eye(2)
    z = SIGMA["Z"]

    def comp(eta, sign):
        b = ident + z + sign * SIGMA[eta]
        return kron_qubits([b, b, b])

    m = 17.0 * np.eye(8, dtype=np.complex128)
    m += 7.0 * kron_qubits([z, z, z])
    m += 3.0 * (kron_qubits([z, ident, ident]) + kron_qubits([ident, z, ident])
                + kron_qubits([ident, ident, z]))
    m += 5.0 * (kron_qubits([z, z, ident]) + kron_qubits([z, ident, z])
                + kron_qubits([ident, z, z]))
    m -= comp("X", +1) + comp("X", -1) + comp("Y", +1) + comp("Y", -1)
    return m / 24.0


def w_projector_witness(n: int) -> np.ndarray:
    """Dense ((N-1)/N) I - |W_N><W_N|."""
    w = w_state(n).amplitudes
    return ((n - 1) / n) * np.eye(2**n) - np.outer(w, w.conj())


def plan_matrix(witness: WitnessOperator) -> np.ndarray:
    """Rebuild the witness from its estimation plan (offset + settings)."""
    n = witness.qubit_count
    total = witness.offset * np.eye(2**n, dtype=complex)
    for setting in group_settings(witness):
        for weights, support in setting.terms:
            total += term_operator(setting.bases, weights, support)
    return total


class TestWWitness:
    def test_value_on_target(self):
        for n in (2, 3, 4):
            w = w_witness(n)
            val = witness_value_exact(w_state(n), w)
            assert val == pytest.approx(-1.0 / n, abs=1e-10)

    def test_value_on_all_ground(self):
        w = w_witness(3)
        ground = StateVector(np.eye(8)[0].astype(complex))
        assert witness_value_exact(ground, w) == pytest.approx(2 / 3, abs=1e-10)

    def test_range_check(self):
        with pytest.raises(ValueError):
            w_witness(1)
        with pytest.raises(ValueError):
            w_witness(11)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_terms_match_dense_expansion(self, n):
        # the closed-form term list against pauli_decompose of the dense
        # projector: same strings in the same order, same coefficients
        closed = _w_terms(n)
        dense = pauli_decompose(w_projector_witness(n))
        assert [p.labels for _, p in closed] == [p.labels for _, p in dense]
        assert max(abs(a - b) for (a, _), (b, _) in zip(closed, dense)) < 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_nonnegative_on_product_states(self, n):
        rng = np.random.default_rng(100 + n)
        w = w_witness(n)
        dense = w.to_matrix()
        vals = [
            float(
                np.real(
                    np.vdot(s.amplitudes, dense @ s.amplitudes)
                )
            )
            for s in (random_product_state(rng, n) for _ in range(300))
        ]
        assert min(vals) >= -1e-10


class TestW3Decomposed:
    def test_dense_matrix_matches_projector_form(self):
        assert (
            np.abs(w3_witness_decomposed().to_matrix() - w_witness(3).to_matrix()).max()
            < 1e-12
        )

    def test_exactly_five_settings(self):
        settings = group_settings(w3_witness_decomposed())
        assert len(settings) == 5
        bases = sorted(s.bases[0] for s in settings)
        assert bases == ["z", "z+x", "z+y", "z-x", "z-y"]

    def test_value_on_target(self):
        wd = w3_witness_decomposed()
        assert witness_value_exact(w_state(3), wd) == pytest.approx(-1 / 3, abs=1e-10)

    def test_terms_rebuild_matrix(self):
        wd = w3_witness_decomposed()
        assert np.abs(pauli_sum_matrix(wd.terms, 3) - wd.to_matrix()).max() < 1e-12

    def test_plan_rebuilds_matrix(self):
        w = w3_witness_decomposed()
        assert np.abs(plan_matrix(w) - w.to_matrix()).max() < 1e-12

    def test_plan_matches_formula_and_projector(self):
        # the five count tables and the closed-form offset against the dense
        # five-setting formula and the projector form
        rebuilt = plan_matrix(w3_witness_decomposed())
        assert np.abs(rebuilt - w3_formula_matrix()).max() < 1e-12
        assert np.abs(rebuilt - w_projector_witness(3)).max() < 1e-12


def rotated_count_distribution(amps: np.ndarray, n: int, direction) -> np.ndarray:
    """P(m of the n qubits read +1) when every qubit is read along one Bloch
    direction, from the direction's eigenvectors built here."""
    theta, phi = direction
    plus = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    minus = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    to_eigenbasis = np.array([plus.conj(), minus.conj()])
    psi = amps.reshape((2,) * n)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(to_eigenbasis, psi, axes=([1], [axis])), 0, axis)
    probs = np.abs(psi.reshape(-1)) ** 2
    minus_count = np.array([bin(i).count("1") for i in range(2**n)])
    return np.bincount(n - minus_count, weights=probs, minlength=n + 1)


class TestWCollectivePlan:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_plan_rebuilds_matrix(self, n):
        w = w_witness(n)
        assert np.abs(plan_matrix(w) - w.to_matrix()).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_settings_count_and_form(self, n):
        # z plus floor((N+1)/2) cones of N+1 azimuths, within the (N+1)(N+2)/2
        # generic collective directions; each reads all qubits along one
        # direction and weighs a shot by its count of +1 outcomes
        counts = {2: 4, 3: 9, 4: 11, 5: 19, 6: 22, 7: 33, 8: 37, 9: 51, 10: 56}
        settings = group_settings(w_witness(n))
        assert len(settings) == counts[n] <= (n + 1) * (n + 2) // 2
        for s in settings:
            assert len(set(s.bases)) == 1 and len(s.bases) == n
            [(weights, support)] = s.terms
            assert support == tuple(range(n)) and len(weights) == n + 1

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_plan_expectation_matches_exact(self, n):
        # past the sizes where rebuilding the dense matrix is cheap, compare
        # the plan's expectation with the term-by-term value instead
        rng = np.random.default_rng(300 + n)
        w = w_witness(n)
        random = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for state in (w_state(n), StateVector(random / np.linalg.norm(random))):
            value = w.offset
            for s in group_settings(w):
                direction = (0.0, 0.0) if s.bases[0] == "z" else s.bases[0]
                dist = rotated_count_distribution(state.amplitudes, n, direction)
                [(weights, _)] = s.terms
                value += float(dist @ np.asarray(weights))
            assert value == pytest.approx(term_sum(state, w.terms), abs=1e-12)


class TestClusterStabilizers:
    def test_three_qubit_generators(self):
        gens = [g.labels for g in cluster_stabilizers(3)]
        assert gens == ["XZI", "ZXZ", "IZX"]

    def test_algebra(self):
        for g in cluster_stabilizers(5):
            m = g.matrix()
            assert np.allclose(m @ m, np.eye(32), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_generators_commute(self, n):
        # dense commutators while they are cheap; beyond that, two strings
        # commute when they carry different non-identity letters on an even
        # number of sites
        gens = cluster_stabilizers(n)
        assert isinstance(gens, tuple) and len(gens) == n
        for a, b in itertools.combinations(gens, 2):
            if n <= 6:
                ma, mb = a.matrix(), b.matrix()
                assert np.array_equal(ma @ mb, mb @ ma), (a, b)
            clashes = sum("I" != x != y != "I" for x, y in zip(a.labels, b.labels))
            assert clashes % 2 == 0, (a, b)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cluster_state_is_plus_one_eigenstate(self, n):
        state = cluster_state(n)
        for gen in cluster_stabilizers(n):
            assert expectation(state, gen) == pytest.approx(1.0, abs=1e-10)


def dense_generators(n: int) -> list[np.ndarray]:
    """Chain generator k as a dense matrix: X on qubit k, Z on its neighbours."""
    gens = []
    for k in range(n):
        factors = [np.eye(2)] * n
        factors[k] = SIGMA["X"]
        for q in (k - 1, k + 1):
            if 0 <= q < n:
                factors[q] = SIGMA["Z"]
        gens.append(kron_qubits(factors))
    return gens


class TestClosedFormChainProducts:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_stabilizers_are_the_dense_generators(self, n):
        for gen, dense in zip(cluster_stabilizers(n), dense_generators(n), strict=True):
            assert np.array_equal(gen.matrix(), dense)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_witness_terms_are_dense_generator_products(self, n):
        # each parity group's products in subset order (bit j of the subset
        # index picks the group's j-th generator), odd positions' X first
        gens = dense_generators(n)
        expected = []
        scales = []
        for group in (gens[1::2], gens[0::2]):
            scale = -2.0 / 2 ** len(group)
            scales.append(scale)
            for index in range(1, 2 ** len(group)):
                product = np.eye(2**n)
                for j, g in enumerate(group):
                    if index >> j & 1:
                        product = product @ g
                expected.append((scale, product))
        (offset, identity), *terms = cluster_witness(n).terms
        assert identity.is_identity() and offset == 3.0 + scales[0] + scales[1]
        assert len(terms) == len(expected)
        for (coeff, pauli), (scale, product) in zip(terms, expected):
            assert coeff == scale
            assert np.array_equal(pauli.matrix(), product)


class TestMeasurementSetting:
    @pytest.mark.parametrize(
        "terms",
        [
            (((1.0, -1.0), (-1,)),),
            (((1.0, -1.0, 1.0), (0, 0)),),
            (((1.0, -1.0, 1.0), (1, 1)),),
            (((1.0, -1.0), (2,)),),
        ],
        ids=["negative", "repeated-0", "repeated-1", "past-last"],
    )
    def test_rejects_support_outside_distinct_qubits(self, terms):
        with pytest.raises(ValueError, match="support"):
            MeasurementSetting(("z", "x"), terms)

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, -1.0, 1.0)])
    def test_rejects_weight_count_other_than_support_plus_one(self, weights):
        with pytest.raises(ValueError, match="one weight per count"):
            MeasurementSetting(("z", "x"), ((weights, (1,)),))

    def test_accepts_product_and_count_terms(self):
        setting = MeasurementSetting(("z", "x"), (((-0.5, 0.5), (1,)), ((1.0, 2.0, 3.0), (1, 0))))
        assert len(setting.terms) == 2


class TestClusterWitness:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_detects_target(self, n):
        w = cluster_witness(n)
        assert witness_value_exact(cluster_state(n), w) == pytest.approx(-1.0, abs=1e-10)

    def test_all_ground_value(self):
        # only the identity part of each projector product survives
        w = cluster_witness(4)
        ground = StateVector(np.eye(16)[0].astype(complex))
        assert witness_value_exact(ground, w) == pytest.approx(2.0, abs=1e-10)

    def test_literal_form_fails_to_detect(self):
        w = literal_cluster_operator(4)
        assert witness_value_exact(cluster_state(4), w) >= 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_two_settings_for_any_size(self, n):
        assert len(group_settings(cluster_witness(n))) == 2

    def test_setting_patterns_alternate(self):
        settings = group_settings(cluster_witness(4))
        patterns = sorted("".join(s.bases) for s in settings)
        assert patterns == ["xzxz", "zxzx"]

    def test_plan_rebuilds_matrix(self):
        for n in range(2, 7):
            w = cluster_witness(n)
            assert np.abs(plan_matrix(w) - w.to_matrix()).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_nonnegative_on_product_states(self, n):
        rng = np.random.default_rng(200 + n)
        dense = cluster_witness(n).to_matrix()
        vals = [
            float(np.real(np.vdot(s.amplitudes, dense @ s.amplitudes)))
            for s in (random_product_state(rng, n) for _ in range(300))
        ]
        assert min(vals) >= -1e-10


class TestGroupSettings:
    def test_every_term_covered_and_every_qubit_assigned(self):
        for w in (w3_witness_decomposed(), cluster_witness(5), w_witness(4)):
            for s in group_settings(w):
                assert len(s.bases) == w.qubit_count
                for b in s.bases:
                    # a label of the basis table or a finite (theta, phi)
                    if isinstance(b, str):
                        assert b in BASIS_DIRECTIONS
                    else:
                        assert len(b) == 2 and np.isfinite(b).all()


def term_sum(state, terms):
    """sum_k coeff_k <psi|P_k|psi>, one expectation per term."""
    return sum(coeff * expectation(state, pauli) for coeff, pauli in terms)


class TestWitnessValueExact:
    def test_terms_and_dense_agree(self):
        rng = np.random.default_rng(9)
        for w in (w_witness(3), cluster_witness(4)):
            dense = w.to_matrix()
            for _ in range(20):
                v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
                v /= np.linalg.norm(v)
                s = StateVector(v)
                by_terms = witness_value_exact(s, w)
                by_dense = float(np.real(np.vdot(v, dense @ v)))
                assert by_terms == pytest.approx(by_dense, abs=1e-10)

    @pytest.mark.parametrize(
        "witness",
        [w_witness(n) for n in range(2, 11)] + [w3_witness_decomposed()],
        ids=[f"w{n}" for n in range(2, 11)] + ["w3-decomposed"],
    )
    def test_w_overlap_matches_term_sum(self, witness):
        # the term-by-term sum is the oracle for the one-overlap value
        n = witness.qubit_count
        rng = np.random.default_rng(700 + n)
        random = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for state in (w_state(n), StateVector(random / np.linalg.norm(random)),
                      random_product_state(rng, n)):
            by_overlap = witness_value_exact(state, witness)
            assert by_overlap == pytest.approx(term_sum(state, witness.terms), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cluster_term_sum_bits(self, n):
        # oracle: one complex accumulator of coeff * <psi|P|psi>, real part
        # taken at the end; real coefficients make the per-term float sum
        # the same bits
        w = cluster_witness(n)
        rng = np.random.default_rng(800 + n)
        for _ in range(20):
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(v / np.linalg.norm(v))
            acc = 0.0 + 0.0j
            for coeff, pauli in w.terms:
                acc += coeff * np.vdot(state.amplitudes, apply_pauli(pauli, state).amplitudes)
            assert repr(witness_value_exact(state, w)) == repr(float(acc.real))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            witness_value_exact(w_state(2), w_witness(3))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        # every witness run writes its term list as witness_terms.csv: the
        # rows follow witness.terms in order and each coefficient reads back
        # to the same bits
        for args, witness in [
            (["--target", "c3"], cluster_witness(3)),
            (["--target", "w3", "--decomposed"], w3_witness_decomposed()),
            (["--target", "w10"], w_witness(10)),
        ]:
            out = tmp_path / args[1]
            assert main(["witness", "--config", DEMO_CONFIG, *args, "--out", str(out)]) == 0
            with open(out / "witness_terms.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["coefficient", "pauli_string"]
            assert [(float(c).hex(), labels) for c, labels in rows[1:]] == [
                (float(c).hex(), p.labels) for c, p in witness.terms
            ]
        assert len(rows) == 1 + 23_812


def fancy_index_w_vector(n: int) -> np.ndarray:
    """|W_N> as the W witness built it before it shared ``w_state``."""
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[1 << np.arange(n)] = 1.0 / math.sqrt(n)
    return amplitudes


def loop_w_vector(n: int) -> np.ndarray:
    """|W_N> as the W protocol built it, one amplitude at a time."""
    amps = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return amps


class TestOneWVector:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_witness_projector_is_the_fancy_index_vector(self, n):
        level, phi = w_witness(n).projector
        assert level == (n - 1) / n
        assert phi.amplitudes.tobytes() == fancy_index_w_vector(n).tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_w_state_is_the_loop_vector(self, n):
        assert w_state(n).amplitudes.tobytes() == loop_w_vector(n).tobytes()

    def test_one_definition(self):
        import phasebus
        from phasebus import protocols, states

        assert phasebus.w_state is protocols.w_state is states.w_state

    def test_decomposed_w3_shares_the_vector(self):
        _, phi = w3_witness_decomposed().projector
        assert phi.amplitudes.tobytes() == fancy_index_w_vector(3).tobytes()
