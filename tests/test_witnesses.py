import numpy as np
import pytest

from conftest import literal_cluster_operator
from phasebus.paulis import SIGMA, PauliString
from phasebus.protocols import cluster_state, w_state
from phasebus.states import DensityMatrix, StateVector
from phasebus.witnesses import (
    BASIS_LABELS,
    StabilizerSet,
    WitnessOperator,
    cluster_stabilizers,
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
    witness_from_csv,
    witness_to_csv,
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


def plan_matrix(witness: WitnessOperator) -> np.ndarray:
    """Rebuild the witness from its estimation plan (offset + settings)."""
    n = witness.qubit_count
    settings = group_settings(witness)  # sets the offset of a greedy plan
    total = witness.offset * np.eye(2**n, dtype=complex)
    for setting in settings:
        for coeff, support in setting.shot_terms:
            mats = [
                AXIS_MATRIX[setting.bases[q]] if q in support else np.eye(2)
                for q in range(n)
            ]
            full = np.array([[1.0]], dtype=complex)
            for q in reversed(range(n)):
                full = np.kron(full, mats[q])
            total += coeff * full
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
        from phasebus.paulis import pauli_sum_matrix

        assert np.abs(pauli_sum_matrix(wd.terms) - wd.to_matrix()).max() < 1e-12

    def test_plan_rebuilds_matrix(self):
        # the greedy plan of w_witness(4) must cover every term to rebuild it
        for w in (w3_witness_decomposed(), w_witness(4)):
            assert np.abs(plan_matrix(w) - w.to_matrix()).max() < 1e-12


class TestClusterStabilizers:
    def test_three_qubit_generators(self):
        gens = [g.labels for g in cluster_stabilizers(3)]
        assert gens == ["XZI", "ZXZ", "IZX"]

    def test_algebra(self):
        st = cluster_stabilizers(5)
        gens = list(st)
        for g in gens:
            m = g.matrix()
            assert np.allclose(m @ m, np.eye(32), atol=1e-12)
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                assert a.commutes_with(b)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cluster_state_is_plus_one_eigenstate(self, n):
        from phasebus.states import expectation

        state = cluster_state(n)
        for gen in cluster_stabilizers(n):
            assert expectation(state, gen) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_noncommuting_set(self):
        with pytest.raises(ValueError, match="commute"):
            StabilizerSet((PauliString("XI"), PauliString("ZI")))


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
        for n in (2, 3, 5):
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
    def test_single_term_single_setting(self):
        w = WitnessOperator([(1.0, PauliString("ZZ"))], "demo", 2)
        settings = group_settings(w)
        assert len(settings) == 1
        assert settings[0].bases == ("z", "z")

    def test_every_term_covered_and_every_qubit_assigned(self):
        for w in (w3_witness_decomposed(), cluster_witness(5), w_witness(4)):
            for s in group_settings(w):
                assert len(s.bases) == w.qubit_count
                for b in s.bases:
                    assert b in BASIS_LABELS


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

    def test_density_matrix_overload(self):
        w = w_witness(3)
        rho = DensityMatrix(np.eye(8) / 8)
        assert witness_value_exact(rho, w) == pytest.approx(2 / 3 - 1 / 8, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            witness_value_exact(w_state(2), w_witness(3))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        w = cluster_witness(3)
        path = tmp_path / "witness.csv"
        witness_to_csv(w, path)
        back = witness_from_csv(path, target_label=w.target_label)
        assert len(back.terms) == len(w.terms)
        assert np.abs(back.to_matrix() - w.to_matrix()).max() < 1e-12

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,XX\n")
        with pytest.raises(ValueError, match="header"):
            witness_from_csv(path)
