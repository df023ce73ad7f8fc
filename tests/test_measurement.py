import csv
import io
import itertools

import numpy as np
import pytest

from conftest import DEMO_CONFIG, simple_config
from phasebus.config_io import load_config
from phasebus.device import ProtocolError, resonant_evolution
from phasebus.measurement import (
    _AXES,
    _SHOT_BLOCK,
    ZERO_BRANCH_TOL,
    ReadoutModel,
    ShotRecord,
    _conditional_tables,
    _mean_and_variance,
    _pattern_outcomes,
    _value_table,
    derive_rng,
    estimate_witness_sampled,
    measure_bus,
    rotate_for_basis,
    sample_shots,
    tomography_two_qubit,
)
from phasebus.paulis import SIGMA, PauliString
from phasebus.protocols import (
    reset_bus,
    run_bell,
    run_cluster_protocol,
    run_w_protocol,
)
from phasebus.states import (
    StateVector,
    _measured_probabilities,
    apply_unitary,
    basis_state,
    expectation,
    w_state,
)
from phasebus.witnesses import (
    cluster_witness,
    group_settings,
    w3_witness_decomposed,
    w_witness,
)


class TestReadoutModel:
    def test_fidelity_range(self):
        with pytest.raises(ValueError):
            ReadoutModel(fidelity=0.5)
        with pytest.raises(ValueError):
            ReadoutModel(fidelity=1.01)

    def test_named_streams_reproducible_and_distinct(self):
        a = derive_rng(7, "alpha").random(4)
        b = derive_rng(7, "alpha").random(4)
        c = derive_rng(7, "beta").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMeasureBus:
    def test_excited_bus_reports_one_at_unit_fidelity(self):
        ro = ReadoutModel(1.0, seed=0)
        for _ in range(50):
            outcome, state = measure_bus(basis_state("1"), ro)
            assert outcome == 1
            assert abs(state.amplitudes[1] - 1.0) < 1e-12

    def test_ground_bus_never_flips_true_branch(self):
        ro = ReadoutModel(1.0, seed=1)
        for _ in range(50):
            outcome, state = measure_bus(basis_state("0g"), ro)
            assert outcome == 0
            assert state.amplitudes[0] == 1.0

    def test_equal_superposition_is_balanced(self):
        ro = ReadoutModel(1.0, seed=2)
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        shots = 20000
        ones = sum(measure_bus(plus, ro)[0] for _ in range(shots))
        sigma = np.sqrt(0.25 / shots)
        assert abs(ones / shots - 0.5) < 3 * sigma

    def test_finite_fidelity_flip_rate(self):
        ro = ReadoutModel(0.96, seed=3)
        shots = 20000
        ones = sum(measure_bus(basis_state("1"), ro)[0] for _ in range(shots))
        sigma = np.sqrt(0.96 * 0.04 / shots)
        assert abs(ones / shots - 0.96) < 3 * sigma

    def test_collapse_conditions_remaining_qubits(self):
        # bus and TLS correlated: outcome fixes the TLS
        ro = ReadoutModel(1.0, seed=4)
        corr = StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        for _ in range(20):
            outcome, state = measure_bus(corr, ro)
            idx = 3 if outcome else 0
            assert abs(state.amplitudes[idx] - 1.0) < 1e-12

    def test_w3_single_excitation_per_shot(self, config3):
        # swap each TLS of W3 onto the bus and read it: one reads 1 per shot
        rep = run_w_protocol(config3, 3)
        ro = ReadoutModel(1.0, seed=7)
        for _ in range(200):
            psi = rep.final_state
            total = 0
            for k, q in enumerate((1, 2, 3)):
                if k:
                    psi = reset_bus(psi)
                outcome, psi = measure_bus(swap(psi, q, config3), ro)
                total += outcome
            assert total == 1


class TestRotateForBasis:
    def test_z_is_identity(self):
        s = basis_state("0g")
        out = rotate_for_basis(s, 1, "z")
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_x_maps_plus_to_ground(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        out = rotate_for_basis(plus, 0, "x")
        assert abs(out.amplitudes[0] - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "basis",
        ["x", "y", "z+x", "z-x", "z+y", "z-y", (0.7, 2.1), (1.9, -0.4), (2.6, 4.0)],
        ids=str,
    )
    def test_plus_eigenvector_maps_to_ground(self, basis):
        # oracle: eigen-decompose the measured axis directly
        from phasebus.witnesses import BASIS_DIRECTIONS

        theta, phi = basis if isinstance(basis, tuple) else BASIS_DIRECTIONS[basis]
        axis = (
            np.sin(theta) * np.cos(phi) * SIGMA["X"]
            + np.sin(theta) * np.sin(phi) * SIGMA["Y"]
            + np.cos(theta) * SIGMA["Z"]
        )
        w, v = np.linalg.eigh(axis)
        plus_vec = v[:, np.argmax(w)]
        out = rotate_for_basis(StateVector(plus_vec), 0, basis)
        assert abs(abs(out.amplitudes[0]) - 1.0) < 1e-12

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            rotate_for_basis(basis_state("0"), 0, "w")
        with pytest.raises(ValueError):
            rotate_for_basis(basis_state("0"), 0, (np.nan, 0.0))


def swap(state, j, config):
    """Full excitation swap between the bus and TLS j: one window of tau_j."""
    return resonant_evolution(state, j, config.swap_time(j), config)


def outcomes(record):
    """A shot record's (shots, m) +-1 outcomes."""
    return _pattern_outcomes(record.patterns, len(record.qubits))


def physical_shots(state, qubits, bases, shots, config, readout, rng):
    """Oracle for ``sample_shots``: walk the explicit per-shot sequence.

    Each shot rotates the TLSs into their bases, then reads them in
    ascending order: a bus reset between reads, a full swap window that
    moves the TLS onto the bus, and a bus measurement.  The bus readout
    draws its uniforms one at a time from ``rng``, the same stream a
    (shots, m, 2) draw of the sampler fills in the same order.
    """
    bus = ReadoutModel(readout.fidelity)
    bus.rng = rng
    reported = np.zeros((shots, len(qubits)), dtype=int)
    for s in range(shots):
        psi = state
        for q, b in zip(qubits, bases):
            psi = rotate_for_basis(psi, q, b)
        for k, q in enumerate(qubits):
            if k > 0:
                psi = reset_bus(psi)
            reported[s, k], psi = measure_bus(swap(psi, q, config), bus)
    return 1 - 2 * reported


def one_draw_shots(state, qubits, bases, shots, readout, rng):
    """Oracle for the blocked uniform draw of ``sample_shots``: every
    uniform in one (shots, m, 2) draw, the conditional chain walked over
    all shots at once.  Returns the reported outcome patterns."""
    m = len(qubits)
    uniforms = rng.random((shots, m, 2))
    for q, b in zip(qubits, bases):
        state = rotate_for_basis(state, q, b)
    marginals = [_measured_probabilities(state, qubits)]
    for k in range(m - 1, 0, -1):
        marginals.insert(0, marginals[0].sum(axis=k))
    prefix = np.zeros(shots, dtype=np.int64)
    for k in range(m):
        joint = marginals[k].reshape(-1, 2)
        denom = joint.sum(axis=1)
        t = np.where(denom > 0, joint[:, 1] / np.where(denom > 0, denom, 1.0), 0.0)
        t = np.where(t < 1e-14, 0.0, np.where(t > 1 - 1e-14, 1.0, t))
        prefix = (prefix << 1) | (uniforms[:, k, 0] < t[prefix])
    flips = np.zeros(shots, dtype=np.int64)
    for k in range(m):
        flips = (flips << 1) | (uniforms[:, k, 1] < 1.0 - readout.fidelity)
    return prefix ^ flips


BLOCK_EDGE_SHOTS = [2, _SHOT_BLOCK - 1, _SHOT_BLOCK, _SHOT_BLOCK + 1, 3 * _SHOT_BLOCK + 7]
READ_QUBITS = {1: [3], 2: [2, 5], 3: [1, 4, 7], 10: list(range(1, 11))}
MIXED_BASES = ("z", "x", "z+y", (0.7, 2.1), "y", "z-x", (2.5, -1.0), "z+x", "z-y", "x")


class TestSampleShots:
    @pytest.mark.parametrize("fidelity", [1.0, 0.96])
    @pytest.mark.parametrize("m", sorted(READ_QUBITS))
    @pytest.mark.parametrize("shots", BLOCK_EDGE_SHOTS)
    def test_blocked_draw_equals_one_draw(self, shots, m, fidelity):
        rng = np.random.default_rng(1000 * m + shots)
        psi = rng.normal(size=2**11) + 1j * rng.normal(size=2**11)  # bus + 10 TLSs
        state = StateVector(psi / np.linalg.norm(psi))
        qubits, bases = READ_QUBITS[m], MIXED_BASES[:m]
        ro = ReadoutModel(fidelity, seed=16)
        rec = sample_shots(state, qubits, bases, shots, ro, derive_rng(m, "blocks"))
        oracle = one_draw_shots(state, qubits, bases, shots, ro, derive_rng(m, "blocks"))
        assert rec.patterns.dtype == np.min_scalar_type(2**m - 1)
        assert np.array_equal(rec.patterns, oracle)

    def test_fast_and_physical_agree_bitwise(self, config3):
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(0.96, seed=11)
        cases = [([1, 2, 3], bases) for bases in
                 (("z", "z", "z"), ("z+x", "z+x", "z+x"), ("x", "y", "z"))]
        cases.append(([2], ((0.7, 2.1),)))  # one read qubit, a Bloch direction
        for qubits, bases in cases:
            fast = sample_shots(state, qubits, bases, 300, ro, derive_rng(5, "cmp"))
            phys = physical_shots(
                state, qubits, bases, 300, config3, ro, derive_rng(5, "cmp")
            )
            assert np.array_equal(outcomes(fast), phys)

    def test_requires_ascending_qubits(self, config3):
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(1.0, seed=12)
        with pytest.raises(ValueError, match="ascending"):
            sample_shots(state, [2, 1], ("z", "z"), 10, ro, derive_rng(0, "x"))

    def test_requires_one_basis_per_qubit(self, config3):
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(1.0, seed=12)
        with pytest.raises(ValueError, match="2 bases for 3 qubits"):
            sample_shots(state, [1, 2, 3], ("z", "x"), 10, ro, derive_rng(0, "x"))

    def test_reported_bias_matches_scaling(self, config3):
        # on an eigenstate, E[reported value] = (2F - 1) * E[true value]
        fidelity = 0.9
        ro = ReadoutModel(fidelity, seed=13)
        state = basis_state("0egg")  # TLS 1 excited: true z value -1
        rec = sample_shots(state, [1], ("z",), 40000, ro, derive_rng(1, "bias"))
        mean = outcomes(rec).mean()
        expected = -(2 * fidelity - 1)
        sigma = np.sqrt((1 - expected**2) / 40000)
        assert abs(mean - expected) < 4 * sigma

    def test_csv_equals_csv_writer_for_labels(self, tmp_path, config3):
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(1.0, seed=14)
        rec = sample_shots(state, [1, 2], ("x", "z"), 40, ro, derive_rng(2, "csv"))
        path = tmp_path / "shots.csv"
        rec.to_csv(path)
        assert path.read_bytes() == csv_writer_bytes(["q1:x", "q2:z"], outcomes(rec))

    def test_csv_equals_csv_writer_for_directions(self, tmp_path, config3):
        # labels keep their header text; a direction is written theta/phi
        # with round-trip float text
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(1.0, seed=15)
        bases = ("z+x", (0.5711986642890533, 2.0943951023931953),
                 (np.float64(1.0), -0.25))
        rec = sample_shots(state, [1, 2, 3], bases, 40, ro, derive_rng(3, "csv"))
        path = tmp_path / "shots.csv"
        rec.to_csv(path)
        header = ["q1:z+x", "q2:0.5711986642890533/2.0943951023931953", "q3:1.0/-0.25"]
        assert path.read_bytes() == csv_writer_bytes(header, outcomes(rec))

    def test_csv_rows_match_csv_writer_across_blocks(self, tmp_path):
        # the streamed rows are byte for byte what csv.writer makes of the
        # unpacked outcomes, also past a 4,096-shot block boundary
        rng = np.random.default_rng(16)
        rec = ShotRecord((1, 2, 3), ("z", "x", "y"), rng.integers(0, 8, 2 * 4096 + 3))
        path = tmp_path / "shots.csv"
        rec.to_csv(path)
        assert path.read_bytes() == csv_writer_bytes(["q1:z", "q2:x", "q3:y"], outcomes(rec))

    def test_outcomes_unpack_patterns(self):
        # bit m-1-k of a pattern is set when read qubit k reported -1
        rec = ShotRecord((1, 2, 3), ("z", "z", "z"), np.array([0, 4, 1, 7]))
        assert outcomes(rec).tolist() == [
            [1, 1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1],
        ]

    def test_rejects_patterns_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ShotRecord((1, 2), ("z", "z"), np.zeros((4, 2), dtype=np.int64))


def csv_writer_bytes(header, outcomes):
    """Oracle for ``ShotRecord.to_csv``: the header and the (shots, m) +-1
    outcomes as ``csv.writer`` writes them."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(outcomes.tolist())
    return expected.getvalue().encode()


def shot_values(setting, outcomes):
    """Oracle for ``_value_table``: apply a setting's rule shot by shot to a
    (shots, m) array of +-1 outcomes."""
    values = np.zeros(outcomes.shape[0])
    for weights, support in setting.terms:
        values += np.asarray(weights)[(outcomes[:, list(support)] > 0).sum(axis=1)]
    return values


WITNESSES = (
    [pytest.param(cluster_witness, n, id=f"c{n}") for n in range(2, 11)]
    + [pytest.param(w_witness, n, id=f"w{n}") for n in range(2, 11)]
    + [pytest.param(lambda n: w3_witness_decomposed(), 3, id="w3-decomposed")]
)


class TestValueTable:
    @pytest.mark.parametrize("build,n", WITNESSES)
    def test_table_equals_per_shot_rule(self, build, n):
        # pattern p lists its outcomes in itertools.product order: qubit 0
        # is the most significant bit, and a set bit reads -1
        outcomes = np.array(list(itertools.product((1, -1), repeat=n)))
        for setting in group_settings(build(n)):
            assert np.array_equal(_value_table(setting), shot_values(setting, outcomes))


MOMENT_LENGTHS = [2, 7, 8, 9, 127, 128, 129, _SHOT_BLOCK - 1, _SHOT_BLOCK,
                  _SHOT_BLOCK + 1, 3 * _SHOT_BLOCK + 7, 100000]


class TestMeanAndVariance:
    @pytest.mark.parametrize("n", MOMENT_LENGTHS)
    @pytest.mark.parametrize("kind", ["normal", "table"])
    def test_in_place_equals_numpy(self, n, kind):
        # numpy's pairwise sums change their blocking at 8 and 128 elements
        rng = np.random.default_rng(n)
        if kind == "normal":
            values = rng.normal(0.3, 2.0, n)
        else:  # shot values: a few table entries, as a setting reads them
            values = rng.normal(size=16)[rng.integers(0, 16, n)]
        mean, var = float(np.mean(values)), float(np.var(values, ddof=1))
        got = _mean_and_variance(values.copy())
        assert got[0].hex() == mean.hex() and got[1].hex() == var.hex()

    def test_estimate_equals_whole_array_moments(self):
        # the estimate and its standard error from numpy's own moments of
        # each kept record's shot values
        state = run_w_protocol(simple_config(4), 4).final_state
        witness = w_witness(4)
        shots = _SHOT_BLOCK + 1
        est = estimate_witness_sampled(
            state, witness, shots, ReadoutModel(0.96, 8), keep_records=True
        )
        total, var_total = witness.offset, 0.0
        for setting, record in zip(group_settings(witness), est.records):
            values = _value_table(setting)[record.patterns.astype(np.int64)]
            total += float(values.mean())
            var_total += float(values.var(ddof=1)) / shots
        assert est.value == float(total)
        assert est.stderr == float(np.sqrt(var_total))


class TestWitnessEstimation:
    def test_converges_to_exact_w3(self, config3):
        wd = w3_witness_decomposed()
        state = run_w_protocol(config3, 3).final_state
        ro = ReadoutModel(1.0, seed=21)
        est = estimate_witness_sampled(state, wd, 100000, ro)
        assert abs(est.value - (-1 / 3)) <= 4 * est.stderr
        assert est.stderr < 0.01

    def test_converges_to_exact_cluster(self):
        _, corr = run_cluster_protocol(simple_config(4), 4)
        ro = ReadoutModel(1.0, seed=22)
        est = estimate_witness_sampled(corr.corrected_state, cluster_witness(4), 20000, ro)
        assert abs(est.value - (-1.0)) <= max(4 * est.stderr, 1e-9)

    def test_w4_witness_samples_in_collective_settings(self, config5):
        # the W_N plan reads every qubit along one shared direction per
        # setting: z plus two cones of five azimuths for N = 4
        from phasebus.witnesses import w_witness, group_settings

        w4 = w_witness(4)
        settings = group_settings(w4)
        assert len(settings) == 11
        state = run_w_protocol(config5, 4).final_state
        est = estimate_witness_sampled(state, w4, 20000, ReadoutModel(1.0, 51))
        assert abs(est.value - (-0.25)) <= 4 * est.stderr

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_collective_w_estimate_within_four_stderr(self, n):
        # the c09 rule at 1000 shots per setting: within 4 standard errors
        # of the exact value on at least 19 of 20 seeds
        from phasebus.witnesses import w_witness

        witness = w_witness(n)
        state = run_w_protocol(simple_config(n), n).final_state
        hits = 0
        for seed in range(20):
            ro = ReadoutModel(1.0, 500 + seed)
            est = estimate_witness_sampled(state, witness, 1000, ro)
            hits += abs(est.value - (-1.0 / n)) <= 4 * est.stderr
        assert hits >= 19

    def test_stderr_halves_with_quadrupled_shots(self, config3):
        wd = w3_witness_decomposed()
        state = run_w_protocol(config3, 3).final_state
        small = estimate_witness_sampled(state, wd, 25000, ReadoutModel(1.0, 31))
        large = estimate_witness_sampled(state, wd, 100000, ReadoutModel(1.0, 32))
        ratio = large.stderr / small.stderr
        assert 0.4 < ratio < 0.6

    def test_deterministic_records(self, config3):
        wd = w3_witness_decomposed()
        state = run_w_protocol(config3, 3).final_state
        a = estimate_witness_sampled(state, wd, 500, ReadoutModel(0.96, 5), keep_records=True)
        b = estimate_witness_sampled(state, wd, 500, ReadoutModel(0.96, 5), keep_records=True)
        assert a.value == b.value
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.patterns, rb.patterns)

    def test_excited_bus_rejected(self):
        # the settings read TLSs only, so a bus in |1> would pass unnoticed
        # as a W-like register (about 0.69 for this state)
        with pytest.raises(ProtocolError, match="bus"):
            estimate_witness_sampled(basis_state([1, 0, 0, 0]), w_witness(3), 1000,
                                     ReadoutModel(1.0, 1))

    def test_zero_shots_rejected(self, config3):
        wd = w3_witness_decomposed()
        with pytest.raises(ValueError):
            estimate_witness_sampled(
                run_w_protocol(config3, 3).final_state, wd, 0, ReadoutModel(1.0, 0)
            )

    def test_single_shot_rejected(self, config3):
        # one shot per setting has no sample variance, so no standard error
        with pytest.raises(ValueError, match="at least two shots"):
            estimate_witness_sampled(
                run_w_protocol(config3, 3).final_state, w3_witness_decomposed(), 1,
                ReadoutModel(1.0, 0),
            )

    def test_state_smaller_than_witness_rejected(self, config3):
        state = run_w_protocol(config3, 3).final_state  # bus + 3 TLSs
        with pytest.raises(ProtocolError, match="TLS count 4 outside 1..3"):
            estimate_witness_sampled(state, w_witness(4), 10, ReadoutModel(1.0, 0))

    def test_excited_spectator_rejected(self):
        # the settings read TLS 1..3 only, so an excited TLS 4 would go unseen
        state = run_w_protocol(simple_config(4), 3).final_state
        state = apply_unitary(state, SIGMA["X"], [4])
        with pytest.raises(ProtocolError, match="not confined"):
            estimate_witness_sampled(state, w_witness(3), 10, ReadoutModel(1.0, 0))

    def test_biased_at_finite_fidelity(self, config3):
        # no mitigation: the raw estimate shrinks toward zero
        wd = w3_witness_decomposed()
        state = run_w_protocol(config3, 3).final_state
        readout = ReadoutModel(0.96, 41)
        est = estimate_witness_sampled(state, wd, 40000, readout)
        assert readout.bias_factor == pytest.approx(0.92)
        assert est.value > -1 / 3  # shrunk magnitude


class TestTomography:
    def _bell_target(self):
        return StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))

    def test_exact_reconstruction_is_exact(self, config3):
        state = run_bell(config3, 1, 2).final_state
        ro = ReadoutModel(1.0, seed=0)
        res = tomography_two_qubit(state, 1, 2, None, ro, target=self._bell_target())
        assert res.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)
        assert res.settings_used == 9
        assert res.expectations.shape == (4, 4)
        assert res.physical

    def test_trace_and_hermiticity(self, config3):
        state = run_bell(config3, 1, 2).final_state
        ro = ReadoutModel(0.96, seed=1)
        res = tomography_two_qubit(state, 1, 2, 2000, ro)
        rho = res.rho.matrix
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.abs(rho - rho.conj().T).max() < 1e-9

    def test_noisy_reconstruction_fidelity_band(self, config3):
        state = run_bell(config3, 1, 2).final_state
        ro = ReadoutModel(0.96, seed=2)
        res = tomography_two_qubit(state, 1, 2, 20000, ro, target=self._bell_target())
        assert 0.85 < res.fidelity_vs_target < 1.0

    def test_exact_reconstruction_of_random_pure_states(self, config3):
        rng = np.random.default_rng(77)
        ro = ReadoutModel(1.0, seed=0)
        for _ in range(10):
            pair = rng.normal(size=4) + 1j * rng.normal(size=4)
            pair /= np.linalg.norm(pair)
            full = np.zeros(16, dtype=complex)
            full[0:8:2] = pair  # bus |0>, TLS 3 |g>, pair on TLS (1, 2)
            state = StateVector(full)
            target = StateVector(pair)
            res = tomography_two_qubit(state, 1, 2, None, ro, target=target)
            assert res.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)

    def test_biased_exact_mode_matches_arithmetic(self, config3):
        # oracle: (1 + 3 * (2F-1)^2) / 4 for a Bell pair with XX=YY=1, ZZ=-1
        state = run_bell(config3, 1, 2).final_state
        ro = ReadoutModel(0.96, seed=3)
        res = tomography_two_qubit(state, 1, 2, None, ro, target=self._bell_target())
        expected = (1 + 3 * 0.92**2) / 4
        assert res.fidelity_vs_target == pytest.approx(expected, abs=1e-10)

    def test_same_pair_rejected(self, config3):
        with pytest.raises(ValueError):
            tomography_two_qubit(
                run_bell(config3, 1, 2).final_state, 1, 1, None, ReadoutModel(1.0, 0)
            )

    def test_pair_outside_register_rejected(self, config3):
        state = run_bell(config3, 1, 2).final_state  # bus + 3 TLSs
        with pytest.raises(ProtocolError, match="out of range 1..3"):
            tomography_two_qubit(state, 1, 4, None, ReadoutModel(1.0, 0))

    @pytest.mark.parametrize("shots", [None, 2000])
    def test_excited_bus_rejected(self, config3, shots):
        # every TLS read swaps through the bus, so a bus in |1> corrupts it
        state = run_bell(config3, 1, 2).final_state
        state = apply_unitary(state, SIGMA["X"], [0])
        with pytest.raises(ProtocolError, match="bus"):
            tomography_two_qubit(state, 1, 2, shots, ReadoutModel(1.0, 0))

    def test_reversed_pair(self, config3):
        state = run_bell(config3, 1, 2).final_state
        res = tomography_two_qubit(
            state, 2, 1, 1500, ReadoutModel(1.0, 4), target=self._bell_target()
        )
        assert res.fidelity_vs_target > 0.9

    @pytest.mark.parametrize("target_qubits", [1, 3])
    def test_target_outside_the_pair_rejected_before_sampling(
        self, config3, target_qubits, monkeypatch
    ):
        import phasebus.measurement as measurement

        calls = []
        monkeypatch.setattr(measurement, "sample_shots", lambda *a: calls.append(a))
        state = run_bell(config3, 1, 2).final_state
        with pytest.raises(ValueError, match="not 2"):
            tomography_two_qubit(
                state, 1, 2, 100_000, ReadoutModel(0.96, 1), target=w_state(target_qubits)
            )
        assert calls == []


def two_sum_tables(probs):
    """Oracle: the conditional tables with each prefix denominator summed
    again from the next marginal, as the sampler once computed them."""
    m = probs.ndim
    marginals = [None] * m
    cur = probs
    for k in reversed(range(m)):
        marginals[k] = cur
        cur = cur.sum(axis=k)
    tables = []
    for k in range(m):
        joint = marginals[k].reshape(-1, 2)
        denom = joint.sum(axis=1)
        safe = np.where(denom > 0, denom, 1.0)
        t = np.where(denom > 0, joint[:, 1] / safe, 0.0)
        t = np.where(t > 1 - ZERO_BRANCH_TOL, 1.0, t)
        tables.append(np.where(t < ZERO_BRANCH_TOL, 0.0, t))
    return tables


class TestConditionalTablesOracle:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_equal_bit_for_bit(self, m):
        rng = np.random.default_rng(900 + m)
        for trial in range(6):
            probs = rng.random((2,) * m) ** 3
            if trial % 2:
                # zero-probability prefixes: a whole subtree and single leaves
                probs[(rng.integers(2),)] = 0.0
                probs.reshape(-1)[rng.random(2**m) < 0.3] = 0.0
            if trial == 5 or probs.sum() == 0:
                probs = np.zeros((2,) * m)  # a basis state
                probs.reshape(-1)[rng.integers(2**m)] = 1.0
            probs /= probs.sum()
            got, want = _conditional_tables(probs), two_sum_tables(probs)
            assert len(got) == len(want) == m
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def dict_tally_tomography(state, j, k, shots_per_setting, readout):
    """Oracle: tomography's expectations and rho with the pooled marginal
    sums kept in per-axis dicts and divided at the end, as tomography once
    tallied them."""
    bias = readout.bias_factor
    e = np.zeros((4, 4))
    e[0, 0] = 1.0
    if shots_per_setting is None:
        n = state.num_qubits
        for a in range(4):
            for b in range(4):
                if a == b == 0:
                    continue
                labels = ["I"] * n
                labels[j] = _AXES[a]
                labels[k] = _AXES[b]
                weight = (a != 0) + (b != 0)
                e[a, b] = expectation(state, PauliString("".join(labels)))
                e[a, b] *= bias**weight
    else:
        qubits = sorted((j, k))
        signs = _pattern_outcomes(np.arange(4), 2)
        sign_j = signs[:, qubits.index(j)]
        sign_k = signs[:, qubits.index(k)]
        sum_j = {1: 0, 2: 0, 3: 0}
        sum_k = {1: 0, 2: 0, 3: 0}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                rng = derive_rng(readout.seed, f"tomo-{_AXES[a]}{_AXES[b]}")
                basis_by_qubit = {j: _AXES[a].lower(), k: _AXES[b].lower()}
                record = sample_shots(
                    state, qubits, [basis_by_qubit[q] for q in qubits],
                    shots_per_setting, readout, rng,
                )
                counts = np.bincount(record.patterns, minlength=4)
                e[a, b] = int(counts @ (sign_j * sign_k)) / shots_per_setting
                sum_j[a] += int(counts @ sign_j)
                sum_k[b] += int(counts @ sign_k)
        for a in (1, 2, 3):
            e[a, 0] = sum_j[a] / (3 * shots_per_setting)
            e[0, a] = sum_k[a] / (3 * shots_per_setting)
    rho = np.zeros((4, 4), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            rho += e[a, b] * np.kron(SIGMA[_AXES[b]], SIGMA[_AXES[a]])
    return e, rho / 4.0


class TestTomographyOracle:
    @pytest.fixture(scope="class")
    def demo_state(self):
        # every TLS pair of the demo W_10 state is entangled
        return run_w_protocol(load_config(DEMO_CONFIG), 10).final_state

    @pytest.mark.parametrize("shots", [None, 2, 1000, 4097])
    @pytest.mark.parametrize("fidelity", [1.0, 0.96])
    @pytest.mark.parametrize("j, k", [(1, 3), (3, 1), (2, 7), (7, 2)])
    def test_equal_bit_for_bit(self, demo_state, j, k, fidelity, shots):
        readout = ReadoutModel(fidelity, seed=31)
        got = tomography_two_qubit(demo_state, j, k, shots, readout)
        e, rho = dict_tally_tomography(demo_state, j, k, shots, readout)
        assert got.expectations.tobytes() == e.tobytes()
        assert got.rho.matrix.tobytes() == rho.tobytes()
