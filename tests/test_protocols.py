import itertools

import numpy as np
import pytest

from conftest import DEMO_CONFIG, simple_config
from phasebus.config_io import load_config
from phasebus.device import ProtocolError, resonant_evolution
from phasebus.protocols import (
    BUS_INIT_GROUND,
    BUS_INIT_PLUS,
    BusExcite,
    BusReset,
    BusRotation,
    PulseSchedule,
    ResonantWindow,
    _correction_search,
    _embed_tls_state,
    apply_phase_corrections,
    bell_schedule,
    bell_state,
    bus_rotation_gate,
    cluster_sequence,
    cluster_state,
    execute_schedule,
    reset_bus,
    run_bell,
    run_cluster_protocol,
    run_w_protocol,
    tls_register_state,
    w_schedule,
    w_state,
    w_state_times,
)
from phasebus.states import (
    StateVector,
    apply_unitary,
    basis_state,
    fidelity,
    ground_register,
    partial_trace,
)
from phasebus.witnesses import cluster_stabilizers


class TestSchedule:
    def test_rejects_negative_duration(self):
        with pytest.raises(ProtocolError):
            PulseSchedule((ResonantWindow(1, -1e-9),))

    def test_text_one_line_per_step(self, config3):
        sched = cluster_sequence(config3, 3)
        lines = sched.to_text().splitlines()
        assert len(lines) == len(sched)
        for line, step in zip(lines, sched):
            if isinstance(step, ResonantWindow):
                j, t = line.removeprefix("WINDOW ").split()
                assert j == f"j={step.tls}" and t.endswith("ns")
                # ns <-> s conversion may wobble by one ulp
                assert float(t[2:-2]) * 1e-9 == pytest.approx(step.duration, rel=1e-12)
            elif isinstance(step, BusRotation):
                assert line == f"ROT axis={step.axis} angle={step.angle!r}"
            else:
                assert line == ("RESET" if isinstance(step, BusReset) else "EXCITE")
        assert "ROT axis=z" in sched.to_text()

    def test_swap_duration_serializes_in_ns(self, config3):
        # 40 MHz splitting corresponds to a 12.5 ns full swap
        text = PulseSchedule((ResonantWindow(1, 12.5e-9),)).to_text()
        assert text == "WINDOW j=1 t=12.5ns\n"


class TestExecutor:
    def test_empty_schedule_returns_fresh_register(self, config3):
        out = execute_schedule(PulseSchedule(()), config3)
        assert out.amplitudes[0] == 1.0

    def test_bit_identical_reruns(self, config3):
        sched = cluster_sequence(config3, 3)
        a = execute_schedule(sched, config3)
        b = execute_schedule(sched, config3)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_excite_is_exact_bit_flip(self, config3):
        out = execute_schedule(PulseSchedule((BusExcite(),)), config3)
        assert out.amplitudes[1] == 1.0

    def test_rotation_convention(self):
        # exp(-i (pi/2) Y / 2) sends |0> to |+>
        gate = bus_rotation_gate("y", np.pi / 2)
        assert np.allclose(gate @ [1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


class TestResetBus:
    def test_keeps_register_phase(self):
        tls = np.array([0.6, 0.8j])
        bus = np.array([1, 1j]) / np.sqrt(2)
        state = StateVector(np.kron(tls, bus))
        out = reset_bus(state)
        # bus-ground branch keeps its phase exactly
        expected = np.kron(tls, [1, 0])
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    def test_rejects_entangled_bus(self):
        bell = StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(ProtocolError, match="entangled"):
            reset_bus(bell)

    def test_bus_excited_branch(self):
        state = basis_state("1g")
        out = reset_bus(state)
        assert out.amplitudes[0] == 1.0


class TestInitializeRegister:
    def test_single_swap_moves_amplitudes_to_bus(self, config3):
        alpha, beta = 0.6, 0.8
        amps = np.zeros(16, dtype=complex)
        amps[0] = alpha  # |0,ggg>
        amps[2] = beta   # |0,egg>
        state = StateVector(amps)
        moved = resonant_evolution(state, 1, config3.swap_time(1), config3)
        assert abs(moved.amplitudes[0] - alpha) < 1e-12
        assert abs(moved.amplitudes[1] - (-1j) * beta) < 1e-12


class TestWStateTimes:
    def test_single_qubit_full_swap(self):
        times = w_state_times(1, [2.0])
        assert times[0] == pytest.approx(np.pi / 4)  # pi / (2 * 2.0)

    def test_two_qubit_half_then_full(self):
        times = w_state_times(2, [2.0, 3.0])
        assert times[0] == pytest.approx(np.pi / (4 * 2.0))
        assert times[1] == pytest.approx(np.pi / (2 * 3.0))

    def test_three_qubit_angles(self):
        s = [1.0, 1.0, 1.0]
        t = w_state_times(3, s)
        assert t[0] == pytest.approx(np.arcsin(1 / np.sqrt(3)))
        assert t[1] == pytest.approx(np.pi / 4)
        assert t[2] == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_uniform_sharing_partial_products(self, n):
        couplings = [1.0 + 0.3 * j for j in range(n)]
        times = w_state_times(n, couplings)
        angles = [s * t for s, t in zip(couplings, times)]
        for ell in range(1, n + 1):
            prod = np.prod([np.cos(a) for a in angles[: ell - 1]])
            prod *= np.sin(angles[ell - 1])
            assert prod == pytest.approx(1 / np.sqrt(n), abs=1e-10)

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            w_state_times(2, [1.0, 0.0])


class TestWProtocol:
    def test_two_qubit_raw_amplitudes(self, config3):
        rep = run_w_protocol(config3, 2)
        amps = rep.final_state.amplitudes
        assert abs(amps[2] - (-1j / np.sqrt(2))) < 1e-10  # |0,e,g,g>
        assert abs(amps[4] - (-1j / np.sqrt(2))) < 1e-10  # |0,g,e,g>
        assert rep.target_fidelity > 1 - 1e-10

    def test_five_qubit_profile(self, config5):
        rep = run_w_protocol(config5, 5)
        assert np.abs(rep.amplitude_profile - 1 / np.sqrt(5)).max() < 1e-10
        assert rep.bus_disentangled

    def test_single_excitation_support_exact(self, config5):
        rep = run_w_protocol(config5, 5)
        amps = rep.final_state.amplitudes
        for idx, a in enumerate(amps):
            if bin(idx).count("1") != 1:
                assert a == 0.0

    def test_three_qubit_fraction_mode(self, config3):
        rep = run_w_protocol(config3, 3, mode="paper-n3")
        closed_form = (0.5 + np.sqrt(6) / 4 + np.sqrt(3) / 4) ** 2 / 3
        assert rep.target_fidelity == pytest.approx(closed_form, abs=1e-12)
        residual = abs(rep.final_state.amplitudes[1]) ** 2
        assert residual == pytest.approx(3 / 16, abs=1e-10)
        assert not rep.bus_disentangled

    def test_fraction_mode_needs_three_qubits(self, config5):
        with pytest.raises(ProtocolError):
            run_w_protocol(config5, 4, mode="paper-n3")

    def test_n_exceeding_register_rejected(self, config3):
        with pytest.raises(ProtocolError):
            run_w_protocol(config3, 4)

    def test_schedule_shape(self, config5):
        sched = w_schedule(config5, 4)
        assert isinstance(sched.steps[0], BusExcite)
        windows = [s for s in sched if isinstance(s, ResonantWindow)]
        assert [w.tls for w in windows] == [1, 2, 3, 4]


class TestBell:
    def test_fidelity_one(self, config5):
        rep = run_bell(config5, 2, 4)
        assert rep.target_fidelity > 1 - 1e-10
        assert rep.bus_disentangled

    def test_spectators_untouched(self, config5):
        rep = run_bell(config5, 2, 4)
        amps = rep.final_state.amplitudes
        spectator_mask = 0b101010  # TLSs 1, 3, 5
        for idx, a in enumerate(amps):
            if idx & spectator_mask:
                assert a == 0.0, f"spectator weight at index {idx}"
            elif idx & 1:
                # bus-excited residue is float dust from the full swap
                assert abs(a) < 1e-12

    def test_reduced_tls_maximally_mixed(self, config5):
        rep = run_bell(config5, 2, 4)
        rho = partial_trace(rep.final_state, [2])
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-10

    def test_same_tls_rejected(self, config5):
        with pytest.raises(ProtocolError):
            run_bell(config5, 2, 2)


class TestClusterState:
    def test_matches_cz_chain_construction(self):
        # oracle: apply controlled-z gates to |+>^n with generic machinery
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        plus = np.ones(2, dtype=complex) / np.sqrt(2)
        for n in range(2, 7):
            amps = np.array([1.0], dtype=complex)
            for _ in range(n):
                amps = np.kron(plus, amps)
            state = StateVector(amps)
            for q in range(n - 1):
                state = apply_unitary(state, cz, [q, q + 1])
            assert np.abs(state.amplitudes - cluster_state(n).amplitudes).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stabilizer_eigenstate(self, n):
        from phasebus.states import expectation

        state = cluster_state(n)
        for gen in cluster_stabilizers(n):
            assert expectation(state, gen) == pytest.approx(1.0, abs=1e-10)


class TestClusterSequence:
    def test_ground_init_two_qubit_count(self, config3):
        sched = cluster_sequence(config3, 2, BUS_INIT_GROUND)
        assert len(sched) == 7  # preparation block, dressed block, final swap

    def test_plus_init_adds_one_rotation(self, config3):
        sched = cluster_sequence(config3, 2, BUS_INIT_PLUS)
        assert len(sched) == 8

    def test_every_window_is_full_swap(self, config5):
        sched = cluster_sequence(config5, 5)
        for w in (s for s in sched if isinstance(s, ResonantWindow)):
            assert w.duration == pytest.approx(config5.swap_time(w.tls))

    def test_executes_up_to_ten(self):
        cfg = simple_config(10)
        sched = cluster_sequence(cfg, 10)
        out = execute_schedule(sched, cfg)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_rejects_small_n(self, config3):
        with pytest.raises(ProtocolError):
            cluster_sequence(config3, 1)


def _brute_force_best(config, n):
    """Independent oracle: apply every correction and bus variant literally."""
    target = cluster_state(n)
    full_target = np.zeros(2 ** (config.num_tls + 1), dtype=complex)
    full_target[0 : 2 ** (n + 1) : 2] = target.amplitudes
    target_state = StateVector(full_target)
    best = 0.0
    for variant in (BUS_INIT_GROUND, BUS_INIT_PLUS):
        final = execute_schedule(cluster_sequence(config, n, variant), config)
        for ks in itertools.product(range(4), repeat=n):
            corrected = apply_phase_corrections(final, ks)
            best = max(best, fidelity(corrected, target_state))
    return best


class TestClusterProtocol:
    def test_two_qubit_matches_brute_force(self, config3):
        rep, corr = run_cluster_protocol(config3, 2)
        assert corr.best_fidelity == pytest.approx(_brute_force_best(config3, 2), abs=1e-12)
        assert corr.best_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_four_qubit_search(self):
        cfg = simple_config(4)
        rep, corr = run_cluster_protocol(cfg, 4)
        assert corr.best_fidelity > 1 - 1e-6
        assert not corr.sequence_inexact
        assert corr.best_bus_init == BUS_INIT_PLUS
        assert len(corr.corrections) == 4

    def test_reported_corrections_reproduce_best(self):
        cfg = simple_config(5)
        rep, corr = run_cluster_protocol(cfg, 5, BUS_INIT_PLUS)
        final = execute_schedule(cluster_sequence(cfg, 5, corr.best_bus_init), cfg)
        labels = ["I", "Z^{pi/2}", "Z^{pi}", "Z^{3pi/2}"]  # diag(1, i^k), k = 0..3
        corrected = apply_phase_corrections(final, [labels.index(c) for c in corr.corrections])
        assert np.array_equal(corr.corrected_state.amplitudes, corrected.amplitudes)
        target = cluster_state(5)
        full = np.zeros(2**6, dtype=complex)
        full[0::2] = target.amplitudes
        assert fidelity(corrected, StateVector(full)) == pytest.approx(
            corr.best_fidelity, abs=1e-12
        )

    def test_ground_variant_reported(self, config3):
        rep, corr = run_cluster_protocol(config3, 2, BUS_INIT_GROUND)
        assert corr.fidelity_by_init[BUS_INIT_GROUND] < corr.fidelity_by_init[BUS_INIT_PLUS]
        # the report scores the requested variant, the search still finds plus
        assert corr.best_bus_init == BUS_INIT_PLUS

    def test_unknown_bus_init_rejected_before_any_execution(self, monkeypatch):
        import phasebus.protocols as protocols

        calls = []
        monkeypatch.setattr(protocols, "execute_schedule", lambda *a: calls.append(a))
        with pytest.raises(ProtocolError, match="unknown bus_init"):
            run_cluster_protocol(simple_config(3), 3, "Plus")
        assert calls == []

    @pytest.mark.parametrize("bus_init", [BUS_INIT_GROUND, BUS_INIT_PLUS])
    def test_tied_preparations_go_to_ground(self, config3, bus_init, monkeypatch):
        import phasebus.protocols as protocols

        monkeypatch.setattr(protocols, "_correction_search", lambda *a: (1.0, ("I", "I"), (0, 0)))
        _, corr = run_cluster_protocol(config3, 2, bus_init)
        assert corr.best_bus_init == BUS_INIT_GROUND
        assert list(corr.fidelity_by_init) == [BUS_INIT_GROUND, BUS_INIT_PLUS]


def dense_correction_search(final, target_tls, n):
    """Oracle for ``_correction_search``: expand every TLS axis, then take
    the first maximum of all 4^n overlaps at once."""
    num_tls = final.num_qubits - 1
    target = target_tls.amplitudes
    if num_tls > n:
        keep = np.zeros(2 ** (num_tls - n), dtype=np.complex128)
        keep[0] = 1.0
        target = np.kron(keep, target)
    t = (np.conj(target) * final.amplitudes[0::2]).reshape((2,) * num_tls)
    for _ in range(num_tls - n):
        t = t.sum(axis=0)
    expand = np.stack([np.ones(4), np.array([1.0, 1.0j, -1.0, -1.0j])], axis=1)
    for _ in range(n):
        t = np.tensordot(expand, t, axes=([1], [n - 1]))
    overlaps = np.abs(t) ** 2
    flat = int(np.argmax(overlaps))
    idx = tuple(reversed(np.unravel_index(flat, (4,) * n)))
    labels = tuple(("I", "Z^{pi/2}", "Z^{pi}", "Z^{3pi/2}")[k] for k in idx)
    return float(overlaps.reshape(-1)[flat]), labels, idx


def brute_force_correction_search(final, target_tls, n):
    """Oracle for ``_correction_search``: score each of the 4^n choices
    directly.  Choice c gives TLS j the phase i^(c_j) on |e>, so its
    overlap is sum_k w_k i^(sum_j c_j b_j(k)) over the register amplitudes
    w_k with the bus in |0> and every spectator TLS in |g>; the phase
    matrices hold exact powers of i.  The TLSs split into a low and a high
    half, so every overlap is one entry of P_high @ W @ P_low^T, rows and
    columns in flat order (choice of TLS n most significant).  Returns the
    first maximum in flat order."""
    w = np.conj(target_tls.amplitudes) * final.amplitudes[0::2][: 2**n]
    low = n // 2

    def phase_matrix(count):
        digits = (np.arange(4**count)[:, None] // 4 ** np.arange(count)) % 4
        bits = (np.arange(2**count)[:, None] >> np.arange(count)) & 1
        return np.array([1, 1j, -1, -1j])[(digits @ bits.T) % 4]

    overlaps = np.abs(
        phase_matrix(n - low) @ w.reshape(2 ** (n - low), 2**low) @ phase_matrix(low).T
    ) ** 2
    flat = int(np.argmax(overlaps))
    idx = tuple(int(d) for d in reversed(np.unravel_index(flat, (4,) * n)))
    labels = tuple(("I", "Z^{pi/2}", "Z^{pi}", "Z^{3pi/2}")[k] for k in idx)
    return float(overlaps.flat[flat]), labels, idx


def assert_matches_brute_force(final, target, n):
    best, labels, idx = _correction_search(final, target, n)
    oracle_best, oracle_labels, oracle_idx = brute_force_correction_search(final, target, n)
    assert (labels, idx) == (oracle_labels, oracle_idx)
    assert best == pytest.approx(oracle_best, abs=1e-12)


class TestCorrectionSearch:
    @pytest.mark.parametrize("spectators", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_states_match_brute_force(self, n, spectators):
        # the spectator-free slice scores exactly what the dense oracle's
        # kron padding and spectator-axis sums score
        rng = np.random.default_rng(200 + 10 * n + spectators)
        for _ in range(3):
            size = 2 ** (n + 1 + spectators)
            psi = rng.normal(size=size) + 1j * rng.normal(size=size)
            target = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            final = StateVector(psi / np.linalg.norm(psi))
            target = StateVector(target / np.linalg.norm(target))
            got = _correction_search(final, target, n)
            assert got == dense_correction_search(final, target, n)
            assert got[1:] == brute_force_correction_search(final, target, n)[1:]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_all_ground_ties_resolve_to_identity(self, n):
        # no TLS excited: all 4^n candidates score the same float, and the
        # first in flat order, no correction at all, must win
        final = basis_state("0" + "g" * n)
        best, labels, idx = _correction_search(final, cluster_state(n), n)
        assert idx == (0,) * n and labels == ("I",) * n
        assert best == pytest.approx(2.0**-n, rel=1e-12)
        assert_matches_brute_force(final, cluster_state(n), n)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_ties_across_levels_resolve_in_flat_order(self, n):
        # TLS n-2 and TLS n share (|gg> - i|ee>)/sqrt(2), every other TLS
        # sits in |g>: a candidate's overlap depends on c_(n-2) + c_n mod 4
        # only, and the four pairs with sum 1 tie exactly.  TLS n's choice
        # leads the flat order, so (c_(n-2), c_n) = (1, 0) must win over
        # (0, 1), which a search visiting TLS n-2's choices first meets first
        psi = np.zeros(2 ** (n + 1), dtype=np.complex128)
        psi[0], psi[(1 << (n - 2)) | (1 << n)] = 1 / np.sqrt(2), -1j / np.sqrt(2)
        final = StateVector(psi)
        target = StateVector(np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128))
        _, _, idx = _correction_search(final, target, n)
        assert idx == tuple(1 if j == n - 2 else 0 for j in range(1, n + 1))
        assert_matches_brute_force(final, target, n)

    @pytest.mark.parametrize("variant", [BUS_INIT_GROUND, BUS_INIT_PLUS])
    def test_demo_chain_matches_brute_force_and_dense(self, variant):
        config = load_config(DEMO_CONFIG)
        final = execute_schedule(cluster_sequence(config, 10, variant), config)
        target = cluster_state(10)
        assert_matches_brute_force(final, target, 10)
        assert _correction_search(final, target, 10) == dense_correction_search(
            final, target, 10
        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_streamed_equals_dense(self, n):
        rng = np.random.default_rng(100 + n)

        def random_amplitudes(size):
            return rng.normal(size=size) + 1j * rng.normal(size=size)

        # bit 0 is the bus, bit j is TLS j
        cases = []
        for spectators in (0, 1):
            psi = random_amplitudes(2 ** (n + 1 + spectators))
            cases.append((psi, StateVector(random_amplitudes(2**n))))
        psi = random_amplitudes(2 ** (n + 1))
        psi[1 << n:] = 0  # TLS n in |g>: its four choices tie across slices
        psi[2::4] = psi[3::4] = 0  # TLS 1 in |g>: ties inside each slice
        cases.append((psi, cluster_state(n)))
        for psi, target in cases:
            final = StateVector(psi / np.linalg.norm(psi))
            assert _correction_search(final, target, n) == dense_correction_search(
                final, target, n
            )

    @pytest.mark.parametrize("variant", [BUS_INIT_GROUND, BUS_INIT_PLUS])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_demo_chain_at_every_length_matches_dense(self, n, variant):
        # n = 10 is the test above
        config = load_config(DEMO_CONFIG)
        final = execute_schedule(cluster_sequence(config, n, variant), config)
        target = cluster_state(n)
        assert _correction_search(final, target, n) == dense_correction_search(
            final, target, n
        )

    @pytest.mark.parametrize("n", range(3, 11))
    def test_noisy_phased_clusters_match_dense(self, n):
        # a cluster state with a random Z^{k pi/2} on each TLS, plus complex
        # noise of norm `scale` on every amplitude (bus included): fidelity
        # about 1 / (1 + scale^2), so many prefixes come close to the floor
        # without reaching it, where a bound off by rounding would prune wrongly
        rng = np.random.default_rng(900 + n)
        for scale, low, high in ((0.33, 0.8, 0.97), (0.8, 0.45, 0.8), (1.5, 0.2, 0.45)):
            phases = rng.integers(0, 4, size=n)
            tls = apply_phase_corrections(_embed_tls_state(cluster_state(n), n), phases)
            noise = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
            psi = tls.amplitudes + scale * noise / np.linalg.norm(noise)
            final = StateVector(psi / np.linalg.norm(psi))
            got = _correction_search(final, cluster_state(n), n)
            assert got == dense_correction_search(final, cluster_state(n), n)
            assert low < got[0] < high
            if scale < 1:
                # the correction that undoes the phases still wins
                assert got[2] == tuple(int(k) for k in (-phases) % 4)


class TestSpectatorInvariance:
    def test_generation_leaves_spectators_pure(self, config5):
        rep = run_w_protocol(config5, 3)
        rho = partial_trace(rep.final_state, [4])
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-12
        rho5 = partial_trace(rep.final_state, [5])
        assert abs(rho5.matrix[0, 0] - 1.0) < 1e-12


def kron_embed_tls_state(tls_state, num_tls):
    """Oracle for ``_embed_tls_state``: kron-pad the TLS 1..n state with
    spectator |g> factors, then interleave it with the bus in |0>."""
    amps = tls_state.amplitudes
    if tls_state.num_qubits < num_tls:
        pad = np.zeros(2 ** (num_tls - tls_state.num_qubits), dtype=np.complex128)
        pad[0] = 1.0
        amps = np.kron(pad, amps)
    full = np.zeros(2 ** (num_tls + 1), dtype=np.complex128)
    full[0::2] = amps
    return StateVector(full)


def same_bits(a, b):
    """Equal arrays bit for bit, except that kron's zero padding may carry
    -0.0 where a zero-filled array holds +0.0; adding 0.0 clears only that."""
    return a.dtype == b.dtype and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def random_tls_states(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    states = [StateVector(amps / np.linalg.norm(amps)), w_state(n)]
    return states + ([cluster_state(n)] if n > 1 else [])


class TestTlsSlice:
    @pytest.mark.parametrize("num_tls", range(1, 7))
    def test_embed_matches_kron_padding(self, num_tls):
        rng = np.random.default_rng(300 + num_tls)
        for n in range(1, num_tls + 1):
            for target in random_tls_states(rng, n):
                got = _embed_tls_state(target, num_tls).amplitudes
                assert same_bits(got, kron_embed_tls_state(target, num_tls).amplitudes)

    @pytest.mark.parametrize("num_tls", range(1, 7))
    def test_register_state_reads_the_embedded_slice(self, num_tls):
        rng = np.random.default_rng(320 + num_tls)
        for n in range(1, num_tls + 1):
            for target in random_tls_states(rng, n):
                full = _embed_tls_state(target, num_tls)
                got = tls_register_state(full, n).amplitudes
                want = target.amplitudes / np.linalg.norm(target.amplitudes)
                assert got.tobytes() == want.tobytes()

    def test_embed_rejects_target_larger_than_register(self):
        with pytest.raises(ValueError, match="larger"):
            _embed_tls_state(w_state(4), 3)

    @pytest.mark.parametrize("n", [0, 4, 5])
    def test_register_state_rejects_tls_count_outside_register(self, n):
        # n = 0 reads no TLS; past the register the strided slice stops at
        # its end and would return 3 TLSs for any larger n
        with pytest.raises(ProtocolError, match=f"TLS count {n} outside 1..3"):
            tls_register_state(ground_register(3), n)


def assembled_report(final, target_tls, num_tls):
    """Oracle for the runners' scoring: the kron-padded target's fidelity,
    the bus purity and ground population, and |0, g..e_j..g> for every TLS."""
    fid = fidelity(final, kron_embed_tls_state(target_tls, num_tls))
    rho_bus = partial_trace(final, [0])
    ground_pop = float(np.real(rho_bus.matrix[0, 0]))
    disentangled = rho_bus.purity() > 1.0 - 1e-9 and ground_pop > 1.0 - 1e-9
    profile = np.array([abs(final.amplitudes[1 << j]) for j in range(1, num_tls + 1)])
    return fid, disentangled, ground_pop, profile


class TestReportsMatchAssembly:
    """Each runner's report equals the per-runner assembly it replaced, bit
    for bit, on the demo device."""

    @pytest.fixture(scope="class")
    def demo(self):
        return load_config(DEMO_CONFIG)

    def assert_report(self, report, config, schedule, target_tls, profile_len):
        final = execute_schedule(schedule, config)
        fid, disentangled, ground_pop, profile = assembled_report(
            final, target_tls, config.num_tls
        )
        assert report.schedule == schedule
        assert report.final_state.amplitudes.tobytes() == final.amplitudes.tobytes()
        assert report.target_fidelity == fid
        assert report.bus_disentangled is disentangled
        # the bus trace the w-state command read back before the report carried it
        assert report.bus_ground_population == ground_pop
        assert report.amplitude_profile.tobytes() == profile[:profile_len].tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_w(self, demo, n):
        report = run_w_protocol(demo, n)
        self.assert_report(report, demo, w_schedule(demo, n), w_state(n), n)

    def test_w_paper_n3(self, demo):
        report = run_w_protocol(demo, 3, mode="paper-n3")
        self.assert_report(report, demo, w_schedule(demo, 3, "paper-n3"), w_state(3), 3)

    @pytest.mark.parametrize("j, k", [(1, 2), (3, 1), (2, 7), (9, 10)])
    def test_bell(self, demo, j, k):
        report = run_bell(demo, j, k)
        target = bell_state(demo.num_tls, j, k)
        self.assert_report(report, demo, bell_schedule(demo, j, k), target, demo.num_tls)

    @pytest.mark.parametrize("bus_init", [BUS_INIT_GROUND, BUS_INIT_PLUS])
    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_cluster(self, demo, n, bus_init):
        report, _ = run_cluster_protocol(demo, n, bus_init)
        schedule = cluster_sequence(demo, n, bus_init)
        self.assert_report(report, demo, schedule, cluster_state(n), n)


class TestScheduleBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_window_and_angle(self, bad):
        with pytest.raises(ProtocolError, match="window duration"):
            PulseSchedule((ResonantWindow(1, bad),))
        with pytest.raises(ProtocolError, match="rotation angle"):
            PulseSchedule((BusRotation("x", bad),))

    @pytest.mark.parametrize("tls", [1.5, 2.0, True, np.True_, "1"])
    def test_rejects_tls_index_that_is_not_an_integer(self, tls):
        # 1.5 used to reach execute_schedule as a tuple index; to_text
        # would write True as "WINDOW j=True"
        with pytest.raises(ProtocolError, match="bad TLS index"):
            PulseSchedule((ResonantWindow(tls, 1e-9),))

    def test_numpy_integer_tls_index_runs_and_serializes(self, config3):
        def schedule(j):
            return PulseSchedule((BusExcite(), ResonantWindow(j, config3.swap_time(2))))

        sched = schedule(np.int64(2))
        assert sched.to_text() == schedule(2).to_text()
        got = execute_schedule(sched, config3).amplitudes
        assert got.tobytes() == execute_schedule(schedule(2), config3).amplitudes.tobytes()

    def test_numpy_float_duration_and_angle_run_and_serialize(self, config3):
        # numpy 2 writes repr(np.float64(12.5)) as "np.float64(12.5)"
        def schedule(t, angle):
            return PulseSchedule((BusExcite(), ResonantWindow(1, t), BusRotation("y", angle)))

        sched = schedule(np.float64(12.5e-9), np.float64(np.pi / 2))
        plain = schedule(12.5e-9, np.pi / 2)
        assert sched.to_text() == plain.to_text() == (
            "EXCITE\nWINDOW j=1 t=12.5ns\nROT axis=y angle=1.5707963267948966\n"
        )
        got = execute_schedule(sched, config3).amplitudes
        assert got.tobytes() == execute_schedule(plain, config3).amplitudes.tobytes()

    @pytest.mark.parametrize("step", [None, "RESET", BusExcite, ("WINDOW", 1, 1e-9)])
    def test_rejects_unknown_instruction(self, step):
        # to_text used to write such a step as an empty line
        with pytest.raises(ProtocolError, match="unknown instruction"):
            PulseSchedule((BusExcite(), step))

    @pytest.mark.parametrize("j, k", [(0, 2), (2, 4), (4, 1)])
    def test_bell_schedule_rejects_tls_outside_register(self, config3, j, k):
        bad = j if not 1 <= j <= 3 else k
        with pytest.raises(ProtocolError, match=f"TLS index {bad} out of range"):
            bell_schedule(config3, j, k)
