import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GHZ, MHZ, simple_config
from phasebus.config_io import example_config_dict, parse_config
from phasebus.device import (
    ConfigError,
    DeviceConfig,
    ProtocolError,
    TlsParams,
    exchange_window_gate,
    full_hamiltonian,
    odd_parity_block,
    resonant_evolution,
    rotating_frame_transform,
    rwa_infidelity,
)
from phasebus.states import StateVector, basis_state, evolve, fidelity


class TestTlsParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            TlsParams("a", -1.0, 1.0)
        with pytest.raises(ConfigError):
            TlsParams("a", 1.0, 0.0)

    def test_warns_on_strong_coupling(self):
        with pytest.warns(UserWarning, match="coupling/omega_r"):
            TlsParams("a", 5.0 * GHZ, 0.5 * GHZ)

    def test_strong_coupling_warning_names_the_caller(self):
        # not the dataclass-generated __init__, which reads "<string>"
        with pytest.warns(UserWarning, match="weak-coupling") as rec:
            TlsParams(id="a", omega_r=1.0, coupling=0.1)
        assert rec[0].filename == __file__

    def test_splitting_coupling_relation(self):
        # full swap time is 1 / (2 * splitting)
        tls = TlsParams("a", 5.0 * GHZ, np.pi * 40e6)
        assert tls.splitting_hz == pytest.approx(40e6)
        cfg = DeviceConfig(omega10=6.0 * GHZ, tls=(tls,))
        assert cfg.swap_time(1) == pytest.approx(12.5e-9)


class TestDeviceConfig:
    def test_sorts_tls_by_frequency(self):
        a = TlsParams("hi", 6.0 * GHZ, 20 * MHZ)
        b = TlsParams("lo", 5.0 * GHZ, 20 * MHZ)
        cfg = DeviceConfig(omega10=6.0 * GHZ, tls=(a, b))
        assert [t.id for t in cfg.tls] == ["lo", "hi"]

    def test_unresolvable_pair_names_both(self):
        a = TlsParams("first", 5.000 * GHZ, 100 * MHZ)
        b = TlsParams("second", 5.00001 * GHZ, 100 * MHZ)
        with pytest.raises(ConfigError, match="first.*second|second.*first"):
            DeviceConfig(omega10=6.0 * GHZ, tls=(a, b))

    def test_needs_at_least_one_tls(self):
        with pytest.raises(ConfigError):
            DeviceConfig(omega10=6.0 * GHZ, tls=())

    def test_caps_at_ten(self):
        tls = tuple(
            TlsParams(f"t{k}", (4 + 0.2 * k) * GHZ, 20 * MHZ) for k in range(11)
        )
        with pytest.raises(ConfigError):
            DeviceConfig(omega10=6.0 * GHZ, tls=tls)

    def test_readout_fidelity_range(self):
        tls = (TlsParams("a", 5.0 * GHZ, 20 * MHZ),)
        with pytest.raises(ConfigError):
            DeviceConfig(omega10=6.0 * GHZ, tls=tls, readout_fidelity=0.4)

    def test_tls_index_is_one_based(self):
        cfg = simple_config(2)
        assert cfg.tls_params(1).id == "t0"
        with pytest.raises(ProtocolError):
            cfg.tls_params(0)
        with pytest.raises(ProtocolError):
            cfg.tls_params(3)


class TestFullHamiltonian:
    def test_single_tls_matrix_elements(self):
        omega, omega_r, s = 6.0 * GHZ, 5.0 * GHZ, 30 * MHZ
        cfg = DeviceConfig(omega10=omega, tls=(TlsParams("a", omega_r, s),))
        h = full_hamiltonian(cfg)
        # basis |0g>, |1g>, |0e>, |1e>
        assert h[0, 0] == pytest.approx(-(omega + omega_r) / 2)
        assert h[1, 1] == pytest.approx((omega - omega_r) / 2)
        assert h[2, 2] == pytest.approx((omega_r - omega) / 2)
        assert h[3, 3] == pytest.approx((omega + omega_r) / 2)
        assert h[1, 2] == pytest.approx(-s)  # resonant element
        assert h[0, 3] == pytest.approx(-s)  # counter-rotating element

    def test_real_symmetric(self):
        h = full_hamiltonian(simple_config(3))
        assert np.abs(h.imag).max() == 0.0
        assert np.abs(h - h.T).max() == 0.0

    def test_resonant_block_gap_is_twice_coupling(self):
        s = 30 * MHZ
        cfg = DeviceConfig(omega10=5.0 * GHZ, tls=(TlsParams("a", 5.0 * GHZ, s),))
        h = full_hamiltonian(cfg)
        block = h[np.ix_([1, 2], [1, 2])]
        assert abs(block[0, 1]) == pytest.approx(s)
        w = np.linalg.eigvalsh(block)
        assert w[1] - w[0] == pytest.approx(2 * s)


class TestResonantEvolution:
    def test_zero_time_identity(self, config3):
        rng = np.random.default_rng(0)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(v / np.linalg.norm(v))
        out = resonant_evolution(state, 2, 0.0, config3)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_iswap_truth_table(self, config3):
        tau = config3.swap_time(1)
        # TLS 1 is register qubit 1: |1,g,..> is index 1, |0,e,..> is index 2
        for label, expect in [
            ("0ggg", {0: 1.0}),
            ("1ggg", {2: -1j}),       # |1g> -> -i|0e>
            ("0egg", {1: -1j}),       # |0e> -> -i|1g>
            ("1egg", {3: 1.0}),
        ]:
            out = resonant_evolution(basis_state(label), 1, tau, config3)
            for idx, val in expect.items():
                assert abs(out.amplitudes[idx] - val) < 1e-12
            others = np.delete(out.amplitudes, list(expect))
            assert np.abs(others).max() < 1e-12

    def test_half_window_equal_superposition(self, config3):
        out = resonant_evolution(basis_state("1ggg"), 1, config3.swap_time(1) / 2, config3)
        assert abs(out.amplitudes[1] - 1 / np.sqrt(2)) < 1e-12
        assert abs(out.amplitudes[2] - (-1j / np.sqrt(2))) < 1e-12

    def test_periodicity(self, config3):
        s = config3.coupling(2)
        rng = np.random.default_rng(1)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(v / np.linalg.norm(v))
        t = 0.37 / s
        a = resonant_evolution(state, 2, t, config3)
        b = resonant_evolution(state, 2, t + 2 * np.pi / s, config3)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10

    def test_dark_amplitudes_exactly_preserved(self, config3):
        # |0g> and |1e> components of the coupled pair never change
        rng = np.random.default_rng(2)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(v / np.linalg.norm(v))
        for t in rng.uniform(0, 5e-8, size=5):
            out = resonant_evolution(state, 1, float(t), config3)
            psi_in = state.amplitudes.reshape(2, 2, 2, 2)
            psi_out = out.amplitudes.reshape(2, 2, 2, 2)
            # axes: (q3, q2, q1, q0); pair = (q0, q1); dark: 00 and 11
            assert np.array_equal(psi_in[:, :, 0, 0], psi_out[:, :, 0, 0])
            assert np.array_equal(psi_in[:, :, 1, 1], psi_out[:, :, 1, 1])

    def test_negative_duration_rejected(self, config3):
        with pytest.raises(ProtocolError):
            resonant_evolution(basis_state("0ggg"), 1, -1.0, config3)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, config3, t):
        with pytest.raises(ProtocolError, match="finite"):
            resonant_evolution(basis_state("0ggg"), 1, t, config3)

    def test_bad_tls_index(self, config3):
        with pytest.raises(ProtocolError):
            resonant_evolution(basis_state("0ggg"), 4, 1e-9, config3)


class TestIswap:
    def test_dark_state(self, config3):
        out = resonant_evolution(basis_state("0ggg"), 2, config3.swap_time(2), config3)
        assert out.amplitudes[0] == 1.0

    def test_four_swaps_identity(self, config3):
        # oracle: fourth power of the window gate matrix
        gate = exchange_window_gate(config3.coupling(1), config3.swap_time(1))
        assert np.abs(np.linalg.matrix_power(gate, 4) - np.eye(4)).max() < 1e-10
        state = basis_state("1ggg")
        out = state
        for _ in range(4):
            out = resonant_evolution(out, 1, config3.swap_time(1), config3)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-10


def _resonant_config(num_tls: int, ratio: float, spacing_hz: float = 200e6):
    omega = 6.0 * GHZ
    tls = [TlsParams("a", omega, ratio * omega)]
    for k in range(1, num_tls):
        tls.append(TlsParams(f"b{k}", omega + k * 2 * np.pi * spacing_hz, ratio * omega))
    return DeviceConfig(omega10=omega, tls=tuple(tls))


class TestRwaInfidelity:
    def test_vanishing_coupling_limit(self):
        cfg = _resonant_config(1, 1e-4)
        assert rwa_infidelity(cfg, 1, cfg.swap_time(1)) < 1e-10

    def test_single_tls_swap_is_exact(self):
        # the coupled pair {|1g>, |0e>} is an exactly closed block of the
        # full Hamiltonian, so a lone TLS shows no model mismatch at all
        for ratio in (1e-3, 1e-2):
            cfg = _resonant_config(1, ratio)
            assert rwa_infidelity(cfg, 1, cfg.swap_time(1)) < 1e-12

    def test_spectator_tls_makes_mismatch_monotone(self):
        # the diagnostic quantifies off-resonant spectators: with a second
        # TLS present the mismatch grows strictly with the coupling scale
        lo = _resonant_config(2, 1e-3)
        hi = _resonant_config(2, 1e-2)
        inf_lo = rwa_infidelity(lo, 1, lo.swap_time(1))
        inf_hi = rwa_infidelity(hi, 1, hi.swap_time(1))
        assert 0 < inf_lo < inf_hi

    @pytest.mark.parametrize("fraction", [1.0, 0.37])
    def test_bus_tuned_to_checked_tls(self, fraction):
        # the bus sits at 6 GHz, off every TLS; the check tunes it onto TLS j
        # itself, with the same bits as a config the caller tuned
        config = parse_config(example_config_dict(4, 7))
        assert all(tls.omega_r != config.omega10 for tls in config.tls)
        for j in range(1, 5):
            tuned = dataclasses.replace(config, omega10=config.tls_params(j).omega_r)
            t = fraction * config.swap_time(j)
            assert rwa_infidelity(config, j, t).hex() == rwa_infidelity(tuned, j, t).hex()

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1e-9])
    def test_bad_window_rejected_before_diagonalizing(self, monkeypatch, t):
        # the window duration is checked before the 2^N odd block reaches eigh
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called for a bad window")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        config = parse_config(example_config_dict(4, 7))
        with pytest.raises(ProtocolError, match="window duration"):
            rwa_infidelity(config, 3, t)


def dense_rwa_infidelity(config, j, t):
    """The full-register oracle: evolve under the whole dense Hamiltonian."""
    psi0 = basis_state([1] + [0] * config.num_tls)
    full = evolve(psi0, full_hamiltonian(config), t)
    framed = rotating_frame_transform(full, config.omega10, t)
    return 1.0 - fidelity(resonant_evolution(psi0, j, t, config), framed)


# random devices of 1..4 TLSs, the bus tuned to one of them, and a window
# of up to twice that TLS's full swap
tuned_configs = st.tuples(
    st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 3), st.floats(0.0, 2.0)
)


class TestOddParityBlock:
    @staticmethod
    def _tuned(num_tls, seed, pick):
        config = parse_config(example_config_dict(num_tls, seed))
        j = pick % num_tls + 1
        return dataclasses.replace(config, omega10=config.tls_params(j).omega_r), j

    @settings(max_examples=60, deadline=None)
    @given(tuned_configs)
    def test_block_of_dense_hamiltonian(self, case):
        config, _ = self._tuned(*case[:3])
        h = full_hamiltonian(config)
        k = np.arange(h.shape[0])
        odd = k[np.bitwise_count(k) % 2 == 1]
        even = k[np.bitwise_count(k) % 2 == 0]
        block, index = odd_parity_block(config, config.omega10)
        assert np.array_equal(index, odd)
        assert block.dtype == np.float64
        assert block.tobytes() == h[odd][:, odd].real.tobytes()
        assert not h[odd][:, even].any()

    def test_bus_frequency_is_the_argument(self):
        # the config's omega10 is never read; the diagonal moves with omega_bus
        config = parse_config(example_config_dict(3, 5))
        other = dataclasses.replace(config, omega10=2 * config.omega10)
        omega_bus = config.tls_params(2).omega_r
        block, index = odd_parity_block(config, omega_bus)
        same, same_index = odd_parity_block(other, omega_bus)
        assert block.tobytes() == same.tobytes()
        assert np.array_equal(index, same_index)
        shift = 2 * np.pi * 1e8
        moved, _ = odd_parity_block(config, omega_bus + shift)
        off = ~np.eye(block.shape[0], dtype=bool)
        assert np.array_equal(moved[off], block[off])
        # -(omega_bus/2) Z_bus: the energy rises with omega_bus when the bus is excited
        expected = np.where(index & 1, shift / 2, -shift / 2)
        assert np.allclose(np.diag(moved) - np.diag(block), expected, rtol=1e-6, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(tuned_configs)
    def test_rwa_infidelity_matches_dense_evolution(self, case):
        config, j = self._tuned(*case[:3])
        t = case[3] * config.swap_time(j)
        assert abs(rwa_infidelity(config, j, t) - dense_rwa_infidelity(config, j, t)) < 1e-12
