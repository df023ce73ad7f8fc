import numpy as np
import pytest

from conftest import GHZ, MHZ, ten_defect_config
from phasebus.device import BiasModel, DeviceConfig, TlsParams
from phasebus.spectroscopy import (
    AvoidedCrossing,
    SpectroscopyScan,
    bare_bus_frequency,
    bias_for_frequency,
    default_bias_grid,
    extract_tls_parameters,
    synth_spectroscopy,
)


def single_tls_config(splitting_hz=40e6, f_r=5.5e9):
    return DeviceConfig(
        omega10=6.0 * GHZ,
        tls=(TlsParams("a", 2 * np.pi * f_r, np.pi * splitting_hz),),
        bias_model=BiasModel(omega_p0=2 * np.pi * 7.6e9),
    )


class TestBareCurve:
    def test_monotone_decreasing(self):
        bias = np.linspace(0.05, 0.99, 500)
        f = bare_bus_frequency(bias, 2 * np.pi * 7.6e9)
        assert np.all(np.diff(f) < 0)
        assert np.all(f > 0)

    def test_inverse(self):
        om = 2 * np.pi * 7.6e9
        for f in (5e9, 6.5e9):
            assert bare_bus_frequency(bias_for_frequency(f, om), om) == pytest.approx(f)

    def test_unreachable_frequency(self):
        with pytest.raises(ValueError):
            bias_for_frequency(8e9, 2 * np.pi * 7.6e9)


class TestScanValidation:
    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="sorted"):
            SpectroscopyScan(np.array([0.5]), np.array([[5e9, 4e9]]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            SpectroscopyScan(np.array([0.5]), np.array([[-1.0, 5e9]]))

    def test_detection_band(self):
        with pytest.raises(ValueError, match="detection band"):
            AvoidedCrossing(0.5, 1e6, 5e9)


class TestSynthSingleTls:
    def test_branches_match_two_level_formula(self):
        cfg = single_tls_config()
        grid = default_bias_grid(cfg, 400)
        scan = synth_spectroscopy(cfg, grid)
        fq = bare_bus_frequency(grid, cfg.bias_model.omega_p0)
        f_r = cfg.tls[0].frequency_hz
        delta = cfg.tls[0].splitting_hz
        mid = 0.5 * (fq + f_r)
        half = 0.5 * np.hypot(fq - f_r, delta)
        expected = np.sort(np.stack([mid - half, mid + half], axis=1), axis=1)
        # calibration against the sampled gap may nudge by ~1e-5 of the
        # splitting; the formula shape must hold to far below the splitting
        assert np.abs(scan.branch_frequencies - expected).max() < 1e-4 * delta

    def test_minimal_gap_is_splitting(self):
        cfg = single_tls_config(splitting_hz=40e6)
        scan = synth_spectroscopy(cfg, default_bias_grid(cfg, 2000))
        gap = scan.branch_frequencies[:, 1] - scan.branch_frequencies[:, 0]
        assert gap.min() == pytest.approx(40e6, rel=1e-4)

    def test_bias_range_enforced(self):
        cfg = single_tls_config()
        with pytest.raises(ValueError):
            synth_spectroscopy(cfg, [0.0, 0.5])

    @pytest.mark.parametrize("edit", ["reversed", "repeated", "nan", "inf"])
    def test_grid_must_be_finite_and_increasing(self, edit):
        cfg = single_tls_config()
        grid = default_bias_grid(cfg, 50)
        if edit == "reversed":
            grid = grid[::-1]
        elif edit == "repeated":
            grid[10] = grid[9]
        else:
            grid[10] = float(edit)
        with pytest.raises(ValueError, match="strictly increasing"):
            synth_spectroscopy(cfg, grid)
        with pytest.raises(ValueError):
            synth_spectroscopy(cfg, [0.5, 0.9995])

    def test_requires_bias_model(self):
        cfg = DeviceConfig(
            omega10=6.0 * GHZ, tls=(TlsParams("a", 5 * GHZ, 20 * MHZ),)
        )
        with pytest.raises(ValueError, match="bias model"):
            synth_spectroscopy(cfg, [0.5])


class TestExtraction:
    def test_bare_single_branch_yields_nothing(self):
        bias = np.linspace(0.1, 0.9, 200)
        f = bare_bus_frequency(bias, 2 * np.pi * 7.6e9)
        scan = SpectroscopyScan(bias, f[:, None])
        assert extract_tls_parameters(scan) == []

    def test_single_crossing_recovery(self):
        cfg = single_tls_config(splitting_hz=40e6, f_r=5.5e9)
        scan = synth_spectroscopy(cfg, default_bias_grid(cfg, 2000))
        crossings = extract_tls_parameters(scan)
        assert len(crossings) == 1
        c = crossings[0]
        assert c.splitting == pytest.approx(40e6, rel=5e-3)
        assert c.tls_frequency == pytest.approx(5.5e9, abs=2e6)

    def test_edge_minimum_warns_and_omits(self):
        cfg = single_tls_config(f_r=5.5e9)
        om = cfg.bias_model.omega_p0
        crossing_bias = bias_for_frequency(5.5e9, om)
        grid = np.linspace(crossing_bias, crossing_bias + 0.05, 60)
        scan = synth_spectroscopy(cfg, grid)
        with pytest.warns(UserWarning, match="edge"):
            crossings = extract_tls_parameters(scan)
        assert crossings == []

    @pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
    def test_merges_crossings_within_grid_step(self):
        # hand-built scan: two adjacent-column dips at nearly the same bias
        bias = np.linspace(0.0, 1.0, 201)
        low = np.full_like(bias, 5.0e9)
        mid = 5.1e9 - 0.08e9 * np.exp(-(((bias - 0.5) / 0.02) ** 2))
        high = 5.2e9 - 0.15e9 * np.exp(-(((bias - 0.5004) / 0.02) ** 2))
        branches = np.sort(np.stack([low, mid, high], axis=1), axis=1)
        scan = SpectroscopyScan(bias, branches)
        with pytest.warns(UserWarning, match="grid resolution"):
            crossings = extract_tls_parameters(scan)
        assert len(crossings) <= 1

    @pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
    def test_round_trip_ten_tls(self):
        cfg = ten_defect_config(seed=42)
        grid = default_bias_grid(cfg, 2000)
        scan = synth_spectroscopy(cfg, grid)
        crossings = extract_tls_parameters(scan)
        truth = sorted((t.frequency_hz, t.splitting_hz) for t in cfg.tls)
        assert len(crossings) == len(truth)
        step = grid[1] - grid[0]
        for (f_true, d_true), c in zip(truth, crossings):
            assert abs(c.splitting - d_true) / d_true < 0.05
            f_step = abs(
                bare_bus_frequency(c.center_bias + step, cfg.bias_model.omega_p0)
                - bare_bus_frequency(c.center_bias, cfg.bias_model.omega_p0)
            )
            assert abs(c.tls_frequency - f_true) <= f_step

    @pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_round_trip_random_configs(self, seed):
        cfg = ten_defect_config(seed=seed)
        scan = synth_spectroscopy(cfg, default_bias_grid(cfg, 2000))
        crossings = extract_tls_parameters(scan)
        truth = sorted((t.frequency_hz, t.splitting_hz) for t in cfg.tls)
        assert len(crossings) == len(truth)
        for (f_true, d_true), c in zip(truth, crossings):
            assert abs(c.splitting - d_true) / d_true < 0.05


class TestDefaultGrid:
    def test_covers_all_crossings(self):
        cfg = ten_defect_config(seed=7)
        grid = default_bias_grid(cfg, 500)
        f = bare_bus_frequency(grid, cfg.bias_model.omega_p0)
        freqs = [t.frequency_hz for t in cfg.tls]
        assert f.max() > max(freqs) and f.min() < min(freqs)

    def test_rejects_low_plasma_scale(self):
        cfg = DeviceConfig(
            omega10=6.0 * GHZ,
            tls=(TlsParams("a", 5 * GHZ, 20 * MHZ),),
            bias_model=BiasModel(omega_p0=2 * np.pi * 5.0e9),
        )
        with pytest.raises(ValueError, match="omega_p0"):
            default_bias_grid(cfg)
