import csv
import io
import json
import warnings

import numpy as np
import pytest

from conftest import DEMO_CONFIG, GHZ, MHZ, crowded_config_dict, ten_defect_config
from phasebus.cli import main
from phasebus.config_io import example_config_dict, load_config, parse_config
from phasebus.device import BiasModel, DeviceConfig, TlsParams
import phasebus.spectroscopy as spectroscopy
from phasebus.spectroscopy import (
    DETECTION_BAND_HZ,
    AvoidedCrossing,
    SpectroscopyScan,
    _is_prominent,
    _level_branches,
    _refine_gap_minimum,
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


def cut_off_grid():
    """A grid that starts at the 5.5 GHz crossing, cutting its dip in half."""
    crossing_bias = bias_for_frequency(5.5e9, 2 * np.pi * 7.6e9)
    return np.linspace(crossing_bias, crossing_bias + 0.05, 60)


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

    @pytest.mark.parametrize(
        "bias, freqs",
        [
            # a 2-D bias array would land in the CSV's bias column as a list
            (np.array([[0.1, 0.2, 0.3]]), np.full((3, 2), 5e9)),
            # a 1-D frequency array has no branch axis
            (np.array([0.1, 0.2, 0.3]), np.full(3, 5e9)),
        ],
        ids=["2d-bias", "1d-frequencies"],
    )
    def test_rejects_wrong_shapes(self, bias, freqs):
        with pytest.raises(ValueError, match="1-D bias points and one frequency row"):
            SpectroscopyScan(bias, freqs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["bias", "frequency"])
    def test_rejects_non_finite(self, where, value):
        # NaN passes both the positivity and the sortedness check
        bias = np.array([0.4, 0.5, 0.6])
        freqs = np.array([[4e9, 5e9], [4.1e9, 5e9], [4.2e9, 5e9]])
        if where == "bias":
            bias[1] = value
        else:
            freqs[1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            SpectroscopyScan(bias, freqs)

    @pytest.mark.parametrize("edit", ["reversed", "repeated"])
    def test_rejects_bias_points_not_strictly_increasing(self, demo, edit):
        # np.interp in extract_tls_parameters needs increasing bias: on the
        # reversed demo scan it puts TLS-1 at 4.998632 GHz, not 4.987157
        scan = synth_spectroscopy(demo, default_bias_grid(demo, 300))
        bias, freqs = scan.bias_points.copy(), scan.branch_frequencies
        if edit == "reversed":
            bias, freqs = bias[::-1], freqs[::-1]
        else:
            bias[150] = bias[149]
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectroscopyScan(bias, freqs)

    def test_csv_rows_match_csv_writer(self, tmp_path):
        # one string per bias point is byte for byte what csv.writer makes
        # of the (bias, branch_index, frequency) rows
        rng = np.random.default_rng(17)
        bias = np.sort(rng.uniform(0.01, 0.99, 40))
        freqs = np.sort(10.0 ** rng.uniform(6, 10.5, (40, 4)), axis=1)
        freqs[3] = [1e7, 5e9, 5e9, 1.25e10]
        scan = SpectroscopyScan(bias, freqs)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["bias", "branch_index", "frequency_hz"])
        for b, row in zip(bias.tolist(), freqs.tolist()):
            writer.writerows([b, br, f] for br, f in enumerate(row))
        assert path.read_bytes() == expected.getvalue().encode()

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
        scan = synth_spectroscopy(single_tls_config(f_r=5.5e9), cut_off_grid())
        with pytest.warns(UserWarning, match="edge"):
            crossings = extract_tls_parameters(scan)
        assert crossings == []

    @pytest.mark.parametrize("points", [12, 20, 50, 300, 2000])
    def test_demo_scan_warns_of_no_edge(self, points):
        # several demo columns fall toward the grid edge beside their
        # interior crossing; only an edge that is the column's lowest gap
        # has lost a crossing.  The coarse grids still merge crossings.
        demo = load_config(DEMO_CONFIG)
        scan = synth_spectroscopy(demo, default_bias_grid(demo, points))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            crossings = extract_tls_parameters(scan)
        messages = [str(w.message) for w in caught]
        assert not [m for m in messages if "scan edge" in m]
        if points >= 50:
            assert messages == []
            assert len(crossings) == demo.num_tls

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


def full_sweep_branches(config, bias):
    """Oracle: the calibration loop solving every bias point in every pass.

    Each pass observes each column's gap minimum over the whole sweep; an
    edge minimum or a refined splitting that is not finite and positive
    ends calibration with the last model.
    """
    bias = np.asarray(bias, dtype=float)
    f_tls = np.array([t.frequency_hz for t in config.tls])
    gaps = np.array([t.splitting_hz for t in config.tls])
    order = np.argsort(f_tls)
    target_f, target_gap = f_tls[order], gaps[order]
    fq = bare_bus_frequency(bias, config.bias_model.omega_p0)
    g, levels = target_gap.copy(), target_f.copy()
    branches = _level_branches(fq, levels, g)
    for _ in range(12):
        n = branches.shape[1] - 1
        obs_gap, obs_f = np.empty(n), np.empty(n)
        for k in range(n):
            gap = branches[:, k + 1] - branches[:, k]
            i = int(np.argmin(gap))
            if i == 0 or i == len(bias) - 1:
                return branches
            center, obs_gap[k] = _refine_gap_minimum(
                bias[i - 1 : i + 2], gap[i - 1 : i + 2]
            )
            if not (np.isfinite(obs_gap[k]) and obs_gap[k] > 0):
                return branches
            mid = 0.5 * (branches[:, k] + branches[:, k + 1])
            obs_f[k] = np.interp(center, bias, mid)
        if (
            np.abs(obs_gap - target_gap).max() < 1e-6 * target_gap.min()
            and np.abs(obs_f - target_f).max() < 1e-9 * target_f.min()
        ):
            return branches
        g = g * (target_gap / obs_gap)
        levels = levels + (target_f - obs_f)
        branches = _level_branches(fq, levels, g)
    return branches


@pytest.fixture(scope="module")
def demo():
    return load_config(DEMO_CONFIG)


class TestCalibrationPruning:
    """Later calibration passes solve only the rows Weyl's bound keeps; the
    branches must equal the all-rows loop bit for bit (NaN equal to NaN)."""

    @pytest.mark.parametrize("points", [3, 4, 12, 20, 50, 300, 2000])
    def test_demo_equals_full_sweep(self, demo, points):
        grid = default_bias_grid(demo, points)
        scan = synth_spectroscopy(demo, grid)
        oracle = full_sweep_branches(demo, grid)
        assert np.array_equal(scan.branch_frequencies, oracle, equal_nan=True)

    @pytest.mark.parametrize("points", [3, 5, 12, 20, 40, 300, 2000])
    @pytest.mark.parametrize("num_tls", [2, 5, 8, 10])
    def test_example_configs_equal_full_sweep(self, num_tls, points):
        for seed in range(4):
            config = parse_config(example_config_dict(num_tls, seed))
            grid = default_bias_grid(config, points)
            scan = synth_spectroscopy(config, grid)
            oracle = full_sweep_branches(config, grid)
            assert np.array_equal(scan.branch_frequencies, oracle, equal_nan=True), seed

    def test_row_subset_solves_like_full_sweep(self, demo):
        # each block is solved on its own, so any subset of rows gives the
        # bits of those rows in a full sweep
        rng = np.random.default_rng(5)
        fq = bare_bus_frequency(default_bias_grid(demo, 2000), demo.bias_model.omega_p0)
        levels = np.sort([t.frequency_hz for t in demo.tls])
        couplings = np.array([t.splitting_hz for t in demo.tls])
        for _ in range(50):
            lv = levels + rng.normal(0, 2e6, levels.size)
            g = couplings * rng.uniform(0.9, 1.1, couplings.size)
            full = _level_branches(fq, lv, g)
            rows = np.flatnonzero(rng.random(fq.size) < rng.uniform(0.005, 0.5))
            assert np.array_equal(_level_branches(fq[rows], lv, g), full[rows])

    def test_demo_passes_after_the_first_solve_fewer_rows(self, demo, monkeypatch):
        # the first and the returned sweep are full; the passes between
        # them together solve fewer rows than one full sweep
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(blocks):
            sizes.append(len(blocks))
            return eigvalsh(blocks)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        synth_spectroscopy(demo, default_bias_grid(demo, 2000))
        assert len(sizes) > 2
        assert sizes[0] == sizes[-1] == 2000
        assert sum(sizes[1:-1]) < 2000


class TestTlsListingOrder:
    """DeviceConfig sorts its TLSs by frequency, so a shuffled listing gives
    the scan of the sorted one, bit for bit."""

    @staticmethod
    def sources():
        with open(DEMO_CONFIG) as fh:
            yield json.load(fh)
        for num_tls in (2, 5, 8, 10):
            for seed in range(2):
                yield example_config_dict(num_tls, seed)

    @pytest.mark.parametrize("points", [20, 300, 2000])
    def test_shuffled_listing_gives_the_sorted_scan(self, points):
        rng = np.random.default_rng(points)
        for data in self.sources():
            listing = sorted(data["tls"], key=lambda t: t["omega_r_ghz"])
            shuffled = [listing[i] for i in rng.permutation(len(listing))]
            if len(listing) > 1 and shuffled == listing:
                shuffled = listing[::-1]
            scans = []
            for tls in (listing, shuffled):
                config = parse_config({**data, "tls": tls})
                scans.append(synth_spectroscopy(config, default_bias_grid(config, points)))
            sorted_scan, shuffled_scan = scans
            assert shuffled_scan.bias_points.tobytes() == sorted_scan.bias_points.tobytes()
            assert (shuffled_scan.branch_frequencies.tobytes()
                    == sorted_scan.branch_frequencies.tobytes())


class TestZeroObservedGap:
    """On coarse grids the refined splitting can clamp to 0; calibration
    must stop with the last finite model instead of dividing by it."""

    @pytest.mark.parametrize("points", [12, 20])
    def test_demo_coarse_grid(self, tmp_path, points):
        argv = ["spectroscopy", "--points", str(points), "--config", DEMO_CONFIG,
                "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        with open(tmp_path / "scan.csv", newline="") as fh:
            freqs = [float(row["frequency_hz"]) for row in csv.DictReader(fh)]
        assert len(freqs) == points * 11
        assert np.all(np.isfinite(freqs))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example_configs_at_twelve_points(self):
        for seed in range(40):
            config = parse_config(example_config_dict(10, seed))
            scan = synth_spectroscopy(config, default_bias_grid(config, 12))
            assert np.all(np.isfinite(scan.branch_frequencies)), seed


class TestCalibrationStatus:
    """A synthesized scan says whether calibration met its tolerance; each
    way it can stop short says no."""

    def test_converged_demo(self):
        demo = load_config(DEMO_CONFIG)
        assert synth_spectroscopy(demo, default_bias_grid(demo, 2000)).calibrated is True

    @pytest.mark.parametrize("points", [3, 12], ids=["edge-minimum", "zero-splitting"])
    def test_coarse_demo_grids(self, points):
        demo = load_config(DEMO_CONFIG)
        assert synth_spectroscopy(demo, default_bias_grid(demo, points)).calibrated is False

    def test_crowded_config_stops_on_an_edge_minimum(self):
        config = parse_config(crowded_config_dict())
        assert synth_spectroscopy(config, default_bias_grid(config, 2000)).calibrated is False

    def test_pass_limit(self, monkeypatch):
        # observations read 1 % wide and narrow in turn, which no model
        # update can calibrate away, so the tolerance is never met
        observe = spectroscopy._observed_crossings
        calls = []

        def alternating(*args):
            calls.append(1)
            gap, freq = observe(*args)
            return gap * (1.01 if len(calls) % 2 else 0.99), freq

        monkeypatch.setattr(spectroscopy, "_observed_crossings", alternating)
        cfg = single_tls_config()
        assert synth_spectroscopy(cfg, default_bias_grid(cfg, 300)).calibrated is False
        assert len(calls) == 12

    def test_hand_built_scan_has_no_status(self):
        bias = np.linspace(0.1, 0.9, 5)
        scan = SpectroscopyScan(bias, bare_bus_frequency(bias, 2 * np.pi * 7.6e9)[:, None])
        assert scan.calibrated is None


def per_point_extraction(scan):
    """Oracle: the crossing extraction scanning each column point by point."""
    bias = scan.bias_points
    freqs = scan.branch_frequencies
    lo, hi = DETECTION_BAND_HZ
    found = []
    for col in range(scan.num_branches - 1):
        gap = freqs[:, col + 1] - freqs[:, col]
        for i in range(len(bias)):
            if not (gap[i] <= hi):
                continue
            is_min = (i == 0 or gap[i] < gap[i - 1]) and (
                i == len(bias) - 1 or gap[i] <= gap[i + 1]
            )
            if not is_min:
                continue
            if i == 0 or i == len(bias) - 1:
                if i == int(np.argmin(gap)):
                    warnings.warn(
                        f"gap minimum at scan edge (bias {bias[i]:.4g}) lacks a "
                        "three-point bracket; crossing omitted"
                    )
                continue
            if not _is_prominent(gap, i, lo):
                continue
            center, splitting = _refine_gap_minimum(
                bias[i - 1 : i + 2], gap[i - 1 : i + 2]
            )
            if not lo <= splitting <= hi:
                continue
            mid = 0.5 * (freqs[:, col] + freqs[:, col + 1])
            near = slice(i - 1, i + 2)
            crossing_freq = float(np.interp(center, bias[near], mid[near]))
            found.append(AvoidedCrossing(center, splitting, crossing_freq))
    found.sort(key=lambda c: c.tls_frequency)
    step = float(np.min(np.abs(np.diff(bias)))) if bias.size > 1 else 0.0
    merged = []
    for c in found:
        if merged and abs(c.center_bias - merged[-1].center_bias) < step:
            warnings.warn(
                f"crossings at bias {merged[-1].center_bias:.5g} and "
                f"{c.center_bias:.5g} are closer than the grid resolution; "
                "keeping one"
            )
            continue
        merged.append(c)
    return merged


def crossings_and_warnings(extract, scan):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crossings = extract(scan)
    return crossings, [(w.category, str(w.message)) for w in caught]


class TestExtractionOracle:
    def scans(self, demo):
        # the demo sweep and the demo at coarse grids (gaps falling toward
        # the edge beside interior dips, no warning), a hand-built scan whose
        # dips sit within one grid step (merge warning) and a single dip cut
        # off by the grid edge (edge warning)
        for points in (2000, 12, 20, 50):
            yield synth_spectroscopy(demo, default_bias_grid(demo, points))
        bias = np.linspace(0.0, 1.0, 201)
        low = np.full_like(bias, 5.0e9)
        mid = 5.1e9 - 0.08e9 * np.exp(-(((bias - 0.5) / 0.02) ** 2))
        high = 5.2e9 - 0.15e9 * np.exp(-(((bias - 0.5004) / 0.02) ** 2))
        yield SpectroscopyScan(bias, np.sort(np.stack([low, mid, high], axis=1), axis=1))
        yield synth_spectroscopy(single_tls_config(f_r=5.5e9), cut_off_grid())

    def test_same_crossings_and_warnings_as_per_point_loop(self, demo):
        kinds = set()
        for scan in self.scans(demo):
            got = crossings_and_warnings(extract_tls_parameters, scan)
            want = crossings_and_warnings(per_point_extraction, scan)
            assert got == want
            kinds.update(msg.split(" ")[0] for _, msg in got[1])
        assert kinds == {"gap", "crossings"}


def walked_prominence(gap, i, depth):
    """Oracle for ``_is_prominent``: walk outward from i, one side at a
    time; a value below gap[i] fails the side, a value at or above
    gap[i] + depth passes it, running off the end fails it."""
    g0 = gap[i]
    for step in (-1, +1):
        j = i + step
        ok = False
        while 0 <= j < len(gap):
            if gap[j] < g0:
                break
            if gap[j] >= g0 + depth:
                ok = True
                break
            j += step
        if not ok:
            return False
    return True


class TestProminence:
    """The first-index dip test decides exactly as the outward walk."""

    @pytest.mark.parametrize("gap, i, want", [
        # values equal to gap[i] neither pass nor fail a side
        ([9, 3, 3, 9], 1, True),
        ([9, 3, 3, 3, 3], 1, False),
        # a value exactly at gap[i] + depth passes its side
        ([5, 3, 5], 1, True),
        ([5, 3, 4.999], 1, False),
        # a drop and a climb at the same distance, on opposite sides
        ([1, 3, 5], 1, False),
        ([5, 3, 1], 1, False),
        ([1, 5, 3, 5, 1], 2, True),
        # on one side: climb before drop passes, drop before climb fails
        ([0, 5, 3, 5, 0], 2, True),
        ([5, 0, 3, 0, 5], 2, False),
        ([5, 3, 3, 5, 0], 1, True),
        ([5, 3, 3, 0, 5], 1, False),
        # i next to either end: an empty side fails
        ([3, 5, 5], 0, False),
        ([5, 5, 3], 2, False),
        ([5, 3, 5, 5], 1, True),
        ([5, 5, 3, 5], 2, True),
        ([3, 3, 5, 5], 1, False),
        ([5, 5, 3, 3], 2, False),
    ])
    def test_edge_cases(self, gap, i, want):
        gap = np.array(gap, dtype=float)
        assert walked_prominence(gap, i, 2.0) is want
        assert _is_prominent(gap, i, 2.0) is want

    def test_random_gaps(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            # small integers make ties with gap[i] and gap[i] + depth common
            gap = rng.integers(0, 6, n).astype(float)
            if rng.random() < 0.3:
                gap += rng.normal(0, 1e-3, n)
            depth = float(rng.choice([0.0, 1.0, 2.0, 2.5]))
            for i in range(n):
                assert _is_prominent(gap, i, depth) == walked_prominence(gap, i, depth)

    @pytest.mark.parametrize("points", [3, 12, 20, 50, 300, 2000])
    def test_scan_candidates(self, demo, points):
        configs = [demo] + [parse_config(example_config_dict(n, 1)) for n in (2, 8)]
        lo = DETECTION_BAND_HZ[0]
        for config in configs:
            scan = synth_spectroscopy(config, default_bias_grid(config, points))
            for gap in np.diff(scan.branch_frequencies, axis=1).T:
                for i in np.flatnonzero(np.r_[True, gap[1:] < gap[:-1]]).tolist():
                    assert _is_prominent(gap, i, lo) == walked_prominence(gap, i, lo)
