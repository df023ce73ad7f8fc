import csv
import json
import math
import os

import numpy as np
import pytest

from phasebus.cli import build_parser, main
from phasebus.config_io import example_config_dict, load_config, parse_config
from phasebus.device import ConfigError
from phasebus.measurement import ReadoutModel, estimate_witness_sampled
from phasebus.protocols import run_w_protocol
from phasebus.reporting import fmt
from phasebus.spectroscopy import default_bias_grid, synth_spectroscopy
from phasebus.witnesses import w3_witness_decomposed


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(example_config_dict(), indent=2))
    return str(path)


@pytest.fixture
def small_config_path(tmp_path):
    data = {
        "device": {"omega10_ghz": 6.0, "readout_fidelity": 0.96,
                   "omega_p0_ghz": 6.5},
        "tls": [
            {"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0},
            {"id": "b", "omega_r_ghz": 5.2, "splitting_mhz": 25.0},
            {"id": "c", "omega_r_ghz": 5.4, "splitting_mhz": 60.0},
        ],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(outdir):
    with open(os.path.join(outdir, "report.csv")) as fh:
        return {row["metric"]: row for row in csv.DictReader(fh)}


class TestLoadConfig:
    def test_ten_defect_config_loads(self, config_path):
        cfg = load_config(config_path)
        assert cfg.num_tls == 10
        assert 0.5 < cfg.readout_fidelity <= 1.0

    def test_overlapping_resonances_rejected_with_both_ids(self):
        data = {
            "device": {"omega10_ghz": 6.0},
            "tls": [
                {"id": "left", "omega_r_ghz": 5.0, "splitting_mhz": 100.0},
                {"id": "right", "omega_r_ghz": 5.00001, "splitting_mhz": 100.0},
            ],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "left" in str(err.value) and "right" in str(err.value)

    def test_empty_tls_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"device": {"omega10_ghz": 6.0}, "tls": []})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section,field",
        [("tls", "omega_r_ghz"), ("tls", "splitting_mhz"),
         ("device", "omega10_ghz"), ("device", "omega_p0_ghz")],
    )
    def test_non_finite_value_rejected(self, section, field, value):
        data = {
            "device": {"omega10_ghz": 6.0, "omega_p0_ghz": 7.6},
            "tls": [{"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0}],
        }
        (data["tls"][0] if section == "tls" else data["device"])[field] = value
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_units_conversion(self):
        data = {
            "device": {"omega10_ghz": 6.0},
            "tls": [{"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0}],
        }
        cfg = parse_config(data)
        assert cfg.omega10 == pytest.approx(2 * np.pi * 6e9)
        assert cfg.tls[0].omega_r == pytest.approx(2 * np.pi * 5e9)
        assert cfg.tls[0].splitting_hz == pytest.approx(40e6)
        assert cfg.swap_time(1) == pytest.approx(12.5e-9)


def valid_config():
    return {
        "device": {"omega10_ghz": 6.0, "readout_fidelity": 0.96, "omega_p0_ghz": 7.6},
        "tls": [{"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0}],
    }


def assert_config_rejected(tmp_path, capsys, text):
    """Config file ``text`` exits 3 with one ``invalid config`` line and
    writes no output.  Returns that line."""
    path = tmp_path / "field.json"
    path.write_text(text)
    rc = main(["w-state", "--config", str(path), "--n", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("phasebus: invalid config: ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o")
    return err


def assert_field_rejected(tmp_path, capsys, section, field, value):
    """A valid config with one field of ``section`` (``config`` for the top
    level) set to ``value`` is rejected as ``assert_config_rejected``
    checks.  Returns the error line."""
    data = valid_config()
    {"config": data, "device": data["device"], "tls": data["tls"][0]}[section][field] = value
    return assert_config_rejected(tmp_path, capsys, json.dumps(data))


class TestExitCodes:
    def test_success(self, small_config_path, tmp_path):
        rc = main(["w-state", "--config", small_config_path, "--n", "2",
                   "--out", str(tmp_path / "ok")])
        assert rc == 0

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["w-state", "--config", str(tmp_path / "nope.json"),
                   "--n", "2", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unparseable_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["w-state", "--config", str(bad), "--n", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "payload",
        [
            b"\xff\xfe\x00\x01",  # not UTF-8: json.load never sees text
            b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
        ],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_config_not_json_text(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        rc = main(["w-state", "--config", str(bad), "--n", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("phasebus: cannot read config: ") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "o")

    def test_invariant_violation(self, tmp_path):
        data = {
            "device": {"omega10_ghz": 6.0},
            "tls": [
                {"id": "x", "omega_r_ghz": 5.0, "splitting_mhz": 100.0},
                {"id": "y", "omega_r_ghz": 5.00001, "splitting_mhz": 100.0},
            ],
        }
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(data))
        rc = main(["w-state", "--config", str(path), "--n", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_duplicate_tls_id(self, tmp_path):
        data = {
            "device": {"omega10_ghz": 6.0},
            "tls": [
                {"id": "x", "omega_r_ghz": 5.0, "splitting_mhz": 40.0},
                {"id": "x", "omega_r_ghz": 5.4, "splitting_mhz": 40.0},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        rc = main(["w-state", "--config", str(path), "--n", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("value", ["abc", [1], {}], ids=["text", "list", "object"])
    def test_malformed_omega_p0(self, tmp_path, capsys, value):
        data = {
            "device": {"omega10_ghz": 6.0, "omega_p0_ghz": value},
            "tls": [{"id": "a", "omega_r_ghz": 5.0, "splitting_mhz": 40.0}],
        }
        path = tmp_path / "p0.json"
        path.write_text(json.dumps(data))
        rc = main(["w-state", "--config", str(path), "--n", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("phasebus: invalid config: ") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "section, field",
        [("device", "omega10_ghz"), ("device", "readout_fidelity"),
         ("device", "omega_p0_ghz"), ("tls", "omega_r_ghz"), ("tls", "splitting_mhz")],
    )
    def test_boolean_number_rejected(self, tmp_path, capsys, section, field):
        # float(true) is 1.0: F = 1, a 1 MHz splitting, a 1 GHz line
        assert_field_rejected(tmp_path, capsys, section, field, True)

    @pytest.mark.parametrize(
        "section, field, text",
        [("device", "omega10_ghz", "6.0"), ("device", "readout_fidelity", "0.96"),
         ("device", "omega_p0_ghz", "7.6"), ("tls", "omega_r_ghz", "5.0"),
         ("tls", "splitting_mhz", "40"), ("device", "omega10_ghz", 6 * 10**400),
         ("tls", "splitting_mhz", 4 * 10**400)],
    )
    def test_string_or_oversized_number_rejected(self, tmp_path, capsys, section, field, text):
        # float("0.96") parses, but a JSON string is no measurement; a JSON
        # integer beyond float range overflows float()
        assert_field_rejected(tmp_path, capsys, section, field, text)

    @pytest.mark.parametrize(
        "section, key",
        [("config", "devices"), ("device", "readout_fidelty"), ("tls", "splitting_MHz")],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key):
        # ignored, a misspelled readout_fidelity would run at F = 1 and exit 0
        assert repr(key) in assert_field_rejected(tmp_path, capsys, section, key, 0.9)

    @pytest.mark.parametrize(
        "key, once, twice",
        [("tls", '"tls": [', '"tls": [], "tls": ['),
         ("readout_fidelity", '"readout_fidelity": 0.96',
          '"readout_fidelity": 0.96, "readout_fidelity": 0.9'),
         ("splitting_mhz", '"splitting_mhz": 40.0',
          '"splitting_mhz": 40.0, "splitting_mhz": 400.0')],
        ids=["config", "device", "tls"],
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, key, once, twice):
        # json keeps the last of two equal keys, so each of these configs
        # would load (the TLS entry at 400 MHz) and exit 0
        text = json.dumps(valid_config())
        assert text.count(once) == 1
        err = assert_config_rejected(tmp_path, capsys, text.replace(once, twice))
        assert repr(key) in err

    @pytest.mark.parametrize(
        "section, field", [("device", "readout_fidelity"), ("device", "omega_p0_ghz")]
    )
    def test_null_number_rejected(self, tmp_path, capsys, section, field):
        # an optional number is omitted, never null: read as absent, a null
        # omega_p0_ghz would pass as "no bias model"
        assert_field_rejected(tmp_path, capsys, section, field, None)

    @pytest.mark.parametrize(
        "key, value, block",
        [("device", [], "device block"), ("device", None, "device block"),
         ("tls", [1], "TLS entry")],
        ids=["device-array", "device-null", "tls-number"],
    )
    def test_non_object_block_rejected(self, tmp_path, capsys, key, value, block):
        # the error names the block, not Python's own indexing failure
        assert block in assert_field_rejected(tmp_path, capsys, "config", key, value)

    def test_top_level_array_rejected(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([example_config_dict()]))
        rc = main(["w-state", "--config", str(path), "--n", "1", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("phasebus: invalid config: config ") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "tls_id", [None, [1], True, 1.5, {"a": 1}, ""],
        ids=["null", "list", "true", "float", "object", "empty"],
    )
    def test_malformed_tls_id_rejected(self, tmp_path, capsys, tls_id):
        # str() would load these as "None", "[1]", "True", "1.5", "{'a': 1}", ""
        assert_field_rejected(tmp_path, capsys, "tls", "id", tls_id)

    def test_integer_tls_id_loads_as_text(self):
        data = {"device": {"omega10_ghz": 6.0},
                "tls": [{"id": 7, "omega_r_ghz": 5.0, "splitting_mhz": 40.0}]}
        assert parse_config(data).tls[0].id == "7"

    def test_out_of_memory_exits_four(self, small_config_path, tmp_path, capsys,
                                      monkeypatch):
        import phasebus.cli

        def exhausted(args, config, report):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setitem(phasebus.cli._HANDLERS, "spectroscopy", exhausted)
        rc = main(["spectroscopy", "--config", small_config_path,
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        assert capsys.readouterr().err == (
            "phasebus: spectroscopy: out of memory: "
            "Unable to allocate 745. GiB for an array\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_bad_readout_override(self, small_config_path, tmp_path):
        rc = main(["w-state", "--config", small_config_path, "--n", "2",
                   "--readout-f", "0.3", "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_physics_error(self, small_config_path, tmp_path):
        rc = main(["bell", "--config", small_config_path, "--target", "bell:2:2",
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    @pytest.mark.parametrize(
        "command,target",
        [
            ("bell", "bell:1:x"),
            ("bell", "bell:1"),
            ("bell", "pair:1:2"),
            ("tomo", "bell:1:-2"),
            ("tomo", "bell:x:2"),
            ("witness", "w"),
            ("witness", "c3.5"),
            ("witness", "q9"),
        ],
    )
    def test_malformed_target_is_usage_error(
        self, small_config_path, tmp_path, command, target
    ):
        rc = main([command, "--config", small_config_path, "--target", target,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "--target", "w3", "--shots", "-5"],
            ["tomo", "--target", "bell:1:2", "--shots", "-1"],
            ["spectroscopy", "--points", "0"],
            ["spectroscopy", "--points", "1"],
            ["spectroscopy", "--points", "2"],
            ["witness", "--target", "w3", "--emit-shots"],
        ],
        ids=["witness-shots-neg", "tomo-shots-neg", "points-0", "points-1", "points-2",
             "emit-shots-without-shots"],
    )
    def test_bad_count_is_usage_error(self, config_path, tmp_path, argv):
        rc = main([*argv, "--config", config_path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not os.path.exists(tmp_path / "o")

    def test_single_shot_witness_is_usage_error(self, config_path, tmp_path, capsys):
        # one shot per setting has no sample variance, so no standard error
        rc = main(["witness", "--config", config_path, "--target", "c4",
                   "--shots", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "phasebus: witness: --shots must be 0 (exact) or at least 2 "
            "for a standard error\n"
        )
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("target", ["c4", "w4"])
    def test_decomposed_only_for_w3(self, config_path, tmp_path, capsys, target):
        rc = main(["witness", "--config", config_path, "--target", target,
                   "--decomposed", "--out", str(tmp_path / "o")])
        assert rc == 4
        assert capsys.readouterr().err == (
            "phasebus: witness: --decomposed applies to the three-qubit W witness\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_unknown_subcommand_exits_two(self, small_config_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", small_config_path])
        assert exc.value.code == 2

    def test_unwritable_output(self, small_config_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["w-state", "--config", small_config_path, "--n", "2",
                   "--out", str(blocker / "sub")])
        assert rc == 5


class TestWStateCommand:
    def test_n5_report(self, config_path, tmp_path):
        out = str(tmp_path / "w5")
        assert main(["w-state", "--config", config_path, "--n", "5", "--out", out]) == 0
        rows = read_rows(out)
        assert float(rows["target_fidelity"]["value"]) >= 1 - 1e-9
        with open(os.path.join(out, "amplitudes.csv")) as fh:
            amps = [float(r["amplitude_magnitude"]) for r in csv.DictReader(fh)]
        assert len(amps) == 5
        assert np.allclose(amps, 1 / np.sqrt(5), atol=1e-10)
        assert os.path.exists(os.path.join(out, "schedule.txt"))

    def test_fraction_mode(self, small_config_path, tmp_path):
        out = str(tmp_path / "w3frac")
        rc = main(["w-state", "--config", small_config_path, "--n", "3",
                   "--mode", "paper-n3", "--out", out])
        assert rc == 0
        rows = read_rows(out)
        closed = (0.5 + np.sqrt(6) / 4 + np.sqrt(3) / 4) ** 2 / 3
        assert float(rows["target_fidelity"]["value"]) == pytest.approx(closed, abs=1e-9)


class TestClusterCommand:
    def test_search_corrections_table(self, small_config_path, tmp_path):
        out = str(tmp_path / "cl")
        rc = main(["cluster", "--config", small_config_path, "--n", "3",
                   "--search-corrections", "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert float(rows["best_corrected_fidelity"]["value"]) > 1 - 1e-9
        assert rows["best_bus_init"]["value"] == "plus"
        assert os.path.exists(os.path.join(out, "corrections.csv"))
        for k in (1, 2, 3):
            assert float(rows[f"stabilizer_{k}"]["value"]) == pytest.approx(1.0, abs=1e-9)


class TestWitnessCommand:
    def test_decomposed_w3(self, small_config_path, tmp_path):
        out = str(tmp_path / "wit")
        rc = main(["witness", "--config", small_config_path, "--target", "w3",
                   "--decomposed", "--shots", "20000", "--readout-f", "1.0",
                   "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert int(rows["settings"]["value"]) == 5
        est = float(rows["estimate"]["value"])
        err = float(rows["estimate"]["stderr"])
        assert abs(est - (-1 / 3)) < 5 * err
        assert float(rows["exact_value"]["value"]) == pytest.approx(-1 / 3, abs=1e-9)

    def test_cluster_witness_two_settings(self, small_config_path, tmp_path):
        out = str(tmp_path / "witc")
        rc = main(["witness", "--config", small_config_path, "--target", "c3",
                   "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert int(rows["settings"]["value"]) == 2
        assert float(rows["exact_value"]["value"]) == pytest.approx(-1.0, abs=1e-9)

    def test_emit_shots(self, small_config_path, tmp_path):
        out = str(tmp_path / "shots")
        rc = main(["witness", "--config", small_config_path, "--target", "c2",
                   "--shots", "50", "--emit-shots", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "shots_setting_0.csv"))
        assert os.path.exists(os.path.join(out, "shots_setting_1.csv"))

    def test_emitted_csvs_read_back(self, small_config_path, tmp_path):
        out = str(tmp_path / "csv")
        rc = main(["witness", "--config", small_config_path, "--target", "w3",
                   "--decomposed", "--shots", "50", "--emit-shots", "--out", out])
        assert rc == 0
        witness = w3_witness_decomposed()
        state = run_w_protocol(load_config(small_config_path), 3).final_state
        est = estimate_witness_sampled(
            state, witness, 50, ReadoutModel(0.96, 0), keep_records=True
        )
        assert len(est.records) == 5
        for idx, record in enumerate(est.records):
            oracle = tmp_path / f"oracle_{idx}.csv"
            record.to_csv(oracle)
            with open(os.path.join(out, f"shots_setting_{idx}.csv"), "rb") as fh:
                assert fh.read() == oracle.read_bytes()
        assert not os.path.exists(os.path.join(out, "shots_setting_5.csv"))
        with open(os.path.join(out, "witness_terms.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coefficient", "pauli_string"]
        assert [(float(c), labels) for c, labels in rows[1:]] == [
            (c, p.labels) for c, p in witness.terms
        ]

    def test_bad_target(self, small_config_path, tmp_path):
        rc = main(["witness", "--config", small_config_path, "--target", "q9",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestTomoCommand:
    def test_exact_mode(self, small_config_path, tmp_path):
        out = str(tmp_path / "tomo")
        rc = main(["tomo", "--config", small_config_path, "--target", "bell:1:2",
                   "--readout-f", "1.0", "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert float(rows["fidelity_vs_target"]["value"]) == pytest.approx(1.0, abs=1e-9)
        assert int(rows["settings_used"]["value"]) == 9
        n_exp = sum(1 for m in rows if m.startswith("expectation_"))
        assert n_exp == 16
        assert os.path.exists(os.path.join(out, "rho_real.csv"))
        assert os.path.exists(os.path.join(out, "rho_imag.csv"))


class TestSpectroscopyCommand:
    def test_scan_and_crossings(self, config_path, tmp_path):
        out = str(tmp_path / "spec")
        rc = main(["spectroscopy", "--config", config_path, "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert int(rows["crossings_found"]["value"]) == 10
        with open(os.path.join(out, "scan.csv")) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["bias", "branch_index", "frequency_hz"]
            first = next(reader)
            assert 0 < float(first["bias"]) < 1
        rel_errs = [
            float(rows[m]["value"]) for m in rows if m.endswith("_splitting_rel_err")
        ]
        assert rel_errs and max(rel_errs) < 0.05
        assert not any(m.endswith("_unmatched") for m in rows)

    @pytest.mark.filterwarnings("ignore:crossings at bias")
    @pytest.mark.parametrize("points", [
        pytest.param(3, marks=pytest.mark.filterwarnings("ignore:gap minimum at scan edge")),
        50,
    ])
    def test_streamed_scan_csv_equals_csv_writer(self, config_path, tmp_path, points):
        # oracle: the scan rows collected as Python values, then written
        # with csv.writer and the report's fmt, as the report's own CSV
        # attachments are
        out = tmp_path / "spec"
        assert main(["spectroscopy", "--config", config_path, "--points", str(points),
                     "--out", str(out)]) == 0
        config = load_config(config_path)
        scan = synth_spectroscopy(config, default_bias_grid(config, points))
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bias", "branch_index", "frequency_hz"])
            for i, b in enumerate(scan.bias_points):
                for br, f in enumerate(scan.branch_frequencies[i]):
                    writer.writerow([fmt(v) for v in (float(b), br, float(f))])
        assert (out / "scan.csv").read_bytes() == oracle.read_bytes()

    @pytest.mark.filterwarnings("ignore:gap minimum at scan edge")
    @pytest.mark.filterwarnings("ignore:crossings at bias")
    def test_sparse_scan_matches_crossings_by_frequency(self, config_path, tmp_path):
        out = str(tmp_path / "spec3")
        rc = main(["spectroscopy", "--config", config_path, "--points", "3",
                   "--out", out])
        assert rc == 0
        rows = read_rows(out)
        found = int(rows["crossings_found"]["value"])
        assert 1 <= found < 10
        config = load_config(config_path)
        matched = set()
        for idx in range(1, found + 1):
            f = float(rows[f"crossing_{idx}_frequency"]["value"])
            matched.add(min(config.tls, key=lambda t: abs(t.frequency_hz - f)).id)
        for tls in config.tls:
            if tls.id in matched:
                assert f"tls_{tls.id}_splitting_rel_err" in rows
                assert f"tls_{tls.id}_unmatched" not in rows
            else:
                assert rows[f"tls_{tls.id}_unmatched"]["value"] == "1"
                assert f"tls_{tls.id}_splitting_rel_err" not in rows


class TestRwaCommand:
    def test_single_tls_row(self, small_config_path, tmp_path):
        out = str(tmp_path / "rwa")
        rc = main(["rwa-check", "--config", small_config_path, "--tls", "1",
                   "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert "rwa_infidelity_a" in rows


class TestManifest:
    COMMANDS = [
        ["w-state", "--n", "2", "--mode", "general"],
        ["bell", "--target", "bell:1:3", "--readout-f", "0.99"],
        ["cluster", "--n", "2", "--search-corrections"],
        ["witness", "--target", "w2", "--shots", "10", "--emit-shots"],
        ["tomo", "--target", "bell:1:2", "--shots", "10"],
        ["spectroscopy", "--points", "300"],
        ["rwa-check", "--tls", "1"],
    ]

    @staticmethod
    def _run(config_path, outdir, argv):
        argv = [argv[0], "--config", config_path, "--seed", "3",
                "--out", outdir, *argv[1:]]
        assert main(argv) == 0
        with open(os.path.join(outdir, "manifest.json")) as fh:
            return json.load(fh), vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_manifest_is_parsed_command_line(self, small_config_path, tmp_path, argv):
        manifest, parsed = self._run(small_config_path, str(tmp_path / "o"), argv)
        parsed["readout_fidelity_override"] = parsed.pop("readout_f")
        assert manifest == parsed

    def test_emit_shots_recorded(self, small_config_path, tmp_path):
        argv = ["witness", "--target", "w2", "--shots", "10"]
        plain, _ = self._run(small_config_path, str(tmp_path / "a"), argv)
        emitted, _ = self._run(small_config_path, str(tmp_path / "b"),
                               argv + ["--emit-shots"])
        assert (plain["emit_shots"], emitted["emit_shots"]) == (False, True)


class TestDeterminism:
    def _run_matrix(self, config_path, outroot):
        cmds = [
            ["w-state", "--n", "3", "--seed", "11"],
            ["bell", "--target", "bell:1:3", "--seed", "11"],
            ["cluster", "--n", "3", "--search-corrections", "--seed", "11"],
            ["witness", "--target", "w3", "--decomposed", "--shots", "3000",
             "--seed", "11"],
            ["witness", "--target", "c3", "--shots", "3000", "--seed", "11"],
            ["witness", "--target", "w3", "--shots", "3000", "--emit-shots",
             "--seed", "11"],
            ["tomo", "--target", "bell:1:2", "--shots", "3000", "--seed", "11"],
            ["spectroscopy", "--points", "800", "--seed", "11"],
            ["rwa-check", "--seed", "11"],
        ]
        digests = {}
        for idx, cmd in enumerate(cmds):
            out = os.path.join(outroot, f"{idx}-{cmd[0]}")
            rc = main(cmd[:1] + ["--config", config_path, "--out", out] + cmd[1:])
            assert rc == 0
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    digests[f"{os.path.basename(out)}/{name}"] = fh.read()
        return digests

    def test_reruns_byte_identical(self, small_config_path, tmp_path):
        first = self._run_matrix(small_config_path, str(tmp_path / "m"))
        second = self._run_matrix(small_config_path, str(tmp_path / "m"))
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"
