"""The report layer writes every file of a run: exact bytes of each kind."""

import os

import numpy as np
import pytest

from phasebus.reporting import Report, emit_report, fmt


def hand_built_report() -> Report:
    report = Report({"command": "demo", "seed": 3, "out": None})
    report.add("fidelity", 0.1 + 0.2)
    report.add("bus_disentangled", False)
    report.add("estimate", -0.25, stderr=0.125)
    report.add("tls_A,1_rel_err", 1e-17)
    report.add('tls_B"2_unmatched', True)
    report.add("settings", 4, units="count")

    def write_bytes(path):
        with open(path, "wb") as fh:
            fh.write(b"raw\x00bytes")

    # attached out of name order
    report.attach_file("c_raw.bin", write_bytes)
    report.attach_csv("b_table.csv", ("x", "y"), iter([(1.5, True), ("p,q", 2)]))
    report.attach_text("a_schedule.txt", "window 1\nwindow 2\n")
    return report


def test_emit_report_bytes_and_order(tmp_path):
    paths = emit_report(hand_built_report(), tmp_path / "out")
    names = ["report.txt", "report.csv", "manifest.json",
             "a_schedule.txt", "b_table.csv", "c_raw.bin"]
    assert paths == [os.path.join(tmp_path / "out", n) for n in names]
    assert sorted(os.listdir(tmp_path / "out")) == sorted(names)
    data = {n: (tmp_path / "out" / n).read_bytes() for n in names}

    # CRLF rows, booleans as 1/0, a blank stderr, float repr, and quoted
    # metrics that hold a comma or a double quote
    assert data["report.csv"] == (
        b"metric,value,stderr,units\r\n"
        b"fidelity,0.30000000000000004,,dimensionless\r\n"
        b"bus_disentangled,0,,dimensionless\r\n"
        b"estimate,-0.25,0.125,dimensionless\r\n"
        b'"tls_A,1_rel_err",1e-17,,dimensionless\r\n'
        b'"tls_B""2_unmatched",1,,dimensionless\r\n'
        b"settings,4,,count\r\n"
    )
    assert data["report.txt"] == (
        b"phasebus run report\n"
        b"===================\n"
        b"\n"
        b"manifest:\n"
        b"  command: demo\n"
        b"  out: None\n"
        b"  seed: 3\n"
        b"\n"
        b"results:\n"
        b"  fidelity           0.30000000000000004  [dimensionless]\n"
        b"  bus_disentangled   0  [dimensionless]\n"
        b"  estimate           -0.25 +- 0.125  [dimensionless]\n"
        b"  tls_A,1_rel_err    1e-17  [dimensionless]\n"
        b'  tls_B"2_unmatched  1  [dimensionless]\n'
        b"  settings           4  [count]\n"
        b"\n"
        b"attachments: a_schedule.txt, b_table.csv, c_raw.bin\n"
    )
    assert data["manifest.json"] == (
        b'{\n  "command": "demo",\n  "out": null,\n  "seed": 3\n}\n'
    )
    assert data["a_schedule.txt"] == b"window 1\nwindow 2\n"
    assert data["b_table.csv"] == b'x,y\r\n1.5,1\r\n"p,q",2\r\n'
    assert data["c_raw.bin"] == b"raw\x00bytes"


def test_emit_report_without_rows_or_attachments(tmp_path):
    paths = emit_report(Report({}), tmp_path)
    assert [os.path.basename(p) for p in paths] == ["report.txt", "report.csv", "manifest.json"]
    assert (tmp_path / "report.txt").read_bytes() == (
        b"phasebus run report\n===================\n\nmanifest:\n\nresults:\n"
    )
    assert (tmp_path / "report.csv").read_bytes() == b"metric,value,stderr,units\r\n"
    assert (tmp_path / "manifest.json").read_bytes() == b"{}\n"


@pytest.mark.parametrize("value, text", [
    (0.1 + 0.2, "0.30000000000000004"),
    (np.float64(0.25), "0.25"),
    (np.float64(0.1) + np.float64(0.2), "0.30000000000000004"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(-0.0), "-0.0"),
    (np.float64(np.inf), "inf"),
    (True, "1"),
    (False, "0"),
    (np.True_, "1"),
    (np.False_, "0"),
    (4, "4"),
    (np.int64(-3), "-3"),
    ("p,q", "p,q"),
    (None, "None"),
], ids=repr)
def test_fmt_writes_numpy_values_as_python_ones(value, text):
    # a numpy float is written as the round-trip text of its double, a
    # numpy boolean as 1/0, never as numpy's own repr
    assert fmt(value) == text


def test_numpy_values_reach_the_report_files_as_numbers(tmp_path):
    report = Report({"seed": np.int64(3)})
    report.add("fidelity", np.float64(0.25), stderr=np.float64(0.125))
    report.add("physical", np.True_)
    report.attach_csv("t.csv", ("x",), [(np.float64(1.5),), (np.False_,)])
    emit_report(report, tmp_path)
    assert (tmp_path / "report.csv").read_bytes() == (
        b"metric,value,stderr,units\r\n"
        b"fidelity,0.25,0.125,dimensionless\r\n"
        b"physical,1,,dimensionless\r\n"
    )
    assert b"fidelity  0.25 +- 0.125  [dimensionless]" in (tmp_path / "report.txt").read_bytes()
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\n1.5\r\n0\r\n"
