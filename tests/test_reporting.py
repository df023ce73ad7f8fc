"""The report layer writes every file of a run: exact bytes of each kind."""

import os

from phasebus.reporting import Report, emit_report


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
