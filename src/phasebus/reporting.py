"""Deterministic run reports: a human-readable table, a machine CSV and
named CSV attachments.  No timestamps, no environment echo; identical
manifests produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field


def fmt(value) -> str:
    """Shortest round-trip text for floats, plain str otherwise."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Report:
    manifest: dict
    rows: list[tuple] = field(default_factory=list)
    attachments: dict = field(default_factory=dict)

    def add(self, metric: str, value, stderr=None, units: str = "dimensionless"):
        self.rows.append((metric, value, stderr, units))

    def attach_csv(self, name: str, header: list[str], rows):
        self.attachments[name] = (list(header), [list(r) for r in rows])

    def attach_text(self, name: str, text: str):
        self.attachments[name] = text

    def attach_file(self, name: str, write):
        """Attach a file in a format another module owns: ``write(path)``."""
        self.attachments[name] = write


def emit_report(report: Report, outdir) -> list[str]:
    """Write report.txt, report.csv and attachments; returns written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    txt_path = os.path.join(outdir, "report.txt")
    with open(txt_path, "w") as fh:
        fh.write("phasebus run report\n")
        fh.write("===================\n\n")
        fh.write("manifest:\n")
        for key in sorted(report.manifest):
            fh.write(f"  {key}: {fmt(report.manifest[key])}\n")
        fh.write("\nresults:\n")
        width = max((len(m) for m, *_ in report.rows), default=10)
        for metric, value, stderr, units in report.rows:
            line = f"  {metric.ljust(width)}  {fmt(value)}"
            if stderr is not None:
                line += f" +- {fmt(stderr)}"
            fh.write(line + f"  [{units}]\n")
        if report.attachments:
            fh.write("\nattachments: " + ", ".join(sorted(report.attachments)) + "\n")
    written.append(txt_path)

    csv_path = os.path.join(outdir, "report.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value", "stderr", "units"])
        for metric, value, stderr, units in report.rows:
            writer.writerow(
                [metric, fmt(value), "" if stderr is None else fmt(stderr), units]
            )
    written.append(csv_path)

    manifest_path = os.path.join(outdir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(report.manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    written.append(manifest_path)

    for name, payload in sorted(report.attachments.items()):
        path = os.path.join(outdir, name)
        if callable(payload):
            payload(path)
        elif isinstance(payload, str):
            with open(path, "w") as fh:
                fh.write(payload)
        else:
            header, rows = payload
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([fmt(v) for v in row])
        written.append(path)
    return written
