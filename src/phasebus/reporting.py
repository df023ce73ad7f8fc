"""Deterministic run reports: a human-readable table, a machine CSV and
named attachments.  No timestamps, no environment echo; identical
manifests produce byte-identical files.

This module writes every file of a run, each through a ``write(path)``:
one CSV writer serves ``report.csv`` and ``attach_csv``, one text writer
serves ``report.txt``, ``manifest.json`` and ``attach_text``, and
``attach_file`` takes a writer whose format another module owns.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np


def fmt(value) -> str:
    """Booleans as 1/0, floats as the shortest round-trip text of their
    double, plain str otherwise; numpy's booleans and floats alike."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_file(header, rows):
    """``write(path)`` for ``header`` and ``rows``, every value through ``fmt``."""
    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(map(fmt, row) for row in rows)
    return write


def _text_file(text: str):
    def write(path):
        with open(path, "w") as fh:
            fh.write(text)
    return write


@dataclass
class Report:
    manifest: dict
    rows: list[tuple] = field(default_factory=list)
    attachments: dict = field(default_factory=dict)  # name -> write(path)

    def add(self, metric: str, value, stderr=None, units: str = "dimensionless"):
        self.rows.append((metric, value, stderr, units))

    def attach_csv(self, name: str, header: list[str], rows):
        self.attachments[name] = _csv_file(list(header), list(rows))

    def attach_text(self, name: str, text: str):
        self.attachments[name] = _text_file(text)

    def attach_file(self, name: str, write):
        """Attach a file in a format another module owns: ``write(path)``."""
        self.attachments[name] = write


def _table(report: Report) -> str:
    lines = ["phasebus run report", "===================", "", "manifest:"]
    lines += [f"  {key}: {fmt(report.manifest[key])}" for key in sorted(report.manifest)]
    lines += ["", "results:"]
    width = max((len(m) for m, *_ in report.rows), default=10)
    for metric, value, stderr, units in report.rows:
        spread = "" if stderr is None else f" +- {fmt(stderr)}"
        lines.append(f"  {metric.ljust(width)}  {fmt(value)}{spread}  [{units}]")
    if report.attachments:
        lines += ["", "attachments: " + ", ".join(sorted(report.attachments))]
    return "\n".join(lines) + "\n"


def emit_report(report: Report, outdir) -> list[str]:
    """Write report.txt, report.csv, manifest.json, then the attachments in
    name order; returns the written paths in that order."""
    os.makedirs(outdir, exist_ok=True)
    rows = [(m, v, "" if s is None else s, u) for m, v, s, u in report.rows]
    manifest = json.dumps(report.manifest, indent=2, sort_keys=True, default=str)
    files = [("report.txt", _text_file(_table(report))),
             ("report.csv", _csv_file(["metric", "value", "stderr", "units"], rows)),
             ("manifest.json", _text_file(manifest + "\n")),
             *sorted(report.attachments.items())]
    written = []
    for name, write in files:
        path = os.path.join(outdir, name)
        write(path)
        written.append(path)
    return written
