"""Finding the TLSs: synthetic bias-sweep spectroscopy.

The bus transition frequency sweeps down with bias current and avoids each
TLS line with a minimal gap equal to that defect's splitting.  Extraction
walks the adjacent-branch gaps, refines each minimum with a parabola on the
squared gap, and reports position, size and frequency of every crossing.
"""

from phasebus import (
    default_bias_grid,
    extract_tls_parameters,
    load_config,
    synth_spectroscopy,
)

config = load_config("demos/device_config.json")
grid = default_bias_grid(config, points=2000)
scan = synth_spectroscopy(config, grid)
crossings = extract_tls_parameters(scan)

print(f"scan: {len(grid)} bias points, {scan.num_branches} branches\n")
print("extracted avoided crossings vs configured defects:")
print(f"{'bias':>8} {'freq (GHz)':>11} {'split (MHz)':>12} "
      f"{'true (MHz)':>11} {'rel err':>9}")
truth = sorted((t.frequency_hz, t.splitting_hz) for t in config.tls)
for (f_true, d_true), c in zip(truth, crossings):
    rel = abs(c.splitting - d_true) / d_true
    print(f"{c.center_bias:8.4f} {c.tls_frequency / 1e9:11.4f} "
          f"{c.splitting / 1e6:12.3f} {d_true / 1e6:11.3f} {rel:9.2e}")
