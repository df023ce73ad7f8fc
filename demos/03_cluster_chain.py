"""Growing a cluster chain through the bus.

Each of TLS 1..N-1 is prepared on the equator through the bus, then linked
by a z-rotation-dressed full swap (which acts as swap plus controlled-Z);
a final bare swap deposits the last link on TLS N.  Swap transfer phases
are left in place and removed afterwards by a search over per-TLS
Z^{k pi/2} corrections and both bus preparations.
"""

from phasebus import cluster_sequence, load_config, run_cluster_protocol
from phasebus.states import expectation
from phasebus.witnesses import cluster_stabilizers

config = load_config("demos/device_config.json")
n = 4

schedule = cluster_sequence(config, n)
print(f"schedule for a {n}-qubit chain ({len(schedule)} instructions):")
print("  " + schedule.to_text().replace("\n", "\n  ").rstrip())

report, corrections = run_cluster_protocol(config, n)
print(f"\nuncorrected fidelity      : {report.target_fidelity:.6f}")
for variant, fid in sorted(corrections.fidelity_by_init.items()):
    print(f"corrected, bus '{variant}' : {fid:.12f}")
print(f"winning preparation       : {corrections.best_bus_init}")
print(f"per-TLS corrections       : {', '.join(corrections.corrections)}")
print(f"exact up to corrections   : {not corrections.sequence_inexact}")

print("\nstabilizer generators on the ideal target:")
from phasebus import cluster_state

target = cluster_state(n)
for gen in cluster_stabilizers(n):
    print(f"  <{gen}> = {expectation(target, gen):+.10f}")
