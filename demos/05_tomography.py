"""Two-qubit state tomography of a generated Bell pair.

Nine settings {x,y,z} x {x,y,z} determine all sixteen two-qubit Pauli
expectations (identity factors come from marginals); linear inversion then
rebuilds the density matrix.  Physicality is reported, never enforced.
"""

import numpy as np

from phasebus import ReadoutModel, load_config, run_bell, tomography_two_qubit
from phasebus.states import StateVector

config = load_config("demos/device_config.json")
j, k = 1, 2
state = run_bell(config, j, k).final_state
target = StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))

exact = tomography_two_qubit(state, j, k, None, ReadoutModel(1.0, seed=0),
                             target=target)
print(f"infinite-shot reconstruction, perfect readout:")
print(f"  fidelity vs (|ge> + |eg>)/sqrt(2): {exact.fidelity_vs_target:.12f}")
print(f"  physical (lowest eigenvalue >= -1e-6): {exact.physical}")
print("  rho (real part):")
for row in np.real(exact.rho.matrix):
    print("   " + "  ".join(f"{v:+.4f}" for v in row))

noisy = tomography_two_qubit(state, j, k, 100_000, ReadoutModel(0.96, seed=3),
                             target=target)
print(f"\n100k shots per setting at F = 0.96:")
print(f"  fidelity vs target: {noisy.fidelity_vs_target:.4f} "
      f"(readout bias alone predicts {(1 + 3 * 0.92**2) / 4:.4f})")
print(f"  settings used: {noisy.settings_used}, "
      f"expectations: {noisy.expectations.size}")
