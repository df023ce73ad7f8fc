"""Detecting the generated entanglement with witness operators.

A witness evaluates non-negative on every separable state and negative on
its target.  The three-qubit W witness decomposes into five local settings;
the cluster witness needs only two, independent of size.  Sampled
estimation takes the prepared state once, measures copies of it setting by
setting: it rotates each TLS into the setting basis and reads everything
out through the bus.
"""

from phasebus import (
    ReadoutModel,
    cluster_witness,
    estimate_witness_sampled,
    group_settings,
    load_config,
    run_cluster_protocol,
    run_w_protocol,
    tls_register_state,
    w3_witness_decomposed,
    w_witness,
    witness_value_exact,
)

config = load_config("demos/device_config.json")

print("exact witness values on the generated states:")
w3_full = run_w_protocol(config, 3).final_state
w3_state = tls_register_state(w3_full, 3)
print(f"  W3 projector witness   : {witness_value_exact(w3_state, w_witness(3)):+.6f}")
print(f"  W3 five-setting form   : "
      f"{witness_value_exact(w3_state, w3_witness_decomposed()):+.6f}")

c4_full = run_cluster_protocol(config, 4)[1].corrected_state
c4_state = tls_register_state(c4_full, 4)
print(f"  C4 projector witness   : "
      f"{witness_value_exact(c4_state, cluster_witness(4)):+.6f}")

print("\nmeasurement settings:")
for name, witness in (("W3 five-setting", w3_witness_decomposed()),
                      ("C4", cluster_witness(4)), ("C8", cluster_witness(8))):
    settings = group_settings(witness)
    bases = "; ".join(",".join(s.bases) for s in settings)
    print(f"  {name}: {len(settings)} settings  [{bases}]")

print("\nshot-sampled estimation (perfect readout, 50k shots per setting):")
for name, state, witness, exact in (
    ("W3", w3_full, w3_witness_decomposed(), -1 / 3),
    ("C4", c4_full, cluster_witness(4), -1.0),
):
    est = estimate_witness_sampled(state, witness, 50_000, ReadoutModel(1.0, seed=1))
    print(f"  {name}: {est.value:+.5f} +- {est.stderr:.5f}   (exact {exact:+.5f})")

readout = ReadoutModel(0.96, seed=2)
est = estimate_witness_sampled(w3_full, w3_witness_decomposed(), 50_000, readout)
print(f"\nwith F = 0.96 readout the raw estimate shrinks: {est.value:+.5f} "
      f"(per-qubit bias factor {readout.bias_factor:.2f}, no mitigation applied)")
