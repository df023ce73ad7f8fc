from pathlib import Path

import numpy as np
import pytest

from phasebus.device import BiasModel, DeviceConfig, TlsParams
from phasebus.paulis import PauliString, pauli_mul
from phasebus.witnesses import MeasurementSetting, WitnessOperator, cluster_stabilizers

GHZ = 2 * np.pi * 1e9
MHZ = 2 * np.pi * 1e6
DEMO_CONFIG = str(Path(__file__).resolve().parent.parent / "demos" / "device_config.json")


def simple_config(num_tls: int, readout_fidelity: float = 1.0) -> DeviceConfig:
    """Evenly spaced TLSs with distinct couplings; no bias model."""
    tls = tuple(
        TlsParams(f"t{k}", (5.0 + 0.2 * k) * GHZ, (20 + 7 * k) * MHZ)
        for k in range(num_tls)
    )
    return DeviceConfig(omega10=6.0 * GHZ, tls=tls, readout_fidelity=readout_fidelity)


def ten_defect_config(seed: int = 42, num_tls: int = 10) -> DeviceConfig:
    """Ten defects, splittings 20..100 MHz, lines ~200 MHz apart over ~2 GHz."""
    rng = np.random.default_rng(seed)
    f_r = 5.0e9 + 200e6 * np.arange(num_tls) + rng.uniform(-30e6, 30e6, num_tls)
    deltas = rng.uniform(20e6, 100e6, num_tls)
    tls = tuple(
        TlsParams(f"t{k}", 2 * np.pi * f_r[k], np.pi * deltas[k])
        for k in range(num_tls)
    )
    return DeviceConfig(
        omega10=6.0 * GHZ,
        tls=tls,
        readout_fidelity=0.96,
        bias_model=BiasModel(omega_p0=2 * np.pi * 7.6e9),
    )


def literal_cluster_operator(n: int) -> WitnessOperator:
    """3I - 2[S_even + S_odd] with each stabilizer projector replaced by the
    bare generator product prod S_k / 2^{|group|}.

    This is *not* a witness: its value on the cluster state it targets is
    non-negative.  Tests build it to show why the projector form is needed.
    """
    gens = list(cluster_stabilizers(n))
    terms = [(3.0, PauliString("I" * n))]
    settings = []
    # each product is read in its chain pattern: x where its generators
    # carry X (odd 0-based positions for the even generators), z elsewhere
    for x_parity, group in ((1, gens[1::2]), (0, gens[0::2])):
        prod = PauliString("I" * n)
        for g in group:
            _, prod = pauli_mul(prod, g)
        coeff = -2.0 / (2 ** len(group))
        terms.append((coeff, prod))
        bases = tuple("x" if q % 2 == x_parity else "z" for q in range(n))
        settings.append(MeasurementSetting(bases, ((coeff, prod.support()),)))
    return WitnessOperator(terms, n, settings)


@pytest.fixture
def config3():
    return simple_config(3)


@pytest.fixture
def config5():
    return simple_config(5)
