"""Device-config files: experimentalist units in, angular frequencies out.

The file is JSON with two top-level keys::

    {
      "device": {"omega10_ghz": 6.0, "readout_fidelity": 0.96,
                 "omega_p0_ghz": 7.6},
      "tls": [
        {"id": "TLS-1", "omega_r_ghz": 5.013, "splitting_mhz": 41.0},
        ...
      ]
    }

``omega_p0_ghz`` is optional (spectroscopy only).  Splittings are the
observed spectroscopic gaps in MHz; the coupling used by the gate calculus
is S = pi * splitting (rad/s), making the full swap time tau = 1 / (2 *
splitting).
"""

from __future__ import annotations

import json

import numpy as np

from .device import BiasModel, ConfigError, DeviceConfig, TlsParams

GHZ_TO_RAD = 2.0 * np.pi * 1e9
MHZ_TO_RAD = 2.0 * np.pi * 1e6


def tls_from_splitting(tls_id: str, omega_r_ghz: float, splitting_mhz: float) -> TlsParams:
    """TLS parameters from a spectroscopy line: position and gap."""
    return TlsParams(
        id=str(tls_id),
        omega_r=omega_r_ghz * GHZ_TO_RAD,
        coupling=np.pi * splitting_mhz * 1e6,
    )


def _number(value) -> float:
    # float(True) is 1.0, but a JSON boolean is no measurement
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def parse_config(data: dict) -> DeviceConfig:
    try:
        device = data["device"]
        tls_rows = data["tls"]
        omega10 = _number(device["omega10_ghz"]) * GHZ_TO_RAD
        readout = _number(device.get("readout_fidelity", 1.0))
        omega_p0 = device.get("omega_p0_ghz")
        omega_p0 = None if omega_p0 is None else _number(omega_p0)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config structure: {exc}") from exc
    if not isinstance(tls_rows, list) or not tls_rows:
        raise ConfigError("config needs a non-empty 'tls' list")
    tls = []
    for row in tls_rows:
        try:
            tls.append(
                tls_from_splitting(
                    row["id"], _number(row["omega_r_ghz"]), _number(row["splitting_mhz"])
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed TLS entry {row!r}: {exc}") from exc
    bias = BiasModel(omega_p0 * GHZ_TO_RAD) if omega_p0 is not None else None
    return DeviceConfig(
        omega10=omega10, tls=tuple(tls), readout_fidelity=readout, bias_model=bias
    )


def load_config(path) -> DeviceConfig:
    """Read and validate a device config file.

    Raises json.JSONDecodeError / OSError for unreadable input and
    ConfigError when a physical invariant fails.
    """
    with open(path) as fh:
        data = json.load(fh)
    return parse_config(data)


def example_config_dict(num_tls: int = 10, seed: int = 2026) -> dict:
    """A plausible ten-defect device: splittings 20..100 MHz, lines spaced
    about 200 MHz across roughly 2 GHz."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(num_tls):
        f = 5.0 + 0.2 * k + float(rng.uniform(-0.02, 0.02))
        d = float(rng.uniform(20.0, 100.0))
        rows.append(
            {"id": f"TLS-{k + 1}", "omega_r_ghz": round(f, 6), "splitting_mhz": round(d, 3)}
        )
    return {
        "device": {"omega10_ghz": 6.0, "readout_fidelity": 0.96, "omega_p0_ghz": 7.6},
        "tls": rows,
    }
