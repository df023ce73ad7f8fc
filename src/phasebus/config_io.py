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

``omega_p0_ghz`` is optional (spectroscopy only), and so is
``readout_fidelity`` (default 1); an optional number is omitted, never
null.  The config, the device block and each TLS entry are checked as
objects of known keys where the parse reaches them, before any number is
read: a block that is missing, is not an object or holds any other key is
a ``ConfigError`` naming the block.  A key repeated within one object,
of which ``json`` alone would keep the last, is one naming the key.
Splittings are the observed spectroscopic gaps in MHz; the coupling used
by the gate calculus is S = pi * splitting (rad/s), making the full swap
time tau = 1 / (2 * splitting).
"""

from __future__ import annotations

import json

import numpy as np

from .device import BiasModel, ConfigError, DeviceConfig, TlsParams

GHZ_TO_RAD = 2.0 * np.pi * 1e9


def _number(value) -> float:
    # only a JSON number: float("6.0") and float(True) would pass a string
    # or a boolean as a measurement
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _block(value, known: set[str], where: str) -> dict:
    """``value`` when it is a JSON object holding only ``known`` keys: a
    misspelled optional key would otherwise be ignored and run at its
    default."""
    if not isinstance(value, dict):  # a missing block reads as None
        raise ConfigError(f"{where} must be an object, got {value!r:.40}")
    unknown = sorted(set(value) - known)
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(map(repr, unknown))} in {where}; "
            f"expected {', '.join(sorted(known))}"
        )
    return value


def parse_config(data: dict) -> DeviceConfig:
    data = _block(data, {"device", "tls"}, "config")
    device = _block(
        data.get("device"), {"omega10_ghz", "readout_fidelity", "omega_p0_ghz"}, "device block"
    )
    tls_rows = data.get("tls")
    if not isinstance(tls_rows, list) or not tls_rows:
        raise ConfigError("config needs a non-empty 'tls' list")
    rows = [_block(row, {"id", "omega_r_ghz", "splitting_mhz"}, "TLS entry") for row in tls_rows]
    try:
        omega10 = _number(device["omega10_ghz"]) * GHZ_TO_RAD
        readout = _number(device.get("readout_fidelity", 1.0))
        omega_p0 = _number(device["omega_p0_ghz"]) if "omega_p0_ghz" in device else None
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed device block: {exc}") from exc
    tls = []
    for row in rows:
        try:
            tls_id = row["id"]
            # str() would name a TLS after a null, a list or a boolean
            if isinstance(tls_id, bool) or not isinstance(tls_id, (str, int)) or tls_id == "":
                raise TypeError(f"TLS id {tls_id!r} is not a non-empty string or an integer")
            tls.append(TlsParams(
                id=str(tls_id),
                omega_r=_number(row["omega_r_ghz"]) * GHZ_TO_RAD,
                coupling=np.pi * _number(row["splitting_mhz"]) * 1e6,
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed TLS entry {row!r}: {exc}") from exc
    bias = BiasModel(omega_p0 * GHZ_TO_RAD) if omega_p0 is not None else None
    return DeviceConfig(
        omega10=omega10, tls=tuple(tls), readout_fidelity=readout, bias_model=bias
    )


def load_config(path) -> DeviceConfig:
    """Read and validate a device config file.

    Raises OSError, UnicodeDecodeError, json.JSONDecodeError or
    RecursionError for input that is not JSON text, and ConfigError for a
    repeated key or when a physical invariant fails.
    """
    with open(path) as fh:
        data = json.load(fh, object_pairs_hook=_unique_keys)
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
