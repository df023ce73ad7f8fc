"""Synthetic bias-sweep spectroscopy and avoided-crossing extraction.

The bus line f_q(I) = (omega_p0 / 2pi) * (1 - (I/I0)^2)^(1/4) sweeps down
with bias; each TLS pins a horizontal line at f_r^j and repels the bus line
where they cross.  For a lone TLS the two hybridized branches follow the
two-level formula

    f+- = (f_q + f_r^j)/2 +- sqrt((f_q - f_r^j)^2 + Delta_j^2) / 2

with minimal gap Delta_j at f_q = f_r^j.  With several TLSs the branches are
the sorted eigenvalues of the coupled (bus + N TLS) level block, with the
internal couplings and level positions calibrated so that every synthesized
crossing shows its configured splitting and frequency exactly: both config
quantities are *observed* spectroscopic values, so the forward model must
reproduce them even where neighboring repulsions would otherwise distort
them by a few percent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .device import DeviceConfig

DETECTION_BAND_HZ = (5e6, 500e6)


@dataclass(frozen=True)
class SpectroscopyScan:
    """Transition frequencies (Hz) per bias point, sorted ascending."""

    bias_points: np.ndarray          # shape (n_bias,), values in (0, 1)
    branch_frequencies: np.ndarray   # shape (n_bias, n_branch)

    def __post_init__(self):
        bias = np.asarray(self.bias_points, dtype=float)
        freqs = np.asarray(self.branch_frequencies, dtype=float)
        if freqs.shape[0] != bias.size:
            raise ValueError("one frequency row per bias point required")
        if np.any(freqs <= 0):
            raise ValueError("branch frequencies must be positive")
        if np.any(np.diff(freqs, axis=1) < 0):
            raise ValueError("branch frequencies must be sorted per bias point")
        object.__setattr__(self, "bias_points", bias)
        object.__setattr__(self, "branch_frequencies", freqs)

    @property
    def num_branches(self) -> int:
        return self.branch_frequencies.shape[1]

    def to_csv(self, path) -> None:
        """One ``bias,branch_index,frequency_hz`` row per bias point and
        branch, floats as round-trip text, CRLF line ends (csv's default),
        written row by row."""
        with open(path, "w", newline="") as fh:
            fh.write("bias,branch_index,frequency_hz\r\n")
            rows = zip(self.bias_points.tolist(), self.branch_frequencies.tolist())
            for b, freqs in rows:
                fh.writelines(f"{b!r},{br},{f!r}\r\n" for br, f in enumerate(freqs))


@dataclass(frozen=True)
class AvoidedCrossing:
    """One extracted level repulsion: where, how wide, at what frequency."""

    center_bias: float
    splitting: float       # minimal gap, Hz
    tls_frequency: float   # Hz

    def __post_init__(self):
        lo, hi = DETECTION_BAND_HZ
        if not lo <= self.splitting <= hi:
            raise ValueError(
                f"splitting {self.splitting:.3g} Hz outside detection band"
            )


def bare_bus_frequency(bias, omega_p0: float):
    """Bus transition frequency (Hz) vs bias (critical current normalized to 1)."""
    x = np.asarray(bias, dtype=float)
    return (omega_p0 / (2 * np.pi)) * (1.0 - x**2) ** 0.25


def bias_for_frequency(f_hz: float, omega_p0: float) -> float:
    """Inverse of the bare bus curve; f must lie below the zero-bias value."""
    f0 = omega_p0 / (2 * np.pi)
    if not 0 < f_hz < f0:
        raise ValueError(f"frequency {f_hz:.4g} Hz not reachable by the bus curve")
    return float(np.sqrt(1.0 - (f_hz / f0) ** 4))


def synth_spectroscopy(config: DeviceConfig, bias_grid) -> SpectroscopyScan:
    """Simulate the spectroscopy branches over a bias grid.

    The grid must be finite and strictly increasing, with values in
    (0, 0.999) of the critical current.  Calibration needs each crossing
    bracketed by the grid; on partial grids the branches fall back to the
    uncalibrated level model.
    """
    bias = np.asarray(bias_grid, dtype=float)
    if bias.ndim != 1 or not np.all(np.isfinite(bias)) or np.any(np.diff(bias) <= 0):
        raise ValueError("bias grid must be finite and strictly increasing")
    if config.bias_model is None:
        raise ValueError("config has no bias model; spectroscopy unavailable")
    if np.any(bias <= 0) or np.any(bias >= 0.999):
        raise ValueError("bias values must lie in (0, 0.999) of critical current")

    f_tls = np.array([t.frequency_hz for t in config.tls])
    gaps = np.array([t.splitting_hz for t in config.tls])
    n = f_tls.size

    fq = bare_bus_frequency(bias, config.bias_model.omega_p0)

    order = np.argsort(f_tls)
    target_f = f_tls[order]
    target_gap = gaps[order]

    # calibrate internal level positions and couplings until every
    # synthesized crossing shows its configured splitting and frequency:
    # both config quantities are observed spectroscopic values, and
    # neighboring repulsions would otherwise distort them by a few percent
    g = target_gap.copy()
    levels = target_f.copy()
    branches = _level_branches(fq, levels, g)
    for _ in range(12):
        observed = _observed_crossings(bias, branches)
        if observed is None:
            break
        obs_gap, obs_f = observed
        if (
            np.abs(obs_gap - target_gap).max() < 1e-6 * target_gap.min()
            and np.abs(obs_f - target_f).max() < 1e-9 * target_f.min()
        ):
            break
        g = g * (target_gap / obs_gap)
        levels = levels + (target_f - obs_f)
        branches = _level_branches(fq, levels, g)
    return SpectroscopyScan(bias, branches)


def _level_branches(fq: np.ndarray, f_tls: np.ndarray, couplings: np.ndarray):
    """Sorted eigenvalues of the coupled (bus + TLS) level block per bias."""
    n = f_tls.size
    blocks = np.zeros((fq.size, n + 1, n + 1))
    blocks[:, 1:, 1:] = np.diag(f_tls)
    blocks[:, 0, 1:] = couplings / 2.0
    blocks[:, 1:, 0] = couplings / 2.0
    blocks[:, 0, 0] = fq
    return np.linalg.eigvalsh(blocks)


def _observed_crossings(bias, branches):
    """Refined (gap, frequency) of each crossing, or None if one is missing.

    The crossing of the k-th lowest TLS hybridizes sorted branches k and
    k+1, so its gap minimum is searched in that column only.
    """
    n = branches.shape[1] - 1
    gaps_out = np.empty(n)
    freqs_out = np.empty(n)
    for k in range(n):
        gap = branches[:, k + 1] - branches[:, k]
        i = int(np.argmin(gap))
        if i == 0 or i == len(bias) - 1:
            return None
        center, gaps_out[k] = _refine_gap_minimum(
            bias[i - 1 : i + 2], gap[i - 1 : i + 2]
        )
        mid = 0.5 * (branches[:, k] + branches[:, k + 1])
        freqs_out[k] = np.interp(center, bias, mid)
    return gaps_out, freqs_out


def _refine_gap_minimum(bias3, gap3):
    """Vertex of the quadratic through three (bias, gap^2) samples.

    gap^2 is exactly quadratic near a two-level crossing, so this recovers
    the splitting to grid-curvature accuracy.
    """
    x = np.asarray(bias3, dtype=float)
    y = np.asarray(gap3, dtype=float) ** 2
    a, b, c = np.polyfit(x, y, 2)
    if a <= 0:  # degenerate fit: fall back to the sampled minimum
        k = int(np.argmin(y))
        return float(x[k]), float(np.sqrt(y[k]))
    xv = -b / (2 * a)
    yv = c - b**2 / (4 * a)
    if not x.min() <= xv <= x.max():
        k = int(np.argmin(y))
        return float(x[k]), float(np.sqrt(y[k]))
    return float(xv), float(np.sqrt(max(yv, 0.0)))


def _is_prominent(gap: np.ndarray, i: int, depth: float) -> bool:
    """True when the gap climbs at least ``depth`` above gap[i] on both sides
    before any value below gap[i] occurs (a genuine dip, not a kink)."""
    g0 = gap[i]
    for step in (-1, +1):
        j = i + step
        ok = False
        while 0 <= j < len(gap):
            if gap[j] < g0:
                break
            if gap[j] >= g0 + depth:
                ok = True
                break
            j += step
        if not ok:
            return False
    return True


def extract_tls_parameters(scan: SpectroscopyScan) -> list[AvoidedCrossing]:
    """Locate avoided crossings as local minima of adjacent-branch gaps.

    A candidate minimum must be a genuine dip: the gap has to rise by at
    least the lower detection-band edge on both sides (shallower features
    are below the smallest detectable splitting).  Each minimum needs three
    bracketing bias points; sparser features are skipped with a warning.
    Crossings landing closer than one grid step in bias are merged (keeping
    the first) with a warning.  Results are sorted by crossing frequency and
    filtered to the detection band.
    """
    bias = scan.bias_points
    freqs = scan.branch_frequencies
    lo, hi = DETECTION_BAND_HZ
    found: list[AvoidedCrossing] = []

    for col in range(scan.num_branches - 1):
        gap = freqs[:, col + 1] - freqs[:, col]
        for i in range(len(bias)):
            if not (gap[i] <= hi):
                continue
            is_min = (i == 0 or gap[i] < gap[i - 1]) and (
                i == len(bias) - 1 or gap[i] <= gap[i + 1]
            )
            if not is_min:
                continue
            if i == 0 or i == len(bias) - 1:
                warnings.warn(
                    f"gap minimum at scan edge (bias {bias[i]:.4g}) lacks a "
                    "three-point bracket; crossing omitted",
                    stacklevel=2,
                )
                continue
            if not _is_prominent(gap, i, lo):
                continue
            center, splitting = _refine_gap_minimum(
                bias[i - 1 : i + 2], gap[i - 1 : i + 2]
            )
            if not lo <= splitting <= hi:
                continue
            mid = 0.5 * (freqs[:, col] + freqs[:, col + 1])
            lo_i, hi_i = (i - 1, i) if center <= bias[i] else (i, i + 1)
            frac = (center - bias[lo_i]) / (bias[hi_i] - bias[lo_i])
            crossing_freq = float(mid[lo_i] + frac * (mid[hi_i] - mid[lo_i]))
            found.append(AvoidedCrossing(center, splitting, crossing_freq))

    found.sort(key=lambda c: c.tls_frequency)
    step = float(np.min(np.abs(np.diff(bias)))) if bias.size > 1 else 0.0
    merged: list[AvoidedCrossing] = []
    for c in found:
        if merged and abs(c.center_bias - merged[-1].center_bias) < step:
            warnings.warn(
                f"crossings at bias {merged[-1].center_bias:.5g} and "
                f"{c.center_bias:.5g} are closer than the grid resolution; "
                "keeping one",
                stacklevel=2,
            )
            continue
        merged.append(c)
    return merged


def default_bias_grid(config: DeviceConfig, points: int = 2000) -> np.ndarray:
    """Bias grid whose bus curve sweeps a margin past every TLS frequency."""
    if config.bias_model is None:
        raise ValueError("config has no bias model")
    f_tls = [t.frequency_hz for t in config.tls]
    span = max(f_tls) - min(f_tls)
    pad = max(0.05 * max(f_tls), 2.0 * span / max(len(f_tls), 2))
    f_top = max(f_tls) + pad
    f_bot = min(f_tls) - pad
    om = config.bias_model.omega_p0
    f0 = om / (2 * np.pi)
    if f_top >= f0:
        raise ValueError(
            "bias model omega_p0 too low: bus curve cannot reach above the "
            "highest TLS frequency"
        )
    lo = bias_for_frequency(f_top, om)
    hi = bias_for_frequency(max(f_bot, 0.02 * f0), om)
    return np.linspace(lo, hi, points)
