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
    """Transition frequencies (Hz) per bias point, sorted ascending, at
    strictly increasing bias points.  ``calibrated`` says whether
    ``synth_spectroscopy`` met its calibration tolerance; None for a scan
    it did not synthesize."""

    bias_points: np.ndarray          # shape (n_bias,), values in (0, 1)
    branch_frequencies: np.ndarray   # shape (n_bias, n_branch)
    calibrated: bool | None = None

    def __post_init__(self):
        bias = np.asarray(self.bias_points, dtype=float)
        freqs = np.asarray(self.branch_frequencies, dtype=float)
        if bias.ndim != 1 or freqs.ndim != 2 or freqs.shape[0] != bias.size:
            raise ValueError("1-D bias points and one frequency row per point required")
        if not (np.all(np.isfinite(bias)) and np.all(np.isfinite(freqs))):
            raise ValueError("bias points and branch frequencies must be finite")
        if np.any(np.diff(bias) <= 0):
            raise ValueError("bias points must be strictly increasing")
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
        written one bias point at a time."""
        with open(path, "w", newline="") as fh:
            fh.write("bias,branch_index,frequency_hz\r\n")
            rows = zip(self.bias_points.tolist(), self.branch_frequencies.tolist())
            for b, freqs in rows:
                lead = f"{b!r},"
                fh.write("".join([f"{lead}{br},{f!r}\r\n" for br, f in enumerate(freqs)]))


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
    bracketed by the grid; on partial grids, where a refined splitting
    comes out zero, or after 12 passes, calibration stops with the last
    model solved, and the scan's ``calibrated`` is False.  Each
    calibration pass after the first re-solves only the bias points that
    Weyl's bound cannot rule out as holding a gap minimum, and their two
    neighbours; the returned branches are one full sweep of the final model.
    """
    bias = np.asarray(bias_grid, dtype=float)
    if bias.ndim != 1 or not np.all(np.isfinite(bias)) or np.any(np.diff(bias) <= 0):
        raise ValueError("bias grid must be finite and strictly increasing")
    if config.bias_model is None:
        raise ValueError("config has no bias model; spectroscopy unavailable")
    if np.any(bias <= 0) or np.any(bias >= 0.999):
        raise ValueError("bias values must lie in (0, 0.999) of critical current")

    # DeviceConfig keeps its TLSs in ascending frequency order
    target_f = np.array([t.frequency_hz for t in config.tls])
    target_gap = np.array([t.splitting_hz for t in config.tls])

    fq = bare_bus_frequency(bias, config.bias_model.omega_p0)

    # calibrate internal level positions and couplings until every
    # synthesized crossing shows its configured splitting and frequency:
    # both config quantities are observed spectroscopic values, and
    # neighboring repulsions would otherwise distort them by a few percent
    g = target_gap.copy()
    levels = target_f.copy()
    branches = _level_branches(fq, levels, g)
    # gap_lb[r, k] bounds gap k at row r from below and is the computed gap
    # of the current model wherever row r was solved in this pass; every
    # row that holds or brackets a column's minimum was, so the observation
    # reads exactly what a full sweep would give
    gap_lb = np.diff(branches, axis=1)
    calibrated = False
    for _ in range(12):
        observed = _observed_crossings(bias, branches, gap_lb)
        if observed is None:
            break
        obs_gap, obs_f = observed
        if (
            np.abs(obs_gap - target_gap).max() < 1e-6 * target_gap.min()
            and np.abs(obs_f - target_f).max() < 1e-9 * target_f.min()
        ):
            calibrated = True
            break
        new_g = g * (target_gap / obs_gap)
        new_levels = levels + (target_f - obs_f)
        # Weyl: the block moves by a symmetric matrix of spectral norm at
        # most delta at every bias, so no gap moves by more than 2 * delta;
        # the slack covers LAPACK's backward error on both models
        delta = np.sqrt(
            np.sum((new_levels - levels) ** 2) + 0.5 * np.sum((new_g - g) ** 2)
        )
        shift = 2.0 * delta + _WEYL_SLACK * (
            _norm_bound(fq, levels, g) + _norm_bound(fq, new_levels, new_g)
        )
        g, levels = new_g, new_levels
        # a row can hold a column's new minimum only if its lowered bound
        # reaches the raised value at the column's old minimum row; the
        # convolution adds its two neighbours, for the three-point bracket
        near = np.any(gap_lb - gap_lb.min(axis=0) <= 2.0 * shift, axis=1)
        rows = np.flatnonzero(np.convolve(near, [1, 1, 1])[1:-1])
        gap_lb -= shift
        branches[rows] = _level_branches(fq[rows], levels, g)
        gap_lb[rows] = np.diff(branches[rows], axis=1)
    return SpectroscopyScan(bias, _level_branches(fq, levels, g), calibrated)


# relative size of LAPACK's eigenvalue error allowed for, some 1e5 times
# the backward error of eigvalsh on an (N + 1)-row block
_WEYL_SLACK = 1e-9


def _norm_bound(fq, levels, couplings) -> float:
    """Upper bound on the spectral norm of every level block of a model."""
    return float(
        max(np.abs(fq).max(), np.abs(levels).max()) + 0.5 * np.abs(couplings).sum()
    )


def _level_branches(fq: np.ndarray, f_tls: np.ndarray, couplings: np.ndarray):
    """Sorted eigenvalues of the coupled (bus + TLS) level block per bias."""
    n = f_tls.size
    blocks = np.zeros((fq.size, n + 1, n + 1))
    blocks[:, 1:, 1:] = np.diag(f_tls)
    blocks[:, 0, 1:] = couplings / 2.0
    blocks[:, 1:, 0] = couplings / 2.0
    blocks[:, 0, 0] = fq
    return np.linalg.eigvalsh(blocks)


def _observed_crossings(bias, branches, gaps):
    """Refined (gap, frequency) of each crossing, or None if one is missing.

    The crossing of the k-th lowest TLS hybridizes sorted branches k and
    k+1, so its gap minimum is searched in column k of ``gaps``.  A
    minimum at the grid edge, or a refined splitting that is not finite
    and positive, counts as missing.
    """
    n = branches.shape[1] - 1
    gaps_out = np.empty(n)
    freqs_out = np.empty(n)
    for k in range(n):
        i = int(np.argmin(gaps[:, k]))
        if i == 0 or i == len(bias) - 1:
            return None
        _, gaps_out[k], freqs_out[k] = _refined_crossing(bias, branches, gaps, k, i)
        if not (np.isfinite(gaps_out[k]) and gaps_out[k] > 0):
            return None
    return gaps_out, freqs_out


def _refined_crossing(bias, branches, gaps, k, i):
    """(center bias, splitting, frequency) of the crossing of branches k and
    k+1 whose gap (column k of ``gaps``) dips at row i, from rows i-1..i+1:
    the refined gap minimum and the branch midline interpolated there."""
    near = slice(i - 1, i + 2)
    center, splitting = _refine_gap_minimum(bias[near], gaps[near, k])
    mid = 0.5 * (branches[near, k] + branches[near, k + 1])
    return center, splitting, float(np.interp(center, bias[near], mid))


def _refine_gap_minimum(bias3, gap3):
    """Vertex of the quadratic through three (bias, gap^2) samples.

    gap^2 is exactly quadratic near a two-level crossing, so this recovers
    the splitting to grid-curvature accuracy.
    """
    x = np.asarray(bias3, dtype=float)
    y = np.asarray(gap3, dtype=float) ** 2
    a, b, c = np.polyfit(x, y, 2)
    if a > 0:
        xv = -b / (2 * a)
        if x.min() <= xv <= x.max():
            return float(xv), float(np.sqrt(max(c - b**2 / (4 * a), 0.0)))
    # degenerate fit or vertex outside the samples: the sampled minimum
    k = int(np.argmin(y))
    return float(x[k]), float(np.sqrt(y[k]))


def _is_prominent(gap: np.ndarray, i: int, depth: float) -> bool:
    """True when, on both sides, the first value outward that leaves
    [gap[i], gap[i] + depth) climbs out of it (a genuine dip, not a kink)."""
    g0 = gap[i]
    for side in (gap[:i][::-1], gap[i + 1:]):
        stop = (side < g0) | (side >= g0 + depth)
        if not stop.any() or side[stop.argmax()] < g0:
            return False
    return True


def extract_tls_parameters(scan: SpectroscopyScan) -> list[AvoidedCrossing]:
    """Locate avoided crossings as local minima of adjacent-branch gaps.

    A candidate minimum must be a genuine dip: the gap has to rise by at
    least the lower detection-band edge on both sides (shallower features
    are below the smallest detectable splitting).  Each minimum needs three
    bracketing bias points, so an edge point is skipped, with a warning when
    it is its column's lowest gap.
    Crossings landing closer than one grid step in bias are merged (keeping
    the first) with a warning.  Results are sorted by crossing frequency and
    filtered to the detection band.
    """
    bias = scan.bias_points
    freqs = scan.branch_frequencies
    lo, hi = DETECTION_BAND_HZ
    found: list[AvoidedCrossing] = []

    # candidate minima, column by column: within the band, below the left
    # neighbour and not above the right one (an edge point lacks that one)
    gaps = np.diff(freqs, axis=1)
    is_min = gaps <= hi
    is_min[1:] &= gaps[1:] < gaps[:-1]
    is_min[:-1] &= gaps[:-1] <= gaps[1:]
    cols, rows = np.nonzero(is_min.T)
    for col, i in zip(cols.tolist(), rows.tolist()):
        gap = gaps[:, col]
        if i == 0 or i == len(bias) - 1:
            # only a column whose lowest gap is at the edge has lost its
            # crossing (as in _observed_crossings), not one falling toward it
            if i == int(np.argmin(gap)):
                warnings.warn(
                    f"gap minimum at scan edge (bias {bias[i]:.4g}) lacks a "
                    "three-point bracket; crossing omitted",
                    stacklevel=2,
                )
            continue
        if not _is_prominent(gap, i, lo):
            continue
        center, splitting, crossing_freq = _refined_crossing(bias, freqs, gaps, col, i)
        if not lo <= splitting <= hi:
            continue
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
