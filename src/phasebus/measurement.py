"""Experiment-facing measurement: bus readout with finite fidelity, basis
pre-rotation, sampling of the TLS readout chain, sampled witness
estimation and two-qubit state tomography.

Only the bus is ever measured.  Reading TLS j means a full swap window (its
excitation moves to the bus, up to a known -i transfer phase) followed by a
projective bus measurement whose *reported* outcome is flipped with
probability 1 - F.  Within a shot, TLSs are read in ascending index order
with a bus reset between reads.

The sampler does not replay that sequence shot by shot: it draws the
conditional outcome chain the sequence produces directly from the rotated
state's Born distribution, with one uniform draw per shot and read qubit
for the true outcome and one for the report flip.  The uniforms are drawn
in fixed blocks of shots, so beyond one outcome pattern per shot the
working set does not grow with the shot count.  A pattern takes the
narrowest unsigned type that holds its m bits, ``np.min_scalar_type(2**m
- 1)``: one byte for m <= 8, two for m = 9 or 10.

Witness estimation and tomography measure copies of one prepared register
state, setting by setting, reduce each setting's shots to counts per
outcome pattern and release them before the next is drawn.  A setting
holds 1 to 2 bytes per shot, its patterns, counted block by block;
``keep_records`` adds each retained setting's 1 to 2 bytes per shot.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .device import ProtocolError
from .paulis import PauliString, pauli_sum_matrix
from .protocols import tls_register_state
from .states import (
    DensityMatrix,
    StateVector,
    _measured_probabilities,
    apply_unitary,
    expectation,
    join_qubit_rows,
    qubit_rows,
)
from .witnesses import MeasurementSetting, WitnessOperator, bloch_direction, group_settings

ZERO_BRANCH_TOL = 1e-14
_SHOT_BLOCK = 4096  # shots per uniform draw: 640 kB of uniforms at m = 10


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Named random stream: one master seed, independent per-purpose
    generators, reproducible regardless of execution order."""
    # here, so runs that draw nothing never load it; under the process entry
    # its SHA-256 is the interpreter's own, not OpenSSL's, with the same digest
    import hashlib
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words.tolist()))


@dataclass
class ReadoutModel:
    """Bus readout with symmetric flip probability 1 - fidelity; ``rng``, the
    stream ``measure_bus`` draws, is derived from ``seed`` on first use."""

    fidelity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.fidelity <= 1.0:
            raise ValueError(f"readout fidelity {self.fidelity} outside (0.5, 1]")

    @cached_property
    def rng(self) -> np.random.Generator:
        return derive_rng(self.seed, "readout")

    @property
    def bias_factor(self) -> float:
        """Reported expectations shrink by (2F - 1) per measured qubit."""
        return 2.0 * self.fidelity - 1.0


def measure_bus(state: StateVector, readout: ReadoutModel) -> tuple[int, StateVector]:
    """Projective z measurement of the bus.

    The state collapses on the *true* outcome; the returned outcome is the
    reported one (flipped with probability 1 - F).  ``readout.rng`` supplies
    one uniform for the true outcome, then one for the report flip.
    Branches below 1e-14 probability are never selected, so renormalization
    cannot divide by zero.
    """
    p1 = float(_measured_probabilities(state, [0])[1])
    u_true = readout.rng.random()
    u_flip = readout.rng.random()
    if p1 < ZERO_BRANCH_TOL:
        true = 0
    elif p1 > 1.0 - ZERO_BRANCH_TOL:
        true = 1
    else:
        true = int(u_true < p1)
    rows = qubit_rows(state, [0])
    collapsed = np.zeros_like(rows)
    collapsed[true] = rows[true] / np.linalg.norm(rows[true])
    outcome = true ^ int(u_flip < 1.0 - readout.fidelity)
    return outcome, join_qubit_rows(collapsed, [0])


def rotate_for_basis(state: StateVector, qubit: int, basis) -> StateVector:
    """Map the basis's +1 eigenvector to |0> so a z readout measures it.

    ``basis`` is a label or a Bloch direction (theta, phi).
    """
    theta, phi = bloch_direction(basis)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u = np.array(
        [[c, np.exp(-1j * phi) * s], [s, -np.exp(-1j * phi) * c]],
        dtype=np.complex128,
    )
    return apply_unitary(state, u, [qubit])


# shot sampling ----------------------------------------------------------------


@dataclass
class ShotRecord:
    """Reported outcomes of the read qubits, one outcome pattern per shot.

    ``patterns[s]`` has bit m-1-k set when read qubit k (of m) reported -1
    in shot s.  Its dtype is the narrowest unsigned type that holds m bits,
    ``np.min_scalar_type(2**m - 1)``: uint8 for m <= 8 (one byte per shot),
    uint16 for m = 9 or 10 (two).  In CSV form each row is one shot's +-1
    outcomes and each column header is ``q{qubit}:{basis}``, the basis
    written as its label or, for a Bloch direction, as ``{theta}/{phi}`` in
    radians with round-trip float text.
    """

    qubits: tuple[int, ...]
    bases: tuple
    patterns: np.ndarray

    def __post_init__(self):
        if self.patterns.ndim != 1:
            raise ValueError("pattern array must be one-dimensional")

    def to_csv(self, path) -> None:
        m = len(self.qubits)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = []
            for q, b in zip(self.qubits, self.bases):
                text = b if isinstance(b, str) else f"{float(b[0])!r}/{float(b[1])!r}"
                header.append(f"q{q}:{text}")
            writer.writerow(header)
            # the row text of every pattern, as the writer formats it
            end = writer.dialect.lineterminator
            rows = [",".join(map(str, r)) + end
                    for r in _pattern_outcomes(np.arange(2**m), m).tolist()]
            for start in range(0, self.patterns.size, _SHOT_BLOCK):
                block = self.patterns[start : start + _SHOT_BLOCK].tolist()
                fh.write("".join(map(rows.__getitem__, block)))


def _pattern_outcomes(patterns: np.ndarray, m: int) -> np.ndarray:
    """(len(patterns), m) +-1 outcomes; column k is bit m-1-k."""
    bits = (patterns[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return 1 - 2 * bits


def _conditional_tables(probs: np.ndarray) -> list[np.ndarray]:
    """P(o_k = 1 | o_1 .. o_{k-1}) for each measured qubit k.

    ``probs`` has one axis per measured qubit in measurement order; table k
    is indexed by the outcome prefix of the first k qubits, the earliest on
    the highest bit.  That is exactly the bus marginal the physical
    transfer sequence sees after collapsing the earlier reads.
    """
    # marginals[k] = joint distribution of the first k measured qubits, so
    # each one is the denominator of the next one's conditional table
    marginals = [probs]
    for k in reversed(range(probs.ndim)):
        marginals.insert(0, marginals[0].sum(axis=k))

    tables = []
    for prefix, joint in zip(marginals, marginals[1:]):
        denom = prefix.reshape(-1)  # indexed by outcome prefix
        safe = np.where(denom > 0, denom, 1.0)
        t = np.where(denom > 0, joint.reshape(-1, 2)[:, 1] / safe, 0.0)
        t = np.where(t > 1 - ZERO_BRANCH_TOL, 1.0, t)
        tables.append(np.where(t < ZERO_BRANCH_TOL, 0.0, t))
    return tables


def sample_shots(
    state: StateVector,
    qubits,
    bases,
    shots: int,
    readout: ReadoutModel,
    rng: np.random.Generator,
) -> ShotRecord:
    """Draw reported +-1 outcomes for the listed TLS qubits.

    ``qubits`` must be ascending register indices; ``bases`` gives the
    measured axis per qubit, as a label or a Bloch direction (theta, phi).
    Per shot, per qubit, one uniform draw decides the true outcome and one
    the report flip, in the order a sequential transfer-and-read of the
    qubits would consume them: qubit k's true outcome is 1 when its first
    uniform falls below its ``_conditional_tables`` entry for the shot's
    true-outcome prefix, and its reported bit, bit m-1-k of the shot's
    pattern, is that outcome flipped when its second uniform falls below
    1 - F.  The uniforms are drawn in blocks of
    ``_SHOT_BLOCK`` shots into one buffer; the generator fills consecutive
    blocks from the same stream a single (shots, m, 2) draw would use, so
    the patterns do not depend on the block size, and only one block of
    uniforms is held at a time.  Each block's outcome arithmetic runs in
    int64 and is then stored into the narrow ``ShotRecord`` patterns.
    """
    qubits = list(qubits)
    bases = list(bases)
    if qubits != sorted(qubits) or len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct and ascending")
    if len(bases) != len(qubits):
        raise ValueError(f"{len(bases)} bases for {len(qubits)} qubits")
    if shots < 1:
        raise ValueError("need at least one shot")
    m = len(qubits)

    rotated = state
    for q, b in zip(qubits, bases):
        rotated = rotate_for_basis(rotated, q, b)
    tables = _conditional_tables(_measured_probabilities(rotated, qubits))
    flip = 1.0 - readout.fidelity
    patterns = np.empty(shots, dtype=np.min_scalar_type(2**m - 1))
    buf = np.empty((min(_SHOT_BLOCK, shots), m, 2))
    for start in range(0, shots, _SHOT_BLOCK):
        uniforms = rng.random(out=buf[:min(_SHOT_BLOCK, shots - start)])
        true = np.zeros(len(uniforms), dtype=np.int64)  # true-outcome prefix
        reported = np.zeros(len(uniforms), dtype=np.int64)
        for k, t in enumerate(tables):
            o = uniforms[:, k, 0] < t[true]
            true <<= 1
            true |= o
            reported <<= 1
            reported |= o ^ (uniforms[:, k, 1] < flip)
        patterns[start:start + len(uniforms)] = reported
    return ShotRecord(tuple(qubits), tuple(bases), patterns)


def _pattern_counts(record: ShotRecord) -> np.ndarray:
    """Shots per outcome pattern, counted one draw block at a time: a single
    ``np.bincount`` over the record would cast it all to intp, 8 bytes per
    shot."""
    size = 2 ** len(record.qubits)
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, record.patterns.size, _SHOT_BLOCK):
        counts += np.bincount(record.patterns[start:start + _SHOT_BLOCK], minlength=size)
    return counts


# witness estimation -------------------------------------------------------------


@dataclass
class WitnessEstimate:
    value: float
    stderr: float
    records: list[ShotRecord] | None = None


def estimate_witness_sampled(
    state: StateVector,
    witness: WitnessOperator,
    shots_per_setting: int,
    readout: ReadoutModel,
    keep_records: bool = False,
) -> WitnessEstimate:
    """Estimate a witness from shots, one local setting at a time.

    ``state`` is the prepared register state (bus + TLSs), which
    ``tls_register_state`` first checks for a bus in |0> and TLSs past n
    in |g>: every setting reads TLS 1..n of its own copies of it, witness
    qubit q on TLS q+1.  Each setting's S shots are reduced to pattern
    counts c; with the setting's value table v, its mean is c @ v / S and
    its sample variance c @ (v - mean)**2 / (S - 1).  The estimate adds the
    means to the witness offset, the standard error the variances over S.
    No readout-bias correction is applied: at F < 1 the raw estimate
    shrinks by (2F - 1) per measured qubit, the ``bias_factor`` of
    ``readout``.  ``records`` holds each setting's ``ShotRecord`` when
    ``keep_records`` is set, else None.
    """
    if shots_per_setting < 2:
        raise ValueError("need at least two shots per setting for a standard error")
    n = witness.qubit_count
    tls_register_state(state, n)
    settings = group_settings(witness)
    qubits = list(range(1, n + 1))

    total = witness.offset
    var_total = 0.0
    records = []
    for idx, setting in enumerate(settings):
        rng = derive_rng(readout.seed, f"witness-setting-{idx}")
        record = sample_shots(
            state, qubits, setting.bases, shots_per_setting, readout, rng
        )
        if keep_records:
            records.append(record)
        counts = _pattern_counts(record)
        del record  # the next setting draws into an empty working set
        values = _value_table(setting)
        mean = counts @ values / shots_per_setting
        var = counts @ (values - mean) ** 2 / (shots_per_setting - 1)
        total += mean
        var_total += var / shots_per_setting
    return WitnessEstimate(
        value=float(total),
        stderr=float(np.sqrt(var_total)),
        records=records if keep_records else None,
    )


def _value_table(setting: MeasurementSetting) -> np.ndarray:
    """A setting's shot value for each outcome pattern of its m bases.

    A set bit is a -1 outcome, so a term's count of +1 outcomes is its
    support size less the support bits the pattern sets.  Terms accumulate
    in order, so every entry is the float sum the per-shot rule gives.
    """
    m = len(setting.bases)
    patterns = np.arange(2**m)
    values = np.zeros(2**m)
    for weights, support in setting.terms:
        mask = sum(1 << (m - 1 - q) for q in support)
        values += np.asarray(weights)[len(support) - np.bitwise_count(patterns & mask)]
    return values


# two-qubit tomography -----------------------------------------------------------


_AXES = ("I", "X", "Y", "Z")


@dataclass
class TomographyResult:
    rho: DensityMatrix
    expectations: np.ndarray  # 4x4, rows = first qubit axis (I,X,Y,Z)
    settings_used: int
    fidelity_vs_target: float | None
    physical: bool


def tomography_two_qubit(
    state: StateVector,
    j: int,
    k: int,
    shots_per_setting: int | None,
    readout: ReadoutModel,
    target: StateVector | None = None,
) -> TomographyResult:
    """Reconstruct the (TLS j, TLS k) density matrix of a prepared register
    state (bus + TLSs) by linear inversion.

    Nine settings {x,y,z} x {x,y,z} are measured; identity-containing
    expectations come from single-qubit marginals pooled over compatible
    settings, and <II> = 1 by construction.  ``shots_per_setting=None``
    uses exact expectations (scaled by the readout bias factor), the
    infinite-shot limit.  Physicality (smallest eigenvalue >= -1e-6) is
    reported, never enforced.  ``tls_register_state`` requires the bus in |0>.
    A ``target`` must be a two-qubit state (bit 0 = TLS j), scored <t|rho|t>.
    """
    if j == k:
        raise ValueError("tomography needs two distinct TLSs")
    if target is not None and target.num_qubits != 2:
        raise ValueError(f"tomography target has {target.num_qubits} qubits, not 2")
    num_tls = state.num_qubits - 1
    for q in (j, k):
        if not 1 <= q <= num_tls:
            raise ProtocolError(f"TLS index {q} out of range 1..{num_tls}")
    tls_register_state(state, num_tls)
    exact = shots_per_setting is None
    bias = readout.bias_factor

    e = np.zeros((4, 4))
    e[0, 0] = 1.0
    if exact:
        n = state.num_qubits
        for a, b in list(product(range(4), repeat=2))[1:]:  # <II> = 1, set above
            labels = ["I"] * n
            labels[j] = _AXES[a]
            labels[k] = _AXES[b]
            weight = (a != 0) + (b != 0)
            e[a, b] = expectation(state, PauliString("".join(labels)))
            e[a, b] *= bias**weight
    else:
        order = 1 if j < k else -1  # read in ascending qubit order
        signs = _pattern_outcomes(np.arange(4), 2)[:, ::order]  # columns j, k
        for a, b in product((1, 2, 3), repeat=2):
            rng = derive_rng(readout.seed, f"tomo-{_AXES[a]}{_AXES[b]}")
            bases = [_AXES[a].lower(), _AXES[b].lower()][::order]
            counts = _pattern_counts(sample_shots(
                state, [j, k][::order], bases, shots_per_setting, readout, rng
            ))
            e[a, b] = int(counts @ (signs[:, 0] * signs[:, 1])) / shots_per_setting
            # pooled single-qubit sums: integers, exact in float below 2^53
            e[a, 0] += int(counts @ signs[:, 0])
            e[0, b] += int(counts @ signs[:, 1])
        e[1:, 0] /= 3 * shots_per_setting
        e[0, 1:] /= 3 * shots_per_setting

    terms = [(e[a, b], PauliString(_AXES[a] + _AXES[b]))
             for a, b in product(range(4), repeat=2)]
    rho = pauli_sum_matrix(terms, 2) / 4
    dm = DensityMatrix(rho)
    fid = (None if target is None
           else float(np.real(np.vdot(target.amplitudes, dm.matrix @ target.amplitudes))))
    physical = bool(np.linalg.eigvalsh(rho).min() >= -1e-6)
    return TomographyResult(
        rho=dm,
        expectations=e,
        settings_used=9,
        fidelity_vs_target=fid,
        physical=physical,
    )
