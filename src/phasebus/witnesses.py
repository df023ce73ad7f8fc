"""Entanglement witnesses for W and cluster states, with measurement-setting
decompositions.

A witness here is a real-weighted Pauli-string sum whose expectation is
non-negative on every separable state and negative on the targeted entangled
state.  Alongside the flat term list, each witness carries an estimation
plan, fixed when it is built: a handful of local measurement settings (one
basis per qubit), each with the per-shot combination rule that turns its
outcomes into its share of the witness value, plus an identity offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, isfinite, pi, sqrt

import numpy as np

from .paulis import PauliString, pauli_sum_matrix
from .states import StateVector, expectation, w_state

# Bloch direction (theta, phi) of each basis a single qubit can be read in:
# the plain Pauli axes and the four diagonal combinations used by the
# three-qubit W decomposition
BASIS_DIRECTIONS = {
    "z": (0.0, 0.0),
    "x": (np.pi / 2, 0.0),
    "y": (np.pi / 2, np.pi / 2),
    "z+x": (np.pi / 4, 0.0),
    "z-x": (np.pi / 4, np.pi),
    "z+y": (np.pi / 4, np.pi / 2),
    "z-y": (np.pi / 4, -np.pi / 2),
}


def bloch_direction(basis) -> tuple[float, float]:
    """(theta, phi) of a basis: a ``BASIS_DIRECTIONS`` label or an explicit
    (theta, phi) pair."""
    if isinstance(basis, str):
        if basis not in BASIS_DIRECTIONS:
            raise ValueError(f"unknown basis label {basis!r}")
        return BASIS_DIRECTIONS[basis]
    theta, phi = (float(a) for a in basis)
    if not (isfinite(theta) and isfinite(phi)):
        raise ValueError(f"basis direction {basis!r} is not finite")
    return theta, phi


@dataclass(frozen=True)
class MeasurementSetting:
    """One basis per qubit plus the shot-value rule for its witness share.

    A basis is a label or a Bloch direction (see ``bloch_direction``).  The
    rule ``terms`` holds (weights, support) pairs, the support a tuple of
    distinct qubit indices: a shot adds, for every term, ``weights[c]`` with
    c its count of +1 outcomes on the support.  A product of the support's
    outcomes with coefficient a has weights a (-1)^(|support| - c).
    """

    bases: tuple
    terms: tuple[tuple[tuple[float, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        for b in self.bases:
            bloch_direction(b)
        m = len(self.bases)
        for weights, support in self.terms:
            if len(set(support)) != len(support) or not all(
                isinstance(q, int) and 0 <= q < m for q in support
            ):
                raise ValueError(f"term support {support!r} is not distinct qubits 0..{m - 1}")
            if len(weights) != len(support) + 1:
                raise ValueError("a term needs one weight per count 0..|support|")


@dataclass
class WitnessOperator:
    """Real-weighted Pauli sum detecting a target entangled state.

    ``settings`` and ``offset`` are its estimation plan: every non-identity
    term is owned by one setting, and the offset is the identity
    coefficient, which no setting owns.  ``projector``, when given, is
    (c, phi) for a witness equal to c I - |phi><phi|, whose exact value then
    takes one overlap.
    """

    terms: list[tuple[float, PauliString]]
    qubit_count: int
    settings: list[MeasurementSetting]
    projector: tuple[float, StateVector] | None = None
    offset: float = field(init=False)

    def __post_init__(self):
        for coeff, pauli in self.terms:
            if not np.isfinite(coeff):
                raise ValueError(f"witness coefficient {coeff} is not finite")
            if abs(complex(coeff).imag) > 1e-12:
                raise ValueError("witness coefficients must be real")
            if pauli.num_qubits != self.qubit_count:
                raise ValueError("term size does not match qubit count")
        self.offset = sum(c for c, p in self.terms if p.is_identity())

    def to_matrix(self) -> np.ndarray:
        return pauli_sum_matrix(self.terms, self.qubit_count)


def witness_value_exact(state: StateVector, witness: WitnessOperator) -> float:
    """<psi|W|psi>, exact: c - |<phi|psi>|^2 for a projector witness
    c I - |phi><phi|, otherwise evaluated term by term."""
    if state.num_qubits != witness.qubit_count:
        raise ValueError("state and witness dimensions differ")
    if witness.projector is not None:
        level, target = witness.projector
        return float(level - abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
    return float(sum(coeff * expectation(state, p) for coeff, p in witness.terms))


# W-state witnesses ------------------------------------------------------------


def w_witness(n: int) -> WitnessOperator:
    """Projector witness ((N-1)/N) I - |W_N><W_N| in Pauli-term form, with
    the collective plan of ``_w_collective_settings``."""
    if not 2 <= n <= 10:
        raise ValueError("W witness supports 2..10 qubits")
    return WitnessOperator(_w_terms(n), n, _w_collective_settings(n), _w_projector(n))


def _w_projector(n: int) -> tuple[float, StateVector]:
    """((N-1)/N, |W_N>)."""
    return (n - 1) / n, w_state(n)


def _w_coefficients(n: int) -> tuple[list[float], float]:
    """Pauli coefficients of the W_N witness, by string type.

    Returns (t, t_xx): t[k] weighs every string of k Z letters (t[0] is the
    identity), t_xx every string with an XX or YY pair and Z letters on any
    subset of the other qubits; no other string appears.  With
    |W_N> = sum_i |1_i> / sqrt(N), the trace of |W_N><W_N| against a
    weight-k Z string is (N - 2k) / N, and against each pair string 2 / N.
    """
    scale = 1.0 / (n * 2**n)
    t = [(n - 1) / n - 2.0**-n] + [-(n - 2 * k) * scale for k in range(1, n + 1)]
    return t, -2.0 * scale


def _w_terms(n: int) -> list[tuple[float, PauliString]]:
    """The nonzero Pauli terms of the W_N witness, in the order of a dense
    Pauli expansion: qubit 0 most significant, letters in the order I, X,
    Y, Z."""
    t, t_xx = _w_coefficients(n)
    terms = []
    for z_letters in product("IZ", repeat=n):
        k = z_letters.count("Z")
        if 2 * k != n:
            terms.append(("".join(z_letters), t[k]))
        free = [q for q, c in enumerate(z_letters) if c == "I"]
        for i, j in combinations(free, 2):
            for letter in "XY":
                labels = list(z_letters)
                labels[i] = labels[j] = letter
                terms.append(("".join(labels), t_xx))
    return [(coeff, PauliString(labels)) for labels, coeff in sorted(terms)]


def _count_symmetric(n: int, k: int) -> list[int]:
    """e_k of N +-1 outcomes of which m are +1, for m = 0..N."""
    return [
        sum((-1) ** j * comb(n - m, j) * comb(m, k - j) for j in range(k + 1))
        for m in range(n + 1)
    ]


def _w_collective_settings(n: int) -> list[MeasurementSetting]:
    """Settings that read every qubit along one shared Bloch direction.

    The non-identity part of the W witness, per body order k = 1..N, is
    t_k S_k(Z) + t_xx (S_k(XX) + S_k(YY)) with t_k and t_xx from
    ``_w_coefficients`` and S_k(P) the sum of all weight-k Pauli strings
    carrying the letters P and Z on the rest of their support.  Reading all
    qubits along n = (sin t cos p, sin t sin p, cos t), the k-th elementary
    symmetric polynomial e_k of the +-1 outcomes estimates e_k(n . sigma).
    Averaged over N + 1 equally spaced azimuths p (exact for the degree <= N
    trigonometric polynomials involved), that is
    sum_i cos^(k-2i) t sin^(2i) t A_i with A_0 = S_k(Z),
    A_1 = (S_k(XX) + S_k(YY)) / 2 and A_i for i >= 2 absent from the witness.
    So the weights w_c of e_k on the polar angles t_c (z plus
    floor((N+1)/2) cones below the equator) solve, for i = 0..floor(k/2),
    sum_c cos^(k-2i) t_c sin^(2i) t_c w_c = (t_k, 2 t_xx, 0, ...)_i;
    the minimum-norm solution comes from one square solve of the Gram
    matrix.  A setting's count table is sum_k w_ck e_k(m),
    split evenly over a cone's azimuths.  Permutationally invariant
    tomography (Toth et al., PRL 105, 250403 (2010)) rests on the same
    reduction.
    """
    t, t_xx = _w_coefficients(n)
    cones = (n + 1) // 2
    thetas = [0.0] + [pi / 2 * (c + 1) / (cones + 0.5) for c in range(cones)]
    tables = np.zeros((len(thetas), n + 1))  # [polar angle, count of +1]
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    for k in range(1, n + 1):
        rows = np.array([cos_t ** (k - 2 * i) * sin_t ** (2 * i) for i in range(k // 2 + 1)])
        target = [t[k], 2 * t_xx] + [0.0] * k
        weights = np.linalg.solve(rows @ rows.T, target[: len(rows)]) @ rows
        tables += np.outer(weights, _count_symmetric(n, k))
    every = tuple(range(n))
    settings = [MeasurementSetting(("z",) * n, ((tuple(tables[0].tolist()), every),))]
    for theta, table in zip(thetas[1:], tables[1:] / (n + 1)):
        rule = ((tuple(table.tolist()), every),)
        for j in range(n + 1):
            settings.append(MeasurementSetting(((theta, 2 * pi * j / (n + 1)),) * n, rule))
    return settings


def w3_witness_decomposed() -> WitnessOperator:
    """The three-qubit W witness measured in five local settings.

    Its Pauli form is 24 W = 17 I + 3 sum Z + 5 sum ZZ + 7 ZZZ
    - sum (I + sigma_z +- sigma_eta)^x3 over eta = x, y.  One setting reads
    every qubit along z and weighs a shot by (3 e_1 + 5 e_2 + 7 e_3) / 24 of
    its outcomes.  The other four read all qubits along (z +- x)/sqrt(2) or
    (z +- y)/sqrt(2) and estimate one product beyond its identity part, from
    I + sigma_z +- sigma_eta = I + sqrt(2) m with m the measured axis: a shot
    with m outcomes +1 weighs (1 - (1 + sqrt 2)^m (1 - sqrt 2)^(3 - m)) / 24.
    """
    e1, e2, e3 = (_count_symmetric(3, k) for k in (1, 2, 3))
    z_table = tuple((3 * a + 5 * b + 7 * c) / 24 for a, b, c in zip(e1, e2, e3))
    root2 = sqrt(2.0)
    cone_table = tuple((1 - (1 + root2) ** m * (1 - root2) ** (3 - m)) / 24 for m in range(4))
    settings = [MeasurementSetting(("z",) * 3, ((z_table, (0, 1, 2)),))]
    settings += [
        MeasurementSetting((basis,) * 3, ((cone_table, (0, 1, 2)),))
        for basis in ("z+x", "z-x", "z+y", "z-y")
    ]
    return WitnessOperator(_w_terms(3), 3, settings, _w_projector(3))


# cluster-state witnesses --------------------------------------------------------


def _chain_product(sites, n: int) -> PauliString:
    """Product of the chain generators centred on ``sites`` (0-based).

    Generator k carries X on site k and Z on its neighbours.  For sites of
    one parity no X meets a Z, so the product has X on the sites, Z where an
    odd number of them are neighbours, and no phase.
    """
    labels = ["I"] * n
    for k in sites:
        for q in (k - 1, k + 1):
            if 0 <= q < n:
                labels[q] = "Z" if labels[q] == "I" else "I"
    for k in sites:
        labels[k] = "X"
    return PauliString("".join(labels))


def cluster_stabilizers(n: int) -> tuple[PauliString, ...]:
    """Chain generators X Z I..., Z X Z ..., ... I Z X.  They commute:
    neighbours anticommute on two sites, generators two apart share a Z."""
    if n < 2:
        raise ValueError("cluster chain needs at least two qubits")
    return tuple(_chain_product([k], n) for k in range(n))


def cluster_witness(n: int) -> WitnessOperator:
    """Witness 3I - 2[P_even + P_odd] built from the chain stabilizers.

    P = prod (S_k + I)/2 over the even/odd generators projects onto their
    joint +1 eigenspace; the witness detects the cluster state with value
    -1.  Each projector's non-identity products carry X letters only on its
    generators' parity of positions, so they go straight to that parity's
    setting: x there, z elsewhere.  Products are listed by subset, bit j of
    the subset index choosing the group's j-th generator.
    """
    if n < 2:
        raise ValueError("cluster chain needs at least two qubits")
    # even generators (k = 2, 4, ...) carry X on odd 0-based positions
    groups = [range(1, n, 2), range(0, n, 2)]
    scales = [-2.0 / (2 ** len(sites)) for sites in groups]
    terms = [(3.0 + scales[0] + scales[1], PauliString("I" * n))]
    settings = []
    for sites, scale in zip(groups, scales):
        products = [
            _chain_product([k for j, k in enumerate(sites) if i >> j & 1], n)
            for i in range(1, 2 ** len(sites))
        ]
        terms += [(scale, p) for p in products]
        bases = tuple("x" if q in sites else "z" for q in range(n))
        rule = tuple(
            (tuple(scale * (-1) ** (p.weight - c) for c in range(p.weight + 1)), p.support())
            for p in products
        )
        settings.append(MeasurementSetting(bases, rule))
    return WitnessOperator(terms, n, settings)


# setting plan ------------------------------------------------------------------


def group_settings(witness: WitnessOperator) -> list[MeasurementSetting]:
    """The witness's measurement plan.

    Every non-identity term is owned by exactly one setting, each setting
    fixes one basis per qubit, and the plan plus offset reconstructs the
    witness exactly.
    """
    return witness.settings
