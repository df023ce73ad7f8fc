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

import csv
from dataclasses import dataclass
from math import comb, isfinite, pi

import numpy as np

from .paulis import SIGMA, PauliString, pauli_decompose, pauli_mul, pauli_sum_matrix
from .states import StateVector, expectation

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
    rule is one of two forms.  ``shot_terms`` holds (coefficient,
    qubit-support) pairs: a shot with per-qubit outcomes o contributes
    sum_k c_k * prod_{q in support_k} o_q.  ``count_weights`` holds one value
    per possible count of +1 outcomes (0..N): a shot contributes the entry
    for its count.
    """

    bases: tuple
    shot_terms: tuple[tuple[float, tuple[int, ...]], ...] = ()
    count_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        for b in self.bases:
            bloch_direction(b)
        if self.count_weights is not None:
            if self.shot_terms:
                raise ValueError("a setting has shot terms or count weights, not both")
            if len(self.count_weights) != len(self.bases) + 1:
                raise ValueError("count weights need one entry per count 0..N")


@dataclass
class WitnessOperator:
    """Real-weighted Pauli sum detecting a target entangled state.

    ``settings`` and ``offset`` are its estimation plan: every non-identity
    term is owned by one setting, and the offset is the identity part no
    setting owns.  Without a plan, the settings are grouped greedily;
    without an offset, it is the sum of the identity terms.
    """

    terms: list[tuple[float, PauliString]]
    target_label: str
    qubit_count: int
    offset: float | None = None
    settings: list[MeasurementSetting] | None = None

    def __post_init__(self):
        for coeff, pauli in self.terms:
            if abs(complex(coeff).imag) > 1e-12:
                raise ValueError("witness coefficients must be real")
            if pauli.num_qubits != self.qubit_count:
                raise ValueError("term size does not match qubit count")
        if self.settings is None:
            self.settings = _greedy_settings(self.terms, self.qubit_count)
        if self.offset is None:
            self.offset = sum(c for c, p in self.terms if p.is_identity())

    def to_matrix(self) -> np.ndarray:
        return pauli_sum_matrix(self.terms, self.qubit_count)


def witness_value_exact(state: StateVector, witness: WitnessOperator) -> float:
    """<psi|W|psi>, exact, evaluated term by term."""
    if state.num_qubits != witness.qubit_count:
        raise ValueError("state and witness dimensions differ")
    return expectation(state, witness.terms)


# W-state witnesses ------------------------------------------------------------


def w_witness(n: int) -> WitnessOperator:
    """Projector witness ((N-1)/N) I - |W_N><W_N| in Pauli-term form, with
    the collective plan of ``_w_collective_settings``."""
    if not 2 <= n <= 10:
        raise ValueError("W witness supports 2..10 qubits")
    from .protocols import w_state

    w = w_state(n).amplitudes
    dense = ((n - 1) / n) * np.eye(2**n) - np.outer(w, w.conj())
    terms = [(float(np.real(c)), p) for c, p in pauli_decompose(dense)]
    return WitnessOperator(terms, f"W_{n}", n, settings=_w_collective_settings(n))


def _w_collective_settings(n: int) -> list[MeasurementSetting]:
    """Settings that read every qubit along one shared Bloch direction.

    The non-identity part of the W witness, per body order k = 1..N, is
    t_k S_k(Z) + t_xx (S_k(XX) + S_k(YY)) with t_k = -(N - 2k) / (N 2^N),
    t_xx = -2 / (N 2^N), and S_k(P) the sum of all weight-k Pauli strings
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
    cones = (n + 1) // 2
    thetas = [0.0] + [pi / 2 * (c + 1) / (cones + 0.5) for c in range(cones)]
    scale = 1.0 / (n * 2**n)
    tables = np.zeros((len(thetas), n + 1))  # [polar angle, count of +1]
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    for k in range(1, n + 1):
        rows = np.array([cos_t ** (k - 2 * i) * sin_t ** (2 * i) for i in range(k // 2 + 1)])
        target = [-(n - 2 * k) * scale, -4.0 * scale] + [0.0] * k  # t_k, 2 t_xx, 0..
        weights = np.linalg.solve(rows @ rows.T, target[: len(rows)]) @ rows
        # e_k of N outcomes of which m are +1
        e_k = [sum((-1) ** j * comb(n - m, j) * comb(m, k - j) for j in range(k + 1))
               for m in range(n + 1)]
        tables += np.outer(weights, e_k)
    settings = [MeasurementSetting(("z",) * n, count_weights=tuple(tables[0].tolist()))]
    for theta, table in zip(thetas[1:], tables[1:] / (n + 1)):
        for j in range(n + 1):
            direction = (theta, 2 * pi * j / (n + 1))
            settings.append(
                MeasurementSetting((direction,) * n, count_weights=tuple(table.tolist()))
            )
    return settings


def _w3_formula_matrix() -> np.ndarray:
    """Dense five-setting decomposition of the three-qubit W witness."""
    ident = np.eye(2)
    z = SIGMA["Z"]

    def kron3(a, b, c):
        return np.kron(np.kron(c, b), a)  # qubit 0 innermost

    def comp(eta, sign):
        b = ident + z + sign * SIGMA[eta]
        return kron3(b, b, b)

    m = 17.0 * np.eye(8, dtype=np.complex128)
    m += 7.0 * kron3(z, z, z)
    m += 3.0 * (kron3(z, ident, ident) + kron3(ident, z, ident) + kron3(ident, ident, z))
    m += 5.0 * (kron3(z, z, ident) + kron3(z, ident, z) + kron3(ident, z, z))
    m -= comp("X", +1) + comp("X", -1) + comp("Y", +1) + comp("Y", -1)
    return m / 24.0


def w3_witness_decomposed() -> WitnessOperator:
    """The three-qubit W witness grouped into five local settings.

    One setting reads every qubit along z; the other four read all qubits
    along (z +- x)/sqrt(2) or (z +- y)/sqrt(2), each estimating one
    (I + sigma_z +- sigma_eta)^x3 product from the identity
    I + sigma_z +- sigma_eta = I + sqrt(2) * m with m the measured axis.
    """
    dense = _w3_formula_matrix()
    terms = [(float(np.real(c)), p) for c, p in pauli_decompose(dense)]

    supports = [
        (),
        (0,), (1,), (2,),
        (0, 1), (0, 2), (1, 2),
        (0, 1, 2),
    ]
    settings = [
        MeasurementSetting(
            bases=("z", "z", "z"),
            shot_terms=(
                (3 / 24, (0,)), (3 / 24, (1,)), (3 / 24, (2,)),
                (5 / 24, (0, 1)), (5 / 24, (0, 2)), (5 / 24, (1, 2)),
                (7 / 24, (0, 1, 2)),
            ),
        )
    ]
    root2 = float(np.sqrt(2.0))
    for basis in ("z+x", "z-x", "z+y", "z-y"):
        settings.append(
            MeasurementSetting(
                bases=(basis,) * 3,
                shot_terms=tuple(
                    (-(root2 ** len(sup)) / 24.0, sup) for sup in supports
                ),
            )
        )
    return WitnessOperator(terms, "W_3", 3, offset=17 / 24, settings=settings)


# cluster-state witnesses --------------------------------------------------------


@dataclass(frozen=True)
class StabilizerSet:
    """Commuting +-1 generators whose joint +1 eigenstate is the target."""

    generators: tuple[PauliString, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            phase, sq = pauli_mul(g, g)
            if not sq.is_identity() or phase != 1:
                raise ValueError(f"{g} does not square to the identity")
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if not a.commutes_with(b):
                    raise ValueError(f"{a} and {b} do not commute")
        object.__setattr__(self, "generators", gens)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def cluster_stabilizers(n: int) -> StabilizerSet:
    """Chain generators X Z I..., Z X Z ..., ... I Z X."""
    if n < 2:
        raise ValueError("cluster chain needs at least two qubits")
    gens = []
    for k in range(1, n + 1):
        labels = ["I"] * n
        labels[k - 1] = "X"
        if k > 1:
            labels[k - 2] = "Z"
        if k < n:
            labels[k] = "Z"
        gens.append(PauliString("".join(labels)))
    return StabilizerSet(tuple(gens))


def _stabilizer_products(gens: list[PauliString], n: int):
    """All products over subsets of ``gens``; yields (subset_size, string).

    Chain stabilizers of equal parity overlap only through Z factors, so the
    products carry no phases.
    """
    identity = PauliString("I" * n)
    subsets = [(0, identity)]
    for g in gens:
        new = []
        for size, p in subsets:
            phase, prod = pauli_mul(p, g)
            if phase != 1:
                raise ValueError("unexpected phase in stabilizer product")
            new.append((size + 1, prod))
        subsets += new
    return subsets


def cluster_witness(n: int) -> WitnessOperator:
    """Witness 3I - 2[P_even + P_odd] built from the chain stabilizers.

    P = prod (S_k + I)/2 over the even/odd generators projects onto their
    joint +1 eigenspace; the witness detects the cluster state with value
    -1.
    """
    gens = list(cluster_stabilizers(n))
    evens = [gens[k - 1] for k in range(2, n + 1, 2)]
    odds = [gens[k - 1] for k in range(1, n + 1, 2)]

    terms: dict[str, float] = {}

    def add(coeff: float, pauli: PauliString):
        terms[pauli.labels] = terms.get(pauli.labels, 0.0) + coeff

    add(3.0, PauliString("I" * n))
    for group in (evens, odds):
        scale = -2.0 / (2 ** len(group))
        for _, prod in _stabilizer_products(group, n):
            add(scale, prod)

    term_list = [
        (coeff, PauliString(labels))
        for labels, coeff in terms.items()
        if abs(coeff) > 1e-15
    ]

    # the two chain patterns: x on odd or even 0-based positions, z elsewhere;
    # each non-identity term goes to the first pattern it fits
    patterns = [
        tuple("x" if q % 2 == x_parity else "z" for q in range(n))
        for x_parity in (1, 0)
    ]
    shot_terms = {bases: [] for bases in patterns}
    for coeff, pauli in term_list:
        if not pauli.is_identity():
            bases = next(b for b in patterns if _fits(b, pauli))
            shot_terms[bases].append((coeff, pauli.support()))
    settings = [MeasurementSetting(b, tuple(t)) for b, t in shot_terms.items()]
    return WitnessOperator(term_list, f"C_{n}", n, settings=settings)


# setting grouping ---------------------------------------------------------------


def _fits(bases, pauli: PauliString) -> bool:
    """True when ``bases`` reads, or leaves open (None), the axis of every
    non-identity letter of ``pauli``."""
    for c, b in zip(pauli.labels, bases):
        if c != "I" and b is not None and b != c.lower():
            return False
    return True


def _greedy_settings(terms, n: int) -> list[MeasurementSetting]:
    """Assign every non-identity term to the first setting it fits, opening
    a new setting when none does; unread qubits are read along z."""
    slots: list[tuple[list, list]] = []  # (basis per qubit or None, shot terms)
    for coeff, pauli in terms:
        if pauli.is_identity():
            continue
        for slot in slots:
            if _fits(slot[0], pauli):
                break
        else:
            slot = ([None] * n, [])
            slots.append(slot)
        for q, c in enumerate(pauli.labels):
            if c != "I":
                slot[0][q] = c.lower()
        slot[1].append((coeff, pauli.support()))
    return [
        MeasurementSetting(
            bases=tuple(b if b is not None else "z" for b in assign),
            shot_terms=tuple(shot),
        )
        for assign, shot in slots
    ]


def group_settings(witness: WitnessOperator) -> list[MeasurementSetting]:
    """The witness's measurement plan.

    Every non-identity term is owned by exactly one setting, each setting
    fixes one basis per qubit, and the plan plus offset reconstructs the
    witness exactly.
    """
    return witness.settings


# serialization ---------------------------------------------------------------


def witness_to_csv(witness: WitnessOperator, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coefficient", "pauli_string"])
        for coeff, pauli in witness.terms:
            writer.writerow([repr(float(coeff)), pauli.labels])

