"""Entanglement witnesses for W and cluster states, with measurement-setting
decompositions.

A witness here is a real-weighted Pauli-string sum whose expectation is
non-negative on every separable state and negative on the targeted entangled
state.  Alongside the flat term list, each witness can carry an estimation
plan: a handful of local measurement settings (one basis per qubit) plus the
per-shot combination rule that turns setting outcomes into the witness
value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .paulis import SIGMA, PauliString, pauli_decompose, pauli_mul, pauli_sum_matrix
from .states import DensityMatrix, StateVector, expectation

# measurement bases a single qubit can be read in: the plain Pauli axes and
# the four diagonal combinations used by the three-qubit W decomposition
BASIS_LABELS = ("x", "y", "z", "z+x", "z-x", "z+y", "z-y")

# Pauli letters whose products are diagonal in a given basis (composite bases
# admit everything in their plane)
ESTIMABLE = {
    "x": {"X"},
    "y": {"Y"},
    "z": {"Z"},
    "z+x": {"Z", "X"},
    "z-x": {"Z", "X"},
    "z+y": {"Z", "Y"},
    "z-y": {"Z", "Y"},
}


@dataclass(frozen=True)
class MeasurementSetting:
    """One basis per qubit plus the shot-value rule for its witness share.

    ``shot_terms`` holds (coefficient, qubit-support) pairs: a shot with
    per-qubit outcomes o contributes sum_k c_k * prod_{q in support_k} o_q.
    ``covered_terms`` indexes every witness term estimable from this setting.
    """

    bases: tuple[str, ...]
    covered_terms: tuple[int, ...]
    shot_terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        for b in self.bases:
            if b not in BASIS_LABELS:
                raise ValueError(f"unknown basis label {b!r}")


@dataclass
class WitnessOperator:
    """Real-weighted Pauli sum detecting a target entangled state."""

    terms: list[tuple[float, PauliString]]
    target_label: str
    qubit_count: int
    offset: float = 0.0  # identity part not owned by any setting
    settings: list[MeasurementSetting] | None = None

    def __post_init__(self):
        for coeff, pauli in self.terms:
            if abs(complex(coeff).imag) > 1e-12:
                raise ValueError("witness coefficients must be real")
            if pauli.num_qubits != self.qubit_count:
                raise ValueError("term size does not match qubit count")

    def to_matrix(self) -> np.ndarray:
        return pauli_sum_matrix(self.terms, self.qubit_count)


def witness_value_exact(state, witness: WitnessOperator) -> float:
    """<psi|W|psi> or Tr(rho W), exact.

    Pure states are evaluated term by term; density matrices against the
    dense form.  Both routes agree with each other within 1e-10.
    """
    if isinstance(state, StateVector):
        if state.num_qubits != witness.qubit_count:
            raise ValueError("state and witness dimensions differ")
        return expectation(state, [(c, p) for c, p in witness.terms])
    if isinstance(state, DensityMatrix):
        if state.num_qubits != witness.qubit_count:
            raise ValueError("state and witness dimensions differ")
        val = np.trace(state.matrix @ witness.to_matrix())
        return float(np.real(val))
    raise TypeError(f"cannot evaluate witness on {type(state).__name__}")


# W-state witnesses ------------------------------------------------------------


def w_witness(n: int) -> WitnessOperator:
    """Projector witness ((N-1)/N) I - |W_N><W_N| in Pauli-term form."""
    if not 2 <= n <= 10:
        raise ValueError("W witness supports 2..10 qubits")
    from .protocols import w_state

    w = w_state(n).amplitudes
    dense = ((n - 1) / n) * np.eye(2**n) - np.outer(w, w.conj())
    terms = [(float(np.real(c)), p) for c, p in pauli_decompose(dense)]
    return WitnessOperator(terms, f"W_{n}", n)


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

    def covered(allowed: set[str]) -> tuple[int, ...]:
        out = []
        for i, (_, p) in enumerate(terms):
            if all(c == "I" or c in allowed for c in p.labels):
                out.append(i)
        return tuple(out)

    supports = [
        (),
        (0,), (1,), (2,),
        (0, 1), (0, 2), (1, 2),
        (0, 1, 2),
    ]
    settings = [
        MeasurementSetting(
            bases=("z", "z", "z"),
            covered_terms=covered({"Z"}),
            shot_terms=(
                (3 / 24, (0,)), (3 / 24, (1,)), (3 / 24, (2,)),
                (5 / 24, (0, 1)), (5 / 24, (0, 2)), (5 / 24, (1, 2)),
                (7 / 24, (0, 1, 2)),
            ),
        )
    ]
    root2 = float(np.sqrt(2.0))
    for basis, eta in (("z+x", "X"), ("z-x", "X"), ("z+y", "Y"), ("z-y", "Y")):
        settings.append(
            MeasurementSetting(
                bases=(basis,) * 3,
                covered_terms=covered({"Z", eta}),
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

    # the two chain patterns: x on even or odd 0-based positions, z elsewhere
    def pattern(x_parity: int) -> tuple[str, ...]:
        return tuple("x" if q % 2 == x_parity else "z" for q in range(n))

    witness = WitnessOperator(term_list, f"C_{n}", n, settings=None)
    witness.settings = _greedy_settings(
        witness, preset_bases=[pattern(1), pattern(0)]
    )
    witness.offset = sum(c for c, p in term_list if p.is_identity())
    return witness


# setting grouping ---------------------------------------------------------------


def _greedy_settings(witness: WitnessOperator, preset_bases=None):
    """Assign every non-identity term to one setting, opening new settings
    greedily; identity terms become the offset."""
    n = witness.qubit_count
    slots: list[dict] = [
        {"assign": list(b), "shot": [], "owned": set()} for b in (preset_bases or [])
    ]

    def fits(slot, pauli: PauliString) -> bool:
        for q, c in enumerate(pauli.labels):
            if c == "I":
                continue
            want = c.lower()
            have = slot["assign"][q]
            if have is not None and have != want:
                return False
        return True

    for idx, (coeff, pauli) in enumerate(witness.terms):
        if pauli.is_identity():
            continue
        target = None
        for slot in slots:
            if fits(slot, pauli):
                target = slot
                break
        if target is None:
            target = {"assign": [None] * n, "shot": [], "owned": set()}
            slots.append(target)
        for q, c in enumerate(pauli.labels):
            if c != "I":
                target["assign"][q] = c.lower()
        target["shot"].append((coeff, pauli.support()))
        target["owned"].add(idx)

    settings = []
    for slot in slots:
        if not slot["shot"]:
            continue
        bases = tuple(b if b is not None else "z" for b in slot["assign"])
        covered = tuple(
            i
            for i, (_, p) in enumerate(witness.terms)
            if all(c == "I" or c in ESTIMABLE[bases[q]] for q, c in enumerate(p.labels))
        )
        settings.append(
            MeasurementSetting(
                bases=bases,
                covered_terms=covered,
                shot_terms=tuple(slot["shot"]),
            )
        )
    return settings


def group_settings(witness: WitnessOperator) -> list[MeasurementSetting]:
    """The witness's measurement plan; derived greedily when absent.

    Every non-identity term is owned by exactly one setting, each setting
    fixes one basis per qubit, and the plan plus offset reconstructs the
    witness exactly.
    """
    if witness.settings is None:
        witness.settings = _greedy_settings(witness)
        witness.offset = sum(c for c, p in witness.terms if p.is_identity())
    return witness.settings


# serialization ---------------------------------------------------------------


def witness_to_csv(witness: WitnessOperator, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coefficient", "pauli_string"])
        for coeff, pauli in witness.terms:
            writer.writerow([repr(float(coeff)), pauli.labels])


def witness_from_csv(path, target_label: str = "") -> WitnessOperator:
    terms = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["coefficient", "pauli_string"]:
            raise ValueError(f"unexpected witness CSV header {header}")
        for coeff, labels in reader:
            terms.append((float(coeff), PauliString(labels)))
    if not terms:
        raise ValueError("empty witness CSV")
    return WitnessOperator(terms, target_label, terms[0][1].num_qubits)
