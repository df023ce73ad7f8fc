"""Property test: the shot sampler's single-qubit and pairwise outcome
frequencies against Born probabilities of the measured axes, with each
report flipped with probability 1 - F."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebus.measurement import ReadoutModel, _pattern_outcomes, sample_shots
from phasebus.paulis import SIGMA
from phasebus.states import StateVector
from phasebus.witnesses import BASIS_DIRECTIONS

SHOTS = 4000

# The bound is statistical, so the examples are fixed: a fresh draw on every
# run would fail about one run in a thousand at 5 sigma over ~30 comparisons
# per example.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def axis_projector(basis: str, outcome: int) -> np.ndarray:
    """Projector onto the +-1 eigenspace of the basis's Bloch axis."""
    theta, phi = BASIS_DIRECTIONS[basis]
    axis = (
        np.sin(theta) * np.cos(phi) * SIGMA["X"]
        + np.sin(theta) * np.sin(phi) * SIGMA["Y"]
        + np.cos(theta) * SIGMA["Z"]
    )
    return (np.eye(2) + outcome * axis) / 2.0


def born(state: StateVector, bases, outcomes: dict) -> float:
    """P(true outcome of qubit q is outcomes[q] for every listed q)."""
    op = np.array([[1.0]], dtype=complex)
    for q in range(len(bases)):  # qubit 0 innermost
        factor = axis_projector(bases[q], outcomes[q]) if q in outcomes else np.eye(2)
        op = np.kron(factor, op)
    amps = state.amplitudes
    return float(np.real(np.vdot(amps, op @ amps)))


def reported(state, bases, want: dict, fidelity: float) -> float:
    """P(reported outcomes equal ``want``): each true outcome is reported
    as is with probability F and flipped otherwise."""
    total = 0.0
    for true in itertools.product((1, -1), repeat=len(want)):
        weight = 1.0
        for t, w in zip(true, want.values()):
            weight *= fidelity if t == w else 1.0 - fidelity
        total += weight * born(state, bases, dict(zip(want, true)))
    return total


def within_bound(freq: float, p: float) -> bool:
    """Binomial bound: 5 sigma of the frequency plus one count."""
    return abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / SHOTS) + 1.0 / SHOTS


@PROPERTY
@given(
    n=st.integers(1, 4),
    data=st.data(),
    fidelity=st.sampled_from([1.0, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginals_match_born_probabilities(n, data, fidelity, seed):
    bases = data.draw(st.lists(st.sampled_from(sorted(BASIS_DIRECTIONS)),
                               min_size=n, max_size=n))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = StateVector(amps / np.linalg.norm(amps))

    record = sample_shots(state, range(n), bases, SHOTS,
                          ReadoutModel(fidelity, seed), np.random.default_rng(seed))
    o = _pattern_outcomes(record.patterns, n)
    for q in range(n):
        for a in (1, -1):
            freq = float(np.mean(o[:, q] == a))
            assert within_bound(freq, reported(state, bases, {q: a}, fidelity)), (q, a)
    for j, k in itertools.combinations(range(n), 2):
        for a, b in itertools.product((1, -1), repeat=2):
            freq = float(np.mean((o[:, j] == a) & (o[:, k] == b)))
            p = reported(state, bases, {j: a, k: b}, fidelity)
            assert within_bound(freq, p), (j, k, a, b)
