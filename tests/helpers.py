"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles
(dense products, raw enumeration) without reusing the code paths under
test.
"""

import itertools
import math
from functools import reduce

import numpy as np

from paritysearch import BooleanPredicate, RegisterLayout
from paritysearch.statevector import StateVector


def product_register_state(single: np.ndarray, n_samples: int) -> np.ndarray:
    return reduce(np.kron, [single] * n_samples)


def expected_full_state(
    layout: RegisterLayout, pred: BooleanPredicate, marked_amp: float, unmarked_amp: float
) -> StateVector:
    """Product sample registers x zero incidence register x (|0>-|1>) ancilla."""
    single = np.array(
        [marked_amp if pred.value(j) else unmarked_amp for j in range(1, pred.size + 1)],
        dtype=complex,
    )
    sample_part = product_register_state(single, layout.n_samples)
    incidence_part = np.zeros(1 << layout.n_items, dtype=complex)
    incidence_part[0] = 1.0
    ancilla_part = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    full = np.kron(ancilla_part, np.kron(incidence_part, sample_part))
    return StateVector(layout.total_qubits, full)


def iter_compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in iter_compositions(total - first, parts - 1):
            yield (first, *rest)


def _tie_credit(counts, marked: frozenset[int], tie_break: str) -> float:
    best = max(counts.values())
    tied = sorted(item for item, c in counts.items() if c == best)
    if tie_break == "lowest_index":
        return 1.0 if tied[0] in marked else 0.0
    return sum(1 for item in tied if item in marked) / len(tied)


def success_by_composition_enumeration(
    probs: np.ndarray, marked: frozenset[int], n_samples: int, tie_break: str
) -> float:
    """Multinomial sum over frequency vectors, the literal definition."""
    n_items = len(probs)
    total = 0.0
    fact = math.factorial(n_samples)
    for comp in iter_compositions(n_samples, n_items):
        weight = fact
        for c in comp:
            weight /= math.factorial(c)
        for p, c in zip(probs, comp):
            if c:
                weight *= p**c
        if weight == 0.0:
            continue
        counts = {j + 1: c for j, c in enumerate(comp) if c > 0}
        total += weight * _tie_credit(counts, marked, tie_break)
    return total


def success_by_tuple_enumeration(
    probs: np.ndarray, marked: frozenset[int], n_samples: int, tie_break: str
) -> float:
    """Raw enumeration over all N**n_samples ordered sample tuples."""
    n_items = len(probs)
    total = 0.0
    for values in itertools.product(range(1, n_items + 1), repeat=n_samples):
        weight = 1.0
        for v in values:
            weight *= probs[v - 1]
        if weight == 0.0:
            continue
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        total += weight * _tie_credit(counts, marked, tie_break)
    return total


def matching_indices(n_qubits: int, controls, value: int, skip=None) -> np.ndarray:
    """Basis indices whose control bits spell `value` (and bit `skip` is 0).

    Built by depositing the free bits around the fixed ones, one int64
    index per matching basis state.
    """
    fixed = set(controls) | ({skip} if skip is not None else set())
    base = 0
    for b, q in enumerate(controls):
        base |= ((value >> b) & 1) << q
    free = [q for q in range(n_qubits) if q not in fixed]
    idx = np.full(1 << len(free), base, dtype=np.int64)
    enum = np.arange(1 << len(free), dtype=np.int64)
    for b, q in enumerate(free):
        idx |= ((enum >> b) & 1) << q
    return idx


def eager_monte_carlo_estimate(pvec, marked, n_samples, trials, seed, tie_break) -> float:
    """Majority success rate with every trial stream spawned up front."""
    successes = 0
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        counts = rng.multinomial(n_samples, pvec)
        best = counts.max()
        tied = [j + 1 for j, c in enumerate(counts) if c == best]
        if tie_break == "lowest_index":
            winner = tied[0]
        else:
            winner = tied[int(rng.integers(len(tied)))]
        successes += winner in marked
    return successes / trials
