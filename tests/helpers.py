"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles
(dense products, raw enumeration) without reusing the code paths under
test.
"""

import itertools
import math
from fractions import Fraction
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


def chi_square_statistic(observed, expected) -> tuple[float, int]:
    """Pearson's statistic and degrees of freedom over the cells expected > 0.

    A cell expected to stay empty must be empty: its term is infinite otherwise.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    live = expected > 0
    if observed[~live].any():
        return math.inf, int(live.sum()) - 1
    statistic = float((((observed - expected) ** 2)[live] / expected[live]).sum())
    return statistic, int(live.sum()) - 1


def chi_square_bound(df: int, z: float = 4.75) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty cube; z=4.75 is one-sided 1e-6."""
    if df <= 0:
        return 0.0
    spread = 2.0 / (9.0 * df)
    return df * (1.0 - spread + z * math.sqrt(spread)) ** 3


def _egf_product(a: list[int], b: list[int], limit: int) -> list[int]:
    """Product of sum a_k x^k/k! and sum b_k x^k/k!, cut at degree limit.

    The binomial convolution keeps every coefficient an integer.
    """
    size = min(len(a) + len(b) - 2, limit) + 1
    return [
        sum(math.comb(s, k) * a[k] * b[s - k]
            for k in range(max(0, s - len(b) + 1), min(s, len(a) - 1) + 1))
        for s in range(size)
    ]


def exact_success_fraction(n_items: int, marks, n_samples: int, tie_break: str) -> Fraction:
    """Majority success probability in exact rationals, by generating functions.

    For N a power of two the per-sample probabilities are w/N**3 with
    integer w = (3N-4t)**2 (marked) and (N-4t)**2 (unmarked).  Condition
    on a designated marked item holding m samples: the others' counts
    then have multinomial weight eta!/(m! (eta-m)!) w_d**m times the
    coefficient e_(eta-m) of the product of their truncated exponential
    series sum_(c allowed) w**c x**c / c!.  lowest_index allows fewer than
    m before the designated item and at most m after it; random allows
    fewer than m for the items outside a tie and credits a tie of size
    k+1 by 1/(k+1).  Marked items are exchangeable under random ties.
    """
    marks = frozenset(marks)
    t, eta = len(marks), n_samples
    weight = {True: (3 * n_items - 4 * t) ** 2, False: (n_items - 4 * t) ** 2}
    total = Fraction(0)
    for m in range(1, eta + 1):
        rest = eta - m

        def series(marked: bool, top: int) -> list[int]:
            return [weight[marked] ** c for c in range(min(top, rest) + 1)]

        def product(factors) -> list[int]:
            return reduce(lambda a, b: _egf_product(a, b, rest), factors, [1])

        head = math.comb(eta, m) * weight[True] ** m
        if tie_break == "lowest_index":
            for d in marks:
                others = product(series(j in marks, m - 1 if j < d else m)
                                 for j in range(1, n_items + 1) if j != d)
                total += head * (others[rest] if rest < len(others) else 0)
        else:
            others_marked, others_unmarked = t - 1, n_items - t
            for k1, k2 in itertools.product(range(others_marked + 1), range(others_unmarked + 1)):
                tied = 1 + k1 + k2
                if tied * m > eta:
                    continue
                free = product([series(True, m - 1)] * (others_marked - k1)
                               + [series(False, m - 1)] * (others_unmarked - k2))
                left = eta - tied * m
                ways = (math.comb(others_marked, k1) * math.comb(others_unmarked, k2)
                        * math.factorial(eta) // (math.factorial(m) ** tied * math.factorial(left))
                        * weight[True] ** (m * (1 + k1)) * weight[False] ** (m * k2))
                total += Fraction(t * ways * (free[left] if left < len(free) else 0), tied)
    return total / n_items ** (3 * eta)
