"""Independent references for the benchmark's correctness checks.

Nothing here imports paritysearch.  Every expected value is recomputed
from the paper's closed form or from first principles:

* the final search state, contracted against the closed form through
  strided views, so a 24-qubit state is never copied;
* the majority-vote success probability in exact rational arithmetic,
  by enumerating frequency vectors when they are few and otherwise by
  conditioning on the designated item's count with a generating function;
* a vectorised majority-vote sampler for sizes where the exact sum is out
  of reach (N=1024);
* the gate tally of the emitted circuit and a chi-square survival function.

Per-sample probabilities are rational for N a power of two:
p_marked = (3N-4t)^2 / N^3 and p_unmarked = (N-4t)^2 / N^3, so the exact
sums below work on the integer weights w = (3N-4t)^2, (N-4t)^2 over the
common denominator N^3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as cartesian
from operator import mul

import numpy as np


# --------------------------------------------------------------------------
# Closed form and the final state


def closed_form_amplitudes(n_items: int, marked_count: int) -> tuple[float, float]:
    """(marked, unmarked) amplitude after one inversion step, from the paper."""
    ratio = 4.0 * marked_count / n_items
    root = math.sqrt(n_items)
    return (3.0 - ratio) / root, (1.0 - ratio) / root


def closed_form_state_fidelity(amps: np.ndarray, n_items: int, n_samples: int, marks) -> tuple[float, float]:
    """(fidelity mod global phase, norm) of a final state against the closed form.

    The predicted state is (|0>-|1>)/sqrt(2) on the ancilla (top qubit),
    |0...0> on the N incidence qubits, and the n_samples-fold product of
    the single-register state on the sample qubits (register 1 lowest).
    Only the incidence-zero slice is read, through a strided view; the
    contraction allocates N**n_samples amplitudes, never a full state.
    """
    marks = set(marks)
    marked_amp, unmarked_amp = closed_form_amplitudes(n_items, len(marks))
    single = np.array(
        [marked_amp if j in marks else unmarked_amp for j in range(1, n_items + 1)]
    )
    # einsum without path optimisation runs its own loops, not BLAS, so no
    # BLAS worker threads are woken to compete with the program's time.
    flat = amps.view(np.float64)
    norm = math.sqrt(float(np.einsum("i,i->", flat, flat)))
    view = amps.reshape(2, 1 << n_items, n_items**n_samples)[:, 0, :]
    sample_part = (view[0] - view[1]) * (1.0 / math.sqrt(2.0))
    for _ in range(n_samples):
        sample_part = np.einsum("ij,j->i", sample_part.reshape(-1, n_items), single)
    overlap = complex(sample_part.reshape(()))
    return abs(overlap), norm


# --------------------------------------------------------------------------
# Exact success probability, rational


def class_weights(n_items: int, marked_count: int) -> tuple[int, int]:
    """Integer per-sample weights (marked, unmarked) over the denominator N**3."""
    return (3 * n_items - 4 * marked_count) ** 2, (n_items - 4 * marked_count) ** 2


def _tie_credit(counts: tuple[int, ...], marks: frozenset[int], tie_break: str) -> Fraction:
    best = max(counts)
    tied = [j for j, c in enumerate(counts, start=1) if c == best]
    if tie_break == "lowest_index":
        return Fraction(int(tied[0] in marks))
    return Fraction(sum(1 for j in tied if j in marks), len(tied))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def success_by_enumeration(n_items: int, marks, n_samples: int, tie_break: str) -> Fraction:
    """Sum of multinomial weights over every frequency vector, credited by the tie rule."""
    marks = frozenset(marks)
    w_marked, w_unmarked = class_weights(n_items, len(marks))
    weights = [w_marked if j in marks else w_unmarked for j in range(1, n_items + 1)]
    fact = math.factorial(n_samples)
    total = Fraction(0)
    for counts in _compositions(n_samples, n_items):
        term = fact
        for c in counts:
            term //= math.factorial(c)
        for w, c in zip(weights, counts):
            term *= w**c
        if term:
            total += term * _tie_credit(counts, marks, tie_break)
    return total / n_items ** (3 * n_samples)


def composition_count(n_items: int, n_samples: int) -> int:
    return math.comb(n_samples + n_items - 1, n_items - 1)


class _Egf:
    """Truncated exponential generating functions with integer coefficients.

    A list e represents sum_k e[k] x^k / k!; the product of two such series
    is the binomial convolution e_s = sum_k C(s,k) a_k b_(s-k), which keeps
    every coefficient an integer.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.binom = [[math.comb(s, k) for k in range(s + 1)] for s in range(limit + 1)]

    def truncated_exp(self, weight: int, top: int) -> list[int]:
        """sum_{k<=top} (weight x)^k / k!, cut at the degree limit."""
        return [weight**k for k in range(min(top, self.limit) + 1)]

    def coefficient(self, a: list[int], b: list[int], s: int) -> int:
        """e_s of the product a*b."""
        lo = max(0, s - len(b) + 1)
        hi = min(s, len(a) - 1)
        if lo > hi:
            return 0
        row = self.binom[s]
        return sum(map(mul, map(mul, row[lo : hi + 1], a[lo : hi + 1]), b[s - hi : s - lo + 1][::-1]))

    def product(self, a: list[int], b: list[int], limit: int) -> list[int]:
        size = min(len(a) + len(b) - 2, limit) + 1
        return [self.coefficient(a, b, s) for s in range(size)]


def success_by_generating_function(n_items: int, marks, n_samples: int, tie_break: str) -> Fraction:
    """Exact success probability, conditioning on the designated item's count m.

    lowest_index: marked item i wins iff it holds m samples, every earlier
    item fewer than m and every later item at most m.
    random: a designated marked item that ties with k others at the
    maximum wins with probability 1/(k+1); all marked items are
    exchangeable, so the success probability is t times its share.
    """
    marks = frozenset(marks)
    t = len(marks)
    if t == 0:
        return Fraction(0)
    eta = n_samples
    w_marked, w_unmarked = class_weights(n_items, t)
    egf = _Egf(eta)
    total = Fraction(0)
    for m in range(1, eta + 1):
        rest = eta - m
        series = {
            ("marked", "lt"): egf.truncated_exp(w_marked, m - 1),
            ("marked", "le"): egf.truncated_exp(w_marked, m),
            ("unmarked", "lt"): egf.truncated_exp(w_unmarked, m - 1),
            ("unmarked", "le"): egf.truncated_exp(w_unmarked, m),
        }
        cache: dict = {}

        def power(key, j):
            table = cache.setdefault(key, [[1]])
            while len(table) <= j:
                table.append(egf.product(table[-1], series[key], rest))
            return table[j]

        if tie_break == "lowest_index":
            count = 0
            for i in sorted(marks):
                before_marked = sum(1 for j in marks if j < i)
                before_unmarked = (i - 1) - before_marked
                after_marked = t - 1 - before_marked
                after_unmarked = (n_items - t) - before_unmarked
                marked_part = egf.product(
                    power(("marked", "lt"), before_marked), power(("marked", "le"), after_marked), rest
                )
                unmarked_part = egf.product(
                    power(("unmarked", "lt"), before_unmarked),
                    power(("unmarked", "le"), after_unmarked),
                    rest,
                )
                count += egf.coefficient(marked_part, unmarked_part, rest)
            total += Fraction(math.comb(eta, m) * w_marked**m * count)
        elif tie_break == "random":
            others_marked, others_unmarked = t - 1, n_items - t
            fm = math.factorial(m)
            for k1, k2 in cartesian(range(others_marked + 1), range(others_unmarked + 1)):
                tied = 1 + k1 + k2
                q = tied * m
                if q > eta:
                    continue
                free = egf.coefficient(
                    power(("marked", "lt"), others_marked - k1),
                    power(("unmarked", "lt"), others_unmarked - k2),
                    eta - q,
                )
                if not free:
                    continue
                ways = (
                    math.comb(others_marked, k1)
                    * math.comb(others_unmarked, k2)
                    * math.comb(eta, q)
                    * (math.factorial(q) // fm**tied)
                    * w_marked ** (m * (1 + k1))
                    * w_unmarked ** (m * k2)
                    * free
                )
                total += Fraction(t * ways, tied)
        else:
            raise ValueError(f"unknown tie-break {tie_break!r}")
    return total / n_items ** (3 * eta)


ENUMERATION_LIMIT = 20_000


def exact_success(n_items: int, marks, n_samples: int, tie_break: str) -> Fraction:
    """Exact rational success probability: enumeration when small, else the generating function."""
    if composition_count(n_items, n_samples) <= ENUMERATION_LIMIT:
        return success_by_enumeration(n_items, marks, n_samples, tie_break)
    return success_by_generating_function(n_items, marks, n_samples, tie_break)


# --------------------------------------------------------------------------
# Majority-vote sampler (vectorised, many trials)


SAMPLER_CHUNK = 64


def sampled_success(n_items: int, marks, n_samples: int, trials: int, rng: np.random.Generator) -> dict[str, float]:
    """Mean success of `trials` majority votes under both tie rules.

    Each sample is marked with probability t*p_marked and then uniform
    within its class, so a trial costs O(n_samples) draws.  Random ties
    are credited by their expectation (the marked share of the tied
    items), which has the same mean and a smaller variance.
    """
    marks = np.array(sorted(marks))
    w_marked, _ = class_weights(n_items, len(marks))
    unmarked = np.setdiff1d(np.arange(1, n_items + 1), marks)
    is_marked = np.zeros(n_items, dtype=bool)
    is_marked[marks - 1] = True
    p_any_marked = len(marks) * w_marked / n_items**3
    credit = {"lowest_index": 0.0, "random": 0.0}
    done = 0
    while done < trials:
        size = min(SAMPLER_CHUNK, trials - done)
        shape = (size, n_samples)
        hit = rng.random(shape) < p_any_marked
        items = np.where(
            hit,
            marks[rng.integers(0, len(marks), shape)] if len(marks) else 0,
            unmarked[rng.integers(0, len(unmarked), shape)] if len(unmarked) else 0,
        ) - 1
        items += (np.arange(size) * n_items)[:, None]
        counts = np.bincount(items.ravel(), minlength=size * n_items).reshape(size, n_items)
        credit["lowest_index"] += float(is_marked[counts.argmax(axis=1)].sum())
        at_max = counts == counts.max(axis=1, keepdims=True)
        credit["random"] += float(((at_max & is_marked).sum(axis=1) / at_max.sum(axis=1)).sum())
        done += size
    return {rule: value / trials for rule, value in credit.items()}


# --------------------------------------------------------------------------
# Gate tally and statistics


def expected_tally(item_bits: int, n_samples: int, n_items: int, marked_count: int) -> dict:
    """Raw gate counts the paper's circuit must emit, overall and per step."""
    nu, eta, n, t = item_bits, n_samples, n_items, marked_count
    return {
        "hadamards": 3 * nu * eta + 1,
        "sigma_z": 1,
        "multi_controlled_flips": 2 * eta * n + t,
        "multi_controlled_phases": eta,
        "by_step": {
            "step2a": {"hadamard": nu * eta + 1},
            "step2b": {"sigma_z": 1},
            "step3": {"value_controlled_flip": eta * n},
            "step4": {"value_controlled_flip": t} if t else {},
            "step5": {"value_controlled_flip": eta * n},
            "step6": {"hadamard": 2 * nu * eta, "value_controlled_phase": eta},
        },
    }


def chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution (regularised Q(dof/2, x/2))."""
    if dof <= 0:
        return 1.0
    a, x = dof / 2.0, statistic / 2.0
    if x <= 0:
        return 1.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series for the lower tail P(a, x)
        term = total = 1.0 / a
        k = a
        while abs(term) > 1e-17 * abs(total):
            k += 1.0
            term *= x / k
            total += term
        return max(0.0, 1.0 - total * math.exp(log_prefactor))
    # continued fraction for the upper tail Q(a, x) (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefactor) * h
