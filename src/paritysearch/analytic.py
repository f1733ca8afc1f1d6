"""Closed-form model of the state after one inversion step.

All marked items share one signed amplitude and all unmarked items
another, so scalars describe the whole per-register state:

    marked_amp   = (3 - 4t/N) / sqrt(N)
    unmarked_amp = (1 - 4t/N) / sqrt(N)

with t the number of marked items.  On top of the per-sample measurement
distribution this module computes the probability that the majority vote
over n_samples independent draws lands on a marked item - exactly, by a
dynamic program equivalent to summing multinomial weights over all
frequency vectors, and approximately, by seeded Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevector as sv
from .circuit import TieBreak, winner_from_frequencies
from .errors import CapacityError, DomainError
from .oracle import BooleanPredicate, _check_power_of_two
from .statevector import StateVector

# The exact computation touches ~ N * (n_samples+1)^3 array cells; past this
# budget the caller should fall back to Monte Carlo.
DEFAULT_EXACT_WORK_CAP = 10**8


@dataclass(frozen=True)
class AmplitudeModel:
    """Signed per-item amplitudes and the induced measurement probabilities."""

    n_items: int
    marked_count: int
    marked_amp: float
    unmarked_amp: float
    p_marked: float
    p_unmarked: float


def amplitudes(n_items: int, marked_count: int) -> AmplitudeModel:
    """Amplitude model for N items of which marked_count are marked."""
    _check_power_of_two(n_items)
    if not 0 <= marked_count <= n_items:
        raise DomainError(f"marked count {marked_count} outside 0..{n_items}")
    ratio = 4.0 * marked_count / n_items
    root = math.sqrt(n_items)
    marked_amp = (3.0 - ratio) / root
    unmarked_amp = (1.0 - ratio) / root
    return AmplitudeModel(
        n_items=n_items,
        marked_count=marked_count,
        marked_amp=marked_amp,
        unmarked_amp=unmarked_amp,
        p_marked=marked_amp * marked_amp,
        p_unmarked=unmarked_amp * unmarked_amp,
    )


def _check_predicate(model: AmplitudeModel, pred: BooleanPredicate) -> None:
    if pred.size != model.n_items:
        raise DomainError(f"predicate size {pred.size} != model size {model.n_items}")
    if pred.marked_count != model.marked_count:
        raise DomainError(
            f"predicate marks {pred.marked_count} items, model expects {model.marked_count}"
        )


def per_sample_distribution(model: AmplitudeModel, pred: BooleanPredicate) -> np.ndarray:
    """Measurement probability of each item (index j-1 holds item j)."""
    _check_predicate(model, pred)
    probs = np.full(model.n_items, model.p_unmarked)
    for j in pred.marks:
        probs[j - 1] = model.p_marked
    return probs


def analytic_product_state(
    model: AmplitudeModel, pred: BooleanPredicate, n_samples: int, cap: int | None = None
) -> StateVector:
    """The n_samples-fold product of the single-register state.

    This is the predicted sample-register part of the circuit's final
    state, up to a global phase.
    """
    _check_predicate(model, pred)
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    item_bits = model.n_items.bit_length() - 1
    total_qubits = item_bits * n_samples
    cap = sv.qubit_cap() if cap is None else cap
    if total_qubits > cap:
        raise CapacityError(
            f"product state needs {item_bits}*{n_samples} = {total_qubits} qubits, "
            f"above the cap of {cap}"
        )
    single = np.array(
        [model.marked_amp if pred.value(j) else model.unmarked_amp
         for j in range(1, model.n_items + 1)],
        dtype=np.complex128,
    )
    full = single
    for _ in range(n_samples - 1):
        full = np.kron(full, single)
    return StateVector(total_qubits, full)


def _check_exact_work(n_items: int, n_samples: int, work_cap: int) -> None:
    work = n_items * (n_samples + 1) ** 3
    if work > work_cap:
        raise CapacityError(
            f"exact computation needs ~{work} cell updates, above the cap of "
            f"{work_cap}; use the Monte Carlo estimator instead"
        )


def _binomial_table(size: int) -> np.ndarray:
    """C(n, c) for 0 <= n, c < size, each rounded once to float64.

    From n = 68 on the integers outgrow 64 bits, and numpy would hold
    them as Python objects, so the table is float from the start.
    """
    return np.array(
        [[math.comb(n, c) for c in range(size)] for n in range(size)], dtype=np.float64
    )


def _exact_lowest_index(probs: np.ndarray, marked: list[bool], n_samples: int) -> float:
    """Majority success probability with lowest-index tie-breaking.

    Processes items in index order, tracking (samples used, running
    maximum count, whether the running winner is marked).  The winner
    flag only changes on a strict improvement, which is exactly the
    lowest-index rule.  Multinomial weights enter as a product of
    binomial factors, one per item, so every stored value is a genuine
    (partial) probability.
    """
    size = n_samples + 1
    comb = _binomial_table(size)
    state = np.zeros((size, size, 2))
    state[0, 0, 0] = 1.0
    for p, flag in zip(probs, marked):
        powers = float(p) ** np.arange(size)
        new = np.zeros_like(state)
        for c in range(size):
            s_max = n_samples - c
            # C(n_samples - s, c) for s = 0..s_max.
            coeff = comb[c:, c][::-1] * powers[c]
            block = state[: s_max + 1] * coeff[:, None, None]
            # count <= running max: max and winner unchanged
            new[c : c + s_max + 1, c:, :] += block[:, c:, :]
            # strict improvement: new max c, winner becomes this item
            if c > 0:
                new[c : c + s_max + 1, c, 1 if flag else 0] += block[:, :c, :].sum(axis=(1, 2))
        state = new
    return float(state[n_samples, :, 1].sum())


def _exact_random_tie(
    p_marked: float, p_unmarked: float, marked_count: int, n_items: int, n_samples: int
) -> float:
    """Majority success probability with uniform-random tie-breaking.

    Marked items are exchangeable (equal probability), so the success
    probability is marked_count times the chance that one designated
    marked item wins.  The dynamic program fixes that item's count first
    and folds in the remaining items, tracking (samples used, maximum
    count, number of items sharing the maximum); states where another
    item strictly exceeds the designated count are dropped as dead.
    Final states are credited 1/b for a b-way tie.
    """
    if marked_count == 0:
        return 0.0
    size = n_samples + 1
    comb = _binomial_table(size)
    state = np.zeros((size, size, n_items + 1))
    for m0 in range(1, size):
        state[m0, m0, 1] = comb[n_samples, m0] * p_marked**m0
    others = [p_marked] * (marked_count - 1) + [p_unmarked] * (n_items - marked_count)
    for p in others:
        powers = float(p) ** np.arange(size)
        new = np.zeros_like(state)
        for c in range(size):
            s_max = n_samples - c
            # C(n_samples - s, c) for s = 0..s_max.
            coeff = comb[c:, c][::-1] * powers[c]
            block = state[: s_max + 1] * coeff[:, None, None]
            # count below the max: nothing changes
            new[c : c + s_max + 1, c + 1 :, :] += block[:, c + 1 :, :]
            # count ties the max: one more item shares it
            if c >= 1:
                new[c : c + s_max + 1, c, 1:] += block[:, c, :-1]
        state = new
    credit = state[n_samples, :, 1:].sum(axis=0) / np.arange(1, n_items + 1)
    return marked_count * float(credit.sum())


def exact_success_probability(
    model: AmplitudeModel,
    pred: BooleanPredicate,
    n_samples: int,
    tie_break: TieBreak = "lowest_index",
    work_cap: int = DEFAULT_EXACT_WORK_CAP,
) -> float:
    """Exact probability that the majority winner is a marked item.

    Equals the sum of multinomial probabilities over all frequency
    vectors, crediting each by its tie-break outcome (random ties are
    credited fractionally).
    """
    _check_predicate(model, pred)
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    _check_exact_work(model.n_items, n_samples, work_cap)
    probs = per_sample_distribution(model, pred)
    if tie_break == "lowest_index":
        marked = [pred.value(j) == 1 for j in range(1, model.n_items + 1)]
        return _exact_lowest_index(probs, marked, n_samples)
    if tie_break == "random":
        return _exact_random_tie(
            model.p_marked, model.p_unmarked, model.marked_count, model.n_items, n_samples
        )
    raise DomainError(f"unknown tie-break policy {tie_break!r}")


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float


def monte_carlo_success_probability(
    model: AmplitudeModel,
    pred: BooleanPredicate,
    n_samples: int,
    trials: int,
    seed: int | None = None,
    tie_break: TieBreak = "lowest_index",
) -> MonteCarloEstimate:
    """Estimate the majority success probability from seeded trials.

    Each trial draws an independent size-n_samples sample set and runs
    the majority vote.  Trial RNG streams are spawned from (seed, trial
    index), so the estimate does not depend on execution order.  Each is
    built as `SeedSequence.spawn` would, but only when its trial runs.
    """
    _check_predicate(model, pred)
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    if trials < 1:
        raise DomainError(f"trial count must be >= 1, got {trials}")
    pvec = per_sample_distribution(model, pred)
    pvec = pvec / pvec.sum()
    root = np.random.SeedSequence(seed)
    successes = 0
    for i in range(trials):
        stream = np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, i), pool_size=root.pool_size
        )
        rng = np.random.default_rng(stream)
        counts = rng.multinomial(n_samples, pvec)
        frequencies = {j + 1: int(c) for j, c in enumerate(counts) if c > 0}
        winner, _ = winner_from_frequencies(frequencies, tie_break, rng)
        successes += pred.value(winner)
    estimate = successes / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(estimate=estimate, std_error=std_error)


def scheduled_sample_count(n_items: int, constant_c: float) -> int:
    """Sample-count schedule ceil(c * N * log2(N)^2)."""
    _check_power_of_two(n_items)
    if constant_c <= 0:
        raise DomainError(f"schedule constant must be > 0, got {constant_c}")
    log = math.log2(n_items)
    return math.ceil(constant_c * n_items * log * log)
