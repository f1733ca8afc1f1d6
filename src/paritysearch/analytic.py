"""Closed-form model of the state after one inversion step.

All marked items share one signed amplitude and all unmarked items
another, so scalars describe the whole per-register state:

    marked_amp   = (3 - 4t/N) / sqrt(N)
    unmarked_amp = (1 - 4t/N) / sqrt(N)

with t the number of marked items.  On top of the per-sample measurement
distribution this module computes the probability that the majority vote
over n_samples independent draws lands on a marked item (success) or on
an unmarked one (failure) - exactly, and approximately by seeded Monte
Carlo.

The exact engine uses Levin's representation of the multinomial (B. Levin,
Ann. Statist. 9 (1981) 1123-1126): fixing one item's count m, the chance
that it wins is a coefficient of a product of truncated Poisson series,
one per class of the other items, taken for every m at once with FFT
products in float64.  Failure is summed over unmarked winners, never
taken as 1 - success, so it keeps its relative accuracy when tiny.
Against exact rationals, success agrees to about 1e-13 absolute and
failure to about 1e-10 relative (both about 3e-14 at N=8 and N=16).

Monte Carlo draws a chunk of trials per numpy call, each chunk from its
own stream spawned from (seed, chunk index).  Below 4 samples per item a
trial draws its samples one by one (O(eta)); from there on one
multinomial call draws its counts (O(N)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import statevector as sv
from .circuit import TieBreak
from .errors import CapacityError, DomainError
from .oracle import BooleanPredicate, _check_power_of_two
from .statevector import StateVector

# An admission rule, not the engine's cost: it keeps the estimate
# N * (n_samples+1)^3 of the dynamic programs the engine replaced, so every
# input refused before is still refused (the caller falls back to Monte
# Carlo) until one resource budget prices the engine itself.
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
    model: AmplitudeModel, pred: BooleanPredicate, n_samples: int
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
    sv.check_capacity(total_qubits, 1, "product state", f"{item_bits}*{n_samples}")
    single = np.array(
        [model.marked_amp if pred.value(j) else model.unmarked_amp
         for j in range(1, model.n_items + 1)],
        dtype=np.complex128,
    )
    full = single
    for _ in range(n_samples - 1):
        full = np.kron(full, single)
    return StateVector(total_qubits, full)


# The engine.  Fix a designated item d with probability p_d and its count
# m.  By Levin's representation the chance that d holds m samples and
# every other item j a count in an allowed set is
#
#     eta! p_d^m / m! * [z^(eta-m)] prod_j sum_{c allowed} (p_j z)^c / c!,
#
# one truncated Poisson factor per item: counts < m for the items before d
# and <= m for those after (lowest index), or <= m with the 1/(k+1) credit
# of a (k+1)-way tie taken as the integral of x^k over [0, 1] (random).
# Items of one class share a factor, so a class enters as a power.  Every
# m is one row of a batch; each row keeps coefficients 0..eta-1 of z,
# scaled to peak 1 with the log of the scale held beside the row, and z is
# tilted per row (z -> e^u z) so that the coefficient read sits near the
# row's peak, where the FFT's error, relative to the peak, is smallest.

# A batch of polynomials, one row per m: (coefficients scaled to peak 1,
# the log of each row's scale).
_Rows = tuple[np.ndarray, np.ndarray]

_TILT_NEWTON_STEPS = 3


def _multiply(a: _Rows | None, b: _Rows | None) -> _Rows | None:
    """Row-wise product of two batches, cut to their length; None is the constant 1."""
    if a is None or b is None:
        return b if a is None else a
    length = a[0].shape[-1]
    size = 2 * length
    spectrum = np.fft.rfft(a[0], size)
    spectrum *= spectrum if b is a else np.fft.rfft(b[0], size)
    product = np.fft.irfft(spectrum, size)[..., :length]
    # Every true coefficient is >= 0; what falls below is FFT noise.
    np.maximum(product, 0.0, out=product)
    peak = product.max(axis=-1)
    return product / peak[..., None], a[1] + b[1] + np.log(peak)


def _power(base: _Rows, exponent: int, squares: list[_Rows]) -> _Rows | None:
    """base**exponent by repeated squaring; `squares` caches base**(2**i) across calls."""
    if not squares:
        squares.append(base)
    result = None
    bit = 0
    while exponent >> bit:
        if bit == len(squares):
            squares.append(_multiply(squares[-1], squares[-1]))
        if exponent >> bit & 1:
            result = _multiply(result, squares[bit])
        bit += 1
    return result


def _coefficient(a: _Rows | None, b: _Rows | None, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient `degree` (one per row) of the product a*b, as (value, log scale)."""
    if b is None:
        a, b = b, a
    if b is None:
        return (degree == 0).astype(float), np.zeros(degree.shape)
    if a is None:
        return np.take_along_axis(b[0], degree[..., None], -1)[..., 0], b[1]
    lag = degree[..., None] - np.arange(a[0].shape[-1])
    inside = lag >= 0
    b_lagged = np.take_along_axis(b[0], np.where(inside, lag, 0), -1)
    return np.einsum("...j,...j->...", a[0], np.where(inside, b_lagged, 0.0)), a[1] + b[1]


def _series(log_rate: float, tilt: np.ndarray, top: np.ndarray, log_fact: np.ndarray,
            log_top_weight: np.ndarray | float = 0.0) -> _Rows:
    """Rows sum_{c <= top} (rate e^tilt z)^c / c!, the top term weighted by e^log_top_weight."""
    c = np.arange(len(log_fact) - 1)
    log_coef = c * (log_rate + tilt)[:, None] - log_fact[:-1]
    log_coef = np.where(c == top[:, None], log_coef + np.asarray(log_top_weight)[..., None, None],
                        log_coef)
    log_coef = np.where(c <= top[:, None], log_coef, -np.inf)
    peak = log_coef.max(axis=-1)
    return np.exp(log_coef - peak[..., None]), peak


def _tilt(classes: list[tuple[int, float]], m: np.ndarray, degree: np.ndarray,
          log_fact: np.ndarray) -> np.ndarray:
    """Per-row log z-scale at which the others' product has mean `degree`.

    Each of the classes' (count, log rate) items is a Poisson count cut at
    m with the top term at half weight, halfway between "< m" and "<= m".
    The start ignores the cut; a few Newton steps in log z correct it.
    Any tilt gives the same exact value; only the rounding depends on it.
    """
    counts = np.array([n for n, _ in classes], dtype=float)
    log_rates = np.array([r for _, r in classes])
    if not counts.any():
        return np.zeros(len(m))
    target = np.maximum(degree, 0.5)
    u = np.log(target / (counts @ np.exp(log_rates)))
    c = np.arange(len(log_fact))
    cut = np.where(c < m[:, None], 0.0, np.where(c == m[:, None], math.log(0.5), -np.inf))
    base = c * log_rates[:, None, None] - log_fact + cut
    for _ in range(_TILT_NEWTON_STEPS):
        log_w = base + c * u[:, None]
        w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
        total = w.sum(axis=-1)
        mean = (w @ c) / total
        variance = (w @ (c * c)) / total - mean * mean
        step = (target - counts @ mean) / np.maximum(counts @ variance, 1e-12)
        u += np.clip(step, -2.0, 2.0)
    return u


# A cap, not a count: Newton's method stops after 4-5 steps up to count=1000.
_LEGENDRE_NEWTON_STEPS = 10


@functools.lru_cache(maxsize=64)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """log x and weights of the count-point Gauss-Legendre rule on [0, 1].

    Newton's method on P_count, evaluated by the three-term recurrence,
    from cos(pi (i - 1/4) / (count + 1/2)); (1 - x)(1 + x) keeps the
    weights free of cancellation near the ends.
    """
    x = np.cos(np.pi * (np.arange(1, count + 1) - 0.25) / (count + 0.5))
    for _ in range(_LEGENDRE_NEWTON_STEPS):
        below, value = np.ones_like(x), x
        for k in range(2, count + 1):
            below, value = value, ((2 * k - 1) * x * value - (k - 1) * below) / k
        slope = count * (below - x * value) / ((1.0 - x) * (1.0 + x))
        step = value / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    return np.log1p((x - 1.0) / 2.0), weights / 2.0


def _vote_win_probability(designated: list[bool], p_designated: float, p_other: float,
                          n_samples: int, tie_break: TieBreak) -> float:
    """Probability that the majority winner is one of the designated items.

    designated[j] flags item j+1; designated items have probability
    p_designated and the others p_other.
    """
    count = sum(designated)
    if count == 0 or p_designated == 0.0:
        return 0.0
    if p_other == 0.0:
        # The others never draw a sample, so they never reach the winner's count.
        designated = [True] * count
    n_items, eta = len(designated), n_samples
    m = np.arange(1, eta + 1)
    degree = eta - m
    log_fact = np.array([math.lgamma(c + 1) for c in range(eta + 1)])
    log_pd = math.log(p_designated)
    log_po = math.log(p_other) if p_other > 0.0 else 0.0
    u = _tilt([(count - 1, log_pd), (n_items - count, log_po)], m, degree, log_fact)
    log_weight = log_fact[eta] + m * log_pd - log_fact[m] - degree * u

    if tie_break == "lowest_index":
        positions = [j for j, flag in enumerate(designated) if flag]
        gaps = np.diff([-1, *positions, n_items]) - 1
        lt_d, le_d = (_series(log_pd, u, m - 1, log_fact), _series(log_pd, u, m, log_fact))
        lt_o, le_o = (_series(log_po, u, m - 1, log_fact), _series(log_po, u, m, log_fact))
        lt_squares: list[_Rows] = []
        le_squares: list[_Rows] = []
        prefixes = [_power(lt_o, int(gaps[0]), lt_squares)]
        for gap in gaps[1:-1]:
            prefixes.append(_multiply(_multiply(prefixes[-1], lt_d), _power(lt_o, int(gap), lt_squares)))
        suffix = _power(le_o, int(gaps[-1]), le_squares)
        total = 0.0
        for i in range(count - 1, -1, -1):
            # The others can hold at most m-1 samples each before d, m after it.
            reachable = (n_items - 1) * m - positions[i] >= degree
            value, scale = _coefficient(prefixes[i], suffix, degree)
            total += float(np.exp(np.where(reachable, log_weight + scale, -np.inf)) @ value)
            if i:
                suffix = _multiply(_multiply(suffix, le_d), _power(le_o, int(gaps[i]), le_squares))
        return total
    # Random ties: the integrand is a polynomial in x of degree at most
    # min(N-1, eta-1), the most others that can tie, so Gauss-Legendre
    # with that many nodes over two is exact.
    log_x, weights = _gauss_legendre(min(n_items - 1, eta - 1) // 2 + 1)
    same = _power(_series(log_pd, u, m, log_fact, log_x), count - 1, [])
    other = _power(_series(log_po, u, m, log_fact, log_x), n_items - count, [])
    value, scale = _coefficient(same, other, np.broadcast_to(degree, (len(log_x), eta)))
    reachable = n_items * m >= eta
    terms = np.exp(np.where(reachable, log_weight + scale, -np.inf)) * value
    return count * float(weights @ terms.sum(axis=-1))


def _exact_vote(model: AmplitudeModel, pred: BooleanPredicate, n_samples: int,
                tie_break: TieBreak, marked_wins: bool) -> float:
    _check_predicate(model, pred)
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    if tie_break not in ("lowest_index", "random"):
        raise DomainError(f"unknown tie-break policy {tie_break!r}")
    work = model.n_items * (n_samples + 1) ** 3
    if work > DEFAULT_EXACT_WORK_CAP:
        raise CapacityError(
            f"exact computation needs ~{work} cell updates, above the cap of "
            f"{DEFAULT_EXACT_WORK_CAP}; use the Monte Carlo estimator instead"
        )
    designated = [pred.value(j) == marked_wins for j in range(1, model.n_items + 1)]
    p_designated, p_other = model.p_marked, model.p_unmarked
    if not marked_wins:
        p_designated, p_other = p_other, p_designated
    return _vote_win_probability(designated, p_designated, p_other, n_samples, tie_break)


def exact_success_probability(
    model: AmplitudeModel,
    pred: BooleanPredicate,
    n_samples: int,
    tie_break: TieBreak = "lowest_index",
) -> float:
    """Exact probability that the majority winner is a marked item.

    Equals the sum of multinomial probabilities over all frequency
    vectors, crediting each by its tie-break outcome (random ties are
    credited fractionally).
    """
    return _exact_vote(model, pred, n_samples, tie_break, marked_wins=True)


def exact_failure_probability(
    model: AmplitudeModel,
    pred: BooleanPredicate,
    n_samples: int,
    tie_break: TieBreak = "lowest_index",
) -> float:
    """Exact probability that the majority winner is an unmarked item.

    Summed directly over unmarked winners, not taken as 1 minus the
    success probability, so it keeps its relative accuracy when tiny.
    """
    return _exact_vote(model, pred, n_samples, tie_break, marked_wins=False)


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float


# Monte Carlo runs its trials in chunks of max(1, 2**15 // width), width
# being the row length of the chunk's largest array: max(eta, N) when
# sampling (below 4N), N for the multinomial draw, which holds nothing
# eta-sized.  An array thus holds at most max(2**15, 4N) entries, 256 KiB as
# int64 or float64 up to N=8192, whatever the trials or n_samples.
_CHUNK_ENTRIES = 1 << 15
# Below this many samples per item each sample is drawn on its own, O(eta)
# per trial; from it on one multinomial call draws the counts, O(N) per
# trial.  4 lies between the measured crossovers, 2N at N=16 and 8N at N=1024.
_SAMPLING_SAMPLES_PER_ITEM = 4
_BYTES_PER_ENTRY = 32  # peak bytes per entry of a chunk's largest row, per-item arrays included


def _count_draw(model: AmplitudeModel, is_marked: np.ndarray, n_samples: int):
    """(draw, width): draw(rng, rows) gives a (rows, N) matrix of item counts.

    Each row is one trial's counts of n_samples draws from the per-sample
    distribution.  width is the entries per row of draw's largest array.
    """
    n_items, n_marked = model.n_items, model.marked_count
    if n_samples >= _SAMPLING_SAMPLES_PER_ITEM * n_items:
        pvec = np.where(is_marked, model.p_marked, model.p_unmarked)
        pvec /= pvec.sum()
        return (lambda rng, rows: rng.multinomial(n_samples, pvec, size=rows)), n_items

    # A sample is marked with probability q, then uniform within its class.
    # Positions index the items with the marked ones first.
    marked_mass = n_marked * model.p_marked
    q = marked_mass / (marked_mass + (n_items - n_marked) * model.p_unmarked)
    order = np.argsort(~is_marked, kind="stable")
    column = np.argsort(order)

    def draw(rng: np.random.Generator, rows: int) -> np.ndarray:
        shape = (rows, n_samples)
        if 0 < n_marked < n_items:
            hit = rng.random(shape) < q
            positions = rng.integers(n_marked, n_items, shape)
            np.copyto(positions, rng.integers(0, n_marked, shape), where=hit)
        else:  # one class holds every item
            positions = rng.integers(0, n_items, shape)
        positions += np.arange(0, rows * n_items, n_items)[:, None]
        counts = np.bincount(positions.ravel(), minlength=rows * n_items)
        return counts.reshape(rows, n_items)[:, column]

    return draw, max(n_samples, n_items)


def _majority_winners(counts: np.ndarray, tie_break: TieBreak,
                      rng: np.random.Generator) -> np.ndarray:
    """Each row's winning column: the first of the tied (lowest_index) or a uniform one (random)."""
    if tie_break == "random":
        # Counts are integers, so noise below 1/2 only orders the tied items.
        noise = rng.random(counts.shape)
        noise *= 0.5
        noise += counts
        counts = noise
    return counts.argmax(axis=1)


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
    the majority vote.  Trials run in chunks of a fixed size, and chunk k
    draws from the stream spawned from (seed, k), built as
    `SeedSequence.spawn` would but only when the chunk runs.  The estimate
    depends only on the seed, the inputs and the trial count, never on
    execution order.
    """
    _check_predicate(model, pred)
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    if trials < 1:
        raise DomainError(f"trial count must be >= 1, got {trials}")
    if tie_break not in ("lowest_index", "random"):
        raise DomainError(f"unknown tie-break policy {tie_break!r}")
    if n_samples > np.iinfo(np.int64).max:
        raise DomainError(f"sample count {n_samples} exceeds 2**63 - 1")
    # `_count_draw`'s width, before any N-sized array exists.
    width = max(n_samples, model.n_items)
    if n_samples >= _SAMPLING_SAMPLES_PER_ITEM * model.n_items:
        width = model.n_items
    have = sv.physical_memory_bytes()
    if have is not None and _BYTES_PER_ENTRY * width > have:
        raise CapacityError(f"Monte Carlo rows of {width} entries need {_BYTES_PER_ENTRY * width / 2**30:.1f}"
                            f" GiB, more than the {have / 2**30:.1f} GiB of physical memory")
    is_marked = np.zeros(model.n_items, dtype=bool)
    is_marked[[j - 1 for j in pred.marks]] = True
    draw, _ = _count_draw(model, is_marked, n_samples)
    chunk = max(1, _CHUNK_ENTRIES // width)
    root = np.random.SeedSequence(seed)
    successes = 0
    for k, start in enumerate(range(0, trials, chunk)):
        stream = np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, k), pool_size=root.pool_size
        )
        rng = np.random.default_rng(stream)
        counts = draw(rng, min(chunk, trials - start))
        successes += int(is_marked[_majority_winners(counts, tie_break, rng)].sum())
    estimate = successes / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(estimate=estimate, std_error=std_error)


def scheduled_sample_count(n_items: int, constant_c: float) -> int:
    """Sample-count schedule ceil(c * N * log2(N)^2)."""
    _check_power_of_two(n_items)
    if not 0 < constant_c < math.inf:  # NaN fails both
        raise DomainError(f"schedule constant must be finite and > 0, got {constant_c}")
    log = math.log2(n_items)
    return math.ceil(constant_c * n_items * log * log)
