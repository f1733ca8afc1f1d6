"""Build and run the single-parity-query search circuit.

The circuit acts on item_bits*n_samples + N + 1 qubits, mapped by the
instance (`SearchParameters`), and proceeds in the following steps
(step 1 prepares the all-zero state and emits no gates):

  2a  Hadamard every sample qubit and the ancilla
  2b  phase gate on the ancilla (ancilla becomes |0> - |1>)
  3   for each register i and item j, flip incidence qubit j when
      register i encodes item j (accumulates the occurrence parity)
  4   for each marked item j, flip the ancilla off incidence qubit j
      (kicks the subset-parity query into the phase)
  5   repeat step 3's gates, resetting the incidence register
  6   inversion about average on each sample register

Sample register values encode items: register value v is item v+1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from . import statevector as sv
from .errors import DomainError
from .oracle import BooleanPredicate, SampleTuple, SearchParameters
from .statevector import StateVector

TieBreak = Literal["lowest_index", "random"]

_BYTES_PER_RECORD = 160  # a GateRecord and its list slot, 120-157 B by tracemalloc


@dataclass(frozen=True)
class GateRecord:
    """One abstract gate: kind, acting qubits, control value, emitting step."""

    kind: Literal["hadamard", "sigma_z", "value_controlled_flip", "value_controlled_phase"]
    step: str
    controls: tuple[int, ...] = ()
    value: int | None = None
    target: int | None = None


@dataclass(frozen=True)
class SearchOutcome:
    """Measured samples, their frequency table, and the majority winner."""

    samples: SampleTuple
    frequencies: dict[int, int]
    winner: int
    winner_satisfies: int
    tie_detected: bool


@dataclass(frozen=True)
class CircuitRun:
    final_state: StateVector
    intermediates: dict[str, StateVector] | None = None


def layout_for(params: SearchParameters) -> SearchParameters:
    """The instance itself, which holds its qubit map."""
    return params


def _check_instance(params: SearchParameters, pred: BooleanPredicate, copies: int) -> None:
    """Refuse a predicate that does not fit the instance, or `copies` of
    its state past the capacity (see `statevector.check_capacity`).  Both
    checks allocate nothing."""
    if pred.size != params.n_items:
        raise DomainError(f"predicate size {pred.size} != item count {params.n_items}")
    sv.check_capacity(
        params.total_qubits, copies, "instance",
        f"{params.item_bits}*{sv.compact(params.n_samples)}+{sv.compact(params.n_items)}+1",
    )


def _occurrence_parity_pass(params: SearchParameters, step: str) -> list[GateRecord]:
    records = []
    for i in range(1, params.n_samples + 1):
        controls = params.sample_qubits(i)
        for j in range(1, params.n_items + 1):
            records.append(
                GateRecord(
                    kind="value_controlled_flip",
                    step=step,
                    controls=controls,
                    value=j - 1,
                    target=params.incidence_qubit(j),
                )
            )
    return records


def build_circuit(params: SearchParameters, pred: BooleanPredicate) -> list[GateRecord]:
    """Emit the ordered gate list for one search instance, priced before it is built."""
    _check_instance(params, pred, copies=0)  # the list holds no state
    nu, eta, n = params.item_bits, params.n_samples, params.n_items
    count = eta * (3 * nu + 2 * n + 1) + pred.marked_count + 2
    sv.check_memory(count * _BYTES_PER_RECORD, f"a gate list of {count} records")

    records: list[GateRecord] = []
    for q in params.all_sample_qubits():
        records.append(GateRecord(kind="hadamard", step="step2a", target=q))
    records.append(GateRecord(kind="hadamard", step="step2a", target=params.ancilla_qubit))
    records.append(GateRecord(kind="sigma_z", step="step2b", target=params.ancilla_qubit))

    records.extend(_occurrence_parity_pass(params, "step3"))
    for j in sorted(pred.marks):
        records.append(
            GateRecord(
                kind="value_controlled_flip",
                step="step4",
                controls=(params.incidence_qubit(j),),
                value=1,
                target=params.ancilla_qubit,
            )
        )
    records.extend(_occurrence_parity_pass(params, "step5"))

    for i in range(1, params.n_samples + 1):
        register = params.sample_qubits(i)
        for q in register:
            records.append(GateRecord(kind="hadamard", step="step6", target=q))
        records.append(
            GateRecord(kind="value_controlled_phase", step="step6", controls=register, value=0)
        )
        for q in register:
            records.append(GateRecord(kind="hadamard", step="step6", target=q))
    return records


def apply_record(state: StateVector, record: GateRecord) -> StateVector:
    if record.kind == "hadamard":
        return sv.apply_hadamard(state, record.target)
    if record.kind == "sigma_z":
        return sv.apply_sigma_z(state, record.target)
    if record.kind == "value_controlled_flip":
        return sv.apply_value_controlled_flip(state, record.controls, record.value, record.target)
    if record.kind == "value_controlled_phase":
        return sv.apply_value_controlled_phase(state, record.controls, record.value)
    raise DomainError(f"unknown gate kind {record.kind!r}")


def _query_bits(params: SearchParameters, pred: BooleanPredicate) -> np.ndarray:
    """Whether steps 3-5 negate each column of a live row: the parity,
    under step 4's controls, of the incidence value step 3 writes there.

    Step 3's flips are XORs and parity is linear over XOR, so the bit of
    column c is the XOR over registers i of whether digit_i(c) + 1 is
    marked.  Built one register at a time: with register i the top
    digit d, bits[d * N**(i-1) + c'] = marked[d] XOR the bits of the
    registers below at c'.
    """
    marked = bits = pred.to_bools()
    for _ in range(params.n_samples - 1):
        bits = np.bitwise_xor.outer(marked, bits).ravel()
    return bits


def _live_rows(state: StateVector, params: SearchParameters) -> np.ndarray:
    """The (2, 2**(item_bits*n_samples)) view of `state` where the incidence
    register reads 0, one row per ancilla value: a search's only live rows."""
    return state.amplitudes.reshape(2, -1, 1 << (params.item_bits * params.n_samples))[:, 0]


def _run_rows(state: StateVector, params: SearchParameters, pred: BooleanPredicate) -> None:
    """Steps 2a-6 on the lower of `_live_rows(state, params)`, in place; the
    upper row, always its negation, is then written as such."""
    k = params.item_bits * params.n_samples
    lower, upper = _live_rows(state, params)
    row = StateVector(k, lower)
    # Steps 2a-2b make H^k|0> (x) |->: every amplitude of the lower row is
    # 2**(-(k+1)/2).
    lower.fill(2.0 ** (-(k + 1) / 2))
    # Steps 3-5 kick the parity of step 3's incidence value under step 4's
    # controls into the phase and leave the ancilla in |->: the row is
    # negated where that bit is odd.
    np.negative(lower, out=lower, where=_query_bits(params, pred))
    sv.apply_register_inversions(row, params.item_bits, params.n_samples)
    np.negative(lower, out=upper)


def run_circuit(
    params: SearchParameters,
    pred: BooleanPredicate,
    capture: bool = False,
) -> CircuitRun:
    """Execute the circuit; with capture, snapshot the state after each step.

    Capture applies every gate record literally, and refuses an instance
    whose seven states (working state plus six snapshots) physical memory
    cannot hold.  Without it, no gate list is built and each step is derived
    from the instance and the predicate.  The circuit starts from |0...0>,
    and its query returns the incidence register to 0, so outside the query
    only the two rows of incidence value 0, one per ancilla value, hold
    amplitudes, each a contiguous view of the sample qubits'
    2**(item_bits * n_samples) amplitudes.  The ancilla stays in |->, so
    the upper row is always the lower one negated.  The run allocates the
    full state, computes steps 2a-6 on the lower row alone and writes the
    upper row once, as its negation; like `measure_samples`, it reads and
    writes nothing else of the state.  Steps 2a-2b make a known state,
    H^k|0> (x) |-> with k = item_bits * n_samples: the run fills the lower
    row with 2**(-(k+1)/2).  Steps 3-5, the query, negate it where the
    incidence value step 3 writes has odd parity under step 4's controls:
    the XOR over the registers of whether each register's item is marked,
    so the bit of the column is the parity of the marked items in its
    occurrence-parity set.  Step 6's reflections, one block I - 2J/N per
    register, go through the block kernel of `statevector`, which
    commutes with negation bit for bit.  Each step equals its records up
    to rounding and the sign of zeros, steps 3-5 exactly.  Both runs
    check the predicate size and the capacity for the states they keep
    before they allocate.
    """
    _check_instance(params, pred, copies=7 if capture else 1)
    state = sv.zero_state(params.total_qubits)
    if not capture:
        _run_rows(state, params, pred)
        return CircuitRun(final_state=state)

    # Records come grouped by step, in order: snapshot each step as the next
    # one's begin (2a and 2b share one; step 4 gets one even with no records).
    intermediates = {"step1": state.copy()}
    steps = iter(("step2", "step3", "step4", "step5", "step6"))
    step = next(steps)
    for record in build_circuit(params, pred):
        while record.step.rstrip("ab") != step:
            intermediates[step] = state.copy()
            step = next(steps)
        apply_record(state, record)
    intermediates[step] = state.copy()
    return CircuitRun(final_state=state, intermediates=intermediates)


def _sample_marginal(final_state: StateVector, params: SearchParameters) -> np.ndarray:
    """Joint probabilities of the sample qubits' values on `_live_rows`, as
    `marginal_distribution` gives them where all else is 0: per chunk of
    half a piece, in one buffer, each column's squared parts, lower row
    plus upper, then real plus imaginary, as a sum down every row adds them."""
    parts = _live_rows(final_state, params).view(np.float64).reshape(2, -1, 2)
    cols = min(max(sv._PIECE_AMPLITUDES // 2, 1), parts.shape[1])  # powers of two
    sq, out = np.empty((2, cols, 2)), np.empty(parts.shape[1])
    for c in range(0, out.size, cols):
        np.multiply(parts[:, c : c + cols], parts[:, c : c + cols], out=sq)
        np.add(sq[0], sq[1], out=sq[0])
        np.add(sq[0, :, 0], sq[0, :, 1], out=out[c : c + cols])
    return out


def _register_marginals(joint: np.ndarray, n: int, count: int) -> np.ndarray:
    """The (count, n) marginals of the `count` base-n digits of a flat
    joint, top digit first: the joint as (n**(count-h), n**h), h = count // 2,
    summed over each axis, and each half likewise."""
    if count == 1:
        return joint.reshape(1, n)
    h = count // 2
    grid = joint.reshape(-1, n**h)
    return np.concatenate((_register_marginals(grid.sum(axis=1), n, count - h),
                           _register_marginals(grid.sum(axis=0), n, h)))


def measure_samples(
    final_state: StateVector,
    params: SearchParameters,
    rng: np.random.Generator | int | None = None,
) -> SampleTuple:
    """Draw one item per sample register from its exact marginal on the
    slice where the incidence register reads 0; refuse a slice of no
    weight or of weights that are not finite.

    Steps 3-5 return that register to 0 exactly, by swaps under capture
    and as a phase flip without, so a search's final amplitudes off the
    slice are exactly +-0 and the marginal is the full state's, byte for
    byte.  Registers are unentangled after the final step, so
    per-register marginals reproduce the joint measurement distribution.
    One halving reduction of the joint marginal over all sample qubits
    gives every register's: the joint is read twice, each lower level at
    most N**ceil(n_samples/2) values.  One uniform per register, drawn at
    once, picks the item as `rng.choice(N, p=p)` would, from the same
    uniforms in the same order.
    """
    if final_state.n_qubits != params.total_qubits:
        raise DomainError(
            f"state has {final_state.n_qubits} qubits, the instance expects {params.total_qubits}"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    joint = _sample_marginal(final_state, params)
    # Register i is the digit of weight N**(i-1), row n_samples - i.
    marg = _register_marginals(joint, params.n_items, params.n_samples)[::-1]
    total = marg.sum(axis=1, keepdims=True)
    # Every row sums the whole joint, so row 0 shows a zero, NaN or inf.
    if total[0, 0] == 0:
        raise DomainError("state has no amplitude where the incidence register reads 0")
    if not np.isfinite(total[0, 0]):
        raise DomainError("state's weights where the incidence register reads 0 are not finite")
    # choice's draw: the normalised cumulative sum, searched on the right.
    cdf = (marg / total).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    values = (cdf <= rng.random(params.n_samples)[:, None]).sum(axis=1) + 1
    return SampleTuple(tuple(values.tolist()))


def winner_from_frequencies(
    frequencies: Mapping[int, int],
    tie_break: TieBreak = "lowest_index",
    rng: np.random.Generator | None = None,
) -> tuple[int, bool]:
    """Maximal-frequency item under the tie-break policy, plus a tie flag."""
    if not frequencies:
        raise DomainError("empty frequency table")
    best = max(frequencies.values())
    tied = sorted(item for item, count in frequencies.items() if count == best)
    tie_detected = len(tied) > 1
    if tie_break == "lowest_index":
        return tied[0], tie_detected
    if tie_break == "random":
        if rng is None:
            rng = np.random.default_rng()
        return tied[int(rng.integers(len(tied)))], tie_detected
    raise DomainError(f"unknown tie-break policy {tie_break!r}")


def majority_postprocess(
    samples: SampleTuple,
    pred: BooleanPredicate,
    tie_break: TieBreak = "lowest_index",
    rng: np.random.Generator | int | None = None,
) -> SearchOutcome:
    """Pick the most frequent sample as the search output."""
    if not samples.values:
        raise DomainError("cannot post-process an empty sample tuple")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    frequencies = dict(Counter(samples.values))
    winner, tie_detected = winner_from_frequencies(frequencies, tie_break, rng)
    return SearchOutcome(
        samples=samples,
        frequencies=frequencies,
        winner=winner,
        winner_satisfies=pred.value(winner),
        tie_detected=tie_detected,
    )


def run_search(
    params: SearchParameters,
    pred: BooleanPredicate,
    seed: int | None = None,
    tie_break: TieBreak = "lowest_index",
) -> SearchOutcome:
    """Full pipeline: simulate, measure every register, majority-vote."""
    run = run_circuit(params, pred, capture=False)
    rng = np.random.default_rng(seed)
    samples = measure_samples(run.final_state, params, rng)
    return majority_postprocess(samples, pred, tie_break=tie_break, rng=rng)
