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
from functools import lru_cache
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


@lru_cache(maxsize=8)
def _occurrence_masks(params: SearchParameters) -> np.ndarray:
    """Net incidence flips of steps 3 and 5, by sample-register value.

    masks[c] is the XOR over registers i of 1 << digit_i(c): incidence
    qubit j, bit j-1 above the sample qubits, flips once per register
    that holds item j.  Built one register at a time: with register i
    the top digit d, masks[d * N**(i-1) + c'] = (1 << d) XOR the masks
    of the registers below at c'.  Read-only, since every caller shares it.
    """
    flips = 1 << np.arange(params.n_items, dtype=np.int64)
    masks = np.zeros(1, dtype=np.int64)
    for _ in range(params.n_samples):
        masks = (flips[:, None] ^ masks[None, :]).reshape(-1)
    masks.setflags(write=False)
    return masks


def _run_rows(state: StateVector, params: SearchParameters, pred: BooleanPredicate) -> None:
    """Steps 2a-6 on the two rows where the incidence register reads 0,
    one per ancilla value, in place: views of `state`, which holds no
    other nonzero amplitude outside the query."""
    k = params.item_bits * params.n_samples
    lower, upper = (StateVector(k, row) for row in state.amplitudes.reshape(2, -1, 1 << k)[:, 0])
    # Step 2a: the upper row holds only zeros until the ancilla's Hadamard.
    sv.apply_hadamards(lower, range(k))
    sv.apply_pair_hadamard(lower, upper)  # the ancilla's Hadamard
    upper.amplitudes *= -1.0  # step 2b
    # Steps 3-5: the rows swap where the net incidence flips reach a value
    # of odd parity under step 4's controls.
    sv.swap_where_odd(lower, upper, _occurrence_masks(params), pred.to_mask())
    for row in (lower, upper):
        sv.apply_register_inversions(row, params.item_bits, params.n_samples)


def run_circuit(
    params: SearchParameters,
    pred: BooleanPredicate,
    capture: bool = False,
) -> CircuitRun:
    """Execute the circuit; with capture, snapshot the state after each step.

    Capture applies every gate record literally, and refuses an instance
    whose seven states (working state plus six snapshots) physical memory
    cannot hold.  Without it, no gate list is built and each step is
    derived from the instance and the predicate.  The circuit starts from
    |0...0>, and its query returns the incidence register to 0, so outside
    the query only the two rows of incidence value 0, one per ancilla
    value, hold amplitudes.  The run allocates the full state and applies
    every step to those two rows alone, each a contiguous view of the
    sample qubits' 2**(item_bits * n_samples) amplitudes; nothing else of
    the state is read or written.  Step 2a's sample Hadamards (on the
    lower row, as the upper holds only zeros until the ancilla's
    Hadamard) and step 6's reflections, one block I - 2J/N per register
    on each row, go through the block kernel of `statevector`; the
    ancilla's Hadamard and step 2b act on the pair.  Steps 3-5, the
    query, swap the two rows where step 3's net incidence flips (an XOR
    keyed by the sample registers) reach a value of odd parity under
    step 4's controls.  Each step equals its records up to rounding and
    the sign of zeros, steps 3-5 exactly.  Both runs check the predicate
    size and the capacity for the states they keep before they allocate.
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
    """Joint probabilities of the sample qubits' values, as
    `marginal_distribution` over all sample qubits gives them.

    The k sample qubits are the lowest ones, so each column of the float
    view's rows of 2 << k floats holds one part (real or imaginary) of
    one joint value: one two-axis contraction sums its squares, and each
    column pair then sums to a probability.
    """
    rows = final_state.amplitudes.view(np.float64).reshape(
        -1, 2 << (params.item_bits * params.n_samples)
    )
    return np.einsum("ij,ij->j", rows, rows).reshape(-1, 2).sum(axis=1)


def measure_samples(
    final_state: StateVector,
    params: SearchParameters,
    rng: np.random.Generator | int | None = None,
) -> SampleTuple:
    """Draw one item per sample register from its exact marginal.

    Registers are unentangled after the final step, so per-register
    marginals reproduce the joint measurement distribution.  One joint
    marginal over all sample qubits is summed down to each register's.
    """
    if final_state.n_qubits != params.total_qubits:
        raise DomainError(
            f"state has {final_state.n_qubits} qubits, the instance expects {params.total_qubits}"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    joint = _sample_marginal(final_state, params).reshape((params.n_items,) * params.n_samples)
    values = []
    # Register i is the digit of weight N**(i-1), axis n_samples - i.
    for axis in reversed(range(params.n_samples)):
        marg = joint.sum(axis=tuple(a for a in range(params.n_samples) if a != axis))
        marg = marg / marg.sum()
        values.append(int(rng.choice(params.n_items, p=marg)) + 1)
    return SampleTuple(tuple(values))


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
