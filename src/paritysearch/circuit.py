"""Build and run the single-parity-query search circuit.

The circuit acts on item_bits*n_samples + N + 1 qubits laid out by
RegisterLayout and proceeds in the following steps (step 1 prepares the
all-zero state and emits no gates):

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
from typing import Iterable, Literal, Mapping

import numpy as np

from . import statevector as sv
from .errors import DomainError
from .oracle import BooleanPredicate, SampleTuple, SearchParameters
from .statevector import RegisterLayout, StateVector

TieBreak = Literal["lowest_index", "random"]

STEP_ORDER = ("step2a", "step2b", "step3", "step4", "step5", "step6")


@dataclass(frozen=True)
class GateRecord:
    """One abstract gate: kind, acting qubits, control value, emitting step."""

    kind: Literal["hadamard", "sigma_z", "value_controlled_flip", "value_controlled_phase"]
    step: str
    controls: tuple[int, ...] = ()
    value: int | None = None
    target: int | None = None

    def trace_line(self) -> str:
        parts = [self.step, self.kind]
        if self.controls:
            parts.append("controls=" + ",".join(str(q) for q in self.controls))
        if self.value is not None:
            parts.append(f"value={self.value}")
        if self.target is not None:
            parts.append(f"target={self.target}")
        return " ".join(parts)


def gate_trace(records: Iterable[GateRecord]) -> str:
    """Line-oriented text form of a gate list, one record per line."""
    return "\n".join(r.trace_line() for r in records)


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


def layout_for(params: SearchParameters) -> RegisterLayout:
    return RegisterLayout(
        item_bits=params.item_bits, n_samples=params.n_samples, n_items=params.n_items
    )


def _checked_layout(
    params: SearchParameters, pred: BooleanPredicate, copies: int
) -> RegisterLayout:
    """The instance's layout, once the predicate fits it and `copies` of
    its state fit the capacity (see `statevector.check_capacity`).  Both
    checks allocate nothing."""
    if pred.size != params.n_items:
        raise DomainError(f"predicate size {pred.size} != item count {params.n_items}")
    layout = layout_for(params)
    sv.check_capacity(
        layout.total_qubits, copies, "instance",
        f"{layout.item_bits}*{layout.n_samples}+{layout.n_items}+1",
    )
    return layout


def _occurrence_parity_pass(layout: RegisterLayout, step: str) -> list[GateRecord]:
    records = []
    for i in range(1, layout.n_samples + 1):
        controls = layout.sample_qubits(i)
        for j in range(1, layout.n_items + 1):
            records.append(
                GateRecord(
                    kind="value_controlled_flip",
                    step=step,
                    controls=controls,
                    value=j - 1,
                    target=layout.incidence_qubit(j),
                )
            )
    return records


def build_circuit(params: SearchParameters, pred: BooleanPredicate) -> list[GateRecord]:
    """Emit the ordered gate list for one search instance."""
    layout = _checked_layout(params, pred, copies=0)  # the list holds no state

    records: list[GateRecord] = []
    for q in layout.all_sample_qubits():
        records.append(GateRecord(kind="hadamard", step="step2a", target=q))
    records.append(GateRecord(kind="hadamard", step="step2a", target=layout.ancilla_qubit))
    records.append(GateRecord(kind="sigma_z", step="step2b", target=layout.ancilla_qubit))

    records.extend(_occurrence_parity_pass(layout, "step3"))
    for j in sorted(pred.marks):
        records.append(
            GateRecord(
                kind="value_controlled_flip",
                step="step4",
                controls=(layout.incidence_qubit(j),),
                value=1,
                target=layout.ancilla_qubit,
            )
        )
    records.extend(_occurrence_parity_pass(layout, "step5"))

    for i in range(1, layout.n_samples + 1):
        register = layout.sample_qubits(i)
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
def _occurrence_masks(layout: RegisterLayout) -> np.ndarray:
    """Net incidence flips of steps 3 and 5, by sample-register value.

    masks[c] is the XOR over registers i of 1 << digit_i(c): incidence
    qubit j, bit j-1 above the sample qubits, flips once per register
    that holds item j.  Read-only, since every caller shares it.
    """
    values = np.arange(1 << (layout.item_bits * layout.n_samples))
    masks = np.zeros_like(values)
    for i in range(layout.n_samples):
        masks ^= 1 << ((values >> (i * layout.item_bits)) & (layout.n_items - 1))
    masks.setflags(write=False)
    return masks


def _apply_step(
    state: StateVector, layout: RegisterLayout, pred: BooleanPredicate, step: str
) -> None:
    """Apply one step, or steps 3-5 as one pass, derived from the layout
    and the predicate, as the fused pass where the step has one."""
    ancilla = layout.ancilla_qubit
    if step == "step2a":
        sv.apply_hadamards(state, [*layout.all_sample_qubits(), ancilla])
    elif step == "step2b":
        sv.apply_sigma_z(state, ancilla)
    elif step == "step3-5":
        # Incidence qubit j is bit j-1 of the high qubits and the ancilla
        # their top bit, so the mask's bits pick step 4's controls.
        sv.apply_xor_permutation(
            state, layout.item_bits * layout.n_samples, _occurrence_masks(layout), pred.to_mask()
        )
    else:
        sv.apply_register_inversions(state, layout.item_bits, layout.n_samples)


def run_circuit(
    params: SearchParameters,
    pred: BooleanPredicate,
    capture: bool = False,
) -> CircuitRun:
    """Execute the circuit; with capture, snapshot the state after each step.

    Capture applies every gate record literally, and refuses an instance
    whose seven states (working state plus six snapshots) physical memory
    cannot hold.  Without it, no gate list is built: each step is derived
    from the layout and the predicate.  Steps 2a and 6 go through the
    block kernel of `statevector`, as Hadamard blocks and as one
    reflection block I - 2J/N per sample register; it skips the state's
    all-zero pieces, all but incidence row 0 at step 2a and all but the
    two rows of incidence value 0 at step 6.  Steps 3-5, the query,
    are one pass: each cache-sized block of the state takes step 3's net
    incidence flips (an XOR keyed by the sample registers), step 4's as
    one parity-keyed swap of the ancilla, and step 5's in turn.  Each step
    equals its records up to rounding, steps 3-5 byte for byte.  Both runs
    check the predicate size and the capacity for the states they keep
    before they allocate.
    """
    layout = _checked_layout(params, pred, copies=7 if capture else 1)
    state = sv.zero_state(layout.total_qubits)
    if not capture:
        for step in ("step2a", "step2b", "step3-5", "step6"):
            _apply_step(state, layout, pred, step)
        return CircuitRun(final_state=state)

    records = build_circuit(params, pred)
    intermediates = {"step1": state.copy()}
    snapshot_after = {"step2b": "step2", "step3": "step3", "step4": "step4",
                      "step5": "step5", "step6": "step6"}
    for step in STEP_ORDER:
        for record in records:
            if record.step == step:
                apply_record(state, record)
        if step in snapshot_after:
            intermediates[snapshot_after[step]] = state.copy()
    return CircuitRun(final_state=state, intermediates=intermediates)


def _sample_marginal(final_state: StateVector, layout: RegisterLayout) -> np.ndarray:
    """Joint probabilities of the sample qubits' values, as
    `marginal_distribution` over all sample qubits gives them.

    The k sample qubits are the lowest ones, so each column of the float
    view's rows of 2 << k floats holds one part (real or imaginary) of
    one joint value: one two-axis contraction sums its squares, and each
    column pair then sums to a probability.
    """
    rows = final_state.amplitudes.view(np.float64).reshape(
        -1, 2 << (layout.item_bits * layout.n_samples)
    )
    return np.einsum("ij,ij->j", rows, rows).reshape(-1, 2).sum(axis=1)


def measure_samples(
    final_state: StateVector,
    layout: RegisterLayout,
    rng: np.random.Generator | int | None = None,
) -> SampleTuple:
    """Draw one item per sample register from its exact marginal.

    Registers are unentangled after the final step, so per-register
    marginals reproduce the joint measurement distribution.  One joint
    marginal over all sample qubits is summed down to each register's.
    """
    if final_state.n_qubits != layout.total_qubits:
        raise DomainError(
            f"state has {final_state.n_qubits} qubits, layout expects {layout.total_qubits}"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    joint = _sample_marginal(final_state, layout).reshape((layout.n_items,) * layout.n_samples)
    values = []
    # Register i is the digit of weight N**(i-1), axis n_samples - i.
    for axis in reversed(range(layout.n_samples)):
        marg = joint.sum(axis=tuple(a for a in range(layout.n_samples) if a != axis))
        marg = marg / marg.sum()
        values.append(int(rng.choice(layout.n_items, p=marg)) + 1)
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
    samples = measure_samples(run.final_state, layout_for(params), rng)
    return majority_postprocess(samples, pred, tie_break=tie_break, rng=rng)
