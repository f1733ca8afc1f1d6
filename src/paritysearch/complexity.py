"""Gate-count accounting under explicit cost models.

A tally is its per-step table of gate counts, and its totals are the
table's sums.  The weighted total depends on a cost model: a fixed
constant for decomposing an n-controlled gate into elementary two-qubit
gates, and which population of occurrence-parity flips is counted.  Two
models ship:

* ``paper``        - counts 2*n_samples conditioned flips for the two
                     occurrence-parity passes, the reading under which
                     their cost is linear in the sample count alone;
* ``naive_decoder`` - counts the full 2*n_samples*N flips the per-item
                     construction actually emits.

The two models exist because those readings disagree; this module
reports both rather than deciding between them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .analytic import scheduled_sample_count
from .circuit import GateRecord
from .errors import DomainError
from .oracle import BooleanPredicate, SearchParameters, _check_power_of_two
from .statevector import compact

PAPER_MODEL = "paper"
NAIVE_MODEL = "naive_decoder"


@dataclass(frozen=True)
class CostModel:
    """Elementary-gate cost rule for abstract circuit gates."""

    name: str
    # Order-of-magnitude placeholder for decomposing one n-controlled gate
    # into elementary gates; non-normative, only scaling claims are tested.
    multi_control_unit = 48

    def __post_init__(self) -> None:
        if self.name not in (PAPER_MODEL, NAIVE_MODEL):
            raise DomainError(f"unknown cost model {self.name!r}")

    def cost_of_multi_controlled(self, n_controls: int) -> int:
        """Elementary gates for one flip/phase conditioned on n_controls qubits.

        Singly-controlled gates are already elementary; larger ones cost
        a linear multiple of the control count.
        """
        if n_controls < 0:
            raise DomainError(f"control count must be >= 0, got {n_controls}")
        if n_controls <= 1:
            return 1
        return self.multi_control_unit * n_controls

    def counted_parity_flips(self, n_samples: int, n_items: int) -> int:
        """Population of occurrence-parity flips (both passes) this model counts."""
        if self.name == PAPER_MODEL:
            return 2 * n_samples
        return 2 * n_samples * n_items


def paper_cost_model() -> CostModel:
    return CostModel(PAPER_MODEL)


def naive_cost_model() -> CostModel:
    return CostModel(NAIVE_MODEL)


def cost_model_by_name(name: str) -> CostModel:
    aliases = {"paper": PAPER_MODEL, "naive": NAIVE_MODEL, "naive_decoder": NAIVE_MODEL}
    if name not in aliases:
        raise DomainError(f"unknown cost model {name!r}")
    return CostModel(aliases[name])


@dataclass(frozen=True)
class GateTally:
    """Per-category gate counts, the sums of `by_step`, and the model-weighted total."""

    hadamards: int
    sigma_z: int
    multi_controlled_flips: int
    multi_controlled_phases: int
    elementary_total: int
    classical_sort_comparisons: int
    by_step: dict[str, dict[str, int]] = field(default_factory=dict)


def sort_comparisons(n_samples: int) -> int:
    """ceil(n * log2 n) comparisons to sort the sample list, for n below
    2**1014, past which n * log2 n overflows a float."""
    if not 1 <= n_samples < 2**1014:
        raise DomainError(f"sample count must be >= 1 and below 2**1014, got {compact(n_samples)}")
    return math.ceil(n_samples * math.log2(n_samples))


def _tally(
    by_step: dict[str, dict[str, int]], params: SearchParameters, model: CostModel
) -> GateTally:
    """Each kind summed over the steps of `by_step`, and the model's total."""
    kinds: Counter[str] = Counter()
    for counts in by_step.values():
        kinds.update(counts)
    per_flip = model.cost_of_multi_controlled(params.item_bits)
    parity_flips = model.counted_parity_flips(params.n_samples, params.n_items)
    step4_flips = by_step.get("step4", {}).get("value_controlled_flip", 0)
    return GateTally(
        hadamards=kinds["hadamard"],
        sigma_z=kinds["sigma_z"],
        multi_controlled_flips=kinds["value_controlled_flip"],
        multi_controlled_phases=kinds["value_controlled_phase"],
        elementary_total=(
            kinds["hadamard"] + kinds["sigma_z"]
            + (parity_flips + kinds["value_controlled_phase"]) * per_flip
            + step4_flips * model.cost_of_multi_controlled(1)
        ),
        classical_sort_comparisons=sort_comparisons(params.n_samples),
        by_step=by_step,
    )


def predict_tally(
    params: SearchParameters, pred: BooleanPredicate, model: CostModel
) -> GateTally:
    """Closed-form gate tally for one search instance.

    Hadamards: one per sample qubit plus the ancilla up front, then two
    more per sample qubit inside the inversion step.  Flips: N per
    register per occurrence-parity pass, plus one ancilla flip per
    marked item.  Phases: one per register.
    """
    if pred.size != params.n_items:
        raise DomainError(f"predicate size {pred.size} != item count {params.n_items}")
    nu, eta, n = params.item_bits, params.n_samples, params.n_items
    by_step = {
        "step2a": {"hadamard": nu * eta + 1},
        "step2b": {"sigma_z": 1},
        "step3": {"value_controlled_flip": eta * n},
        "step4": {"value_controlled_flip": pred.marked_count},
        "step5": {"value_controlled_flip": eta * n},
        "step6": {"hadamard": 2 * nu * eta, "value_controlled_phase": eta},
    }
    return _tally(by_step, params, model)


def tally_of_records(
    records: Iterable[GateRecord], params: SearchParameters, model: CostModel
) -> GateTally:
    """Tally an emitted gate list (the cross-check side of predict_tally)."""
    by_step: dict[str, dict[str, int]] = {}
    for record in records:
        counts = by_step.setdefault(record.step, {})
        counts[record.kind] = counts.get(record.kind, 0) + 1
    return _tally(by_step, params, model)


@dataclass(frozen=True)
class AsymptoticReport:
    """Side-by-side growth terms at the scheduled sample count.

    sample_register_qubits (item_bits * n_samples) is the claimed scale
    of the occurrence-parity passes, conditioned_flip_scale (N * n_samples)
    is what the per-item construction emits, and claimed_total_scale is
    N^2 * log2(N)^2.  The report shows all of them; it does not decide.
    """

    n_items: int
    schedule_constant: float
    n_samples: int
    sample_register_qubits: int
    sort_comparison_scale: float
    conditioned_flip_scale: int
    claimed_total_scale: int


def asymptotic_report(n_items: int, constant_c: float) -> AsymptoticReport:
    nu = _check_power_of_two(n_items)
    eta = scheduled_sample_count(n_items, constant_c)
    sort_comparisons(eta)  # refuses an eta whose eta * log2(eta) overflows
    return AsymptoticReport(
        n_items=n_items,
        schedule_constant=constant_c,
        n_samples=eta,
        sample_register_qubits=nu * eta,
        sort_comparison_scale=eta * math.log2(eta) if eta > 1 else 0.0,
        conditioned_flip_scale=n_items * eta,
        claimed_total_scale=n_items * n_items * nu * nu,
    )


@dataclass(frozen=True)
class QueryComparison:
    """One subset-parity query vs the iterated single-item-query count."""

    subset_parity_queries: int
    single_item_queries: int


def query_count_comparison(n_items: int, marked_count: int) -> QueryComparison:
    """Query budget comparison; the subset-parity route always uses one."""
    _check_power_of_two(n_items)
    if marked_count < 1:
        raise DomainError(
            f"query comparison needs at least one marked item, got {marked_count}"
        )
    if marked_count > n_items:
        raise DomainError(f"marked count {marked_count} exceeds item count {n_items}")
    single = math.ceil(math.sqrt(n_items / marked_count))
    return QueryComparison(subset_parity_queries=1, single_item_queries=single)
