"""Classical model of the search problem.

Items live in {1..N} with N a power of two.  A predicate marks some of
them; the search instance carries the register count used for sampling.
The queries defined here are the classical ground truth the quantum
circuit is checked against:

* single-item query: the value of the predicate on one item,
* subset-parity query: whether a subset contains an odd number of
  marked items (the one oracle call the quantum algorithm spends),
* occurrence parity: whether an item appears an odd number of times in
  a tuple of samples.

Bit conventions: in any length-N bit vector, bit j-1 corresponds to
item j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_ENUMERATION_CAP = 2**20


def _check_power_of_two(n_items: int) -> int:
    """Return log2(n_items), raising DomainError unless n_items = 2**k, k >= 1."""
    if n_items < 2 or n_items & (n_items - 1):
        raise DomainError(f"item count must be a power of two >= 2, got {n_items}")
    return n_items.bit_length() - 1


@dataclass(frozen=True)
class SearchParameters:
    """A search instance: N items (N = 2**item_bits) and the sample count."""

    n_items: int
    n_samples: int
    item_bits: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_bits", _check_power_of_two(self.n_items))
        if self.n_samples < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class BooleanPredicate:
    """A 0/1 predicate on {1..N}, stored as the set of marked items."""

    size: int
    marks: frozenset[int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise DomainError(f"predicate size must be >= 1, got {self.size}")
        bad = [x for x in self.marks if not 1 <= x <= self.size]
        if bad:
            raise DomainError(f"marked items {sorted(bad)} outside 1..{self.size}")

    @classmethod
    def from_marks(cls, size: int, marks: Iterable[int]) -> BooleanPredicate:
        return cls(size, frozenset(int(x) for x in marks))

    @classmethod
    def from_mask(cls, size: int, mask: int) -> BooleanPredicate:
        """Build from a bitmask with bit j-1 = value on item j."""
        if mask < 0 or mask >> max(size, 0):
            raise DomainError(f"mask {mask:#x} does not fit {size} items")
        return cls(size, frozenset(j for j in range(1, mask.bit_length() + 1) if (mask >> (j - 1)) & 1))

    @classmethod
    def from_text(cls, size: int, marks_text: str | None = None, mask_hex: str | None = None) -> BooleanPredicate:
        """Parse either a comma-separated marked-item list or a hex bitmask."""
        if marks_text is not None and mask_hex is not None:
            raise DomainError("give a marked-item list or a bitmask, not both")
        if mask_hex is not None:
            try:
                mask = int(mask_hex, 16)
            except ValueError as exc:
                raise DomainError(f"invalid hex bitmask {mask_hex!r}") from exc
            return cls.from_mask(size, mask)
        marks_text = marks_text or ""
        parts = [p.strip() for p in marks_text.split(",") if p.strip()]
        try:
            items = [int(p) for p in parts]
        except ValueError as exc:
            raise DomainError(f"invalid marked-item list {marks_text!r}") from exc
        return cls.from_marks(size, items)

    @property
    def marked_count(self) -> int:
        return len(self.marks)

    def value(self, item: int) -> int:
        if not 1 <= item <= self.size:
            raise DomainError(f"item {item} outside 1..{self.size}")
        return int(item in self.marks)

    def to_mask(self) -> int:
        mask = 0
        for j in self.marks:
            mask |= 1 << (j - 1)
        return mask

    def mask_hex(self) -> str:
        return f"{self.to_mask():#x}"

    def to_incidence(self) -> IncidenceVector:
        return IncidenceVector(tuple(self.value(j) for j in range(1, self.size + 1)))


@dataclass(frozen=True)
class IncidenceVector:
    """A subset of {1..N} encoded as its characteristic bit vector."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("incidence bits must be 0 or 1")

    @classmethod
    def from_subset(cls, size: int, subset: Iterable[int]) -> IncidenceVector:
        members = frozenset(subset)
        bad = [x for x in members if not 1 <= x <= size]
        if bad:
            raise DomainError(f"subset items {sorted(bad)} outside 1..{size}")
        return cls(tuple(int(j in members) for j in range(1, size + 1)))

    @property
    def size(self) -> int:
        return len(self.bits)

    def to_subset(self) -> frozenset[int]:
        return frozenset(j for j, b in enumerate(self.bits, start=1) if b)


@dataclass(frozen=True)
class SampleTuple:
    """An ordered tuple of sampled items."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def single_item_query(pred: BooleanPredicate, item: int) -> int:
    """Evaluate the predicate on one item."""
    return pred.value(item)


def subset_parity_query(pred: BooleanPredicate, subset: IncidenceVector) -> int:
    """Parity of the number of marked items inside the subset."""
    if subset.size != pred.size:
        raise DomainError(f"subset size {subset.size} != predicate size {pred.size}")
    return sum(subset.bits[j - 1] for j in pred.marks) & 1


def occurrence_parity(samples: SampleTuple, item: int, n_items: int) -> int:
    """Parity of the number of occurrences of `item` in the sample tuple."""
    if not 1 <= item <= n_items:
        raise DomainError(f"item {item} outside 1..{n_items}")
    return sum(1 for v in samples.values if v == item) & 1


def incidence_of_samples(samples: SampleTuple, n_items: int) -> IncidenceVector:
    """Length-N incidence vector whose bit j-1 is the occurrence parity of item j."""
    counts = [0] * n_items
    for v in samples.values:
        if not 1 <= v <= n_items:
            raise DomainError(f"sample value {v} outside 1..{n_items}")
        counts[v - 1] += 1
    return IncidenceVector(tuple(c & 1 for c in counts))


@dataclass(frozen=True)
class ParityIdentityReport:
    checked: int
    violations: int


def _identity_holds(pred: BooleanPredicate, samples: SampleTuple) -> bool:
    # Parity query on the occurrence-parity subset vs direct sum of per-sample values.
    lhs = subset_parity_query(pred, incidence_of_samples(samples, pred.size))
    rhs = sum(pred.value(v) for v in samples.values) & 1
    return lhs == rhs


def verify_parity_identity(
    pred: BooleanPredicate,
    n_samples: int,
    mode: Literal["exhaustive", "sampled"] = "exhaustive",
    trials: int = 1000,
    seed: int | None = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ParityIdentityReport:
    """Check the double-counting identity on sample tuples.

    For every checked tuple, the subset-parity query evaluated on the
    tuple's incidence vector must equal the mod-2 sum of the predicate
    over the tuple entries.  Exhaustive mode enumerates all N**n_samples
    tuples and refuses to start past `enumeration_cap`.
    """
    if n_samples < 1:
        raise DomainError(f"sample count must be >= 1, got {n_samples}")
    n = pred.size
    checked = 0
    violations = 0
    if mode == "exhaustive":
        total = n**n_samples
        if total > enumeration_cap:
            raise CapacityError(
                f"exhaustive check needs {total} tuples, above the cap {enumeration_cap}"
            )
        for values in itertools.product(range(1, n + 1), repeat=n_samples):
            checked += 1
            if not _identity_holds(pred, SampleTuple(values)):
                violations += 1
    elif mode == "sampled":
        if trials < 1:
            raise DomainError(f"trial count must be >= 1, got {trials}")
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            values = tuple(int(v) for v in rng.integers(1, n + 1, size=n_samples))
            checked += 1
            if not _identity_holds(pred, SampleTuple(values)):
                violations += 1
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return ParityIdentityReport(checked=checked, violations=violations)
