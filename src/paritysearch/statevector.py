"""Minimal dense statevector simulator.

Exactly the primitives the search circuit needs: Hadamard, the (1,-1)
phase gate, value-conditioned multi-controlled flips and phase flips,
the inversion-about-average operator, marginal measurement, and state
comparison modulo global phase.

Conventions: qubit q is bit q of the basis-state integer index
(least-significant-bit first).  In any ordered qubit list paired with a
value or a bit pattern, bit b of the value corresponds to the b-th
qubit in the list.  Gates mutate the state in place and return it.

They act on basic-indexing views of the amplitudes reshaped to one
length-2 axis per qubit.  The only temporary is the matching
subspace (a flip's selected amplitudes, or one register mean per setting
of the other qubits); marginals contract a float view of the state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_QUBIT_CAP = 24
QUBIT_CAP_ENV_VAR = "PARITYSEARCH_QUBIT_CAP"

# Comparison tolerances: probabilities and norms are tight, fidelities get
# headroom for rounding across ~1e3 gate applications.
NORM_ATOL = 1e-12
FIDELITY_ATOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_cap() -> int:
    """Effective qubit cap: the override env var, else the default of 24."""
    raw = os.environ.get(QUBIT_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{QUBIT_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{QUBIT_CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit map for the search circuit on item_bits*n_samples + N + 1 qubits.

    Sample register i (1-based) sits at qubits (i-1)*item_bits .. i*item_bits-1,
    incidence qubit j (1-based) at item_bits*n_samples + j - 1, and the
    ancilla is the final qubit.
    """

    item_bits: int
    n_samples: int
    n_items: int
    total_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        if self.item_bits < 1 or self.n_items != 1 << self.item_bits:
            raise DomainError(
                f"item count {self.n_items} is not 2**{self.item_bits}"
            )
        if self.n_samples < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n_samples}")
        object.__setattr__(
            self, "total_qubits", self.item_bits * self.n_samples + self.n_items + 1
        )

    def sample_qubits(self, i: int) -> tuple[int, ...]:
        """Qubits of sample register i, least significant first."""
        if not 1 <= i <= self.n_samples:
            raise DomainError(f"register index {i} outside 1..{self.n_samples}")
        start = (i - 1) * self.item_bits
        return tuple(range(start, start + self.item_bits))

    def all_sample_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.item_bits * self.n_samples))

    def incidence_qubit(self, j: int) -> int:
        if not 1 <= j <= self.n_items:
            raise DomainError(f"item {j} outside 1..{self.n_items}")
        return self.item_bits * self.n_samples + j - 1

    def incidence_qubits(self) -> tuple[int, ...]:
        start = self.item_bits * self.n_samples
        return tuple(range(start, start + self.n_items))

    @property
    def ancilla_qubit(self) -> int:
        return self.item_bits * self.n_samples + self.n_items


class StateVector:
    """Dense complex amplitudes over n_qubits qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if amplitudes.shape != (1 << n_qubits,):
            raise DomainError(
                f"amplitude vector of length {amplitudes.shape} does not match {n_qubits} qubits"
            )
        self.n_qubits = n_qubits
        # The gates write through reshaped views, which need this layout.
        self.amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int, cap: int | None = None) -> StateVector:
    """The all-zero basis state, refusing to allocate above the qubit cap."""
    cap = qubit_cap() if cap is None else cap
    if n_qubits < 1:
        raise DomainError(f"qubit count must be >= 1, got {n_qubits}")
    if n_qubits > cap:
        raise CapacityError(f"{n_qubits} qubits requested, above the cap of {cap}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise DomainError(f"qubit {qubit} outside 0..{state.n_qubits - 1}")


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """Apply the 2x2 Hadamard on one qubit, in place."""
    _check_qubit(state, qubit)
    v = state.amplitudes.reshape(-1, 2, 1 << qubit)
    lo = v[:, 0, :]
    hi = v[:, 1, :]
    # (lo + hi, lo - hi) / sqrt2; one contiguous scale beats two strided.
    lo += hi
    hi *= -2.0
    hi += lo
    v *= _INV_SQRT2
    return state


def apply_sigma_z(state: StateVector, qubit: int) -> StateVector:
    """Negate amplitudes of basis states with the qubit set."""
    _check_qubit(state, qubit)
    v = state.amplitudes.reshape(-1, 2, 1 << qubit)
    v[:, 1, :] *= -1.0
    return state


def _validate_controls(state: StateVector, controls: Sequence[int], value: int) -> None:
    for q in controls:
        _check_qubit(state, q)
    if len(set(controls)) != len(controls):
        raise DomainError(f"duplicate control qubits in {tuple(controls)}")
    if value < 0 or value >> len(controls):
        raise DomainError(f"control value {value} does not fit {len(controls)} controls")


def _control_index(n_qubits: int, controls: Sequence[int], value: int) -> list:
    """Index into the (2,)*n view (qubit q is axis n-1-q) fixing each control."""
    index: list = [slice(None)] * n_qubits
    for b, q in enumerate(controls):
        index[n_qubits - 1 - q] = (value >> b) & 1
    return index


def apply_value_controlled_flip(
    state: StateVector, controls: Sequence[int], value: int, target: int
) -> StateVector:
    """Flip the target bit on basis states whose control bits spell `value`."""
    _check_qubit(state, target)
    _validate_controls(state, controls, value)
    if target in controls:
        raise DomainError(f"target qubit {target} overlaps the controls")
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    index = _control_index(state.n_qubits, controls, value)
    axis = state.n_qubits - 1 - target
    # The trailing Ellipsis keeps a writable 0-d view when every axis is fixed.
    index[axis] = 0
    lo = psi[(*index, ...)]
    index[axis] = 1
    hi = psi[(*index, ...)]
    held = lo.copy()
    lo[...] = hi
    hi[...] = held
    return state


def apply_value_controlled_phase(
    state: StateVector, controls: Sequence[int], value: int
) -> StateVector:
    """Multiply by -1 the amplitudes whose control bits spell `value`."""
    _validate_controls(state, controls, value)
    index = _control_index(state.n_qubits, controls, value)
    state.amplitudes.reshape((2,) * state.n_qubits)[(*index, ...)] *= -1.0
    return state


def apply_inversion_about_average(
    state: StateVector, register_qubits: Sequence[int]
) -> StateVector:
    """Apply I - 2|s><s| on the register, |s> its uniform state.

    Equals H...H * diag(-1,1,...,1) * H...H on the register, the textbook
    diffusion times a global phase of -1: every amplitude loses twice the
    mean over the register's values with the other qubits held fixed.
    """
    _validate_controls(state, register_qubits, 0)
    n = state.n_qubits
    w = state.amplitudes.reshape((2,) * n)
    mean = w.mean(axis=tuple(n - 1 - q for q in register_qubits), keepdims=True)
    mean *= 2.0
    w -= mean
    return state


def marginal_distribution(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Probabilities of each bit pattern on the qubit subset.

    Bit b of the returned pattern index corresponds to qubits[b].
    """
    if len(set(qubits)) != len(qubits):
        raise DomainError(f"duplicate qubits in {tuple(qubits)}")
    for q in qubits:
        _check_qubit(state, q)
    n = state.n_qubits
    # Axis n holds (real, imaginary); the output axes run from the last
    # requested qubit to the first, so qubits[0] is the low bit.
    parts = state.amplitudes.view(np.float64).reshape((2,) * (n + 1))
    axes = list(range(n + 1))
    keep = [n - 1 - q for q in reversed(qubits)]
    return np.einsum(parts, axes, parts, axes, keep).reshape(-1)


def fidelity_mod_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, the overlap magnitude (global-phase invariant)."""
    if a.n_qubits != b.n_qubits:
        raise DomainError(f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
