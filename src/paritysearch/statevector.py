"""Minimal dense statevector simulator.

A plain simulator: gates take qubit indices, and no type here knows the
search instance or its layout.  It has the primitives the search circuit
needs: Hadamard, the (1,-1) phase gate, value-conditioned multi-controlled
flips and phase flips, the inversion-about-average operator, marginal
measurement, and state comparison modulo global phase.  The uncaptured
circuit applies one fused primitive to one row of its state, a state of
its own over the same memory: a kernel of small real blocks, one
inversion about average per register (`apply_register_inversions`).

Conventions: qubit q is bit q of the basis-state integer index
(least-significant-bit first).  In any ordered qubit list paired with a
value or a bit pattern, bit b of the value corresponds to the b-th
qubit in the list.  Gates mutate the state in place and return it.

Temporaries are bounded chunks, never a share of the state: a flip's
slabs of 2**12 amplitudes and the blocks' scratch of 2**13 (BLAS calls
of at most 2**12, one piece of 2**15 at a time).  sigma_z and the
one-qubit Hadamard, one strided pass each, hold only NumPy's fixed
buffers.
Every pass runs on the calling thread.  The literal inversion about
average alone holds one register mean per setting of the other qubits.
Before any allocation, `check_capacity` refuses past the qubit cap and
`check_memory` past physical memory.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
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

# Amplitudes per BLAS call; larger calls wake OpenBLAS's second thread,
# which on two CPUs costs more than it saves.
_BLAS_AMPLITUDES = 1 << 12
# Amplitudes per numpy call of the block kernel, a stack of BLAS calls.
_BATCH_AMPLITUDES = 1 << 13
# Amplitudes per piece for the blocks, half a piece per chunk for
# measurement: about a level-2 cache, and enough to amortise the Python loop.
_PIECE_AMPLITUDES = 1 << 15
# A block widened to rows of at most this many floats beats the block
# times short slices (see `_apply_block`).
_WIDE_ROW_FLOATS = 32
# A flip swaps slabs of at most 2**_SWAP_AXES amplitudes.
_SWAP_AXES = 12


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


@lru_cache(maxsize=1)
def physical_memory_bytes() -> int | None:
    """Installed physical memory, read once, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(need: int, what: str, shift: int = 0) -> None:
    """Refuse need << shift bytes for `what` past physical memory: the one
    price of an input's bytes (states, gate lists, Monte Carlo rows, marked
    sets).  No integer longer than memory's bit length is built, and a
    size of any magnitude is stated in a few characters."""
    have = physical_memory_bytes()
    bits = need.bit_length() + shift
    if have is None or not need or bits <= have.bit_length() and need << shift <= have:
        return
    size = f"{(need << shift) / 2**30:.1f} GiB" if bits <= 64 else (
        f"2**{math.log2(need) + shift:.6g} B")
    raise CapacityError(f"{what}: {size}, more than the {have / 2**30:.1f} GiB of physical memory")


def compact(count: int) -> str:
    """A count in full below 10**20, past that as 2**x, so that a message
    naming it stays one short line."""
    return str(count) if count < 10**20 else f"2**{math.log2(count):.6g}"


def check_capacity(n_qubits: int, copies: int = 1, what: str = "state", terms: str = "") -> None:
    """Refuse n_qubits above the qubit cap, or `copies` states of them
    past physical memory (copies = 0 checks the cap alone).  The message
    names `what` and how its qubits add up (`terms`, e.g. "5*4+32+1")."""
    cap = qubit_cap()
    needs = f"{what} needs {terms + ' = ' if terms else ''}{compact(n_qubits)} qubits"
    if n_qubits > cap:
        raise CapacityError(f"{needs}, above the cap of {cap} (override with {QUBIT_CAP_ENV_VAR})")
    # 16 B per amplitude
    check_memory(copies * 16, f"{needs}, {copies} state{'s' if copies > 1 else ''}", n_qubits)


def zero_state(n_qubits: int) -> StateVector:
    """The all-zero basis state, refusing to allocate above the qubit cap
    or past physical memory."""
    if n_qubits < 1:
        raise DomainError(f"qubit count must be >= 1, got {n_qubits}")
    check_capacity(n_qubits)
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


@lru_cache(maxsize=32)
def _block(width: int, copies: int) -> np.ndarray:
    """kron(B, I_copies) for B = I - 2J/2**width, J all ones: the real
    symmetric block of the inversion about average on one register of
    `width` qubits.  With copies = 2 << start the matrix acts on rows of
    interleaved real and imaginary parts of a register on qubits start,
    start+1, ...; with copies = 1 it is B.  Read-only, since every caller
    shares it.
    """
    block = np.kron(np.eye(1 << width) - 2.0 / (1 << width), np.eye(copies))
    block.setflags(write=False)
    return block


def _apply_block(floats: np.ndarray, start: int, width: int, scratch: np.ndarray) -> None:
    """Multiply the float view of some amplitudes by the `_block` of a
    register on qubits start .. start+width-1, in place, through
    `scratch`, which holds at least 2 * _BATCH_AMPLITUDES floats or the
    whole view.

    The block is real, so it acts on the real and imaginary parts alike.
    The block times the (-1, 2**width, 2 << start) view makes one small
    BLAS call per slice of 2 << start floats.  Where rows of
    2**width * (2 << start) floats are at most _WIDE_ROW_FLOATS long, and
    always at start 0, they meet the widened block kron(B, I_(2 << start))
    on the right instead, at 2 << start times the arithmetic, which is
    faster there and slower from 64 floats on.  Either way one numpy call
    multiplies a stack of at most _BATCH_AMPLITUDES, each BLAS call in it
    at most _BLAS_AMPLITUDES.
    """
    batch = 2 * _BATCH_AMPLITUDES
    if start == 0 or (2 << start) << width <= _WIDE_ROW_FLOATS:
        matrix = _block(width, 2 << start)
        call = min(2 * _BLAS_AMPLITUDES, floats.size)
        stack = floats.reshape(-1, call // len(matrix), len(matrix))
        step = min(batch // call, len(stack))
        out = scratch[: step * call].reshape(step, *stack.shape[1:])
        for r in range(0, len(stack), step):
            np.matmul(stack[r : r + step], matrix, out=out)
            stack[r : r + step] = out
        return
    matrix = _block(width, 1)
    size, row = len(matrix), 2 << start
    cols = min(row, 2 * _BLAS_AMPLITUDES // size)
    # Slabs (size, cols) of the (-1, size, row) view, stacked by row group
    # and column block; a call takes whole row groups or part of one.
    slabs = floats.reshape(-1, size, row // cols, cols).transpose(0, 2, 1, 3)
    calls = batch // (size * cols)
    across = min(slabs.shape[1], calls)
    down = min(max(calls // slabs.shape[1], 1), len(slabs))
    out = scratch[: down * across * size * cols].reshape(down, across, size, cols)
    for r in range(0, len(slabs), down):
        for c in range(0, slabs.shape[1], across):
            chunk = slabs[r : r + down, c : c + across]
            np.matmul(matrix, chunk, out=out)
            chunk[...] = out


def _apply_blocks(state: StateVector, runs: list[tuple[int, int]]) -> None:
    """Apply the `_block`s of (start, width) registers on disjoint qubits,
    in place.

    Blocks that lie wholly below the piece boundary all act on one
    contiguous piece of _PIECE_AMPLITUDES before the next piece is read,
    so the state streams through memory once for all of them; the others
    act on the whole state, one at a time.  All share one scratch.
    """
    floats = state.amplitudes.view(np.float64)
    scratch = np.empty(min(2 * _BATCH_AMPLITUDES, floats.size))
    piece_qubits = _PIECE_AMPLITUDES.bit_length() - 1
    low = [run for run in runs if sum(run) <= piece_qubits]
    high = [run for run in runs if sum(run) > piece_qubits]
    for piece in floats.reshape(-1, 2 * min(_PIECE_AMPLITUDES, state.amplitudes.size)):
        for run in low:
            _apply_block(piece, *run, scratch)
    for run in high:
        _apply_block(floats, *run, scratch)


def apply_register_inversions(state: StateVector, width: int, count: int) -> StateVector:
    """Apply the inversion about average on each of `count` consecutive
    registers of `width` qubits from qubit 0, in place.

    Each register is one block I - 2J/2**width.  Equal to
    `apply_inversion_about_average` on each register up to rounding.  A
    block must fit one BLAS call, so registers hold at most 6 qubits.
    """
    if width < 1 or count < 1 or width * count > state.n_qubits:
        raise DomainError(
            f"{count} registers of {width} qubits do not fit {state.n_qubits} qubits"
        )
    if 1 << (2 * width) > _BLAS_AMPLITUDES:
        raise DomainError(f"a {width}-qubit register's block exceeds one BLAS call")
    _apply_blocks(state, [(i * width, width) for i in range(count)])
    return state


def apply_sigma_z(state: StateVector, qubit: int) -> StateVector:
    """Negate amplitudes of basis states with the qubit set, in place."""
    _check_qubit(state, qubit)
    state.amplitudes.reshape(-1, 2, 1 << qubit)[:, 1] *= -1.0
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
    # Swap one slab of the leading axes at a time through a fixed buffer.
    # A direct `lo[...] = hi` would copy `hi` first, since NumPy checks
    # overlap by bounds only.
    lead = max(lo.ndim - _SWAP_AXES, 0)
    buf = np.empty((2, *lo.shape[lead:]), dtype=lo.dtype)
    for slab in np.ndindex(lo.shape[:lead]):
        a, b = lo[(*slab, ...)], hi[(*slab, ...)]
        buf[0], buf[1] = a, b
        a[...], b[...] = buf[1], buf[0]
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
