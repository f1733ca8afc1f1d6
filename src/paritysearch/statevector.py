"""Minimal dense statevector simulator.

Exactly the primitives the search circuit needs: Hadamard, the (1,-1)
phase gate, value-conditioned multi-controlled flips and phase flips,
the inversion-about-average operator, marginal measurement, and state
comparison modulo global phase.  Fused primitives serve the uncaptured
circuit: one kernel multiplies the state by small real blocks, Hadamards
on runs of up to three qubits or the inversion about average on whole
registers, and an XOR permutation moves the high qubits keyed by the
low ones.

Conventions: qubit q is bit q of the basis-state integer index
(least-significant-bit first).  In any ordered qubit list paired with a
value or a bit pattern, bit b of the value corresponds to the b-th
qubit in the list.  Gates mutate the state in place and return it.

They act on basic-indexing views of the amplitudes reshaped to one
length-2 axis per qubit.  Temporaries are bounded chunks, never a share
of the state: each holds at most one piece of 2**15 amplitudes, and
less than the state.  A flip swaps through a buffer of two slabs; the
blocks work one piece at a time through one scratch of 2**13
amplitudes, and the XOR permutation gathers blocks of one piece or a
quarter of the state, whichever is smaller.  Blocks on qubits below 15
all act on one contiguous piece before the next, so one read of the
state serves all of them.  The literal inversion about average is the
exception: it holds one register mean per setting of the other qubits.
One numpy call of the block kernel covers up to 2**13 amplitudes as a
stack of BLAS calls, and each BLAS call at most 4096: OpenBLAS splits
larger calls across threads, and on a 2-CPU machine waking the second
thread costs more than it saves (a tail of milliseconds per call).  The
block kernel runs on the calling thread alone.  The XOR permutation's
gathers are long numpy calls that release the GIL, so from 17 qubits up
it splits its block budget between two workers, the caller and one
thread made on first use, where the process may run on two CPUs; each
worker's buffers hold half a block.  Marginals contract a float view of
the state.  `check_capacity` refuses, before any allocation, what the
qubit cap or physical memory cannot hold.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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

# Amplitudes per BLAS call; larger calls wake OpenBLAS's second thread.
_BLAS_AMPLITUDES = 1 << 12
# Amplitudes per numpy call of the block kernel, a stack of BLAS calls.
_BATCH_AMPLITUDES = 1 << 13
# Amplitudes per piece for the blocks and the XOR permutation: about a
# level-2 cache, and enough to amortise the Python loop.
_PIECE_AMPLITUDES = 1 << 15
# A block widened to rows of at most this many floats beats the block
# times short slices (see `_apply_block`).
_WIDE_ROW_FLOATS = 32
# A flip swaps slabs of at most 2**_SWAP_AXES amplitudes.
_SWAP_AXES = 12


# CPUs this process may run on: the XOR permutation's most workers.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# The XOR permutation's worker thread and the process that made it; a
# forked child has no copy of the thread, so it makes its own.
_xor_pool = None
_xor_pool_pid = 0


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


@lru_cache(maxsize=1)
def physical_memory_bytes() -> int | None:
    """Installed physical memory, read once, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_capacity(n_qubits: int, copies: int = 1, what: str = "state", terms: str = "") -> None:
    """Refuse n_qubits above the qubit cap, or `copies` states of them
    past physical memory (copies = 0 checks the cap alone).  The message
    names `what` and how its qubits add up (`terms`, e.g. "5*4+32+1")."""
    cap = qubit_cap()
    need = (copies << n_qubits) * 16  # bytes per complex128 amplitude
    have = physical_memory_bytes()
    if n_qubits > cap:
        limit = f"above the cap of {cap} (override with {QUBIT_CAP_ENV_VAR})"
    elif have is not None and need > have:
        limit = (
            f"{need / 2**30:.1f} GiB for {copies} state{'s' if copies > 1 else ''}, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    else:
        return
    raise CapacityError(f"{what} needs {terms + ' = ' if terms else ''}{n_qubits} qubits, {limit}")


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


def _qubit_runs(qubits: Sequence[int]) -> list[list[int]]:
    """Cut the qubits, in ascending order, into [start, width] runs of at
    most three consecutive qubits."""
    runs: list[list[int]] = []
    for q in sorted(qubits):
        if runs and runs[-1][0] + runs[-1][1] == q and runs[-1][1] < 3:
            runs[-1][1] += 1
        else:
            runs.append([q, 1])
    return runs


@lru_cache(maxsize=32)
def _block(kind: str, width: int, copies: int) -> np.ndarray:
    """kron(B, I_copies) for a real symmetric block B on `width` qubits.

    "hadamard" is H (x) ... (x) H; every factor is the same, so the bit
    order needs no care.  "inversion" is I - 2J/2**width, J all ones: the
    inversion about average on one register.  With copies = 2 << start
    the matrix acts on rows of interleaved real and imaginary parts of a
    block on qubits start, start+1, ...; with copies = 1 it is B.
    Read-only, since every caller shares it.
    """
    if kind == "hadamard":
        block = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * width)
        block /= math.sqrt(2.0**width)
    else:
        block = np.eye(1 << width) - 2.0 / (1 << width)
    block = np.kron(block, np.eye(copies))
    block.setflags(write=False)
    return block


def _apply_block(
    floats: np.ndarray, kind: str, start: int, width: int, scratch: np.ndarray
) -> None:
    """Multiply the float view of some amplitudes by a `_block` on qubits
    start .. start+width-1, in place, through `scratch`, which holds at
    least 2 * _BATCH_AMPLITUDES floats or the whole view.

    The block is real, so it acts on the real and imaginary parts alike.
    The block times the (-1, 2**width, 2 << start) view makes one small
    BLAS call per slice of 2 << start floats, which costs most where
    those slices are short.  There, rows of 2**width * (2 << start)
    floats meet the widened block kron(B, I_(2 << start)) on the right
    instead, which does 2 << start times the arithmetic.  On one
    2**15-amplitude piece (2-CPU x86-64, NumPy 2.4) the widened block
    wins up to rows of _WIDE_ROW_FLOATS floats: a width-1 inversion takes
    60 against 341 us at start 1 and 119 against 171 us at start 3, and a
    width-3 one 130 against 252 us at start 1.  At 64 floats it loses:
    217 against 157 us for width 3 at start 2, 194 against 84 us for
    width 1 at start 4.  At start 0 the slices hold 2 floats, so it
    always widens.  Either way one numpy call multiplies a stack of at
    most _BATCH_AMPLITUDES, each BLAS call in it at most
    _BLAS_AMPLITUDES.
    """
    batch = 2 * _BATCH_AMPLITUDES
    if start == 0 or (2 << start) << width <= _WIDE_ROW_FLOATS:
        matrix = _block(kind, width, 2 << start)
        call = min(2 * _BLAS_AMPLITUDES, floats.size)
        stack = floats.reshape(-1, call // len(matrix), len(matrix))
        step = min(batch // call, len(stack))
        out = scratch[: step * call].reshape(step, *stack.shape[1:])
        for r in range(0, len(stack), step):
            np.matmul(stack[r : r + step], matrix, out=out)
            stack[r : r + step] = out
        return
    matrix = _block(kind, width, 1)
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


def _apply_blocks(state: StateVector, runs: list[tuple[str, int, int]]) -> None:
    """Apply (kind, start, width) blocks on disjoint qubits, in place.

    Blocks that lie wholly below the piece boundary all act on one
    contiguous piece of _PIECE_AMPLITUDES before the next piece is read,
    so the state streams through memory once for all of them; the others
    act on the whole state, one at a time.  All share one scratch.
    """
    floats = state.amplitudes.view(np.float64)
    scratch = np.empty(min(2 * _BATCH_AMPLITUDES, floats.size))
    piece_qubits = _PIECE_AMPLITUDES.bit_length() - 1
    low = [run for run in runs if run[1] + run[2] <= piece_qubits]
    high = [run for run in runs if run[1] + run[2] > piece_qubits]
    if low:
        step = 2 * min(_PIECE_AMPLITUDES, state.amplitudes.size)
        for p in range(0, floats.size, step):
            piece = floats[p : p + step]
            for run in low:
                _apply_block(piece, *run, scratch)
    for run in high:
        _apply_block(floats, *run, scratch)


def apply_hadamards(state: StateVector, qubits: Sequence[int]) -> StateVector:
    """Apply a Hadamard on each of the qubits, in place.

    Each run of up to three consecutive qubits is one Hadamard block of
    up to 8x8, instead of one strided pass per qubit.  Equal to
    `apply_hadamard` on each qubit up to rounding.
    """
    _validate_controls(state, qubits, 0)
    _apply_blocks(state, [("hadamard", s, w) for s, w in _qubit_runs(qubits)])
    return state


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
    _apply_blocks(state, [("inversion", i * width, width) for i in range(count)])
    return state


def _xor_columns(
    amplitudes: np.ndarray, rows: np.ndarray, masks: np.ndarray, cols: int, starts: deque
) -> None:
    """Gather blocks of `cols` columns of `apply_xor_permutation`'s grid
    through buffers of one block, taking each block's first column from
    `starts` until none is left, and write them back.  It calls numpy
    alone, so it may run on a worker thread."""
    high, low = len(rows), len(masks).bit_length() - 1
    grid = amplitudes.reshape(high, len(masks))
    index = np.empty((high, cols), dtype=np.intp)
    out = np.empty((high, cols), dtype=np.complex128)
    while True:
        try:
            c = starts.popleft()  # atomic, so each block goes to one worker
        except IndexError:
            return
        keys = np.left_shift(masks[c : c + cols], low, dtype=np.intp)
        keys |= np.arange(c, c + cols)
        np.bitwise_xor(rows, keys, out=index)
        # Every index is in range; mode "raise" would buffer `out` again.
        np.take(amplitudes, index, out=out, mode="wrap")
        grid[:, c : c + cols] = out


def _worker_pool():
    """The XOR permutation's worker thread, made on first use in each process."""
    global _xor_pool, _xor_pool_pid
    if _xor_pool_pid != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        # The caller takes one share, and with shares of half a piece of
        # a block of at most a piece there are at most two.
        _xor_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="paritysearch-xor")
        _xor_pool_pid = os.getpid()
    return _xor_pool


def apply_xor_permutation(
    state: StateVector, low_qubits: int, masks: np.ndarray
) -> StateVector:
    """Map |h, c> to |h XOR masks[c], c>, in place.

    c is the value of the lowest `low_qubits` qubits and h that of the
    rest.  XOR is an involution, so gathering row h XOR masks[c] of each
    column c is the permutation itself.  Columns go in blocks of at most
    one piece and a quarter of the state (one column at least), gathered
    into fixed buffers.  The block's index and gathered amplitudes take
    24 bytes per amplitude, and NumPy buffers each broadcast operand of
    the index's XOR in 64 KiB, so together they stay below the state: a
    block of the whole state would hold 1.5 times the state, memory that
    the allocator hands back to the system between calls.

    Up to _CPUS workers split the block: each holds buffers of its share
    while the share keeps at least half a piece and one column, and one
    worker takes all otherwise.  Each worker takes the next block of
    columns until none is left, so a worker on a busy CPU takes fewer.  A
    block reads and writes only its own columns, so the workers need no
    lock and the result does not depend on which worker takes a block.
    """
    if not 0 <= low_qubits <= state.n_qubits:
        raise DomainError(f"low qubit count {low_qubits} outside 0..{state.n_qubits}")
    masks = np.asarray(masks)
    high, width = 1 << (state.n_qubits - low_qubits), 1 << low_qubits
    if masks.shape != (width,) or masks.dtype.kind not in "iu":
        raise DomainError(f"need {width} integer masks, got {masks.dtype} {masks.shape}")
    if masks.min() < 0 or masks.max() >= high:
        raise DomainError(f"masks must lie in 0..{high - 1}")
    block = min(_PIECE_AMPLITUDES, state.amplitudes.size // 4)
    workers = max(1, min(_CPUS, 2 * block // _PIECE_AMPLITUDES, block // high))
    cols = min(width, max(block // (workers * high), 1))
    # The flat index of |h XOR masks[c], c> is (h << low) XOR (masks[c] << low | c).
    rows = np.arange(high, dtype=np.intp)[:, None] << low_qubits
    starts = deque(range(0, width, cols))
    futures = [
        _worker_pool().submit(_xor_columns, state.amplitudes, rows, masks, cols, starts)
        for _ in range(1, workers)
    ]
    try:
        _xor_columns(state.amplitudes, rows, masks, cols, starts)
    finally:
        for future in futures:
            future.result()
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
