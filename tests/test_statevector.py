"""Simulator primitives checked against dense-matrix ground truth."""

import math
import os
import signal
import sys
import time
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from helpers import matching_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    RegisterLayout,
    SearchParameters,
    StateVector,
    amplitudes,
    analytic_product_state,
    build_circuit,
    run_circuit,
)
from paritysearch import statevector as sv
from paritysearch.statevector import (
    FIDELITY_ATOL,
    NORM_ATOL,
    apply_hadamard,
    apply_hadamards,
    apply_inversion_about_average,
    apply_register_inversions,
    apply_sigma_z,
    apply_value_controlled_flip,
    apply_value_controlled_phase,
    apply_xor_permutation,
    fidelity_mod_phase,
    marginal_distribution,
    zero_state,
)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def random_state(n_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


class TestLayout:
    def test_regions_partition_qubits(self):
        layout = RegisterLayout(item_bits=2, n_samples=3, n_items=4)
        assert layout.total_qubits == 11
        seen = []
        for i in range(1, 4):
            seen.extend(layout.sample_qubits(i))
        seen.extend(layout.incidence_qubits())
        seen.append(layout.ancilla_qubit)
        assert sorted(seen) == list(range(11))

    def test_accessor_ranges(self):
        layout = RegisterLayout(item_bits=1, n_samples=2, n_items=2)
        assert layout.sample_qubits(1) == (0,)
        assert layout.sample_qubits(2) == (1,)
        assert layout.incidence_qubit(1) == 2
        assert layout.ancilla_qubit == 4
        with pytest.raises(DomainError):
            layout.sample_qubits(3)
        with pytest.raises(DomainError):
            layout.incidence_qubit(0)

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(DomainError):
            RegisterLayout(item_bits=2, n_samples=1, n_items=8)


class TestZeroState:
    def test_initial_amplitudes(self):
        layout = RegisterLayout(item_bits=1, n_samples=2, n_items=2)
        state = zero_state(layout.total_qubits)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1
        assert state.amplitudes.shape == (32,)

    def test_dimension(self):
        layout = RegisterLayout(item_bits=2, n_samples=1, n_items=4)
        assert zero_state(layout.total_qubits).amplitudes.shape == (128,)

    def test_capacity(self, monkeypatch):
        with pytest.raises(CapacityError):
            zero_state(25)
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", "12")
        with pytest.raises(CapacityError):
            zero_state(13)

    def test_memory_is_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 1 << 20)
        assert zero_state(16).amplitudes.nbytes == 1 << 20
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="physical memory"):
                zero_state(17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# Every point that sizes an allocation by qubits, on one instance of
# 2*3+4+1 = 11 qubits (N=4, eta=3), whose product state has 2*3 = 6:
# (qubits, states kept, call).  A gate list keeps no state.
_INSTANCE = (SearchParameters(4, 3), BooleanPredicate.from_marks(4, [2]))
_REFUSAL_POINTS = {
    "zero_state": (11, 1, lambda: zero_state(11)),
    "build_circuit": (11, 0, lambda: build_circuit(*_INSTANCE)),
    "capture": (11, 7, lambda: run_circuit(*_INSTANCE, capture=True)),
    "product_state": (6, 1, lambda: analytic_product_state(amplitudes(4, 1), _INSTANCE[1], 3)),
}


class TestCapacity:
    @pytest.mark.parametrize("point", sorted(_REFUSAL_POINTS))
    def test_refusal_points(self, point, monkeypatch):
        qubits, kept, call = _REFUSAL_POINTS[point]
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", str(qubits - 1))
        with pytest.raises(CapacityError, match=f" {qubits} qubits, .*PARITYSEARCH_QUBIT_CAP"):
            call()
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", str(qubits))
        # Physical memory one byte short of the states kept, or of one
        # state where none is kept: only points that keep states refuse.
        state_bytes = 16 << qubits
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: max(kept, 1) * state_bytes - 1)
        if kept:
            with pytest.raises(CapacityError, match=f" {qubits} qubits, .*physical memory"):
                call()
        else:
            call()
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: kept * state_bytes)
        call()


class TestSingleQubitGates:
    def test_hadamard_definition(self):
        state = apply_hadamard(zero_state(1), 0)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_hadamard_least_significant_convention(self):
        state = apply_hadamard(zero_state(2), 0)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])

    def test_sigma_z_definition(self):
        state = apply_sigma_z(apply_hadamard(zero_state(1), 0), 0)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_sigma_z_on_zero_is_identity(self):
        state = apply_sigma_z(zero_state(1), 0)
        assert np.allclose(state.amplitudes, [1, 0])

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            apply_hadamard(zero_state(2), 2)
        with pytest.raises(DomainError):
            apply_sigma_z(zero_state(2), -1)

    def test_hadamard_matches_matrix_on_random_state(self):
        state = random_state(3, seed=5)
        expected = np.kron(np.kron(np.eye(2), H_MATRIX), np.eye(2)) @ state.amplitudes
        apply_hadamard(state, 1)
        assert np.allclose(state.amplitudes, expected, atol=NORM_ATOL)


class TestControlledGates:
    def test_cnot(self):
        state = zero_state(2)
        state.amplitudes[:] = [0, 1, 0, 0]  # |01>: qubit 0 set
        apply_value_controlled_flip(state, [0], 1, 1)
        assert np.allclose(state.amplitudes, [0, 0, 0, 1])

    def test_condition_on_zero(self):
        state = zero_state(3)
        apply_value_controlled_flip(state, [0, 1], 0, 2)
        expected = np.zeros(8)
        expected[4] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_flip_rejects_overlap_and_bad_value(self):
        state = zero_state(3)
        with pytest.raises(DomainError):
            apply_value_controlled_flip(state, [0, 1], 0, 1)
        with pytest.raises(DomainError):
            apply_value_controlled_flip(state, [0], 2, 1)
        with pytest.raises(DomainError):
            apply_value_controlled_flip(state, [0, 0], 0, 1)

    def test_phase_on_zero_value(self):
        state = apply_hadamard(zero_state(1), 0)
        apply_value_controlled_phase(state, [0], 0)
        assert np.allclose(state.amplitudes, [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_phase_matches_inversion_diagonal(self):
        # Conditioning a full register on value 0 is diag(-1, 1, ..., 1).
        state = random_state(2, seed=9)
        expected = state.amplitudes.copy()
        expected[0] *= -1
        apply_value_controlled_phase(state, [0, 1], 0)
        assert np.allclose(state.amplitudes, expected, atol=NORM_ATOL)

    def test_strided_real_amplitudes(self):
        # Gates write through reshaped views, so the state must own a
        # contiguous complex copy of a strided or real input.
        backing = np.zeros(8)
        backing[2] = 1.0  # every other entry: |01>
        state = StateVector(2, backing[::2])
        apply_value_controlled_flip(state, [0], 1, 1)
        assert np.allclose(state.amplitudes, [0, 0, 0, 1])
        assert np.allclose(marginal_distribution(state, [1]), [0, 1])

    def test_phase_value_must_fit(self):
        with pytest.raises(DomainError):
            apply_value_controlled_phase(zero_state(2), [0], 2)


class TestGatesAgainstIndexOracle:
    """Views must touch exactly the basis states the index arithmetic names.

    Drawn cases include controls plus target covering every qubit, where
    the views are 0-d.
    """

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_flip_matches_index_swap(self, seed, data):
        n = data.draw(st.integers(2, 6))
        order = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(0, n - 1))
        controls, target = list(order[:k]), order[k]
        value = data.draw(st.integers(0, (1 << k) - 1))
        state = random_state(n, seed)
        expected = state.amplitudes.copy()
        i0 = matching_indices(n, controls, value, skip=target)
        i1 = i0 | (1 << target)
        expected[i0], expected[i1] = state.amplitudes[i1], state.amplitudes[i0]
        apply_value_controlled_flip(state, controls, value, target)
        assert np.array_equal(state.amplitudes, expected)

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_phase_matches_index_negation(self, seed, data):
        n = data.draw(st.integers(1, 6))
        order = data.draw(st.permutations(range(n)))
        controls = list(order[: data.draw(st.integers(0, n))])
        value = data.draw(st.integers(0, (1 << len(controls)) - 1))
        state = random_state(n, seed)
        expected = state.amplitudes.copy()
        expected[matching_indices(n, controls, value)] *= -1.0
        apply_value_controlled_phase(state, controls, value)
        assert np.array_equal(state.amplitudes, expected)


class TestFusedPrimitives:
    """The fused passes against one gate at a time and an index oracle."""

    @staticmethod
    def check_hadamards(n, qubits, seed):
        state = random_state(n, seed)
        expected = state.copy()
        for q in qubits:
            apply_hadamard(expected, q)
        apply_hadamards(state, qubits)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_hadamards_match_sequential_hadamards(self, seed, data):
        n = data.draw(st.integers(1, 8))
        qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        self.check_hadamards(n, qubits, seed)

    @pytest.mark.parametrize(
        "qubits", [(7,), (0,), (2,), (1, 2, 3, 4), (0, 2, 4, 6), (5, 6, 7), tuple(range(8))]
    )
    def test_hadamards_named_subsets(self, qubits):
        # Single qubits, the top qubit, runs cut at 3 and gapped subsets.
        self.check_hadamards(8, qubits, seed=len(qubits))

    # With pieces of 8 or 16 amplitudes, states of a few qubits reach a
    # second piece, runs that straddle the piece boundary and runs above it.
    @pytest.mark.parametrize("piece", [1 << 3, 1 << 4])
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_hadamards_in_small_pieces(self, piece, seed, data):
        n = data.draw(st.integers(1, 8))
        qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", piece):
            self.check_hadamards(n, qubits, seed)

    @pytest.mark.parametrize("piece", [1 << 3, 1 << 4])
    @pytest.mark.parametrize("qubits", [(1, 2, 3, 4), (0, 2, 4, 6), tuple(range(8))])
    def test_hadamards_named_subsets_in_small_pieces(self, piece, qubits):
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", piece):
            self.check_hadamards(8, qubits, seed=len(qubits))

    # Widths 1-3 from start 0 up: the widened block at the low starts, the
    # block times the (-1, 2**width, 2 << start) view above them.
    @pytest.mark.parametrize("kind", ["hadamard", "inversion"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("start", range(6))
    def test_block_at_each_start(self, kind, width, start):
        n = 9
        state = random_state(n, seed=start * 4 + width)
        expected = state.copy()
        register = range(start, start + width)
        if kind == "hadamard":
            for q in register:
                apply_hadamard(expected, q)
        else:
            apply_inversion_about_average(expected, register)
        scratch = np.empty(2 * sv._BATCH_AMPLITUDES)
        sv._apply_block(state.amplitudes.view(np.float64), kind, start, width, scratch)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)

    # With BLAS calls of 32 amplitudes and numpy calls of 64, a 9-qubit
    # state reaches what only large states reach at the real sizes: rows
    # cut into column slabs, and numpy calls within one row group.
    @pytest.mark.parametrize(
        "qubits", [(0, 1, 2), (3, 4, 5), (6, 7, 8), (8,), (1, 2, 3, 4), tuple(range(9))]
    )
    def test_blocks_in_small_calls(self, qubits):
        with mock.patch.object(sv, "_BLAS_AMPLITUDES", 32), \
                mock.patch.object(sv, "_BATCH_AMPLITUDES", 64):
            self.check_hadamards(9, qubits, seed=len(qubits))
            self.check_register_inversions(9, 2, 4, seed=len(qubits))

    @staticmethod
    def check_register_inversions(n, width, count, seed):
        state = random_state(n, seed)
        expected = state.copy()
        for i in range(count):
            apply_inversion_about_average(expected, range(i * width, (i + 1) * width))
        apply_register_inversions(state, width, count)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)

    @pytest.mark.parametrize("piece", [1 << 15, 1 << 3, 1 << 4])
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_register_inversions_match_inversion_about_average(self, piece, seed, data):
        width = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, min(4, 12 // width)))
        n = data.draw(st.integers(width * count, 12))
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", piece):
            self.check_register_inversions(n, width, count, seed)

    # Wider than any register under the default cap (N=16 has 4 qubits).
    @pytest.mark.parametrize("width", [5, 6])
    def test_wide_registers_match_inversion_about_average(self, width):
        self.check_register_inversions(2 * width + 1, width, 2, seed=width)

    def test_register_inversions_reject_bad_layouts(self):
        for n, width, count in [(3, 0, 1), (3, 1, 0), (3, 2, 2), (7, 7, 1)]:
            with pytest.raises(DomainError):
                apply_register_inversions(zero_state(n), width, count)

    def test_hadamards_reject_bad_qubits(self):
        with pytest.raises(DomainError):
            apply_hadamards(zero_state(3), [0, 3])
        with pytest.raises(DomainError):
            apply_hadamards(zero_state(3), [1, 1])

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_xor_permutation_matches_index_oracle(self, seed, data):
        n = data.draw(st.integers(1, 8))
        low = data.draw(st.integers(0, n))
        dtype = data.draw(st.sampled_from([np.int64, np.uint64, np.uint8]))
        self.check_xor_permutation(n, low, dtype, seed)

    # With pieces of 8 or 16 amplitudes the columns go in several blocks,
    # down to one column per block.
    @pytest.mark.parametrize("piece", [1 << 3, 1 << 4])
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_xor_permutation_in_small_pieces(self, piece, seed, data):
        n = data.draw(st.integers(1, 8))
        low = data.draw(st.integers(0, n))
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", piece):
            self.check_xor_permutation(n, low, np.int64, seed)

    @staticmethod
    def check_xor_permutation(n, low, dtype, seed):
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 1 << (n - low), size=1 << low)
        state = random_state(n, seed)
        index = np.arange(1 << n)
        c = index & ((1 << low) - 1)
        expected = state.amplitudes[((index >> low) ^ masks[c]) << low | c]
        apply_xor_permutation(state, low, masks.astype(dtype))
        assert np.array_equal(state.amplitudes, expected)

    # With a parity key the pass maps, flips the top qubit where the high
    # bits under the key have odd parity, and maps again.
    @pytest.mark.parametrize("piece", [1 << 3, 1 << 4, 1 << 15])
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_query_pass_matches_index_oracle(self, piece, seed, data):
        n = data.draw(st.integers(1, 9))
        low = data.draw(st.integers(0, n - 1))
        key = data.draw(st.integers(0, (1 << (n - low - 1)) - 1))
        workers = data.draw(st.sampled_from([1, 2]))
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 1 << (n - low), size=1 << low)
        state = random_state(n, seed)
        index = np.arange(1 << n)
        c, h = index & ((1 << low) - 1), index >> low
        xor = ((h ^ masks[c]) << low) | c
        top = 1 << (n - 1)
        odd = np.array([bin(x & key).count("1") & 1 for x in h])
        expected = state.amplitudes[xor][np.where(odd, index ^ top, index)][xor]
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", piece), \
                mock.patch.object(sv, "_CPUS", workers):
            apply_xor_permutation(state, low, masks, key)
        assert np.array_equal(state.amplitudes, expected)

    def test_xor_permutation_rejects_bad_masks(self):
        state = zero_state(4)
        with pytest.raises(DomainError):
            apply_xor_permutation(state, 2, np.zeros(3, dtype=int))
        with pytest.raises(DomainError):
            apply_xor_permutation(state, 2, np.array([0, 1, 2, 4]))
        with pytest.raises(DomainError):
            apply_xor_permutation(state, 2, np.array([0, -1, 2, 3]))
        with pytest.raises(DomainError):
            apply_xor_permutation(state, 2, np.zeros(4))
        with pytest.raises(DomainError):
            apply_xor_permutation(state, 5, np.zeros(32, dtype=int))
        # The key picks bits below the top high qubit, which it flips.
        for low, key in [(2, 2), (2, -1), (4, 0)]:
            with pytest.raises(DomainError, match="parity key"):
                apply_xor_permutation(state, low, np.zeros(1 << low, dtype=int), key)


def sparse_state() -> StateVector:
    """18 qubits, eight pieces of the block kernel: random amplitudes in
    the first, a middle and the last piece, -0.0 in piece 5, +0.0 in
    pieces 1, 4 and 6, and in piece 2 only its last amplitude's imaginary
    part is nonzero, the least subnormal 5e-324, past the prefix that the
    zero test reads first."""
    state = random_state(18, seed=0)
    pieces = state.amplitudes.reshape(8, sv._PIECE_AMPLITUDES)
    pieces[[1, 2, 4, 6]] = 0.0
    pieces[5] = complex(-0.0, -0.0)
    pieces[2, -1] = 5e-324j
    return state


def counted_blocks(monkeypatch) -> list:
    """Record the (kind, start, width) of each `_apply_block` call."""
    calls = []
    apply = sv._apply_block

    def recorded(floats, kind, start, width, scratch):
        calls.append((kind, start, width))
        apply(floats, kind, start, width, scratch)

    monkeypatch.setattr(sv, "_apply_block", recorded)
    return calls


class TestZeroPieces:
    """The block kernel skips the units a block would map from zero to
    zero: pieces of 2**15 amplitudes for the low blocks, aligned runs of
    2**(start+width) for a block reaching past them."""

    @staticmethod
    def check(fused, literal, dead):
        state = sparse_state()
        expected = state.copy()
        literal(expected)
        fused(state)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)
        pieces = state.amplitudes.reshape(8, -1)
        assert not pieces[list(dead)].any()

    # Low runs only, one run, a run from qubit 15 (two pieces per unit,
    # {4, 5} dead), from qubit 16 (four pieces per unit, all live), runs
    # on both sides of the boundary, and a run of the whole state.
    @pytest.mark.parametrize("qubits, dead", [
        (tuple(range(15)), (1, 4, 5, 6)), ((0,), (1, 4, 5, 6)), ((14,), (1, 4, 5, 6)),
        ((15,), (4, 5)), ((16,), ()), ((3, 15, 16), ()), ((15, 16, 17), ()),
    ])
    def test_hadamards_match_sequential_hadamards(self, qubits, dead):
        def literal(state):
            for q in qubits:
                apply_hadamard(state, q)

        self.check(lambda s: apply_hadamards(s, qubits), literal, dead)

    # Low registers only, then registers from qubit 15 on: three of one
    # qubit, one of two straddling the boundary at 14, one of three.
    @pytest.mark.parametrize("width, count, dead", [
        (3, 5, (1, 4, 5, 6)), (1, 15, (1, 4, 5, 6)), (1, 18, ()), (2, 8, (4, 5)), (3, 6, ()),
    ])
    def test_register_inversions_match_inversion_about_average(self, width, count, dead):
        def literal(state):
            for i in range(count):
                apply_inversion_about_average(state, range(i * width, (i + 1) * width))

        self.check(lambda s: apply_register_inversions(s, width, count), literal, dead)

    def test_subnormal_piece_is_processed(self):
        # The one-qubit inversion is [[0, -1], [-1, 0]]: it moves the
        # subnormal's imaginary part, negated, to the even amplitude.
        state = sparse_state()
        apply_register_inversions(state, 1, 1)
        piece = state.amplitudes.reshape(8, -1)[2]
        assert piece[-1] == 0
        assert piece[-2] == -5e-324j
        assert np.count_nonzero(piece) == 1

    def test_negative_zero_piece_is_skipped(self, monkeypatch):
        # Pieces 0, 2, 3 and 7 are live; 1, 4 and 6 hold +0.0, 5 -0.0.
        calls = counted_blocks(monkeypatch)
        state = sparse_state()
        apply_hadamards(state, (0, 1, 2))
        assert len(calls) == 4
        assert np.signbit(state.amplitudes.reshape(8, -1)[5].view(np.float64)).all()

    @pytest.mark.parametrize("live", [0, 3, 7])
    def test_one_call_per_low_run_when_one_piece_is_live(self, live, monkeypatch):
        state = StateVector(18, np.zeros(1 << 18))
        state.amplitudes.reshape(8, -1)[live] = random_state(15, seed=live).amplitudes
        calls = counted_blocks(monkeypatch)
        apply_hadamards(state, range(15))
        assert len(calls) == 5
        del calls[:]
        apply_register_inversions(state, 1, 15)
        assert len(calls) == 15

    # A block on qubit 15 takes units of two pieces, of which {4, 5}
    # holds zeros alone; on qubit 16, units of four pieces, all live; on
    # qubit 17, the whole state, which is never tested.
    @pytest.mark.parametrize("qubit, units", [(15, 3), (16, 2), (17, 1)])
    def test_high_run_is_applied_to_its_live_units(self, qubit, units, monkeypatch):
        calls = counted_blocks(monkeypatch)
        state = sparse_state()
        apply_hadamards(state, (qubit,))
        assert len(calls) == units

    def test_state_of_one_piece_is_one_unit(self, monkeypatch):
        # Not tested for zeros: even an all-zero piece is multiplied.
        calls = counted_blocks(monkeypatch)
        apply_hadamards(StateVector(15, np.zeros(1 << 15)), range(15))
        assert len(calls) == 5


def xor_workers(monkeypatch) -> list:
    """Record the block width, in columns, of each worker that
    `apply_xor_permutation` starts."""
    widths = []
    gather = sv._xor_columns

    def recorded(amplitudes, masks, cols, starts, odd_rows):
        widths.append(cols)
        gather(amplitudes, masks, cols, starts, odd_rows)

    monkeypatch.setattr(sv, "_xor_columns", recorded)
    return widths


class TestXorWorkers:
    """Splitting the XOR permutation between workers changes no byte.

    `_CPUS` is forced to 1 and 2, whatever this machine has."""

    # (N, eta): 17 qubits (four pieces), 18, 19 and 20.
    LAYOUTS = [(2, 14), (4, 6), (8, 3), (4, 7), (2, 17)]

    @pytest.mark.parametrize("n_items, eta", LAYOUTS)
    def test_split_is_exact(self, n_items, eta, monkeypatch):
        layout = RegisterLayout(n_items.bit_length() - 1, eta, n_items)
        low = layout.item_bits * eta
        rng = np.random.default_rng(eta)
        masks = rng.integers(0, 1 << (layout.total_qubits - low), size=1 << low)
        widths = xor_workers(monkeypatch)
        results, shares = {}, {}
        for workers in (1, 2):
            monkeypatch.setattr(sv, "_CPUS", workers)
            widths.clear()
            state = random_state(layout.total_qubits, seed=eta)
            apply_xor_permutation(state, low, masks)
            results[workers], shares[workers] = state.amplitudes, list(widths)
        # Two workers divide one worker's block between them.
        assert shares[2] == [shares[1][0] // 2] * 2
        assert np.array_equal(results[1], results[2])

    @pytest.mark.parametrize("n_items, eta", LAYOUTS)
    def test_split_search_is_exact(self, n_items, eta, monkeypatch):
        params = SearchParameters(n_items, eta)
        pred = BooleanPredicate(n_items, frozenset({1}))
        finals = {}
        for workers in (1, 2):
            monkeypatch.setattr(sv, "_CPUS", workers)
            finals[workers] = run_circuit(params, pred).final_state.amplitudes
        assert np.array_equal(finals[1], finals[2])

    # With pieces of 8 amplitudes, states from 5 qubits up split.
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_split_in_small_pieces(self, seed, data):
        n = data.draw(st.integers(1, 9))
        low = data.draw(st.integers(0, n))
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", 1 << 3), \
                mock.patch.object(sv, "_CPUS", 2):
            TestFusedPrimitives.check_xor_permutation(n, low, np.int64, seed)

    def test_split_under_fast_thread_switches(self, monkeypatch):
        # The workers share one queue of blocks.  With pieces of 8
        # amplitudes a 12-qubit state has 1024 one-column blocks; a block
        # taken twice is permuted back, and a block taken by no worker
        # stays, so either breaks equality with the one-worker result.
        monkeypatch.setattr(sv, "_PIECE_AMPLITUDES", 1 << 3)
        n, low = 12, 10
        masks = np.random.default_rng(5).integers(0, 1 << (n - low), size=1 << low)
        monkeypatch.setattr(sv, "_CPUS", 1)
        expected = apply_xor_permutation(random_state(n, seed=5), low, masks)
        monkeypatch.setattr(sv, "_CPUS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                state = apply_xor_permutation(random_state(n, seed=5), low, masks)
                assert np.array_equal(state.amplitudes, expected.amplitudes)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_qubits, low", [(18, 3), (16, 8), (15, 6)])
    def test_one_worker_where_the_block_cannot_be_divided(self, n_qubits, low, monkeypatch):
        # A block of one column, or one below a piece, holds no two shares.
        monkeypatch.setattr(sv, "_CPUS", 2)
        widths = xor_workers(monkeypatch)
        masks = np.arange(1 << low) % (1 << (n_qubits - low))
        apply_xor_permutation(random_state(n_qubits, seed=low), low, masks)
        assert len(widths) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        # The child inherits the parent's pool object but not its thread;
        # a split in the child must not wait on the missing thread.
        monkeypatch.setattr(sv, "_CPUS", 2)
        n, low = 18, 9
        masks = np.arange(1 << low)[::-1] % (1 << (n - low))
        apply_xor_permutation(random_state(n, seed=3), low, masks)
        assert sv._xor_pool_pid == os.getpid()
        expected = random_state(n, seed=4)
        with mock.patch.object(sv, "_CPUS", 1):
            apply_xor_permutation(expected, low, masks)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                state = random_state(n, seed=4)
                apply_xor_permutation(state, low, masks)
                exact = np.array_equal(state.amplitudes, expected.amplitudes)
                code = 0 if exact and sv._xor_pool_pid == os.getpid() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split did not finish within 60 s")


class TestMemoryContract:
    """No gate builds a temporary of the state's size.

    The state has 18 qubits (4 MiB).  NumPy iterates short strided runs
    through fixed buffers of 3 x 8192 amplitudes (384 KiB), more than a
    quarter of a 16-qubit state but not of this one.  Flips hold two
    buffers of 4096 amplitudes (128 KiB) and the blocks one scratch of
    8192 (128 KiB); the XOR pass holds a block of at most 2**15
    amplitudes and a quarter of the state twice, with its int64 index,
    and NumPy's 64 KiB of buffers for the index's broadcast XOR: up to
    about 1.4 MiB here, and under 512 KiB for the 15-qubit state of N=8,
    eta=2, where a block of the whole state would hold 1.25 MiB.  Two XOR
    workers each hold half a block and their own broadcast buffers.
    Fixed bounds leave room for the Python objects made per call.
    """

    BUFFER_BOUND = 256 * 1024
    XOR_BOUND = 1536 * 1024
    XOR_REPEATS = 8

    N_QUBITS = 18

    def traced_peak(self, fn) -> int:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.fixture
    def state(self):
        return random_state(self.N_QUBITS, seed=1)

    @pytest.mark.parametrize("qubit", [0, 1, 7, 17])
    def test_hadamard(self, state, qubit):
        peak = self.traced_peak(lambda: apply_hadamard(state, qubit))
        assert peak < state.amplitudes.nbytes // 4

    @pytest.mark.parametrize("register", [(0, 1, 2), (6, 7, 8), (15, 16, 17), (2, 9, 4, 11)])
    def test_inversion_about_average(self, state, register):
        peak = self.traced_peak(lambda: apply_inversion_about_average(state, register))
        assert peak < state.amplitudes.nbytes // 4

    @pytest.mark.parametrize("qubits", [tuple(range(15)), (17, 3, 8), (5,)])
    def test_marginal(self, state, qubits):
        peak = self.traced_peak(lambda: marginal_distribution(state, qubits))
        assert peak < state.amplitudes.nbytes // 4

    @pytest.mark.parametrize(
        "controls, target", [((0, 1, 2), 12), ((15, 16, 17), 0), ((5,), 17), ((), 3)]
    )
    def test_flip_holds_at_most_its_subspace(self, state, controls, target):
        peak = self.traced_peak(
            lambda: apply_value_controlled_flip(state, controls, 0, target)
        )
        assert peak <= self.BUFFER_BOUND

    @pytest.mark.parametrize("qubits", [tuple(range(15)), (0,), (17,), (1, 2, 5, 9, 17)])
    def test_hadamards(self, state, qubits):
        peak = self.traced_peak(lambda: apply_hadamards(state, qubits))
        assert peak <= self.BUFFER_BOUND

    @pytest.mark.parametrize("width, count", [(3, 5), (4, 4), (1, 18)])
    def test_register_inversions(self, state, width, count):
        peak = self.traced_peak(lambda: apply_register_inversions(state, width, count))
        assert peak <= self.BUFFER_BOUND

    # The zero test reads the pieces in place, all of them where the
    # prefix is zero.
    @pytest.mark.parametrize("qubits", [tuple(range(15)), (0,), (15,), (1, 2, 5, 9, 17)])
    def test_hadamards_on_a_sparse_state(self, qubits):
        state = sparse_state()
        peak = self.traced_peak(lambda: apply_hadamards(state, qubits))
        assert peak <= self.BUFFER_BOUND

    @pytest.mark.parametrize("width, count", [(3, 5), (4, 4), (1, 18)])
    def test_register_inversions_on_a_sparse_state(self, width, count):
        state = sparse_state()
        peak = self.traced_peak(lambda: apply_register_inversions(state, width, count))
        assert peak <= self.BUFFER_BOUND

    # Each XOR case runs with one worker and with two, several times, so
    # that two workers' buffers overlap in time in some run.  At low=3 a
    # block is one column, which two workers cannot share.  The worker
    # thread is made untraced first: the first split in a process imports
    # concurrent.futures (about 600 KiB of Python objects), once.
    @pytest.mark.parametrize("low", [15, 9, 3])
    def test_xor_permutation(self, state, low, monkeypatch):
        sv._worker_pool()
        masks = np.arange(1 << low) % (1 << (self.N_QUBITS - low))
        for workers in (1, 2):
            monkeypatch.setattr(sv, "_CPUS", workers)
            for _ in range(self.XOR_REPEATS):
                peak = self.traced_peak(lambda: apply_xor_permutation(state, low, masks))
                assert peak <= self.XOR_BOUND

    # The query pass holds a copy of the block beside the gathered one,
    # 40 bytes per amplitude with the index, and swaps step 4's rows
    # through the copy; its odd rows add 2 bytes per high row.
    @pytest.mark.parametrize("low", [15, 9, 3])
    def test_query_pass(self, state, low, monkeypatch):
        sv._worker_pool()
        high = 1 << (self.N_QUBITS - low)
        masks = np.arange(1 << low) % high
        for key in (1, 0x5555 & (high // 2 - 1), high // 2 - 1):
            for workers in (1, 2):
                monkeypatch.setattr(sv, "_CPUS", workers)
                for _ in range(self.XOR_REPEATS):
                    peak = self.traced_peak(
                        lambda: apply_xor_permutation(state, low, masks, key)
                    )
                    assert peak <= self.XOR_BOUND

    def test_xor_permutation_below_a_small_state(self, monkeypatch):
        # N=8, eta=2: 6 sample qubits under 9 more, a state of one piece.
        n, low = 15, 6
        state = random_state(n, seed=2)
        masks = np.arange(1 << low) % (1 << (n - low))
        for workers in (1, 2):
            monkeypatch.setattr(sv, "_CPUS", workers)
            for _ in range(self.XOR_REPEATS):
                peak = self.traced_peak(lambda: apply_xor_permutation(state, low, masks))
                assert peak < state.amplitudes.nbytes


class TestInversionAboutAverage:
    def test_uniform_state_is_negated(self):
        state = zero_state(3)
        for q in range(3):
            apply_hadamard(state, q)
        uniform = state.amplitudes.copy()
        apply_inversion_about_average(state, [0, 1, 2])
        assert np.allclose(state.amplitudes, -uniform, atol=NORM_ATOL)

    def test_single_qubit_register(self):
        # H diag(-1,1) H = [[0,-1],[-1,0]], so |0> goes to -|1>.
        state = apply_inversion_about_average(zero_state(1), [0])
        assert np.allclose(state.amplitudes, [0, -1], atol=NORM_ATOL)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_matches_dense_matrix(self, nu):
        diag = np.eye(1 << nu, dtype=complex)
        diag[0, 0] = -1
        h_all = reduce(np.kron, [H_MATRIX] * nu)
        operator = h_all @ diag @ h_all
        state = random_state(nu, seed=20 + nu)
        expected = operator @ state.amplitudes
        apply_inversion_about_average(state, list(range(nu)))
        assert np.allclose(state.amplitudes, expected, atol=NORM_ATOL)

    def test_matches_dense_matrix_on_embedded_register(self):
        # Register on qubits (1, 2) of a 4-qubit state; qubit 1 is the
        # low bit of the register value.
        state = random_state(4, seed=31)
        diag = np.eye(4, dtype=complex)
        diag[0, 0] = -1
        op = np.kron(H_MATRIX, H_MATRIX) @ diag @ np.kron(H_MATRIX, H_MATRIX)
        # Axis order for a 4-qubit tensor is (q3, q2, q1, q0); the operator
        # acts on (q2, q1).
        full = np.kron(np.kron(np.eye(2), op), np.eye(2))
        expected = full @ state.amplitudes
        apply_inversion_about_average(state, [1, 2])
        assert np.allclose(state.amplitudes, expected, atol=NORM_ATOL)


class TestInvolutionsAndNorm:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_gates_are_involutions_and_norm_preserving(self, seed, data):
        n = data.draw(st.integers(1, 5))
        state = random_state(n, seed)
        original = state.amplitudes.copy()
        kind = data.draw(st.sampled_from(["h", "z", "flip", "phase", "invavg"]))
        if kind in ("h", "z"):
            qubit = data.draw(st.integers(0, n - 1))
            op = apply_hadamard if kind == "h" else apply_sigma_z
            op(state, qubit)
            assert abs(state.norm() - 1) < NORM_ATOL
            op(state, qubit)
        else:
            k = data.draw(st.integers(1, n))
            qubits = data.draw(
                st.permutations(range(n)).map(lambda p: list(p)[:k])
            )
            if kind == "flip":
                if k == n:
                    return
                controls = qubits
                target = data.draw(st.sampled_from([q for q in range(n) if q not in controls]))
                value = data.draw(st.integers(0, (1 << len(controls)) - 1))
                apply_value_controlled_flip(state, controls, value, target)
                assert abs(state.norm() - 1) < NORM_ATOL
                apply_value_controlled_flip(state, controls, value, target)
            elif kind == "phase":
                value = data.draw(st.integers(0, (1 << k) - 1))
                apply_value_controlled_phase(state, qubits, value)
                assert abs(state.norm() - 1) < NORM_ATOL
                apply_value_controlled_phase(state, qubits, value)
            else:
                apply_inversion_about_average(state, qubits)
                assert abs(state.norm() - 1) < NORM_ATOL
                apply_inversion_about_average(state, qubits)
        assert np.allclose(state.amplitudes, original, atol=NORM_ATOL)


class TestMarginals:
    def test_uniform_register(self):
        state = zero_state(3)
        for q in range(3):
            apply_hadamard(state, q)
        marg = marginal_distribution(state, [0, 1, 2])
        assert np.allclose(marg, np.full(8, 1 / 8), atol=NORM_ATOL)

    def test_single_qubit_after_hadamard(self):
        state = apply_sigma_z(apply_hadamard(zero_state(2), 1), 1)
        marg = marginal_distribution(state, [1])
        assert np.allclose(marg, [0.5, 0.5], atol=NORM_ATOL)

    def test_bit_order_follows_request(self):
        state = zero_state(2)
        state.amplitudes[:] = [0, 1, 0, 0]  # qubit 0 set, qubit 1 clear
        assert np.allclose(marginal_distribution(state, [0, 1]), [0, 1, 0, 0])
        assert np.allclose(marginal_distribution(state, [1, 0]), [0, 0, 1, 0])

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(DomainError):
            marginal_distribution(zero_state(2), [0, 0])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_sums_to_one(self, seed, data):
        n = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, n))
        qubits = data.draw(st.permutations(range(n)).map(lambda p: list(p)[:k]))
        marg = marginal_distribution(random_state(n, seed), qubits)
        assert marg.shape == (1 << k,)
        assert abs(marg.sum() - 1) < NORM_ATOL


class TestFidelity:
    def test_identical_states(self):
        state = random_state(3, seed=2)
        assert abs(fidelity_mod_phase(state, state) - 1) < FIDELITY_ATOL

    def test_global_phase_invariance(self):
        state = random_state(3, seed=3)
        negated = StateVector(3, -state.amplitudes)
        assert abs(fidelity_mod_phase(state, negated) - 1) < FIDELITY_ATOL
        rotated = StateVector(3, np.exp(0.7j) * state.amplitudes)
        assert abs(fidelity_mod_phase(state, rotated) - 1) < FIDELITY_ATOL

    def test_orthogonal_states(self):
        a = zero_state(2)
        b = zero_state(2)
        b.amplitudes[:] = [0, 1, 0, 0]
        assert fidelity_mod_phase(a, b) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fidelity_mod_phase(zero_state(2), zero_state(3))
