"""Simulator primitives checked against dense-matrix ground truth."""

import math
import sys
import threading
import tracemalloc
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import matching_indices, peak_rss_growth, query_parity_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    SearchParameters,
    StateVector,
    amplitudes,
    analytic_product_state,
    build_circuit,
    run_circuit,
)
from paritysearch import statevector as sv
from paritysearch.circuit import _query_bits
from paritysearch.statevector import (
    FIDELITY_ATOL,
    NORM_ATOL,
    apply_hadamard,
    apply_inversion_about_average,
    apply_register_inversions,
    apply_sigma_z,
    apply_value_controlled_flip,
    apply_value_controlled_phase,
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


class TestZeroState:
    def test_initial_amplitudes(self):
        state = zero_state(SearchParameters(2, 2).total_qubits)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1
        assert state.amplitudes.shape == (32,)

    def test_dimension(self):
        assert zero_state(SearchParameters(4, 1).total_qubits).amplitudes.shape == (128,)

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
# (qubits, states kept, bytes of a gate list built, call).  A gate list
# keeps no state, but its 48 records are priced at 160 B each; capture's
# seven states cost more than the list it replays.
_INSTANCE = (SearchParameters(4, 3), BooleanPredicate.from_marks(4, [2]))
_REFUSAL_POINTS = {
    "zero_state": (11, 1, 0, lambda: zero_state(11)),
    "build_circuit": (11, 0, 48 * 160, lambda: build_circuit(*_INSTANCE)),
    "capture": (11, 7, 0, lambda: run_circuit(*_INSTANCE, capture=True)),
    "product_state": (6, 1, 0, lambda: analytic_product_state(amplitudes(4, 1), _INSTANCE[1], 3)),
}


class TestCapacity:
    @pytest.mark.parametrize("point", sorted(_REFUSAL_POINTS))
    def test_refusal_points(self, point, monkeypatch):
        qubits, kept, list_bytes, call = _REFUSAL_POINTS[point]
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
        if list_bytes:
            monkeypatch.setattr(sv, "physical_memory_bytes", lambda: list_bytes - 1)
            with pytest.raises(CapacityError, match="gate list of 48 records.*physical memory"):
                call()
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: kept * state_bytes + list_bytes)
        call()

    def test_a_price_of_any_size_is_never_built(self, monkeypatch):
        # Built, 16 << 10**30 would be an integer of about 1e29 bytes.
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 8 << 30)
        with pytest.raises(CapacityError, match=r"^x: 2\*\*1e\+30 B, more than the 8.0 GiB"):
            sv.check_memory(16, "x", 10**30)
        with pytest.raises(CapacityError, match=r"^x: 2\*\*809 B, more than"):
            sv.check_memory(16, "x", 805)
        sv.check_memory(0, "x", 10**30)  # nothing costs nothing

    def test_one_module_reads_the_limits(self):
        # The other modules price their bytes through `check_memory` and
        # their qubits through `check_capacity`.
        for path in sorted(Path(sv.__file__).parent.glob("*.py")):
            text = path.read_text()
            reads = "physical_memory_bytes" in text or "QUBIT_CAP_ENV_VAR" in text
            assert reads == (path.name == "statevector.py"), path.name


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
    """The block kernel against one gate at a time."""

    @staticmethod
    def literal_inversion(state, register, reference):
        """The inversion about average on `register` as the literal run
        applies it in step 6, Hadamards around a phase flip on 0, or as
        the mean subtraction of `apply_inversion_about_average`."""
        if reference == "hadamard":
            for q in register:
                apply_hadamard(state, q)
            apply_value_controlled_phase(state, register, 0)
            for q in register:
                apply_hadamard(state, q)
        else:
            apply_inversion_about_average(state, register)

    # Widths 1-3 from start 0 up: the widened block at the low starts, the
    # block times the (-1, 2**width, 2 << start) view above them.
    @pytest.mark.parametrize("reference", ["hadamard", "inversion"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("start", range(6))
    def test_block_at_each_start(self, reference, width, start):
        n = 9
        state = random_state(n, seed=start * 4 + width)
        expected = state.copy()
        self.literal_inversion(expected, range(start, start + width), reference)
        scratch = np.empty(2 * sv._BATCH_AMPLITUDES)
        sv._apply_block(state.amplitudes.view(np.float64), start, width, scratch)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)

    # With BLAS calls of 32 amplitudes and numpy calls of 64, a 9-qubit
    # state reaches what only large states reach at the real sizes: rows
    # cut into column slabs, and numpy calls within one row group.
    # Registers of one and two qubits, the widest that fit such a call, at
    # the bottom, in the middle and at the top of the state.
    @pytest.mark.parametrize("qubits", [(0,), (0, 1), (3, 4), (4,), (7, 8), (8,)])
    def test_blocks_in_small_calls(self, qubits):
        state = random_state(9, seed=sum(qubits))
        expected = state.copy()
        self.literal_inversion(expected, qubits, "hadamard")
        with mock.patch.object(sv, "_BLAS_AMPLITUDES", 32), \
                mock.patch.object(sv, "_BATCH_AMPLITUDES", 64):
            sv._apply_blocks(state, [(qubits[0], len(qubits))])
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)

    @pytest.mark.parametrize("width, count", [(1, 9), (2, 4)])
    def test_register_inversions_in_small_calls(self, width, count):
        with mock.patch.object(sv, "_BLAS_AMPLITUDES", 32), \
                mock.patch.object(sv, "_BATCH_AMPLITUDES", 64):
            self.check_register_inversions(9, width, count, seed=width)

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

def sparse_state() -> StateVector:
    """18 qubits, eight pieces of the block kernel: random amplitudes in
    the first, a middle and the last piece, -0.0 in piece 5, +0.0 in
    pieces 1, 4 and 6, and in piece 2 only its last amplitude's imaginary
    part is nonzero, the least subnormal 5e-324."""
    state = random_state(18, seed=0)
    pieces = state.amplitudes.reshape(8, sv._PIECE_AMPLITUDES)
    pieces[[1, 2, 4, 6]] = 0.0
    pieces[5] = complex(-0.0, -0.0)
    pieces[2, -1] = 5e-324j
    return state


class TestZeroPieces:
    """The block kernel on a state of mostly zero pieces, signed zeros and
    a subnormal: the same as the literal inversion about average."""

    # Low registers only, then registers from qubit 15 on: three of one
    # qubit, one of two straddling the boundary at 14, one of three.  A
    # register below qubit 15 keeps each piece to itself, one below qubit
    # 16 each pair of pieces, so `dead` pieces, all zero in the units
    # they share, stay zero.
    @pytest.mark.parametrize("width, count, dead", [
        (3, 5, (1, 4, 5, 6)), (1, 15, (1, 4, 5, 6)), (1, 18, ()), (2, 8, (4, 5)), (3, 6, ()),
    ])
    def test_register_inversions_match_inversion_about_average(self, width, count, dead):
        state = sparse_state()
        expected = state.copy()
        for i in range(count):
            apply_inversion_about_average(expected, range(i * width, (i + 1) * width))
        apply_register_inversions(state, width, count)
        assert np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)
        pieces = state.amplitudes.reshape(8, -1)
        assert not pieces[list(dead)].any()

    def test_subnormal_piece_is_processed(self):
        # The one-qubit inversion is [[0, -1], [-1, 0]]: it moves the
        # subnormal's imaginary part, negated, to the even amplitude.
        state = sparse_state()
        apply_register_inversions(state, 1, 1)
        piece = state.amplitudes.reshape(8, -1)[2]
        assert piece[-1] == 0
        assert piece[-2] == -5e-324j
        assert np.count_nonzero(piece) == 1

class TestLiveAmplitudes:
    """A search touches only its live amplitudes, on the calling thread."""

    def test_search_starts_no_thread(self):
        # 17 qubits (N=2, eta=14): four pieces.
        threads = threading.active_count()
        run_circuit(SearchParameters(2, 14), BooleanPredicate(2, frozenset({1})))
        assert threading.active_count() == threads

    def test_search_writes_only_its_live_pages(self):
        # A 21-qubit search (N=8, eta=4) holds a 32 MiB state, of which
        # 2**13 amplitudes are ever nonzero; its peak RSS may grow by less
        # than a quarter of the state past a 15-qubit warm-up's.
        growth = peak_rss_growth(
            "from paritysearch import BooleanPredicate, SearchParameters, run_search\n"
            "pred = BooleanPredicate(8, frozenset({1}))\n"
            "run_search(SearchParameters(8, 2), pred, seed=1)",
            "run_search(SearchParameters(8, 4), pred, seed=1)",
        )
        assert growth < (16 << 21) // 4


class TestXorWorkers:
    """A search runs in the calling thread and starts no worker; step 6
    divides its row into pieces.  How it divides them changes no byte,
    and searches in other threads do not disturb it."""

    # (N, eta): 17 qubits (four pieces), 18, 19 and 20.
    LAYOUTS = [(2, 14), (4, 6), (8, 3), (4, 7), (2, 17)]

    @staticmethod
    def searched(n, eta, marks) -> bytes:
        return run_circuit(SearchParameters(n, eta), BooleanPredicate(n, frozenset(marks))
                           ).final_state.amplitudes.tobytes()

    # Pieces of 2**9 amplitudes cut the row of every layout into many
    # pieces; the default piece into fewer, or one.
    @pytest.mark.parametrize("n_items, eta", LAYOUTS)
    def test_split_is_exact(self, n_items, eta, monkeypatch):
        marks = range(1, n_items + 1, 3)
        expected = self.searched(n_items, eta, marks)
        monkeypatch.setattr(sv, "_PIECE_AMPLITUDES", 1 << 9)
        assert self.searched(n_items, eta, marks) == expected

    # With pieces of 2 amplitudes every piece is one amplitude pair.
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_split_in_small_pieces(self, data):
        n, max_eta = data.draw(st.sampled_from([(2, 8), (4, 4), (8, 2), (16, 1)]))
        eta = data.draw(st.integers(1, max_eta))
        marks = data.draw(st.frozensets(st.integers(1, n)))
        expected = self.searched(n, eta, marks)
        with mock.patch.object(sv, "_PIECE_AMPLITUDES", 1 << 1):
            assert self.searched(n, eta, marks) == expected

    def test_split_under_fast_thread_switches(self, monkeypatch):
        # Two threads run searches of their own while the interpreter
        # switches threads every microsecond.  With pieces of 8
        # amplitudes step 6 takes the 2**10 amplitudes of the lower row
        # in 128 pieces, after the query's bits grew over ten registers;
        # any state shared between the runs would break equality with the
        # one-thread result.
        monkeypatch.setattr(sv, "_PIECE_AMPLITUDES", 1 << 3)
        params, pred = SearchParameters(2, 10), BooleanPredicate(2, frozenset({1}))

        def searched():
            return run_circuit(params, pred).final_state.amplitudes

        expected = searched()
        results = []

        def run():
            for _ in range(20):
                results.append(np.array_equal(searched(), expected))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 40


class TestMemoryContract:
    """No gate builds a temporary of the state's size.

    The state has 18 qubits (4 MiB).  NumPy iterates short strided runs
    through fixed buffers of 3 x 8192 amplitudes (384 KiB), more than a
    quarter of a 16-qubit state but not of this one.  Flips hold two
    buffers of 4096 amplitudes (128 KiB) and the blocks one scratch of
    8192 (128 KiB).  A search's query holds its bits, one byte per
    amplitude of its row, and while it builds them those of the registers
    below, at most half as many; it negates in place: 384 KiB on a row of the
    whole state at N=2 (386 KiB traced), whichever amplitudes it negates,
    and writing the upper row as the lower one negated holds nothing.
    Fixed bounds leave room for the Python objects made per call.
    """

    BUFFER_BOUND = 256 * 1024
    QUERY_BOUND = 768 * 1024
    QUERY_REPEATS = 8

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

    @pytest.mark.parametrize("qubit", [0, 1, 7, 17])
    def test_sigma_z(self, state, qubit):
        peak = self.traced_peak(lambda: apply_sigma_z(state, qubit))
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

    @pytest.mark.parametrize("width, count", [(3, 5), (4, 4), (1, 18)])
    def test_register_inversions(self, state, width, count):
        peak = self.traced_peak(lambda: apply_register_inversions(state, width, count))
        assert peak <= self.BUFFER_BOUND

    @pytest.mark.parametrize("width, count", [(3, 5), (4, 4), (1, 18)])
    def test_register_inversions_on_a_sparse_state(self, width, count):
        state = sparse_state()
        peak = self.traced_peak(lambda: apply_register_inversions(state, width, count))
        assert peak <= self.BUFFER_BOUND

    # The query of a search at N=2 with `low` registers, on the first
    # 2**low amplitudes of the state as its lower row: at N=2 the bits
    # grow by half with each register, the most for their size.  Each
    # case runs several times.
    def check_query(self, state, low, marked_sets):
        params = SearchParameters(2, low)
        row = state.amplitudes[: 1 << low]
        for marks in marked_sets:
            pred = BooleanPredicate(2, frozenset(marks))
            for _ in range(self.QUERY_REPEATS):
                peak = self.traced_peak(
                    lambda: np.negative(row, out=row, where=_query_bits(params, pred)))
                assert peak <= self.QUERY_BOUND

    # Nothing marked: the query is step 3's XOR permutation and its inverse.
    @pytest.mark.parametrize("low", [15, 9, 3])
    def test_xor_permutation(self, state, low):
        self.check_query(state, low, [()])

    # At low=18 the row is the whole state, a 21-qubit search's (eta=18).
    @pytest.mark.parametrize("low", [18, 15, 9, 3])
    def test_query_pass(self, state, low):
        self.check_query(state, low, [(1,), (2,), (1, 2)])

    # The two halves of the state as a search's live rows (N=2, eta=17):
    # the query on the lower half, then the upper written as its negation.
    def test_row_pair(self, state):
        params, pred = SearchParameters(2, 17), BooleanPredicate(2, frozenset({1}))
        lower, upper = state.amplitudes.reshape(2, -1)

        def query():
            np.negative(lower, out=lower, where=_query_bits(params, pred))
            np.negative(lower, out=upper)

        for _ in range(self.QUERY_REPEATS):
            assert self.traced_peak(query) <= self.QUERY_BOUND

    def test_query_pass_with_wide_masks(self, state):
        # N=64, eta=3 on a row of the whole state: the incidence value
        # step 3 writes reaches bit 63, item 64, past an int64.  The bits
        # never build it, and match the index oracle of its parity.
        params, marks = SearchParameters(64, 3), frozenset({1, 2, 33, 64})
        pred = BooleanPredicate(64, marks)
        row = state.amplitudes
        expected = np.where(query_parity_bits(64, 3, marks), -row, row)
        np.negative(row, out=row, where=_query_bits(params, pred))
        assert np.array_equal(row, expected)
        for _ in range(self.QUERY_REPEATS):
            peak = self.traced_peak(
                lambda: np.negative(row, out=row, where=_query_bits(params, pred)))
            assert peak <= self.QUERY_BOUND

    def test_xor_permutation_below_a_small_state(self):
        # N=8, eta=2: 6 sample qubits under 9 more, a state of one piece;
        # the query holds bits for its row of 64 amplitudes, nothing of
        # the state's size.
        state = random_state(15, seed=2)
        params, pred = SearchParameters(8, 2), BooleanPredicate(8, frozenset())
        row = state.amplitudes[:64]
        for _ in range(self.QUERY_REPEATS):
            peak = self.traced_peak(
                lambda: np.negative(row, out=row, where=_query_bits(params, pred)))
            assert peak < state.amplitudes.nbytes // 64


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
