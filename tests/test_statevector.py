"""Simulator primitives checked against dense-matrix ground truth."""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from helpers import matching_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import CapacityError, DomainError, RegisterLayout, StateVector
from paritysearch.statevector import (
    FIDELITY_ATOL,
    NORM_ATOL,
    apply_hadamard,
    apply_inversion_about_average,
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

    def test_capacity(self):
        with pytest.raises(CapacityError):
            zero_state(25)
        with pytest.raises(CapacityError):
            zero_state(13, cap=12)


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


class TestMemoryContract:
    """No gate builds a temporary of the state's size.

    The state has 18 qubits (4 MiB).  NumPy iterates short strided runs
    through fixed buffers of 3 x 8192 amplitudes (384 KiB), more than a
    quarter of a 16-qubit state but not of this one.  Python objects
    made per call are covered by a 16 KiB allowance on the flip's bound.
    """

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
        subspace = state.amplitudes.nbytes >> len(controls)
        peak = self.traced_peak(
            lambda: apply_value_controlled_flip(state, controls, 0, target)
        )
        assert peak <= subspace + 16 * 1024


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
