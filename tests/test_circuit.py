"""Circuit construction, intermediate states, measurement, post-processing."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from helpers import expected_full_state, peak_rss_growth, query_parity_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    SampleTuple,
    SearchParameters,
    amplitudes,
    build_circuit,
    layout_for,
    majority_postprocess,
    measure_samples,
    run_circuit,
    run_search,
)
from paritysearch import statevector as sv
from paritysearch.analytic import per_sample_distribution
from paritysearch.circuit import (
    _live_rows,
    _query_bits,
    _register_marginals,
    _sample_marginal,
    apply_record,
)
from paritysearch.statevector import (
    FIDELITY_ATOL,
    NORM_ATOL,
    StateVector,
    fidelity_mod_phase,
    marginal_distribution,
)


def small_grid():
    for n in (2, 4):
        for eta in (1, 2, 3):
            for mask in range(2**n):
                yield SearchParameters(n, eta), BooleanPredicate.from_mask(n, mask)


class TestBuildCircuit:
    def test_step_counts_smallest_instance(self):
        params = SearchParameters(2, 2)
        pred = BooleanPredicate.from_marks(2, [1])
        records = build_circuit(params, pred)
        by_step = Counter(r.step for r in records)
        assert by_step["step2a"] == 3  # two sample qubits plus the ancilla
        assert by_step["step2b"] == 1
        assert by_step["step3"] == 4  # samples x items
        assert by_step["step4"] == 1  # one marked item
        assert by_step["step5"] == 4
        kinds = Counter((r.step, r.kind) for r in records)
        assert kinds[("step6", "hadamard")] == 4
        assert kinds[("step6", "value_controlled_phase")] == 2

    def test_steps_3_and_5_emit_identical_gates(self):
        for params, pred in small_grid():
            records = build_circuit(params, pred)
            pass3 = [(r.kind, r.controls, r.value, r.target) for r in records if r.step == "step3"]
            pass5 = [(r.kind, r.controls, r.value, r.target) for r in records if r.step == "step5"]
            assert pass3 == pass5

    def test_single_oracle_block(self):
        for params, pred in small_grid():
            records = build_circuit(params, pred)
            step4 = [r for r in records if r.step == "step4"]
            assert len(step4) == pred.marked_count
            # the block is contiguous: exactly one run of step4 records
            steps = [r.step for r in records]
            runs = sum(
                1 for i, s in enumerate(steps)
                if s == "step4" and (i == 0 or steps[i - 1] != "step4")
            )
            assert runs == (1 if pred.marked_count else 0)

    def test_step4_targets_ancilla_off_marked_incidence(self):
        params = SearchParameters(4, 2)
        pred = BooleanPredicate.from_marks(4, [2, 4])
        step4 = [r for r in build_circuit(params, pred) if r.step == "step4"]
        assert [r.controls for r in step4] == [
            (params.incidence_qubit(2),),
            (params.incidence_qubit(4),),
        ]
        assert all(r.target == params.ancilla_qubit and r.value == 1 for r in step4)

    def test_layout_for_is_the_instance(self):
        # The instance holds its qubit map; layout_for is kept for callers.
        params = SearchParameters(4, 2)
        assert layout_for(params) is params

    def test_predicate_size_mismatch(self):
        with pytest.raises(DomainError):
            build_circuit(SearchParameters(4, 1), BooleanPredicate.from_marks(2, [1]))

    def test_capacity_error_names_requirement(self):
        params = SearchParameters(32, 4)  # 5*4 + 32 + 1 = 53 qubits
        with pytest.raises(CapacityError, match="53"):
            build_circuit(params, BooleanPredicate.from_marks(32, [1]))

    def test_records_come_grouped_by_step_in_order(self):
        # The captured run snapshots each step in one walk over the list.
        order = ["step2a", "step2b", "step3", "step4", "step5", "step6"]
        for params, pred in small_grid():
            steps = [r.step for r in build_circuit(params, pred)]
            runs = [s for i, s in enumerate(steps) if i == 0 or steps[i - 1] != s]
            assert runs == [s for s in order if s != "step4" or pred.marked_count]


class TestRunCircuit:
    def test_equal_superposition_after_step2(self):
        params = SearchParameters(2, 2)
        pred = BooleanPredicate.from_marks(2, [1])
        run = run_circuit(params, pred, capture=True)
        psi2 = run.intermediates["step2"]
        magnitude = 2 ** (-(params.item_bits * params.n_samples + 1) / 2)
        nonzero = np.abs(psi2.amplitudes[np.abs(psi2.amplitudes) > NORM_ATOL])
        assert np.allclose(nonzero, magnitude, atol=NORM_ATOL)

    def test_snapshots_present_and_normalized(self):
        params = SearchParameters(4, 1)
        run = run_circuit(params, BooleanPredicate.from_marks(4, [1, 2]), capture=True)
        assert sorted(run.intermediates) == [f"step{i}" for i in range(1, 7)]
        for state in run.intermediates.values():
            assert abs(state.norm() - 1) < NORM_ATOL

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_capture_with_nothing_marked_keeps_every_snapshot(self, n):
        # Step 4 emits no records, yet its snapshot is there and equals step 3's.
        run = run_circuit(SearchParameters(n, 1), BooleanPredicate.from_marks(n, []), capture=True)
        assert list(run.intermediates) == [f"step{i}" for i in range(1, 7)]
        assert np.array_equal(run.intermediates["step4"].amplitudes,
                              run.intermediates["step3"].amplitudes)

    def test_capture_off_by_default(self):
        run = run_circuit(SearchParameters(2, 1), BooleanPredicate.from_marks(2, []))
        assert run.intermediates is None

    def test_incidence_register_resets_after_step5(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            marg = marginal_distribution(run.intermediates["step5"], params.incidence_qubits())
            assert marg[0] >= 1 - 1e-10

    def test_phase_kickback_product_form(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            root = math.sqrt(params.n_items)
            expected = expected_full_state(
                params, pred, marked_amp=-1 / root, unmarked_amp=1 / root
            )
            fid = fidelity_mod_phase(run.intermediates["step5"], expected)
            assert fid >= 1 - FIDELITY_ATOL

    def test_final_state_factorizes_into_model_amplitudes(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            model = amplitudes(params.n_items, pred.marked_count)
            expected = expected_full_state(params, pred, model.marked_amp, model.unmarked_amp)
            fid = fidelity_mod_phase(run.intermediates["step6"], expected)
            assert fid >= 1 - FIDELITY_ATOL

    def test_fused_path_matches_literal_gates(self):
        # Without capture steps 2a-2b are written as their known state and
        # steps 3-6 run as fused passes; with capture every step applies
        # its literal records.
        for n, etas in ((2, range(1, 5)), (4, range(1, 4)), (8, range(1, 3))):
            for eta in etas:
                params = SearchParameters(n, eta)
                incidence = params.incidence_qubits()
                for mask in range(2**n):
                    pred = BooleanPredicate.from_mask(n, mask)
                    fast = run_circuit(params, pred).final_state
                    literal = run_circuit(params, pred, capture=True).final_state
                    assert fidelity_mod_phase(fast, literal) >= 1 - FIDELITY_ATOL
                    assert marginal_distribution(fast, incidence)[0] >= 1 - FIDELITY_ATOL

    # 17-19 qubits, rows of 2**16, 2**12 and 2**9 amplitudes: step 6's
    # block kernel meets rows of two pieces, of part of one piece, and of
    # less than one BLAS call.
    @pytest.mark.parametrize("n, eta", [(2, 16), (4, 6), (8, 3)])
    def test_fused_path_matches_literal_gates_across_pieces(self, n, eta):
        params = SearchParameters(n, eta)
        incidence = params.incidence_qubits()
        for t in (0, 1, n // 2, n):
            pred = BooleanPredicate.from_marks(n, range(1, t + 1))
            fast = run_circuit(params, pred).final_state
            literal = run_circuit(params, pred, capture=True).final_state
            assert fidelity_mod_phase(fast, literal) >= 1 - FIDELITY_ATOL
            assert marginal_distribution(fast, incidence)[0] >= 1 - FIDELITY_ATOL

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_occurrence_masks_match_step3_records(self, seed, data):
        # Any input state, not only the circuit's: the step-3 flips move
        # the amplitude of |h, c> to |h XOR m(c), c>, m(c) the incidence
        # value they write at column c, read here off their output.  The
        # query's bit at column c is the parity of m(c) under the marks.
        n, max_eta = data.draw(st.sampled_from([(2, 4), (4, 2), (8, 1)]))
        eta = data.draw(st.integers(1, max_eta))
        params = SearchParameters(n, eta)
        pred = BooleanPredicate(n, data.draw(st.frozensets(st.integers(1, n))))
        records = [r for r in build_circuit(params, pred) if r.step == "step3"]
        rng = np.random.default_rng(seed)
        size = 1 << params.total_qubits
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        literal = StateVector(params.total_qubits, amps.copy())
        for record in records:
            apply_record(literal, record)
        low = params.item_bits * eta
        # Row h = 0 of the output holds, at column c, row m(c) of the input.
        found = amps.reshape(-1, 1 << low) == literal.amplitudes[: 1 << low]
        assert (found.sum(axis=0) == 1).all()
        masks = found.argmax(axis=0)
        i = np.arange(size)
        c = i & ((1 << low) - 1)
        assert np.array_equal(literal.amplitudes, amps[((i >> low) ^ masks[c]) << low | c])
        odd = [bin(int(m) & pred.to_mask()).count("1") & 1 for m in masks]
        assert np.array_equal(_query_bits(params, pred), np.array(odd, dtype=bool))

    def test_uncaptured_run_checks_before_allocating(self, monkeypatch):
        # The run derives its steps without the gate list, so it makes
        # build_circuit's predicate-size and capacity checks itself.
        def no_state(*args, **kwargs):
            raise AssertionError("a state was allocated")

        monkeypatch.setattr(sv, "zero_state", no_state)
        with pytest.raises(DomainError, match="predicate size"):
            run_circuit(SearchParameters(4, 1), BooleanPredicate.from_marks(2, [1]))
        with pytest.raises(CapacityError, match=r"5\*4\+32\+1 = 53 qubits"):
            run_circuit(SearchParameters(32, 4), BooleanPredicate.from_marks(32, [1]))

    def test_capture_refuses_what_memory_cannot_hold(self, monkeypatch):
        # Memory is probed as three states: the working state alone fits,
        # the seven that capture keeps do not, and nothing is allocated.
        params = SearchParameters(8, 2)
        pred = BooleanPredicate.from_marks(8, [1])
        state_bytes = 16 << params.total_qubits
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 3 * state_bytes)
        assert run_circuit(params, pred).final_state.amplitudes.nbytes == state_bytes
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="physical memory"):
                run_circuit(params, pred, capture=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state_bytes // 4

    def test_certain_success_marginal(self):
        # One marked item out of four leaves zero unmarked amplitude.
        params = SearchParameters(4, 1)
        pred = BooleanPredicate.from_marks(4, [3])
        run = run_circuit(params, pred)
        marg = marginal_distribution(run.final_state, params.sample_qubits(1))
        assert np.allclose(marg, [0, 0, 1, 0], atol=NORM_ATOL)

    def test_three_bit_registers(self):
        # Wider registers (8 items) exercise the multi-bit value encoding.
        params = SearchParameters(8, 2)  # 3*2 + 8 + 1 = 15 qubits
        pred = BooleanPredicate.from_marks(8, [2, 5, 7])
        run = run_circuit(params, pred, capture=True)
        marg = marginal_distribution(run.intermediates["step5"], params.incidence_qubits())
        assert marg[0] >= 1 - FIDELITY_ATOL
        model = amplitudes(8, 3)
        expected = expected_full_state(params, pred, model.marked_amp, model.unmarked_amp)
        assert fidelity_mod_phase(run.intermediates["step6"], expected) >= 1 - FIDELITY_ATOL
        per_item = marginal_distribution(run.final_state, params.sample_qubits(2))
        predicted = [model.p_marked if pred.value(j) else model.p_unmarked for j in range(1, 9)]
        assert np.allclose(per_item, predicted, atol=NORM_ATOL)


def scattered(n: int) -> frozenset:
    return frozenset(range(2, n + 1, 3))


# (N, eta) with marked sets of t = 0, 1, N/2 and N items, then scattered ones.
QUERY_CASES = [
    pytest.param(n, eta, marks, id=f"N{n}-{label}")
    for n, eta in ((2, 5), (4, 3), (8, 2), (16, 1))
    for label, marks in (
        ("t0", frozenset()),
        ("t1", frozenset({1})),
        ("half", frozenset(range(1, n // 2 + 1))),
        ("all", frozenset(range(1, n + 1))),
        ("scattered", scattered(n)),
    )
]


class TestQueryPass:
    """Steps 3-5 applied as a negation of the lower live row where the
    query's bits are odd, the upper row then written as its negation,
    change the same bytes as their literal records, from any state whose
    live rows are a row x and -x and whose other rows are zero."""

    @staticmethod
    def literal_and_fused(n, eta, marks, seed):
        # The rows are where the incidence register reads 0, one per
        # ancilla value, as `run_circuit` finds them.
        params = SearchParameters(n, eta)
        pred = BooleanPredicate(n, marks)
        k = params.item_bits * eta
        rng = np.random.default_rng(seed)
        literal = StateVector(params.total_qubits, np.zeros(1 << params.total_qubits))
        rows = literal.amplitudes.reshape(2, -1, 1 << k)[:, 0]
        rows[0] = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        np.negative(rows[0], out=rows[1])
        start = literal.copy()
        for record in build_circuit(params, pred):
            if record.step in ("step3", "step4", "step5"):
                apply_record(literal, record)
        # The index oracle: the lower row negated where a column's
        # incidence value meets the marks an odd number of times.
        odd = query_parity_bits(n, eta, marks)
        expected = np.where(odd, -start.amplitudes[: 1 << k], start.amplitudes[: 1 << k])
        fused = start.copy()
        lower, upper = fused.amplitudes.reshape(2, -1, 1 << k)[:, 0]
        np.negative(lower, out=lower, where=_query_bits(params, pred))
        np.negative(lower, out=upper)
        assert np.array_equal(lower, expected)
        assert np.array_equal(upper, -expected)
        assert np.array_equal(fused.amplitudes, literal.amplitudes)

    @pytest.mark.parametrize("n, eta, marks", QUERY_CASES)
    def test_matches_records(self, n, eta, marks):
        self.literal_and_fused(n, eta, marks, seed=n + eta)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_matches_records_on_random_instances(self, seed, data):
        n, max_eta = data.draw(st.sampled_from([(2, 6), (4, 3), (8, 2)]))
        eta = data.draw(st.integers(1, max_eta))
        marks = data.draw(st.frozensets(st.integers(1, n)))
        self.literal_and_fused(n, eta, marks, seed)

    # Past 63 items an incidence value outgrows an int64; the bits never
    # build one.  Registers of 7 qubits and more stay refused by step 6.
    @pytest.mark.parametrize("n, eta", [(64, 2), (128, 1), (256, 2)])
    def test_bits_past_63_items(self, n, eta):
        marks = frozenset({1, 64, n} | set(range(2, n, 5)))
        bits = _query_bits(SearchParameters(n, eta), BooleanPredicate(n, marks))
        assert np.array_equal(bits, query_parity_bits(n, eta, marks))

    def test_uncaptured_run_makes_one_xor_call(self, monkeypatch):
        # Step 3's XORs and step 4 ride inside one call, a negation of the
        # lower row where the query's bits are odd: no flip runs, and the
        # one other negation writes the upper row.
        calls = []
        monkeypatch.setattr(sv, "apply_value_controlled_flip", lambda *a: calls.append("flip"))
        negative = np.negative

        def spy(x, out=None, where=True):
            calls.append((out, where))
            return negative(x, out=out, where=where)

        monkeypatch.setattr(np, "negative", spy)
        params, pred = SearchParameters(4, 2), BooleanPredicate.from_marks(4, [1, 3])
        lower, upper = _live_rows(run_circuit(params, pred).final_state, params)
        monkeypatch.undo()
        assert len(calls) == 2
        (query, bits), (write, everywhere) = calls
        assert query.ctypes.data == lower.ctypes.data and query.shape == lower.shape
        assert np.array_equal(bits, query_parity_bits(4, 2, {1, 3}))
        assert write.ctypes.data == upper.ctypes.data and everywhere is True


# A signalling NaN: arithmetic on it sets its quiet bit, so any pass that
# reads it into a gate changes its bytes, while copies keep them.
SENTINEL = np.uint64(0x7FF0_0000_0000_0BAD)


class TestLiveRows:
    """The uncaptured run applies every step to the lower of the two rows
    where the incidence register reads 0, in place, writes the upper one
    as its negation, and touches nothing else."""

    # The ancilla is in |-> from step 2b on, and only the step 4 flips act
    # on it, each swapping the halves of a slice: the half where it reads
    # 1 is the other half negated, value for value, in every snapshot of
    # the literal gates.
    def test_upper_row_is_the_lower_negated_under_capture(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            for step in ("step2", "step3", "step4", "step5", "step6"):
                lower, upper = run.intermediates[step].amplitudes.reshape(2, -1)
                assert np.array_equal(upper, -lower), step

    # Likewise every uncaptured final state, also on rows of several pieces.
    def test_upper_row_is_the_lower_negated(self):
        larger = [(SearchParameters(n, eta), BooleanPredicate.from_marks(n, {1} | scattered(n)))
                  for n, eta in ((2, 16), (4, 6), (8, 3), (16, 1))]
        for params, pred in [*small_grid(), *larger]:
            lower, upper = run_circuit(params, pred).final_state.amplitudes.reshape(2, -1)
            assert np.array_equal(upper, -lower)

    def test_steps_2a_2b_apply_no_gate(self, monkeypatch):
        # The rows after steps 2a-2b are a known state, H^k|0> (x) |->,
        # written as such: no Hadamard and no sigma_z runs.
        def gate(*args):
            raise AssertionError("a gate ran")

        monkeypatch.setattr(sv, "apply_hadamard", gate)
        monkeypatch.setattr(sv, "apply_sigma_z", gate)
        params, pred = SearchParameters(4, 3), BooleanPredicate.from_marks(4, [2])
        model = amplitudes(4, 1)
        expected = expected_full_state(params, pred, model.marked_amp, model.unmarked_amp)
        final = run_circuit(params, pred).final_state
        assert fidelity_mod_phase(final, expected) >= 1 - FIDELITY_ATOL

    # Rows of 2**16 amplitudes (two pieces), 2**12, 2**9 and 2**4, the
    # last in 2**17 rows.
    @pytest.mark.parametrize("n, eta", [(2, 16), (4, 6), (8, 3), (16, 1)])
    def test_uncaptured_run_writes_nothing_off_its_rows(self, n, eta, monkeypatch):
        # Every word off the two rows starts as the sentinel and must come
        # back unchanged: a pass over the whole state, even one that skips
        # zeros, would find it nonzero and change it.
        params = SearchParameters(n, eta)
        pred = BooleanPredicate.from_marks(n, {1} | scattered(n))
        width = 2 << (params.item_bits * eta)  # words per row
        normal = run_circuit(params, pred).final_state.amplitudes.view(np.uint64)
        zero_state = sv.zero_state

        def sentinel_state(n_qubits):
            state = zero_state(n_qubits)
            state.amplitudes.view(np.uint64).reshape(2, -1, width)[:, 1:] = SENTINEL
            return state

        monkeypatch.setattr(sv, "zero_state", sentinel_state)
        words = run_circuit(params, pred).final_state.amplitudes.view(np.uint64)
        rows, normal_rows = words.reshape(2, -1, width), normal.reshape(2, -1, width)
        assert (rows[:, 1:] == SENTINEL).all()
        assert np.array_equal(rows[:, 0], normal_rows[:, 0])
        assert not normal_rows[:, 1:].any()

    def test_rows_are_not_copied(self):
        # A 21-qubit search at N=2 (eta=18) holds a 32 MiB state whose two
        # live rows are 4 MiB each.  Its peak RSS may grow past a warm-up
        # with rows of one piece by less than the two rows plus a piece: a
        # copy of the rows, as a state of their own, would double that.
        # The process turns transparent huge pages off for itself (prctl
        # PR_SET_THP_DISABLE), so pages are counted as they are written,
        # not rounded up to 2 MiB frames.
        growth = peak_rss_growth(
            "import ctypes\n"
            "assert ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0) == 0\n"
            "from paritysearch import BooleanPredicate, SearchParameters, run_circuit\n"
            "pred = BooleanPredicate(2, frozenset({1}))\n"
            "run_circuit(SearchParameters(2, 15), pred)\n"
            "params = SearchParameters(2, 18)",
            "run_circuit(params, pred)",
        )
        assert growth < 2 * (16 << 18) + (16 << 15)

    def test_run_keeps_no_row_sized_array(self):
        # Once its result is dropped, a run at N=2, eta=18 leaves nothing
        # allocated as large as one byte per column of its rows: nothing
        # of the query is kept between runs.
        params, pred = SearchParameters(2, 18), BooleanPredicate(2, frozenset({1}))
        tracemalloc.start()
        try:
            run = run_circuit(params, pred)
            del run
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1 << 18


def live_row_state(params: SearchParameters, rng: np.random.Generator) -> StateVector:
    """A state random and entangled on the two rows where the incidence
    register reads 0, one per ancilla value, and zero elsewhere."""
    amps = np.zeros(1 << params.total_qubits, dtype=complex)
    rows = amps.reshape(2, -1, 1 << (params.item_bits * params.n_samples))[:, 0]
    rows[...] = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
    return StateVector(params.total_qubits, amps / np.linalg.norm(amps))


def full_state_marginal(state: StateVector, params: SearchParameters) -> np.ndarray:
    """The sample qubits' joint marginal read from every row of the state:
    one sum of squares down the rows of the float view, then real plus
    imaginary, as measurement took it before it read the live rows alone."""
    rows = state.amplitudes.view(np.float64).reshape(-1, 2 << (params.item_bits * params.n_samples))
    return np.einsum("ij,ij->j", rows, rows).reshape(-1, 2).sum(axis=1)


def per_register_choice(state: StateVector, params: SearchParameters, rng) -> tuple:
    """Samples as measurement drew them one register at a time: the joint
    marginal summed over every other register's axis, then one
    `rng.choice` per register, register 1 first."""
    eta = params.n_samples
    joint = _sample_marginal(state, params).reshape((params.n_items,) * eta)
    values = []
    for axis in reversed(range(eta)):
        marg = joint.sum(axis=tuple(a for a in range(eta) if a != axis))
        values.append(int(rng.choice(params.n_items, p=marg / marg.sum())) + 1)
    return tuple(values)


class TestMeasurement:
    def test_same_seed_same_samples(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [1, 4])
        final = run_circuit(params, pred).final_state
        a = measure_samples(final, params, rng=123)
        b = measure_samples(final, params, rng=123)
        assert a == b

    def test_joint_marginal_draws_match_per_register_draws(self):
        # Measurement must draw what rng.choice draws from each
        # register's marginal taken from the state, register 1 first.
        # The registers get different random amplitudes so that their
        # order shows.
        rng = np.random.default_rng(5)
        for n, eta in [(2, 5), (4, 3), (8, 2)]:
            params = SearchParameters(n, eta)
            amps = np.ones(1 << (n + 1), dtype=complex)
            for _ in range(eta):
                single = rng.normal(size=n) + 1j * rng.normal(size=n)
                amps = np.kron(amps, single / np.linalg.norm(single))
            final = StateVector(params.total_qubits, amps / np.linalg.norm(amps))
            for seed in range(10):
                rng = np.random.default_rng(seed)
                expected = []
                for i in range(1, eta + 1):
                    marg = marginal_distribution(final, params.sample_qubits(i))
                    expected.append(int(rng.choice(n, p=marg / marg.sum())) + 1)
                assert measure_samples(final, params, rng=seed).values == tuple(expected)

    @pytest.mark.parametrize("n, eta", [(n, eta) for n in (2, 4, 8) for eta in (1, 2, 3)])
    def test_two_axis_marginal_matches_tensor_marginal(self, n, eta):
        # On states random and entangled on the two live rows and zero
        # elsewhere, the slice that measurement reads, not only on the
        # circuit's product states; the oracle reads the whole state.
        params = SearchParameters(n, eta)
        qubits = params.all_sample_qubits()
        rng = np.random.default_rng(n * 10 + eta)
        for _ in range(3):
            final = live_row_state(params, rng)
            tensor = marginal_distribution(final, qubits)
            assert np.max(np.abs(_sample_marginal(final, params) - tensor)) <= 1e-15
            # Fixed seeds draw what the tensor-view marginal would feed rng.choice.
            joint = tensor.reshape((n,) * eta)
            for seed in range(5):
                draws = np.random.default_rng(seed)
                expected = []
                for axis in reversed(range(eta)):
                    marg = joint.sum(axis=tuple(a for a in range(eta) if a != axis))
                    expected.append(int(draws.choice(n, p=marg / marg.sum())) + 1)
                assert measure_samples(final, params, rng=seed).values == tuple(expected)

    def test_samples_and_generator_match_per_register_choice(self):
        # One uniform per register, drawn together, is what choice draws
        # one at a time: the same samples, and the generator left in the
        # same state.
        instances = [*small_grid(),
                     (SearchParameters(2, 21), BooleanPredicate.from_marks(2, [1]))]
        for params, pred in instances:
            final = run_circuit(params, pred).final_state
            for seed in range(3):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                samples = measure_samples(final, params, rng=ours)
                assert samples.values == per_register_choice(final, params, theirs)
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_random_tie_break_after_measurement_is_unchanged(self):
        # A seeded search with random ties picks what per-register choice
        # and the tie-break after it, on one generator, would pick.
        ties = 0
        for params, pred in small_grid():
            final = run_circuit(params, pred).final_state
            for seed in range(3):
                outcome = run_search(params, pred, seed=seed, tie_break="random")
                rng = np.random.default_rng(seed)
                samples = SampleTuple(per_register_choice(final, params, rng))
                expected = majority_postprocess(samples, pred, tie_break="random", rng=rng)
                assert outcome == expected
                ties += expected.tie_detected
        assert ties > 0

    def test_register_marginals_match_tensor_marginals_and_model(self):
        # Row i-1 of the halving reduction, reversed, is register i's
        # marginal: against the tensor marginal of search states and of
        # states entangled on the live rows, whose registers differ, and
        # against the model's per-item probabilities on search states.
        instances = [*small_grid(), *((SearchParameters(n, eta), BooleanPredicate.from_marks(
            n, {1} | scattered(n))) for n, eta in ((2, 10), (4, 5), (8, 3), (16, 1)))]
        rng = np.random.default_rng(11)
        for params, pred in instances:
            n, eta = params.n_items, params.n_samples
            final = run_circuit(params, pred).final_state
            model = per_sample_distribution(amplitudes(n, pred.marked_count), pred)
            for state in (final, live_row_state(params, rng)):
                marg = _register_marginals(_sample_marginal(state, params), n, eta)[::-1]
                for i in range(1, eta + 1):
                    tensor = marginal_distribution(state, params.sample_qubits(i))
                    assert np.max(np.abs(marg[i - 1] - tensor)) <= 1e-15
                    if state is final:
                        assert np.max(np.abs(marg[i - 1] - model)) <= 1e-12

    def test_zero_unmarked_amplitude_forces_marked_samples(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [2])
        final = run_circuit(params, pred).final_state
        for seed in range(20):
            samples = measure_samples(final, params, rng=seed)
            assert all(v == 2 for v in samples)

    def test_balanced_two_item_frequencies(self):
        # With one of two items marked both probabilities are 1/2; check a
        # 1000-draw frequency against the 3-sigma binomial bound.
        params = SearchParameters(2, 4)
        pred = BooleanPredicate.from_marks(2, [1])
        final = run_circuit(params, pred).final_state
        rng = np.random.default_rng(42)
        draws = []
        for _ in range(250):
            draws.extend(measure_samples(final, params, rng=rng).values)
        assert len(draws) == 1000
        marked = sum(1 for v in draws if v == 1)
        assert abs(marked - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_joint_distribution_is_product_of_marginals(self):
        for n, eta, mask in [(2, 2, 0b01), (2, 3, 0b11), (4, 2, 0b1010)]:
            params = SearchParameters(n, eta)
            pred = BooleanPredicate.from_mask(n, mask)
            final = run_circuit(params, pred).final_state
            joint = marginal_distribution(final, params.all_sample_qubits())
            per_register = [
                marginal_distribution(final, params.sample_qubits(i))
                for i in range(1, eta + 1)
            ]
            expected = np.array([1.0])
            for marg in per_register:
                expected = np.kron(marg, expected)
            assert np.allclose(joint, expected, atol=NORM_ATOL)

    def test_sequential_collapse_matches_independent_marginals(self):
        # Measuring register by register (projecting after each draw) must
        # give the same tuples as drawing from the per-register marginals,
        # because the final state is a product across registers.
        params = SearchParameters(4, 2)
        pred = BooleanPredicate.from_mask(4, 0b0101)
        final = run_circuit(params, pred).final_state

        def draw(uniforms, sequential):
            state = final.copy()
            values = []
            for i in range(1, params.n_samples + 1):
                qubits = params.sample_qubits(i)
                marg = marginal_distribution(state, qubits)
                value = int(np.searchsorted(np.cumsum(marg), uniforms[i - 1], side="right"))
                values.append(value + 1)
                if sequential:
                    keep = np.zeros_like(state.amplitudes)
                    for index in range(state.amplitudes.size):
                        bits = sum(((index >> q) & 1) << b for b, q in enumerate(qubits))
                        if bits == value:
                            keep[index] = state.amplitudes[index]
                    norm = np.linalg.norm(keep)
                    state = StateVector(state.n_qubits, keep / norm)
            return values

        rng = np.random.default_rng(7)
        for _ in range(25):
            uniforms = rng.random(params.n_samples)
            assert draw(uniforms, sequential=True) == draw(uniforms, sequential=False)

    def test_state_layout_mismatch(self):
        final = run_circuit(SearchParameters(2, 1), BooleanPredicate.from_marks(2, [])).final_state
        with pytest.raises(DomainError):
            measure_samples(final, SearchParameters(2, 2))

    def test_state_without_live_weight_is_refused(self):
        # All zero, or all weight off the two rows: no distribution to
        # draw from, so a one-line domain error instead of 0/0.
        params = SearchParameters(2, 2)
        off_rows = np.zeros(1 << params.total_qubits, dtype=complex)
        off_rows[1 << (params.item_bits * params.n_samples)] = 1.0  # incidence value 1
        for amps in (np.zeros_like(off_rows), off_rows):
            with pytest.raises(DomainError, match="no amplitude where the incidence register"):
                measure_samples(StateVector(params.total_qubits, amps), params, rng=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_that_are_not_finite_are_refused(self, bad):
        # NaN or inf on a live row leaves no distribution to draw from:
        # a one-line domain error, not an item picked from NaNs.
        params = SearchParameters(4, 2)
        final = run_circuit(params, BooleanPredicate.from_marks(4, [1])).final_state
        for row in (0, 1):
            state = final.copy()
            state.amplitudes.reshape(2, -1, 1 << 4)[row, 0, 5] = bad
            with pytest.raises(DomainError, match="not finite"):
                measure_samples(state, params, rng=1)

    def test_search_states_are_zero_off_the_live_rows(self, monkeypatch):
        # Steps 3-5 return the incidence register to 0 by swaps, in both
        # runs, so the two rows hold every nonzero amplitude and their
        # marginal is the whole state's sum of squares, byte for byte,
        # also in chunks of two columns.
        for n, etas in ((2, range(1, 7)), (4, range(1, 4)), (8, range(1, 3)), (16, (1,))):
            for eta in etas:
                params = SearchParameters(n, eta)
                width = 1 << (params.item_bits * eta)
                for marks in ((), (1,), range(1, n // 2 + 1), range(1, n + 1), scattered(n)):
                    pred = BooleanPredicate.from_marks(n, marks)
                    for capture in (False, True):
                        final = run_circuit(params, pred, capture=capture).final_state
                        assert not final.amplitudes.reshape(2, -1, width)[:, 1:].any()
                        oracle = full_state_marginal(final, params).tobytes()
                        assert _sample_marginal(final, params).tobytes() == oracle
                        with monkeypatch.context() as patch:
                            patch.setattr(sv, "_PIECE_AMPLITUDES", 4)
                            assert _sample_marginal(final, params).tobytes() == oracle

    # Rows of 2**16 amplitudes (four chunks), 2**12, 2**9 and 2**4.
    @pytest.mark.parametrize("n, eta", [(2, 16), (4, 6), (8, 3), (16, 1)])
    def test_measurement_reads_only_the_live_rows(self, n, eta):
        # Every word off the two rows is the sentinel: a pass that read
        # one into a sum would turn the marginal to NaN.
        params = SearchParameters(n, eta)
        pred = BooleanPredicate.from_marks(n, {1} | scattered(n))
        final = run_circuit(params, pred).final_state
        marked = final.copy()
        marked.amplitudes.view(np.uint64).reshape(2, -1, 2 << (params.item_bits * eta))[
            :, 1:
        ] = SENTINEL
        for seed in range(3):
            assert measure_samples(marked, params, rng=seed) == measure_samples(
                final, params, rng=seed
            )
        assert _sample_marginal(marked, params).tobytes() == _sample_marginal(
            final, params
        ).tobytes()

    def test_measurement_temporaries_are_bounded(self):
        # At N=2, eta=18 the rows are 2**18 amplitudes each (4 MiB) and the
        # joint marginal is 2 MiB.  Beyond that output, measurement holds
        # one chunk of half a piece of both rows (512 KiB) and a few KiB
        # of numpy's small arrays: no copy of the rows, no squared rows.
        params, pred = SearchParameters(2, 18), BooleanPredicate.from_marks(2, {1})
        final = run_circuit(params, pred).final_state
        tracemalloc.start()
        try:
            measure_samples(final, params, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = 2 * (sv._PIECE_AMPLITUDES // 2) * 16
        assert peak - 8 * params.n_items**params.n_samples <= chunk + (16 << 10)


class TestMajorityPostprocess:
    def test_unique_mode(self):
        pred = BooleanPredicate.from_marks(4, [3])
        outcome = majority_postprocess(SampleTuple((3, 3, 1)), pred)
        assert outcome.winner == 3
        assert outcome.winner_satisfies == 1
        assert not outcome.tie_detected
        assert outcome.frequencies == {3: 2, 1: 1}

    def test_lowest_index_tie(self):
        pred = BooleanPredicate.from_marks(2, [2])
        outcome = majority_postprocess(SampleTuple((1, 2)), pred, tie_break="lowest_index")
        assert outcome.winner == 1
        assert outcome.tie_detected
        assert outcome.winner_satisfies == 0

    def test_unanimous(self):
        pred = BooleanPredicate.from_marks(4, [])
        outcome = majority_postprocess(SampleTuple((2, 2, 2)), pred)
        assert outcome.winner == 2
        assert not outcome.tie_detected

    def test_random_tie_is_seeded(self):
        pred = BooleanPredicate.from_marks(4, [2])
        samples = SampleTuple((1, 2, 3))
        first = majority_postprocess(samples, pred, tie_break="random", rng=5)
        second = majority_postprocess(samples, pred, tie_break="random", rng=5)
        assert first.winner == second.winner
        assert first.tie_detected
        winners = {
            majority_postprocess(samples, pred, tie_break="random", rng=seed).winner
            for seed in range(40)
        }
        assert winners == {1, 2, 3}

    def test_frequencies_sum_to_sample_count(self):
        pred = BooleanPredicate.from_marks(4, [1])
        outcome = majority_postprocess(SampleTuple((1, 2, 2, 4, 1, 1)), pred)
        assert sum(outcome.frequencies.values()) == 6
        assert outcome.frequencies[outcome.winner] == max(outcome.frequencies.values())

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            majority_postprocess(SampleTuple(()), BooleanPredicate.from_marks(2, [1]))

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            majority_postprocess(
                SampleTuple((1,)), BooleanPredicate.from_marks(2, [1]), tie_break="coin"
            )


class TestRunSearch:
    def test_certain_success(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [3])
        for seed in (0, 1, 99):
            outcome = run_search(params, pred, seed=seed)
            assert outcome.winner == 3
            assert outcome.winner_satisfies == 1

    def test_nothing_marked(self):
        outcome = run_search(SearchParameters(2, 5), BooleanPredicate.from_marks(2, []), seed=9)
        assert outcome.winner_satisfies == 0

    def test_everything_marked(self):
        outcome = run_search(
            SearchParameters(4, 2), BooleanPredicate.from_marks(4, [1, 2, 3, 4]), seed=3
        )
        assert outcome.winner_satisfies == 1

    def test_deterministic_given_seed(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [1, 2])
        assert run_search(params, pred, seed=11) == run_search(params, pred, seed=11)

    def test_capacity_propagates(self):
        with pytest.raises(CapacityError):
            run_search(SearchParameters(32, 4), BooleanPredicate.from_marks(32, [1]))
