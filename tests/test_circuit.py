"""Circuit construction, intermediate states, measurement, post-processing."""

import math
from collections import Counter

import numpy as np
import pytest
from helpers import expected_full_state

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    SampleTuple,
    SearchParameters,
    amplitudes,
    build_circuit,
    gate_trace,
    layout_for,
    majority_postprocess,
    measure_samples,
    run_circuit,
    run_search,
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
        layout = layout_for(params)
        step4 = [r for r in build_circuit(params, pred) if r.step == "step4"]
        assert [r.controls for r in step4] == [
            (layout.incidence_qubit(2),),
            (layout.incidence_qubit(4),),
        ]
        assert all(r.target == layout.ancilla_qubit and r.value == 1 for r in step4)

    def test_predicate_size_mismatch(self):
        with pytest.raises(DomainError):
            build_circuit(SearchParameters(4, 1), BooleanPredicate.from_marks(2, [1]))

    def test_capacity_error_names_requirement(self):
        params = SearchParameters(32, 4)  # 5*4 + 32 + 1 = 53 qubits
        with pytest.raises(CapacityError, match="53"):
            build_circuit(params, BooleanPredicate.from_marks(32, [1]))

    def test_trace_lines(self):
        params = SearchParameters(2, 1)
        records = build_circuit(params, BooleanPredicate.from_marks(2, [2]))
        trace = gate_trace(records)
        lines = trace.splitlines()
        assert len(lines) == len(records)
        assert lines[0] == "step2a hadamard target=0"
        assert any(line.startswith("step4 value_controlled_flip controls=") for line in lines)


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

    def test_capture_off_by_default(self):
        run = run_circuit(SearchParameters(2, 1), BooleanPredicate.from_marks(2, []))
        assert run.intermediates is None

    def test_incidence_register_resets_after_step5(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            layout = layout_for(params)
            marg = marginal_distribution(run.intermediates["step5"], layout.incidence_qubits())
            assert marg[0] >= 1 - 1e-10

    def test_phase_kickback_product_form(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            layout = layout_for(params)
            root = math.sqrt(params.n_items)
            expected = expected_full_state(
                layout, pred, marked_amp=-1 / root, unmarked_amp=1 / root
            )
            fid = fidelity_mod_phase(run.intermediates["step5"], expected)
            assert fid >= 1 - FIDELITY_ATOL

    def test_final_state_factorizes_into_model_amplitudes(self):
        for params, pred in small_grid():
            run = run_circuit(params, pred, capture=True)
            layout = layout_for(params)
            model = amplitudes(params.n_items, pred.marked_count)
            expected = expected_full_state(layout, pred, model.marked_amp, model.unmarked_amp)
            fid = fidelity_mod_phase(run.intermediates["step6"], expected)
            assert fid >= 1 - FIDELITY_ATOL

    def test_one_pass_step6_matches_literal_gates(self):
        # Without capture step 6 is one inversion about average per
        # register; with capture it is the literal H/phase/H records.
        for n, etas in ((2, range(1, 5)), (4, range(1, 4)), (8, range(1, 3))):
            for eta in etas:
                params = SearchParameters(n, eta)
                for mask in range(2**n):
                    pred = BooleanPredicate.from_mask(n, mask)
                    fast = run_circuit(params, pred).final_state
                    literal = run_circuit(params, pred, capture=True).final_state
                    assert fidelity_mod_phase(fast, literal) >= 1 - FIDELITY_ATOL

    def test_certain_success_marginal(self):
        # One marked item out of four leaves zero unmarked amplitude.
        params = SearchParameters(4, 1)
        pred = BooleanPredicate.from_marks(4, [3])
        run = run_circuit(params, pred)
        marg = marginal_distribution(run.final_state, layout_for(params).sample_qubits(1))
        assert np.allclose(marg, [0, 0, 1, 0], atol=NORM_ATOL)

    def test_three_bit_registers(self):
        # Wider registers (8 items) exercise the multi-bit value encoding.
        params = SearchParameters(8, 2)  # 3*2 + 8 + 1 = 15 qubits
        pred = BooleanPredicate.from_marks(8, [2, 5, 7])
        run = run_circuit(params, pred, capture=True)
        layout = layout_for(params)
        marg = marginal_distribution(run.intermediates["step5"], layout.incidence_qubits())
        assert marg[0] >= 1 - FIDELITY_ATOL
        model = amplitudes(8, 3)
        expected = expected_full_state(layout, pred, model.marked_amp, model.unmarked_amp)
        assert fidelity_mod_phase(run.intermediates["step6"], expected) >= 1 - FIDELITY_ATOL
        per_item = marginal_distribution(run.final_state, layout.sample_qubits(2))
        predicted = [model.p_marked if pred.value(j) else model.p_unmarked for j in range(1, 9)]
        assert np.allclose(per_item, predicted, atol=NORM_ATOL)


class TestMeasurement:
    def test_same_seed_same_samples(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [1, 4])
        final = run_circuit(params, pred).final_state
        layout = layout_for(params)
        a = measure_samples(final, layout, rng=123)
        b = measure_samples(final, layout, rng=123)
        assert a == b

    def test_joint_marginal_draws_match_per_register_draws(self):
        # Summing one joint marginal down per register must feed
        # rng.choice the same distributions, in the same order, as taking
        # each register's marginal from the state.  The registers get
        # different random amplitudes so that their order shows.
        rng = np.random.default_rng(5)
        for n, eta in [(2, 5), (4, 3), (8, 2)]:
            layout = layout_for(SearchParameters(n, eta))
            amps = np.ones(1 << (n + 1), dtype=complex)
            for _ in range(eta):
                single = rng.normal(size=n) + 1j * rng.normal(size=n)
                amps = np.kron(amps, single / np.linalg.norm(single))
            final = StateVector(layout.total_qubits, amps / np.linalg.norm(amps))
            for seed in range(10):
                rng = np.random.default_rng(seed)
                expected = []
                for i in range(1, eta + 1):
                    marg = marginal_distribution(final, layout.sample_qubits(i))
                    expected.append(int(rng.choice(n, p=marg / marg.sum())) + 1)
                assert measure_samples(final, layout, rng=seed).values == tuple(expected)

    def test_zero_unmarked_amplitude_forces_marked_samples(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [2])
        final = run_circuit(params, pred).final_state
        for seed in range(20):
            samples = measure_samples(final, layout_for(params), rng=seed)
            assert all(v == 2 for v in samples)

    def test_balanced_two_item_frequencies(self):
        # With one of two items marked both probabilities are 1/2; check a
        # 1000-draw frequency against the 3-sigma binomial bound.
        params = SearchParameters(2, 4)
        pred = BooleanPredicate.from_marks(2, [1])
        final = run_circuit(params, pred).final_state
        layout = layout_for(params)
        rng = np.random.default_rng(42)
        draws = []
        for _ in range(250):
            draws.extend(measure_samples(final, layout, rng=rng).values)
        assert len(draws) == 1000
        marked = sum(1 for v in draws if v == 1)
        assert abs(marked - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_joint_distribution_is_product_of_marginals(self):
        for n, eta, mask in [(2, 2, 0b01), (2, 3, 0b11), (4, 2, 0b1010)]:
            params = SearchParameters(n, eta)
            pred = BooleanPredicate.from_mask(n, mask)
            final = run_circuit(params, pred).final_state
            layout = layout_for(params)
            joint = marginal_distribution(final, layout.all_sample_qubits())
            per_register = [
                marginal_distribution(final, layout.sample_qubits(i))
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
        layout = layout_for(params)

        def draw(uniforms, sequential):
            state = final.copy()
            values = []
            for i in range(1, layout.n_samples + 1):
                qubits = layout.sample_qubits(i)
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
            uniforms = rng.random(layout.n_samples)
            assert draw(uniforms, sequential=True) == draw(uniforms, sequential=False)

    def test_state_layout_mismatch(self):
        final = run_circuit(SearchParameters(2, 1), BooleanPredicate.from_marks(2, [])).final_state
        with pytest.raises(DomainError):
            measure_samples(final, layout_for(SearchParameters(2, 2)))


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
