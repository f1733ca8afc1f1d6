"""Closed-form amplitudes, success probabilities, and the Monte Carlo estimator."""

import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    eager_monte_carlo_estimate,
    success_by_composition_enumeration,
    success_by_tuple_enumeration,
)

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    amplitudes,
    analytic_product_state,
    exact_success_probability,
    monte_carlo_success_probability,
    per_sample_distribution,
    scheduled_sample_count,
)

GRID_SIZES = [2**k for k in range(1, 11)]


class TestAmplitudes:
    def test_single_mark_of_four(self):
        model = amplitudes(4, 1)
        assert model.marked_amp == 1.0
        assert model.unmarked_amp == 0.0

    def test_single_mark_of_two(self):
        model = amplitudes(2, 1)
        assert model.marked_amp == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert model.unmarked_amp == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
        assert model.p_marked == pytest.approx(0.5, abs=1e-15)
        assert model.p_unmarked == pytest.approx(0.5, abs=1e-15)

    def test_nothing_marked(self):
        model = amplitudes(16, 0)
        assert model.unmarked_amp == pytest.approx(0.25, abs=1e-15)
        assert model.p_unmarked == pytest.approx(1 / 16, abs=1e-15)

    def test_signs_in_heavy_regimes(self):
        assert amplitudes(16, 13).marked_amp < 0  # beyond 3N/4
        assert amplitudes(16, 5).unmarked_amp < 0  # beyond N/4
        assert amplitudes(16, 3).unmarked_amp > 0

    def test_marked_count_out_of_range(self):
        with pytest.raises(DomainError):
            amplitudes(4, 5)
        with pytest.raises(DomainError):
            amplitudes(4, -1)
        with pytest.raises(DomainError):
            amplitudes(6, 1)

    def test_normalization_identity_full_grid(self):
        for n in GRID_SIZES:
            for t in range(n + 1):
                model = amplitudes(n, t)
                total = t * model.p_marked + (n - t) * model.p_unmarked
                assert abs(total - 1.0) < 1e-12

    def test_probability_forms_agree_full_grid(self):
        # The quadratic expansions must match the squared amplitudes.
        for n in GRID_SIZES:
            for t in range(n + 1):
                model = amplitudes(n, t)
                ratio = 4 * t / n
                marked_form = (9 - 6 * ratio + ratio**2) / n
                unmarked_form = (1 - 2 * ratio + ratio**2) / n
                assert abs(model.p_marked - marked_form) < 1e-12
                assert abs(model.p_unmarked - unmarked_form) < 1e-12


class TestPerSampleDistribution:
    def test_certain_case(self):
        model = amplitudes(4, 1)
        pred = BooleanPredicate.from_marks(4, [3])
        assert np.allclose(per_sample_distribution(model, pred), [0, 0, 1, 0])

    def test_balanced_case(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        assert np.allclose(per_sample_distribution(model, pred), [0.5, 0.5], atol=1e-15)

    def test_everything_marked_is_uniform(self):
        model = amplitudes(4, 4)
        pred = BooleanPredicate.from_marks(4, [1, 2, 3, 4])
        assert np.allclose(per_sample_distribution(model, pred), [0.25] * 4, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for n in (2, 8, 64):
            t = int(rng.integers(0, n + 1))
            marks = rng.choice(np.arange(1, n + 1), size=t, replace=False)
            pred = BooleanPredicate.from_marks(n, (int(m) for m in marks))
            dist = per_sample_distribution(amplitudes(n, t), pred)
            assert abs(dist.sum() - 1.0) < 1e-12

    def test_marked_count_mismatch(self):
        with pytest.raises(DomainError):
            per_sample_distribution(amplitudes(4, 2), BooleanPredicate.from_marks(4, [1]))

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            per_sample_distribution(amplitudes(4, 1), BooleanPredicate.from_marks(2, [1]))


class TestProductState:
    def test_single_register_reduces_to_amplitudes(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        state = analytic_product_state(model, pred, 1)
        assert np.allclose(state.amplitudes, [model.marked_amp, model.unmarked_amp])

    def test_two_register_signs(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        state = analytic_product_state(model, pred, 2)
        k, l = model.marked_amp, model.unmarked_amp
        assert np.allclose(state.amplitudes, [k * k, k * l, l * k, l * l], atol=1e-15)
        assert np.allclose(np.abs(state.amplitudes), 0.5, atol=1e-15)

    def test_unit_norm_across_grid(self):
        for n in (2, 4, 8, 16):
            for t in range(n + 1):
                model = amplitudes(n, t)
                pred = BooleanPredicate.from_marks(n, range(1, t + 1))
                for eta in (1, 2, 3):
                    if math.log2(n) * eta > 20:
                        continue
                    state = analytic_product_state(model, pred, eta)
                    assert abs(state.norm() - 1.0) < 1e-12

    def test_capacity(self):
        model = amplitudes(16, 1)
        pred = BooleanPredicate.from_marks(16, [1])
        with pytest.raises(CapacityError):
            analytic_product_state(model, pred, 7)  # 28 qubits

    def test_matches_circuit_final_state(self):
        # Cross-module check: the product state this module predicts must
        # agree with the simulated circuit up to a global phase.
        from paritysearch import SearchParameters, layout_for, run_circuit
        from paritysearch.statevector import StateVector, fidelity_mod_phase

        for n in (2, 4):
            for eta in (1, 2, 3):
                params = SearchParameters(n, eta)
                layout = layout_for(params)
                for mask in range(2**n):
                    pred = BooleanPredicate.from_mask(n, mask)
                    model = amplitudes(n, pred.marked_count)
                    product = analytic_product_state(model, pred, eta)
                    zeros = np.zeros(1 << n, dtype=complex)
                    zeros[0] = 1.0
                    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
                    expected = StateVector(
                        layout.total_qubits,
                        np.kron(minus, np.kron(zeros, product.amplitudes)),
                    )
                    final = run_circuit(params, pred).final_state
                    assert fidelity_mod_phase(final, expected) >= 1 - 1e-10


class TestExactSuccessProbability:
    def test_certain_case(self):
        model = amplitudes(4, 1)
        pred = BooleanPredicate.from_marks(4, [2])
        assert exact_success_probability(model, pred, 1) == pytest.approx(1.0, abs=1e-12)

    def test_single_sample_random_tie(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        value = exact_success_probability(model, pred, 1, tie_break="random")
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_nothing_marked_never_succeeds(self):
        model = amplitudes(2, 0)
        pred = BooleanPredicate.from_marks(2, [])
        for eta in (1, 2, 5):
            assert exact_success_probability(model, pred, eta) == 0.0

    def test_everything_marked_always_succeeds(self):
        model = amplitudes(4, 4)
        pred = BooleanPredicate.from_marks(4, [1, 2, 3, 4])
        for tie in ("lowest_index", "random"):
            value = exact_success_probability(model, pred, 3, tie_break=tie)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_uniform_case(self):
        # Half the items marked makes every item probability 1/4; with two
        # samples the winner is marked in exactly half the weighted cases.
        model = amplitudes(4, 2)
        pred = BooleanPredicate.from_marks(4, [2, 3])
        assert exact_success_probability(model, pred, 2) == pytest.approx(0.5, abs=1e-12)
        value = exact_success_probability(model, pred, 2, tie_break="random")
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    def test_matches_composition_enumeration(self, tie):
        rng = np.random.default_rng(17)
        for n in (2, 4, 8):
            for t in range(n + 1):
                marks = rng.choice(np.arange(1, n + 1), size=t, replace=False)
                pred = BooleanPredicate.from_marks(n, (int(m) for m in marks))
                model = amplitudes(n, t)
                probs = per_sample_distribution(model, pred)
                for eta in (1, 2, 4):
                    got = exact_success_probability(model, pred, eta, tie_break=tie)
                    want = success_by_composition_enumeration(probs, pred.marks, eta, tie)
                    assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    def test_matches_tuple_enumeration(self, tie):
        for n, marks, eta in [(2, [2], 3), (4, [1, 4], 2), (4, [2, 3, 4], 3)]:
            pred = BooleanPredicate.from_marks(n, marks)
            model = amplitudes(n, len(marks))
            probs = per_sample_distribution(model, pred)
            got = exact_success_probability(model, pred, eta, tie_break=tie)
            want = success_by_tuple_enumeration(probs, pred.marks, eta, tie)
            assert got == pytest.approx(want, abs=1e-12)

    def test_lowest_index_ties_depend_on_mark_position(self):
        # With everything equally likely the tie-break position matters:
        # marking item 1 wins every tie it joins, marking item 4 loses them.
        model = amplitudes(4, 2)
        early = BooleanPredicate.from_marks(4, [1, 2])
        late = BooleanPredicate.from_marks(4, [3, 4])
        p_early = exact_success_probability(model, early, 2)
        p_late = exact_success_probability(model, late, 2)
        assert p_early > 0.5 > p_late
        assert p_early + p_late == pytest.approx(1.0, abs=1e-12)

    def test_work_cap(self):
        model = amplitudes(1024, 1)
        pred = BooleanPredicate.from_marks(1024, [1])
        with pytest.raises(CapacityError):
            exact_success_probability(model, pred, 102400)

    def test_sample_count_validation(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        with pytest.raises(DomainError):
            exact_success_probability(model, pred, 0)

    def test_strong_signal_convergence(self):
        # One mark in sixteen: success must increase with the sample count
        # and effectively reach one by 64 samples.
        model = amplitudes(16, 1)
        pred = BooleanPredicate.from_marks(16, [1])
        values = [exact_success_probability(model, pred, eta) for eta in (1, 8, 64)]
        assert values == sorted(values)
        assert values[-1] >= 0.99


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        model = amplitudes(8, 2)
        pred = BooleanPredicate.from_marks(8, [3, 5])
        a = monte_carlo_success_probability(model, pred, 5, trials=200, seed=4)
        b = monte_carlo_success_probability(model, pred, 5, trials=200, seed=4)
        assert a == b

    def test_certain_case(self):
        model = amplitudes(4, 1)
        pred = BooleanPredicate.from_marks(4, [2])
        result = monte_carlo_success_probability(model, pred, 3, trials=100, seed=0)
        assert result.estimate == 1.0
        assert result.std_error == 0.0

    def test_within_three_sigma_of_exact_strong_signal(self):
        model = amplitudes(16, 1)
        pred = BooleanPredicate.from_marks(16, [1])
        exact = exact_success_probability(model, pred, 64)
        result = monte_carlo_success_probability(model, pred, 64, trials=10_000, seed=5)
        tolerance = 3 * max(result.std_error, 1e-4)
        assert abs(result.estimate - exact) <= tolerance

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    def test_within_four_sigma_across_grid(self, tie):
        for n in (2, 4, 8):
            for t in (0, 1, 2):
                pred = BooleanPredicate.from_marks(n, range(1, t + 1))
                model = amplitudes(n, t)
                for eta in (1, 3, 5):
                    exact = exact_success_probability(model, pred, eta, tie_break=tie)
                    mc = monte_carlo_success_probability(
                        model, pred, eta, trials=2000, seed=n * 100 + t * 10 + eta,
                        tie_break=tie,
                    )
                    tolerance = 4 * max(mc.std_error, math.sqrt(0.25 / 2000))
                    assert abs(mc.estimate - exact) <= tolerance

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    def test_streams_match_eager_spawn(self, tie):
        model = amplitudes(8, 3)
        pred = BooleanPredicate.from_marks(8, [2, 5, 8])
        pvec = per_sample_distribution(model, pred)
        pvec = pvec / pvec.sum()
        for seed in (0, 1, 7, 12345, 2**40 + 3):
            mc = monte_carlo_success_probability(model, pred, 4, trials=300, seed=seed, tie_break=tie)
            assert mc.estimate == eager_monte_carlo_estimate(pvec, pred.marks, 4, 300, seed, tie)

    def test_memory_does_not_grow_with_trials(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        tracemalloc.start()
        try:
            monte_carlo_success_probability(model, pred, 1, trials=20_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trial_validation(self):
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        with pytest.raises(DomainError):
            monte_carlo_success_probability(model, pred, 1, trials=0)


class TestSampleSchedule:
    def test_examples(self):
        assert scheduled_sample_count(2, 1.0) == 2
        assert scheduled_sample_count(16, 1.0) == 256
        assert scheduled_sample_count(16, 0.5) == 128

    def test_rounds_up(self):
        assert scheduled_sample_count(8, 0.1) == math.ceil(0.1 * 8 * 9)

    def test_validation(self):
        with pytest.raises(DomainError):
            scheduled_sample_count(3, 1.0)
        with pytest.raises(DomainError):
            scheduled_sample_count(4, 0.0)
