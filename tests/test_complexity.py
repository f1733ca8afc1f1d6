"""Gate tallies against the emitted circuit, cost models, asymptotics."""

from collections import Counter

import pytest

from paritysearch import (
    BooleanPredicate,
    DomainError,
    SearchParameters,
    asymptotic_report,
    build_circuit,
    naive_cost_model,
    paper_cost_model,
    predict_tally,
    query_count_comparison,
    tally_of_records,
)
from paritysearch.complexity import cost_model_by_name, sort_comparisons


def counted_from_records(records):
    """Independent per-category count of an emitted gate list."""
    kinds = Counter(r.kind for r in records)
    by_step = {}
    for r in records:
        by_step.setdefault(r.step, Counter())[r.kind] += 1
    return kinds, {step: dict(c) for step, c in by_step.items()}


class TestPredictTally:
    def test_smallest_instance(self):
        params = SearchParameters(2, 2)
        pred = BooleanPredicate.from_marks(2, [1])
        tally = predict_tally(params, pred, paper_cost_model())
        assert tally.hadamards == 7
        assert tally.sigma_z == 1
        assert tally.multi_controlled_phases == 2
        assert tally.multi_controlled_flips == 2 * 2 * 2 + 1 == 9

    def test_two_bit_items_no_marks(self):
        params = SearchParameters(4, 1)
        pred = BooleanPredicate.from_marks(4, [])
        tally = predict_tally(params, pred, paper_cost_model())
        assert tally.multi_controlled_flips == 8
        assert tally.hadamards == 7

    def test_sort_comparisons(self):
        assert sort_comparisons(1) == 0
        assert sort_comparisons(2) == 2
        assert sort_comparisons(3) == 5
        with pytest.raises(DomainError):
            sort_comparisons(0)

    def test_sort_comparisons_stay_below_the_largest_float(self):
        assert sort_comparisons(2**1014 - 1) > 2**1023
        with pytest.raises(DomainError, match=r"below 2\*\*1014"):
            sort_comparisons(2**1014)

    def test_matches_emitted_gate_list_exactly(self):
        # Exhaustive over item bits <= 2, samples <= 3, every predicate.
        model = paper_cost_model()
        for n in (2, 4):
            for eta in (1, 2, 3):
                params = SearchParameters(n, eta)
                for mask in range(2**n):
                    pred = BooleanPredicate.from_mask(n, mask)
                    tally = predict_tally(params, pred, model)
                    kinds, by_step = counted_from_records(build_circuit(params, pred))
                    assert tally.hadamards == kinds["hadamard"]
                    assert tally.sigma_z == kinds["sigma_z"]
                    assert tally.multi_controlled_flips == kinds["value_controlled_flip"]
                    assert tally.multi_controlled_phases == kinds["value_controlled_phase"]
                    expected_by_step = {
                        step: {k: v for k, v in counts.items() if v}
                        for step, counts in tally.by_step.items()
                        if any(counts.values())
                    }
                    assert expected_by_step == by_step

    def test_step4_flip_count_equals_marked_count(self):
        for mask in range(16):
            pred = BooleanPredicate.from_mask(4, mask)
            params = SearchParameters(4, 2)
            tally = predict_tally(params, pred, naive_cost_model())
            assert tally.by_step["step4"]["value_controlled_flip"] == pred.marked_count

    def test_tally_of_records_agrees_with_predict(self):
        params = SearchParameters(4, 2)
        pred = BooleanPredicate.from_marks(4, [1, 3])
        for model in (paper_cost_model(), naive_cost_model()):
            predicted = predict_tally(params, pred, model)
            enumerated = tally_of_records(build_circuit(params, pred), params, model)
            assert enumerated.hadamards == predicted.hadamards
            assert enumerated.multi_controlled_flips == predicted.multi_controlled_flips
            assert enumerated.elementary_total == predicted.elementary_total

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            predict_tally(SearchParameters(4, 1), BooleanPredicate.from_marks(2, [1]),
                          paper_cost_model())


class TestCostModels:
    def test_names(self):
        assert cost_model_by_name("paper").name == "paper"
        assert cost_model_by_name("naive").name == "naive_decoder"
        assert cost_model_by_name("naive_decoder").name == "naive_decoder"
        with pytest.raises(DomainError):
            cost_model_by_name("other")

    def test_cost_positive_and_monotone(self):
        for model in (paper_cost_model(), naive_cost_model()):
            costs = [model.cost_of_multi_controlled(k) for k in range(0, 9)]
            assert all(c >= 1 for c in costs)
            assert costs == sorted(costs)

    def test_singly_controlled_gates_are_elementary(self):
        assert paper_cost_model().cost_of_multi_controlled(1) == 1

    def test_parity_pass_population_scaling(self):
        # Paper model: weighted parity-pass cost linear in the sample count
        # at fixed size; naive model: linear in samples x items.
        for n in (2, 4, 8):
            paper, naive = paper_cost_model(), naive_cost_model()
            nu = n.bit_length() - 1
            paper_per_sample = {
                eta: paper.counted_parity_flips(eta, n) * paper.cost_of_multi_controlled(nu) / eta
                for eta in (1, 2, 4, 8)
            }
            naive_per_cell = {
                eta: naive.counted_parity_flips(eta, n) * naive.cost_of_multi_controlled(nu)
                / (eta * n)
                for eta in (1, 2, 4, 8)
            }
            assert len(set(paper_per_sample.values())) == 1
            assert len(set(naive_per_cell.values())) == 1
            ratio = naive.counted_parity_flips(3, n) / paper.counted_parity_flips(3, n)
            assert ratio == n

    def test_weighted_totals_differ_between_models(self):
        params = SearchParameters(4, 3)
        pred = BooleanPredicate.from_marks(4, [1])
        paper = predict_tally(params, pred, paper_cost_model())
        naive = predict_tally(params, pred, naive_cost_model())
        assert naive.elementary_total > paper.elementary_total
        # raw counts are model-independent
        assert naive.multi_controlled_flips == paper.multi_controlled_flips


class TestAsymptoticReport:
    def test_mid_size(self):
        report = asymptotic_report(16, 1.0)
        assert report.n_samples == 256
        assert report.sample_register_qubits == 1024
        assert report.conditioned_flip_scale == 4096
        assert report.claimed_total_scale == 4096

    def test_smallest(self):
        report = asymptotic_report(2, 1.0)
        assert report.n_samples == 2
        assert report.sample_register_qubits == 2

    def test_large(self):
        report = asymptotic_report(1024, 1.0)
        assert report.n_samples == 102400
        assert report.sample_register_qubits == 1_024_000


class TestQueryComparison:
    def test_single_mark(self):
        comparison = query_count_comparison(64, 1)
        assert comparison.subset_parity_queries == 1
        assert comparison.single_item_queries == 8

    def test_many_marks(self):
        assert query_count_comparison(64, 16).single_item_queries == 2

    def test_all_marked(self):
        assert query_count_comparison(4, 4) == query_count_comparison(4, 4)
        assert query_count_comparison(4, 4).single_item_queries == 1

    def test_nothing_marked_rejected(self):
        with pytest.raises(DomainError):
            query_count_comparison(64, 0)

    def test_always_one_parity_query(self):
        for n in (2, 16, 256):
            for t in (1, 2, n):
                assert query_count_comparison(n, t).subset_parity_queries == 1
