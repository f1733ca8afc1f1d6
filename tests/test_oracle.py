"""Classical query model: predicates, incidence vectors, parity identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    IncidenceVector,
    SampleTuple,
    SearchParameters,
    incidence_of_samples,
    occurrence_parity,
    single_item_query,
    subset_parity_query,
    verify_parity_identity,
)


class TestSearchParameters:
    def test_derives_item_bits(self):
        params = SearchParameters(8, 3)
        assert params.item_bits == 3
        assert params.n_samples == 3

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(DomainError):
            SearchParameters(n, 1)

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            SearchParameters(4, 0)


class TestBooleanPredicate:
    def test_single_item_query(self):
        pred = BooleanPredicate.from_marks(4, [2])
        assert single_item_query(pred, 2) == 1
        assert single_item_query(pred, 1) == 0

    def test_empty_predicate_rejects_nothing(self):
        pred = BooleanPredicate.from_marks(4, [])
        assert all(single_item_query(pred, x) == 0 for x in range(1, 5))

    def test_out_of_range_item(self):
        pred = BooleanPredicate.from_marks(4, [2])
        with pytest.raises(DomainError):
            single_item_query(pred, 5)
        with pytest.raises(DomainError):
            single_item_query(pred, 0)

    def test_marks_outside_range_rejected(self):
        with pytest.raises(DomainError):
            BooleanPredicate.from_marks(4, [5])

    def test_mask_round_trip(self):
        pred = BooleanPredicate.from_marks(4, [2, 3])
        assert pred.to_mask() == 0b0110
        assert BooleanPredicate.from_mask(4, 0b0110) == pred
        assert BooleanPredicate.from_text(4, mask_hex=pred.mask_hex()) == pred

    def test_text_list_parsing(self):
        assert BooleanPredicate.from_text(4, "2, 3").marks == frozenset({2, 3})
        assert BooleanPredicate.from_text(4, "").marks == frozenset()
        with pytest.raises(DomainError):
            BooleanPredicate.from_text(4, "2", "0x3")
        with pytest.raises(DomainError):
            BooleanPredicate.from_text(4, "two")

    def test_mask_too_wide(self):
        with pytest.raises(DomainError):
            BooleanPredicate.from_mask(4, 0x10)

    @pytest.mark.parametrize("mask", [0, 0x6])
    def test_mask_on_negative_size(self, mask):
        # A negative size must not reach the shift (ValueError).
        with pytest.raises(DomainError):
            BooleanPredicate.from_mask(-2, mask)


class TestSubsetParityQuery:
    def test_even_overlap(self):
        pred = BooleanPredicate.from_marks(4, [2, 3])
        subset = IncidenceVector.from_subset(4, [1, 2, 3])
        assert subset_parity_query(pred, subset) == 0

    def test_odd_overlap(self):
        pred = BooleanPredicate.from_marks(4, [2, 3])
        subset = IncidenceVector.from_subset(4, [1, 2])
        assert subset_parity_query(pred, subset) == 1

    def test_empty_subset(self):
        pred = BooleanPredicate.from_marks(4, [1, 4])
        assert subset_parity_query(pred, IncidenceVector.from_subset(4, [])) == 0

    def test_size_mismatch(self):
        pred = BooleanPredicate.from_marks(4, [2])
        with pytest.raises(DomainError):
            subset_parity_query(pred, IncidenceVector.from_subset(2, [1]))

    @given(
        marks=st.sets(st.integers(1, 8)),
        a=st.sets(st.integers(1, 8)),
        b=st.sets(st.integers(1, 8)),
    )
    def test_linear_under_symmetric_difference(self, marks, a, b):
        pred = BooleanPredicate.from_marks(8, marks)
        qa = subset_parity_query(pred, IncidenceVector.from_subset(8, a))
        qb = subset_parity_query(pred, IncidenceVector.from_subset(8, b))
        qd = subset_parity_query(
            pred, IncidenceVector.from_subset(8, set(a) ^ set(b))
        )
        assert qd == qa ^ qb


class TestIncidence:
    def test_round_trip(self):
        subset = frozenset({1, 3, 4})
        assert IncidenceVector.from_subset(8, subset).to_subset() == subset

    @given(subset=st.sets(st.integers(1, 16)))
    def test_round_trip_property(self, subset):
        assert IncidenceVector.from_subset(16, subset).to_subset() == frozenset(subset)

    def test_rejects_non_bits(self):
        with pytest.raises(DomainError):
            IncidenceVector((0, 2))


class TestOccurrenceParity:
    def test_examples(self):
        samples = SampleTuple((2, 2, 5))
        assert occurrence_parity(samples, 2, n_items=8) == 0
        assert occurrence_parity(samples, 5, n_items=8) == 1
        assert occurrence_parity(samples, 1, n_items=8) == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            occurrence_parity(SampleTuple((1, 2)), 5, n_items=4)

    def test_incidence_of_samples(self):
        assert incidence_of_samples(SampleTuple((1, 1)), 4).bits == (0, 0, 0, 0)
        assert incidence_of_samples(SampleTuple((1, 2)), 4).bits == (1, 1, 0, 0)
        assert incidence_of_samples(SampleTuple((2, 2, 2)), 2).bits == (0, 1)

    def test_matches_per_item_parity(self):
        samples = SampleTuple((3, 1, 3, 3, 2))
        vec = incidence_of_samples(samples, 4)
        for j in range(1, 5):
            assert vec.bits[j - 1] == occurrence_parity(samples, j, n_items=4)

    @given(values=st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_doubled_tuple_is_all_zero(self, values):
        doubled = SampleTuple(tuple(values) + tuple(values))
        assert incidence_of_samples(doubled, 4).bits == (0, 0, 0, 0)


class TestParityIdentity:
    def test_exhaustive_n2(self):
        report = verify_parity_identity(BooleanPredicate.from_marks(2, [1]), 2)
        assert report.checked == 4
        assert report.violations == 0

    def test_exhaustive_n4(self):
        report = verify_parity_identity(BooleanPredicate.from_marks(4, [2, 3]), 3)
        assert report.checked == 64
        assert report.violations == 0

    def test_sampled(self):
        report = verify_parity_identity(
            BooleanPredicate.from_marks(8, [5]), 4, mode="sampled", trials=1000, seed=7
        )
        assert report.checked == 1000
        assert report.violations == 0

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            verify_parity_identity(BooleanPredicate.from_marks(4, [1]), 3, enumeration_cap=10)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            verify_parity_identity(BooleanPredicate.from_marks(2, [1]), 1, mode="guess")

    @settings(deadline=None)
    @given(data=st.data())
    def test_identity_on_random_instances(self, data):
        n = data.draw(st.sampled_from([2, 4, 8]))
        marks = data.draw(st.sets(st.integers(1, n)))
        eta = data.draw(st.integers(1, 3))
        values = tuple(data.draw(st.integers(1, n)) for _ in range(eta))
        pred = BooleanPredicate.from_marks(n, marks)
        samples = SampleTuple(values)
        lhs = subset_parity_query(pred, incidence_of_samples(samples, n))
        rhs = sum(pred.value(v) for v in values) % 2
        assert lhs == rhs

    def test_full_small_grid(self):
        # N in {2,4}: every predicate; N=8: 32 seeded random predicates.
        rng = np.random.default_rng(11)
        cases = []
        for n in (2, 4):
            cases.extend((n, mask) for mask in range(2**n))
        cases.extend((8, int(rng.integers(0, 2**8))) for _ in range(32))
        for n, mask in cases:
            pred = BooleanPredicate.from_mask(n, mask)
            for eta in (1, 2, 3):
                report = verify_parity_identity(pred, eta)
                assert report.checked == n**eta
                assert report.violations == 0
