"""Closed-form amplitudes, success probabilities, and the Monte Carlo estimator."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    chi_square_bound,
    chi_square_statistic,
    exact_success_fraction,
    success_by_composition_enumeration,
    success_by_tuple_enumeration,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import (
    BooleanPredicate,
    CapacityError,
    DomainError,
    amplitudes,
    analytic_product_state,
    exact_failure_probability,
    exact_success_probability,
    monte_carlo_success_probability,
    per_sample_distribution,
    scheduled_sample_count,
)
from paritysearch import analytic
from paritysearch.analytic import _gauss_legendre, _majority_winners
from paritysearch.circuit import winner_from_frequencies

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

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    @pytest.mark.parametrize("eta", [67, 68, 70, 72])
    def test_binomials_past_64_bits(self, eta, tie):
        # From eta=68 on, C(eta, eta/2) outgrows 64-bit integers.  At N=2
        # with item 1 marked both items have probability 1/2, so item 1's
        # count X is Binomial(eta, 1/2): lowest-index ties make success
        # P(X >= eta/2); random ties give half credit when X = eta/2.
        model = amplitudes(2, 1)
        pred = BooleanPredicate.from_marks(2, [1])
        credit = {
            "lowest_index": lambda k: Fraction(2 * k >= eta),
            "random": lambda k: Fraction(1, 2) if 2 * k == eta else Fraction(2 * k > eta),
        }[tie]
        want = sum(math.comb(eta, k) * credit(k) for k in range(eta + 1)) / 2**eta
        got = exact_success_probability(model, pred, eta, tie_break=tie)
        assert got == pytest.approx(float(want), abs=1e-13)


def _exact_pair(n, marks, eta, tie):
    pred = BooleanPredicate.from_marks(n, marks)
    model = amplitudes(n, len(pred.marks))
    return (exact_success_probability(model, pred, eta, tie_break=tie),
            exact_failure_probability(model, pred, eta, tie_break=tie))


class TestExactFailureProbability:
    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    @pytest.mark.parametrize("n, c", [(8, 1.0), (16, 0.25)])
    def test_matches_rationals_at_the_schedule(self, n, c, tie):
        # Failure is ~1e-23 at N=8, c=1: far below the rounding of 1 - success.
        eta = scheduled_sample_count(n, c)
        want = 1 - exact_success_fraction(n, [1], eta, tie)
        _, failure = _exact_pair(n, [1], eta, tie)
        assert failure == pytest.approx(float(want), rel=1e-10)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    @pytest.mark.parametrize("eta", [67, 72])
    def test_success_matches_rationals_past_64_bits(self, eta, tie):
        success, _ = _exact_pair(8, [3], eta, tie)
        assert success == pytest.approx(float(exact_success_fraction(8, [3], eta, tie)), abs=1e-13)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    def test_success_and_failure_sum_to_one(self, tie):
        rng = np.random.default_rng(23)
        for n in (2, 4, 8, 16):
            for t in range(n + 1):
                marks = [int(j) + 1 for j in rng.choice(n, size=t, replace=False)]
                for eta in (1, 3, 10, 40):
                    success, failure = _exact_pair(n, marks, eta, tie)
                    assert success + failure == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_edge_classes_without_warnings(self, n, tie):
        # t=N/4 leaves unmarked items probability 0, t=N/2 makes every item
        # equally likely, t=3N/4 leaves marked items probability 0.
        known = {0: (0.0, 1.0), n // 4: (1.0, 0.0), 3 * n // 4: (0.0, 1.0), n: (1.0, 0.0)}
        if tie == "random":
            known[n // 2] = (0.5, 0.5)
        for t in (0, n // 4, n // 2, 3 * n // 4, n):
            marks = range(n - t + 1, n + 1)
            for eta in (1, 6, 13):
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    success, failure = _exact_pair(n, marks, eta, tie)
                want = exact_success_fraction(n, marks, eta, tie)
                assert success == pytest.approx(float(want), abs=1e-13)
                assert failure == pytest.approx(float(1 - want), abs=1e-13)
                if t in known:
                    assert (success, failure) == pytest.approx(known[t], abs=1e-13)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.sampled_from([2, 4, 8]),
        mask=st.integers(0, 255),
        eta=st.integers(1, 6),
        tie=st.sampled_from(["lowest_index", "random"]),
    )
    def test_matches_composition_enumeration(self, n, mask, eta, tie):
        pred = BooleanPredicate.from_marks(n, [j for j in range(1, n + 1) if mask >> (j - 1) & 1])
        unmarked = frozenset(range(1, n + 1)) - pred.marks
        probs = per_sample_distribution(amplitudes(n, pred.marked_count), pred)
        success, failure = _exact_pair(n, pred.marks, eta, tie)
        assert success == pytest.approx(
            success_by_composition_enumeration(probs, pred.marks, eta, tie), abs=1e-12)
        assert failure == pytest.approx(
            success_by_composition_enumeration(probs, unmarked, eta, tie), abs=1e-12)

    def test_lowest_index_memory_does_not_grow_with_designated_items(self):
        # Failure at t=1 designates the 255 unmarked items, success the one
        # marked item; the right-to-left running sum holds the same few
        # batches for both.
        model = amplitudes(256, 1)
        pred = BooleanPredicate.from_marks(256, [1])
        peaks = []
        for probability in (exact_success_probability, exact_failure_probability):
            tracemalloc.start()
            try:
                probability(model, pred, 70)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_success_and_failure_sum_to_one_at_large_designated_counts(self, n):
        # Item N/2 marked: failure sums over N-1 designated items.
        for eta in (1, 2, 3, 4):
            success, failure = _exact_pair(n, [n // 2], eta, "lowest_index")
            assert abs(success + failure - 1.0) <= 3e-13, (eta, success, failure)

    def test_validation_matches_success(self):
        model = amplitudes(1024, 1)
        pred = BooleanPredicate.from_marks(1024, [1])
        with pytest.raises(CapacityError):
            exact_failure_probability(model, pred, 102400)
        with pytest.raises(DomainError):
            exact_failure_probability(model, pred, 0)
        with pytest.raises(DomainError):
            exact_failure_probability(model, pred, 3, tie_break="first")

    def test_golden_documents_hold_rational_values(self):
        golden = Path(__file__).parent / "golden"
        docs = [(json.loads((golden / name).read_text()), "lowest_index")
                for name in ("analytic_n16_exact.json", "analytic_n16_monte_carlo.json")]
        row = next(csv.DictReader((golden / "analytic_n4_schedule_random.csv").open()))
        docs.append(({"params": {"n_items": 4, "marks": [1, 2]}, "result": row}, "random"))
        for doc, tie in docs:
            params, result = doc["params"], doc["result"]
            want = exact_success_fraction(
                params["n_items"], params["marks"], int(result["n_samples"]), tie)
            assert float(result["success_probability_exact"]) == pytest.approx(float(want), abs=1e-13)
            assert float(result["failure_probability_exact"]) == pytest.approx(
                float(1 - want), rel=1e-10)

    def test_engine_and_cli_import_no_scipy(self):
        # numpy.fft only: scipy is not a declared dependency.
        script = (
            "import sys\n"
            "from paritysearch import BooleanPredicate, amplitudes, exact_failure_probability\n"
            "from paritysearch.cli import main\n"
            "exact_failure_probability(amplitudes(8, 1), BooleanPredicate.from_marks(8, [1]), 40,"
            " tie_break='random')\n"
            "try:\n"
            "    main(['analytic', '--n', '16', '--t', '1', '--eta', '64', '--trials', '20'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_random_ties_import_no_numpy_polynomial(self):
        script = (
            "import sys\n"
            "from paritysearch import BooleanPredicate, amplitudes, exact_success_probability\n"
            "exact_success_probability(amplitudes(8, 3), BooleanPredicate.from_marks(8, [1, 4, 6]),"
            " 40, tie_break='random')\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_gauss_legendre_integrates_monomials(self):
        # Exact for x^k, k <= 2*count - 1, on [0, 1]: the integral is 1/(k+1).
        for count in (*range(1, 40), 64, 128, 256, 512):
            log_x, weights = _gauss_legendre(count)
            k = np.arange(2 * count)
            integrals = np.exp(np.outer(k, log_x)) @ weights
            assert np.abs(integrals * (k + 1) - 1.0).max() <= 1e-13, count


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
    def test_chunk_streams_match_eager_spawn(self, tie):
        # Chunk k draws from the k-th child of SeedSequence(seed).spawn, built lazily.
        n, eta = 8, 5
        model = amplitudes(n, 3)
        pred = BooleanPredicate.from_marks(n, [2, 5, 8])
        is_marked = np.array([pred.value(j) for j in range(1, n + 1)], dtype=bool)
        draw, width = analytic._count_draw(model, is_marked, eta)
        chunk = analytic._CHUNK_ENTRIES // width
        trials = 2 * chunk + 7
        for seed in (0, 7, 2**40 + 3):
            successes = 0
            for k, stream in enumerate(np.random.SeedSequence(seed).spawn(3)):
                rng = np.random.default_rng(stream)
                counts = draw(rng, min(chunk, trials - k * chunk))
                successes += int(is_marked[_majority_winners(counts, tie, rng)].sum())
            mc = monte_carlo_success_probability(model, pred, eta, trials=trials, seed=seed,
                                                 tie_break=tie)
            assert mc.estimate == successes / trials

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_lowest_index_vote_matches_frequency_vote(self, n):
        counts = np.random.default_rng(n).integers(0, 3, size=(2000, n))
        counts[counts.sum(axis=1) == 0, 0] = 1  # every trial draws a sample
        winners = _majority_winners(counts, "lowest_index", np.random.default_rng(0))
        for row, winner in zip(counts, winners):
            frequencies = {j + 1: int(c) for j, c in enumerate(row) if c > 0}
            assert winner + 1 == winner_from_frequencies(frequencies, "lowest_index")[0]

    def test_random_vote_is_uniform_among_ties(self):
        row = np.array([2, 5, 5, 1, 5, 0, 5, 4])
        tied = row == row.max()
        trials = 40_000
        winners = _majority_winners(np.tile(row, (trials, 1)), "random", np.random.default_rng(3))
        observed = np.bincount(winners, minlength=len(row))
        statistic, df = chi_square_statistic(observed, np.where(tied, trials / tied.sum(), 0.0))
        assert statistic <= chi_square_bound(df)

    @pytest.mark.parametrize("draw_kind", ["sampling", "multinomial"])
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_count_draws_follow_the_distribution(self, n, draw_kind):
        # eta one below the boundary samples; at the boundary, the multinomial draws.
        eta = analytic._SAMPLING_SAMPLES_PER_ITEM * n - (draw_kind == "sampling")
        rows = 3000
        for t in sorted({0, 1, n // 2, 3 * n // 4, n}):
            marks = np.random.default_rng(10 * n + t).choice(n, t, replace=False) + 1
            pred = BooleanPredicate.from_marks(n, marks.tolist())
            model = amplitudes(n, t)
            pvec = per_sample_distribution(model, pred)
            is_marked = np.array([pred.value(j) for j in range(1, n + 1)], dtype=bool)
            draw, width = analytic._count_draw(model, is_marked, eta)
            assert width == (max(eta, n) if draw_kind == "sampling" else n)
            counts = draw(np.random.default_rng(n + t), rows)
            assert counts.shape == (rows, n)
            assert (counts.sum(axis=1) == eta).all()
            statistic, df = chi_square_statistic(counts.sum(axis=0), rows * eta * pvec / pvec.sum())
            assert statistic <= chi_square_bound(df), (t, statistic, df)

    @pytest.mark.parametrize("tie", ["lowest_index", "random"])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_estimates_within_five_sigma_of_rationals(self, n, tie):
        trials = 100_000
        boundary = analytic._SAMPLING_SAMPLES_PER_ITEM * n
        for t in sorted({0, 1, n // 2, 3 * n // 4, n}):
            pred = BooleanPredicate.from_marks(n, range(1, t + 1))
            model = amplitudes(n, t)
            for eta in (boundary // 2 - 1, boundary):  # a sampled and a multinomial point
                exact = float(exact_success_fraction(n, pred.marks, eta, tie))
                mc = monte_carlo_success_probability(model, pred, eta, trials=trials,
                                                     seed=100 * n + t, tie_break=tie)
                sigma = math.sqrt(exact * (1.0 - exact) / trials)
                assert abs(mc.estimate - exact) <= 5 * sigma, (t, eta, mc.estimate, exact)

    @pytest.mark.parametrize("eta, trials", [(102_400, 3), (1280, 2000)])
    def test_memory_bound_holds_for_any_trials_and_samples(self, eta, trials):
        # Chunks hold at most 2**15 entries per array, whatever the trials or eta.
        model = amplitudes(1024, 1)
        pred = BooleanPredicate.from_marks(1024, [1])
        monte_carlo_success_probability(model, pred, eta, trials=1, seed=3)  # lazy imports
        tracemalloc.start()
        try:
            monte_carlo_success_probability(model, pred, eta, trials=trials, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000

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
