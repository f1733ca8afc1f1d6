"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from click.testing import CliRunner
from helpers import expected_full_state

from paritysearch import (
    BooleanPredicate,
    SearchParameters,
    amplitudes,
    build_circuit,
    exact_success_probability,
    monte_carlo_success_probability,
    paper_cost_model,
    predict_tally,
    query_count_comparison,
    run_circuit,
    run_search,
    verify_parity_identity,
)
from paritysearch.cli import main
from paritysearch.statevector import marginal_distribution

FIDELITY_BOUND = 1 - 1e-10
IDENTITY_ATOL = 1e-12


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def every_predicate(n: int):
    for mask in range(2**n):
        yield BooleanPredicate.from_mask(n, mask)


def test_criterion_1_parity_identity_exhaustive():
    with criterion(1, "parity identity: exhaustive, zero violations, < 10 s"):
        start = time.perf_counter()
        for n in (2, 4):
            for pred in every_predicate(n):
                for eta in (1, 2, 3):
                    report = verify_parity_identity(pred, eta, mode="exhaustive")
                    assert report.checked == n**eta
                    assert report.violations == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_2_disentanglement():
    with criterion(2, "incidence register all-zero after the second parity pass (>= 1 - 1e-10)"):
        for n in (2, 4):
            for pred in every_predicate(n):
                for eta in (1, 2, 3):
                    params = SearchParameters(n, eta)
                    run = run_circuit(params, pred, capture=True)
                    marg = marginal_distribution(
                        run.intermediates["step5"], params.incidence_qubits()
                    )
                    assert marg[0] >= FIDELITY_BOUND


def test_criterion_3_factorization():
    with criterion(3, "final state factorizes into model amplitudes (fidelity >= 1 - 1e-10, < 30 s)"):
        start = time.perf_counter()
        from paritysearch.statevector import fidelity_mod_phase

        for n in (2, 4):
            for pred in every_predicate(n):
                for eta in (1, 2):
                    params = SearchParameters(n, eta)
                    run = run_circuit(params, pred, capture=True)
                    model = amplitudes(n, pred.marked_count)
                    expected = expected_full_state(
                        params, pred, model.marked_amp, model.unmarked_amp
                    )
                    fid = fidelity_mod_phase(run.intermediates["step6"], expected)
                    assert fid >= FIDELITY_BOUND
        assert time.perf_counter() - start < 30.0


def test_criterion_4_amplitude_normalization():
    with criterion(4, "t*k^2 + (N-t)*l^2 = 1 within 1e-12 for N in {2..1024}, all t"):
        for exponent in range(1, 11):
            n = 2**exponent
            for t in range(n + 1):
                model = amplitudes(n, t)
                total = t * model.p_marked + (n - t) * model.p_unmarked
                assert abs(total - 1.0) < IDENTITY_ATOL


def test_criterion_5_probability_form_consistency():
    with criterion(5, "quadratic probability forms equal squared amplitudes within 1e-12"):
        for exponent in range(1, 11):
            n = 2**exponent
            for t in range(n + 1):
                model = amplitudes(n, t)
                ratio = 4 * t / n
                assert abs(model.p_marked - (9 - 6 * ratio + ratio**2) / n) < IDENTITY_ATOL
                assert abs(model.p_unmarked - (1 - 2 * ratio + ratio**2) / n) < IDENTITY_ATOL


def test_criterion_6_certain_success_case():
    with criterion(6, "one mark in four: marked sample certain; 100 seeded runs all succeed"):
        model = amplitudes(4, 1)
        assert model.p_marked == 1.0
        assert model.p_unmarked == 0.0
        pred = BooleanPredicate.from_marks(4, [3])
        params = SearchParameters(4, 3)
        final = run_circuit(params, pred).final_state
        for i in (1, 2, 3):
            marg = marginal_distribution(final, params.sample_qubits(i))
            assert np.allclose(marg, [0, 0, 1, 0], atol=IDENTITY_ATOL)
        for seed in range(100):
            outcome = run_search(params, pred, seed=seed)
            assert outcome.winner == 3
            assert outcome.winner_satisfies == 1


def test_criterion_7_success_probability_convergence():
    with criterion(7, "one mark in sixteen: exact >= 0.99 at 64 samples; MC within 4 SE at 1/8/64"):
        model = amplitudes(16, 1)
        pred = BooleanPredicate.from_marks(16, [1])
        exact_values = {
            eta: exact_success_probability(model, pred, eta) for eta in (1, 8, 64)
        }
        assert exact_values[64] >= 0.99
        assert exact_values[1] <= exact_values[8] <= exact_values[64]
        for eta, exact in exact_values.items():
            mc = monte_carlo_success_probability(model, pred, eta, trials=10_000, seed=13)
            se = math.sqrt(exact * (1 - exact) / 10_000)
            assert abs(mc.estimate - exact) <= 4 * se


def test_criterion_8_gate_tally_oracle():
    with criterion(8, "closed-form tally equals enumerated gate list, exact integers"):
        model = paper_cost_model()
        for n in (2, 4):  # item bits 1 and 2
            for eta in (1, 2, 3):
                params = SearchParameters(n, eta)
                for pred in every_predicate(n):
                    tally = predict_tally(params, pred, model)
                    kinds = Counter(r.kind for r in build_circuit(params, pred))
                    assert tally.hadamards == kinds["hadamard"]
                    assert tally.sigma_z == kinds["sigma_z"]
                    assert tally.multi_controlled_flips == kinds["value_controlled_flip"]
                    assert tally.multi_controlled_phases == kinds["value_controlled_phase"]


def test_criterion_9_single_oracle_call():
    with criterion(9, "exactly one oracle block per circuit; query comparison reports one"):
        for n in (2, 4):
            for eta in (1, 2, 3):
                params = SearchParameters(n, eta)
                for pred in every_predicate(n):
                    steps = [r.step for r in build_circuit(params, pred)]
                    oracle_gates = [s for s in steps if s == "step4"]
                    assert len(oracle_gates) == pred.marked_count
                    runs = sum(
                        1 for i, s in enumerate(steps)
                        if s == "step4" and (i == 0 or steps[i - 1] != "step4")
                    )
                    assert runs <= 1
        for n, t in itertools.product((2, 16, 64, 1024), (1, 2, 5)):
            if t <= n:
                assert query_count_comparison(n, t).subset_parity_queries == 1


def test_criterion_10_cli_determinism():
    with criterion(10, "identical CLI config and seed give byte-identical documents"):
        runner = CliRunner()
        commands = [
            ["simulate", "--n", "4", "--marks", "2,4", "--eta", "3", "--seed", "5",
             "--tie-break", "random", "--capture"],
            ["analytic", "--n", "16", "--t", "1", "--eta", "8", "--trials", "2000",
             "--seed", "21"],
            ["gates", "--n", "4", "--eta", "2", "--t", "2", "--cost-model", "naive"],
        ]
        for args in commands:
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.exit_code == 0 and second.exit_code == 0
            assert first.output == second.output
            json.loads(first.output)  # well-formed
