"""Quick tests of the benchmark's own references and checks.

    python3 perfbench/selftest.py

Exits non-zero on the first failure.  Each check must accept the
program's real output and reject a deliberately corrupted one.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

import reference as ref
import workload as wl
from workload import Clock, ps


def test_generating_function_matches_enumeration():
    for n_items, top_eta in ((2, 6), (4, 5), (8, 3)):
        for t in range(n_items + 1):
            for eta in range(1, top_eta + 1):
                for marks in {frozenset(range(1, t + 1)), frozenset(range(n_items - t + 1, n_items + 1)),
                              frozenset(range(1, n_items + 1, 2)) if t == n_items // 2 else frozenset()}:
                    if len(marks) != t:
                        continue
                    for tie_break in wl.TIE_BREAKS:
                        a = ref.success_by_enumeration(n_items, marks, eta, tie_break)
                        b = ref.success_by_generating_function(n_items, marks, eta, tie_break)
                        assert a == b, (n_items, sorted(marks), eta, tie_break, a, b)


def test_enumeration_matches_tuple_sum():
    # The literal definition: every ordered tuple of samples, its probability, its credit.
    n_items, marks = 4, frozenset({2})
    w_marked, w_unmarked = ref.class_weights(n_items, 1)
    for eta in (1, 2, 3, 4):
        for tie_break in wl.TIE_BREAKS:
            total = Fraction(0)
            for values in itertools.product(range(1, n_items + 1), repeat=eta):
                weight = math.prod(w_marked if v in marks else w_unmarked for v in values)
                counts = tuple(values.count(j) for j in range(1, n_items + 1))
                best = max(counts)
                tied = [j for j in range(1, n_items + 1) if counts[j - 1] == best]
                credit = (Fraction(int(tied[0] in marks)) if tie_break == "lowest_index"
                          else Fraction(sum(j in marks for j in tied), len(tied)))
                total += weight * credit
            assert total / n_items ** (3 * eta) == ref.success_by_enumeration(n_items, marks, eta, tie_break)


def test_sampler_agrees_with_exact():
    rng = np.random.default_rng(7)
    for n_items, marks, eta in ((16, [3], 5), (8, [1, 4, 6], 4)):
        sampled = ref.sampled_success(n_items, marks, eta, 40_000, rng)
        for tie_break in wl.TIE_BREAKS:
            exact = float(ref.exact_success(n_items, marks, eta, tie_break))
            assert abs(sampled[tie_break] - exact) < 5 * math.sqrt(exact * (1 - exact) / 40_000) + 1e-9


def test_chi2_sf():
    for statistic, dof, want in ((3.841458820694124, 1, 0.05), (9.487729036781154, 4, 0.05),
                                 (0.5, 3, 0.918891411), (40.0, 10, 1.694474393e-05)):
        assert abs(ref.chi2_sf(statistic, dof) - want) < 1e-4 * want, (statistic, dof)


def test_search_check_rejects_a_perturbed_amplitude():
    op = wl.Search(4, 3, [2, 3], "lowest_index", seed=5)
    amps, outcome = op.run(Clock())
    assert op.check((amps, outcome)) is None
    bad = amps.copy()
    bad[0] += 1e-4
    bad /= np.linalg.norm(bad)
    assert "fidelity" in op.check((bad, outcome))


def test_search_check_rejects_a_wrong_winner():
    op = wl.Search(8, 2, [3], "lowest_index", seed=1)
    amps, outcome = op.run(Clock())
    assert op.check((amps, outcome)) is None
    others = [j for j in range(1, 9) if j != outcome.winner]
    wrong = dataclasses.replace(outcome, winner=others[0])
    assert "winner" in op.check((amps, wrong))
    flag = dataclasses.replace(outcome, winner_satisfies=1 - outcome.winner_satisfies)
    assert "winner_satisfies" in op.check((amps, flag))


def test_exact_check_rejects_a_shifted_probability():
    op = wl.Exact(8, 18, [2, 5], "random")
    value = op.run(Clock())
    assert op.check(value) is None
    assert "reference" in op.check(value - 1e-9)


def test_monte_carlo_check_rejects_a_shifted_estimate():
    op = wl.MonteCarlo(1024, 384, [7], "lowest_index", 300, seed=3, reference_seed=4)
    estimate = op.run(Clock())
    assert op.check(estimate) is None
    shifted = min(1.0, estimate.estimate + 0.3)
    bad = dataclasses.replace(estimate, estimate=shifted,
                              std_error=math.sqrt(shifted * (1 - shifted) / 300))
    assert "SE from" in op.check(bad)


def test_tally_check_rejects_a_wrong_count():
    op = wl.Tally(4, 3, [1, 4])
    enumerated, predicted = op.run(Clock())
    assert op.check((enumerated, predicted)) is None
    bad = dataclasses.replace(predicted, hadamards=predicted.hadamards + 1)
    assert "hadamards" in op.check((enumerated, bad))


def test_pool_rejects_biased_samples():
    pool = wl.SamplePool()
    for _ in range(200):
        pool.add(4, {2}, (2, 2, 2))
    assert pool.verdict() is None
    pool.add(4, {2}, (1,))  # probability 0 when N=4, t=1
    assert "probability 0" in pool.verdict()
    pool = wl.SamplePool()
    for _ in range(200):
        pool.add(8, {3}, (3, 1, 2, 4))  # marked share 1/4, closed form 25/64
    assert "chi-square" in pool.verdict()


def test_cli_document_check_rejects_a_wrong_field():
    op = wl.CliDocument("selftest-analytic", ["analytic", "--n", "8", "--t", "2", "--eta", "18"],
                        wl.expect_analytic(8, 18, 2, "lowest_index"))
    doc = op.run(Clock())
    assert op.check(doc) is None
    doc["result"]["success_probability_exact"] -= 1e-9
    assert "reference" in op.check(doc)
    op.path.unlink()


def main() -> None:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")


if __name__ == "__main__":
    main()
