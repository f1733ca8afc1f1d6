"""One workload in one fresh process: set-up, timed passes, checks.

Started by run.py, never imported by it:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --spawned-at MONOTONIC

`--mode setup` stops just before the first timed operation and reports
the set-up time; `--mode run` goes on to the timed passes.  The last line
of standard output is one JSON object.

A pass runs the workload's fixed operation list once.  Only the time
spent inside calls into paritysearch counts; each call is looked up
through its module attribute at call time (`ps.circuit.run_circuit`), so
a traced pass records every call.  Each operation's outputs are checked
right after it, outside the timed calls.  An operation fails when a call
raises or when its output is wrong; a wrong output also makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import paritysearch as ps  # noqa: E402
import paritysearch.analytic  # noqa: E402,F401
import paritysearch.circuit  # noqa: E402,F401
import paritysearch.cli  # noqa: E402,F401
import paritysearch.complexity  # noqa: E402,F401
import paritysearch.oracle  # noqa: E402,F401
import paritysearch.statevector  # noqa: E402,F401

if Path(ps.__file__).resolve().parent != SRC / "paritysearch":
    sys.exit(f"paritysearch imported from {ps.__file__}, not from {SRC}")

FIDELITY_TOL = 1e-10
EXACT_TOL = 1e-12
MC_SIGMAS = 5.0
MC_REFERENCE_TRIALS = 10_000
CHI2_MIN_P = 1e-6
TIE_BREAKS = ("lowest_index", "random")


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Clock:
    """Sums the wall time spent inside the program's calls."""

    def __init__(self):
        self.spent = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spent += perf_counter() - start


# --------------------------------------------------------------------------
# Operations


def winner_error(outcome, marks, n_items: int, n_samples: int, tie_break: str) -> str | None:
    """Recount a majority vote from its samples under the tie-break rule."""
    values = outcome.samples.values
    if len(values) != n_samples or not all(1 <= v <= n_items for v in values):
        return f"samples {values} are not {n_samples} items of 1..{n_items}"
    counts = Counter(values)
    if outcome.frequencies != dict(counts):
        return f"frequencies {outcome.frequencies} != recount {dict(counts)}"
    best = max(counts.values())
    tied = sorted(item for item, c in counts.items() if c == best)
    if tie_break == "lowest_index" and outcome.winner != tied[0]:
        return f"winner {outcome.winner}, lowest tied item is {tied[0]}"
    if outcome.winner not in tied:
        return f"winner {outcome.winner} is not among the tied items {tied}"
    if outcome.tie_detected != (len(tied) > 1):
        return f"tie flag {outcome.tie_detected} with tied items {tied}"
    if outcome.winner_satisfies != int(outcome.winner in marks):
        return f"winner_satisfies {outcome.winner_satisfies} for winner {outcome.winner}"
    return None


class SamplePool:
    """Samples pooled by (N, t): marked vs unmarked hits, for one chi-square test."""

    def __init__(self):
        self.hits: dict[tuple[int, int], list[int]] = {}

    def add(self, n_items: int, marks, values) -> None:
        cell = self.hits.setdefault((n_items, len(marks)), [0, 0])
        marked = sum(1 for v in values if v in marks)
        cell[0] += marked
        cell[1] += len(values) - marked

    def verdict(self) -> str | None:
        statistic, dof = 0.0, 0
        for (n_items, t), (marked, unmarked) in sorted(self.hits.items()):
            w_marked, w_unmarked = ref.class_weights(n_items, t)
            expected = np.array([t * w_marked, (n_items - t) * w_unmarked]) / n_items**3
            observed = np.array([marked, unmarked])
            possible = expected > 0
            if observed[~possible].any():
                return f"N={n_items} t={t}: {observed} samples on a class of probability 0"
            if possible.all():
                e = expected * observed.sum()
                statistic += float(((observed - e) ** 2 / e).sum())
                dof += 1
        p_value = ref.chi2_sf(statistic, dof)
        if p_value <= CHI2_MIN_P:
            return f"pooled chi-square {statistic:.1f} on {dof} dof, p={p_value:.2e}"
        return None


class Search:
    """One search: run_circuit, measure_samples and majority_postprocess."""

    kind = "search"

    def __init__(self, n_items, n_samples, marks, tie_break, seed, pool=None):
        self.n_items, self.n_samples = n_items, n_samples
        self.marks = frozenset(marks)
        self.tie_break, self.seed, self.pool = tie_break, seed, pool
        self.params = ps.oracle.SearchParameters(n_items, n_samples)
        self.pred = ps.oracle.BooleanPredicate.from_marks(n_items, marks)
        self.layout = ps.circuit.layout_for(self.params)

    def run(self, clock):
        rng = np.random.default_rng(self.seed)
        run = clock(ps.circuit.run_circuit, self.params, self.pred)
        samples = clock(ps.circuit.measure_samples, run.final_state, self.layout, rng)
        outcome = clock(ps.circuit.majority_postprocess, samples, self.pred, self.tie_break, rng)
        return run.final_state.amplitudes, outcome

    def check(self, out):
        amps, outcome = out
        fidelity, norm = ref.closed_form_state_fidelity(amps, self.n_items, self.n_samples, self.marks)
        if abs(norm - 1.0) > FIDELITY_TOL or fidelity < 1.0 - FIDELITY_TOL:
            return f"final state fidelity {fidelity!r}, norm {norm!r}"
        error = winner_error(outcome, self.marks, self.n_items, self.n_samples, self.tie_break)
        if error is None and self.pool is not None:
            self.pool.add(self.n_items, self.marks, outcome.samples.values)
        return error


class Identity:
    """Exhaustive parity-identity check over all N**eta sample tuples."""

    kind = "identity"

    def __init__(self, n_items, n_samples, marks):
        self.n_items, self.n_samples = n_items, n_samples
        self.pred = ps.oracle.BooleanPredicate.from_marks(n_items, marks)

    def run(self, clock):
        return clock(ps.oracle.verify_parity_identity, self.pred, self.n_samples, "exhaustive")

    def check(self, report):
        if report.checked != self.n_items**self.n_samples or report.violations:
            return f"identity checked {report.checked} tuples with {report.violations} violations"
        return None


def tally_error(tally, expected: dict) -> str | None:
    for key in ("hadamards", "sigma_z", "multi_controlled_flips", "multi_controlled_phases"):
        if getattr(tally, key) != expected[key]:
            return f"{key} {getattr(tally, key)} != {expected[key]}"
    by_step = {s: {k: c for k, c in kinds.items() if c} for s, kinds in tally.by_step.items()}
    by_step = {s: kinds for s, kinds in by_step.items() if kinds}
    want = {s: kinds for s, kinds in expected["by_step"].items() if kinds}
    if by_step != want:
        return f"by_step {by_step} != {want}"
    return None


class Tally:
    """predict_tally against tally_of_records of the emitted gate list."""

    kind = "tally"

    def __init__(self, n_items, n_samples, marks):
        self.params = ps.oracle.SearchParameters(n_items, n_samples)
        self.pred = ps.oracle.BooleanPredicate.from_marks(n_items, marks)
        self.model = ps.complexity.paper_cost_model()
        self.expected = ref.expected_tally(self.params.item_bits, n_samples, n_items, len(marks))
        self.sort_comparisons = math.ceil(n_samples * math.log2(n_samples))

    def run(self, clock):
        records = clock(ps.circuit.build_circuit, self.params, self.pred)
        enumerated = clock(ps.complexity.tally_of_records, records, self.params, self.model)
        predicted = clock(ps.complexity.predict_tally, self.params, self.pred, self.model)
        return enumerated, predicted

    def check(self, out):
        enumerated, predicted = out
        for tally in out:
            error = tally_error(tally, self.expected)
            if error:
                return error
            if tally.classical_sort_comparisons != self.sort_comparisons:
                return f"sort comparisons {tally.classical_sort_comparisons}"
        if enumerated.elementary_total != predicted.elementary_total:
            return f"elementary totals {enumerated.elementary_total} != {predicted.elementary_total}"
        return None


@functools.cache
def exact_reference(n_items: int, marks: frozenset, n_samples: int, tie_break: str) -> float:
    return float(ref.exact_success(n_items, marks, n_samples, tie_break))


@functools.cache
def sampled_reference(n_items: int, marks: frozenset, n_samples: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    return ref.sampled_success(n_items, marks, n_samples, MC_REFERENCE_TRIALS, rng)


class Exact:
    """One exact success-probability point."""

    kind = "exact"

    def __init__(self, n_items, n_samples, marks, tie_break):
        self.n_items, self.n_samples, self.tie_break = n_items, n_samples, tie_break
        self.marks = frozenset(marks)
        self.model = ps.analytic.amplitudes(n_items, len(marks))
        self.pred = ps.oracle.BooleanPredicate.from_marks(n_items, marks)

    def run(self, clock):
        return clock(
            ps.analytic.exact_success_probability, self.model, self.pred, self.n_samples,
            tie_break=self.tie_break,
        )

    def check(self, value):
        want = exact_reference(self.n_items, self.marks, self.n_samples, self.tie_break)
        if not abs(value - want) <= EXACT_TOL:
            return f"exact success {value!r}, rational reference {want!r}"
        return None


class MonteCarlo:
    """One Monte Carlo estimate, checked against the benchmark's own sampler."""

    kind = "monte_carlo"

    def __init__(self, n_items, n_samples, marks, tie_break, trials, seed, reference_seed):
        self.n_items, self.n_samples, self.tie_break = n_items, n_samples, tie_break
        self.marks = frozenset(marks)
        self.trials, self.seed, self.reference_seed = trials, seed, reference_seed
        self.model = ps.analytic.amplitudes(n_items, len(marks))
        self.pred = ps.oracle.BooleanPredicate.from_marks(n_items, marks)

    def run(self, clock):
        return clock(
            ps.analytic.monte_carlo_success_probability, self.model, self.pred, self.n_samples,
            trials=self.trials, seed=self.seed, tie_break=self.tie_break,
        )

    def check(self, estimate):
        p = sampled_reference(self.n_items, self.marks, self.n_samples, self.reference_seed)[self.tie_break]
        value = estimate.estimate
        own_se = math.sqrt(value * (1.0 - value) / self.trials)
        if not abs(estimate.std_error - own_se) <= 1e-12:
            return f"std_error {estimate.std_error!r} != {own_se!r}"
        variance = max(p * (1.0 - p), 1.0 / MC_REFERENCE_TRIALS)
        combined = math.sqrt(variance * (1.0 / self.trials + 1.0 / MC_REFERENCE_TRIALS))
        if not abs(value - p) <= MC_SIGMAS * combined:
            return f"estimate {value!r} is {abs(value - p) / combined:.1f} SE from the sampler's {p!r}"
        return None


class CliDocument:
    """One `paritysearch` document written with --out, read back and checked."""

    kind = "cli"

    def __init__(self, name, argv, expect):
        self.path = OUT / "cli" / f"{name}.json"
        self.argv = [*argv, "--out", str(self.path)]
        self.expect = expect

    def run(self, clock):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        try:
            clock(ps.cli.main, self.argv, standalone_mode=False)
        except SystemExit as exc:
            raise RuntimeError(f"paritysearch {' '.join(self.argv)} exited {exc.code}") from None
        return json.loads(self.path.read_text())

    def check(self, doc):
        return self.expect(doc)


def expect_simulate(n_items, n_samples, marks, tie_break):
    marks = frozenset(marks)

    def check(doc):
        params, result = doc["params"], doc["result"]
        nu = n_items.bit_length() - 1
        if params["total_qubits"] != nu * n_samples + n_items + 1 or params["marks"] != sorted(marks):
            return f"simulate params {params}"
        outcome = ps.circuit.SearchOutcome(
            samples=ps.oracle.SampleTuple(tuple(result["samples"])),
            frequencies={int(k): v for k, v in result["frequencies"].items()},
            winner=result["winner"],
            winner_satisfies=result["winner_satisfies"],
            tie_detected=result["tie_detected"],
        )
        return winner_error(outcome, marks, n_items, n_samples, tie_break)

    return check


def expect_analytic(n_items, n_samples, marked_count, tie_break):
    marks = frozenset(range(1, marked_count + 1))

    def check(doc):
        result = doc["result"]
        marked_amp, unmarked_amp = ref.closed_form_amplitudes(n_items, marked_count)
        pairs = (
            (result["marked_amplitude"], marked_amp),
            (result["unmarked_amplitude"], unmarked_amp),
            (result["marked_probability"], marked_amp**2),
            (result["unmarked_probability"], unmarked_amp**2),
            (result["success_probability_exact"],
             exact_reference(n_items, marks, n_samples, tie_break)),
        )
        for got, want in pairs:
            if not abs(got - want) <= EXACT_TOL:
                return f"analytic value {got!r}, reference {want!r}"
        if not doc["checks"]["normalization_residual"] <= EXACT_TOL:
            return f"normalization residual {doc['checks']['normalization_residual']!r}"
        return None

    return check


def expect_gates(n_items, n_samples, marked_count, cross_check):
    nu = n_items.bit_length() - 1
    expected = ref.expected_tally(nu, n_samples, n_items, marked_count)

    def check(doc):
        tally = doc["result"]["tally"]
        for key in ("hadamards", "sigma_z", "multi_controlled_flips", "multi_controlled_phases"):
            if tally[key] != expected[key]:
                return f"gates {key} {tally[key]} != {expected[key]}"
        if tally["classical_sort_comparisons"] != math.ceil(n_samples * math.log2(n_samples)):
            return f"sort comparisons {tally['classical_sort_comparisons']}"
        single = math.ceil(math.sqrt(n_items / marked_count))
        if doc["result"]["query_comparison"] != {"subset_parity_queries": 1, "single_item_queries": single}:
            return f"query comparison {doc['result']['query_comparison']}"
        if doc["checks"]["gate_list_cross_check"] != cross_check:
            return f"gate_list_cross_check {doc['checks']['gate_list_cross_check']!r}"
        return None

    return check


# --------------------------------------------------------------------------
# Workloads: (operations, warm-up operations, pooled-sample test or None)


def schedule(n_items: int, constant: float) -> int:
    """ceil(c * N * log2(N)^2), the paper's sample count."""
    log = math.log2(n_items)
    return math.ceil(constant * n_items * log * log)


# Every N=8, eta=2 marked set is searched under both tie-breaks (two
# samples can tie).  Those 512 searches of near-equal cost then hold the
# median operation; with one tie-break it would sit on the steep edge
# between the 12- and 15-qubit searches.
BOTH_TIE_BREAKS = (8, 2)


def sim_grid(seed: int):
    """Every marked set for N=2 (eta 1..8), N=4 (eta 1..5), N=8 (eta 1, 2)."""
    pool = SamplePool()
    ops = []
    for n_items, etas in ((2, range(1, 9)), (4, range(1, 6)), (8, (1, 2))):
        for eta in etas:
            rng = np.random.default_rng(derived_seed(seed, n_items, eta))
            marks = [j for j in range(1, n_items + 1) if rng.random() < 0.5] or [n_items]
            ops.append(Identity(n_items, eta, marks))
            ops.append(Tally(n_items, eta, marks))
            for mask in range(1 << n_items):
                marks = [j for j in range(1, n_items + 1) if mask >> (j - 1) & 1]
                both = (n_items, eta) == BOTH_TIE_BREAKS
                for tie_break in TIE_BREAKS if both else (TIE_BREAKS[(mask + eta) % 2],):
                    ops.append(Search(n_items, eta, marks, tie_break,
                                      derived_seed(seed, n_items, eta, mask, len(tie_break)), pool))
    item = derived_seed(seed, 0) % 8 + 1
    ops += [
        CliDocument("simulate-4", ["simulate", "--n", "4", "--eta", "3", "--marks", str(item % 4 + 1),
                                   "--seed", str(seed)], expect_simulate(4, 3, [item % 4 + 1], "lowest_index")),
        CliDocument("simulate-8", ["simulate", "--n", "8", "--eta", "2", "--marks", f"{item},{9 - item}",
                                   "--seed", str(seed), "--tie-break", "random"],
                    expect_simulate(8, 2, [item, 9 - item], "random")),
        CliDocument("analytic-8", ["analytic", "--n", "8", "--t", "2", "--eta", "18"],
                    expect_analytic(8, 18, 2, "lowest_index")),
        CliDocument("analytic-16", ["analytic", "--n", "16", "--t", "1", "--eta", "32", "--tie-break", "random"],
                    expect_analytic(16, 32, 1, "random")),
        CliDocument("gates-4", ["gates", "--n", "4", "--eta", "3", "--marks", "2"], expect_gates(4, 3, 1, "pass")),
        CliDocument("gates-64", ["gates", "--n", "64", "--t", "1", "--cost-model", "naive"],
                    expect_gates(64, schedule(64, 1.0), 1, "skipped_capacity")),
    ]
    warmup = [
        Search(2, 2, [1], "lowest_index", 0),
        Identity(2, 1, [1]),
        Tally(2, 1, [1]),
        CliDocument("warmup", ["gates", "--n", "2", "--eta", "1", "--marks", "1"], lambda doc: None),
    ]
    return ops, warmup, pool


def sim_cap(seed: int):
    """One search at the default 24-qubit cap: N=8, eta=5, one marked item."""
    item = derived_seed(seed, 0) % 8 + 1
    ops = [Search(8, 5, [item], "lowest_index", derived_seed(seed, 8, 5))]
    warmup = [Search(8, 2, [item], "lowest_index", 0)]
    return ops, warmup, None


CURVE_CONSTANTS = {2: (1 / 8, 1 / 4, 1 / 2, 1), 4: (1 / 8, 1 / 4, 1 / 2, 1), 8: (1 / 8, 1 / 4, 1 / 2),
                   16: (1 / 8, 1 / 4)}
CURVE_MARKED = {2: (1,), 4: (1, 2), 8: (1, 2, 3, 4), 16: (1, 2, 4)}
# Marked sets drawn per (N, t) for lowest_index, whose value depends on
# where the marks sit; random ties do not (marked items are
# exchangeable), so they take the first draw only.  The 16 eta=18 points
# at N=8 then hold the median operation.
LOWEST_INDEX_DRAWS = {8: 3}
MC_ITEMS = 1024
MC_ETAS = (192, 384, 768, 1280)
MC_TRIALS = 300


def success_curve(seed: int):
    """Exact points along ceil(c N log2(N)^2), Monte Carlo at N=1024, the paper's N=8 point."""
    ops = []
    for n_items, constants in CURVE_CONSTANTS.items():
        for t in CURVE_MARKED[n_items]:
            rng = np.random.default_rng(derived_seed(seed, n_items, t))
            draws = [sorted(int(j) + 1 for j in rng.choice(n_items, size=t, replace=False))
                     for _ in range(LOWEST_INDEX_DRAWS.get(n_items, 1))]
            for c in constants:
                eta = schedule(n_items, c)
                ops += [Exact(n_items, eta, marks, "lowest_index") for marks in draws]
                ops.append(Exact(n_items, eta, draws[0], "random"))
    # The paper's own schedule at N=8 (c=1, eta=72): both tie-breaks, as `--t 1`.
    for tie_break in TIE_BREAKS:
        ops.append(Exact(8, schedule(8, 1.0), [1], tie_break))
    item = derived_seed(seed, MC_ITEMS) % MC_ITEMS + 1
    for eta in MC_ETAS:
        for tie_break in TIE_BREAKS:
            ops.append(MonteCarlo(MC_ITEMS, eta, [item], tie_break, MC_TRIALS,
                                  derived_seed(seed, eta, len(tie_break)), derived_seed(seed, eta)))
    warmup = [Exact(4, 2, [1], "lowest_index"), Exact(4, 2, [1], "random"),
              MonteCarlo(MC_ITEMS, MC_ETAS[0], [1], "lowest_index", 5, 0, 0)]
    return ops, warmup, None


WORKLOADS = {"sim_grid": sim_grid, "sim_cap": sim_cap, "success_curve": success_curve}


# --------------------------------------------------------------------------
# The timed loop


class Pass:
    """Timings and verdicts of one pass over the operation list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed: dict[int, tuple[str, str]] = {}
        self.wrong = 0
        self.wall = 0.0

    @property
    def program_time(self) -> float:
        return sum(self.latencies)


def run_pass(ops, tracer: Tracer | None, first_op: int, pool: SamplePool | None) -> Pass:
    record = Pass()
    if pool is not None:
        pool.hits.clear()
    start = time.monotonic()
    for index, op in enumerate(ops):
        clock = Clock()
        if tracer is not None:
            tracer.op = first_op + index
        try:
            out = op.run(clock)
        except Exception as exc:  # a raising operation fails; the run goes on
            record.latencies.append(clock.spent)
            message = str(exc).splitlines()[0][:120] if str(exc) else ""
            record.failed[index] = (op.kind, f"{type(exc).__qualname__}: {message}")
            continue
        record.latencies.append(clock.spent)
        error = op.check(out)
        del out
        if error:
            record.wrong += 1
            record.failed[index] = (op.kind, "wrong output: " + error)
    error = pool.verdict() if pool is not None else None
    if error:
        # The pooled sample test speaks for every search of the pass.
        for index, op in enumerate(ops):
            if op.kind == "search" and index not in record.failed:
                record.wrong += 1
                record.failed[index] = (op.kind, "wrong output: " + error)
    record.wall = time.monotonic() - start
    return record


def max_state_mib(ops) -> float:
    qubits = [op.layout.total_qubits for op in ops if isinstance(op, Search)]
    return 16 * 2.0 ** max(qubits) / 2**20 if qubits else 0.0


def machine_facts() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]
    blas = {k: config[k].get("name") for k in ("blas", "lapack")}
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "cpus": os.cpu_count(),
            "blas": blas, "thread_env": threads or "defaults"}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    ops, warmup, pool = WORKLOADS[args.workload](args.seed)
    for op in warmup:
        op.run(Clock())
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer(ps) if args.trace else None
    passes: list[tuple[bool, Pass]] = []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        record = run_pass(ops, tracer if traced else None, len(passes) * len(ops), pool)
        if traced:
            tracer.uninstall()
        passes.append((traced, record))
        # Whole passes only; in a traced run whole (untraced, traced) pairs.
        step = 2 if tracer is not None else 1
        if len(passes) % step == 0:
            last = sum(r.wall for _, r in passes[-step:])
            if time.monotonic() - start + last > args.seconds:
                break

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [r for traced, r in passes if not traced]
    failures = Counter(f for _, r in passes for f in r.failed.values())
    result = {
        "workload": args.workload,
        "passes": len(passes),
        "pass_times": [{"traced": traced, "program_s": r.program_time, "wall_s": r.wall} for traced, r in passes],
        "operations_per_pass": len(ops),
        "attempted": len(ops) * len(passes),
        "failed": sum(len(r.failed) for _, r in passes),
        "wrong": sum(r.wrong for _, r in passes),
        "failures": [{"kind": k, "error": e, "count": c} for (k, e), c in sorted(failures.items())],
        "setup_s": setup_s,
        "machine": machine_facts(),
    }
    # Each operation's latency is its mean over the passes; op_p50_ms is
    # the median of those.  Pooling raw latencies would let the machine's
    # fast and slow phases blur neighbouring cost classes, and a median
    # over a few passes jumps between the two phases' values.
    latencies = np.array([r.latencies for r in plain])
    result["end_to_end"] = {
        "pass_s": float(np.median([r.program_time for r in plain])),
        "op_p50_ms": 1e3 * float(np.median(latencies.mean(axis=0))),
        "peak_rss_mb": peak_rss_mib,
    }
    result["op_samples"] = latencies.size
    if tracer is not None:
        traced_passes = [(i, r) for i, (traced, r) in enumerate(passes) if traced]
        per_pass = [layer_metrics(tracer, range(i * len(ops), (i + 1) * len(ops))) for i, _ in traced_passes]
        layers = {name: float(np.median([m[name] for m in per_pass])) for name in per_pass[0]}
        state_mib = max_state_mib(ops)
        layers["statevector.rss_over_state"] = peak_rss_mib / state_mib if state_mib else 0.0
        layers["bench.trace_overhead_s"] = float(
            np.median([r.program_time for _, r in traced_passes]) - np.median([r.program_time for r in plain])
        )
        result["per_layer"] = layers
        tracer.write(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
