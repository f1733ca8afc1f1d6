"""CLI subcommands: documents, formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysearch import complexity as cx
from paritysearch import statevector as sv
from paritysearch.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output + result.stderr
    return json.loads(result.output)


class TestSimulate:
    def test_certain_winner(self, runner):
        doc = invoke_json(runner, ["simulate", "--n", "4", "--marks", "3", "--eta", "3", "--seed", "1"])
        assert doc["result"]["winner"] == 3
        assert doc["result"]["winner_satisfies"] == 1
        assert doc["result"]["samples"] == [3, 3, 3]
        assert doc["params"]["total_qubits"] == 11

    def test_capacity_error_exit_code_and_message(self, runner):
        result = runner.invoke(main, ["simulate", "--n", "32", "--eta", "4"])
        assert result.exit_code == 3
        assert "53" in result.stderr

    def test_capture_peaks_near_the_seven_states_it_checks(self, runner):
        # The capacity check admits a capture by its seven states, so the
        # command must not need an eighth: at 17 qubits (N=4, eta=6) it
        # peaks at about 7.1 states.  A first small run loads what numpy
        # imports lazily, which no state size accounts for.
        invoke_json(runner, ["simulate", "--n", "2", "--eta", "1", "--seed", "0", "--capture"])
        tracemalloc.start()
        try:
            invoke_json(runner, ["simulate", "--n", "4", "--marks", "1", "--eta", "6",
                                 "--seed", "0", "--capture"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * (16 << 17)

    def test_nothing_marked(self, runner):
        doc = invoke_json(runner, ["simulate", "--n", "2", "--marks", "", "--eta", "5", "--seed", "9"])
        assert doc["result"]["winner_satisfies"] == 0

    def test_capture_checks(self, runner):
        doc = invoke_json(
            runner,
            ["simulate", "--n", "4", "--marks", "2", "--eta", "2", "--seed", "0", "--capture"],
        )
        assert doc["checks"]["incidence_all_zero_probability"] >= 1 - 1e-10
        assert doc["checks"]["sample_state_fidelity"] >= 1 - 1e-10

    def test_no_capture_no_checks(self, runner):
        doc = invoke_json(runner, ["simulate", "--n", "2", "--marks", "1", "--eta", "1", "--seed", "0"])
        assert doc["checks"] == {}

    def test_mask_predicate(self, runner):
        doc = invoke_json(runner, ["simulate", "--n", "4", "--mask", "0x4", "--eta", "2", "--seed", "3"])
        assert doc["params"]["marks"] == [3]

    def test_marks_and_mask_conflict(self, runner):
        result = runner.invoke(main, ["simulate", "--n", "4", "--marks", "1", "--mask", "0x1", "--eta", "1"])
        assert result.exit_code == 2

    def test_eta_and_schedule_conflict(self, runner):
        result = runner.invoke(
            main, ["simulate", "--n", "2", "--eta", "1", "--schedule-c", "1.0", "--marks", "1"]
        )
        assert result.exit_code == 2

    def test_bad_marks_exit_code(self, runner):
        result = runner.invoke(main, ["simulate", "--n", "4", "--marks", "9", "--eta", "1"])
        assert result.exit_code == 2


class TestAnalytic:
    def test_certain_case(self, runner):
        doc = invoke_json(runner, ["analytic", "--n", "4", "--t", "1", "--eta", "1"])
        assert doc["result"]["success_probability_exact"] == 1.0
        assert doc["result"]["marked_amplitude"] == 1.0

    def test_strong_signal_estimate(self, runner):
        doc = invoke_json(
            runner,
            ["analytic", "--n", "16", "--t", "1", "--eta", "64", "--trials", "10000", "--seed", "5"],
        )
        assert doc["result"]["success_probability_estimate"] >= 0.99
        assert doc["result"]["success_probability_exact"] >= 0.99

    def test_failure_bound_when_every_trial_succeeds(self, runner):
        doc = invoke_json(
            runner, ["analytic", "--n", "4", "--t", "1", "--eta", "3", "--trials", "100", "--seed", "0"]
        )
        result = doc["result"]
        assert result["success_probability_estimate"] == 1.0
        assert result["success_probability_std_error"] == 0.0
        assert result["failure_probability_upper_95"] == pytest.approx(1 - 0.05 ** (1 / 100), rel=1e-14)
        # The one-sided Clopper-Pearson bound at zero failures: (1 - bound)**trials = 0.05.
        assert (1 - result["failure_probability_upper_95"]) ** 100 == pytest.approx(0.05, rel=1e-12)

    def test_no_failure_bound_when_a_trial_fails(self, runner):
        for args in (["--n", "16", "--t", "1", "--eta", "8", "--trials", "2000", "--seed", "21"],
                     ["--n", "8", "--t", "4", "--eta", "5", "--trials", "300", "--seed", "2"],
                     ["--n", "16", "--t", "1", "--eta", "64"]):
            doc = invoke_json(runner, ["analytic", *args])
            assert "failure_probability_upper_95" not in doc["result"]

    def test_nothing_marked(self, runner):
        doc = invoke_json(runner, ["analytic", "--n", "2", "--t", "0", "--eta", "3"])
        assert doc["result"]["success_probability_exact"] == 0.0

    def test_capacity_without_trials_is_instructive(self, runner):
        result = runner.invoke(main, ["analytic", "--n", "1024", "--t", "1", "--schedule-c", "1"])
        assert result.exit_code == 3
        assert "--trials" in result.stderr

    def test_capacity_with_trials_estimates(self, runner):
        doc = invoke_json(
            runner,
            ["analytic", "--n", "64", "--t", "1", "--eta", "4096", "--trials", "50", "--seed", "1"],
        )
        assert "success_probability_exact" not in doc["result"]
        assert doc["result"]["success_probability_estimate"] >= 0.9

    def test_scheduled_sample_count(self, runner):
        doc = invoke_json(runner, ["analytic", "--n", "4", "--t", "1", "--schedule-c", "0.5"])
        assert doc["result"]["n_samples"] == 8
        assert doc["params"]["schedule_constant"] == 0.5

    def test_t_and_marks_conflict(self, runner):
        result = runner.invoke(main, ["analytic", "--n", "4", "--t", "1", "--marks", "2", "--eta", "1"])
        assert result.exit_code == 2

    def test_paper_schedule_past_64_bit_binomials(self, runner):
        # c=1 at N=8 gives eta=72, where C(72, 36) outgrows 64-bit integers.
        for tie in ("lowest", "random"):
            doc = invoke_json(
                runner,
                ["analytic", "--n", "8", "--t", "1", "--schedule-c", "1", "--tie-break", tie],
            )
            assert doc["result"]["n_samples"] == 72
            assert 0.99 < doc["result"]["success_probability_exact"] <= 1.0


class TestGates:
    def test_smallest_instance_cross_check(self, runner):
        doc = invoke_json(runner, ["gates", "--n", "2", "--eta", "2", "--marks", "1"])
        assert doc["result"]["tally"]["multi_controlled_flips"] == 9
        assert doc["result"]["tally"]["hadamards"] == 7
        assert doc["checks"]["gate_list_cross_check"] == "pass"

    def test_cross_check_passes_with_nothing_marked(self, runner):
        # Step 4 is predicted at zero flips and has no record in the gate list.
        doc = invoke_json(runner, ["gates", "--n", "4", "--eta", "3", "--t", "0"])
        assert doc["result"]["tally"]["by_step"]["step4"] == {"value_controlled_flip": 0}
        assert doc["checks"]["gate_list_cross_check"] == "pass"

    def test_cross_check_compares_the_whole_tally(self, runner, monkeypatch):
        enumerate_records = cx.tally_of_records
        monkeypatch.setattr(cx, "tally_of_records", lambda *args: replace(
            enumerate_records(*args), elementary_total=-1))
        doc = invoke_json(runner, ["gates", "--n", "4", "--eta", "2", "--t", "1"])
        assert doc["checks"]["gate_list_cross_check"] == "fail"

    def test_query_comparison_block(self, runner):
        doc = invoke_json(runner, ["gates", "--n", "64", "--t", "1"])
        assert doc["result"]["query_comparison"]["single_item_queries"] == 8
        assert doc["result"]["query_comparison"]["subset_parity_queries"] == 1
        assert doc["checks"]["gate_list_cross_check"] == "skipped_capacity"

    def test_no_marks_no_comparison(self, runner):
        doc = invoke_json(runner, ["gates", "--n", "4", "--eta", "1"])
        assert "query_comparison" not in doc["result"]

    def test_large_schedule_asymptotics(self, runner):
        doc = invoke_json(runner, ["gates", "--n", "1024", "--schedule-c", "1"])
        assert doc["result"]["asymptotic"]["n_samples"] == 102400
        assert doc["result"]["asymptotic"]["sample_register_qubits"] == 1024000

    def test_cost_model_choice(self, runner):
        paper = invoke_json(runner, ["gates", "--n", "4", "--eta", "2", "--t", "1"])
        naive = invoke_json(
            runner, ["gates", "--n", "4", "--eta", "2", "--t", "1", "--cost-model", "naive"]
        )
        assert naive["result"]["tally"]["elementary_total"] > paper["result"]["tally"]["elementary_total"]
        assert naive["params"]["cost_model"] == "naive_decoder"


class TestOutputContracts:
    def test_byte_identical_reruns(self, runner):
        for args in (
            ["simulate", "--n", "4", "--marks", "2,3", "--eta", "3", "--seed", "7", "--capture"],
            ["analytic", "--n", "8", "--t", "2", "--eta", "5", "--trials", "300", "--seed", "2"],
            ["gates", "--n", "4", "--eta", "2", "--t", "1"],
        ):
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.exit_code == second.exit_code == 0
            assert first.output == second.output
            assert len(first.output) > 0

    def test_float_rendering_is_seventeen_digits(self, runner):
        doc_text = runner.invoke(
            main, ["analytic", "--n", "8", "--t", "1", "--eta", "1"]
        ).output
        amp = (3 - 4 * 1 / 8) / math.sqrt(8)
        assert f'"marked_amplitude": {format(amp, ".17g")}' in doc_text
        parsed = json.loads(doc_text)
        assert parsed["result"]["marked_amplitude"] == amp  # round-trips exactly
        assert parsed["result"]["success_probability_exact"] == pytest.approx(0.78125, abs=1e-12)
        # floats keep a decimal point even when integral
        certain = runner.invoke(main, ["analytic", "--n", "4", "--t", "1", "--eta", "1"]).output
        assert '"marked_amplitude": 1.0' in certain
        assert '"unmarked_amplitude": 0.0' in certain

    def test_csv_flattens_result_only(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--n", "4", "--marks", "3", "--eta", "3", "--seed", "1",
             "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert len(rows) == 2
        header, values = rows
        assert "winner" in header
        assert "samples" in header
        assert "frequencies.3" in header
        assert values[header.index("winner")] == "3"
        assert values[header.index("samples")] == "3;3;3"
        assert all(not h.startswith("params") for h in header)

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "doc.json"
        result = runner.invoke(
            main,
            ["gates", "--n", "2", "--eta", "1", "--marks", "1", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert json.loads(target.read_text())["checks"]["gate_list_cross_check"] == "pass"

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 4, "marks": "3", "eta": 3, "seed": 1}))
        from_config = invoke_json(runner, ["simulate", "--config", str(config)])
        assert from_config["params"]["n_samples"] == 3
        assert from_config["result"]["winner"] == 3
        overridden = invoke_json(
            runner, ["simulate", "--config", str(config), "--eta", "1"]
        )
        assert overridden["params"]["n_samples"] == 1

    def test_config_file_must_be_object(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("[1, 2]")
        result = runner.invoke(main, ["simulate", "--n", "2", "--eta", "1", "--config", str(config)])
        assert result.exit_code == 2

    def test_config_keys_use_flag_spelling(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"n": 4, "t": 1, "schedule-c": 0.5, "format": "csv"}
        ))
        result = runner.invoke(main, ["analytic", "--config", str(config)])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[1][rows[0].index("n_samples")] == "8"

    def test_negative_seed_is_domain_error(self, runner):
        result = runner.invoke(
            main, ["simulate", "--n", "2", "--marks", "1", "--eta", "1", "--seed", "-3"]
        )
        assert result.exit_code == 2

    def test_qubit_cap_env_override(self, runner, monkeypatch):
        args = ["simulate", "--n", "4", "--marks", "1", "--eta", "3", "--seed", "0"]  # 11 qubits
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", "10")
        assert runner.invoke(main, args).exit_code == 3
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", "11")
        assert runner.invoke(main, args).exit_code == 0

    def test_state_past_physical_memory_exits_3(self, runner, monkeypatch):
        # 38 qubits (4 TiB) pass a raised qubit cap but not the memory check.
        monkeypatch.setenv("PARITYSEARCH_QUBIT_CAP", "40")
        result = runner.invoke(main, ["simulate", "--n", "32", "--eta", "1", "--marks", "1"])
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert "38 qubits" in result.stderr and "physical memory" in result.stderr


def _flag(name, values):
    """An optional flag: absent, or given with one of the values."""
    return st.one_of(st.none(), values).map(lambda v: [] if v is None else [name, str(v)])


_PREDICATES = {
    "--marks": st.sampled_from(["", "1", "2", "1,2", "2,3", "16", "0", "x", "2,2"]),
    "--mask": st.sampled_from(["0x1", "0x2", "0x3", "0x6", "0x0", "zz", "0x10000"]),
    "--t": st.integers(-1, 17),
}
_OPTIONS = {
    "simulate": [
        _flag("--seed", st.integers(-1, 2**32)),
        _flag("--tie-break", st.sampled_from(["lowest", "random"])),
        st.sampled_from([[], ["--capture"]]),
    ],
    "analytic": [
        _flag("--seed", st.integers(-1, 2**32)),
        _flag("--trials", st.integers(-1, 200)),
        _flag("--tie-break", st.sampled_from(["lowest", "random"])),
    ],
    "gates": [_flag("--cost-model", st.sampled_from(["paper", "naive"]))],
}


@st.composite
def _command_lines(draw):
    """Command lines that mostly make sense, with invalid values and
    conflicting flags mixed in."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    args = [command]
    n = draw(st.sampled_from([2, 4, 8, 16] * 3 + [None, -2, 0, 1, 3]))
    if n is not None:
        args += ["--n", str(n)]
    # Exactly one of --eta and --schedule-c keeps eta <= 80: at N <= 16
    # these constants schedule at most 77 samples.
    count = draw(st.sampled_from(["--eta"] * 3 + ["--schedule-c"] * 2 + ["both"]))
    if count != "--schedule-c":
        eta = st.one_of(st.integers(1, 6), st.integers(1, 80), st.sampled_from([-1, 0]))
        args += ["--eta", str(draw(eta))]
    if count != "--eta":
        args += ["--schedule-c", str(draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])))]
    names = sorted(_PREDICATES) if command != "simulate" else ["--marks", "--mask"]
    chosen = draw(st.sampled_from([[]] + [[name] for name in names] * 3 + [names[:2]]))
    for name in chosen:
        args += [name, str(draw(_PREDICATES[name]))]
    for flag in _OPTIONS[command] + [_flag("--format", st.sampled_from(["json", "csv"]))]:
        args += draw(flag)
    return args


class TestExitContract:
    @settings(deadline=None, max_examples=50)
    @given(args=_command_lines())
    def test_every_flag_combination_exits_0_2_or_3(self, args):
        # The qubit cap of 16 refuses larger circuits before they allocate.
        result = CliRunner().invoke(main, args, env={"PARITYSEARCH_QUBIT_CAP": "16"})
        assert result.exit_code in (0, 2, 3), (args, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output + result.stderr

    @staticmethod
    def one_line_exit(result, code):
        assert result.exit_code == code, result.output + result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")

    @pytest.mark.parametrize("constant", ["nan", "inf", "-inf"])
    def test_schedule_constant_must_be_finite(self, runner, constant):
        result = runner.invoke(main, ["analytic", "--n", "8", "--t", "1", "--schedule-c", constant])
        self.one_line_exit(result, 2)
        assert "finite" in result.stderr

    @pytest.mark.parametrize("config, flag", [
        ({"n": "abc"}, "--n"),
        ({"n": 8, "t": 1, "trials": "x"}, "--trials"),
        ({"n": 8, "t": 1, "eta": 2.5}, "--eta"),
        ({"n": 8, "t": 1, "eta": 2, "format": "xml"}, "--format"),
    ], ids=["n-text", "trials-text", "eta-float", "format-choice"])
    def test_config_values_take_their_option_types(self, runner, tmp_path, config, flag):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["analytic", "--config", str(path)])
        self.one_line_exit(result, 2)
        assert f"config value for {flag}:" in result.stderr

    def test_config_value_reads_as_its_flag_would(self, runner, tmp_path):
        # {"marks": 1} is --marks 1, as --schedule-c 1 is a float.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": 8, "eta": 2, "marks": 1, "seed": 0}))
        from_config = invoke_json(runner, ["simulate", "--config", str(path)])
        assert from_config == invoke_json(
            runner, ["simulate", "--n", "8", "--eta", "2", "--marks", "1", "--seed", "0"]
        )

    @pytest.mark.parametrize("count", [["--schedule-c", "1e300"], ["--eta", str(2**63)]])
    def test_monte_carlo_sample_count_past_int64(self, runner, count):
        result = runner.invoke(main, ["analytic", "--n", "8", "--t", "1", *count, "--trials", "5"])
        self.one_line_exit(result, 2)
        assert "2**63 - 1" in result.stderr

    def test_huge_schedule_refuses_the_state(self, runner):
        # About 2e302 qubits: the cap refuses them before any size in bytes
        # is computed from the count.
        result = runner.invoke(main, ["simulate", "--n", "8", "--marks", "1", "--schedule-c", "1e300"])
        self.one_line_exit(result, 3)
        assert "above the cap of 24" in result.stderr

    # Counts of about 300 digits (samples, qubits, cell updates) are
    # stated as 2**x, so each refusal stays a short line.
    @pytest.mark.parametrize("args, code", [
        (["simulate", "--n", "8", "--marks", "1", "--schedule-c", "1e300"], 3),
        (["analytic", "--n", "8", "--t", "1", "--schedule-c", "1e300", "--trials", "5"], 2),
        (["analytic", "--n", "8", "--t", "1", "--schedule-c", "1e300"], 3),
    ])
    def test_huge_counts_are_stated_compactly(self, runner, args, code):
        result = runner.invoke(main, args)
        self.one_line_exit(result, code)
        assert len(result.stderr.encode()) < 200

    @staticmethod
    def cli_in_3_gib(*args, qubit_cap=None):
        # Under a 3 GiB address space an allocation that should have been
        # refused fails at once instead of exhausting the machine.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        if qubit_cap is not None:
            env["PARITYSEARCH_QUBIT_CAP"] = str(qubit_cap)
        limit = 3 << 30
        return subprocess.run(
            [sys.executable, "-m", "paritysearch.cli", *args],
            capture_output=True, text=True, env=env, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

    @classmethod
    def refused_in_3_gib(cls, *args, qubit_cap=None):
        proc = cls.cli_in_3_gib(*args, qubit_cap=qubit_cap)
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        return proc.stderr

    def test_monte_carlo_past_physical_memory(self):
        # N = 2**40: the exact engine meets its work cap, and each Monte
        # Carlo chunk row would hold 2**40 entries.  Both are refused
        # before any N-sized array exists, so at once.
        exact = self.refused_in_3_gib("analytic", "--n", str(2**40), "--t", "1")
        assert "pass --trials" in exact
        assert "physical memory" in self.refused_in_3_gib(
            "analytic", "--n", str(2**40), "--t", "1", "--trials", "2")

    @pytest.mark.parametrize("args", [
        ["analytic", "--n", str(2**1100), "--t", "1", "--eta", "2"],
        ["gates", "--n", str(2**1100), "--t", "1", "--eta", "1"],
        ["gates", "--n", "4", "--schedule-c", "1e306", "--t", "1"],
        ["gates", "--n", str(2**1000), "--schedule-c", "1"],
        ["gates", "--n", str(2**1000), "--t", "1", "--eta", "1"],
        ["analytic", "--n", str(2**1020), "--t", "1", "--schedule-c", "1", "--trials", "2"],
    ], ids=["analytic-n", "gates-n", "gates-c", "gates-n-c", "gates-n-asymptotic", "analytic-n-c"])
    def test_no_float_overflows(self, runner, args):
        # N past 2**1023, c*N*log2(N)^2 or eta*log2(eta) past the largest
        # float: each is refused where the float would be formed.
        self.one_line_exit(runner.invoke(main, args), 2)

    @pytest.mark.parametrize("eta, size", [("1000", "2**2009 B"), ("400", "2**809 B")])
    def test_raised_cap_prices_a_state_of_any_size(self, eta, size):
        stderr = self.refused_in_3_gib("simulate", "--n", "4", "--eta", eta, "--marks", "1",
                                       qubit_cap=5000)
        assert f": {size}, more than the" in stderr

    def test_raised_cap_builds_no_size_past_memory(self):
        # About 2e32 qubits under a cap of 10**35: 2**(2e32) is never built.
        stderr = self.refused_in_3_gib("simulate", "--n", "8", "--marks", "1",
                                       "--schedule-c", "1e30", qubit_cap=10**35)
        assert "2**2.16e+32 B, more than the" in stderr

    def test_gate_list_is_priced_before_it_is_built(self):
        # 268,500,993 qubits pass a cap of 10**9, but the list's 2.2e12
        # records (350 TB) fit no machine: the cross-check is skipped, at once.
        proc = self.cli_in_3_gib("gates", "--n", "65536", "--schedule-c", "1", "--t", "1",
                                 qubit_cap=10**9)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["checks"]["gate_list_cross_check"] == "skipped_capacity"

    def test_gate_list_is_priced_against_the_machine(self, runner, monkeypatch):
        # 48 records, priced at 7.5 KiB, fit any machine but not one of 1 KiB.
        args = ["gates", "--n", "4", "--eta", "3", "--marks", "2"]
        assert invoke_json(runner, args)["checks"]["gate_list_cross_check"] == "pass"
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 1 << 10)
        assert invoke_json(runner, args)["checks"]["gate_list_cross_check"] == "skipped_capacity"

    def test_mask_reads_only_its_own_bits(self):
        # A bitmask on N = 2**40 is read bit by bit up to its highest set
        # bit, not item by item, so it is refused as fast as --marks.
        src = str(Path(__file__).resolve().parent.parent / "src")
        lines = []
        for predicate in (["--mask", "0x1"], ["--marks", "1"]):
            proc = subprocess.run(
                [sys.executable, "-m", "paritysearch.cli", "analytic", "--n", str(2**40),
                 *predicate, "--trials", "2"],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=10)
            assert proc.returncode == 3, proc.stderr
            lines.append(proc.stderr)
        assert lines[0] == lines[1]
        assert len(lines[0].splitlines()) == 1

    @pytest.mark.parametrize("trials", [[], ["--trials", "2"]], ids=["exact", "monte-carlo"])
    def test_t_is_priced_before_its_marks_are_built(self, trials):
        # 2**33 marks would take hundreds of GiB.
        assert "marked set" in self.refused_in_3_gib("analytic", "--n", str(2**34), "--t", str(2**33), *trials)

    def test_marked_set_is_priced_against_the_machine(self, runner, monkeypatch):
        # 512 marks, priced at 48 KiB, fit any machine but not one of 16 KiB.
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 16 << 10)
        result = runner.invoke(main, ["analytic", "--n", "1024", "--t", "512"])
        self.one_line_exit(result, 3)
        assert "marked set" in result.stderr

    def test_cli_import_makes_no_worker(self):
        # Setting up the CLI imports no thread pool.
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, paritysearch.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_monte_carlo_memory_check_uses_the_machine(self, runner, monkeypatch):
        # 1024 items fit any machine but not one of 16 KiB.
        args = ["analytic", "--n", "1024", "--t", "1", "--eta", "64", "--trials", "2"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(sv, "physical_memory_bytes", lambda: 16 << 10)
        self.one_line_exit(runner.invoke(main, args), 3)
