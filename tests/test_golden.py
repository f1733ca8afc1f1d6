"""Default CLI documents against bytes stored in tests/golden/.

The stored documents were made by earlier code.  A change that alters
any of them changes the documented byte contract and must say why.
Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from paritysearch.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "simulate_n4_random.json": ["simulate", "--n", "4", "--marks", "2,4", "--eta", "3",
                                "--seed", "5", "--tie-break", "random"],
    "simulate_n8_eta2_random.json": ["simulate", "--n", "8", "--marks", "1,2,8", "--eta", "2",
                                     "--seed", "4", "--tie-break", "random"],
    "simulate_n8_eta3.json": ["simulate", "--n", "8", "--marks", "3", "--eta", "3", "--seed", "7"],
    "simulate_n2_eta6.csv": ["simulate", "--n", "2", "--mask", "0x1", "--eta", "6", "--seed", "2",
                             "--format", "csv"],
    "simulate_n4_eta6.json": ["simulate", "--n", "4", "--eta", "6", "--marks", "1,4",
                              "--seed", "3"],
    "simulate_n4_capture.json": ["simulate", "--n", "4", "--marks", "3", "--eta", "3",
                                 "--seed", "1", "--capture"],
    "analytic_n16_exact.json": ["analytic", "--n", "16", "--t", "1", "--eta", "64"],
    "analytic_n16_monte_carlo.json": ["analytic", "--n", "16", "--t", "1", "--eta", "8",
                                      "--trials", "2000", "--seed", "21"],
    "analytic_n4_schedule_random.csv": ["analytic", "--n", "4", "--t", "2", "--schedule-c", "1",
                                        "--tie-break", "random", "--seed", "3", "--format", "csv"],
    "gates_n2.json": ["gates", "--n", "2", "--eta", "2", "--marks", "1"],
    "gates_n64_naive.json": ["gates", "--n", "64", "--t", "1", "--cost-model", "naive"],
}


def document(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_match_golden(name):
    assert document(GOLDEN[name]) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    for name, args in GOLDEN.items():
        (GOLDEN_DIR / name).write_bytes(document(args))
