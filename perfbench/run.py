"""The paritysearch benchmark.

    python3 perfbench/run.py --workload sim_grid|sim_cap|success_curve|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the package under `src/` next to this
directory and nothing installed.  Each workload runs in fresh child
processes (perfbench/workload.py), one after another: SETUPS_AROUND that
stop before the first timed operation, then one that runs the timed
passes, then SETUPS_AROUND more set-ups.  The set-up time is the median
over all of them, the run included, so it samples the machine on both
sides of the timed passes.  Metric names and units come from
BENCHMARK.json.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all`
runs the three workloads in turn, prints each result on a line of its
own, and ends with one object keyed by workload.  Earlier lines
carry the details: machine facts, pass and sample counts, and every
distinct failure.  Results and spans are also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_AROUND = 4
# A run may overrun --seconds by one pass: at most a traced pair of
# sim_cap passes, about 65 s on the reference machine.
LONGEST_PASS_S = 120

WORKLOADS = ("sim_grid", "sim_cap", "success_curve")


def units(group: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[group]}


def child(workload: str, args, mode: str) -> dict:
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + LONGEST_PASS_S)
    except subprocess.TimeoutExpired as exc:
        sys.exit(f"workload {workload} ({mode}) timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        sys.exit(f"workload {workload} ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, args) -> dict:
    """Run one workload; print its details line; return its result object."""
    setups = 0 if args.trace else SETUPS_AROUND
    before = [child(workload, args, "setup")["setup_s"] for _ in range(setups)]
    result = child(workload, args, "run")
    after = [child(workload, args, "setup")["setup_s"] for _ in range(setups)]
    setup_samples = [*before, result["setup_s"], *after]

    if args.trace:
        values = result["per_layer"]
        wanted = units("per_layer")
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup_samples))
        wanted = units("end_to_end")
    missing = sorted(set(wanted) - set(values))
    if missing:
        sys.exit(f"workload {workload} reported no {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}

    details = {k: result[k] for k in ("workload", "passes", "operations_per_pass", "pass_times",
                                       "failures", "machine")}
    details["op_p50_ms_samples"] = result["op_samples"]
    details["setup_samples"] = setup_samples
    print("details " + json.dumps(details))
    out = ROOT / ".perfbench" / f"result-{workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(dict(result, setup_samples=setup_samples), indent=1) + "\n")
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "paritysearch" / "__init__.py").is_file():
        sys.exit(f"no paritysearch sources under {ROOT / 'src'}")

    if args.workload != "all":
        print(json.dumps(measure(args.workload, args)))
        return
    results = {}
    for workload in WORKLOADS:
        results[workload] = measure(workload, args)
        print(f"{workload} " + json.dumps(results[workload]))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
