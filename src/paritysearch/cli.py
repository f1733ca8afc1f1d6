"""Command-line entry point emitting machine-readable result documents.

Every subcommand writes a single document with `params`, `result` and
`checks` sections, either as JSON (floats rendered with 17 significant
digits so identical configs give byte-identical output) or as CSV
(flattening the `result` section only).  Domain errors exit with status
2, capacity errors with status 3.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, replace
from functools import reduce
from pathlib import Path

import click
import numpy as np

from . import analytic as an
from . import circuit as ci
from . import complexity as cx
from . import statevector as sv
from .errors import CapacityError, DomainError
from .oracle import BooleanPredicate, SearchParameters

_TIE_BREAKS = {"lowest": "lowest_index", "random": "random"}
_BYTES_PER_MARK = 96  # a marked item's int and set slot, 64-90 B by tracemalloc


def _format_float(x: float) -> str:
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _json_text(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise DomainError(f"cannot serialize value of type {type(value).__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if value is None:
        return ""
    return str(value)


def _flatten(prefix: str, value, out: dict[str, str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = ";".join(_scalar_text(v) for v in value)
    else:
        out[prefix] = _scalar_text(value)


def _document_text(doc: dict, output_format: str) -> str:
    if output_format == "json":
        return _json_text(doc) + "\n"
    if output_format == "csv":
        flat: dict[str, str] = {}
        _flatten("", doc["result"], flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        return buf.getvalue()
    raise DomainError(f"unknown output format {output_format!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    return config


def _merge_config(ctx: click.Context, values: dict) -> dict:
    """Fill parameters from the config file; explicit flags win.  A value
    goes through its option's type as its JSON text, so the file admits
    what the command line does: {"eta": 2.5} fails as --eta 2.5 does."""
    raw = _load_config(values.get("config"))
    # Accept flag spellings: "schedule-c" and "schedule_c", "format" for
    # the output format, and so on.
    config = {}
    for key, value in raw.items():
        name = str(key).replace("-", "_")
        config["output_format" if name == "format" else name] = value
    merged = dict(values)
    for option in ctx.command.params:
        value = config.get(option.name)
        if option.name == "config" or value is None or (
            ctx.get_parameter_source(option.name) == click.core.ParameterSource.COMMANDLINE
        ):
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            merged[option.name] = option.type.convert(text, option, ctx)
        except click.BadParameter as exc:
            raise DomainError(f"config value for {option.opts[0]}: {exc.message}") from exc
    return merged


def _resolve_instance(values: dict) -> tuple[int, int, float | None, BooleanPredicate]:
    """N, the sample count, the schedule constant (None under --eta) and
    the predicate, as every document resolves them."""
    n, eta, schedule_c = values.get("n"), values["eta"], values["schedule_c"]
    if n is None:
        raise DomainError("--n is required (on the command line or in the config file)")
    if eta is not None and schedule_c is not None:
        raise DomainError("give either --eta or --schedule-c, not both")
    constant = None
    if eta is None:
        constant = 1.0 if schedule_c is None else schedule_c
        eta = an.scheduled_sample_count(n, constant)
    marks, mask, t = values["marks"], values["mask"], values.get("t")
    if sum(x is not None for x in (marks, mask, t)) > 1:
        raise DomainError("give at most one of --marks, --mask, --t")
    if t is None:
        return n, eta, constant, BooleanPredicate.from_text(n, marks, mask)
    if t < 0 or t > n:
        raise DomainError(f"marked count {t} outside 0..{n}")
    sv.check_memory(t * _BYTES_PER_MARK, f"the marked set of --t {t}")
    return n, eta, constant, BooleanPredicate.from_marks(n, range(1, t + 1))


def _resolve_seed(values: dict) -> int | None:
    seed = values.get("seed")
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


def _run(ctx: click.Context, values: dict, build_document) -> None:
    """Merge the config file into the flags, build the document and write
    it; a domain error exits 2 and a capacity error 3, each with one line."""
    try:
        merged = _merge_config(ctx, values)
        text = _document_text(build_document(merged), merged["output_format"])
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if merged["out"]:
        Path(merged["out"]).write_text(text)
    else:
        click.echo(text, nl=False)


def _document_options(eta_help: str, *own):
    """Decorate a subcommand with the options every document takes and
    its `own` options between them, in the order --help lists them."""
    options = [
        click.option("--n", type=int, default=None, help="Item count N (a power of two)."),
        click.option("--eta", type=int, default=None, help=eta_help),
        click.option("--schedule-c", type=float, default=None,
                     help="Derive the sample count as ceil(c * N * log2(N)^2)."),
        click.option("--marks", type=str, default=None, help="Comma-separated marked items."),
        click.option("--mask", type=str, default=None, help="Hex bitmask, bit j-1 marks item j."),
        *own,
        click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
                     default="json", show_default=True),
        click.option("--config", type=str, default=None, help="JSON file mirroring the flags."),
        click.option("--out", type=str, default=None,
                     help="Write the document here instead of stdout."),
        click.pass_context,
    ]
    return lambda command: reduce(lambda fn, option: option(fn), reversed(options), command)


@click.group()
def main():
    """Search a marked item with a single subset-parity query.

    Simulate the circuit, evaluate the closed-form success model, or
    tally gate costs.  The statevector qubit cap (default 24) can be
    overridden through the PARITYSEARCH_QUBIT_CAP environment variable.
    """


def _simulate_document(values: dict) -> dict:
    n, eta, constant, pred = _resolve_instance(values)
    tie_break = _TIE_BREAKS[values["tie_break"]]
    seed = _resolve_seed(values)
    params = SearchParameters(n, eta)

    run = ci.run_circuit(params, pred, capture=values["capture"])
    rng = np.random.default_rng(seed)
    samples = ci.measure_samples(run.final_state, params, rng)
    outcome = ci.majority_postprocess(samples, pred, tie_break=tie_break, rng=rng)

    checks: dict = {}
    if values["capture"]:
        after5 = run.intermediates["step5"]
        incidence = sv.marginal_distribution(after5, params.incidence_qubits())
        model = an.amplitudes(n, pred.marked_count)
        product = an.analytic_product_state(model, pred, eta)
        # The expected state is |minus>|0...0>|product>, zero off the
        # slice where the incidence register is 0: compare on that slice,
        # one ancilla value at a time, rather than build a whole state more.
        lower, upper = ci._live_rows(run.intermediates["step6"], params)
        overlap = np.vdot(lower, product.amplitudes) - np.vdot(upper, product.amplitudes)
        checks = {
            "incidence_all_zero_probability": float(incidence[0]),
            "sample_state_fidelity": abs(overlap) / math.sqrt(2.0),
        }

    doc_params = {
        "n_items": n,
        "item_bits": params.item_bits,
        "n_samples": eta,
        "marks": sorted(pred.marks),
        "marked_count": pred.marked_count,
        "seed": seed,
        "tie_break": tie_break,
        "total_qubits": params.total_qubits,
    }
    if constant is not None:
        doc_params["schedule_constant"] = constant
    return {
        "params": doc_params,
        "result": {
            "samples": list(outcome.samples.values),
            "frequencies": {str(k): v for k, v in sorted(outcome.frequencies.items())},
            "winner": outcome.winner,
            "winner_satisfies": outcome.winner_satisfies,
            "tie_detected": outcome.tie_detected,
        },
        "checks": checks,
    }


@main.command()
@_document_options(
    "Sample register count.",
    click.option("--seed", type=int, default=None, help="Measurement RNG seed."),
    click.option("--tie-break", type=click.Choice(["lowest", "random"]), default="lowest",
                 show_default=True),
    click.option("--capture", is_flag=True, default=False,
                 help="Snapshot intermediate states and emit consistency checks."),
)
def simulate(ctx, **values):
    """Run the full circuit, measure, and majority-vote."""
    _run(ctx, values, _simulate_document)


def _analytic_document(values: dict) -> dict:
    n, eta, constant, pred = _resolve_instance(values)
    tie_break = _TIE_BREAKS[values["tie_break"]]
    trials = values["trials"]
    seed = _resolve_seed(values)
    model = an.amplitudes(n, pred.marked_count)

    result: dict = {
        "marked_amplitude": model.marked_amp,
        "unmarked_amplitude": model.unmarked_amp,
        "marked_probability": model.p_marked,
        "unmarked_probability": model.p_unmarked,
        "n_samples": eta,
    }
    try:
        result["success_probability_exact"] = an.exact_success_probability(
            model, pred, eta, tie_break=tie_break
        )
        result["failure_probability_exact"] = an.exact_failure_probability(
            model, pred, eta, tie_break=tie_break
        )
    except CapacityError as exc:
        if trials is None:
            raise CapacityError(f"{exc} (pass --trials)") from exc
    if trials is not None:
        estimate = an.monte_carlo_success_probability(
            model, pred, eta, trials=trials, seed=seed, tie_break=tie_break
        )
        result["success_probability_estimate"] = estimate.estimate
        result["success_probability_std_error"] = estimate.std_error
        if estimate.estimate == 1.0:
            # No trial failed: the exact one-sided 95% Clopper-Pearson bound,
            # 1 - 0.05**(1/trials), about 3/trials.
            result["failure_probability_upper_95"] = -math.expm1(math.log(0.05) / trials)

    t = pred.marked_count
    residual = abs(t * model.p_marked + (n - t) * model.p_unmarked - 1.0)
    doc_params = {
        "n_items": n,
        "marked_count": t,
        "marks": sorted(pred.marks),
        "n_samples": eta,
        "tie_break": tie_break,
        "seed": seed,
        "trials": trials,
    }
    if constant is not None:
        doc_params["schedule_constant"] = constant
    return {
        "params": doc_params,
        "result": result,
        "checks": {"normalization_residual": residual},
    }


@main.command("analytic")
@_document_options(
    "Sample count.",
    click.option("--t", type=int, default=None, help="Shorthand: mark the first t items."),
    click.option("--seed", type=int, default=None, help="Monte Carlo RNG seed."),
    click.option("--trials", type=int, default=None, help="Monte Carlo trial count."),
    click.option("--tie-break", type=click.Choice(["lowest", "random"]), default="lowest",
                 show_default=True),
)
def analytic_cmd(ctx, **values):
    """Evaluate the closed-form amplitudes and success probability."""
    _run(ctx, values, _analytic_document)


def _gates_document(values: dict) -> dict:
    n, eta, constant, pred = _resolve_instance(values)
    model = cx.cost_model_by_name(values["cost_model"])
    params = SearchParameters(n, eta)

    tally = cx.predict_tally(params, pred, model)
    report = cx.asymptotic_report(n, constant if constant is not None else 1.0)

    result: dict = {"tally": asdict(tally), "asymptotic": asdict(report)}
    if pred.marked_count >= 1:
        result["query_comparison"] = asdict(cx.query_count_comparison(n, pred.marked_count))

    try:
        enumerated = cx.tally_of_records(ci.build_circuit(params, pred), params, model)
        # A count the prediction puts at zero has no record in the gate list.
        nonzero = {step: {kind: c for kind, c in counts.items() if c} for step, counts in tally.by_step.items()}
        predicted = replace(tally, by_step={step: counts for step, counts in nonzero.items() if counts})
        verdict = "pass" if enumerated == predicted else "fail"
    except CapacityError:
        verdict = "skipped_capacity"

    return {
        "params": {
            "n_items": n,
            "item_bits": params.item_bits,
            "n_samples": eta,
            "marked_count": pred.marked_count,
            "cost_model": model.name,
            "multi_control_unit": model.multi_control_unit,
        },
        "result": result,
        "checks": {"gate_list_cross_check": verdict},
    }


@main.command()
@_document_options(
    "Sample count.",
    click.option("--t", type=int, default=None, help="Shorthand: mark the first t items."),
    click.option("--cost-model", type=click.Choice(["paper", "naive"]), default="paper",
                 show_default=True),
)
def gates(ctx, **values):
    """Tally gate counts, asymptotic terms, and the query comparison."""
    _run(ctx, values, _gates_document)


if __name__ == "__main__":
    main()
