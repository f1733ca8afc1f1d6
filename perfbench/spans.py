"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces module attributes such as
`paritysearch.circuit.run_circuit` with wrappers; the program reaches
its own layers through those attributes (`sv.apply_hadamard`,
`ci.run_circuit`, ...), so calls made inside the program are recorded
too.  `uninstall` puts the originals back.  Each span holds start, end,
parent span, operation id, name, a size (amplitudes, trials, cells or
tuples, depending on the layer) and a failed flag.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

FIELDS = ("start", "end", "parent", "op", "name", "size", "failed")
WIDTH = len(FIELDS)


def _amplitudes(args, kwargs, result):
    return args[0].amplitudes.size


def _zero_state(args, kwargs, result):
    return 1 << args[0]


def _exact_cells(args, kwargs, result):
    n_samples = args[2] if len(args) > 2 else kwargs["n_samples"]
    return args[0].n_items * (n_samples + 1) ** 3


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[3]


def _tuples(args, kwargs, result):
    return result.checked if result is not None else 0


def _tie_break(args, kwargs):
    return kwargs.get("tie_break", args[3] if len(args) > 3 else "lowest_index")


# (module, attribute, span name or a function of the call's arguments, size)
TARGETS = (
    ("statevector", "zero_state", "statevector.zero_state", _zero_state),
    ("statevector", "apply_hadamard", "statevector.hadamard", _amplitudes),
    ("statevector", "apply_sigma_z", "statevector.sigma_z", _amplitudes),
    ("statevector", "apply_value_controlled_flip", "statevector.flip", _amplitudes),
    ("statevector", "apply_value_controlled_phase", "statevector.phase", _amplitudes),
    ("statevector", "marginal_distribution", "statevector.marginal", _amplitudes),
    ("circuit", "build_circuit", "circuit.build", None),
    ("circuit", "apply_record", lambda args, kwargs: "circuit." + args[1].step, None),
    ("circuit", "run_circuit", "circuit.run", None),
    ("circuit", "measure_samples", "circuit.measure", None),
    ("circuit", "majority_postprocess", "circuit.majority", None),
    ("oracle", "verify_parity_identity", "oracle.identity", _tuples),
    ("analytic", "exact_success_probability",
     lambda args, kwargs: "analytic.exact_" + _tie_break(args, kwargs), _exact_cells),
    ("analytic", "monte_carlo_success_probability", "analytic.mc", _trials),
    ("complexity", "predict_tally", "complexity.tally", None),
    ("complexity", "tally_of_records", "complexity.tally", None),
    ("cli", "main", "cli.doc", None),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = array("d")
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.stack: list[int] = []
        self.op = -1
        self.originals: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans) // WIDTH
            parent = stack[-1] if stack else -1
            spans.extend((0.0, 0.0, parent, self.op, self._name_id(label), 0.0, 0.0))
            stack.append(index)
            result = None
            failed = 1.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0.0
                return result
            finally:
                end = perf_counter()
                stack.pop()
                base = index * WIDTH
                spans[base] = start
                spans[base + 1] = end
                spans[base + 6] = failed
                if size is not None:
                    spans[base + 5] = size(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, size in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.float64).reshape(-1, WIDTH)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), fields=np.array(FIELDS), names=np.array(json.dumps(self.names)))


def layer_metrics(tracer: Tracer, op_ids: range) -> dict[str, float]:
    """Per-layer totals over the spans whose operation id lies in op_ids.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    table = tracer.table()
    duration = table[:, 1] - table[:, 0]
    parent = table[:, 2].astype(np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(table))
    self_time = duration - child_time
    in_pass = (table[:, 3] >= op_ids.start) & (table[:, 3] < op_ids.stop)
    name = table[:, 4].astype(np.int64)
    size = table[:, 5]
    failed = table[:, 6] > 0

    def pick(label: str) -> np.ndarray:
        if label not in tracer.name_ids:
            return np.zeros(len(table), dtype=bool)
        return in_pass & (name == tracer.name_ids[label])

    def total(label: str, values=duration) -> float:
        return float(values[pick(label)].sum())

    def calls(label: str) -> int:
        return int(pick(label).sum())

    def ratio(amount: float, base: float) -> float:
        return amount / base if base > 0 else 0.0

    gates = ("statevector.hadamard", "statevector.flip", "statevector.phase", "statevector.sigma_z")
    gate_time = sum(total(g) for g in gates)
    gate_amps = sum(total(g, size) for g in gates)
    exact = pick("analytic.exact_lowest_index") | pick("analytic.exact_random")
    exact_done = exact & ~failed
    mc_time = total("analytic.mc")
    identity_time = total("oracle.identity")
    return {
        "statevector.hadamard_s": total("statevector.hadamard"),
        "statevector.flip_s": total("statevector.flip"),
        "statevector.phase_s": total("statevector.phase") + total("statevector.sigma_z"),
        "statevector.ns_per_amp": 1e9 * ratio(gate_time, gate_amps),
        "statevector.hadamard_calls": calls("statevector.hadamard"),
        "statevector.flip_calls": calls("statevector.flip"),
        "statevector.phase_calls": calls("statevector.phase") + calls("statevector.sigma_z"),
        "statevector.marginal_calls": calls("statevector.marginal"),
        "statevector.zero_state_s": total("statevector.zero_state"),
        "statevector.marginal_s": total("statevector.marginal"),
        "circuit.step2a_s": total("circuit.step2a"),
        "circuit.step3_s": total("circuit.step3"),
        "circuit.step4_s": total("circuit.step4"),
        "circuit.step5_s": total("circuit.step5"),
        "circuit.step6_s": total("circuit.step6"),
        "circuit.build_s": total("circuit.build"),
        "circuit.run_s": total("circuit.run"),
        "circuit.run_self_s": total("circuit.run", self_time),
        "circuit.measure_s": total("circuit.measure"),
        "circuit.majority_s": total("circuit.majority"),
        "oracle.identity_s": identity_time,
        "oracle.identity_tuples_per_s": ratio(total("oracle.identity", size), identity_time),
        "complexity.tally_s": total("complexity.tally"),
        "cli.doc_s": total("cli.doc"),
        "cli.self_s": total("cli.doc", self_time),
        "analytic.exact_lowest_s": total("analytic.exact_lowest_index"),
        "analytic.exact_random_s": total("analytic.exact_random"),
        "analytic.exact_calls": int(exact.sum()),
        "analytic.exact_ns_per_cell": 1e9 * ratio(
            float(duration[exact_done].sum()), float(size[exact_done].sum())
        ),
        "analytic.exact_failed": int((exact & failed).sum()),
        "analytic.mc_s": mc_time,
        "analytic.mc_trials_per_s": ratio(total("analytic.mc", size), mc_time),
    }
