"""Per-layer tracing of qproc from outside the package.

The layers are qproc's modules.  ``Tracer.install`` replaces each layer
entry point the CLI reaches with a wrapper that records a span (name,
layer, parent, start, end, invocation); the hot per-element calls
(``norm``, ``seminorm``, ``HermitianOperator``) are only counted, since a
span each would cost more than the work they wrap.  numpy's ``eigh`` and
``eigvalsh`` are counted against the layer of the innermost open span.

``qfisher`` is on no CLI path, so it has no entry points here.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "operators", "tangent", "families", "protocols", "simulate")

# Entry points the workloads reach that get a span, as (layer, attribute
# path in the module).
SPANNED = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "family_from_config"),
    ("cli", "protocol_from_config"),
    ("cli", "cmd_bound"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_verify"),
    ("cli", "_emit"),
    ("operators", "pauli_z_generators"),
    ("operators", "matrix_from_pairs"),
    ("operators", "Povm.from_basis"),
    ("operators", "evolve_pure"),
    ("operators", "born_probabilities"),
    ("tangent", "canonicalize"),
    ("tangent", "fisher_dual"),
    ("tangent", "FisherMatrix.__post_init__"),
    ("families", "ProcessFamily.__init__"),
    ("families", "minimize_norm"),
    ("families", "dual_norm"),
    ("protocols", "corner_protocol"),
    ("protocols", "protocol_fisher"),
    ("protocols", "kissing_residual"),
    ("simulate", "sample_estimates"),
    ("simulate", "branch_distribution"),
    ("simulate", "report"),
)

# Hot calls that are counted only.
COUNTED = (
    ("families", "ProcessFamily.norm"),
    ("families", "PauliZFamily.norm"),
    ("operators", "seminorm"),
    ("operators", "HermitianOperator.__post_init__"),
    ("operators", "Povm.__post_init__"),
)

BUILDERS = ("protocols.corner_protocol",)

# Time metrics: total duration of the named spans per invocation (no span
# of a set nests inside another of the same set on the workloads' paths).
SPAN_TIMES = {
    "operators.povm_s": ("operators.Povm.from_basis",),
    "operators.evolve_s": ("operators.evolve_pure",),
    "operators.born_s": ("operators.born_probabilities",),
    "protocols.build_s": BUILDERS,
    "protocols.fisher_s": ("protocols.protocol_fisher",),
    "protocols.kissing_s": ("protocols.kissing_residual",),
    "families.minimize_norm_s": ("families.minimize_norm",),
    "simulate.sample_s": ("simulate.sample_estimates",),
    "simulate.distribution_s": ("simulate.branch_distribution",),
    "simulate.report_s": ("simulate.report",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.emit_s": ("cli._emit",),
}

# Every per-layer metric the traced run reports: name -> (unit, better, kind).
# "time" metrics are medians over invocations; "count" metrics are means
# over the first full pass of the pool, so they repeat exactly.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", "time")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower", "count")
    PER_LAYER[f"{_layer}.eigensolves"] = ("count", "lower", "count")
for _name in SPAN_TIMES:
    PER_LAYER[_name] = ("s", "lower", "time")
PER_LAYER.update(
    {
        "operators.povm_elements": ("count", "lower", "count"),
        "operators.dense_bytes": ("bytes_computed", "lower", "count"),
        "operators.useful_outcome_ratio": ("ratio", "higher", "count"),
        "operators.hermitian_ops": ("count", "lower", "count"),
        "protocols.branches": ("count", "lower", "count"),
        "families.norm_calls": ("count", "lower", "count"),
        "simulate.cells": ("count", "lower", "count"),
        "simulate.cell_us": ("us", "lower", "time"),
        "cli.emit_bytes": ("B", "lower", "count"),
        "trace.overhead_s": ("s", "lower", "time"),
        "trace.self_share": ("ratio", "higher", "time"),
    }
)


def _resolve(owner, path: str):
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


def _rebind(modules, fn, wrapped) -> None:
    """Point every qproc module's reference to ``fn``, including values of
    module-level dicts such as the CLI's command table, at the wrapper."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        value[k] = wrapped


class Tracer:
    """Spans and counters for one process; spans stay in memory until saved."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, parent, start, end, invocation]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.protocols: list = []
        self.invocation = 0
        self._first_span = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points; qproc.cli must already be imported."""
        modules = [m for name, m in sys.modules.items() if name == "qproc" or name.startswith("qproc.")]
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for layer, path in table:
                owner, leaf = _resolve(sys.modules[f"qproc.{layer}"], path)
                raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                name = f"{layer}.{path}"
                wrapped = (self._span if spanned else self._counter)(fn, name, layer)
                setattr(owner, leaf, classmethod(wrapped) if is_classmethod else wrapped)
                if not isinstance(owner, type):
                    _rebind(modules, fn, wrapped)
        for leaf in ("eigh", "eigvalsh"):
            setattr(np.linalg, leaf, self._eigen_counter(getattr(np.linalg, leaf)))

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack
        observe = self._observer(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, self.invocation]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name: str, layer: str):
        counts = self.counts
        calls = f"{layer}.calls"
        observe = self._observer(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _eigen_counter(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = spans[stack[-1]][1] if stack else "outside"
            counts[f"{layer}.eigensolves"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observer(self, name: str, fn):
        """Cheap bookkeeping after selected calls; heavy work waits for
        ``finish_invocation``, outside the timed call."""
        counts = self.counts
        if name in BUILDERS:
            return lambda args, kwargs, result: self.protocols.append(result)
        if name == "operators.Povm.__post_init__":

            def povm(args, kwargs, result):
                elements = args[0].elements
                dim = elements[0].dim
                counts["operators.povm_elements"] += len(elements)
                counts["operators.dense_bytes"] += len(elements) * dim * dim * np.dtype(complex).itemsize

            return povm
        if name == "simulate.sample_estimates":
            signature = inspect.signature(fn)

            def cells(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                counts["simulate.cells"] += int(bound["repetitions"]) * len(bound["protocol"].branches)

            return cells
        return None

    # -- per-invocation aggregation -------------------------------------------

    def finish_invocation(self, wall_s: float, emit_bytes: int, p_floor: float) -> dict:
        """Per-layer metrics of the invocation just completed; resets counters."""
        spans = self.spans[self._first_span :]
        offset = self._first_span
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[2] >= offset:
                child_time[record[2] - offset] += record[4] - record[3]
        metrics = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls", "eigensolves")}
        for i, record in enumerate(spans):
            metrics[f"{record[1]}.self_s"] += record[4] - record[3] - child_time[i]
            metrics[f"{record[1]}.calls"] += 1
        for key, value in self.counts.items():
            if key.endswith((".calls", ".eigensolves")) and key in metrics:
                metrics[key] += value
        for metric, names in SPAN_TIMES.items():
            metrics[metric] = sum(r[4] - r[3] for r in spans if r[0] in names)
        counts = self.counts
        metrics["operators.povm_elements"] = counts["operators.povm_elements"]
        metrics["operators.dense_bytes"] = counts["operators.dense_bytes"]
        metrics["operators.hermitian_ops"] = counts["operators.HermitianOperator.__post_init__"]
        metrics["families.norm_calls"] = sum(
            counts[f"families.{path}"] for layer, path in COUNTED if path.endswith(".norm")
        )
        metrics["simulate.cells"] = counts["simulate.cells"]
        metrics["simulate.cell_us"] = (
            1e6 * metrics["simulate.sample_s"] / metrics["simulate.cells"] if metrics["simulate.cells"] else 0.0
        )
        built = useful = 0
        for protocol in self.protocols:
            for branch in protocol.branches:
                probs = _born(branch)
                built += probs.size
                useful += int(np.count_nonzero(probs > p_floor))
        metrics["protocols.branches"] = sum(len(p.branches) for p in self.protocols)
        metrics["operators.outcomes_built"] = built
        metrics["operators.outcomes_useful"] = useful
        metrics["cli.emit_bytes"] = emit_bytes
        metrics["wall_s"] = wall_s
        self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        metrics["trace.self_share"] = self_total / wall_s
        self.counts.clear()
        self.protocols.clear()
        self._first_span = len(self.spans)
        self.invocation += 1
        return metrics

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "layer", "parent", "start", "end", "invocation"], "spans": self.spans},
                handle,
            )


def _born(branch) -> np.ndarray:
    """Outcome probabilities of a branch at its fiducial, from its POVM."""
    fiducial = branch.fiducial
    rho = (
        np.outer(fiducial.amplitudes, fiducial.amplitudes.conj())
        if hasattr(fiducial, "amplitudes")
        else fiducial.entries
    )
    return np.array([float(np.real(np.vdot(rho, el.entries))) for el in branch.measurement.elements])
