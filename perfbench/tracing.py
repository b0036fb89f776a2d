"""Spans and counters around gradkick's layers, installed from outside.

The tracer replaces public functions of the package with timing wrappers at
every name their callers bind (``gradkick.cli.run_pipeline`` and
``gradkick.analysis.run_pipeline`` are two bindings of one function), and
restores the originals on uninstall. The package source is not touched.

A span records its name, start, end and parent; self time is its duration
minus the durations of its child spans. Functions called once per grid
point get counters only, since a span each would cost more than the work.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

LAYERS = ("cli", "config", "models", "oracle", "states", "operators", "qft",
          "algorithm", "analysis")

# (layer, attribute in gradkick.<layer>, span name). A dotted attribute is a
# method, patched on its class.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_text", "cli.write_text"),
    ("config", "ExperimentConfig.resolve_model", "config.resolve_model"),
    ("config", "distribution_entries", "config.distribution_entries"),
    ("config", "sample_summary", "config.sample_summary"),
    ("config", "ResultRecord.to_json", "config.to_json"),
    ("analysis", "select_parameters", "analysis.select_parameters"),
    ("analysis", "check_inequalities", "analysis.check_inequalities"),
    ("analysis", "leakage_check", "analysis.leakage_check"),
    ("analysis", "decompose_state", "analysis.decompose_state"),
    ("analysis", "success_projection", "analysis.success_projection"),
    ("analysis", "verify_theorem", "analysis.verify_theorem"),
    ("algorithm", "plan_run_format", "algorithm.plan_run_format"),
    ("algorithm", "run_pipeline", "algorithm.run_pipeline"),
    ("algorithm", "sample_measurements", "algorithm.sample_measurements"),
    ("operators", "apply_qft", "operators.apply_qft"),
    ("operators", "apply_u_plus", "operators.apply_u_plus"),
    ("operators", "apply_u_plus_inverse", "operators.apply_u_plus_inverse"),
    ("operators", "apply_u_f", "operators.apply_u_f"),
    ("operators", "apply_u_f_inverse", "operators.apply_u_f_inverse"),
    ("operators", "apply_phase_rotation", "operators.apply_phase_rotation"),
    ("operators", "collapse_to_grid", "operators.collapse_to_grid"),
    ("qft", "qft_amplitudes", "qft.qft_amplitudes"),
    ("states", "SparseTripartiteState.__post_init__", "states.SparseTripartiteState"),
)

# Called once per grid point (or more): counters, no spans.
COUNTED = (
    ("oracle", "oracle_value", "oracle.oracle_value.calls"),
    ("oracle", "quantize", "oracle.quantize.calls"),
    ("oracle", "shift_label", "oracle.shift_label.calls"),
)

# Constructors whose models get a counting evaluate.
MODEL_CONSTRUCTORS = ("linear_model", "quadratic_model", "sinusoidal_model")

ROOT_SPAN = "cli.main"
MARK = "_perfbench_wrapper"


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    self_time: float
    command: int
    raised: bool


def _max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _qft_bytes(args, kwargs, result) -> int:
    """Computed bytes of one qft_amplitudes(amplitudes, n, p, direction, axes)
    call: each axis pass reads and writes the complex128 array once.
    Computed from array sizes, not measured."""
    p = args[2] if len(args) > 2 else kwargs["p"]
    axes = args[4] if len(args) > 4 else kwargs.get("axes")
    return 2 * result.nbytes * (p if axes is None else len(tuple(axes)))


# Per-span extras, as (counter name, value from (args, kwargs, result)).
AFTER = {
    "cli.write_text": ("cli.record_bytes", lambda a, k, r: len(a[1].encode("utf-8"))),
    "config.distribution_entries": ("config.distribution_rows", lambda a, k, r: len(r)),
    "states.SparseTripartiteState": ("states.sparse_terms_built",
                                     lambda a, k, r: len(a[0].terms)),
    "qft.qft_amplitudes": ("qft.computed_bytes", _qft_bytes),
}


def _gradkick_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "gradkick" or name.startswith("gradkick.")]


def installed_wrappers() -> list[str]:
    """Names in the package that are tracer wrappers right now."""
    found = []
    for module in _gradkick_modules():
        for key, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{key}.{attr}"
                          for attr, member in vars(value).items()
                          if getattr(member, MARK, False)]
    return found


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.command = 0
        self.points: set | None = None  # distinct evaluation points, when tracked
        self.rss_bytes_per_point: float | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable) -> Callable:
        after = AFTER.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, name, start, clock(), raised=True)
                tracer.errors[layer] += 1
                raise
            tracer._close(frame, parent, name, start, clock(), raised=False)
            if after is not None:
                tracer.counts[after[0]] += after[1](args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _close(self, frame, parent, name, start, end, raised) -> None:
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.spans.append(Span(frame[0], name, None if parent is None else parent[0],
                               start, end, duration - frame[1], self.command, raised))

    def _counter(self, key: str, layer: str, fn: Callable) -> Callable:
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        setattr(wrapper, MARK, True)
        return wrapper

    def _rss_probe(self, fn: Callable) -> Callable:
        """ru_maxrss growth over the first pipeline of the process, per point."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, x, params, *args, **kwargs):
            if tracer.rss_bytes_per_point is not None:
                return fn(model, x, params, *args, **kwargs)
            before = _max_rss_bytes()
            result = fn(model, x, params, *args, **kwargs)
            grown = _max_rss_bytes() - before
            tracer.rss_bytes_per_point = grown / float(1 << (params.n * model.p))
            return result

        return wrapper

    def _counting_model(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            evaluate = model.evaluate

            def counted(x):
                tracer.counts["models.evaluate.calls"] += 1
                if tracer.points is not None:
                    tracer.counts["models.tracked_evaluations"] += 1
                    tracer.points.add(np.asarray(x, dtype=float).tobytes())
                try:
                    return evaluate(x)
                except BaseException:
                    tracer.errors["models"] += 1
                    raise

            return dataclasses.replace(model, evaluate=counted)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for module in _gradkick_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        import gradkick.cli  # noqa: F401  (loads every layer)

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, attr, name in SPANS:
            module = sys.modules[f"gradkick.{layer}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._span(name, layer, original))
                continue
            original = getattr(module, attr)
            target = original
            if name == "algorithm.run_pipeline":
                target = self._rss_probe(original)
            self._patch_everywhere(original, self._span(name, layer, target))
        for layer, attr, key in COUNTED:
            original = getattr(sys.modules[f"gradkick.{layer}"], attr)
            self._patch_everywhere(original, self._counter(key, layer, original))
        models = sys.modules["gradkick.models"]
        for attr in MODEL_CONSTRUCTORS:
            original = getattr(models, attr)
            self._patch_everywhere(original, self._counting_model(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- per command ------------------------------------------------------

    def end_command(self) -> None:
        """Close the command's distinct-point set, if points are tracked."""
        self.command += 1
        if self.points is not None:
            self.counts["models.distinct_points"] += len(self.points)
            self.points.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(Span._fields), "spans": self.spans}, handle)


def span_totals(spans: list[Span]) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed self time, summed duration, call count."""
    self_s, total_s, calls = Counter(), Counter(), Counter()
    for s in spans:
        self_s[s.name] += s.self_time
        total_s[s.name] += s.end - s.start
        calls[s.name] += 1
    return self_s, total_s, calls


PER_COMMAND_COUNTS = (
    ("states.sparse_terms_built", "count"),
    ("config.distribution_rows", "count"),
    ("cli.record_bytes", "B"),
    ("qft.computed_bytes", "B-computed"),
    ("oracle.oracle_value.calls", "count"),
    ("oracle.quantize.calls", "count"),
    ("oracle.shift_label.calls", "count"),
    ("models.evaluate.calls", "count"),
)


def per_layer_metrics(tracer: Tracer, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced phase of whole workload cycles.

    Times and counts are per command: the phase total divided by the number
    of commands, which repeats exactly for counts since every cycle runs the
    same commands. Errors are phase totals.
    """
    self_s, total_s, calls = span_totals(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for _, _, name in SPANS:
        out[f"{name}.self_s"] = (self_s[name] / commands, "s")
    out["algorithm.run_pipeline.total_s"] = (total_s["algorithm.run_pipeline"] / commands, "s")
    out["qft.qft_amplitudes.calls"] = (calls["qft.qft_amplitudes"] / commands, "count")
    for key, unit in PER_COMMAND_COUNTS:
        out[key] = (tracer.counts[key] / commands, unit)
    out["algorithm.run_pipeline.rss_bytes_per_point"] = (
        tracer.rss_bytes_per_point or 0.0, "B/point")
    tracked = tracer.counts["models.tracked_evaluations"]
    out["models.distinct_points_ratio"] = (
        tracer.counts["models.distinct_points"] / tracked if tracked else 0.0, "ratio")
    pipelines = calls["algorithm.run_pipeline"]
    applied = calls["operators.apply_u_f"] + calls["operators.apply_u_f_inverse"]
    out["operators.oracle_calls"] = (applied / pipelines if pipelines else 0.0, "count")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    root = total_s[ROOT_SPAN]
    out["trace.span_coverage"] = ((root - self_s[ROOT_SPAN]) / root if root else 0.0,
                                  "ratio")
    return out
