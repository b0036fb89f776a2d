"""Experiment configuration and result records.

One canonical tree schema for both input configs and output records, using
the algorithm's own symbol names (n, nu, lambda, mu, gamma, delta, epsilon)
so files stay auditable against the math. Records round-trip losslessly
through JSON; wall-clock timings are kept out of the serialized form so a
rerun with the same config and seed produces byte-identical files. Every
record is written by record_json, which matches json.dumps(indent=2) byte
for byte and writes the outcome tables (RowTable) straight from their arrays.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

import numpy as np

from .algorithm import MeasurementSamples, axis_decode_values, sampling_radius
from .analysis import (AccuracySpec, InequalityReport, TheoremReport,
                       select_parameters)
from .models import (DomainBox, FunctionModel, linear_model, quadratic_model,
                     sinusoidal_model)
from .oracle import GROUP_MODES, FixedPointFormat
from .operators import PHASE_VARIANTS
from .params import AlgorithmParams
from .states import GridState, grid_points

DEFAULT_PROB_FLOOR = 1e-12

FUNCTION_KINDS = ("linear", "quadratic", "sinusoidal", "custom-coefficients")


class ConfigError(ValueError):
    """The configuration tree is malformed or inconsistent."""


def _require(payload: dict, key: str, context: str) -> Any:
    if key not in payload:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return payload[key]


def _reject_unknown(payload: dict, allowed: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(allowed)}")


@dataclass(frozen=True)
class FunctionSpec:
    """Declarative objective: kind plus its coefficient data.

    custom-coefficients is the explicit-coefficients escape hatch: a linear
    form when no hessian is given, a quadratic when one is. The quadratic
    carries its exact Hessian, so the curvature bound M is certified rather
    than estimated.
    """

    kind: str
    coefficients: tuple[float, ...] | None = None
    hessian: tuple[tuple[float, ...], ...] | None = None
    amplitude: float | None = None
    frequencies: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FUNCTION_KINDS:
            raise ConfigError(f"unknown function kind {self.kind!r}; "
                              f"expected one of {FUNCTION_KINDS}")
        if self.kind == "sinusoidal":
            if self.amplitude is None or self.frequencies is None:
                raise ConfigError("sinusoidal function needs amplitude and frequencies")
            if self.coefficients is not None or self.hessian is not None:
                raise ConfigError("sinusoidal function takes only amplitude "
                                  "and frequencies")
        else:
            if self.amplitude is not None or self.frequencies is not None:
                raise ConfigError(f"{self.kind} function takes no amplitude "
                                  "or frequencies")
            if self.coefficients is None:
                raise ConfigError(f"{self.kind} function needs coefficients")
            if self.kind == "quadratic" and self.hessian is None:
                raise ConfigError("quadratic function needs a hessian")
            if self.kind == "linear" and self.hessian is not None:
                raise ConfigError("linear function takes no hessian")
            if self.hessian is not None:
                k = len(self.coefficients)
                if len(self.hessian) != k or any(len(row) != k for row in self.hessian):
                    raise ConfigError(f"hessian must be {k} x {k}")

    @property
    def dimension(self) -> int:
        if self.kind == "sinusoidal":
            return len(self.frequencies)
        return len(self.coefficients)

    def build(self, box: DomainBox) -> FunctionModel:
        if self.kind == "sinusoidal":
            return sinusoidal_model(self.amplitude, list(self.frequencies), box)
        if self.kind == "quadratic" or (self.kind == "custom-coefficients"
                                        and self.hessian is not None):
            return quadratic_model(list(self.coefficients),
                                   [list(row) for row in self.hessian], box)
        return linear_model(list(self.coefficients), box)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        if self.coefficients is not None:
            out["coefficients"] = list(self.coefficients)
        if self.hessian is not None:
            out["hessian"] = [list(row) for row in self.hessian]
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        if self.frequencies is not None:
            out["frequencies"] = list(self.frequencies)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> FunctionSpec:
        if not isinstance(payload, dict):
            raise ConfigError("function must be an object")
        _reject_unknown(payload, ("kind", "coefficients", "hessian", "amplitude",
                                  "frequencies"), "function")
        kind = _require(payload, "kind", "function")
        coeffs = payload.get("coefficients")
        hess = payload.get("hessian")
        return cls(
            kind=str(kind),
            coefficients=None if coeffs is None else tuple(float(v) for v in coeffs),
            hessian=None if hess is None else tuple(tuple(float(v) for v in row)
                                                    for row in hess),
            amplitude=(None if payload.get("amplitude") is None
                       else float(payload["amplitude"])),
            frequencies=(None if payload.get("frequencies") is None
                         else tuple(float(v) for v in payload["frequencies"])),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: objective, point, and either accuracy targets or
    explicit parameters.

    Exactly one of accuracy/params drives the parameter choice: explicit
    params always win, with accuracy then serving only as the target the
    checks are scored against. The domain defaults to a cube around x of
    half-width gamma (when accuracy is given) or the sampling radius
    (when only explicit params are).
    """

    function: FunctionSpec
    x: tuple[float, ...]
    accuracy: AccuracySpec | None = None
    params: AlgorithmParams | None = None
    domain: DomainBox | None = None
    shots: int = 0
    seed: int = 0
    group_mode: str = "modular"
    phase_variant: str = "direct"
    max_grid_bits: int | None = None
    prob_floor: float = DEFAULT_PROB_FLOOR
    sweep: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if len(self.x) != self.function.dimension:
            raise ConfigError(f"x has {len(self.x)} components but the function "
                              f"has dimension {self.function.dimension}")
        if self.accuracy is None and self.params is None:
            raise ConfigError("one of accuracy or params is required")
        if self.domain is not None and self.domain.dimension != self.function.dimension:
            raise ConfigError("domain dimension does not match the function")
        if self.shots < 0:
            raise ConfigError("shots must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.group_mode not in GROUP_MODES:
            raise ConfigError(f"group_mode must be one of {GROUP_MODES}")
        if self.phase_variant not in PHASE_VARIANTS:
            raise ConfigError(f"phase_variant must be one of {PHASE_VARIANTS}")
        if self.max_grid_bits is not None and self.max_grid_bits < 1:
            raise ConfigError("max_grid_bits must be positive")
        if not 0.0 <= self.prob_floor < 1.0:
            raise ConfigError("prob_floor must lie in [0, 1)")

    @property
    def dimension(self) -> int:
        return self.function.dimension

    def resolve_domain(self) -> DomainBox:
        """Explicit domain, or the default cube centered at x."""
        if self.domain is not None:
            return self.domain
        if self.accuracy is not None:
            half = self.accuracy.gamma
        else:
            half = sampling_radius(self.params)
        return DomainBox.cube(self.dimension, half, center=tuple(self.x))

    def resolve_model(self) -> FunctionModel:
        return self.function.build(self.resolve_domain())

    def resolve_params(self, model: FunctionModel) -> AlgorithmParams:
        """Explicit params win; otherwise plan from the accuracy targets."""
        if self.params is not None:
            return self.params
        return select_parameters(self.accuracy, model.grad_bound,
                                 model.hess_bound, model.p, self.max_grid_bits)

    def to_dict(self) -> dict:
        return {
            "function": self.function.to_dict(),
            "x": list(self.x),
            "accuracy": None if self.accuracy is None else self.accuracy.to_dict(),
            "params": None if self.params is None else self.params.to_dict(),
            "domain": None if self.domain is None else {
                "center": list(self.domain.center),
                "half_width": list(self.domain.half_width),
            },
            "shots": self.shots,
            "seed": self.seed,
            "group_mode": self.group_mode,
            "phase_variant": self.phase_variant,
            "max_grid_bits": self.max_grid_bits,
            "prob_floor": self.prob_floor,
            "sweep": [dict(entry) for entry in self.sweep],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ExperimentConfig:
        if not isinstance(payload, dict):
            raise ConfigError("config must be an object")
        _reject_unknown(payload, ("function", "x", "accuracy", "params", "domain",
                                  "shots", "seed", "group_mode", "phase_variant",
                                  "max_grid_bits", "prob_floor", "sweep"), "config")
        function = FunctionSpec.from_dict(_require(payload, "function", "config"))
        x = tuple(float(v) for v in _require(payload, "x", "config"))
        accuracy = payload.get("accuracy")
        params = payload.get("params")
        domain = payload.get("domain")
        if accuracy is not None:
            _reject_unknown(accuracy, ("gamma", "delta", "epsilon"), "accuracy")
            try:
                accuracy = AccuracySpec.from_dict(accuracy)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"accuracy: {exc}") from exc
        if params is not None:
            _reject_unknown(params, ("n", "nu", "lambda", "mu"), "params")
            try:
                params = AlgorithmParams.from_dict(params)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"params: {exc}") from exc
        if domain is not None:
            _reject_unknown(domain, ("center", "half_width"), "domain")
            try:
                domain = DomainBox(center=tuple(float(v) for v in domain["center"]),
                                   half_width=tuple(float(v) for v
                                                    in domain["half_width"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"domain: {exc}") from exc
        sweep = payload.get("sweep", [])
        if not isinstance(sweep, list) or not all(isinstance(e, dict) for e in sweep):
            raise ConfigError("sweep must be a list of objects")
        try:
            return cls(
                function=function,
                x=x,
                accuracy=accuracy,
                params=params,
                domain=domain,
                shots=int(payload.get("shots", 0)),
                seed=int(payload.get("seed", 0)),
                group_mode=str(payload.get("group_mode", "modular")),
                phase_variant=str(payload.get("phase_variant", "direct")),
                max_grid_bits=(None if payload.get("max_grid_bits") is None
                               else int(payload["max_grid_bits"])),
                prob_floor=float(payload.get("prob_floor", DEFAULT_PROB_FLOOR)),
                sweep=tuple(sweep),
            )
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path: str) -> ExperimentConfig:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(payload)

    def merged(self, entry: dict) -> ExperimentConfig:
        """Sweep-entry merge: top-level fields of entry override this config.

        The shorthand {"p": k} expands to a k-dimensional linear objective
        with coefficients 0.5, x at the origin, and no explicit overrides,
        which is what dimension sweeps in benchmarks want.
        """
        base = self.to_dict()
        base["sweep"] = []
        entry = dict(entry)
        if "p" in entry:
            k = int(entry.pop("p"))
            if k < 1:
                raise ConfigError("sweep entry: p must be positive")
            entry.setdefault("function", {"kind": "linear",
                                          "coefficients": [0.5] * k})
            entry.setdefault("x", [0.0] * k)
            entry.setdefault("domain", None)
            entry.setdefault("params", None)
        base.update(entry)
        return ExperimentConfig.from_dict(base)


def format_to_dict(fmt: FixedPointFormat) -> dict:
    return {"bits": fmt.bits, "a0": fmt.a0, "a1": fmt.a1,
            "group_mode": fmt.group_mode}


def format_from_dict(payload: dict) -> FixedPointFormat:
    return FixedPointFormat(bits=int(payload["bits"]), a0=float(payload["a0"]),
                            a1=float(payload["a1"]),
                            group_mode=str(payload["group_mode"]))


class RowTable(Sequence[dict]):
    """Read-only record rows held as one numpy column per field.

    Each field is (values, codes): row i holds values[codes[i]], a scalar
    when codes is 1-D and a list when it is 2-D (rows x width); codes None
    means values holds one entry per row. values is an int or float array,
    so a field with few distinct values (grid coordinates, decoded
    gradients) keeps each of them once. Reading a row builds its dict; the
    table equals the list of those dicts.
    """

    def __init__(self, **fields: tuple[np.ndarray, np.ndarray | None]) -> None:
        rows = {len(values if codes is None else codes) for values, codes in fields.values()}
        if len(rows) > 1:
            raise ValueError(f"row table fields disagree on the row count: {sorted(rows)}")
        if any(values.dtype.kind not in "iuf" for values, _ in fields.values()):
            raise TypeError("row table values must be int or float arrays")
        self.fields = fields
        self._rows = rows.pop() if rows else 0

    def column(self, name: str) -> np.ndarray:
        """One field's entries, row by row."""
        values, codes = self.fields[name]
        return values if codes is None else values[codes]

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, i: int) -> dict:
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("row index out of range")
        return {name: (values[i] if codes is None else values[codes[i]]).tolist()
                for name, (values, codes) in self.fields.items()}

    def __iter__(self) -> Iterator[dict]:
        names = tuple(self.fields)
        for row in zip(*(self.column(name).tolist() for name in names)):
            yield dict(zip(names, row))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowTable):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    __hash__ = None


def distribution_entries(chi: GridState, params: AlgorithmParams,
                         floor: float) -> RowTable:
    """Outcome rows above the probability floor, in grid-index order."""
    probs = chi.probabilities()
    kept = np.flatnonzero(probs > floor)
    points = grid_points(kept, chi.n, chi.p)
    return RowTable(g=(np.arange(1 << params.n), points),
                    gradient=(axis_decode_values(params), points),
                    probability=(probs[kept], None))


def sample_summary(samples: MeasurementSamples, shots: int, seed: int) -> dict:
    """Aggregate sampled estimates: counts per outcome plus the sample mean.

    Outcomes are listed by falling count, ties in grid-index order.
    """
    outcomes, counts = np.unique(samples.indices, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    points = grid_points(outcomes[order], samples.n, samples.p)
    mean = np.mean(samples.gradients, axis=0)
    return {
        "shots": shots,
        "seed": seed,
        "outcome_counts": RowTable(g=(np.arange(1 << samples.n), points),
                                   count=(counts[order], None)),
        "mean_gradient": [float(v) for v in mean],
    }


def record_json(tree: Any) -> str:
    """The text of json.dumps(tree, indent=2, allow_nan=False) + "\\n", byte for byte.

    Values are written as the json module writes them: floats by
    float.__repr__, strings ASCII-escaped, tuples as lists; a NaN or an
    infinity anywhere raises ValueError. Dict keys must be strings. A
    RowTable is written as its list of row dicts, straight from its columns.
    """
    out: list[str] = []
    _write(tree, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append value's JSON text; newline is the line break plus this level's indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, RowTable):
        _write_table(value, newline, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"record keys must be str, not {type(key).__name__}")
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _write(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Placeholder for each value of a RowTable's row template: its JSON text,
# "\u0000", cannot occur in the template's own field names and brackets.
_SLOT = "\0"
_SLOT_TEXT = encode_basestring_ascii(_SLOT)


def _write_table(table: RowTable, newline: str, out: list[str]) -> None:
    """Append a RowTable's JSON text: a row template filled from the columns.

    Each distinct value is formatted once and indexed by its codes; the
    template is one row rendered by _write with a _SLOT in every value
    position, so its layout is the generic writer's by construction. Row
    pieces go straight into out, one template position at a time, as a
    strided slice over the rows.
    """
    rows = len(table)
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    shape = {name: _SLOT if codes is None or codes.ndim == 1 else [_SLOT] * codes.shape[1]
             for name, (_, codes) in table.fields.items()}
    template: list[str] = []
    _write(shape, inner, template)
    literals = "".join(template).split(_SLOT_TEXT)
    # Row i fills out[start + i * width:][:width] with literal, value,
    # literal, ..., value, literal.
    width = len(literals) * 2 - 1
    out.append("[")
    start = len(out)
    out.extend(repeat(None, rows * width))
    stop = len(out)
    out[start:stop:width] = ["," + inner + literals[0]] * rows
    out[start] = inner + literals[0]
    for k, literal in enumerate(literals[1:], 1):
        out[start + 2 * k:stop:width] = [literal] * rows
    slot = start + 1
    for values, codes in table.fields.values():
        texts = _value_texts(values, codes)
        if codes is None:
            out[slot:stop:width] = texts
            slot += 2
            continue
        texts = np.array(texts, dtype=object)
        for column in codes.reshape(rows, -1).T:
            out[slot:stop:width] = texts[column].tolist()
            slot += 2
    out.append(newline + "]")


def _value_texts(values: np.ndarray, codes: np.ndarray | None) -> list[str]:
    """JSON text of every entry of values.

    Only the entries the codes select must be finite, as json.dumps of the
    rows would see only those.
    """
    if values.dtype.kind != "f":
        return list(map(int.__repr__, values.tolist()))
    used = values if codes is None else values[codes]
    finite = np.isfinite(used)
    if not finite.all():
        _float_text(float(used[~finite][0]))
    return list(map(float.__repr__, values.tolist()))


@dataclass
class ResultRecord:
    """Everything one command produced, minus wall-clock timings.

    timings stays in memory for display but is excluded from to_dict so the
    serialized record is a pure function of config and seed. to_dict keeps
    the outcome tables as given (RowTable from the commands), which
    record_json writes from their arrays.
    """

    command: str
    config: ExperimentConfig
    params: AlgorithmParams
    grid_bits: int
    grid_size: int
    memory_estimate_bytes: int
    format: FixedPointFormat | None = None
    oracle_calls: int | None = None
    true_gradient: tuple[float, ...] | None = None
    prob_floor: float | None = None
    distribution: Sequence[dict] | None = None
    samples: dict | None = None
    theorem: TheoremReport | None = None
    inequalities: InequalityReport | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config.to_dict(),
            "params": self.params.to_dict(),
            "grid_bits": self.grid_bits,
            "grid_size": self.grid_size,
            "memory_estimate_bytes": self.memory_estimate_bytes,
            "format": None if self.format is None else format_to_dict(self.format),
            "oracle_calls": self.oracle_calls,
            "true_gradient": (None if self.true_gradient is None
                              else list(self.true_gradient)),
            "prob_floor": self.prob_floor,
            "distribution": self.distribution,
            "samples": self.samples,
            "theorem": None if self.theorem is None else self.theorem.to_dict(),
            "inequalities": (None if self.inequalities is None
                             else self.inequalities.to_dict()),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ResultRecord:
        return cls(
            command=str(payload["command"]),
            config=ExperimentConfig.from_dict(payload["config"]),
            params=AlgorithmParams.from_dict(payload["params"]),
            grid_bits=int(payload["grid_bits"]),
            grid_size=int(payload["grid_size"]),
            memory_estimate_bytes=int(payload["memory_estimate_bytes"]),
            format=(None if payload["format"] is None
                    else format_from_dict(payload["format"])),
            oracle_calls=(None if payload["oracle_calls"] is None
                          else int(payload["oracle_calls"])),
            true_gradient=(None if payload["true_gradient"] is None
                           else tuple(float(v) for v in payload["true_gradient"])),
            prob_floor=(None if payload["prob_floor"] is None
                        else float(payload["prob_floor"])),
            distribution=payload["distribution"],
            samples=payload["samples"],
            theorem=(None if payload["theorem"] is None
                     else TheoremReport.from_dict(payload["theorem"])),
            inequalities=(None if payload["inequalities"] is None
                          else InequalityReport.from_dict(payload["inequalities"])),
        )

    def to_json(self) -> str:
        # record_json raises on inf/nan: records must never smuggle them through.
        return record_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> ResultRecord:
        return cls.from_dict(json.loads(text))


def grid_geometry(params: AlgorithmParams, p: int) -> tuple[int, int, int]:
    """(total bits, grid size, bytes for one dense complex sector)."""
    bits = params.n * p
    size = 1 << bits
    return bits, size, size * 16
