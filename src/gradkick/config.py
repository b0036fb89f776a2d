"""Experiment configuration and result records.

One canonical tree schema for both input configs and output records, using
the algorithm's own symbol names (n, nu, lambda, mu, gamma, delta, epsilon)
so files stay auditable against the math. One codec maps every config and
record dataclass to and from its tree: to_tree writes a dataclass as a dict
keyed by its field names in declaration order (lam is written as lambda, the
one alias), and from_tree reads a tree back by the field types, refusing
unknown or missing keys, wrong JSON types, non-finite numbers and
fractional integers with a ConfigError that names the offending path.

Records round-trip losslessly through JSON, and hold no wall-clock time, so
a rerun with the same config and seed produces byte-identical files. Every
record is written by record_json, which matches json.dumps(indent=2) byte
for byte and writes the outcome tables (RowTable) straight from their arrays,
handing the text to a writer one block of table rows at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
from collections import abc
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii
from types import UnionType
from typing import (Any, Callable, Iterator, Sequence, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .algorithm import (axis_decode_values, axis_signed_indices, sample_blocks,
                        sampling_radius)
from .analysis import (AccuracySpec, InequalityReport, TheoremReport,
                       select_parameters)
from .floattext import BLOCK_VALUES, float_texts
from .models import (DomainBox, FunctionModel, linear_model, quadratic_model,
                     sinusoidal_model)
from .oracle import GROUP_MODES, FixedPointFormat
from .operators import PHASE_VARIANTS
from .params import AlgorithmParams
from .states import (BLOCK_BYTES, MAX_INDEX_BITS, GridState, blocks, check_grid_bits,
                     grid_points)

DEFAULT_PROB_FLOOR = 1e-12

# The most shots a config may ask for. Sampling a 2^14-point state ran at
# about 130 ns a shot on a 2-vCPU host, so 2^32 shots take about ten minutes;
# the bound also keeps both int64 parts of sample_summary's exact index sum
# N_m = sum_g C_g k(g), |N_m| <= 2^32 2^(n-1), from overflow (signed_index_mean).
MAX_SHOTS = 1 << 32

FUNCTION_KINDS = ("linear", "quadratic", "sinusoidal", "custom-coefficients")


class ConfigError(ValueError):
    """The configuration tree is malformed or inconsistent."""


# The one record key that is not its field's name: lambda is a Python keyword.
_ALIASES = {"lam": "lambda"}

_LEAVES = frozenset((str, int, float, bool, type(None)))


def to_tree(obj: Any) -> Any:
    """The record tree of obj: a dataclass becomes a dict of its fields, keyed
    by field name in declaration order, and a tuple or list becomes a list.

    Anything else (scalars, dicts, RowTables) is kept as it is. A
    FunctionSpec leaves out its None fields; every other None is kept.
    """
    kind = type(obj)
    if kind is tuple or kind is list:
        return [item if type(item) in _LEAVES else to_tree(item) for item in obj]
    keys = _record_keys(kind)
    if keys is None:
        return obj
    tree = {}
    for name, key in keys:
        value = getattr(obj, name)
        if value is None and kind is FunctionSpec:
            continue
        tree[key] = value if type(value) in _LEAVES else to_tree(value)
    return tree


@functools.cache
def _record_keys(kind: type) -> tuple[tuple[str, str], ...] | None:
    """(field name, record key) of each field of a dataclass; None for other types."""
    return (tuple((f.name, _ALIASES.get(f.name, f.name)) for f in dataclasses.fields(kind))
            if dataclasses.is_dataclass(kind) else None)


def from_tree(cls: type, tree: Any, context: str) -> Any:
    """Build a cls from its record tree, reading each field as its type says.

    Floats take a finite number, ints an integer or an integral float. Any
    problem raises ConfigError naming its path, e.g.
    config.function.coefficients[0]; context is the path of tree itself.
    """
    if not isinstance(tree, dict):
        raise ConfigError(f"{context}: expected an object, got {_shown(tree)}")
    fields, keys = _record_fields(cls)
    unknown = tree.keys() - keys
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {', '.join(map(repr, sorted(unknown)))}; "
                          f"allowed: {', '.join(key for _, key, _, _ in fields)}")
    values = {}
    for name, key, read, required in fields:
        if key in tree:
            values[name] = read(tree[key], f"{context}.{key}")
        elif required:
            raise ConfigError(f"{context}: missing required field {key!r}")
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


@functools.cache
def _record_fields(cls: type) -> tuple[tuple, frozenset[str]]:
    """(name, key, reader, required) of each field of cls, and the set of keys."""
    hints = get_type_hints(cls)
    fields = tuple((f.name, _ALIASES.get(f.name, f.name), _reader(hints[f.name]),
                    f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
                   for f in dataclasses.fields(cls))
    return fields, frozenset(key for _, key, _, _ in fields)


def _shown(value: Any) -> str:
    if isinstance(value, (dict, list, tuple)):
        return "an object" if isinstance(value, dict) else "an array"
    return json.dumps(value) if value is None or isinstance(value, bool) else repr(value)


def _read_float(value: Any, path: str) -> float:
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{path}: expected a finite number, got {_shown(value)}")


def _read_int(value: Any, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{path}: expected an integer, got {_shown(value)}")


def _read_instance(kind: type, expected: str) -> Callable[[Any, str], Any]:
    def read(value: Any, path: str):
        if isinstance(value, kind):
            return value
        raise ConfigError(f"{path}: expected {expected}, got {_shown(value)}")
    return read


_SCALAR_READERS = {float: _read_float, int: _read_int,
                   str: _read_instance(str, "a string"),
                   bool: _read_instance(bool, "true or false"),
                   dict: _read_instance(dict, "an object")}


@functools.cache
def _reader(hint: Any) -> Callable[[Any, str], Any]:
    """The reader of a field type: called as reader(value, path)."""
    if hint in _SCALAR_READERS:
        return _SCALAR_READERS[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union or origin is UnionType:
        (inner,) = (arg for arg in args if arg is not type(None))
        read_inner = _reader(inner)
        return lambda value, path: None if value is None else read_inner(value, path)
    if origin is tuple or origin is abc.Sequence:
        return _array_reader(_reader(args[0]), origin is tuple)
    if dataclasses.is_dataclass(hint):
        return functools.partial(from_tree, hint)
    raise TypeError(f"no record reader for {hint!r}")


def _array_reader(read_item: Callable[[Any, str], Any], as_tuple: bool):
    def read(value: Any, path: str):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array, got {_shown(value)}")
        items = [read_item(item, f"{path}[{i}]") for i, item in enumerate(value)]
        return tuple(items) if as_tuple else items
    return read


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
                if any(row[j] != self.hessian[j][i] for i, row in enumerate(self.hessian)
                       for j in range(i)):
                    raise ConfigError("hessian must be exactly symmetric")
        if self.dimension == 0:
            raise ConfigError(f"{self.kind} function needs at least one dimension")

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
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must lie in 0..2^32 = {MAX_SHOTS}, got {self.shots}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.group_mode not in GROUP_MODES:
            raise ConfigError(f"group_mode must be one of {GROUP_MODES}")
        if self.phase_variant not in PHASE_VARIANTS:
            raise ConfigError(f"phase_variant must be one of {PHASE_VARIANTS}")
        if self.max_grid_bits is not None and not 1 <= self.max_grid_bits <= MAX_INDEX_BITS:
            raise ConfigError(f"max_grid_bits must be in 1..{MAX_INDEX_BITS}")
        if not 0.0 <= self.prob_floor < 1.0:
            raise ConfigError("prob_floor must lie in [0, 1)")

    @property
    def dimension(self) -> int:
        return self.function.dimension

    def resolve_domain(self) -> DomainBox:
        """Explicit domain, or the default cube centered at x; its half-width
        2^(n-1) mu from explicit params only for a grid within the guard."""
        if self.domain is not None:
            return self.domain
        if self.accuracy is not None:
            half = self.accuracy.gamma
        else:
            check_grid_bits(self.params.n, self.dimension, self.max_grid_bits)
            half = sampling_radius(self.params)
        return DomainBox.cube(self.dimension, half, center=tuple(self.x))

    def resolve_model(self, context: str = "config") -> FunctionModel:
        """The objective on its domain; a model the coefficients cannot
        certify, say one whose derivative bounds overflow, is a ConfigError
        naming context.function (context is this config's path, as in
        merged)."""
        domain = self.resolve_domain()
        try:
            return self.function.build(domain)
        except ValueError as exc:
            raise ConfigError(f"{context}.function: {exc}") from exc

    def resolve_params(self, model: FunctionModel) -> AlgorithmParams:
        """Explicit params win; otherwise plan from the accuracy targets."""
        if self.params is not None:
            return self.params
        return select_parameters(self.accuracy, model.grad_bound,
                                 model.hess_bound, model.p, self.max_grid_bits)

    @classmethod
    def from_dict(cls, payload: dict) -> ExperimentConfig:
        return from_tree(cls, payload, "config")

    @classmethod
    def from_json_file(cls, path: str) -> ExperimentConfig:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        return cls.from_dict(payload)

    def merged(self, entry: dict, context: str = "sweep entry") -> ExperimentConfig:
        """Sweep-entry merge: top-level fields of entry override this config.

        The shorthand {"p": k} expands to a k-dimensional linear objective
        with coefficients 0.5, x at the origin, and no explicit overrides,
        which is what dimension sweeps in benchmarks want; k above
        MAX_INDEX_BITS is refused before any list is built, since every axis
        takes a grid bit. context is the entry's path in error messages.
        """
        base = to_tree(self)
        base["sweep"] = []
        entry = dict(entry)
        if "p" in entry:
            k = _read_int(entry.pop("p"), f"{context}.p")
            if not 1 <= k <= MAX_INDEX_BITS:
                raise ConfigError(f"{context}.p: must be a positive integer of at most "
                                  f"{MAX_INDEX_BITS} (one grid bit per axis), got {k}")
            entry = {"function": {"kind": "linear", "coefficients": [0.5] * k},
                     "x": [0.0] * k, "domain": None, "params": None, **entry}
        base.update(entry)
        return from_tree(ExperimentConfig, base, context)


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


def sample_summary(chi: GridState, shots: int, seed: int,
                   params: AlgorithmParams) -> dict:
    """Aggregate the estimates of sample_measurements(chi, shots, seed,
    params) from their outcome counts alone: no shot is decoded.

    Each block of shots sample_blocks draws is added into one count per
    grid index. Outcomes are listed by falling count, ties in grid-index
    order. mean_gradient[m] is axis m's sample mean of the estimates k / s,
    N_m / (shots s) with N_m = sum_g C_g k(g) over the axis's marginal
    counts C_g (signed_index_mean): k is the signed lattice index
    (algorithm.axis_signed_indices) and s the double 2^n lam mu that
    axis_decode_values divides by. N_m is an exact integer,
    |N_m| <= shots 2^(n-1) <= 2^(31+n), and the mean is rounded once; a zero
    sum gives +0.0. No array grows with the number of shots.
    """
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most 2^32 = {MAX_SHOTS}, got {shots}")
    n, p = chi.n, chi.p
    counts = np.zeros(1 << (n * p), dtype=np.intp)
    for _, indices in sample_blocks(chi, shots, seed):
        np.add.at(counts, indices, 1)
    grid = counts.reshape((1 << n,) * p)
    k, scale = axis_signed_indices(n), float(1 << n) * params.lam * params.mu
    mean = [signed_index_mean(grid.sum(axis=tuple(a for a in range(p) if a != m)), k,
                              shots, scale) for m in range(p)]
    outcomes = np.flatnonzero(counts)
    counts = counts[outcomes]
    order = np.argsort(-counts, kind="stable")
    points = grid_points(outcomes[order], n, p)
    return {
        "shots": shots,
        "seed": seed,
        "outcome_counts": RowTable(g=(np.arange(1 << n), points),
                                   count=(counts[order], None)),
        "mean_gradient": mean,
    }


def signed_index_mean(counts: np.ndarray, k: np.ndarray, shots: int, scale: float) -> float:
    """sum_i counts[i] k[i] / (shots scale), the sum exact and the quotient
    rounded once to the nearest float by one division of Python ints, which
    CPython rounds correctly; a zero sum gives +0.0. The counts add up to at
    most MAX_SHOTS = 2^32 and |k| <= 2^61. The sum leaves int64 once |k|
    reaches 2^31, so k is split as hi 2^31 + lo, 0 <= lo < 2^31, whose sums
    stay within 2^62 and below 2^63 in int64 and join in a Python int.
    """
    total = (int(counts @ (k >> 31)) << 31) + int(counts @ (k & ((1 << 31) - 1)))
    numerator, denominator = scale.as_integer_ratio()
    return total * denominator / (shots * numerator)


def record_json(tree: Any, write: Callable[[str], Any] | None = None) -> str | None:
    """The text of json.dumps(tree, indent=2, allow_nan=False) + "\\n", byte for
    byte: returned whole, or, given write, handed to it in blocks and not
    returned.

    Values are written as the json module writes them: floats as
    float.__repr__ writes them, strings ASCII-escaped, tuples as lists; a NaN
    or an infinity anywhere raises ValueError. Dict keys must be strings. A
    RowTable is written as its list of row dicts, straight from its columns,
    floattext.BLOCK_VALUES rows at a time (see _write_table); a long float
    column is formatted by floattext.float_texts, which proves each text
    equal to float.__repr__'s and calls repr where it cannot. The text is
    ASCII. Each block ends where a full block of table rows does, so the
    writer holds the pieces of one block of rows, never the whole text: a
    record with no table longer than a block is one block, one join.
    Joined, the blocks are the text. A write that raises stops the writer.
    """
    parts: list[str] = []
    sink = parts.append if write is None else write
    out: list[str] = []
    _write(tree, "\n", out, sink)
    out.append("\n")
    sink("".join(out))
    return "".join(parts) if write is None else None


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _write(value: Any, newline: str, out: list[str], write: Callable[[str], Any]) -> None:
    """Append value's JSON text to out; newline is the line break plus this
    level's indent. A RowTable hands out's pieces to write, joined, after
    each full block of its rows (see _write_table)."""
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
        _write_table(value, newline, out, write)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write(item, inner, out, write)
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
            _write(item, inner, out, write)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Placeholder for each value of a RowTable's row template: its JSON text,
# "\u0000", cannot occur in the template's own field names and brackets.
_SLOT = "\0"
_SLOT_TEXT = encode_basestring_ascii(_SLOT)


def _write_table(table: RowTable, newline: str, out: list[str],
                 write: Callable[[str], Any]) -> None:
    """Append a RowTable's JSON text: a row template filled from the columns.

    The template is one row rendered by _write with a _SLOT in every value
    position, so its layout is the generic writer's by construction. Each
    distinct value of a coded field is formatted once, joined to the
    template literals on both sides of it, and indexed by its codes; a
    per-row value and a literal between two per-row values (or after the
    last) stay pieces of their own. A distribution row is 6 pieces: one per
    coordinate of g and gradient, the probability and the closing brace.

    Rows go into out one block of floattext.BLOCK_VALUES rows at a time, one
    piece position at a time, as a strided slice over the block's rows; a
    per-row value is formatted there, so each float_texts call is one
    vectorized pass. Every block but the last is then handed to write,
    joined with whatever out held before it, and out is emptied.
    """
    rows = len(table)
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    shape = {name: _SLOT if codes is None or codes.ndim == 1 else [_SLOT] * codes.shape[1]
             for name, (_, codes) in table.fields.items()}
    template: list[str] = []
    _write(shape, inner, template, template.append)
    literals = "".join(template).split(_SLOT_TEXT)
    # Value positions in template order: (texts, codes) for a coded value,
    # (values, None) for a per-row one.
    slots = []
    for values, codes in table.fields.values():
        if codes is None:
            slots.append((values, None))
        else:
            texts = _value_texts(values, codes)
            slots.extend((texts, column) for column in codes.reshape(rows, -1).T)
    # A literal joins the coded value after it, else the coded value before
    # it, else is a piece of its own. Pieces are slots too: a literal is
    # (str, None), and a coded value's texts carry their literals.
    pieces = []
    pending = "," + inner + literals[0]
    for k, (texts, column) in enumerate(slots):
        after = literals[k + 1]
        if column is None:
            if pending:
                pieces.append((pending, None))
            pieces.append((texts, None))
            pending = after
            continue
        next_coded = k + 1 < len(slots) and slots[k + 1][1] is not None
        suffix = "" if next_coded else after
        pieces.append((np.array([pending + text + suffix for text in texts], dtype=object),
                       column))
        pending = after if next_coded else ""
    if pending:
        pieces.append((pending, None))
    width = len(pieces)
    out.append("[")
    for block in blocks(rows, BLOCK_BYTES // BLOCK_VALUES):  # BLOCK_VALUES rows
        count = block.stop - block.start
        start = len(out)
        out.extend(repeat(None, count * width))
        stop = len(out)
        for k, (source, column) in enumerate(pieces):
            if column is not None:
                texts = source[column[block]].tolist()
            elif isinstance(source, str):
                texts = [source] * count
            else:
                texts = _value_texts(source[block], None)
            out[start + k:stop:width] = texts
        if block.start == 0:
            # The first row has no comma before it.
            out[start] = out[start][1:]
        if block.stop < rows:
            write("".join(out))
            out.clear()
    out.append(newline + "]")


def _value_texts(values: np.ndarray, codes: np.ndarray | None) -> list[str]:
    """JSON text of every entry of values.

    Only the entries the codes select must be finite, as json.dumps of the
    rows would see only those.
    """
    if values.dtype.kind != "f":
        return list(map(int.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        used = values if codes is None else values[codes]
        finite = np.isfinite(used)
        if not finite.all():
            _float_text(float(used[~finite][0]))
    return float_texts(values)


@dataclass
class ResultRecord:
    """Everything one command produced; a pure function of config and seed.

    The outcome tables are kept as given (RowTable from the commands), and
    record_json writes them from their arrays.
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

    def to_json(self, write: Callable[[str], Any] | None = None) -> str | None:
        """The record's text, or, given write, its blocks handed to write (see
        record_json, which raises on inf/nan: records must never smuggle them
        through)."""
        return record_json(to_tree(self), write)

    @classmethod
    def from_json(cls, text: str) -> ResultRecord:
        return from_tree(cls, json.loads(text), "record")
