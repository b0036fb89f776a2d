"""Fixed-point range encoding and the domain-label algebra.

Range words are unsigned N-bit integers; word w decodes to a0 + a1 * w. The
planner sizes the format so every value the pipeline can produce is within
half a step of a representable value, which is exactly the accuracy the
error analysis charges to arithmetic. Words form a group under modular
addition (two's-complement reading) or XOR; XOR makes the oracle operator
its own inverse.

Domain labels are the basis symbols of the domain register: BASE denotes the
evaluation point x, SHIFTED(g) denotes x + mu * (g - g0) where g0 is the
half-integer grid center. The shift map swaps BASE with SHIFTED(g) and fixes
every other label, which is an involution for each fixed g, so the shift
operator is self-inverse. Array-backed states store a label as an integer
code: BASE_CODE for BASE, the flat grid index of g for SHIFTED(g).

quantize, decode and the range group operations take a scalar or a numpy
array and act elementwise, so the pipeline applies them to every term in
one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .models import FunctionModel
    from .params import AlgorithmParams

# Widest range format quantized within nu / 2 + nu / 256 in float64 (plan_format).
MAX_WORD_BITS = 43
GROUP_MODES = ("modular", "xor")

# Label code of BASE; SHIFTED(g) is coded by the flat grid index of g (>= 0).
BASE_CODE = -1


class RangeOverflowError(ValueError):
    """Value outside what the range format can represent; the planner's range_bound was too small."""


class DomainError(ValueError):
    """A represented point left the model's domain box."""


class FormatError(ValueError):
    """No range format of at most MAX_WORD_BITS bits has the requested step and span."""


@dataclass(frozen=True)
class FixedPointFormat:
    """N-bit fixed-point encoding: word w decodes to a0 + a1 * w."""

    bits: int
    a0: float
    a1: float
    group_mode: str = "modular"

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_WORD_BITS:
            raise ValueError(f"bits must be in 1..{MAX_WORD_BITS}, got {self.bits}")
        if not self.a1 > 0:
            raise ValueError("step a1 must be positive")
        if self.group_mode not in GROUP_MODES:
            raise ValueError(f"group_mode must be one of {GROUP_MODES}")

    @property
    def num_words(self) -> int:
        return 1 << self.bits

    @property
    def top(self) -> float:
        """Largest representable value, a0 + a1 * (2^N - 1)."""
        return self.a0 + self.a1 * (self.num_words - 1)

    def decode(self, word):
        """a0 + a1 * word, for an int or elementwise for an int array."""
        check_words(self, word)
        return self.a0 + self.a1 * word


def check_words(fmt: FixedPointFormat, word) -> None:
    """Raise ValueError naming the first word outside [0, 2^N)."""
    words = np.ravel(word)
    bad = np.flatnonzero((words < 0) | (words >= fmt.num_words))
    if bad.size:
        raise ValueError(f"word {words[bad[0]]} does not fit in {fmt.bits} bits")


def plan_format(nu: float, range_bound: float, group_mode: str = "modular") -> FixedPointFormat:
    """Smallest format with step nu whose span covers [-range_bound, range_bound].

    a1 = nu; N is the smallest width with a1 * (2^N - 1) >= 2 * range_bound;
    a0 = -a1 * 2^(N-1). Consequently quantization of any |v| <= range_bound
    lands within nu / 2 of v, up to float64 rounding: quantize and decode
    round v - a0, its quotient by nu, nu times the word and a0 plus that,
    each below 2^N steps, which adds at most nu (3 2^(N-53) + 2^(N-54)) <
    nu 2^(N-51). MAX_WORD_BITS = 43 is the widest N at which that term is
    at most nu / 256, under 1% of the half step (at 52 bits errors reach
    1.29 nu); wider formats raise FormatError.
    """
    nu = float(nu)
    range_bound = float(range_bound)
    if not nu > 0:
        raise FormatError("nu must be positive")
    if not range_bound > 0:
        raise FormatError("range_bound must be positive")
    bits = 1
    while nu * ((1 << bits) - 1) < 2.0 * range_bound:
        bits += 1
        if bits > MAX_WORD_BITS:
            raise FormatError(
                f"range format would need more than {MAX_WORD_BITS} bits; "
                "raise nu or shrink range_bound"
            )
    return FixedPointFormat(bits=bits, a0=-nu * float(1 << (bits - 1)), a1=nu,
                            group_mode=group_mode)


def quantize(fmt: FixedPointFormat, v):
    """Word whose decoded value is nearest v, ties to the even word.

    Accepts v up to half a step beyond the representable endpoints (the
    nearest representable value is then the endpoint itself, still within
    a1 / 2); anything further, or not finite, raises RangeOverflowError.
    A scalar v gives an int; an array gives an int64 array of words.
    """
    values = np.asarray(v, dtype=float)
    # rint rounds half to even on the float quotient, as round() does.
    word = np.rint((values - fmt.a0) / fmt.a1)
    outside = ~((word >= 0) & (word < fmt.num_words))
    if outside.any():
        near = (fmt.a0 - 0.5 * fmt.a1 <= values) & (values <= fmt.top + 0.5 * fmt.a1)
        bad = np.flatnonzero(outside & ~near)
        if bad.size:
            raise RangeOverflowError(
                f"value {float(values.reshape(-1)[bad[0]])!r} outside representable range "
                f"[{fmt.a0!r}, {fmt.top!r}] of the {fmt.bits}-bit format"
            )
        word = np.clip(word, 0, fmt.num_words - 1)
    words = word.astype(np.int64)
    return int(words) if words.ndim == 0 else words


def range_add(fmt: FixedPointFormat, r1, r2):
    """Group operation on range words (ints or int64 arrays); modular
    addition or XOR per the format."""
    check_words(fmt, r1)
    check_words(fmt, r2)
    if fmt.group_mode == "xor":
        return r1 ^ r2
    return (r1 + r2) & (fmt.num_words - 1)


def range_sub(fmt: FixedPointFormat, r1, r2):
    """Inverse of range_add in the second argument; in XOR mode the same map."""
    check_words(fmt, r1)
    check_words(fmt, r2)
    if fmt.group_mode == "xor":
        return r1 ^ r2
    return (r1 - r2) & (fmt.num_words - 1)


@dataclass(frozen=True)
class DomainLabel:
    """Basis symbol of the domain register.

    shift is None for the BASE label (the evaluation point itself) or the
    grid index g for SHIFTED(g). Labels are values: the uncomputation story
    relies on the inverse shift reproducing a label equal to the original.
    """

    x: tuple[float, ...]
    shift: tuple[int, ...] | None = None

    @classmethod
    def base(cls, x: Sequence[float]) -> DomainLabel:
        return cls(x=tuple(float(v) for v in x), shift=None)

    @classmethod
    def shifted(cls, x: Sequence[float], g: Sequence[int]) -> DomainLabel:
        return cls(x=tuple(float(v) for v in x), shift=tuple(int(v) for v in g))

    @property
    def p(self) -> int:
        return len(self.x)

    def point(self, n: int, mu: float) -> np.ndarray:
        """Represented point: x for BASE, x + mu * (g - g0) for SHIFTED(g)."""
        base = np.asarray(self.x, dtype=float)
        if self.shift is None:
            return base
        g0 = grid_center(n)
        return base + mu * (np.asarray(self.shift, dtype=float) - g0)

    def __repr__(self) -> str:
        tag = "BASE" if self.shift is None else f"SHIFTED{self.shift}"
        return f"DomainLabel(x={self.x}, {tag})"


def grid_center(n: int) -> float:
    """Per-axis grid center g0 = 2^(n-1) - 1/2, symmetric about the base point."""
    return float(1 << (n - 1)) - 0.5


def shift_label(d: DomainLabel, g: Sequence[int], n: int) -> DomainLabel:
    """The swap construction: BASE <-> SHIFTED(g), all other labels fixed.

    For each fixed g this is an involution, so it is its own inverse, and
    SHIFTED(g) represents x + mu * (g - g0) exactly: the second oracle
    accuracy axiom holds with zero left-hand side.
    """
    from .states import grid_index_of  # states imports this module
    idx = tuple(int(v) for v in g)
    grid_index_of(idx, n, d.p)  # refuses g off the grid
    if d.shift is None:
        return DomainLabel(x=d.x, shift=idx)
    if d.shift == idx:
        return DomainLabel(x=d.x, shift=None)
    return d


def oracle_value(model: FunctionModel, fmt: FixedPointFormat,
                 params: AlgorithmParams, d: DomainLabel) -> int:
    """Range word for f at the labeled point: quantize(evaluate(point(d))).

    Deterministic by construction. Raises DomainError when the represented
    point is outside the model's box and propagates quantization overflow.
    """
    return int(oracle_words(model, fmt, d.point(params.n, params.mu)[None, :])[0])


def oracle_words(model: FunctionModel, fmt: FixedPointFormat,
                 points: np.ndarray) -> np.ndarray:
    """oracle_value for each row of an (k, p) array of represented points.

    f is evaluated afresh at every row on every call; nothing is cached, so
    the inverse oracle really re-reads f.
    """
    outside = np.flatnonzero(~model.domain_box.contains_points(points))
    if outside.size:
        raise DomainError(f"represented point {points[outside[0]].tolist()} "
                          "outside the domain box")
    return quantize(fmt, model.evaluate_points(points))
