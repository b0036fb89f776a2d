"""State containers: dense grid amplitudes and the tripartite state in two forms.

The grid register is dense (complex array over {0,...,2^n-1}^p in row-major
order). The full tripartite system is not: a dense vector over domain labels,
range words and grid indices would be astronomically large, while the
pipeline never populates more than 2^(pn) basis terms. Those terms share one
evaluation point and are held in one of two forms, so that every operator is
a whole-array pass:

- GridAlignedState, the pipeline's form. After the first transform, term h
  sits at grid index h with label BASE or SHIFTED(h), and only its word and
  amplitude vary. The state holds that label mode, one int64 word per term
  and one complex amplitude, shared by all terms until the phase kick tells
  them apart: 8 bytes per term before the kick, 24 after.
- SparseTripartiteState, the general form: the SparseTerms it is given, any
  distinct basis triples, with their label codes, words, flat grid indices
  and amplitudes derived once as arrays. The acceptance gate builds it from
  a few terms, phase-rotates it and collapses it; the shift, the oracle and
  the grid transform take only the aligned form. Both forms answer
  term(i), which collapse_to_grid reads only to name a stray term.

Every term's label and word are explicit, or in the aligned form fixed
exactly by its position and mode, which makes the uncomputation claim
checkable exactly instead of assumed. run_pipeline peaks at about 65 bytes
per grid point under tracemalloc at n=8, p=2 (2^16 points), and at 73 with
n=6, p=3.

Arrays of grid points, offsets and represented points are (k, p), one row
per point, but they are filled one axis at a time and never reduced over
axis=1: numpy runs its inner loop over the last axis, so with p = 2 or 3 a
row-wise pass pays its per-loop overhead every few elements, while a column
pass runs over all k. Each axis takes only 2^n values, so a column is a
gather from a table of them. A dot product over the axes is a column pass
too: models.row_dots adds one column of products per axis, in axis order,
so f on the grid, the audit's linear part and the scalar evaluate share its
bits. Squared offset norms, exact in any order, are per-axis squares added
as an outer sum (grid_offset_norms).

The row-major layout lives here alone: grid_index_of, grid_point_of,
axis_columns and grid_outer, the per-axis outer product. Only grid_points
and the sampler read given flat indices; grid_offsets and represented_points
cover the whole grid. A loop whose temporaries must not grow with its input
takes its slices from blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .oracle import BASE_CODE, DomainLabel, grid_center
from .params import PlannerError

# One dense complex vector over 2^26 points is 1 GiB, and run_pipeline peaks
# near 65-73 bytes per point, 4-5 GiB at this size; refuse anything larger
# unless the caller overrides the guard explicitly.
DEFAULT_MAX_GRID_BITS = 26

# Flat grid indices are int64: no max_grid_bits may admit more bits than this.
MAX_INDEX_BITS = 62

NORM_TOL = 1e-12

# Working set of one pass of every blocked loop: 64 KiB per temporary array.
BLOCK_BYTES = 1 << 16


class GridSizeError(PlannerError):
    """Grid would exceed the dense-memory guard, with n planned or given."""


def check_grid_bits(n: int, p: int,
                    max_grid_bits: int | None = None) -> tuple[int, int, int]:
    """The one grid-size guard, checked by every command before any format,
    baseline or grid work. Returns the record's grid block: (total bits,
    grid size, bytes for one dense complex sector)."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    bits = n * p
    limit = DEFAULT_MAX_GRID_BITS if max_grid_bits is None else int(max_grid_bits)
    if not 1 <= limit <= MAX_INDEX_BITS:
        raise ValueError(f"max_grid_bits must be in 1..{MAX_INDEX_BITS}, got {limit}")
    if bits > limit:
        hint = ("pass a larger max_grid_bits to override" if bits <= MAX_INDEX_BITS else
                f"flat grid indices are int64, so no max_grid_bits admits more than "
                f"{MAX_INDEX_BITS} bits")
        raise GridSizeError(
            f"grid needs {bits} bits ({p} {'axis' if p == 1 else 'axes'} of {n} bits), "
            f"over the {limit}-bit guard; {hint}"
        )
    size = 1 << bits
    return bits, size, size * 16


def blocks(total: int, itemsize: int) -> Iterator[slice]:
    """Consecutive slices covering range(total) in order, each of at most
    BLOCK_BYTES // itemsize items."""
    step = BLOCK_BYTES // itemsize
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def grid_index_of(g: Sequence[int], n: int, p: int) -> int:
    """Flat row-major index of a grid point; first axis varies slowest."""
    idx = tuple(int(v) for v in g)
    if len(idx) != p:
        raise ValueError(f"grid index has {len(idx)} axes, expected {p}")
    size = 1 << n
    out = 0
    for v in idx:
        if not 0 <= v < size:
            raise ValueError(f"grid index {idx} out of range for n={n}")
        out = (out << n) | v
    return out


def grid_point_of(index: int, n: int, p: int) -> tuple[int, ...]:
    """Inverse of grid_index_of."""
    if not 0 <= index < (1 << (n * p)):
        raise ValueError(f"flat index {index} out of range")
    mask = (1 << n) - 1
    return tuple((index >> (n * (p - 1 - axis))) & mask for axis in range(p))


def axis_columns(indices: np.ndarray | None, n: int, p: int,
                 tables: Sequence[np.ndarray]) -> np.ndarray:
    """(k, p) array whose column a is tables[a] read at axis a's coordinate
    of each flat index; None stands for every grid point in row-major order.

    Each table holds the 2^n values of one axis, all of one dtype. Columns
    are filled one axis at a time (see the module docstring).
    """
    size = 1 << n
    if indices is None:
        out = np.empty((size,) * p + (p,), dtype=tables[0].dtype)
        for axis, table in enumerate(tables):
            out[..., axis] = table.reshape((size,) + (1,) * (p - 1 - axis))
        return out.reshape(-1, p)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = np.empty((idx.size, p), dtype=tables[0].dtype)
    coord = np.empty(idx.size, dtype=np.int64)
    column = np.empty(idx.size, dtype=out.dtype)
    for axis, table in enumerate(tables):
        np.right_shift(idx, n * (p - 1 - axis), out=coord)
        np.bitwise_and(coord, size - 1, out=coord)
        out[:, axis] = np.take(table, coord, out=column, mode="clip")
    return out


def grid_outer(ufunc: np.ufunc, tables: Sequence[np.ndarray]) -> np.ndarray:
    """ufunc(...ufunc(tables[0][g_1], tables[1][g_2])..., tables[p-1][g_p])
    for every grid point g, as one flat array in row-major order: the outer
    product of one table per axis, combined from the first axis on."""
    out = tables[0]
    for table in tables[1:]:
        out = ufunc.outer(out, table)
    return out.reshape(-1)


def axis_offsets(n: int) -> np.ndarray:
    """g - g0 for every single-axis coordinate g, as floats."""
    return np.arange(1 << n, dtype=np.int64).astype(float) - grid_center(n)


def grid_points(indices: np.ndarray, n: int, p: int) -> np.ndarray:
    """grid_point_of over an array of flat indices, as a (k, p) int64 array."""
    return axis_columns(indices, n, p, [np.arange(1 << n, dtype=np.int64)] * p)


def grid_offsets(n: int, p: int) -> np.ndarray:
    """g - g0 per axis for every grid point in row-major order, as a (2^(pn),
    p) array: the grid offsets the shift scales by mu."""
    return axis_columns(None, n, p, [axis_offsets(n)] * p)


def grid_offset_norms(n: int, p: int) -> np.ndarray:
    """|g - g0|^2 for every flat index in order, from per-axis squares.

    Each squared offset is a multiple of 1/4, and so is every partial sum of
    p of them; below 2^51 (p 4^n < 2^53, far beyond any grid that fits in
    memory) all of these are exact, so the outer sum gives the bits of
    row_dots(off, off), as would any summation order.
    """
    return grid_outer(np.add, [np.square(axis_offsets(n))] * p)


def represented_points(x: Sequence[float], mu: float, n: int) -> np.ndarray:
    """x + mu * (g - g0) for every grid point g in row-major order, as a
    (2^(pn), p) array."""
    off = axis_offsets(n)
    tables = [v + mu * off for v in np.asarray(x, dtype=float)]
    return axis_columns(None, n, len(tables), tables)


@dataclass(eq=False)
class GridState:
    """Normalized amplitudes over the grid register.

    Index i encodes (g_1, ..., g_p) in row-major order: the first axis varies
    slowest. Construction rejects input whose norm is not 1 within NORM_TOL,
    because every producer in this package is unitary.
    """

    n: int
    p: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # The memory guard lives at the allocation entry point (the
        # pipeline); here only shape sanity is enforced.
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << (self.n * self.p),):
            raise ValueError(
                f"expected {1 << (self.n * self.p)} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1 within {NORM_TOL}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return probabilities(self.amplitudes)

    def grid_of(self, index: int) -> tuple[int, ...]:
        return grid_point_of(index, self.n, self.p)


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 of each amplitude: the one expression behind every outcome
    probability, whether of a whole grid or of a window of it."""
    return np.abs(amplitudes) ** 2


class SparseTerm(NamedTuple):
    """One basis term (domain label, range word, grid index, amplitude)."""

    label: DomainLabel
    word: int
    grid: tuple[int, ...]
    amplitude: complex


def label_code(label: DomainLabel, n: int, p: int) -> int:
    """Array code of a label: BASE_CODE for BASE, the flat grid index of g
    for SHIFTED(g)."""
    return BASE_CODE if label.shift is None else grid_index_of(label.shift, n, p)


class SparseTripartiteState:
    """Finite superposition over distinct (label, word, grid) basis triples.

    terms holds the SparseTerms the state was built from, all at one
    evaluation point x. Every construction ends in __post_init__, which
    derives one read-only array per field: labels[i] is BASE_CODE (-1) for
    BASE or the flat grid index h for SHIFTED(h), and grid[i] is a flat
    row-major grid index (label_code and grid_index_of refuse either off the
    grid). It also refuses a repeated triple and a norm not 1 within NORM_TOL.
    """

    def __init__(self, n: int, p: int, terms: Sequence[SparseTerm]) -> None:
        self.n, self.p = n, p
        self.terms = tuple(terms)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Derive the four arrays from the terms, once, and validate them."""
        n, p = self.n, self.p
        points = {t.label.x for t in self.terms}
        if len(points) > 1:
            raise ValueError(f"terms mix evaluation points {sorted(points)}")
        self.x = tuple(float(v) for v in (points.pop() if points else (0.0,) * p))
        if len(self.x) != p:
            raise ValueError(f"evaluation point has {len(self.x)} axes, expected {p}")
        self.labels = np.array([label_code(t.label, n, p) for t in self.terms], dtype=np.int64)
        self.words = np.array([t.word for t in self.terms], dtype=np.int64)
        self.grid = np.array([grid_index_of(t.grid, n, p) for t in self.terms], dtype=np.int64)
        self.amplitudes = np.array([t.amplitude for t in self.terms], dtype=np.complex128)
        seen = set()
        for t, triple in zip(self.terms, zip(self.labels.tolist(), self.words.tolist(),
                                            self.grid.tolist())):
            if triple in seen:
                raise ValueError(f"duplicate basis triple {(t.label, t.word, t.grid)}")
            seen.add(triple)
        for a in (self.labels, self.words, self.grid, self.amplitudes):
            a.flags.writeable = False
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1 within {NORM_TOL}")

    def replace(self, amplitudes: np.ndarray) -> SparseTripartiteState:
        """The state rebuilt from its terms with the amplitudes swapped out,
        the phase rotation's only change."""
        return SparseTripartiteState(self.n, self.p, [t._replace(amplitude=a) for t, a in zip(
            self.terms, np.asarray(amplitudes, dtype=np.complex128).tolist(), strict=True)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def term(self, i: int) -> SparseTerm:
        return self.terms[i]

    def __len__(self) -> int:
        return len(self.terms)


class GridAlignedState:
    """The pipeline's tripartite state: one term per grid index, in order.

    Term h is |label_h> |words[h]> |h>. Either every label is BASE
    (shifted False) or every label_h is SHIFTED(h), the term's own grid
    index (shifted True), so neither labels nor grid indices are stored.
    amplitudes is 0-d while every term has the same amplitude, as after the
    first transform, and holds one complex128 per term once the phase kick
    has told them apart. The arrays are read-only, as in
    SparseTripartiteState, and every constructor checks that the norm is 1
    within NORM_TOL.
    """

    def __init__(self, n: int, p: int, x: Sequence[float], shifted: bool,
                 words: np.ndarray, amplitudes: complex | np.ndarray) -> None:
        self.n, self.p = n, p
        self.x = tuple(float(v) for v in x)
        self.shifted = bool(shifted)
        self.words = np.asarray(words, dtype=np.int64)
        self.amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        size = 1 << (n * p)
        if len(self.x) != p:
            raise ValueError(f"evaluation point has {len(self.x)} axes, expected {p}")
        if self.words.shape != (size,):
            raise ValueError(f"expected {size} words, got shape {self.words.shape}")
        if self.amplitudes.shape not in ((), (size,)):
            raise ValueError(f"expected one amplitude or {size}, got shape "
                             f"{self.amplitudes.shape}")
        self.words.flags.writeable = False
        self.amplitudes.flags.writeable = False
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1 within {NORM_TOL}")

    @classmethod
    def prepared(cls, n: int, p: int, x: Sequence[float]) -> GridAlignedState:
        """The grid transform of |BASE> |0> |0...0>, in closed form.

        Every term gets 1 / sqrt(2^n) multiplied in once per axis, with
        imaginary part +0.0, which is what the per-axis transform computes
        for a basis state at grid index 0. The words are a broadcast zero.
        """
        scale = 1.0 / math.sqrt(float(1 << n))
        amplitude = 1.0
        for _ in range(p):
            amplitude *= scale
        words = np.broadcast_to(np.int64(0), (1 << (n * p),))
        return cls(n, p, x, False, words, complex(amplitude, 0.0))

    def replace(self, **fields) -> GridAlignedState:
        """New state with some of shifted/words/amplitudes swapped out; the
        rest are shared."""
        values = {"shifted": self.shifted, "words": self.words,
                  "amplitudes": self.amplitudes}
        values.update(fields)
        return GridAlignedState(self.n, self.p, self.x, **values)

    def term(self, h: int) -> SparseTerm:
        g = grid_point_of(h, self.n, self.p)
        amplitude = self.amplitudes if self.amplitudes.ndim == 0 else self.amplitudes[h]
        return SparseTerm(DomainLabel(x=self.x, shift=g if self.shifted else None),
                          int(self.words[h]), g, complex(amplitude))

    def norm(self) -> float:
        if self.amplitudes.ndim == 0:
            return abs(complex(self.amplitudes)) * math.sqrt(float(len(self)))
        return float(np.linalg.norm(self.amplitudes))

    def __len__(self) -> int:
        return self.words.size

