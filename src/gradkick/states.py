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
- SparseTripartiteState, the general form: parallel arrays of label code,
  int64 word, flat grid index and complex128 amplitude (40 bytes per term)
  for any set of distinct basis triples. The acceptance gate builds it from
  SparseTerms, phase-rotates it and collapses it; the shift, the oracle and
  the grid transform take only the aligned form.

Every term's label and word are explicit, or in the aligned form fixed
exactly by its position and mode, which makes the uncomputation claim
checkable exactly instead of assumed. run_pipeline peaks at about 80 bytes
per grid point under tracemalloc at n=8, p=2 (2^16 points), and at 96 with
n=6, p=3.

Arrays of grid points, offsets and represented points are (k, p), one row
per point, but they are filled one axis at a time and never reduced over
axis=1: numpy runs its inner loop over the last axis, so with p = 2 or 3 a
row-wise pass pays its per-loop overhead every few elements, while a column
pass runs over all k. Each axis takes only 2^n values, so a column is a
gather from a table of them. models.row_dots is the exception: it must
multiply rows through numpy's dot kernel to match np.dot bit for bit, and a
per-axis sum rounds differently wherever that kernel fuses multiply-adds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .oracle import BASE_CODE, DomainLabel, grid_center

# One dense complex vector over 2^26 points is 1 GiB, and run_pipeline peaks
# near 80-96 bytes per point, 5-6 GiB at this size; refuse anything larger
# unless the caller overrides the guard explicitly.
DEFAULT_MAX_GRID_BITS = 26

NORM_TOL = 1e-12


class GridSizeError(ValueError):
    """Grid would exceed the dense-memory guard."""


def check_grid_bits(n: int, p: int, max_grid_bits: int | None = None) -> None:
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    limit = DEFAULT_MAX_GRID_BITS if max_grid_bits is None else int(max_grid_bits)
    if n * p > limit:
        raise GridSizeError(
            f"grid needs {n * p} bits ({p} axes of {n} bits), over the "
            f"{limit}-bit guard; pass a larger max_grid_bits to override"
        )


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


def axis_offsets(n: int) -> np.ndarray:
    """g - g0 for every single-axis coordinate g, as floats."""
    return np.arange(1 << n, dtype=np.int64).astype(float) - grid_center(n)


def grid_points(indices: np.ndarray, n: int, p: int) -> np.ndarray:
    """grid_point_of over an array of flat indices, as a (k, p) int64 array."""
    return axis_columns(indices, n, p, [np.arange(1 << n, dtype=np.int64)] * p)


def grid_offsets(indices: np.ndarray | None, n: int, p: int) -> np.ndarray:
    """g - g0 per axis for each flat index (None: the whole grid in order):
    the grid offsets the shift scales by mu."""
    return axis_columns(indices, n, p, [axis_offsets(n)] * p)


def represented_points(x: Sequence[float], mu: float, indices: np.ndarray | None,
                       n: int) -> np.ndarray:
    """x + mu * (g - g0) for the grid point g of each flat index (None: the
    whole grid in order), as a (k, p) array."""
    off = axis_offsets(n)
    tables = [v + mu * off for v in np.asarray(x, dtype=float)]
    return axis_columns(indices, n, len(tables), tables)


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
        return np.abs(self.amplitudes) ** 2

    def grid_of(self, index: int) -> tuple[int, ...]:
        return grid_point_of(index, self.n, self.p)


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


class TermView(Sequence[SparseTerm]):
    """Read-only sequence of a state's terms, built as SparseTerm on access."""

    def __init__(self, state: SparseTripartiteState | GridAlignedState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state)

    def __getitem__(self, i: int) -> SparseTerm:
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("term index out of range")
        return self._state.term(i % len(self))


class SparseTripartiteState:
    """Finite superposition over distinct (label, word, grid) basis triples.

    Term i is |label_i> |words[i]> |grid[i]> with amplitude amplitudes[i].
    Every label shares the evaluation point x; labels[i] is BASE_CODE (-1)
    for the BASE label or the flat grid index h for SHIFTED(h), and grid[i]
    is a flat row-major grid index. The arrays are read-only, so states may
    share the ones an operator leaves unchanged. terms presents the same
    data as SparseTerm objects, built only when read.

    Every constructor ends in __post_init__, which validates the arrays and
    checks that the norm is 1 within NORM_TOL.
    """

    def __init__(self, n: int, p: int, terms: Sequence[SparseTerm]) -> None:
        terms = tuple(terms)
        points = {t.label.x for t in terms}
        if len(points) > 1:
            raise ValueError(f"terms mix evaluation points {sorted(points)}")
        self._assign(
            n, p, points.pop() if points else (0.0,) * p,
            [label_code(t.label, n, p) for t in terms],
            [t.word for t in terms],
            [grid_index_of(t.grid, n, p) for t in terms],
            [t.amplitude for t in terms])
        self.__post_init__()

    @classmethod
    def from_arrays(cls, n: int, p: int, x: Sequence[float], labels: np.ndarray,
                    words: np.ndarray, grid: np.ndarray,
                    amplitudes: np.ndarray) -> SparseTripartiteState:
        state = cls.__new__(cls)
        state._assign(n, p, x, labels, words, grid, amplitudes)
        state.__post_init__()
        return state

    def _assign(self, n, p, x, labels, words, grid, amplitudes) -> None:
        self.n, self.p = n, p
        self.x = tuple(float(v) for v in x)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.words = np.asarray(words, dtype=np.int64)
        self.grid = np.asarray(grid, dtype=np.int64)
        self.amplitudes = np.asarray(amplitudes, dtype=np.complex128)

    def __post_init__(self) -> None:
        """Validate the four arrays and make them read-only."""
        size = 1 << (self.n * self.p)
        arrays = (self.labels, self.words, self.grid, self.amplitudes)
        if any(a.shape != (self.amplitudes.size,) for a in arrays):
            raise ValueError("labels, words, grid and amplitudes must be 1-d "
                             "arrays of one length")
        if len(self.x) != self.p:
            raise ValueError(f"evaluation point has {len(self.x)} axes, expected {self.p}")
        bad = np.flatnonzero((self.grid < 0) | (self.grid >= size))
        if bad.size:
            raise ValueError(f"grid index {int(self.grid[bad[0]])} out of range "
                             f"for n={self.n}, p={self.p}")
        bad = np.flatnonzero((self.labels < BASE_CODE) | (self.labels >= size))
        if bad.size:
            raise ValueError(f"label code {int(self.labels[bad[0]])} out of range "
                             f"for n={self.n}, p={self.p}")
        dup = _first_duplicate(self.labels, self.words, self.grid)
        if dup is not None:
            t = self.terms[dup]
            raise ValueError(f"duplicate basis triple {(t.label, t.word, t.grid)}")
        for a in arrays:
            a.flags.writeable = False
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1 within {NORM_TOL}")

    def replace(self, amplitudes: np.ndarray) -> SparseTripartiteState:
        """New state with the amplitudes swapped out, the phase rotation's
        only change; labels, words and grid are shared, which their read-only
        flag makes safe."""
        return SparseTripartiteState.from_arrays(self.n, self.p, self.x, self.labels,
                                                 self.words, self.grid, amplitudes)

    @property
    def terms(self) -> TermView:
        return TermView(self)

    def term(self, i: int) -> SparseTerm:
        label = int(self.labels[i])
        shift = None if label == BASE_CODE else grid_point_of(label, self.n, self.p)
        return SparseTerm(DomainLabel(x=self.x, shift=shift), int(self.words[i]),
                          grid_point_of(int(self.grid[i]), self.n, self.p),
                          complex(self.amplitudes[i]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __len__(self) -> int:
        return self.amplitudes.size

    def __iter__(self) -> Iterator[SparseTerm]:
        return iter(self.terms)


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

    @property
    def terms(self) -> TermView:
        return TermView(self)

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


def _first_duplicate(labels: np.ndarray, words: np.ndarray,
                     grid: np.ndarray) -> int | None:
    """Index of a term repeating an earlier (label, word, grid) triple, or None."""
    order = np.lexsort((grid, words, labels))
    sorted_rows = (labels[order], words[order], grid[order])
    same = np.logical_and.reduce([a[1:] == a[:-1] for a in sorted_rows])
    hits = np.flatnonzero(same)
    return int(order[hits[0] + 1]) if hits.size else None
