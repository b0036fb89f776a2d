"""Pipeline operators acting on array-backed tripartite states.

Each operator returns a new state and works on all terms in one numpy pass;
arrays an operator leaves unchanged are shared with its input, which keeps
run_pipeline's peak near 96 bytes per grid point (tracemalloc, n=8, p=2;
a state holds 40 bytes per term). The shift and oracle operators are basis
permutations (amplitudes move, never mix), the phase rotation multiplies
amplitudes by unit phases, and the grid transform acts on the grid register
alone, so it could only mix amplitudes within a (label, word) sector; it is
applied to one-sector states only, as the prepared state is. That is why
run_pipeline can collapse onto the grid register before the second transform
and verify factorization exactly there: a broken inverse pair leaves terms
in a wrong sector, and no operator can hide them.

The arithmetic reproduces, bit for bit, what composing the operators term by
term with Python complex numbers gives: phases come from the same cos/sin,
and complex products are written out on real and imaginary parts, because
numpy's complex multiply may fuse them into FMAs and round differently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .oracle import (BASE_CODE, DomainLabel, FixedPointFormat, oracle_words,
                     range_add, range_sub, shift_codes)
from .qft import qft_amplitudes
from .states import (GridState, SparseTripartiteState, is_full_range,
                     label_code, represented_points)

if TYPE_CHECKING:
    from .models import FunctionModel
    from .params import AlgorithmParams

PHASE_VARIANTS = ("direct", "per-bit")


class ResidualEntanglementError(RuntimeError):
    """Pipeline output failed to factor as |label> |word> |grid state>."""


@dataclass
class OracleCallCounter:
    """Counts oracle operator applications, not per-term evaluations.

    A superposed evaluation is one oracle invocation; that accounting is the
    whole point of the two-call complexity claim.
    """

    count: int = 0

    def bump(self) -> None:
        self.count += 1


def unit_phases(lam: float, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of cmath.exp(2j * pi * lam * v) for each v.

    With k = 2j * pi * lam, the complex product k * v has imaginary part
    k.real * 0.0 + k.imag * v (the sum fixes the sign of a zero angle) and a
    real part of +-0, whose exp is exactly 1.
    """
    k = 2j * cmath.pi * lam
    theta = k.real * 0.0 + k.imag * values
    return np.cos(theta), np.sin(theta)


def complex_product(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai)(br + i bi) with Python's complex multiply rounding."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _label_points(s: SparseTripartiteState, params: AlgorithmParams) -> np.ndarray:
    """Represented point of every term's label, as a (terms, p) array:
    x for BASE, x + mu * (g - g0) for SHIFTED(g)."""
    if is_full_range(s.labels, 1 << (s.n * s.p)):
        # The pipeline's case: SHIFTED(h) for every grid index h, in order.
        return represented_points(s.x, params.mu, None, s.n)
    points = represented_points(s.x, params.mu, s.labels, s.n)
    base = s.labels == BASE_CODE
    if base.any():
        points[base] = s.x
    return points


def apply_u_plus(s: SparseTripartiteState, params: AlgorithmParams) -> SparseTripartiteState:
    """Shift operator: label <- c_p(label, g) per term, amplitudes unchanged."""
    return s.replace(labels=shift_codes(s.labels, s.grid))


def apply_u_plus_inverse(s: SparseTripartiteState, params: AlgorithmParams) -> SparseTripartiteState:
    """Inverse shift; the same swap, since the swap is an involution."""
    return s.replace(labels=shift_codes(s.labels, s.grid))


def apply_u_f(s: SparseTripartiteState, model: FunctionModel, fmt: FixedPointFormat,
              params: AlgorithmParams, counter: OracleCallCounter) -> SparseTripartiteState:
    """Oracle operator: word <- word + c_f(label) in the range group."""
    counter.bump()
    values = oracle_words(model, fmt, _label_points(s, params))
    return s.replace(words=range_add(fmt, s.words, values))


def apply_u_f_inverse(s: SparseTripartiteState, model: FunctionModel, fmt: FixedPointFormat,
                      params: AlgorithmParams, counter: OracleCallCounter) -> SparseTripartiteState:
    """Uncomputation of the oracle; costs one oracle call like the forward map
    and evaluates f again rather than reusing the forward words."""
    counter.bump()
    values = oracle_words(model, fmt, _label_points(s, params))
    return s.replace(words=range_sub(fmt, s.words, values))


def apply_phase_rotation(s: SparseTripartiteState, lam: float, fmt: FixedPointFormat,
                         variant: str = "direct") -> SparseTripartiteState:
    """Multiply each term by e^(2 pi i lam c_r(word)).

    The per-bit variant routes every set bit k through diag(1, e^(2 pi i lam
    a1 2^k)) instead, exactly what a bank of single-bit phase gates on the
    range register would do. It differs from the direct variant by the global
    phase e^(2 pi i lam a0), since the bits only ever see the a1 part.
    """
    if variant not in PHASE_VARIANTS:
        raise ValueError(f"variant must be one of {PHASE_VARIANTS}")
    re, im = s.amplitudes.real, s.amplitudes.imag
    if variant == "direct":
        re, im = complex_product(re, im, *unit_phases(lam, fmt.decode(s.words)))
    else:
        for k in range(fmt.bits):
            gate = cmath.exp(2j * cmath.pi * lam * fmt.a1 * float(1 << k))
            bit = ((s.words >> k) & 1).astype(bool)
            kicked_re, kicked_im = complex_product(re, im, gate.real, gate.imag)
            re, im = np.where(bit, kicked_re, re), np.where(bit, kicked_im, im)
    return s.replace(amplitudes=complex_array(re, im))


def apply_qft(s: SparseTripartiteState) -> SparseTripartiteState:
    """Grid-register transform of a state that lies in one (label, word) sector.

    The state is scattered into one dense grid and transformed; the result
    holds every grid index in order, all with that label and word. The
    pipeline transforms only the prepared basis state this way. A state
    spread over two or more sectors raises ValueError before anything
    grid-sized is allocated.
    """
    in_sector = (s.labels == s.labels[:1]) & (s.words == s.words[:1])
    if not (in_sector.size and in_sector.all()):
        raise ValueError("apply_qft transforms a state in exactly one (label, word) "
                         f"sector; the {len(s)} terms of this one are not")
    size = 1 << (s.n * s.p)
    dense = np.zeros(size, dtype=np.complex128)
    dense[s.grid] = s.amplitudes
    return s.replace(labels=np.repeat(s.labels[:1], size), words=np.repeat(s.words[:1], size),
                     grid=np.arange(size, dtype=np.int64),
                     amplitudes=qft_amplitudes(dense, s.n, s.p))


def collapse_to_grid(s: SparseTripartiteState, expected_label: DomainLabel,
                     expected_word: int) -> GridState:
    """Project the state onto its grid register.

    Every term must already sit in the (expected_label, expected_word)
    sector; the simulation is exact on basis labels, so any term elsewhere,
    however small its amplitude, means an inverse pair is broken. The first
    stray term is named in the ResidualEntanglementError.
    """
    if expected_label.x == s.x:
        code = label_code(expected_label, s.n, s.p)
        stray = np.flatnonzero((s.labels != code) | (s.words != expected_word))
    else:
        stray = np.arange(len(s))
    if stray.size:
        t = s.terms[int(stray[0])]
        raise ResidualEntanglementError(
            f"term (label={t.label!r}, word={t.word}, grid={t.grid}, "
            f"amplitude={t.amplitude!r}) is outside the expected sector "
            f"(label={expected_label!r}, word={expected_word})"
        )
    amps = np.zeros(1 << (s.n * s.p), dtype=complex)
    amps[s.grid] = s.amplitudes
    return GridState(n=s.n, p=s.p, amplitudes=amps)
