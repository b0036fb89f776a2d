"""Pipeline operators acting on tripartite states.

Each operator returns a new state of its input's form and works on all
terms in one numpy pass; arrays an operator leaves unchanged are shared with
its input. The shift, the two oracle passes and the grid transform take the
grid-aligned form the pipeline carries; the phase rotation and the collapse
also take the general form, which the acceptance gate builds from a few
SparseTerms, and read the arrays it derives from them.
On the aligned form the shift only flips the label mode, and the phase kick
starts from the one amplitude all terms share, so it kicks each range word
once and gathers when the format has no more words than the grid has
points. The per-bit variant builds that table by doubling: a word's last
gate is the one of its highest bit, so the kick of 2^k + w is the kick of w
times gate k, one product per word. That keeps run_pipeline's peak near
65 bytes per grid point (tracemalloc, n=8, p=2); the audit
(analysis.verify_theorem) adds its two reference arrays, which it
transforms in place through the same qft_amplitudes. The shift and oracle
operators are basis permutations (amplitudes move, never mix), the phase
rotation multiplies amplitudes by unit phases, and the grid transform acts
on the grid register alone, so it could only mix amplitudes within a
(label, word) sector; it is applied to one-sector states only. That is why
run_pipeline can collapse onto the grid register before the second
transform and verify factorization exactly there: a broken inverse pair
leaves terms in a wrong sector, and no operator can hide them.

The arithmetic reproduces, bit for bit, what composing the operators term by
term with Python complex numbers gives: phases come from the same cos/sin,
and complex products are written out on real and imaginary parts, because
numpy's complex multiply may fuse them into FMAs and round differently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .oracle import (BASE_CODE, DomainLabel, FixedPointFormat, check_words,
                     oracle_words, range_add, range_sub)
from .qft import qft_amplitudes
from .states import (GridAlignedState, GridState, SparseTripartiteState,
                     label_code, represented_points)

if TYPE_CHECKING:
    from .models import FunctionModel
    from .params import AlgorithmParams

PHASE_VARIANTS = ("direct", "per-bit")

# apply_phase_rotation and collapse_to_grid take either state form.
PipelineState = Union[GridAlignedState, SparseTripartiteState]


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


def _label_points(s: GridAlignedState, params: AlgorithmParams) -> np.ndarray:
    """Represented point of every term's label, as a (terms, p) array:
    x for BASE, x + mu * (g - g0) for SHIFTED(g)."""
    if s.shifted:
        return represented_points(s.x, params.mu, s.n)
    return np.tile(s.x, (len(s), 1))


def apply_u_plus(s: GridAlignedState, params: AlgorithmParams) -> GridAlignedState:
    """Shift operator: label <- c_p(label, g) per term, amplitudes unchanged.

    Term h has grid index h, so BASE <-> SHIFTED(h) flips the label mode.
    """
    return s.replace(shifted=not s.shifted)


def apply_u_plus_inverse(s: GridAlignedState, params: AlgorithmParams) -> GridAlignedState:
    """Inverse shift; the same flip, since the shift is an involution. It is
    a function of its own, not an alias: perfbench's tracer patches by
    identity, and an alias would merge the two spans."""
    return s.replace(shifted=not s.shifted)


def apply_u_f(s: GridAlignedState, model: FunctionModel, fmt: FixedPointFormat,
              params: AlgorithmParams, counter: OracleCallCounter) -> GridAlignedState:
    """Oracle operator: word <- word + c_f(label) in the range group."""
    counter.bump()
    values = oracle_words(model, fmt, _label_points(s, params))
    return s.replace(words=range_add(fmt, s.words, values))


def apply_u_f_inverse(s: GridAlignedState, model: FunctionModel, fmt: FixedPointFormat,
                      params: AlgorithmParams, counter: OracleCallCounter) -> GridAlignedState:
    """Uncomputation of the oracle; costs one oracle call like the forward map
    and evaluates f again rather than reusing the forward words."""
    counter.bump()
    values = oracle_words(model, fmt, _label_points(s, params))
    return s.replace(words=range_sub(fmt, s.words, values))


def _phase_kick(re, im, words: np.ndarray, lam: float, fmt: FixedPointFormat,
               variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (re + i im) kicked by each word.

    direct multiplies by e^(2 pi i lam c_r(word)); per-bit multiplies by the
    gate e^(2 pi i lam a1 2^k) of every set bit k, in order of k. re and im
    broadcast against words. Words outside the format raise ValueError.
    """
    if variant == "direct":
        return complex_product(re, im, *unit_phases(lam, fmt.decode(words)))
    check_words(fmt, words)
    for k in range(fmt.bits):
        gate = _bit_gate(lam, fmt, k)
        bit = ((words >> k) & 1).astype(bool)
        kicked_re, kicked_im = complex_product(re, im, gate.real, gate.imag)
        re, im = np.where(bit, kicked_re, re), np.where(bit, kicked_im, im)
    return re, im


def _bit_gate(lam: float, fmt: FixedPointFormat, k: int) -> complex:
    """Phase e^(2 pi i lam a1 2^k) of the single-bit gate on range bit k."""
    return cmath.exp(2j * cmath.pi * lam * fmt.a1 * float(1 << k))


def _per_bit_table(re, im, lam: float, fmt: FixedPointFormat) -> tuple[np.ndarray, np.ndarray]:
    """_phase_kick(re, im, np.arange(2^N), lam, fmt, "per-bit"), by doubling.

    Gate k is the last gate the per-bit loop applies to any word in
    [2^k, 2^(k+1)), after the gates of the word's lower bits in order, so
    T[2^k + w] is T[w] times gate k: 2^N - 1 products with the loop's
    rounding, instead of N passes over all 2^N words.
    """
    table_re = np.empty(fmt.num_words)
    table_im = np.empty(fmt.num_words)
    table_re[0], table_im[0] = re, im
    for k in range(fmt.bits):
        gate = _bit_gate(lam, fmt, k)
        low = 1 << k
        table_re[low:2 * low], table_im[low:2 * low] = complex_product(
            table_re[:low], table_im[:low], gate.real, gate.imag)
    return table_re, table_im


def apply_phase_rotation(s: PipelineState, lam: float, fmt: FixedPointFormat,
                         variant: str = "direct") -> PipelineState:
    """Multiply each term by e^(2 pi i lam c_r(word)).

    The per-bit variant routes every set bit k through diag(1, e^(2 pi i lam
    a1 2^k)) instead, exactly what a bank of single-bit phase gates on the
    range register would do. It differs from the direct variant by the global
    phase e^(2 pi i lam a0), since the bits only ever see the a1 part.

    While every term shares one amplitude, a term's kicked amplitude depends
    on its word alone; when the format has no more words than the state has
    terms, each word is kicked once and the results are gathered. The
    per-bit table is built by doubling (_per_bit_table).
    """
    if variant not in PHASE_VARIANTS:
        raise ValueError(f"variant must be one of {PHASE_VARIANTS}")
    amps = s.amplitudes
    if amps.ndim == 0 and fmt.num_words <= len(s):
        check_words(fmt, s.words)
        if variant == "direct":
            table = _phase_kick(amps.real, amps.imag, np.arange(fmt.num_words), lam, fmt,
                                variant)
        else:
            table = _per_bit_table(amps.real, amps.imag, lam, fmt)
        return s.replace(amplitudes=np.take(complex_array(*table), s.words))
    return s.replace(amplitudes=complex_array(*_phase_kick(amps.real, amps.imag, s.words,
                                                          lam, fmt, variant)))


def apply_qft(s: GridAlignedState) -> GridAlignedState:
    """Grid-register transform of a state that lies in one (label, word) sector.

    An aligned state holds a term at every grid index, so it lies in one
    sector only when every label is BASE and every word is the same. Any
    other state raises ValueError before anything grid-sized is allocated.
    """
    if s.shifted or s.words.min() != s.words.max():
        raise ValueError("apply_qft transforms a state in exactly one (label, word) "
                         f"sector; the {len(s)} terms of this one are not")
    return s.replace(amplitudes=qft_amplitudes(
        np.broadcast_to(s.amplitudes, (len(s),)), s.n, s.p))


def collapse_to_grid(s: PipelineState, expected_label: DomainLabel,
                     expected_word: int) -> GridState:
    """Project the state onto its grid register.

    Every term must already sit in the (expected_label, expected_word)
    sector; the simulation is exact on basis labels, so any term elsewhere,
    however small its amplitude, means an inverse pair is broken. The first
    stray term, read by term(i), is named in the ResidualEntanglementError.
    """
    aligned = isinstance(s, GridAlignedState)
    if expected_label.x == s.x:
        code = label_code(expected_label, s.n, s.p)
        # An aligned state's labels are all BASE or SHIFTED(h) at term h.
        labels = (np.arange(len(s)) if s.shifted else BASE_CODE) if aligned else s.labels
        stray = np.flatnonzero((labels != code) | (s.words != expected_word))
    else:
        stray = np.arange(len(s))
    if stray.size:
        t = s.term(int(stray[0]))
        raise ResidualEntanglementError(
            f"term (label={t.label!r}, word={t.word}, grid={t.grid}, "
            f"amplitude={t.amplitude!r}) is outside the expected sector "
            f"(label={expected_label!r}, word={expected_word})"
        )
    size = 1 << (s.n * s.p)
    if aligned:
        # Term h already sits at grid index h.
        amps = np.full(size, s.amplitudes) if s.amplitudes.ndim == 0 else s.amplitudes
    else:
        amps = np.zeros(size, dtype=complex)
        amps[s.grid] = s.amplitudes
    return GridState(n=s.n, p=s.p, amplitudes=amps)
