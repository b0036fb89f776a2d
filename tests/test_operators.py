"""Sparse pipeline operators: permutation structure, phases, sector algebra."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import gradkick.states as states
from gradkick import (DomainBox, FixedPointFormat, GridState, linear_model,
                      run_pipeline)
from gradkick.operators import (OracleCallCounter, ResidualEntanglementError,
                                apply_phase_rotation, apply_qft, apply_u_f,
                                apply_u_f_inverse, apply_u_plus,
                                apply_u_plus_inverse, collapse_to_grid)
from gradkick.oracle import DomainLabel, RangeOverflowError, range_add, range_sub
from gradkick.params import AlgorithmParams
from gradkick.states import GridAlignedState, SparseTerm, SparseTripartiteState

PARAMS = AlgorithmParams(n=2, nu=0.0625, lam=1.0, mu=0.25)
FMT = FixedPointFormat(bits=6, a0=-2.0, a1=0.0625)
BOX = DomainBox.cube(1, 4.0)
MODEL = linear_model([-1.0], BOX)


def terms_of(state):
    """Every term of an aligned state, read one grid index at a time."""
    return tuple(state.term(h) for h in range(len(state)))


def uniform_state(n=2, p=1, x=(0.0,)):
    """The grid transform of |BASE> |0> |0...0>."""
    size = 1 << (n * p)
    basis = np.zeros(size, dtype=complex)
    basis[0] = 1.0
    return apply_qft(GridAlignedState(n, p, x, False, np.zeros(size), basis))


def test_apply_qft_spreads_initial_state_uniformly():
    state = uniform_state()
    assert len(state) == 4
    for term in terms_of(state):
        assert term.label == DomainLabel.base((0.0,))
        assert term.word == 0
        assert term.amplitude == pytest.approx(0.5, abs=1e-15)


def test_u_plus_swaps_base_to_shifted_per_grid():
    state = apply_u_plus(uniform_state(), PARAMS)
    for term in terms_of(state):
        assert term.label == DomainLabel.shifted((0.0,), term.grid)


def test_u_plus_inverse_undoes_u_plus():
    state = uniform_state()
    back = apply_u_plus_inverse(apply_u_plus(state, PARAMS), PARAMS)
    assert terms_of(back) == terms_of(state)


def test_oracle_counter_bumps_once_per_application():
    state = apply_u_plus(uniform_state(), PARAMS)
    counter = OracleCallCounter()
    state = apply_u_f(state, MODEL, FMT, PARAMS, counter)
    assert counter.count == 1  # one call despite four superposed terms
    state = apply_u_f_inverse(state, MODEL, FMT, PARAMS, counter)
    assert counter.count == 2


@pytest.mark.parametrize("mode", ["modular", "xor"])
def test_u_f_inverse_restores_words(mode):
    fmt = FixedPointFormat(bits=6, a0=-2.0, a1=0.0625, group_mode=mode)
    state = apply_u_plus(uniform_state(), PARAMS)
    counter = OracleCallCounter()
    forward = apply_u_f(state, MODEL, fmt, PARAMS, counter)
    assert any(t.word != 0 for t in terms_of(forward))  # the oracle actually wrote
    back = apply_u_f_inverse(forward, MODEL, fmt, PARAMS, counter)
    assert all(t.word == 0 for t in terms_of(back))
    assert terms_of(back) == terms_of(state)


def test_phase_rotation_direct_values():
    label = DomainLabel.base((0.0,))
    terms = (SparseTerm(label, 5, (0,), 1.0 + 0j),)
    state = SparseTripartiteState(n=2, p=1, terms=terms)
    rotated = apply_phase_rotation(state, 0.3, FMT, variant="direct")
    expected = cmath.exp(2j * cmath.pi * 0.3 * FMT.decode(5))
    assert rotated.terms[0].amplitude == pytest.approx(expected, abs=1e-15)


def test_phase_rotation_per_bit_differs_by_global_a0_phase():
    label = DomainLabel.base((0.0,))
    lam = 0.7
    for word in range(FMT.num_words):
        state = SparseTripartiteState(
            n=2, p=1, terms=(SparseTerm(label, word, (0,), 1.0 + 0j),))
        direct = apply_phase_rotation(state, lam, FMT, variant="direct")
        per_bit = apply_phase_rotation(state, lam, FMT, variant="per-bit")
        aligned = per_bit.terms[0].amplitude * cmath.exp(2j * cmath.pi * lam * FMT.a0)
        assert abs(aligned - direct.terms[0].amplitude) < 1e-12


@pytest.mark.parametrize("variant", ["direct", "per-bit"])
@pytest.mark.parametrize("n", [2, 3])
def test_phase_rotation_rejects_words_above_the_format(variant, n):
    # Both state forms; at n = 3 the aligned form kicks the 2^3-word table
    # and gathers by word, at n = 2 it kicks each term.
    fmt = FixedPointFormat(bits=3, a0=-0.5, a1=0.125)
    size = 1 << n
    words = np.arange(size) + 6  # 8 and 9 reach past 3 bits
    aligned = GridAlignedState(n, 1, (0.0,), True, words, size ** -0.5)
    general = SparseTripartiteState(n, 1, terms_of(aligned))
    for state in (aligned, general):
        with pytest.raises(ValueError, match="word 8 does not fit in 3 bits"):
            apply_phase_rotation(state, 0.3, fmt, variant=variant)


def test_phase_rotation_rejects_unknown_variant():
    state = uniform_state()
    with pytest.raises(ValueError, match="variant"):
        apply_phase_rotation(state, 1.0, FMT, variant="bulk")


def test_apply_qft_refuses_more_than_one_sector():
    # Terms that differ in word, or in label, lie in two sectors; SHIFTED(h)
    # labels differ from term to term.
    state = uniform_state()
    for other in (state.replace(words=np.array([0, 0, 3, 0])),
                  state.replace(shifted=True)):
        with pytest.raises(ValueError, match="one .label, word. sector"):
            apply_qft(other)


def test_collapse_to_grid_happy_path():
    state = uniform_state()
    chi = collapse_to_grid(state, DomainLabel.base((0.0,)), expected_word=0)
    assert isinstance(chi, GridState)
    assert np.allclose(chi.amplitudes, 0.5)


def test_collapse_raises_on_any_out_of_sector_term():
    label = DomainLabel.base((0.0,))
    stray_label = DomainLabel.shifted((0.0,), (2,))
    eps = 1e-9
    big = math.sqrt(1.0 - eps * eps)
    terms = (
        SparseTerm(label, 0, (0,), big + 0j),
        SparseTerm(stray_label, 0, (2,), eps + 0j),
    )
    state = SparseTripartiteState(n=2, p=1, terms=terms)
    # Even a tiny stray amplitude is a hard failure: basis labels are exact.
    with pytest.raises(ResidualEntanglementError, match="SHIFTED"):
        collapse_to_grid(state, label, expected_word=0)
    wrong_word = SparseTripartiteState(
        n=2, p=1, terms=(SparseTerm(label, 1, (0,), 1.0 + 0j),))
    with pytest.raises(ResidualEntanglementError, match="word=1"):
        collapse_to_grid(wrong_word, label, expected_word=0)


def test_general_form_collapses_like_the_aligned_form():
    # The general form built from an aligned state's terms gives the same
    # grid bits, and names the same stray term once one term leaves the
    # sector.
    n, p, x = 2, 2, (0.1, -0.3)
    base = DomainLabel.base(x)
    aligned = apply_phase_rotation(GridAlignedState.prepared(n, p, x), 0.37, FMT)
    general = SparseTripartiteState(n, p, terms_of(aligned))
    assert (collapse_to_grid(general, base, 0).amplitudes.tobytes()
            == collapse_to_grid(aligned, base, 0).amplitudes.tobytes())
    words = np.zeros(1 << (n * p), dtype=np.int64)
    words[9] = 3
    for broken, stray in ((aligned.replace(words=words), "word=3, grid=(2, 1)"),
                          (aligned.replace(shifted=True), "SHIFTED(0, 0)), word=0")):
        messages = []
        for state in (broken, SparseTripartiteState(n, p, terms_of(broken))):
            with pytest.raises(ResidualEntanglementError, match="outside the expected") as err:
                collapse_to_grid(state, base, 0)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and stray in messages[0]


def test_two_sector_qft_is_refused_before_it_allocates():
    # Two sectors on a 2^22-point grid: one dense grid alone would be
    # 64 MiB of complex128.
    n, p = 11, 2
    size = 1 << (n * p)
    words = np.zeros(size, dtype=np.int64)
    words[5 << n | 7] = 1
    for state in (GridAlignedState(n, p, (0.0, 0.0), False, words, size ** -0.5),
                  GridAlignedState(n, p, (0.0, 0.0), True, np.zeros(size), size ** -0.5)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="one .label, word. sector"):
                apply_qft(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_one_sector_qft_follows_the_callers_grid_guard(monkeypatch):
    # apply_qft has no guard of its own: run_pipeline's max_grid_bits
    # decides, even above the default.
    monkeypatch.setattr(states, "DEFAULT_MAX_GRID_BITS", 3)
    params = AlgorithmParams(n=2, nu=0.0625, lam=1.0, mu=1e-3)
    model = linear_model([0.5, -0.25], DomainBox.cube(2, 1.0))
    chi, calls = run_pipeline(model, [0.0, 0.0], params, max_grid_bits=8)
    assert chi.amplitudes.size == 16 and calls == 2


@pytest.mark.parametrize("group_mode", ["modular", "xor"])
def test_stray_words_are_refused_where_they_enter(group_mode):
    # range_add and range_sub check both operands. The oracle passes check
    # the state's words once and take the oracle's words from quantize,
    # which refuses a value the format cannot hold. A word of 2^N in a
    # modular pass would otherwise come out masked into range.
    fmt = FixedPointFormat(bits=3, a0=-1.0, a1=0.25, group_mode=group_mode)
    for op in (range_add, range_sub):
        for r1, r2 in ((np.array([1, 8]), np.array([0, 0])), (np.array([1, 2]), [0, -1])):
            with pytest.raises(ValueError, match=r"word (8|-1) does not fit in 3 bits"):
                op(fmt, r1, r2)
    params = AlgorithmParams(n=3, nu=0.25, lam=1.0, mu=0.05)
    model = linear_model([0.5], DomainBox.cube(1, 1.0))
    counter = OracleCallCounter()
    for stray in (8, -1):
        words = np.zeros(8, dtype=np.int64)
        words[5] = stray
        for shifted in (False, True):
            state = GridAlignedState(3, 1, (0.0,), shifted, words, 8 ** -0.5)
            for apply in (apply_u_f, apply_u_f_inverse):
                with pytest.raises(ValueError, match=f"word {stray} does not fit in 3 bits"):
                    apply(state, model, fmt, params, counter)
    steep = linear_model([50.0], DomainBox.cube(1, 1.0))
    state = GridAlignedState(3, 1, (0.0,), True, np.zeros(8, dtype=np.int64), 8 ** -0.5)
    for apply in (apply_u_f, apply_u_f_inverse):
        with pytest.raises(RangeOverflowError, match="outside representable range"):
            apply(state, steep, fmt, params, counter)
