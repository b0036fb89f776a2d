"""Grid and sparse tripartite state containers, the grid layout and blocks."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import GridState
from gradkick.oracle import DomainLabel
from gradkick.states import (BLOCK_BYTES, GridSizeError, SparseTerm, SparseTripartiteState,
                             blocks, check_grid_bits, grid_index_of, grid_outer,
                             grid_point_of, grid_points)


def test_grid_index_row_major_first_axis_slowest():
    # (g1, g2) -> g1 * 2^n + g2 for p = 2.
    n = 3
    assert grid_index_of((0, 0), n, 2) == 0
    assert grid_index_of((0, 5), n, 2) == 5
    assert grid_index_of((1, 0), n, 2) == 8
    assert grid_index_of((7, 7), n, 2) == 63
    assert grid_index_of((2, 3), n, 2) == 19


def test_grid_index_round_trip_exhaustive():
    for n, p in ((1, 1), (2, 1), (2, 3), (3, 2)):
        for flat in range(1 << (n * p)):
            g = grid_point_of(flat, n, p)
            assert grid_index_of(g, n, p) == flat
        # Lexicographic order of tuples agrees with flat order.
        points = [grid_point_of(i, n, p) for i in range(1 << (n * p))]
        assert points == sorted(points)


def test_grid_index_validation():
    with pytest.raises(ValueError):
        grid_index_of((4,), 2, 1)
    with pytest.raises(ValueError):
        grid_index_of((0,), 2, 2)
    with pytest.raises(ValueError):
        grid_point_of(16, 2, 2)
    with pytest.raises(ValueError):
        grid_point_of(-1, 2, 2)


def test_grid_state_basis_one_hot():
    expected = np.zeros(16, dtype=complex)
    expected[7] = 1.0
    state = GridState(n=2, p=2, amplitudes=expected)
    assert np.array_equal(state.amplitudes, expected)
    assert state.grid_of(7) == (1, 3)
    assert state.norm() == 1.0


def test_grid_state_rejects_unnormalized():
    amps = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="norm"):
        GridState(n=2, p=1, amplitudes=amps)
    with pytest.raises(ValueError, match="norm"):
        GridState(n=2, p=1, amplitudes=np.zeros(4, dtype=complex))
    assert GridState(n=2, p=1, amplitudes=amps / 2).norm() == 1.0


def test_grid_state_shape_validation():
    with pytest.raises(ValueError):
        GridState(n=2, p=1, amplitudes=np.full(3, 3 ** -0.5, dtype=complex))
    with pytest.raises(ValueError):
        GridState(n=0, p=1, amplitudes=np.ones(1, dtype=complex))


def test_check_grid_bits_guard():
    check_grid_bits(13, 2)  # 26 bits: exactly at the default guard
    with pytest.raises(GridSizeError, match="27"):
        check_grid_bits(27, 1)
    with pytest.raises(GridSizeError):
        check_grid_bits(14, 2)
    check_grid_bits(14, 2, max_grid_bits=28)  # explicit override
    # Flat indices are int64: no guard may admit more than 62 bits.
    assert check_grid_bits(31, 2, max_grid_bits=62)[1] == 1 << 62
    with pytest.raises(ValueError, match="max_grid_bits must be in 1..62"):
        check_grid_bits(1, 1, max_grid_bits=63)
    with pytest.raises(GridSizeError):
        check_grid_bits(3, 1, max_grid_bits=2)
    with pytest.raises(ValueError):
        check_grid_bits(0, 1)


@given(itemsize=st.sampled_from([1, 8]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_blocks_cover_the_range_once_in_order(itemsize, data):
    step = BLOCK_BYTES // itemsize
    total = data.draw(st.integers(0, 3 * step + 1), label="total")
    slices = list(blocks(total, itemsize))
    assert [i for block in slices for i in range(total)[block]] == list(range(total))
    assert all(0 < block.stop - block.start <= step and block.stop <= total
               for block in slices)


@given(n=st.integers(1, 3), p=st.integers(1, 4),
       ufunc=st.sampled_from([np.add, np.multiply, np.logical_and]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_grid_outer_is_the_per_index_formula(n, p, ufunc, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    tables = [rng.random(size) < 0.7 if ufunc is np.logical_and else rng.normal(size=size)
              for _ in range(p)]
    points = grid_points(np.arange(size ** p), n, p)
    expected = np.array([functools.reduce(ufunc, [t[g] for t, g in zip(tables, point)])
                         for point in points.tolist()])
    got = grid_outer(ufunc, tables)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_sparse_state_rejects_duplicate_triples():
    label = DomainLabel.base((0.0,))
    terms = (
        SparseTerm(label, 0, (1,), 0.5 ** 0.5 + 0j),
        SparseTerm(label, 0, (1,), 0.5 ** 0.5 + 0j),
    )
    with pytest.raises(ValueError, match="duplicate"):
        SparseTripartiteState(n=2, p=1, terms=terms)


def test_sparse_state_rejects_bad_grid_and_norm():
    label = DomainLabel.base((0.0,))
    with pytest.raises(ValueError, match="out of range"):
        SparseTripartiteState(
            n=2, p=1, terms=(SparseTerm(label, 0, (4,), 1.0 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        SparseTripartiteState(
            n=2, p=1, terms=(SparseTerm(label, 0, (0,), 0.5 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        SparseTripartiteState(n=2, p=1, terms=())
    # The norm is checked again whenever an operator swaps the amplitudes.
    state = SparseTripartiteState(
        n=2, p=1, terms=(SparseTerm(label, 0, (0,), 1.0 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        state.replace(amplitudes=np.array([0.5 + 0j]))


def test_sparse_state_rejects_mixed_evaluation_points():
    terms = (
        SparseTerm(DomainLabel.base((0.0,)), 0, (0,), 0.6 + 0j),
        SparseTerm(DomainLabel.base((0.5,)), 0, (1,), 0.8 + 0j),
    )
    with pytest.raises(ValueError, match="mix evaluation points"):
        SparseTripartiteState(n=2, p=1, terms=terms)


def test_sparse_state_terms_round_trip_through_arrays():
    x = (0.25, -0.5)
    terms = (
        SparseTerm(DomainLabel.base(x), 3, (1, 2), 0.6 + 0j),
        SparseTerm(DomainLabel.shifted(x, (3, 0)), 0, (3, 0), 0.0 + 0.8j),
    )
    state = SparseTripartiteState(n=2, p=2, terms=terms)
    assert tuple(state.term(i) for i in range(len(state))) == terms
    assert state.term(-1) == terms[-1]
    assert state.labels.tolist() == [-1, 12] and state.grid.tolist() == [6, 12]
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0  # arrays are shared between states, so frozen


def test_sparse_state_refuses_bad_terms():
    # Every refusal comes from the terms as given: the arrays are derived
    # from them once and checked nowhere else.
    def build(shifts=(0, 1, 2, 3), grid=(0, 1, 2, 3), xs=((0.0,),) * 4,
              amplitudes=(0.5,) * 4):
        return SparseTripartiteState(2, 1, [
            SparseTerm(DomainLabel.shifted(x, (h,)), 0, (g,), complex(a))
            for h, g, x, a in zip(shifts, grid, xs, amplitudes)])

    with pytest.raises(ValueError, match=r"grid index \(4,\) out of range"):
        build(shifts=(0, 1, 2, 4))
    with pytest.raises(ValueError, match=r"grid index \(-1,\) out of range"):
        build(grid=(0, 1, 2, -1))
    with pytest.raises(ValueError, match="duplicate basis triple"):
        build(shifts=(0, 1, 1, 3), grid=(0, 1, 1, 3))
    with pytest.raises(ValueError, match="mix evaluation points"):
        build(xs=((0.0,),) * 3 + ((0.5,),))
    with pytest.raises(ValueError, match="norm"):
        build(amplitudes=(0.6,) * 4)
    state = build()
    arrays = (state.labels, state.words, state.grid, state.amplitudes)
    assert [a.tolist() for a in arrays[:3]] == [[0, 1, 2, 3], [0] * 4, [0, 1, 2, 3]]
    rotated = state.replace(amplitudes=state.amplitudes[::-1] * 1j)
    assert rotated.terms[0] == state.terms[0]._replace(amplitude=0.5j)
    for a in arrays + (rotated.labels, rotated.amplitudes):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="norm"):
        state.replace(amplitudes=np.full(4, 0.6 + 0j))
    with pytest.raises(ValueError):
        state.replace(amplitudes=np.full(3, 0.5 + 0j))